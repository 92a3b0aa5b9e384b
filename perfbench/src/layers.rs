//! Per-layer replays: inputs recorded from a workload's own trace and
//! miss streams, fed into one layer's public functions in isolation and
//! timed per operation.
//!
//! Every replay prepares its input first, untimed, and then times only
//! the loop of calls into the layer. Inputs are capped so the traced run
//! stays short; the cap takes each stream's prefix, so the sample is the
//! same on every run of the same seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pfsim::HistogramSnapshot;
use pfsim::{MissRecord, SystemConfig};
use pfsim_cache::{FirstLevelCache, LineState, MshrFile, MshrTryAlloc, SecondLevelCache};
use pfsim_coherence::{ActionBuf, DirAction, DirRequest, DirState, Directory};
use pfsim_engine::{Cycle, EventQueue};
use pfsim_mem::{BlockAddr, NodeId, SplitMix64};
use pfsim_network::{Mesh, MessageKind};
use pfsim_prefetch::{ReadAccess, ReadOutcome, Scheme};
use pfsim_workloads::{Op, PackedTrace, TraceCursor, Workload};

/// Most memory references per app fed to the cache and directory replays.
pub const REF_CAP: usize = 2_000_000;
/// Most recorded misses per app fed to each prefetcher replay.
pub const MISS_CAP: usize = 200_000;
/// Schedule+pop pairs in the calendar-queue replay.
pub const QUEUE_OPS: u64 = 2_000_000;

/// Accumulated replay time and operation count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rate {
    /// Time in the timed loops.
    pub time: Duration,
    /// Operations replayed.
    pub ops: u64,
}

impl Rate {
    /// Adds one timed replay.
    pub fn add(&mut self, time: Duration, ops: u64) {
        self.time += time;
        self.ops += ops;
    }

    /// Nanoseconds per operation (0 when nothing was replayed).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.time.as_nanos() as f64 / self.ops as f64
        }
    }
}

fn timed(f: impl FnOnce() -> u64) -> (Duration, u64) {
    let t = Instant::now();
    let ops = f();
    (t.elapsed(), ops)
}

/// Drains a fresh cursor over `trace`, every processor in turn.
pub fn decode(trace: &std::sync::Arc<PackedTrace>) -> (Duration, u64) {
    let mut cursor = TraceCursor::new(std::sync::Arc::clone(trace));
    timed(|| {
        let mut ops = 0;
        for cpu in 0..cursor.num_cpus() {
            while let Some(op) = cursor.next(cpu) {
                black_box(op);
                ops += 1;
            }
        }
        ops
    })
}

/// One memory reference of the trace: processor, store?, block.
#[derive(Debug, Clone, Copy)]
pub struct Ref {
    /// Issuing processor.
    pub cpu: u16,
    /// A store (else a load).
    pub write: bool,
    /// The referenced block.
    pub block: BlockAddr,
}

/// The trace's loads and stores, processors interleaved one reference at
/// a time, up to [`REF_CAP`].
pub fn refs(trace: &PackedTrace, cfg: &SystemConfig) -> Vec<Ref> {
    let mut iters: Vec<_> = (0..trace.num_cpus()).map(|c| trace.iter_cpu(c)).collect();
    let mut out = Vec::new();
    let mut live = true;
    while live && out.len() < REF_CAP {
        live = false;
        for (cpu, it) in iters.iter_mut().enumerate() {
            for op in it.by_ref() {
                let (write, addr) = match op {
                    Op::Read { addr, .. } => (false, addr),
                    Op::Write { addr, .. } => (true, addr),
                    _ => continue,
                };
                out.push(Ref {
                    cpu: cpu as u16,
                    write,
                    block: cfg.geometry.block_of(addr),
                });
                live = true;
                break;
            }
        }
    }
    out.truncate(REF_CAP);
    out
}

/// FLC probes: one write-through direct-mapped FLC per processor; a load
/// that misses fills. Returns the timing and the references that reach
/// the SLC (load misses and every store).
pub fn flc(refs: &[Ref], cfg: &SystemConfig, nodes: usize) -> ((Duration, u64), Vec<Ref>) {
    let fresh = || -> Vec<FirstLevelCache> {
        (0..nodes)
            .map(|_| FirstLevelCache::new(cfg.flc_bytes, cfg.geometry))
            .collect()
    };
    let mut to_slc = Vec::new();
    let mut caches = fresh();
    for r in refs {
        let c = &mut caches[r.cpu as usize];
        if r.write || !c.read(r.block) {
            if !r.write {
                c.fill(r.block);
            }
            to_slc.push(*r);
        }
    }
    let mut caches = fresh();
    let time = timed(|| {
        for r in refs {
            let c = &mut caches[r.cpu as usize];
            if r.write {
                black_box(c.write(r.block));
            } else if !c.read(r.block) {
                black_box(c.fill(r.block));
            }
        }
        refs.len() as u64
    });
    (time, to_slc)
}

/// SLC probes over the references that pass the FLC: a load probes and
/// fills on a miss; a store probes for ownership and fills Modified.
pub fn slc(refs: &[Ref], cfg: &SystemConfig, nodes: usize) -> (Duration, u64) {
    let mut caches: Vec<SecondLevelCache> = (0..nodes)
        .map(|_| SecondLevelCache::with_block_bytes(cfg.slc, cfg.geometry.block_bytes()))
        .collect();
    timed(|| {
        for r in refs {
            let c = &mut caches[r.cpu as usize];
            if r.write {
                if c.write_access(r.block).is_none() {
                    black_box(c.fill(r.block, LineState::Modified, false));
                }
            } else if c.demand_access(r.block).is_none() {
                black_box(c.fill(r.block, LineState::Shared, false));
            }
        }
        refs.len() as u64
    })
}

/// `MshrFile::try_alloc` over each node's recorded misses: a full file
/// retires its oldest entry, so the file runs at its configured depth.
pub fn mshr(misses: &[Vec<MissRecord>], cfg: &SystemConfig) -> (Duration, u64) {
    let cap = cfg.slwb_entries;
    let mut files: Vec<MshrFile<u32>> = misses.iter().map(|_| MshrFile::new(cap)).collect();
    let mut rings: Vec<std::collections::VecDeque<BlockAddr>> = misses
        .iter()
        .map(|_| std::collections::VecDeque::with_capacity(cap))
        .collect();
    timed(|| {
        let mut ops = 0;
        for ((node, file), ring) in misses.iter().zip(&mut files).zip(&mut rings) {
            for m in node.iter().take(MISS_CAP) {
                match file.try_alloc(m.block, 0) {
                    MshrTryAlloc::Allocated => ring.push_back(m.block),
                    MshrTryAlloc::InFlight => {}
                    MshrTryAlloc::Full => {
                        let oldest = ring.pop_front().expect("a full file has entries");
                        file.remove(oldest);
                        black_box(file.try_alloc(m.block, 0));
                        ring.push_back(m.block);
                    }
                }
                ops += 1;
            }
        }
        ops
    })
}

/// Each node's recorded misses replayed into its own fresh instance of
/// `scheme` through `Prefetcher::on_read`.
pub fn prefetch(misses: &[Vec<MissRecord>], cfg: &SystemConfig, scheme: Scheme) -> (Duration, u64) {
    let mut instances: Vec<_> = misses.iter().map(|_| scheme.build(cfg.geometry)).collect();
    let mut out = Vec::new();
    timed(|| {
        let mut ops = 0;
        for (node, p) in misses.iter().zip(&mut instances) {
            for m in node.iter().take(MISS_CAP) {
                out.clear();
                p.on_read(
                    &ReadAccess {
                        pc: m.pc,
                        addr: m.addr,
                        outcome: ReadOutcome::Miss,
                    },
                    &mut out,
                );
                black_box(&out);
                ops += 1;
            }
        }
        ops
    })
}

/// One directory request of the replay: home node, block, request.
pub type HomeRequest = (u16, BlockAddr, DirRequest);

/// The coherence requests the trace's references make on a machine whose
/// caches never evict and whose transactions complete at once: a load
/// with no copy reads shared, a store without ownership upgrades a shared
/// copy or reads exclusive. Built by running the requests through the
/// same directory code the replay times.
pub fn dir_requests(refs: &[Ref], cfg: &SystemConfig) -> Vec<HomeRequest> {
    let mut dirs: Vec<Directory> = (0..cfg.nodes).map(|_| Directory::new(cfg.nodes)).collect();
    let mut bufs = (ActionBuf::new(), ActionBuf::new());
    let mut out = Vec::new();
    for r in refs {
        let home = cfg
            .placement
            .home_of(cfg.geometry.page_of_block(r.block))
            .as_u16();
        let dir = &mut dirs[home as usize];
        let me = NodeId::new(r.cpu);
        let request = match (dir.state(r.block), r.write) {
            (DirState::Modified(owner), _) if owner == me => None,
            (DirState::Shared(s), false) if s.contains(me) => None,
            (DirState::Shared(s), true) if s.contains(me) => Some(DirRequest::Upgrade { from: me }),
            (_, false) => Some(DirRequest::read_shared(me)),
            (_, true) => Some(DirRequest::ReadExclusive { from: me }),
        };
        if let Some(request) = request {
            complete(dir, r.block, request, &mut bufs);
            out.push((home, r.block, request));
        }
    }
    out
}

/// Presents `request` and completes every action it returns the way the
/// machine would: fetches find the owner's copy, every invalidation is
/// acknowledged.
pub fn complete(
    dir: &mut Directory,
    block: BlockAddr,
    request: DirRequest,
    (cur, next): &mut (ActionBuf, ActionBuf),
) {
    cur.clear();
    dir.request(block, request, cur);
    while !cur.is_empty() {
        next.clear();
        for action in cur.iter() {
            match action {
                DirAction::Fetch { .. } | DirAction::FetchInval { .. } => {
                    dir.fetch_done(block, true, next)
                }
                DirAction::Invalidate { targets } => {
                    for _ in 0..targets.len() {
                        dir.inval_ack(block, next);
                    }
                }
                DirAction::ReadMemory
                | DirAction::WriteMemory
                | DirAction::SendData { .. }
                | DirAction::SendAck { .. } => {}
            }
        }
        std::mem::swap(cur, next);
    }
}

/// `Directory::request` with legal completion, replayed into fresh
/// directories over the prepared request stream.
pub fn directory(requests: &[HomeRequest], cfg: &SystemConfig) -> (Duration, u64) {
    let mut dirs: Vec<Directory> = (0..cfg.nodes).map(|_| Directory::new(cfg.nodes)).collect();
    let mut bufs = (ActionBuf::new(), ActionBuf::new());
    timed(|| {
        for &(home, block, request) in requests {
            complete(&mut dirs[home as usize], block, request, &mut bufs);
        }
        requests.len() as u64
    })
}

/// `Mesh::send` over the recorded requester-to-home mix: each miss sends
/// a control request to the block's home and a data reply back, nodes
/// taking turns, one message every other pclock.
pub fn mesh(misses: &[Vec<MissRecord>], cfg: &SystemConfig) -> (Duration, u64) {
    let mut pairs = Vec::new();
    let longest = misses
        .iter()
        .map(|m| m.len().min(MISS_CAP))
        .max()
        .unwrap_or(0);
    for i in 0..longest {
        for (node, m) in misses.iter().enumerate() {
            if let Some(m) = m.get(i) {
                let home = cfg.placement.home_of(cfg.geometry.page_of_block(m.block));
                pairs.push((NodeId::new(node as u16), home));
            }
        }
    }
    let (control, data) = (
        MessageKind::Control.flits(),
        MessageKind::Data.flits_for(cfg.geometry.block_bytes()),
    );
    let mut net = Mesh::new(cfg.mesh);
    timed(|| {
        let mut now = 0;
        for &(node, home) in &pairs {
            black_box(net.send(Cycle::new(now), node, home, control));
            black_box(net.send(Cycle::new(now + 1), home, node, data));
            now += 2;
        }
        2 * pairs.len() as u64
    })
}

/// Queue depth at the given quantile of a log2 histogram: the lower edge
/// of the bucket holding that sample (bucket `i > 0` holds `[2^(i-1), 2^i)`).
pub fn depth_quantile(h: &HistogramSnapshot, q: f64) -> u64 {
    let target = (h.count as f64 * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &n) in h.buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return if i == 0 { 0 } else { 1 << (i - 1) };
        }
    }
    h.max
}

/// Calendar-queue schedule+pop pairs at the recorded depth distribution:
/// for each log2 depth bucket, the queue is filled to the bucket's lower
/// edge (at least one event) and a share of [`QUEUE_OPS`] in proportion to the bucket's samples
/// pops the earliest event and schedules one 1–64 pclocks later.
pub fn queue(h: &HistogramSnapshot) -> (Duration, u64) {
    let mut rng = SplitMix64::seed_from_u64(0x9e37);
    let mut time = Duration::ZERO;
    let mut ops = 0;
    for (i, &n) in h.buckets.iter().enumerate() {
        let share = (QUEUE_OPS as f64 * n as f64 / h.count.max(1) as f64) as u64;
        if share == 0 {
            continue;
        }
        let depth = if i == 0 { 1 } else { 1u64 << (i - 1) };
        let mut q: EventQueue<u64> = EventQueue::new();
        for e in 0..depth {
            q.schedule(Cycle::new(rng.below(64)), e);
        }
        let delays: Vec<u64> = (0..share).map(|_| 1 + rng.below(64)).collect();
        let (t, k) = timed(|| {
            for &d in &delays {
                let (at, e) = q.pop().expect("the queue holds `depth` events");
                q.schedule(Cycle::new(at.as_u64() + d), black_box(e));
            }
            share
        });
        time += t;
        ops += k;
    }
    (time, ops)
}
