//! The builder the workload generators use to emit traces, and the
//! driver that generates one trace on several threads.
//!
//! Every generator is a pure function of its parameters ([`Generator`]).
//! [`generate`] exploits that to split the work by processor lane: each
//! of its threads runs the *whole* generator against a builder that
//! records only the lanes the thread owns (lane `c` belongs to shard
//! `c % shards`). A push to a lane the builder does not own returns at
//! once, while allocations, PC sites and barrier ids advance exactly as in
//! a full builder, so every shard computes the same addresses and ids and
//! the gathered lanes form the same [`PackedTrace`] a single builder
//! would — whatever the shard count. Generation cost is dominated by
//! pushing into the lanes, not by the generators' own arithmetic, so
//! skipping foreign lanes is where the parallel speed-up comes from.

use std::num::NonZeroUsize;

use pfsim_mem::{Addr, ArrayLayout, Geometry, Pc};

use crate::packed::{LaneWriter, PackedTrace};
use crate::{Op, TraceWorkload};

/// Operations (and payload words) a lane holds before its buffers first
/// grow.
const LANE_CAPACITY: usize = 1024;

/// A workload generator: a pure function of its parameters, so running it
/// twice emits the same trace.
pub(crate) trait Generator: Copy + Send {
    /// Processor count: the trace's lane count.
    fn cpus(&self) -> usize;

    /// Runs the modelled program, emitting into a builder over `lanes`.
    fn emit(self, lanes: Lanes) -> TraceBuilder;
}

/// The lane buffers one builder records into: `Some` for each lane it
/// owns, `None` for a lane another shard records.
#[derive(Debug, Clone)]
pub(crate) struct Lanes(Vec<Option<LaneWriter>>);

impl Lanes {
    /// Every one of `cpus` lanes.
    pub(crate) fn all(cpus: usize) -> Self {
        Self::shard(cpus, 0, 1)
    }

    /// Shard `shard` of `shards` over `cpus` lanes: it owns lane `c` when
    /// `c % shards == shard`.
    fn shard(cpus: usize, shard: usize, shards: usize) -> Self {
        Lanes(
            (0..cpus)
                .map(|c| (c % shards == shard).then(|| LaneWriter::with_capacity(LANE_CAPACITY)))
                .collect(),
        )
    }
}

/// Threads that generate a trace with `cpus` processor lanes (see
/// [`App::build_packed_for`](crate::App::build_packed_for)): the host's
/// available parallelism, clamped to the lane count.
pub fn generation_threads(cpus: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    host.min(cpus).max(1)
}

/// Generates `params`'s packed trace on
/// [`generation_threads`]`(params.cpus())` threads.
pub(crate) fn generate<G: Generator>(params: G) -> PackedTrace {
    generate_sharded(params, generation_threads(params.cpus()))
}

/// Generates `params`'s packed trace split into `shards` lane shards.
/// Shard 0 runs on the calling thread, the others on scoped threads.
pub(crate) fn generate_sharded<G: Generator>(params: G, shards: usize) -> PackedTrace {
    assert!(shards > 0, "generation needs at least one shard");
    // The calling thread allocates every shard's lane buffers. glibc's
    // realloc grows a chunk inside the malloc arena that owns it, so the
    // helpers' lane growth stays in this thread's arena instead of
    // spreading over per-thread arenas. On a 2-core x86-64 host the fig6
    // benchmark peaked at 9.2-9.3 MB single-threaded, 9.7-9.8 MB when the
    // helpers allocated their own buffers, and 9.4-9.6 MB allocating here.
    let mut sets: Vec<Lanes> = (0..shards)
        .map(|s| Lanes::shard(params.cpus(), s, shards))
        .collect();
    let builders: Vec<TraceBuilder> = std::thread::scope(|scope| {
        let helpers: Vec<_> = sets
            .drain(1..)
            .map(|lanes| scope.spawn(move || params.emit(lanes)))
            .collect();
        let first = params.emit(sets.pop().expect("shard 0 stays on this thread"));
        std::iter::once(first)
            .chain(
                helpers
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            )
            .collect()
    });
    TraceBuilder::gather(builders)
}

/// Accumulates per-processor operation streams plus the shared data layout.
///
/// The builder hands out page-aligned shared allocations (via
/// [`ArrayLayout`]), stable program counters per load/store site (so
/// I-detection sees the same instruction addresses a compiled binary would
/// produce), and global barrier identifiers.
///
/// # Examples
///
/// ```
/// use pfsim_workloads::{TraceBuilder, Workload};
///
/// let mut b = TraceBuilder::new("example", 2);
/// let a = b.alloc("A", 100, 8);
/// let pc_load = b.pc_site();
/// for i in 0..10 {
///     b.read(0, b.element(a, 8, i), pc_load);
/// }
/// b.barrier_all();
/// let wl = b.finish();
/// assert_eq!(wl.num_cpus(), 2);
/// assert_eq!(wl.total_ops(), 12); // 10 reads + 2 barrier ops
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    name: String,
    lanes: Lanes,
    layout: ArrayLayout,
    next_pc: u32,
    next_barrier: u32,
}

impl TraceBuilder {
    /// Creates a builder for `cpus` processors using the paper's geometry.
    pub fn new(name: impl Into<String>, cpus: usize) -> Self {
        Self::with_lanes(name, Lanes::all(cpus))
    }

    /// Creates a builder recording only the lanes `lanes` owns.
    pub(crate) fn with_lanes(name: impl Into<String>, lanes: Lanes) -> Self {
        TraceBuilder {
            name: name.into(),
            lanes,
            layout: ArrayLayout::new(Geometry::paper()),
            // Leave low "text addresses" for manually chosen PCs.
            next_pc: 0x0010_0000,
            next_barrier: 0,
        }
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.lanes.0.len()
    }

    /// Allocates a page-aligned shared region of `count` × `element_bytes`.
    pub fn alloc(&mut self, name: &'static str, count: u64, element_bytes: u64) -> Addr {
        self.layout.alloc(name, count, element_bytes)
    }

    /// Address of element `index` in an array at `base`.
    pub fn element(&self, base: Addr, element_bytes: u64, index: u64) -> Addr {
        self.layout.element(base, element_bytes, index)
    }

    /// Address of `field_offset` within element `index` of a struct array.
    pub fn field(&self, base: Addr, element_bytes: u64, index: u64, field_offset: u64) -> Addr {
        self.layout.field(base, element_bytes, index, field_offset)
    }

    /// Allocates a fresh program-counter value for a load/store site.
    ///
    /// Each static load or store in the modelled program gets exactly one
    /// site, mirroring compiled code.
    pub fn pc_site(&mut self) -> Pc {
        let pc = Pc::new(self.next_pc);
        self.next_pc += 4;
        pc
    }

    /// Appends `op` to `cpu`'s lane if this builder owns it.
    #[inline]
    fn push(&mut self, cpu: usize, op: Op) {
        if let Some(lane) = &mut self.lanes.0[cpu] {
            lane.push(op);
        }
    }

    /// Emits a load on `cpu`.
    pub fn read(&mut self, cpu: usize, addr: Addr, pc: Pc) {
        self.push(cpu, Op::Read { addr, pc });
    }

    /// Emits a store on `cpu`.
    pub fn write(&mut self, cpu: usize, addr: Addr, pc: Pc) {
        self.push(cpu, Op::Write { addr, pc });
    }

    /// Emits local computation on `cpu`. Zero-cycle computes are dropped;
    /// consecutive computes coalesce to keep traces compact (and to keep
    /// `total_ops` an honest issue count).
    pub fn compute(&mut self, cpu: usize, cycles: u32) {
        self.push(cpu, Op::Compute { cycles });
    }

    /// Emits a lock acquire on `cpu`.
    pub fn acquire(&mut self, cpu: usize, lock: Addr) {
        self.push(cpu, Op::Acquire { lock });
    }

    /// Emits a lock release on `cpu`.
    pub fn release(&mut self, cpu: usize, lock: Addr) {
        self.push(cpu, Op::Release { lock });
    }

    /// Emits a barrier across *all* processors and returns its id.
    pub fn barrier_all(&mut self) -> u32 {
        let id = self.next_barrier;
        self.next_barrier += 1;
        for lane in self.lanes.0.iter_mut().flatten() {
            lane.push(Op::Barrier { id });
        }
        id
    }

    /// Finalizes the builder into the packed shared-trace encoding.
    ///
    /// This is the zero-copy path: wrap the result in an `Arc` and replay
    /// it through any number of [`TraceCursor`](crate::TraceCursor)s.
    pub fn finish_packed(self) -> PackedTrace {
        Self::gather(vec![self])
    }

    /// Finalizes the builder into a fully materialized workload.
    ///
    /// Decodes the packed streams the builder accumulates, so it yields
    /// exactly the op sequence [`finish_packed`](Self::finish_packed)
    /// replays — the differential-determinism tests rely on that.
    pub fn finish(self) -> TraceWorkload {
        self.finish_packed().materialize()
    }

    /// Moves the lanes of one generator's shard builders into one trace.
    ///
    /// # Panics
    ///
    /// Panics if the shards disagree on the name, PC sites or barrier ids
    /// (the generator is not pure), or if some lane has no owner.
    fn gather(builders: Vec<TraceBuilder>) -> PackedTrace {
        let mut shards = builders.into_iter();
        let first = shards.next().expect("at least one shard");
        let mut lanes = first.lanes.0;
        for shard in shards {
            assert!(
                (&shard.name, shard.next_pc, shard.next_barrier)
                    == (&first.name, first.next_pc, first.next_barrier),
                "shards of generator {} diverged",
                first.name
            );
            for (slot, lane) in lanes.iter_mut().zip(shard.lanes.0) {
                if lane.is_some() {
                    assert!(slot.is_none(), "two shards own one lane");
                    *slot = lane;
                }
            }
        }
        let lanes = lanes
            .into_iter()
            .map(|lane| lane.expect("every lane has an owner").finish())
            .collect();
        PackedTrace::from_lanes(first.name, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn pc_sites_are_distinct_and_stable() {
        let mut b = TraceBuilder::new("t", 1);
        let a = b.pc_site();
        let c = b.pc_site();
        assert_ne!(a, c);
        assert_eq!(c.as_u32() - a.as_u32(), 4);
    }

    #[test]
    fn computes_coalesce() {
        let mut b = TraceBuilder::new("t", 1);
        b.compute(0, 2);
        b.compute(0, 3);
        b.compute(0, 0);
        let pc = b.pc_site();
        b.read(0, Addr::new(0x1000), pc);
        b.compute(0, 1);
        let wl = b.finish();
        assert_eq!(wl.trace(0).len(), 3);
        assert_eq!(wl.trace(0)[0], Op::Compute { cycles: 5 });
    }

    #[test]
    fn barrier_reaches_every_cpu_with_same_id() {
        let mut b = TraceBuilder::new("t", 4);
        let id0 = b.barrier_all();
        let id1 = b.barrier_all();
        assert_ne!(id0, id1);
        let mut wl = b.finish();
        for cpu in 0..4 {
            assert_eq!(wl.next(cpu), Some(Op::Barrier { id: id0 }));
            assert_eq!(wl.next(cpu), Some(Op::Barrier { id: id1 }));
        }
    }

    /// Runs the same little program on every shard of a 5-lane split
    /// into `shards`, returning each shard's PC sites, barrier ids and
    /// builder.
    fn shard_builders(shards: usize) -> Vec<(Vec<Pc>, Vec<u32>, TraceBuilder)> {
        (0..shards)
            .map(|s| {
                let mut b = TraceBuilder::with_lanes("t", Lanes::shard(5, s, shards));
                let a = b.alloc("a", 64, 8);
                let pcs = vec![b.pc_site(), b.pc_site()];
                let mut ids = vec![b.barrier_all()];
                for cpu in 0..5 {
                    b.read(cpu, b.element(a, 8, cpu as u64), pcs[cpu % 2]);
                }
                ids.push(b.barrier_all());
                (pcs, ids, b)
            })
            .collect()
    }

    #[test]
    fn shards_agree_on_pc_sites_and_barrier_ids() {
        let full = shard_builders(1).pop().expect("one shard");
        for shards in [2, 3] {
            for (pcs, ids, _) in shard_builders(shards) {
                assert_eq!((&pcs, &ids), (&full.0, &full.1), "{shards} shards");
            }
        }
    }

    #[test]
    fn shards_record_only_their_own_lanes() {
        let shards = shard_builders(2);
        for (s, (_, _, b)) in shards.iter().enumerate() {
            for (cpu, lane) in b.lanes.0.iter().enumerate() {
                assert_eq!(lane.is_some(), cpu % 2 == s, "shard {s} lane {cpu}");
            }
        }
        let gathered = TraceBuilder::gather(shards.into_iter().map(|(_, _, b)| b).collect());
        let (_, _, full) = shard_builders(1).pop().expect("one shard");
        assert_eq!(gathered, full.finish_packed());
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn gathering_diverged_shards_panics() {
        let mut shards: Vec<_> = shard_builders(2).into_iter().map(|(_, _, b)| b).collect();
        shards[1].pc_site();
        TraceBuilder::gather(shards);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut b = TraceBuilder::new("t", 1);
        let a = b.alloc("a", 512, 8);
        let c = b.alloc("c", 512, 8);
        assert!(c.as_u64() >= a.as_u64() + 4096);
    }
}
