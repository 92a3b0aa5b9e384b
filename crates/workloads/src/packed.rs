//! Packed struct-of-arrays trace encoding shared zero-copy across runs.
//!
//! The paper's program-driven methodology replays the *same* reference
//! stream under every architecture configuration (§4). A materialized
//! [`Vec<Op>`](crate::Op) honors that but costs 16 bytes per operation and
//! one private copy per run. [`PackedTrace`] encodes each processor's
//! stream as two parallel arrays — a 1-byte opcode stream and a
//! fixed-width `u32` payload stream — plus a small per-lane PC table. The
//! trace is immutable after construction; N concurrent runs each hold a
//! [`TraceCursor`] over one `Arc<PackedTrace>` and decode independently
//! with zero copies.
//!
//! An opcode byte's low nibble is the op kind and its high nibble a small
//! immediate:
//!
//! * reads and writes: an index into the lane's PC table. A modelled
//!   program has only a handful of static load/store sites (6–16 per
//!   SPLASH app), so the first 15 distinct PCs of a lane get table slots;
//!   the immediate 15 is an escape that keeps the PC in the payload, so
//!   any PC stays representable.
//! * computes: the cycle count when it is 1–15; 0 means the count is a
//!   payload word.
//!
//! A shared read therefore costs 5 bytes and a short compute 1 byte;
//! the six SPLASH apps pack at 4–5 amortized bytes per operation.
//!
//! Addresses are stored as one `u32` word when they fit (every generator's
//! allocations start at page 1 and stay far below 4 GiB) with a
//! wide-opcode escape carrying a second high word, so the format loses no
//! generality over the 64-bit [`Addr`](pfsim_mem::Addr) space.

use std::sync::Arc;

use pfsim_mem::{Addr, Pc};

use crate::{Op, TraceWorkload, Workload};

/// Opcode kinds (the low nibble of an opcode byte). The `_WIDE` variants
/// carry an extra high `u32` for addresses that do not fit in one payload
/// word.
mod opcode {
    pub const READ: u8 = 0;
    pub const READ_WIDE: u8 = 1;
    pub const WRITE: u8 = 2;
    pub const WRITE_WIDE: u8 = 3;
    pub const COMPUTE: u8 = 4;
    pub const ACQUIRE: u8 = 5;
    pub const ACQUIRE_WIDE: u8 = 6;
    pub const RELEASE: u8 = 7;
    pub const RELEASE_WIDE: u8 = 8;
    pub const BARRIER: u8 = 9;

    /// Selects the kind; the immediate is the byte shifted right by 4.
    pub const KIND: u8 = 0x0f;
    /// PC immediate meaning "the PC is the op's last payload word"; also
    /// the PC table's capacity.
    pub const PC_ESCAPE: u8 = 15;
    /// Largest compute cycle count carried in the immediate.
    pub const MAX_IMM_CYCLES: u32 = 15;
}

/// One processor's packed streams.
///
/// `opcodes` holds one byte per op (kind | immediate << 4), `payload` the
/// ops' `u32` words in op order, and `pcs` the lane's first
/// [`PC_ESCAPE`](opcode::PC_ESCAPE) distinct read/write PCs, indexed by
/// the reads' and writes' immediates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PackedLane {
    opcodes: Vec<u8>,
    payload: Vec<u32>,
    pcs: Vec<Pc>,
}

/// Memo slots in front of a lane's PC-table search.
const MEMO_SLOTS: usize = 16;

/// A lane under construction: its packed streams plus build-time state
/// that never reaches the [`PackedTrace`].
///
/// `memo` is a direct-mapped cache of PC-table indices keyed by
/// `(pc >> 2) & 15` (sites are word-aligned, so the low two bits carry no
/// information). A hit is verified against the table, so any slot content
/// is safe and a collision only costs the linear search it replaces.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneWriter {
    lane: PackedLane,
    memo: [u8; MEMO_SLOTS],
}

impl LaneWriter {
    /// An empty lane with room for `ops` operations (and as many payload
    /// words) before its buffers first grow. The PC table is sized for
    /// its full capacity up front.
    pub(crate) fn with_capacity(ops: usize) -> Self {
        LaneWriter {
            lane: PackedLane {
                opcodes: Vec::with_capacity(ops),
                payload: Vec::with_capacity(ops),
                pcs: Vec::with_capacity(usize::from(opcode::PC_ESCAPE)),
            },
            memo: [0; MEMO_SLOTS],
        }
    }

    /// The finished lane, without the build-time memo.
    pub(crate) fn finish(self) -> PackedLane {
        self.lane
    }

    /// Appends `op`, coalescing into a preceding `Compute` when possible.
    ///
    /// Zero-cycle computes are dropped and back-to-back computes merge
    /// into one op (saturating), so `total_ops` counts what a processor
    /// actually issues rather than how chatty the generator was.
    pub(crate) fn push(&mut self, op: Op) {
        match op {
            Op::Read { addr, pc } => self.push_mem(opcode::READ, addr, Some(pc)),
            Op::Write { addr, pc } => self.push_mem(opcode::WRITE, addr, Some(pc)),
            Op::Compute { cycles } => {
                if cycles == 0 {
                    return;
                }
                let cycles = match self.pop_compute() {
                    Some(prev) => prev.saturating_add(cycles),
                    None => cycles,
                };
                let lane = &mut self.lane;
                if cycles <= opcode::MAX_IMM_CYCLES {
                    lane.opcodes.push(opcode::COMPUTE | (cycles as u8) << 4);
                } else {
                    lane.opcodes.push(opcode::COMPUTE);
                    lane.payload.push(cycles);
                }
            }
            Op::Acquire { lock } => self.push_mem(opcode::ACQUIRE, lock, None),
            Op::Release { lock } => self.push_mem(opcode::RELEASE, lock, None),
            Op::Barrier { id } => {
                self.lane.opcodes.push(opcode::BARRIER);
                self.lane.payload.push(id);
            }
        }
    }

    /// Removes a trailing compute op and returns its cycle count.
    fn pop_compute(&mut self) -> Option<u32> {
        let lane = &mut self.lane;
        let &last = lane.opcodes.last()?;
        if last & opcode::KIND != opcode::COMPUTE {
            return None;
        }
        lane.opcodes.pop();
        Some(match last >> 4 {
            0 => lane.payload.pop().expect("payload compute has its count"),
            imm => u32::from(imm),
        })
    }

    /// The immediate naming `pc`: its table slot, claiming a free one if
    /// needed, or the escape once the table is full.
    fn pc_index(&mut self, pc: Pc) -> u8 {
        let slot = (pc.as_u32() >> 2) as usize % MEMO_SLOTS;
        let pcs = &mut self.lane.pcs;
        let memo = self.memo[slot];
        if pcs.get(usize::from(memo)) == Some(&pc) {
            return memo;
        }
        let i = match pcs.iter().position(|&p| p == pc) {
            Some(i) => i as u8,
            None if pcs.len() < usize::from(opcode::PC_ESCAPE) => {
                pcs.push(pc);
                (pcs.len() - 1) as u8
            }
            None => return opcode::PC_ESCAPE,
        };
        self.memo[slot] = i;
        i
    }

    /// Emits an address-carrying op. `base` must be a narrow opcode whose
    /// wide escape is `base + 1`; `pc` is `Some` for reads and writes.
    fn push_mem(&mut self, base: u8, addr: Addr, pc: Option<Pc>) {
        let imm = pc.map_or(0, |pc| self.pc_index(pc));
        let lane = &mut self.lane;
        let raw = addr.as_u64();
        let lo = raw as u32;
        let hi = (raw >> 32) as u32;
        if hi == 0 {
            lane.opcodes.push(base | imm << 4);
            lane.payload.push(lo);
        } else {
            lane.opcodes.push((base + 1) | imm << 4);
            lane.payload.push(lo);
            lane.payload.push(hi);
        }
        if let (Some(pc), opcode::PC_ESCAPE) = (pc, imm) {
            lane.payload.push(pc.as_u32());
        }
    }
}

impl PackedLane {
    fn packed_bytes(&self) -> usize {
        self.opcodes.len() + 4 * self.payload.len() + 4 * self.pcs.len()
    }

    /// Decodes the op at `op_idx`/`payload_idx`; returns it plus the
    /// payload index of the following op. Callers guarantee `op_idx` is in
    /// bounds.
    #[inline]
    fn decode(&self, op_idx: usize, payload_idx: usize) -> (Op, usize) {
        /// The op's payload words as a fixed-size array: one range check
        /// per decoded op (the `try_into` length test folds away).
        #[inline]
        fn words<const N: usize>(payload: &[u32], at: usize) -> [u32; N] {
            payload[at..at + N].try_into().expect("sized by the range")
        }
        let payload = &self.payload[..];
        let wide = |lo: u32, hi: u32| Addr::new(lo as u64 | (hi as u64) << 32);
        let byte = self.opcodes[op_idx];
        let imm = byte >> 4;
        // A read's or write's PC, from the table or (escape) the payload
        // word at `at`, plus the payload index after it. The table never
        // holds more than 15 PCs, so the escape is exactly the immediate
        // that falls outside it.
        let lane_pc = |at: usize| match self.pcs.get(usize::from(imm)) {
            Some(&pc) => (pc, at),
            None => (Pc::new(payload[at]), at + 1),
        };
        match byte & opcode::KIND {
            opcode::READ => {
                let [lo] = words(payload, payload_idx);
                let (pc, next) = lane_pc(payload_idx + 1);
                (
                    Op::Read {
                        addr: Addr::new(lo as u64),
                        pc,
                    },
                    next,
                )
            }
            opcode::READ_WIDE => {
                let [lo, hi] = words(payload, payload_idx);
                let (pc, next) = lane_pc(payload_idx + 2);
                (
                    Op::Read {
                        addr: wide(lo, hi),
                        pc,
                    },
                    next,
                )
            }
            opcode::WRITE => {
                let [lo] = words(payload, payload_idx);
                let (pc, next) = lane_pc(payload_idx + 1);
                (
                    Op::Write {
                        addr: Addr::new(lo as u64),
                        pc,
                    },
                    next,
                )
            }
            opcode::WRITE_WIDE => {
                let [lo, hi] = words(payload, payload_idx);
                let (pc, next) = lane_pc(payload_idx + 2);
                (
                    Op::Write {
                        addr: wide(lo, hi),
                        pc,
                    },
                    next,
                )
            }
            opcode::COMPUTE if imm == 0 => {
                let [cycles] = words(payload, payload_idx);
                (Op::Compute { cycles }, payload_idx + 1)
            }
            opcode::COMPUTE => (
                Op::Compute {
                    cycles: u32::from(imm),
                },
                payload_idx,
            ),
            opcode::ACQUIRE => {
                let [lo] = words(payload, payload_idx);
                (
                    Op::Acquire {
                        lock: Addr::new(lo as u64),
                    },
                    payload_idx + 1,
                )
            }
            opcode::ACQUIRE_WIDE => {
                let [lo, hi] = words(payload, payload_idx);
                (Op::Acquire { lock: wide(lo, hi) }, payload_idx + 2)
            }
            opcode::RELEASE => {
                let [lo] = words(payload, payload_idx);
                (
                    Op::Release {
                        lock: Addr::new(lo as u64),
                    },
                    payload_idx + 1,
                )
            }
            opcode::RELEASE_WIDE => {
                let [lo, hi] = words(payload, payload_idx);
                (Op::Release { lock: wide(lo, hi) }, payload_idx + 2)
            }
            opcode::BARRIER => {
                let [id] = words(payload, payload_idx);
                (Op::Barrier { id }, payload_idx + 1)
            }
            other => unreachable!("corrupt packed trace: opcode {other}"),
        }
    }
}

/// An immutable packed trace: per-CPU opcode and payload streams plus PC
/// tables.
///
/// Built by [`TraceBuilder::finish_packed`](crate::TraceBuilder::finish_packed)
/// and shared across runs behind an [`Arc`]. Decode back to [`Op`]s with
/// [`iter_cpu`](Self::iter_cpu) (analysis) or a [`TraceCursor`]
/// (simulation).
///
/// # Examples
///
/// ```
/// use pfsim_workloads::{TraceBuilder, TraceCursor, Workload};
///
/// let mut b = TraceBuilder::new("demo", 2);
/// let a = b.alloc("A", 64, 8);
/// let pc = b.pc_site();
/// b.read(0, b.element(a, 8, 3), pc);
/// b.barrier_all();
/// let trace = std::sync::Arc::new(b.finish_packed());
/// assert_eq!(trace.total_ops(), 3); // one read + two barrier arrivals
/// assert!(trace.bytes_per_op() <= 10.0);
///
/// let mut cursor = TraceCursor::new(trace);
/// assert!(cursor.next(0).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTrace {
    name: String,
    lanes: Vec<PackedLane>,
}

impl PackedTrace {
    pub(crate) fn from_lanes(name: String, lanes: Vec<PackedLane>) -> Self {
        PackedTrace { name, lanes }
    }

    /// Workload name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors the trace was built for.
    pub fn num_cpus(&self) -> usize {
        self.lanes.len()
    }

    /// Operations in `cpu`'s stream.
    pub fn ops(&self, cpu: usize) -> usize {
        self.lanes[cpu].opcodes.len()
    }

    /// Total operations across all processors.
    pub fn total_ops(&self) -> usize {
        self.lanes.iter().map(|l| l.opcodes.len()).sum()
    }

    /// Resident bytes of the packed streams (opcodes, payload words and
    /// PC tables).
    pub fn packed_bytes(&self) -> usize {
        self.lanes.iter().map(PackedLane::packed_bytes).sum()
    }

    /// Amortized resident bytes per operation.
    pub fn bytes_per_op(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.packed_bytes() as f64 / ops as f64
        }
    }

    /// Borrowed decode iterator over `cpu`'s stream.
    ///
    /// This is the analysis-side view: trace-classification tools walk
    /// ops straight out of the packed arrays without materializing a
    /// `Vec<Op>`.
    pub fn iter_cpu(&self, cpu: usize) -> OpIter<'_> {
        OpIter {
            lane: &self.lanes[cpu],
            op_idx: 0,
            payload_idx: 0,
        }
    }

    /// Decodes the whole trace into a materialized [`TraceWorkload`].
    ///
    /// Exists for compatibility and for differential tests; experiment
    /// code should replay through a [`TraceCursor`] instead.
    pub fn materialize(&self) -> TraceWorkload {
        let traces = (0..self.num_cpus())
            .map(|cpu| self.iter_cpu(cpu).collect())
            .collect();
        TraceWorkload::new(self.name.clone(), traces)
    }
}

/// Borrowed iterator decoding one processor's packed stream into [`Op`]s.
#[derive(Debug, Clone)]
pub struct OpIter<'a> {
    lane: &'a PackedLane,
    op_idx: usize,
    payload_idx: usize,
}

impl Iterator for OpIter<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.op_idx >= self.lane.opcodes.len() {
            return None;
        }
        let (op, next_payload) = self.lane.decode(self.op_idx, self.payload_idx);
        self.op_idx += 1;
        self.payload_idx = next_payload;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.lane.opcodes.len() - self.op_idx;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OpIter<'_> {}

/// A replay cursor over a shared packed trace.
///
/// Implements [`Workload`] by decoding ops on demand from an
/// `Arc<PackedTrace>`, so `System<TraceCursor>` keeps static dispatch
/// while N parallel runs share one immutable trace. Cloning a cursor (or
/// creating more from the same `Arc`) costs only the per-CPU cursor
/// state.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    trace: Arc<PackedTrace>,
    /// Per-CPU `(op index, payload index)` positions.
    cursors: Vec<(usize, usize)>,
}

impl TraceCursor {
    /// Creates a cursor at the start of `trace`.
    pub fn new(trace: Arc<PackedTrace>) -> Self {
        let cursors = vec![(0, 0); trace.num_cpus()];
        TraceCursor { trace, cursors }
    }

    /// The shared trace this cursor replays.
    pub fn trace(&self) -> &Arc<PackedTrace> {
        &self.trace
    }

    /// Total operations across all processors (consumed or not).
    pub fn total_ops(&self) -> usize {
        self.trace.total_ops()
    }

    /// Rewinds all cursors so the workload can be replayed.
    pub fn rewind(&mut self) {
        self.cursors.iter_mut().for_each(|c| *c = (0, 0));
    }
}

impl Workload for TraceCursor {
    fn num_cpus(&self) -> usize {
        self.trace.num_cpus()
    }

    #[inline]
    fn next(&mut self, cpu: usize) -> Option<Op> {
        let (op_idx, payload_idx) = self.cursors[cpu];
        let lane = &self.trace.lanes[cpu];
        if op_idx >= lane.opcodes.len() {
            return None;
        }
        let (op, next_payload) = lane.decode(op_idx, payload_idx);
        self.cursors[cpu] = (op_idx + 1, next_payload);
        Some(op)
    }

    fn name(&self) -> &str {
        &self.trace.name
    }

    fn total_ops(&self) -> usize {
        self.trace.total_ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Read {
                addr: Addr::new(0x1000),
                pc: Pc::new(0x40),
            },
            Op::Compute { cycles: 7 },
            Op::Write {
                addr: Addr::new(0x1_2345_6789), // needs the wide escape
                pc: Pc::new(0x44),
            },
            Op::Acquire {
                lock: Addr::new(0x2000),
            },
            Op::Release {
                lock: Addr::new(0x2000),
            },
            Op::Barrier { id: 3 },
            Op::Read {
                addr: Addr::new(u64::MAX),
                pc: Pc::new(0x48),
            },
            Op::Acquire {
                lock: Addr::new(u64::MAX - 1),
            },
            Op::Release {
                lock: Addr::new(u64::MAX - 1),
            },
        ]
    }

    fn pack(ops: &[Op]) -> PackedTrace {
        let mut lane = LaneWriter::default();
        for &op in ops {
            lane.push(op);
        }
        PackedTrace::from_lanes("t".into(), vec![lane.finish()])
    }

    #[test]
    fn roundtrip_preserves_every_variant() {
        let ops = sample_ops();
        let trace = pack(&ops);
        let decoded: Vec<Op> = trace.iter_cpu(0).collect();
        assert_eq!(decoded, ops);
    }

    #[test]
    fn cursor_matches_iterator_and_rewinds() {
        let ops = sample_ops();
        let trace = Arc::new(pack(&ops));
        let mut cursor = TraceCursor::new(trace.clone());
        let first: Vec<Op> = std::iter::from_fn(|| cursor.next(0)).collect();
        assert_eq!(first, ops);
        assert_eq!(cursor.next(0), None);
        cursor.rewind();
        let second: Vec<Op> = std::iter::from_fn(|| cursor.next(0)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn computes_coalesce_and_zero_cycles_drop() {
        let mut lane = LaneWriter::default();
        lane.push(Op::Compute { cycles: 2 });
        lane.push(Op::Compute { cycles: 3 });
        lane.push(Op::Compute { cycles: 0 });
        lane.push(Op::Barrier { id: 0 });
        lane.push(Op::Compute { cycles: 1 });
        let trace = PackedTrace::from_lanes("t".into(), vec![lane.finish()]);
        let decoded: Vec<Op> = trace.iter_cpu(0).collect();
        assert_eq!(
            decoded,
            vec![
                Op::Compute { cycles: 5 },
                Op::Barrier { id: 0 },
                Op::Compute { cycles: 1 },
            ]
        );
    }

    #[test]
    fn compute_coalescing_saturates() {
        // From a payload count and from an immediate one.
        for first in [u32::MAX - 1, 10] {
            let mut lane = LaneWriter::default();
            lane.push(Op::Compute { cycles: first });
            lane.push(Op::Compute { cycles: u32::MAX });
            let trace = PackedTrace::from_lanes("t".into(), vec![lane.finish()]);
            let decoded: Vec<Op> = trace.iter_cpu(0).collect();
            assert_eq!(decoded, vec![Op::Compute { cycles: u32::MAX }]);
            assert_eq!(trace.packed_bytes(), 5, "saturated count is a payload word");
        }
    }

    /// Packs `ops` into one lane and checks they decode back unchanged;
    /// returns the lane's packed bytes.
    fn packed_bytes_of(ops: &[Op]) -> usize {
        let trace = pack(ops);
        assert_eq!(trace.iter_cpu(0).collect::<Vec<Op>>(), ops);
        trace.packed_bytes()
    }

    #[test]
    fn compute_counts_up_to_fifteen_ride_in_the_opcode() {
        assert_eq!(packed_bytes_of(&[Op::Compute { cycles: 1 }]), 1);
        assert_eq!(packed_bytes_of(&[Op::Compute { cycles: 15 }]), 1);
        assert_eq!(packed_bytes_of(&[Op::Compute { cycles: 16 }]), 5);
    }

    #[test]
    fn coalescing_re_encodes_across_the_immediate_limit() {
        let mut lane = LaneWriter::default();
        lane.push(Op::Compute { cycles: 10 });
        assert_eq!(lane.lane.packed_bytes(), 1);
        lane.push(Op::Compute { cycles: 5 });
        assert_eq!(lane.lane.packed_bytes(), 1, "15 still fits the immediate");
        lane.push(Op::Compute { cycles: 5 });
        assert_eq!(lane.lane.packed_bytes(), 5, "20 moves to the payload");
        lane.push(Op::Compute { cycles: 3 });
        assert_eq!(
            lane.lane.packed_bytes(),
            5,
            "a payload count stays in place"
        );
        let trace = PackedTrace::from_lanes("t".into(), vec![lane.finish()]);
        let decoded: Vec<Op> = trace.iter_cpu(0).collect();
        assert_eq!(decoded, vec![Op::Compute { cycles: 23 }]);

        let mut lane = LaneWriter::default();
        lane.push(Op::Compute { cycles: 10 });
        lane.push(Op::Compute { cycles: 10 });
        let trace = PackedTrace::from_lanes("t".into(), vec![lane.finish()]);
        let decoded: Vec<Op> = trace.iter_cpu(0).collect();
        assert_eq!(decoded, vec![Op::Compute { cycles: 20 }]);
        assert_eq!(trace.packed_bytes(), 5);
    }

    #[test]
    fn narrow_read_costs_five_bytes_plus_its_table_slot() {
        let read = Op::Read {
            addr: Addr::new(0x1000),
            pc: Pc::new(0x40),
        };
        // 1 opcode + 1 address word, plus the PC's one-word table slot.
        assert_eq!(packed_bytes_of(&[read]), 9);
        // A second read from the same site reuses the slot.
        assert_eq!(packed_bytes_of(&[read, read]), 14);
        assert_eq!(pack(&[read, read]).bytes_per_op(), 7.0);
    }

    #[test]
    fn sixteenth_distinct_pc_takes_the_escape() {
        let read = |i: u32| Op::Read {
            addr: Addr::new(0x1000),
            pc: Pc::new(0x400 + 4 * i),
        };
        // 15 distinct PCs: each read is 5 bytes, each PC a table slot.
        let fifteen: Vec<Op> = (0..15).map(read).collect();
        assert_eq!(packed_bytes_of(&fifteen), 15 * 5 + 15 * 4);
        // The 16th finds the table full and keeps its PC in the payload,
        // on a narrow and a wide write alike; table PCs still resolve.
        let mut sixteen = fifteen.clone();
        sixteen.push(read(15));
        assert_eq!(packed_bytes_of(&sixteen), 15 * 5 + 15 * 4 + 9);
        sixteen.push(Op::Write {
            addr: Addr::new(0x1_0000_0000),
            pc: Pc::new(0x400 + 4 * 15),
        });
        sixteen.push(read(3));
        assert_eq!(packed_bytes_of(&sixteen), 15 * 5 + 15 * 4 + 9 + 13 + 5);
    }

    #[test]
    fn pcs_sharing_a_memo_slot_round_trip() {
        // Site strides of 4 bytes give each PC its own memo slot; 64 bytes
        // put every PC in slot 0. Either way 15 distinct PCs fit the
        // table and the 16th and 17th take the escape, whatever order the
        // sites recur in.
        for stride in [4, 64] {
            for distinct in [2u32, 15, 16, 17] {
                let read = |k: u32| Op::Read {
                    addr: Addr::new(0x1000 + 32 * u64::from(k)),
                    pc: Pc::new(0x400 + stride * (k % distinct)),
                };
                let ops: Vec<Op> = (0..3 * distinct).map(read).collect();
                let table = distinct.min(15) as usize;
                let escaped = distinct.saturating_sub(15) as usize;
                let reads = ops.len();
                assert_eq!(
                    packed_bytes_of(&ops),
                    reads * 5 + table * 4 + 3 * escaped * 4,
                    "stride {stride}, {distinct} PCs"
                );
            }
        }
    }

    #[test]
    fn materialize_matches_iterator() {
        let ops = sample_ops();
        let trace = pack(&ops);
        let wl = trace.materialize();
        assert_eq!(wl.trace(0), &ops[..]);
        assert_eq!(wl.total_ops(), trace.total_ops());
    }

    #[test]
    fn shared_decode_is_identical_across_threads() {
        let ops = sample_ops();
        let trace = Arc::new(pack(&ops));
        let decoded: Vec<Vec<Op>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let trace = Arc::clone(&trace);
                    scope.spawn(move || {
                        let mut cursor = TraceCursor::new(trace);
                        std::iter::from_fn(|| cursor.next(0)).collect::<Vec<Op>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for d in &decoded {
            assert_eq!(d, &ops);
        }
    }
}
