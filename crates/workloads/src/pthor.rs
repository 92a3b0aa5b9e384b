//! PTHOR: parallel distributed-time logic simulator (SPLASH), the paper's
//! worst case for every prefetcher.
//!
//! Circuit elements are one-block records linked by a randomized netlist;
//! activation follows those pointers, so each task reads an element that
//! some other processor wrote last — scattered single-block coherence
//! misses with neither strides (Table 2: 4.1% in sequences) nor spatial
//! locality. Work is distributed through lock-protected per-processor task
//! queues with stealing. Neither stride nor sequential prefetching is
//! expected to help here, and the paper shows both barely move the miss
//! count while sequential prefetching pays extra traffic.

use pfsim_mem::SplitMix64;

use crate::builder::{generate, Generator, Lanes};
use crate::{PackedTrace, TraceBuilder, TraceWorkload};

/// Size of one circuit-element record in bytes (one cache block).
pub const ELEMENT_BYTES: u64 = 32;

/// Problem-size parameters for PTHOR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PthorParams {
    /// Number of circuit elements.
    pub elements: u64,
    /// Simulated activation tasks per processor.
    pub tasks_per_cpu: u64,
    /// Fanout of each element in the netlist.
    pub fanout: u64,
    /// Number of processors.
    pub cpus: usize,
}

impl Default for PthorParams {
    /// A scaled-down circuit for tests and quick runs.
    fn default() -> Self {
        PthorParams {
            elements: 2048,
            tasks_per_cpu: 3000,
            fanout: 3,
            cpus: 16,
        }
    }
}

impl PthorParams {
    /// A RISC-circuit-scale configuration (the paper simulates the RISC
    /// circuit for 1000 time steps).
    pub fn paper() -> Self {
        PthorParams {
            elements: 5060,
            tasks_per_cpu: 8000,
            fanout: 3,
            cpus: 16,
        }
    }
}

/// Builds the PTHOR workload.
///
/// # Panics
///
/// Panics if any parameter is zero.
pub fn build(params: PthorParams) -> TraceWorkload {
    build_packed(params).materialize()
}

/// Builds the same workload in the packed shared-trace encoding,
/// ready to wrap in an `Arc` and replay across many runs (see
/// [`build`]).
pub fn build_packed(params: PthorParams) -> PackedTrace {
    generate(params)
}

impl Generator for PthorParams {
    fn cpus(&self) -> usize {
        self.cpus
    }

    fn emit(self, lanes: Lanes) -> TraceBuilder {
        let PthorParams {
            elements,
            tasks_per_cpu,
            fanout,
            cpus,
        } = self;
        assert!(elements > 0 && tasks_per_cpu > 0 && fanout > 0 && cpus > 0);

        let mut b = TraceBuilder::with_lanes(format!("PTHOR-{elements}e"), lanes);
        let elems = b.alloc("Elements", elements, ELEMENT_BYTES);
        // Netlist: `fanout` successor ids per element, 4 bytes each.
        let netlist = b.alloc("Netlist", elements * fanout, 4);
        let queues = b.alloc("TaskQueues", cpus as u64, 64);
        let queue_locks = b.alloc("QueueLocks", cpus as u64, 32);
        let clock = b.alloc("GlobalClock", 1, 32);

        let pc_elem_r = b.pc_site();
        let pc_elem_w = b.pc_site();
        let pc_net = b.pc_site();
        let pc_queue_r = b.pc_site();
        let pc_queue_w = b.pc_site();
        let pc_clock = b.pc_site();
        let pc_act_w = b.pc_site();

        let mut rng = SplitMix64::seed_from_u64(0x7404);
        // The randomized netlist topology (deterministic).
        let successors: Vec<u64> = (0..elements * fanout)
            .map(|_| rng.random_range(0..elements))
            .collect();

        // Each processor starts from a rotating cursor over the element space
        // and follows netlist pointers, as the activation lists make the real
        // simulator do.
        let mut cursors: Vec<u64> = (0..cpus as u64)
            .map(|p| p * elements / cpus as u64)
            .collect();

        for round in 0..tasks_per_cpu {
            #[allow(clippy::needless_range_loop)] // p is also the cpu id
            for p in 0..cpus {
                let e = cursors[p] % elements;

                // Pop a task: the queue head is lock-protected; stealing makes
                // a ninth of the pops hit a remote queue.
                let victim = if rng.random_range(0..9u32) == 0 {
                    rng.random_range(0..cpus as u64)
                } else {
                    p as u64
                };
                b.acquire(p, b.element(queue_locks, 32, victim));
                b.read(p, b.element(queues, 64, victim), pc_queue_r);
                b.write(p, b.element(queues, 64, victim), pc_queue_w);
                b.release(p, b.element(queue_locks, 32, victim));

                // Evaluate the element.
                b.read(p, b.element(elems, ELEMENT_BYTES, e), pc_elem_r);
                b.compute(p, 10);
                b.write(p, b.element(elems, ELEMENT_BYTES, e), pc_elem_w);

                // Read its netlist entry and activate one successor (a write
                // into the successor's record schedules it).
                let slot = e * fanout + u64::from(rng.random_range(0..fanout as u32));
                b.read(p, b.element(netlist, 4, slot), pc_net);
                let succ = successors[slot as usize];
                b.write(p, b.element(elems, ELEMENT_BYTES, succ), pc_act_w);

                // Consult the global virtual clock now and then.
                if round % 16 == 0 {
                    b.read(p, clock, pc_clock);
                }

                cursors[p] = succ.wrapping_add(rng.random_range(0..7));
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    #[test]
    fn element_reads_are_scattered() {
        let wl = build(PthorParams {
            elements: 512,
            tasks_per_cpu: 200,
            fanout: 3,
            cpus: 2,
        });
        let reads: Vec<u64> = wl
            .trace(0)
            .iter()
            .filter_map(|op| match op {
                Op::Read { addr, pc } if pc.as_u32() == 0x0010_0000 => Some(addr.as_u64()),
                _ => None,
            })
            .collect();
        let deltas: std::collections::HashSet<i64> = reads
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        // Pointer chasing: essentially every delta distinct.
        assert!(deltas.len() > reads.len() / 2, "{} deltas", deltas.len());
    }

    #[test]
    fn queue_accesses_are_lock_protected() {
        let wl = build(PthorParams {
            elements: 64,
            tasks_per_cpu: 4,
            fanout: 2,
            cpus: 2,
        });
        let t = wl.trace(0);
        let acq = t
            .iter()
            .position(|op| matches!(op, Op::Acquire { .. }))
            .unwrap();
        assert!(matches!(t[acq + 1], Op::Read { .. }));
        assert!(matches!(t[acq + 3], Op::Release { .. }));
    }

    #[test]
    fn some_steals_hit_remote_queues() {
        let wl = build(PthorParams {
            elements: 256,
            tasks_per_cpu: 500,
            fanout: 2,
            cpus: 4,
        });
        let locks: std::collections::HashSet<u64> = wl
            .trace(0)
            .iter()
            .filter_map(|op| match op {
                Op::Acquire { lock } => Some(lock.as_u64()),
                _ => None,
            })
            .collect();
        assert!(locks.len() > 1, "cpu 0 never stole work");
    }

    #[test]
    fn deterministic() {
        let a = build(PthorParams::default());
        let b = build(PthorParams::default());
        for cpu in 0..16 {
            assert_eq!(a.trace(cpu), b.trace(cpu));
        }
    }
}
