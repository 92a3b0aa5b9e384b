//! Water: molecular dynamics of liquid water (SPLASH), the paper's
//! long-stride workload.
//!
//! Each molecule is a large record (672 bytes = 21 blocks, matching the
//! paper's dominant stride of 21 blocks at 99%); the inter-molecular force
//! phase reads a few fields of *consecutive* molecules, so read misses from
//! one load site are 21 blocks apart. Because the different fields read
//! per molecule live in **adjacent** blocks, distinct stride-21 sequences
//! are spatially adjacent — the locality that lets sequential prefetching
//! match stride prefetching on Water despite the long stride (§5.2).
//!
//! Sequences are interrupted the way the real program's cutoff radius
//! interrupts them: each molecule interacts with *runs* of consecutive
//! molecules inside its shell, and the runs are medium length (the paper
//! measures an average sequence length of 8.0).

use pfsim_mem::SplitMix64;

use crate::builder::{generate, Generator, Lanes};
use crate::{PackedTrace, TraceBuilder, TraceWorkload};

/// Size of one molecule record in bytes: 21 cache blocks.
pub const MOLECULE_BYTES: u64 = 672;

/// Problem-size parameters for Water.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaterParams {
    /// Number of molecules (the paper uses 288).
    pub molecules: u64,
    /// Number of simulated time steps (the paper uses 4).
    pub steps: u32,
    /// Mean length of an interaction run (consecutive molecules inside the
    /// cutoff shell).
    pub mean_run: u64,
    /// Number of processors.
    pub cpus: usize,
}

impl Default for WaterParams {
    /// A scaled-down system for tests and quick runs.
    fn default() -> Self {
        WaterParams {
            molecules: 288,
            steps: 2,
            mean_run: 8,
            cpus: 16,
        }
    }
}

impl WaterParams {
    /// The paper's input: 288 molecules for 4 time steps.
    pub fn paper() -> Self {
        WaterParams {
            molecules: 288,
            steps: 4,
            mean_run: 8,
            cpus: 16,
        }
    }

    /// The enlarged data set for the §5.4 trend study: more molecules and
    /// longer interaction runs.
    pub fn large() -> Self {
        WaterParams {
            molecules: 512,
            steps: 4,
            mean_run: 16,
            cpus: 16,
        }
    }
}

/// Builds the Water workload.
///
/// # Panics
///
/// Panics if there are fewer molecules than processors.
pub fn build(params: WaterParams) -> TraceWorkload {
    build_packed(params).materialize()
}

/// Builds the same workload in the packed shared-trace encoding,
/// ready to wrap in an `Arc` and replay across many runs (see
/// [`build`]).
pub fn build_packed(params: WaterParams) -> PackedTrace {
    generate(params)
}

impl Generator for WaterParams {
    fn cpus(&self) -> usize {
        self.cpus
    }

    fn emit(self, lanes: Lanes) -> TraceBuilder {
        let WaterParams {
            molecules,
            steps,
            mean_run,
            cpus,
        } = self;
        assert!(
            molecules >= cpus as u64,
            "need at least one molecule per cpu"
        );
        assert!(mean_run >= 2);

        let mut b = TraceBuilder::with_lanes(format!("Water-{molecules}m"), lanes);
        let mols = b.alloc("MOL", molecules, MOLECULE_BYTES);
        let locks = b.alloc("MolLocks", molecules, 32);

        // Field offsets within a molecule record. The predicted positions the
        // force loop reads and the force accumulators it writes live in
        // *adjacent* blocks at the front of the record (as the real record
        // packs the per-atom position/derivative arrays): this adjacency
        // between different stride-21 sequences is the spatial locality that
        // §5.2 credits for sequential prefetching's good showing on Water.
        const F_POS_A: u64 = 0; // block +0
        const F_POS_B: u64 = 40; // block +1
                                 // The force accumulators (3 atoms × 3 dimensions plus higher-order
                                 // derivatives) occupy three consecutive blocks.
        const F_FORCE0: u64 = 72; // block +2
        const F_FORCE1: u64 = 104; // block +3
        const F_FORCE2: u64 = 136; // block +4

        let pc_pos_a = b.pc_site();
        let pc_pos_b = b.pc_site();
        let pc_force_r0 = b.pc_site();
        let pc_force_r1 = b.pc_site();
        let pc_force_r2 = b.pc_site();
        let pc_force_w0 = b.pc_site();
        let pc_force_w1 = b.pc_site();
        let pc_force_w2 = b.pc_site();
        let pc_own_r = b.pc_site();
        let pc_own_w = b.pc_site();
        let pc_own_w2 = b.pc_site();
        let pc_upd_r = b.pc_site();
        let pc_upd_f = b.pc_site();
        let pc_upd_f1 = b.pc_site();
        let pc_upd_f2 = b.pc_site();
        let pc_upd_w = b.pc_site();

        let per_cpu = molecules / cpus as u64;
        let own_range = |p: usize| {
            let lo = p as u64 * per_cpu;
            let hi = if p == cpus - 1 {
                molecules
            } else {
                lo + per_cpu
            };
            (lo, hi)
        };

        let mut rng = SplitMix64::seed_from_u64(0x57A7E5);

        for _step in 0..steps {
            // Phase 1 — intra-molecular: predict positions of own molecules.
            for p in 0..cpus {
                let (lo, hi) = own_range(p);
                for i in lo..hi {
                    b.read(p, b.field(mols, MOLECULE_BYTES, i, F_POS_A), pc_own_r);
                    b.compute(p, 12);
                    // The predictor rewrites the whole position/derivative
                    // prefix of the record (two blocks), invalidating last
                    // step's readers.
                    b.write(p, b.field(mols, MOLECULE_BYTES, i, F_POS_A), pc_own_w);
                    b.write(p, b.field(mols, MOLECULE_BYTES, i, F_POS_B), pc_own_w2);
                }
            }
            b.barrier_all();

            // Phase 2 — inter-molecular forces. For each of its molecules,
            // a processor interacts with runs of consecutive molecules inside
            // the cutoff shell (half-shell method: partners ahead of i).
            for p in 0..cpus {
                let (lo, hi) = own_range(p);
                for i in lo..hi {
                    // The shell of molecule i: a handful of runs starting at
                    // pseudo-random offsets ahead of i.
                    let mut cursor = i + 1;
                    let shell_span = molecules / 2;
                    let end = i + 1 + shell_span;
                    while cursor < end {
                        let run = rng.random_range(2..=2 * mean_run - 2).min(end - cursor);
                        for j0 in cursor..cursor + run {
                            let j = j0 % molecules;
                            if j == i {
                                continue;
                            }
                            // Read the partner's positions: two loads hitting
                            // adjacent blocks of the record.
                            b.read(p, b.field(mols, MOLECULE_BYTES, j, F_POS_A), pc_pos_a);
                            b.read(p, b.field(mols, MOLECULE_BYTES, j, F_POS_B), pc_pos_b);
                            b.compute(p, 18);
                            // Accumulate into the partner's force region
                            // (three consecutive blocks) under its
                            // per-molecule lock.
                            b.acquire(p, b.element(locks, 32, j));
                            b.read(p, b.field(mols, MOLECULE_BYTES, j, F_FORCE0), pc_force_r0);
                            b.read(p, b.field(mols, MOLECULE_BYTES, j, F_FORCE1), pc_force_r1);
                            b.read(p, b.field(mols, MOLECULE_BYTES, j, F_FORCE2), pc_force_r2);
                            b.compute(p, 4);
                            b.write(p, b.field(mols, MOLECULE_BYTES, j, F_FORCE0), pc_force_w0);
                            b.write(p, b.field(mols, MOLECULE_BYTES, j, F_FORCE1), pc_force_w1);
                            b.write(p, b.field(mols, MOLECULE_BYTES, j, F_FORCE2), pc_force_w2);
                            b.release(p, b.element(locks, 32, j));
                        }
                        cursor += run;
                        // Gap outside the cutoff: skip a stretch of molecules,
                        // which is what bounds the miss-sequence length.
                        cursor += rng.random_range(1..=mean_run);
                    }
                }
            }
            b.barrier_all();

            // Phase 3 — update own molecules from accumulated forces (written
            // by many other processors during phase 2).
            for p in 0..cpus {
                let (lo, hi) = own_range(p);
                for i in lo..hi {
                    b.read(p, b.field(mols, MOLECULE_BYTES, i, F_FORCE0), pc_upd_f);
                    b.read(p, b.field(mols, MOLECULE_BYTES, i, F_FORCE1), pc_upd_f1);
                    b.read(p, b.field(mols, MOLECULE_BYTES, i, F_FORCE2), pc_upd_f2);
                    b.read(p, b.field(mols, MOLECULE_BYTES, i, F_POS_A), pc_upd_r);
                    b.compute(p, 10);
                    b.write(p, b.field(mols, MOLECULE_BYTES, i, F_POS_A), pc_upd_w);
                }
            }
            b.barrier_all();
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    #[test]
    fn molecule_record_spans_21_blocks() {
        assert_eq!(MOLECULE_BYTES / 32, 21);
    }

    #[test]
    fn partner_reads_step_by_whole_molecules() {
        let wl = build(WaterParams {
            molecules: 64,
            steps: 1,
            mean_run: 8,
            cpus: 4,
        });
        // Collect the pc of the first partner-position load, then check
        // consecutive reads from that pc within a run differ by 672 bytes.
        let mut strides = std::collections::HashMap::new();
        for cpu in 0..4 {
            let mut prev: Option<u64> = None;
            for op in wl.trace(cpu) {
                if let Op::Read { addr, pc } = op {
                    if pc.as_u32() == 0x0010_0000 {
                        // pc_pos_a is the first allocated site
                        if let Some(p) = prev {
                            let d = addr.as_u64().wrapping_sub(p);
                            *strides.entry(d).or_insert(0u64) += 1;
                        }
                        prev = Some(addr.as_u64());
                    }
                }
            }
        }
        // The overwhelmingly most common distance is one molecule.
        let (&top, _) = strides.iter().max_by_key(|(_, c)| **c).unwrap();
        assert_eq!(top, MOLECULE_BYTES);
    }

    #[test]
    fn force_updates_are_lock_protected() {
        let wl = build(WaterParams {
            molecules: 32,
            steps: 1,
            mean_run: 4,
            cpus: 2,
        });
        let t = wl.trace(0);
        let acq = t
            .iter()
            .position(|op| matches!(op, Op::Acquire { .. }))
            .unwrap();
        // Critical section: three force reads, compute, three force
        // writes, release.
        assert!(matches!(t[acq + 1], Op::Read { .. }));
        assert!(matches!(t[acq + 2], Op::Read { .. }));
        assert!(matches!(t[acq + 3], Op::Read { .. }));
        assert!(matches!(t[acq + 4], Op::Compute { .. }));
        assert!(matches!(t[acq + 5], Op::Write { .. }));
        assert!(matches!(t[acq + 8], Op::Release { .. }));
    }

    #[test]
    fn deterministic() {
        let a = build(WaterParams::default());
        let b = build(WaterParams::default());
        for cpu in 0..16 {
            assert_eq!(a.trace(cpu), b.trace(cpu));
        }
    }

    #[test]
    fn three_phases_per_step() {
        let wl = build(WaterParams {
            molecules: 32,
            steps: 3,
            mean_run: 4,
            cpus: 2,
        });
        let barriers = wl
            .trace(0)
            .iter()
            .filter(|op| matches!(op, Op::Barrier { .. }))
            .count();
        assert_eq!(barriers, 9);
    }
}
