//! Cholesky: sparse Cholesky factorization (SPLASH).
//!
//! The paper runs Cholesky on the *bcsstk14* structural-engineering matrix,
//! which we do not redistribute; the model substitutes a synthetic
//! symmetric **skyline** matrix with supernodal column structure of
//! comparable shape (see DESIGN.md). What matters for the prefetching
//! study is preserved: factorization proceeds by columns packed
//! contiguously in memory, and each right-looking update streams through a
//! source column that another processor has just written — medium-length
//! stride-1 block sequences (Table 2: 80% of misses in sequences, 95%
//! stride 1, average length ~7).

use pfsim_mem::SplitMix64;

use crate::builder::{generate, Generator, Lanes};
use crate::{PackedTrace, TraceBuilder, TraceWorkload};

/// Problem-size parameters for Cholesky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CholeskyParams {
    /// Number of matrix columns.
    pub columns: u64,
    /// Minimum column height (nonzeros below the diagonal), in doubles.
    pub min_height: u64,
    /// Maximum column height, in doubles.
    pub max_height: u64,
    /// Supernode width (columns factored and assigned together).
    pub supernode: u64,
    /// How many later columns each column updates (the fill fanout).
    pub fanout: u64,
    /// Number of processors.
    pub cpus: usize,
}

impl Default for CholeskyParams {
    /// A scaled-down matrix for tests and quick runs.
    fn default() -> Self {
        CholeskyParams {
            columns: 600,
            min_height: 12,
            max_height: 44,
            supernode: 4,
            fanout: 6,
            cpus: 16,
        }
    }
}

impl CholeskyParams {
    /// A bcsstk14-scale skyline matrix: 1806 columns and enough nonzeros
    /// (~100 K) that each processor's share of the factor (~50 KB)
    /// overflows a 16 KB SLC, as the real matrix does in §5.3.
    pub fn paper() -> Self {
        CholeskyParams {
            columns: 1806,
            min_height: 24,
            max_height: 80,
            supernode: 4,
            fanout: 6,
            cpus: 16,
        }
    }

    /// The enlarged data set for the §5.4 trend study: more columns *and*
    /// taller columns (longer update sequences).
    pub fn large() -> Self {
        CholeskyParams {
            columns: 3600,
            min_height: 24,
            max_height: 88,
            supernode: 4,
            fanout: 8,
            cpus: 16,
        }
    }
}

/// Builds the Cholesky workload.
///
/// # Panics
///
/// Panics if any dimension parameter is zero or `min_height > max_height`.
pub fn build(params: CholeskyParams) -> TraceWorkload {
    build_packed(params).materialize()
}

/// Builds the same workload in the packed shared-trace encoding,
/// ready to wrap in an `Arc` and replay across many runs (see
/// [`build`]).
pub fn build_packed(params: CholeskyParams) -> PackedTrace {
    generate(params)
}

impl Generator for CholeskyParams {
    fn cpus(&self) -> usize {
        self.cpus
    }

    fn emit(self, lanes: Lanes) -> TraceBuilder {
        let CholeskyParams {
            columns,
            min_height,
            max_height,
            supernode,
            fanout,
            cpus,
        } = self;
        assert!(columns > 0 && supernode > 0 && cpus > 0);
        assert!(min_height > 0 && min_height <= max_height);

        let mut rng = SplitMix64::seed_from_u64(0x0C0D_EC01);
        // Column heights: skyline profile, deterministic.
        let heights: Vec<u64> = (0..columns)
            .map(|_| rng.random_range(min_height..=max_height))
            .collect();
        let offsets: Vec<u64> = heights
            .iter()
            .scan(0u64, |acc, &h| {
                let off = *acc;
                *acc += h;
                Some(off)
            })
            .collect();
        let total_nnz: u64 = heights.iter().sum();

        let mut b = TraceBuilder::with_lanes(format!("Cholesky-{columns}c"), lanes);
        let l = b.alloc("L", total_nnz, 8);
        let elem = |b: &TraceBuilder, col: usize, i: u64| b.element(l, 8, offsets[col] + i);

        let pc_diag = b.pc_site();
        let pc_scale_r = b.pc_site();
        let pc_scale_w = b.pc_site();
        let pc_src = b.pc_site(); // streaming read of the source column
        let pc_dst_r = b.pc_site();
        let pc_dst_w = b.pc_site();

        // Supernodes are assigned to processors round-robin.
        let owner = |col: u64| ((col / supernode) as usize) % cpus;

        for k in 0..columns {
            let ku = k as usize;
            let p = owner(k);
            // cdiv: scale column k by its diagonal.
            b.read(p, elem(&b, ku, 0), pc_diag);
            b.compute(p, 8);
            for i in 1..heights[ku] {
                b.read(p, elem(&b, ku, i), pc_scale_r);
                b.compute(p, 2);
                b.write(p, elem(&b, ku, i), pc_scale_w);
            }

            // cmod: update later columns with column k. The near targets model
            // the dense band; the far targets model sparse fill (a column's
            // nonzero rows reach far down the matrix), which is what makes a
            // destination column be revisited long after its last touch — the
            // source of Cholesky's replacement misses under a finite SLC.
            let far = [
                k + fanout + 1 + (k * 7 + 13) % 97,
                k + fanout + 1 + (k * 13 + 61) % 251,
                k + fanout + 1 + (k * 31 + 7) % 997,
            ];
            let targets = (1..=fanout)
                .map(|step| (k + step, step))
                .chain(far.into_iter().map(|j| (j, fanout)));
            for (j, lag) in targets {
                if j >= columns {
                    continue;
                }
                let ju = j as usize;
                let q = owner(j);
                let overlap = heights[ku].saturating_sub(lag).min(heights[ju]);
                for i in 0..overlap {
                    b.read(q, elem(&b, ku, i + lag), pc_src);
                    b.read(q, elem(&b, ju, i), pc_dst_r);
                    b.compute(q, 2);
                    b.write(q, elem(&b, ju, i), pc_dst_w);
                }
            }

            // Supernode boundary: synchronize before the next group of columns
            // (the real code uses a task queue; a supernode-granular barrier
            // preserves the producer-consumer ordering at far lower trace
            // cost).
            if (k + 1) % supernode == 0 {
                b.barrier_all();
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
    fn columns_are_packed_contiguously() {
        let wl = build(CholeskyParams {
            columns: 8,
            min_height: 4,
            max_height: 4,
            supernode: 2,
            fanout: 2,
            cpus: 2,
        });
        // With fixed heights of 4, the scale loop of column 0 reads
        // elements 8 bytes apart.
        let reads: Vec<u64> = wl
            .trace(0)
            .iter()
            .filter_map(|op| match op {
                Op::Read { addr, .. } => Some(addr.as_u64()),
                _ => None,
            })
            .take(4)
            .collect();
        for w in reads.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
    }

    #[test]
    fn every_cpu_participates() {
        let wl = build(CholeskyParams::default());
        for cpu in 0..16 {
            assert!(wl.trace(cpu).len() > 100, "cpu {cpu} underused");
        }
    }

    #[test]
    fn updates_cross_processors() {
        // With supernode 1 and fanout 2, column k (owner k%2) updates
        // columns k+1, k+2 — owned by the *other* processor half the time,
        // which is what produces coherence misses on the source column.
        let wl = build(CholeskyParams {
            columns: 10,
            min_height: 8,
            max_height: 8,
            supernode: 1,
            fanout: 2,
            cpus: 2,
        });
        assert!(wl.trace(0).len() > 20);
        assert!(wl.trace(1).len() > 20);
    }

    #[test]
    fn deterministic() {
        let a = build(CholeskyParams::default());
        let b = build(CholeskyParams::default());
        for cpu in 0..16 {
            assert_eq!(a.trace(cpu), b.trace(cpu));
        }
    }

    #[test]
    fn larger_matrix_means_more_work() {
        let small = build(CholeskyParams::default()).total_ops();
        let large = build(CholeskyParams::large()).total_ops();
        assert!(large > 3 * small);
    }
}
