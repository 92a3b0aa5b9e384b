//! LU: dense LU factorization (Stanford), the paper's strongest stride
//! workload.
//!
//! The matrix is stored **column-major** (as in the Stanford code) and
//! columns are assigned to processors interleaved. Each elimination step
//! `k` has the owner of column `k` normalize it, a barrier, and then every
//! processor update its own columns `j > k` by reading the freshly written
//! pivot column. Under an infinite SLC virtually every read miss comes from
//! re-reading pivot columns after their owner's writes invalidated the
//! local copy — long runs of consecutive blocks, which is why the paper
//! measures 93% of LU's misses inside stride sequences with dominant
//! stride 1 and an average sequence length of ~17 (Table 2).

use crate::builder::{generate, Generator, Lanes};
use crate::{PackedTrace, TraceBuilder, TraceWorkload};

/// Problem-size parameters for LU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuParams {
    /// Matrix dimension (the paper uses a 200×200 matrix).
    pub n: u64,
    /// Number of processors.
    pub cpus: usize,
}

impl Default for LuParams {
    /// A scaled-down size for tests and quick runs.
    fn default() -> Self {
        LuParams { n: 96, cpus: 16 }
    }
}

impl LuParams {
    /// The paper's input: a 200×200 matrix on 16 processors.
    pub fn paper() -> Self {
        LuParams { n: 200, cpus: 16 }
    }

    /// The enlarged data set used for the §5.4 trend study.
    pub fn large() -> Self {
        LuParams { n: 320, cpus: 16 }
    }
}

/// Builds the LU workload.
///
/// # Panics
///
/// Panics if `n` or `cpus` is zero.
pub fn build(params: LuParams) -> TraceWorkload {
    build_packed(params).materialize()
}

/// Builds the same workload in the packed shared-trace encoding,
/// ready to wrap in an `Arc` and replay across many runs (see
/// [`build`]).
pub fn build_packed(params: LuParams) -> PackedTrace {
    generate(params)
}

impl Generator for LuParams {
    fn cpus(&self) -> usize {
        self.cpus
    }

    fn emit(self, lanes: Lanes) -> TraceBuilder {
        let LuParams { n, cpus } = self;
        assert!(n > 0 && cpus > 0, "LU needs a matrix and processors");

        let mut b = TraceBuilder::with_lanes(format!("LU-{n}x{n}"), lanes);
        let a = b.alloc("A", n * n, 8);
        // Column-major: A[i,j] lives at a + (j*n + i)*8.
        let elem = |b: &TraceBuilder, i: u64, j: u64| b.element(a, 8, j * n + i);

        let pc_diag = b.pc_site(); // load of A[k,k]
        let pc_norm_r = b.pc_site(); // load of A[i,k] in the normalize loop
        let pc_norm_w = b.pc_site(); // store of A[i,k]
        let pc_piv_elem = b.pc_site(); // load of A[k,j]
        let pc_colk = b.pc_site(); // load of A[i,k] in the update loop
        let pc_own_r = b.pc_site(); // load of A[i,j]
        let pc_own_w = b.pc_site(); // store of A[i,j]

        let owner = |j: u64| (j as usize) % cpus;

        for k in 0..n {
            // Normalize column k (its owner divides by the pivot).
            let p = owner(k);
            b.read(p, elem(&b, k, k), pc_diag);
            b.compute(p, 6); // the division
            for i in k + 1..n {
                b.read(p, elem(&b, i, k), pc_norm_r);
                b.compute(p, 2);
                b.write(p, elem(&b, i, k), pc_norm_w);
            }
            b.barrier_all();

            // Update trailing columns: A[i,j] -= A[i,k] * A[k,j].
            for j in k + 1..n {
                let p = owner(j);
                b.read(p, elem(&b, k, j), pc_piv_elem);
                for i in k + 1..n {
                    b.read(p, elem(&b, i, k), pc_colk);
                    b.read(p, elem(&b, i, j), pc_own_r);
                    // One double-precision multiply-subtract plus index and
                    // loop overhead; early-90s SPARC FPUs are not fully
                    // pipelined, so an inner daxpy iteration costs ~15 pclocks
                    // end to end.
                    b.compute(p, 12);
                    b.write(p, elem(&b, i, j), pc_own_w);
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
    fn column_major_layout_makes_pivot_column_contiguous() {
        let p = LuParams { n: 16, cpus: 4 };
        let wl = build(p);
        // The normalize loop of k=0 on cpu 0 reads A[1..16,0]: consecutive
        // 8-byte elements.
        let reads: Vec<u64> = wl
            .trace(0)
            .iter()
            .filter_map(|op| match op {
                Op::Read { addr, .. } => Some(addr.as_u64()),
                _ => None,
            })
            .take(5)
            .collect();
        for w in reads.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
    }

    #[test]
    fn work_is_distributed_to_all_cpus() {
        let wl = build(LuParams { n: 32, cpus: 16 });
        for cpu in 0..16 {
            assert!(
                wl.trace(cpu).iter().any(|op| matches!(op, Op::Read { .. })),
                "cpu {cpu} has no reads"
            );
        }
    }

    #[test]
    fn barriers_keep_cpus_in_lockstep() {
        let wl = build(LuParams { n: 8, cpus: 4 });
        let barrier_count = |cpu: usize| {
            wl.trace(cpu)
                .iter()
                .filter(|op| matches!(op, Op::Barrier { .. }))
                .count()
        };
        let c0 = barrier_count(0);
        assert_eq!(c0, 16); // two barriers per elimination step
        for cpu in 1..4 {
            assert_eq!(barrier_count(cpu), c0);
        }
    }

    #[test]
    fn op_volume_scales_cubically() {
        let small = build(LuParams { n: 16, cpus: 16 }).total_ops();
        let big = build(LuParams { n: 32, cpus: 16 }).total_ops();
        let ratio = big as f64 / small as f64;
        assert!((4.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deterministic() {
        let a = build(LuParams { n: 12, cpus: 4 });
        let b = build(LuParams { n: 12, cpus: 4 });
        for cpu in 0..4 {
            assert_eq!(a.trace(cpu), b.trace(cpu));
        }
    }
}
