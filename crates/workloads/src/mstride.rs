//! MSTRIDE: multi-strided nested-loop kernels with a configurable stride
//! tuple, the pattern that separates per-PC stride detection from
//! sequential prefetching.
//!
//! Each inner iteration advances three static load/store sites by three
//! *different* strides simultaneously — a row-major operand, a
//! column-walking operand and a strided output — the shape studied by the
//! multi-strided-access prefetching literature (see `PAPERS.md`). A
//! per-PC stride detector locks onto each site's own stride; a purely
//! sequential prefetcher only covers the unit-stride site. Rows are
//! interleaved across processors and every iteration re-reads the
//! neighbouring processor's output row, so the kernel also carries
//! coherence traffic, not just private strides.

use crate::builder::{generate, Generator, Lanes};
use crate::{PackedTrace, TraceBuilder, TraceWorkload};

/// Element size in bytes (double precision).
pub const ELEMENT_BYTES: u64 = 8;

/// Problem-size parameters for MSTRIDE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MstrideParams {
    /// Rows of the iteration space (interleaved across processors).
    pub rows: u64,
    /// Inner-loop trip count per row.
    pub cols: u64,
    /// The stride tuple, in elements: applied to the A, B and C sites
    /// respectively. `(1, cols, 2)`-style tuples give three concurrent
    /// stride streams per processor.
    pub strides: (u64, u64, u64),
    /// Outer repetitions (each ends in a barrier).
    pub iters: u64,
    /// Number of processors.
    pub cpus: usize,
}

impl Default for MstrideParams {
    /// A scaled-down size for tests and quick runs.
    fn default() -> Self {
        MstrideParams {
            rows: 64,
            cols: 96,
            strides: (1, 96, 3),
            iters: 3,
            cpus: 16,
        }
    }
}

impl MstrideParams {
    /// A full-size configuration comparable to the paper's inputs.
    pub fn paper() -> Self {
        MstrideParams {
            rows: 128,
            cols: 256,
            strides: (1, 256, 3),
            iters: 5,
            cpus: 16,
        }
    }

    /// The enlarged data set for trend studies.
    pub fn large() -> Self {
        MstrideParams {
            rows: 192,
            cols: 384,
            strides: (1, 384, 3),
            iters: 6,
            cpus: 16,
        }
    }
}

/// Builds the MSTRIDE workload.
///
/// # Panics
///
/// Panics if any dimension, stride or the processor count is zero.
pub fn build(params: MstrideParams) -> TraceWorkload {
    build_packed(params).materialize()
}

/// Builds the same workload in the packed shared-trace encoding,
/// ready to wrap in an `Arc` and replay across many runs (see
/// [`build`]).
pub fn build_packed(params: MstrideParams) -> PackedTrace {
    generate(params)
}

impl Generator for MstrideParams {
    fn cpus(&self) -> usize {
        self.cpus
    }

    fn emit(self, lanes: Lanes) -> TraceBuilder {
        let MstrideParams {
            rows,
            cols,
            strides: (sa, sb, sc),
            iters,
            cpus,
        } = self;
        assert!(
            rows > 0 && cols > 0 && iters > 0 && cpus > 0 && sa > 0 && sb > 0 && sc > 0,
            "MSTRIDE needs a nonempty iteration space and nonzero strides"
        );

        let mut b = TraceBuilder::with_lanes(format!("MSTRIDE-{rows}x{cols}"), lanes);
        // Operand extents cover the largest strided index each site reaches.
        let a = b.alloc("A", rows * cols * sa, ELEMENT_BYTES);
        let bb = b.alloc("B", rows + cols * sb, ELEMENT_BYTES);
        let c = b.alloc("C", rows * cols * sc, ELEMENT_BYTES);

        let pc_a = b.pc_site(); // stride-sa stream
        let pc_b = b.pc_site(); // stride-sb stream (column walk)
        let pc_halo = b.pc_site(); // neighbour row of C (communication)
        let pc_c_w = b.pc_site(); // stride-sc output stream

        for _it in 0..iters {
            for r in 0..rows {
                let p = (r as usize) % cpus;
                for j in 0..cols {
                    // Three concurrent strides from three static sites.
                    b.read(p, b.element(a, ELEMENT_BYTES, (r * cols + j) * sa), pc_a);
                    b.read(p, b.element(bb, ELEMENT_BYTES, r + j * sb), pc_b);
                    // Re-read the next row's output — written by the
                    // neighbouring processor last iteration.
                    if j % 8 == 0 {
                        let nr = (r + 1) % rows;
                        b.read(
                            p,
                            b.element(c, ELEMENT_BYTES, (nr * cols + j) * sc),
                            pc_halo,
                        );
                    }
                    b.compute(p, 8);
                    b.write(p, b.element(c, ELEMENT_BYTES, (r * cols + j) * sc), pc_c_w);
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

    fn tiny() -> MstrideParams {
        MstrideParams {
            rows: 8,
            cols: 32,
            strides: (1, 32, 3),
            iters: 2,
            cpus: 4,
        }
    }

    /// Each static site advances by exactly its configured stride.
    #[test]
    fn sites_advance_by_their_tuple_strides() {
        let p = tiny();
        let wl = build(p);
        let site = |pc: u32| -> Vec<u64> {
            wl.trace(0)
                .iter()
                .filter_map(|op| match op {
                    Op::Read { addr, pc: got } if got.as_u32() == pc => Some(addr.as_u64()),
                    Op::Write { addr, pc: got } if got.as_u32() == pc => Some(addr.as_u64()),
                    _ => None,
                })
                .take(16)
                .collect()
        };
        let stride_of = |addrs: &[u64]| addrs[1] - addrs[0];
        assert_eq!(stride_of(&site(0x0010_0000)), p.strides.0 * ELEMENT_BYTES);
        assert_eq!(stride_of(&site(0x0010_0004)), p.strides.1 * ELEMENT_BYTES);
        assert_eq!(stride_of(&site(0x0010_000c)), p.strides.2 * ELEMENT_BYTES);
    }

    #[test]
    fn rows_are_interleaved_across_cpus() {
        let wl = build(tiny());
        for cpu in 0..4 {
            assert!(
                wl.trace(cpu)
                    .iter()
                    .any(|op| matches!(op, Op::Write { .. })),
                "cpu {cpu} owns no rows"
            );
        }
    }

    #[test]
    fn halo_reads_touch_neighbour_output() {
        let wl = build(tiny());
        assert!(wl
            .trace(0)
            .iter()
            .any(|op| matches!(op, Op::Read { pc, .. } if pc.as_u32() == 0x0010_0008)));
    }

    #[test]
    fn deterministic() {
        assert_eq!(build_packed(tiny()), build_packed(tiny()));
    }
}
