//! Ocean: eddy-current simulation on a 2D grid (Stanford), the paper's
//! large-stride workload.
//!
//! The grid rows are padded to 2080 bytes (260 doubles = 65 blocks, the
//! red/black pair layout of the original code), and the grid is
//! partitioned into square subgrids, one per processor. Under an infinite
//! SLC the steady-state misses are the boundary exchanges:
//!
//! * reading the neighbour's boundary *column* walks down rows — misses 65
//!   blocks apart (the paper's dominant stride, 42% of stride accesses);
//! * reading the neighbour's boundary *row* is contiguous — stride-1
//!   misses (31%);
//! * the first sweep's cold misses stream through each subgrid row —
//!   stride-1 runs bounded by the subgrid width.
//!
//! Column sequences are strip-mined (bands of rows handled by distinct
//! solver loops), which bounds the average sequence length the way the
//! multi-level solver structure does in the original program.

use crate::builder::{generate, Generator, Lanes};
use crate::{PackedTrace, TraceBuilder, TraceWorkload};

/// Default row pitch in doubles (65 blocks of 32 bytes), matching the
/// paper's 128×128 layout.
pub const ROW_DOUBLES: u64 = 260;

/// Problem-size parameters for Ocean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OceanParams {
    /// Interior grid dimension (the paper uses 128×128).
    pub n: u64,
    /// Relaxation iterations to simulate.
    pub iterations: u32,
    /// Rows per strip-mined band of the column-boundary loops.
    pub band: u64,
    /// Row pitch in doubles (the dominant stride in blocks is a quarter of
    /// this). Larger grids use a wider pitch, which is how the paper's
    /// §5.4 expectation of a "longer" dominant stride arises.
    pub row_doubles: u64,
    /// Number of processors (must be a perfect square).
    pub cpus: usize,
}

impl Default for OceanParams {
    /// A scaled-down grid for tests and quick runs.
    fn default() -> Self {
        OceanParams {
            n: 64,
            iterations: 10,
            band: 8,
            row_doubles: ROW_DOUBLES,
            cpus: 16,
        }
    }
}

impl OceanParams {
    /// The paper's input: a 128×128 grid.
    pub fn paper() -> Self {
        OceanParams {
            n: 128,
            iterations: 14,
            band: 8,
            row_doubles: ROW_DOUBLES,
            cpus: 16,
        }
    }

    /// The enlarged data set for the §5.4 trend study: a bigger grid with
    /// a proportionally wider row pitch (130-block dominant stride).
    pub fn large() -> Self {
        OceanParams {
            n: 192,
            iterations: 20,
            band: 8,
            row_doubles: 520,
            cpus: 16,
        }
    }
}

/// Builds the Ocean workload.
///
/// # Panics
///
/// Panics if `cpus` is not a perfect square or the grid does not divide
/// evenly among processors.
pub fn build(params: OceanParams) -> TraceWorkload {
    build_packed(params).materialize()
}

/// Builds the same workload in the packed shared-trace encoding,
/// ready to wrap in an `Arc` and replay across many runs (see
/// [`build`]).
pub fn build_packed(params: OceanParams) -> PackedTrace {
    generate(params)
}

impl Generator for OceanParams {
    fn cpus(&self) -> usize {
        self.cpus
    }

    fn emit(self, lanes: Lanes) -> TraceBuilder {
        let OceanParams {
            n,
            iterations,
            band,
            row_doubles,
            cpus,
        } = self;
        assert_eq!(row_doubles % 4, 0, "row pitch must be whole blocks");
        let side = (cpus as f64).sqrt() as u64;
        assert_eq!(
            (side * side) as usize,
            cpus,
            "Ocean requires a square processor grid"
        );
        assert_eq!(n % side, 0, "grid must divide evenly among processors");
        let sub = n / side; // subgrid dimension
        assert!(band > 0 && sub >= band);
        assert!(
            n + 8 <= row_doubles,
            "grid row must fit in the padded pitch"
        );
        assert_eq!(sub % 4, 0, "subgrids must be whole blocks wide");

        let mut b = TraceBuilder::with_lanes(format!("Ocean-{n}x{n}"), lanes);
        // Two ping-pong grids plus the stream-function grid.
        let q = [
            b.alloc("q_even", (n + 2) * row_doubles, 8),
            b.alloc("q_odd", (n + 2) * row_doubles, 8),
        ];
        let psi = b.alloc("psi", (n + 2) * row_doubles, 8);
        let sum_lock = b.alloc("SumLock", 1, 32);
        let global_sum = b.alloc("GlobalSum", 1, 32);
        // Per-processor residual cells, deliberately scattered over their own
        // pages (the real code's reduction tree walks pointer-linked
        // per-processor records): reading them is the non-stride component of
        // Ocean's miss mix.
        let errs: Vec<pfsim_mem::Addr> = (0..cpus as u64).map(|_| b.alloc("err", 1, 32)).collect();

        // The interior starts at column 4 of each padded row so processor
        // partitions (multiples of 4 columns = one 32-byte block) fall on
        // block boundaries — the same false-sharing avoidance the SPLASH-2
        // rewrite of Ocean performs with its 4-D arrays. Without it, boundary
        // blocks are write-shared by two owners and the boundary-column miss
        // pattern collapses.
        let at = |b: &TraceBuilder, grid: pfsim_mem::Addr, i: u64, j: u64| {
            b.element(grid, 8, (i + 1) * row_doubles + (j + 4))
        };

        let pc_center = b.pc_site();
        let pc_up = b.pc_site();
        let pc_down = b.pc_site();
        let pc_left_a = b.pc_site(); // column-boundary band loop A
        let pc_left_b = b.pc_site(); // column-boundary band loop B
        let pc_right_a = b.pc_site();
        let pc_right_b = b.pc_site();
        let pc_row_up = b.pc_site(); // row-boundary exchange
        let pc_row_down = b.pc_site();
        let pc_psi = b.pc_site();
        let pc_write = b.pc_site();
        let pc_sum_r = b.pc_site();
        let pc_sum_w = b.pc_site();
        let pc_err_w = b.pc_site();
        let pc_err_r = b.pc_site();

        for iter in 0..iterations {
            let src = q[(iter % 2) as usize];
            let dst = q[((iter + 1) % 2) as usize];
            for p in 0..cpus {
                let px = (p as u64) % side;
                let py = (p as u64) / side;
                let (r0, c0) = (py * sub, px * sub);

                // Column-boundary exchange: read the neighbour's columns just
                // outside our left and right edges, one element per row. The
                // loops are strip-mined into bands with distinct code paths.
                for band_start in (0..sub).step_by(band as usize) {
                    let (pc_l, pc_r) = if (band_start / band) % 2 == 0 {
                        (pc_left_a, pc_right_a)
                    } else {
                        (pc_left_b, pc_right_b)
                    };
                    for i in band_start..(band_start + band).min(sub) {
                        if c0 > 0 {
                            b.read(p, at(&b, src, r0 + i, c0 - 1), pc_l);
                        }
                        if c0 + sub < n {
                            b.read(p, at(&b, src, r0 + i, c0 + sub), pc_r);
                        }
                        b.compute(p, 4);
                    }
                }

                // Row-boundary exchange: read the neighbour rows just above
                // and below (contiguous doubles).
                for j in 0..sub {
                    if r0 > 0 {
                        b.read(p, at(&b, src, r0 - 1, c0 + j), pc_row_up);
                    }
                    if r0 + sub < n {
                        b.read(p, at(&b, src, r0 + sub, c0 + j), pc_row_down);
                    }
                    b.compute(p, 2);
                }

                // Interior relaxation sweep over the owned subgrid.
                for i in 0..sub {
                    for j in 0..sub {
                        let (r, c) = (r0 + i, c0 + j);
                        b.read(p, at(&b, src, r, c), pc_center);
                        if i > 0 {
                            b.read(p, at(&b, src, r - 1, c), pc_up);
                        }
                        if i + 1 < sub {
                            b.read(p, at(&b, src, r + 1, c), pc_down);
                        }
                        b.read(p, at(&b, psi, r, c), pc_psi);
                        b.compute(p, 4);
                        b.write(p, at(&b, dst, r, c), pc_write);
                    }
                }

                // Convergence check: publish the local residual, then combine
                // everyone's (scattered reads — the writers invalidated them
                // last iteration), plus the lock-protected global sum.
                b.write(p, errs[p], pc_err_w);
                b.acquire(p, sum_lock);
                b.read(p, global_sum, pc_sum_r);
                for q in 0..cpus {
                    // Pointer-chase order: spatially scattered, not
                    // equidistant.
                    b.read(p, errs[(p + q * q + iter as usize) % cpus], pc_err_r);
                }
                b.write(p, global_sum, pc_sum_w);
                b.release(p, sum_lock);
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
    fn row_pitch_is_65_blocks() {
        assert_eq!(ROW_DOUBLES * 8 / 32, 65);
    }

    #[test]
    fn column_boundary_reads_are_one_row_apart() {
        let wl = build(OceanParams {
            n: 16,
            iterations: 1,
            band: 4,
            row_doubles: ROW_DOUBLES,
            cpus: 4,
        });
        // CPU 1 owns columns 8..16 and reads its left-neighbour column:
        // consecutive reads from the band-A loop are ROW_DOUBLES*8 bytes
        // apart.
        let mut prev = None;
        let mut seen = 0;
        for op in wl.trace(1) {
            if let Op::Read { addr, pc } = op {
                if pc.as_u32() == 0x0010_000c {
                    // pc_left_a is the 4th site
                    if let Some(p) = prev {
                        assert_eq!(addr.as_u64() - p, ROW_DOUBLES * 8);
                        seen += 1;
                    }
                    prev = Some(addr.as_u64());
                }
            }
            if seen >= 2 {
                break;
            }
        }
        assert!(seen >= 2, "no column-boundary stride observed");
    }

    #[test]
    fn row_boundary_reads_are_contiguous() {
        let wl = build(OceanParams {
            n: 16,
            iterations: 1,
            band: 4,
            row_doubles: ROW_DOUBLES,
            cpus: 4,
        });
        // CPU 2 owns rows 8..16 and reads the row above (row 7).
        let mut prev = None;
        for op in wl.trace(2) {
            if let Op::Read { addr, pc } = op {
                if pc.as_u32() == 0x0010_001c {
                    // pc_row_up is the 8th site
                    if let Some(p) = prev {
                        assert_eq!(addr.as_u64() - p, 8);
                        return;
                    }
                    prev = Some(addr.as_u64());
                }
            }
        }
        panic!("no row-boundary reads observed");
    }

    #[test]
    fn interior_processors_have_all_four_exchanges() {
        let wl = build(OceanParams::default());
        // With a 4×4 processor grid, cpu 5 is interior: it must read in
        // all four directions and so has more reads than corner cpu 0.
        assert!(wl.trace(5).len() > wl.trace(0).len());
    }

    #[test]
    fn deterministic() {
        let a = build(OceanParams::default());
        let b = build(OceanParams::default());
        for cpu in 0..16 {
            assert_eq!(a.trace(cpu), b.trace(cpu));
        }
    }

    #[test]
    #[should_panic(expected = "square processor grid")]
    fn rejects_non_square_cpu_count() {
        build(OceanParams {
            n: 64,
            iterations: 1,
            band: 8,
            row_doubles: ROW_DOUBLES,
            cpus: 12,
        });
    }
}
