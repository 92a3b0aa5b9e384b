//! MP3D: rarefied-fluid particle simulation (SPLASH), the paper's
//! low-stride / high-spatial-locality workload.
//!
//! Particles are 24-byte records packed in one array; the space lattice is
//! an array of 16-byte cells. Each step every processor moves its own
//! particles (which stay cached under an infinite SLC), touches the space
//! cell each particle lands in, and collides some particles with partners
//! owned by other processors. Space cells and collision partners are
//! written by whichever processor's particle got there last, so the
//! steady-state read misses are scattered coherence misses — few stride
//! sequences (Table 2: 9.2%) — but *spatially correlated*: consecutive
//! particles land in nearby cells, which is the locality that lets
//! sequential prefetching remove ~28% of MP3D's misses while stride
//! prefetching manages ~5% (§5.2).

use pfsim_mem::SplitMix64;

use crate::builder::{generate, Generator, Lanes};
use crate::{PackedTrace, TraceBuilder, TraceWorkload};

/// Size of one particle record in bytes.
pub const PARTICLE_BYTES: u64 = 24;
/// Size of one space cell in bytes.
pub const CELL_BYTES: u64 = 16;

/// Problem-size parameters for MP3D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mp3dParams {
    /// Number of particles (the paper uses 10 000).
    pub particles: u64,
    /// Number of space-lattice cells.
    pub cells: u64,
    /// Number of time steps (the paper uses 10).
    pub steps: u32,
    /// Collision probability per particle per step, in percent.
    pub collision_pct: u32,
    /// Number of processors.
    pub cpus: usize,
}

impl Default for Mp3dParams {
    /// A scaled-down system for tests and quick runs.
    fn default() -> Self {
        Mp3dParams {
            particles: 4000,
            cells: 2048,
            steps: 10,
            collision_pct: 50,
            cpus: 16,
        }
    }
}

impl Mp3dParams {
    /// The paper's input: 10 000 particles for 10 time steps.
    pub fn paper() -> Self {
        Mp3dParams {
            particles: 10_000,
            cells: 4096,
            steps: 10,
            collision_pct: 30,
            cpus: 16,
        }
    }

    /// The enlarged data set for the §5.4 trend study (more particles; the
    /// paper expects the stride fraction to stay about the same).
    pub fn large() -> Self {
        Mp3dParams {
            particles: 24_000,
            cells: 8192,
            steps: 6,
            collision_pct: 30,
            cpus: 16,
        }
    }
}

/// Builds the MP3D workload.
///
/// # Panics
///
/// Panics if there are fewer particles than processors.
pub fn build(params: Mp3dParams) -> TraceWorkload {
    build_packed(params).materialize()
}

/// Builds the same workload in the packed shared-trace encoding,
/// ready to wrap in an `Arc` and replay across many runs (see
/// [`build`]).
pub fn build_packed(params: Mp3dParams) -> PackedTrace {
    generate(params)
}

impl Generator for Mp3dParams {
    fn cpus(&self) -> usize {
        self.cpus
    }

    fn emit(self, lanes: Lanes) -> TraceBuilder {
        let Mp3dParams {
            particles,
            cells,
            steps,
            collision_pct,
            cpus,
        } = self;
        assert!(particles >= cpus as u64);
        assert!(cells > 16);

        let mut b = TraceBuilder::with_lanes(format!("MP3D-{particles}p"), lanes);
        let part = b.alloc("Particles", particles, PARTICLE_BYTES);
        let space = b.alloc("SpaceCells", cells, CELL_BYTES);
        // The ambient-gas reservoir: consulted and updated whenever a particle
        // moves, with essentially random cell association — a second source of
        // scattered coherence misses, as in the original program's reservoir
        // and boundary-cell handling.
        let reservoir = b.alloc("Reservoir", cells, 8);
        let counters = b.alloc("GlobalCounters", 4, 32);
        let counter_lock = b.alloc("CounterLock", 1, 32);

        let pc_own_r = b.pc_site();
        let pc_own_w = b.pc_site();
        let pc_cell_r = b.pc_site();
        let pc_cell_w = b.pc_site();
        let pc_coll_r = b.pc_site();
        let pc_coll_w = b.pc_site();
        let pc_res_r = b.pc_site();
        let pc_res_w = b.pc_site();
        let pc_cnt_r = b.pc_site();
        let pc_cnt_w = b.pc_site();

        let per_cpu = particles / cpus as u64;
        let mut rng = SplitMix64::seed_from_u64(0x3D_3D_3D);

        for step in 0..steps {
            for p in 0..cpus {
                let lo = p as u64 * per_cpu;
                let hi = if p == cpus - 1 {
                    particles
                } else {
                    lo + per_cpu
                };
                for i in lo..hi {
                    // Move phase: read and rewrite the particle's own record.
                    b.read(p, b.element(part, PARTICLE_BYTES, i), pc_own_r);
                    b.compute(p, 8);
                    b.write(p, b.element(part, PARTICLE_BYTES, i), pc_own_w);

                    // The particle's space cell: each particle has its own
                    // velocity, so positions drift apart over the steps and a
                    // processor's particles cross cells that other processors'
                    // particles also visit (coherence misses). Consecutive
                    // particles still land in *nearby* cells — spatial
                    // locality — but the jitter keeps the walk from being
                    // equidistant, so it does not read as stride sequences.
                    let velocity = (i * 2_654_435_761 % 33) as i64 - 16;
                    let base_cell = (i * cells / particles) as i64
                        + i64::from(step) * velocity
                        + rng.random_range(-5..=5);
                    let cell = base_cell.rem_euclid(cells as i64) as u64;
                    b.read(p, b.element(space, CELL_BYTES, cell), pc_cell_r);
                    b.compute(p, 4);
                    b.write(p, b.element(space, CELL_BYTES, cell), pc_cell_w);

                    // Reservoir interaction: read the ambient state around
                    // the particle's cell and update a neighbouring entry.
                    // The addresses are scattered (written by many
                    // processors, never equidistant) but spatially local —
                    // the same block-neighbourhood locality as the cell walk,
                    // which is what sequential prefetching exploits in MP3D.
                    let res_r =
                        (cell as i64 + rng.random_range(-12..=12)).rem_euclid(cells as i64) as u64;
                    let res_w =
                        (cell as i64 + rng.random_range(-12..=12)).rem_euclid(cells as i64) as u64;
                    b.read(p, b.element(reservoir, 8, res_r), pc_res_r);
                    b.write(p, b.element(reservoir, 8, res_w), pc_res_w);

                    // Collision phase: with some probability, pick a partner
                    // from the same cell neighbourhood (usually another
                    // processor's particle) and exchange momentum.
                    if rng.random_range(0..100) < collision_pct {
                        let span = particles / 8;
                        let offset = rng.random_range(0..span);
                        let partner = (cell * particles / cells + offset) % particles;
                        b.read(p, b.element(part, PARTICLE_BYTES, partner), pc_coll_r);
                        b.compute(p, 6);
                        b.write(p, b.element(part, PARTICLE_BYTES, partner), pc_coll_w);
                    }
                }
                // Per-step bookkeeping under the global lock.
                b.acquire(p, counter_lock);
                b.read(p, b.element(counters, 32, 0), pc_cnt_r);
                b.write(p, b.element(counters, 32, 0), pc_cnt_w);
                b.release(p, counter_lock);
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
    fn particles_do_not_align_with_blocks() {
        // 24-byte particles on 32-byte blocks: consecutive particles share
        // blocks, which is where MP3D's spatial locality comes from.
        assert_eq!(PARTICLE_BYTES % 32, 24);
    }

    #[test]
    fn own_particles_are_read_in_order() {
        let wl = build(Mp3dParams {
            particles: 256,
            cells: 64,
            steps: 1,
            collision_pct: 0,
            cpus: 4,
        });
        let reads: Vec<u64> = wl
            .trace(1)
            .iter()
            .filter_map(|op| match op {
                Op::Read { addr, pc } if pc.as_u32() == 0x0010_0000 => Some(addr.as_u64()),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 64);
        for w in reads.windows(2) {
            assert_eq!(w[1] - w[0], PARTICLE_BYTES);
        }
    }

    #[test]
    fn cell_accesses_are_correlated_but_not_equidistant() {
        let wl = build(Mp3dParams {
            particles: 1000,
            cells: 500,
            steps: 1,
            collision_pct: 0,
            cpus: 1,
        });
        let cells: Vec<u64> = wl
            .trace(0)
            .iter()
            .filter_map(|op| match op {
                Op::Read { addr, pc } if pc.as_u32() == 0x0010_0008 => Some(addr.as_u64()),
                _ => None,
            })
            .collect();
        // Deltas cluster near +0.5 cells/particle but vary (jitter).
        let deltas: Vec<i64> = cells
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        let distinct: std::collections::HashSet<_> = deltas.iter().collect();
        assert!(distinct.len() > 3, "cell walk is too regular");
        let small = deltas
            .iter()
            .filter(|d| d.unsigned_abs() <= 12 * CELL_BYTES)
            .count();
        assert!(
            small * 10 >= deltas.len() * 6,
            "cell walk lost its spatial locality: {small}/{}",
            deltas.len()
        );
    }

    #[test]
    fn collisions_touch_other_processors_particles() {
        let wl = build(Mp3dParams {
            particles: 1600,
            cells: 400,
            steps: 1,
            collision_pct: 100,
            cpus: 4,
        });
        let own_lo = 0u64;
        let own_hi = 400 * PARTICLE_BYTES;
        let mut foreign = 0;
        for op in wl.trace(0) {
            if let Op::Read { addr, pc } = op {
                if pc.as_u32() == 0x0010_0010 {
                    let off = addr.as_u64() - 4096; // particles region base
                    if off < own_lo || off >= own_hi {
                        foreign += 1;
                    }
                }
            }
        }
        assert!(foreign >= 80, "collisions stayed local: {foreign}");
    }

    #[test]
    fn deterministic() {
        let a = build(Mp3dParams::default());
        let b = build(Mp3dParams::default());
        for cpu in 0..16 {
            assert_eq!(a.trace(cpu), b.trace(cpu));
        }
    }
}
