//! Parallel scientific workload models for the prefetching study.
//!
//! The paper drives its simulator with six applications — MP3D, Cholesky,
//! Water and PTHOR from the SPLASH suite plus the Stanford LU and Ocean
//! programs — compiled for SPARC and executed program-driven. This crate
//! substitutes *workload models*: Rust implementations of the same parallel
//! algorithms that emit, per processor, the stream of shared-memory
//! operations ([`Op`]) the application's parallel section would issue —
//! PC-tagged reads, writes, compute delays, lock acquire/release and
//! barriers. The models reproduce each application's documented data
//! layout, partitioning, synchronization and sharing structure, which is
//! what determines the Table 2 characteristics (fraction of read misses in
//! stride sequences, sequence lengths, dominant strides) that the paper
//! uses to explain its results. See `DESIGN.md` for the substitution
//! rationale.
//!
//! Beyond the paper's six, three *modern* families probe access patterns
//! the 1995 suite under-represents: [`chase`] (pointer-chasing linked
//! structures), [`mstride`] (multi-strided nested loops) and [`server`]
//! (irregular, large-footprint mixed traffic). All generators accept a
//! `cpus` parameter, so the same algorithm re-partitions onto larger
//! meshes; [`App::build_packed_for`] selects family, [`ProblemSize`] and
//! processor count in one call.
//!
//! All generators are deterministic: the same parameters always produce the
//! same trace.
//!
//! # Examples
//!
//! ```
//! use pfsim_workloads::{lu, Workload};
//!
//! let mut wl = lu::build(lu::LuParams { n: 32, ..Default::default() });
//! assert_eq!(wl.num_cpus(), 16);
//! let first = wl.next(0).expect("cpu 0 has work");
//! println!("cpu 0 starts with {first:?}");
//! ```

#![warn(missing_docs)]

mod builder;
mod op;
mod packed;
mod stats;

pub mod chase;
pub mod cholesky;
pub mod fuzz;
pub mod lu;
pub mod micro;
pub mod mp3d;
pub mod mstride;
pub mod ocean;
pub mod pthor;
pub mod server;
pub mod water;

pub use builder::{generation_threads, TraceBuilder};
pub use op::{Op, TraceWorkload, Workload};
pub use packed::{OpIter, PackedTrace, TraceCursor};
pub use stats::{packed_stats, trace_stats, TraceStats};

/// A problem-size selector usable across every application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemSize {
    /// Scaled-down inputs for tests and quick runs.
    Default,
    /// Inputs at (approximately) the paper's scale.
    Paper,
    /// Enlarged data sets (the §5.4 trend study).
    Large,
}

/// The applications: the paper's six (in its presentation order) plus
/// the three modern families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Rarefied-fluid particle simulation (SPLASH).
    Mp3d,
    /// Sparse Cholesky factorization (SPLASH).
    Cholesky,
    /// N-body molecular dynamics of water (SPLASH).
    Water,
    /// Dense LU factorization (Stanford).
    Lu,
    /// Ocean-basin eddy-current simulation (Stanford).
    Ocean,
    /// Parallel logic simulator (SPLASH).
    Pthor,
    /// Pointer-chasing over randomized linked structures (modern).
    Chase,
    /// Multi-strided nested-loop kernel (modern).
    Mstride,
    /// Irregular request-serving mixed traffic (modern).
    Server,
}

/// Expands to the preset of `$ty` selected by a [`ProblemSize`], with the
/// processor count overridden. `$large` names the method backing
/// `ProblemSize::Large` (PTHOR has no enlarged input, so it re-uses
/// `paper`, as the paper's §5.4 does).
macro_rules! preset {
    ($ty:ty, $size:expr, $cpus:expr) => {
        preset!($ty, $size, $cpus, large)
    };
    ($ty:ty, $size:expr, $cpus:expr, $large:ident) => {{
        let mut p = match $size {
            ProblemSize::Default => <$ty>::default(),
            ProblemSize::Paper => <$ty>::paper(),
            ProblemSize::Large => <$ty>::$large(),
        };
        p.cpus = $cpus;
        p
    }};
}

/// Expands to `$f(params)` with the parameters of `$app` at `$size` with
/// `$cpus` processors; `$f` is generic over [`builder::Generator`].
macro_rules! dispatch {
    ($app:expr, $size:expr, $cpus:expr, $f:expr) => {
        match $app {
            App::Mp3d => $f(preset!(mp3d::Mp3dParams, $size, $cpus)),
            App::Cholesky => $f(preset!(cholesky::CholeskyParams, $size, $cpus)),
            App::Water => $f(preset!(water::WaterParams, $size, $cpus)),
            App::Lu => $f(preset!(lu::LuParams, $size, $cpus)),
            App::Ocean => $f(preset!(ocean::OceanParams, $size, $cpus)),
            App::Pthor => $f(preset!(pthor::PthorParams, $size, $cpus, paper)),
            App::Chase => $f(preset!(chase::ChaseParams, $size, $cpus)),
            App::Mstride => $f(preset!(mstride::MstrideParams, $size, $cpus)),
            App::Server => $f(preset!(server::ServerParams, $size, $cpus)),
        }
    };
}

impl App {
    /// The paper's six applications in its presentation order.
    pub const ALL: [App; 6] = [
        App::Mp3d,
        App::Cholesky,
        App::Water,
        App::Lu,
        App::Ocean,
        App::Pthor,
    ];

    /// The three modern workload families of the scaling study.
    pub const MODERN: [App; 3] = [App::Chase, App::Mstride, App::Server];

    /// Every application: the paper's six followed by the modern three.
    pub const EVERY: [App; 9] = [
        App::Mp3d,
        App::Cholesky,
        App::Water,
        App::Lu,
        App::Ocean,
        App::Pthor,
        App::Chase,
        App::Mstride,
        App::Server,
    ];

    /// The application's display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            App::Mp3d => "MP3D",
            App::Cholesky => "Cholesky",
            App::Water => "Water",
            App::Lu => "LU",
            App::Ocean => "Ocean",
            App::Pthor => "PTHOR",
            App::Chase => "CHASE",
            App::Mstride => "MSTRIDE",
            App::Server => "SERVER",
        }
    }

    /// Builds the workload at `size` for a machine with `cpus`
    /// processors. With `cpus == 16` this is identical to the fixed
    /// builders below; other counts re-partition the same algorithm.
    pub fn build_for(self, size: ProblemSize, cpus: usize) -> TraceWorkload {
        self.build_packed_for(size, cpus).materialize()
    }

    /// Packed counterpart of [`build_for`](Self::build_for).
    pub fn build_packed_for(self, size: ProblemSize, cpus: usize) -> PackedTrace {
        dispatch!(self, size, cpus, builder::generate)
    }

    /// Builds the workload at the default (scaled-down) problem size.
    pub fn build_default(self) -> TraceWorkload {
        self.build_for(ProblemSize::Default, 16)
    }

    /// Builds the workload at (approximately) the paper's problem size.
    pub fn build_paper(self) -> TraceWorkload {
        self.build_for(ProblemSize::Paper, 16)
    }

    /// Builds the workload at an enlarged problem size (the §5.4 study).
    pub fn build_large(self) -> TraceWorkload {
        self.build_for(ProblemSize::Large, 16)
    }

    /// Packed counterpart of [`build_default`](Self::build_default).
    pub fn build_default_packed(self) -> PackedTrace {
        self.build_packed_for(ProblemSize::Default, 16)
    }

    /// Packed counterpart of [`build_paper`](Self::build_paper).
    pub fn build_paper_packed(self) -> PackedTrace {
        self.build_packed_for(ProblemSize::Paper, 16)
    }

    /// Packed counterpart of [`build_large`](Self::build_large).
    pub fn build_large_packed(self) -> PackedTrace {
        self.build_packed_for(ProblemSize::Large, 16)
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_build_at_default_size() {
        for app in App::EVERY {
            let mut wl = app.build_default();
            assert_eq!(wl.num_cpus(), 16, "{app}");
            let total: usize = (0..16).map(|c| wl.remaining(c)).sum();
            assert!(total > 1000, "{app} produced only {total} ops");
            assert!(wl.next(0).is_some(), "{app} cpu 0 empty");
        }
    }

    #[test]
    fn names_match_paper_tables() {
        let names: Vec<_> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["MP3D", "Cholesky", "Water", "LU", "Ocean", "PTHOR"]);
    }

    #[test]
    fn rosters_are_consistent() {
        let every: Vec<_> = App::ALL.iter().chain(&App::MODERN).copied().collect();
        assert_eq!(every, App::EVERY);
        let names: Vec<_> = App::MODERN.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["CHASE", "MSTRIDE", "SERVER"]);
    }

    /// The fixed 16-cpu builders and the parameterized `build_for` must
    /// agree exactly — the paper-grid anchors depend on it.
    #[test]
    fn build_for_matches_fixed_builders_at_16_cpus() {
        for app in App::EVERY {
            assert_eq!(
                app.build_packed_for(ProblemSize::Default, 16),
                app.build_default_packed(),
                "{app}"
            );
        }
    }

    /// The generator's trace from one builder owning every lane.
    fn single_builder<G: builder::Generator>(params: G) -> PackedTrace {
        params
            .emit(builder::Lanes::all(params.cpus()))
            .finish_packed()
    }

    /// Checks that generating `params` split into each of `shards` lane
    /// shards gives exactly the single-builder trace.
    fn shards_match_single_builder<G: builder::Generator>(params: G, shards: &[usize]) {
        let single = single_builder(params);
        for &n in shards {
            let sharded = builder::generate_sharded(params, n);
            assert!(sharded == single, "{} with {n} shards", single.name());
        }
    }

    #[test]
    fn sharded_generation_matches_a_single_builder() {
        for app in App::EVERY {
            let shards: &[usize] = match app {
                App::Lu => &[1, 2, 3, 16],
                _ => &[1, 2, 3],
            };
            dispatch!(app, ProblemSize::Default, 16, |p| {
                shards_match_single_builder(p, shards)
            });
        }
        for app in App::MODERN {
            dispatch!(app, ProblemSize::Default, 64, |p| {
                shards_match_single_builder(p, &[1, 2, 3])
            });
        }
    }

    /// Re-partitioning onto a bigger machine gives every processor work.
    #[test]
    fn modern_apps_scale_to_64_cpus() {
        for app in App::MODERN {
            let mut wl = app.build_for(ProblemSize::Default, 64);
            assert_eq!(wl.num_cpus(), 64, "{app}");
            for cpu in 0..64 {
                assert!(wl.next(cpu).is_some(), "{app} cpu {cpu} empty");
            }
        }
    }
}
