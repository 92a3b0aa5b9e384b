//! The benchmark's workloads, and one pass over a workload's grid.
//!
//! A pass generates each app's packed trace, simulates its four Figure-6
//! cells serially on `System::run` (or, for a warmed workload, forks them
//! from one `snapshot` taken at the warmup boundary), checks every cell,
//! then writes and re-validates the run manifest. Each step is timed on
//! its own, so a pass yields both the end-to-end wall time and the split
//! into set-up, simulation and manifest work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pfsim::experiment::figure6_schemes;
use pfsim::{RecordMisses, SimResult, System, SystemConfig};
use pfsim_bench::{
    validate_manifest, CellResult, ExperimentSpec, Runner, Size, TraceInfo, Variant,
};
use pfsim_engine::Cycle;
use pfsim_prefetch::Scheme;
use pfsim_workloads::{chase, server, App, PackedTrace, ProblemSize, TraceCursor};

use crate::span::Tracer;

/// One named grid the benchmark runs: apps × the four Figure-6 columns.
#[derive(Debug)]
pub struct Workload {
    /// The name given to `--workload`.
    pub name: &'static str,
    /// Grid rows.
    pub apps: &'static [App],
    /// Problem size of every trace.
    pub size: Size,
    /// Mesh width and height.
    pub mesh: (u16, u16),
    /// Scheme-free warmup prefix shared by an app's cells, in pclocks
    /// (0 = cells start from empty caches).
    pub warmup: u64,
    /// The cell the traced run also simulates instrumented and under the
    /// consistency oracle (from cold, even on a warmed workload).
    pub probe: (App, Scheme),
}

/// The paper's grid: six SPLASH apps at default size, caches start empty.
pub const FIG6: Workload = Workload {
    name: "fig6",
    apps: &App::ALL,
    size: Size::Default,
    mesh: (4, 4),
    warmup: 0,
    probe: (App::Water, Scheme::DDetection { degree: 1 }),
};

/// The warmed large grid: a 3M-pclock scheme-free prefix per app, the
/// four cells forked from one shared snapshot.
pub const WARM_LARGE: Workload = Workload {
    name: "warm-large",
    apps: &App::ALL,
    size: Size::Large,
    mesh: (4, 4),
    warmup: 3_000_000,
    probe: (App::Mp3d, Scheme::None),
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&Workload; 2] = [&FIG6, &WARM_LARGE];

impl Workload {
    /// The workload named `name`.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// Whether `seed` changes this workload's inputs. Only the CHASE and
    /// SERVER generators take a seed; the SPLASH generators fix theirs.
    pub fn seeded(&self) -> bool {
        self.apps
            .iter()
            .any(|a| matches!(a, App::Chase | App::Server))
    }

    /// Processors per trace (one per mesh node).
    pub fn cpus(&self) -> u16 {
        self.mesh.0 * self.mesh.1
    }

    /// Number of cells in the grid.
    pub fn cells(&self) -> usize {
        self.apps.len() * figure6_schemes().len()
    }

    /// The machine one cell simulates.
    pub fn config(&self, scheme: Scheme) -> SystemConfig {
        SystemConfig::builder()
            .mesh_dims(self.mesh.0, self.mesh.1)
            .scheme(scheme)
            .build()
    }

    /// Generates `app`'s packed trace for this workload. Seed 0 leaves
    /// each generator's own seed in place (the pinned inputs); any other
    /// seed is folded into the CHASE and SERVER seeds.
    pub fn trace(&self, app: App, seed: u64) -> PackedTrace {
        let cpus = self.cpus() as usize;
        let problem = self.size.problem();
        match app {
            App::Chase => {
                let mut p = match problem {
                    ProblemSize::Default => chase::ChaseParams::default(),
                    ProblemSize::Paper => chase::ChaseParams::paper(),
                    ProblemSize::Large => chase::ChaseParams::large(),
                };
                p.cpus = cpus;
                p.seed ^= seed;
                chase::build_packed(p)
            }
            App::Server => {
                let mut p = match problem {
                    ProblemSize::Default => server::ServerParams::default(),
                    ProblemSize::Paper => server::ServerParams::paper(),
                    ProblemSize::Large => server::ServerParams::large(),
                };
                p.cpus = cpus;
                p.seed ^= seed;
                server::build_packed(p)
            }
            _ => app.build_packed_for(problem, cpus),
        }
    }
}

/// One app's inputs and results, handed to the traced run's replays
/// while the app's trace is still resident.
pub struct AppRun<'a> {
    /// The app.
    pub app: App,
    /// Its packed trace.
    pub trace: &'a Arc<PackedTrace>,
    /// Its cells in column order; `None` for a failed cell.
    pub results: Vec<Option<&'a SimResult>>,
}

/// Timings and outcome of one pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// The whole pass: set-up, simulation, manifest write and validation.
    pub wall_s: f64,
    /// Trace generation.
    pub gen_s: f64,
    /// `System::new`.
    pub new_s: f64,
    /// Simulation calls (`run`, `run_until`, `snapshot`, `restore`) of
    /// cells that passed their checks.
    pub sim_s: f64,
    /// `snapshot` calls.
    pub snapshot_s: f64,
    /// `restore` calls.
    pub restore_s: f64,
    /// Writing the run manifest.
    pub manifest_write_s: f64,
    /// Re-reading and validating the run manifest.
    pub manifest_validate_s: f64,
    /// Pclocks of the cells that passed.
    pub pclocks: u64,
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that panicked, deadlocked or failed a check.
    pub failed: usize,
    /// Trace operations generated.
    pub ops: u64,
    /// Packed trace bytes generated.
    pub packed_bytes: u64,
    /// Why each failed cell failed.
    pub failures: Vec<String>,
}

/// Runs one pass over `w`; `traced` turns on the metrics registry and
/// records every node's miss stream. `pins` holds the expected `exec_cycles` of
/// each cell, app-major, when this seed has pins. `on_app` sees each app's
/// trace and results before the trace is dropped; its time is excluded
/// from the pass's wall time.
pub fn run_pass(
    w: &Workload,
    seed: u64,
    pins: Option<&[u64]>,
    traced: bool,
    out_dir: &Path,
    tracer: &mut Tracer,
    on_app: &mut dyn FnMut(AppRun<'_>, &mut Tracer),
) -> Pass {
    let start = Instant::now();
    let mut excluded = 0.0;
    let mut pass = Pass::default();
    let mut traces = Vec::new();
    // Passing cells. A warmed cell's seconds are its restore and run; the
    // shared prefix is in `sim_s` only.
    let mut passed = Vec::new();
    let schemes = figure6_schemes();
    for (app_idx, &app) in w.apps.iter().enumerate() {
        tracer.enter("app", || app.name().to_string());
        let t = Instant::now();
        let trace = tracer.span("workloads.gen", String::new, || {
            Arc::new(w.trace(app, seed))
        });
        pass.gen_s += t.elapsed().as_secs_f64();
        pass.ops += trace.total_ops() as u64;
        pass.packed_bytes += trace.packed_bytes() as u64;
        traces.push(TraceInfo {
            app,
            size: w.size,
            cpus: w.cpus(),
            ops: trace.total_ops() as u64,
            packed_bytes: trace.packed_bytes() as u64,
            bytes_per_op: trace.bytes_per_op(),
        });

        let mut cells: Vec<Result<(SimResult, f64), String>> = Vec::with_capacity(schemes.len());
        let mut warm_prefix_s = 0.0;
        let cfg_of = |scheme| {
            let cfg = w.config(scheme);
            if traced {
                cfg.with_instrumentation(true)
                    .with_recording(RecordMisses::All)
            } else {
                cfg
            }
        };
        if w.warmup == 0 {
            for scheme in schemes {
                tracer.enter("cell", || format!("{app}/{scheme}"));
                let t = Instant::now();
                let mut sys = tracer.span("core.new", String::new, || {
                    System::new(cfg_of(scheme), TraceCursor::new(Arc::clone(&trace)))
                });
                pass.new_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let run = tracer.span("core.run", String::new, || {
                    catch_unwind(AssertUnwindSafe(|| sys.run()))
                });
                let secs = t.elapsed().as_secs_f64();
                cells.push(run.map(|r| (r, secs)).map_err(panic_text));
                tracer.exit();
            }
        } else {
            // The prefix is credited to all four cells: its pclocks are in
            // each cell's `exec_cycles`, its host time is paid once.
            tracer.enter("warmup", || app.name().to_string());
            let t = Instant::now();
            let mut sys = tracer.span("core.new", String::new, || {
                System::new(cfg_of(Scheme::None), TraceCursor::new(Arc::clone(&trace)))
            });
            pass.new_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let depth = tracer.depth();
            let warm = catch_unwind(AssertUnwindSafe(|| {
                tracer.span("core.run_until", String::new, || {
                    sys.run_until(Cycle::new(w.warmup))
                });
                let s = Instant::now();
                let snap = tracer.span("core.snapshot", String::new, || {
                    sys.snapshot()
                        .expect("a machine without a check sink always snapshots")
                });
                (snap, s.elapsed().as_secs_f64())
            }));
            let prefix_s = t.elapsed().as_secs_f64();
            tracer.close_to(depth);
            drop(sys);
            tracer.exit();
            match warm {
                Err(e) => {
                    let why = panic_text(e);
                    cells.extend(schemes.iter().map(|_| Err(format!("warmup: {why}"))));
                }
                Ok((snap, snapshot_s)) => {
                    pass.snapshot_s += snapshot_s;
                    warm_prefix_s = prefix_s;
                    for scheme in schemes {
                        tracer.enter("cell", || format!("{app}/{scheme}"));
                        let t = Instant::now();
                        let depth = tracer.depth();
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            let mut sys =
                                tracer.span("core.restore", String::new, || System::restore(&snap));
                            let restore_s = t.elapsed().as_secs_f64();
                            sys.reconfigure_scheme(scheme);
                            let r = tracer.span("core.run", String::new, || sys.run());
                            (r, restore_s)
                        }));
                        let secs = t.elapsed().as_secs_f64();
                        tracer.close_to(depth);
                        cells.push(match run {
                            Ok((r, restore_s)) => {
                                pass.restore_s += restore_s;
                                Ok((r, secs))
                            }
                            Err(e) => Err(panic_text(e)),
                        });
                        tracer.exit();
                    }
                }
            }
        }

        let baseline = cells[0].as_ref().ok().map(|(r, _)| r);
        let verdicts: Vec<Option<String>> = cells
            .iter()
            .enumerate()
            .map(|(v, cell)| match cell {
                Err(why) => Some(why.clone()),
                Ok((r, _)) => {
                    let pin = pins.map(|p| p[app_idx * schemes.len() + v]);
                    cell_failure(r, schemes[v], pin, baseline)
                }
            })
            .collect();
        if verdicts.iter().any(Option::is_none) {
            pass.sim_s += warm_prefix_s;
        }

        let t = Instant::now();
        on_app(
            AppRun {
                app,
                trace: &trace,
                results: cells
                    .iter()
                    .zip(&verdicts)
                    .map(|(c, v)| match (c, v) {
                        (Ok((r, _)), None) => Some(r),
                        _ => None,
                    })
                    .collect(),
            },
            tracer,
        );
        excluded += t.elapsed().as_secs_f64();

        for (v, (cell, verdict)) in cells.into_iter().zip(verdicts).enumerate() {
            pass.attempted += 1;
            match (cell, verdict) {
                (Ok((mut result, secs)), None) => {
                    eprintln!(
                        "cell {} {}: {} pclocks in {secs:.3}s",
                        app, schemes[v], result.exec_cycles
                    );
                    result.miss_traces = Vec::new();
                    pass.sim_s += secs;
                    pass.pclocks += result.exec_cycles;
                    passed.push(CellResult {
                        app,
                        variant: v,
                        size: w.size,
                        result,
                        wall_seconds: secs,
                    });
                }
                (_, verdict) => {
                    pass.failed += 1;
                    let why = format!("{} {}: {}", app, schemes[v], verdict.unwrap_or_default());
                    eprintln!("cell FAILED {why}");
                    pass.failures.push(why);
                }
            }
        }
        tracer.exit();
    }

    tracer.enter("manifest", || w.name.to_string());
    if let Err(e) = write_and_validate(w, &mut pass, passed, traces, out_dir, tracer) {
        eprintln!("manifest FAILED: {e}");
        pass.failures.push(format!("manifest: {e}"));
    }
    tracer.exit();
    pass.wall_s = start.elapsed().as_secs_f64() - excluded;
    pass
}

/// Writes the pass's run manifest through the experiment runner's own
/// writer, reads it back through `validate_manifest`, and checks that
/// the document agrees with the simulated cells. The runner executes an
/// empty spec to hand out the `ExperimentRun` (its output directory and
/// clock are private to it), whose grid is then filled from the pass.
fn write_and_validate(
    w: &Workload,
    pass: &mut Pass,
    cells: Vec<CellResult>,
    traces: Vec<TraceInfo>,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let t = Instant::now();
    let mut run = Runner::with_out_dir(out_dir).execute(
        ExperimentSpec::new(format!("perfbench-{}", w.name))
            .serial()
            .quiet(),
    );
    run.size = w.size;
    run.apps = w.apps.to_vec();
    run.variants = figure6_schemes()
        .into_iter()
        .map(|s| Variant {
            label: s.to_string(),
            cfg: w.config(s),
            size: None,
        })
        .collect();
    run.traces = traces;
    run.gen_seconds = pass.gen_s;
    run.sim_seconds = pass.sim_s;
    run.cells = cells;
    let written = tracer.span("bench.manifest_write", String::new, || run.write_manifest());
    pass.manifest_write_s = t.elapsed().as_secs_f64();
    let path = written.map_err(|e| e.to_string())?;

    let t = Instant::now();
    let manifest = tracer.span("analysis.manifest_validate", String::new, || {
        validate_manifest(&path)
    });
    pass.manifest_validate_s = t.elapsed().as_secs_f64();
    let manifest = manifest?;
    if manifest.total_pclocks != pass.pclocks {
        return Err(format!(
            "total {} != simulated {}",
            manifest.total_pclocks, pass.pclocks
        ));
    }
    for c in &run.cells {
        let got = manifest
            .cell(c.app.name(), c.variant)
            .map(|m| m.exec_cycles);
        if got != Some(c.result.exec_cycles) {
            return Err(format!(
                "{} column {}: {got:?} != {}",
                c.app, c.variant, c.result.exec_cycles
            ));
        }
    }
    Ok(())
}

/// Why a simulated cell is wrong, or `None` if it passes: the pinned
/// pclocks when given, the per-node read conservation law, useful
/// prefetches bounded by issued ones, no prefetches in the baseline, and
/// the same loads and stores per node as the app's baseline cell (the
/// scheme changes timing, never the program).
pub fn cell_failure(
    r: &SimResult,
    scheme: Scheme,
    pin: Option<u64>,
    baseline: Option<&SimResult>,
) -> Option<String> {
    if let Some(pin) = pin {
        if r.exec_cycles != pin {
            return Some(format!("exec_cycles {} != pinned {pin}", r.exec_cycles));
        }
    }
    for (i, n) in r.nodes.iter().enumerate() {
        let served = n.flc_read_hits + n.slc_read_hits + n.read_misses + n.delayed_hits;
        if n.reads != served {
            return Some(format!("node {i}: {} reads but {served} served", n.reads));
        }
        if n.prefetches_useful > n.prefetches_issued {
            return Some(format!(
                "node {i}: {} useful of {} issued prefetches",
                n.prefetches_useful, n.prefetches_issued
            ));
        }
        if scheme == Scheme::None && n.prefetches_issued != 0 {
            return Some(format!(
                "node {i}: baseline issued {} prefetches",
                n.prefetches_issued
            ));
        }
        if let Some(b) = baseline.and_then(|b| b.nodes.get(i)) {
            if (n.reads, n.writes) != (b.reads, b.writes) {
                return Some(format!(
                    "node {i}: {} reads / {} writes, baseline {} / {}",
                    n.reads, n.writes, b.reads, b.writes
                ));
            }
        }
    }
    None
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panicked".to_string())
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}
