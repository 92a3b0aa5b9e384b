//! The pfsim benchmark: end-to-end host-time metrics per workload, and a
//! traced run that breaks the simulator's time down by layer.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

pub mod grid;
pub mod layers;
pub mod span;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use pfsim::experiment::figure6_schemes;
use pfsim::{SimResult, System};
use pfsim_analysis::Json;
use pfsim_prefetch::Scheme;
use pfsim_workloads::TraceCursor;

use grid::{run_pass, AppRun, Pass, Workload};
use layers::Rate;
use span::Tracer;

/// End-to-end metrics (timed runs, tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_pclk_per_s", "pclk/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (the traced run): name and unit. Names start with
/// the crate (layer) they measure.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.gen_s", "s"),
    ("workloads.ops", "count"),
    ("workloads.bytes_per_op", "B"),
    ("workloads.decode_ns_per_op", "ns"),
    ("core.new_ms", "ms"),
    ("core.run_s", "s"),
    ("core.events", "count"),
    ("core.events_per_pclk", "ratio"),
    ("core.ns_per_event", "ns"),
    ("core.spurious_wakeup_ratio", "ratio"),
    ("core.snapshot_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.modelled_s", "s"),
    ("core.unattributed_share", "ratio"),
    ("sim-engine.queue_ns_per_op", "ns"),
    ("sim-engine.queue_depth_p50", "count"),
    ("sim-engine.queue_depth_p99", "count"),
    ("sim-engine.metrics_overhead", "ratio"),
    ("cache.flc_ns_per_probe", "ns"),
    ("cache.slc_ns_per_probe", "ns"),
    ("cache.mshr_ns_per_alloc", "ns"),
    ("cache.flc_hit_ratio", "ratio"),
    ("cache.slc_hit_ratio", "ratio"),
    ("cache.read_misses", "count"),
    ("cache.delayed_hits", "count"),
    ("prefetch.idet_ns_per_access", "ns"),
    ("prefetch.ddet_ns_per_access", "ns"),
    ("prefetch.seq_ns_per_access", "ns"),
    ("prefetch.issued", "count"),
    ("prefetch.useful_ratio", "ratio"),
    ("prefetch.dropped_ratio", "ratio"),
    ("coherence.ns_per_request", "ns"),
    ("coherence.owner_supplied_share", "ratio"),
    ("coherence.invalidations", "count"),
    ("network.ns_per_send", "ns"),
    ("network.messages", "count"),
    ("network.flit_hops_per_msg", "ratio"),
    ("network.queuing_per_msg", "pclk"),
    ("check.oracle_overhead", "ratio"),
    ("bench.manifest_write_ms", "ms"),
    ("analysis.manifest_validate_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.cell_fail_ratio", "ratio"),
];

/// Fewest set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Share of a timed run's time spent on set-ups: after each pass,
/// set-ups repeat until they have used this share of the time so far.
pub const SETUP_SHARE: f64 = 0.1;

/// The pinned per-cell `exec_cycles` of every workload, app-major.
const PINS: &str = include_str!("../pins.json");

/// The outcome of one benchmark invocation, ready to print.
#[derive(Debug)]
pub struct Report {
    /// Every attempted cell passed its checks and the manifest agreed.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that failed.
    pub failed: usize,
    /// Metric name, value and unit, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A JSON number with every digit of the measurement (non-finite values,
/// which JSON cannot hold, print as -1).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_string()
    }
}

/// Collects metric values by name and emits them in table order,
/// refusing a name outside the table or a table name left unset.
struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|&(n, _)| n == name),
            "metric {name} is not declared"
        );
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    fn finish(self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .map(|&(name, unit)| {
                let v = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, v, unit)
            })
            .collect()
    }
}

/// The pinned `exec_cycles` of `w`'s cells, app-major, or `None` when
/// `seed` changes the workload's inputs (only seed 0 is pinned then) or
/// the workload has no pins.
pub fn pins(w: &Workload, seed: u64) -> Option<Vec<u64>> {
    if w.seeded() && seed != 0 {
        return None;
    }
    let doc = Json::parse(PINS).expect("pins.json is valid JSON");
    let entry = doc.get(w.name)?;
    let cells = entry.get("cells").expect("pins entry has cells");
    let mut out = Vec::with_capacity(w.cells());
    for app in w.apps {
        let row = cells
            .get(app.name())
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("pins for {} lack {app}", w.name));
        assert_eq!(
            row.len(),
            figure6_schemes().len(),
            "pins for {} {app}",
            w.name
        );
        out.extend(row.iter().map(|v| v.as_u64().expect("pins are integers")));
    }
    let total = entry
        .get("total")
        .and_then(Json::as_u64)
        .expect("pins entry has a total");
    assert_eq!(
        out.iter().sum::<u64>(),
        total,
        "pins for {} sum to their total",
        w.name
    );
    Some(out)
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up of the whole workload: every trace generated and every
/// machine the grid starts built (one per cell, or one per app when the
/// cells fork from a warmed snapshot), then dropped.
fn setup_once(w: &Workload, seed: u64) -> f64 {
    let t = Instant::now();
    for &app in w.apps {
        let trace = std::sync::Arc::new(w.trace(app, seed));
        let machines = if w.warmup == 0 {
            figure6_schemes().to_vec()
        } else {
            vec![Scheme::None]
        };
        for scheme in machines {
            let sys = System::new(
                w.config(scheme),
                TraceCursor::new(std::sync::Arc::clone(&trace)),
            );
            std::hint::black_box(&sys);
        }
    }
    t.elapsed().as_secs_f64()
}

/// Untimed bookkeeping shared by the passes of one invocation.
struct Runs {
    passes: Vec<Pass>,
    pclocks: Option<u64>,
    notes: Vec<String>,
    deterministic: bool,
}

impl Runs {
    fn new() -> Self {
        Runs {
            passes: Vec::new(),
            pclocks: None,
            notes: Vec::new(),
            deterministic: true,
        }
    }

    fn push(&mut self, w: &Workload, seed: u64, pass: Pass) {
        if pass.failed == 0 {
            match self.pclocks {
                None => {
                    self.notes
                        .push(format!("pclocks {} seed {seed}: {}", w.name, pass.pclocks));
                    self.pclocks = Some(pass.pclocks);
                }
                Some(p) if p != pass.pclocks => {
                    self.notes.push(format!(
                        "NONDETERMINISTIC: pass total {} != {p}",
                        pass.pclocks
                    ));
                    self.deterministic = false;
                }
                Some(_) => {}
            }
        }
        self.passes.push(pass);
    }

    fn attempted(&self) -> usize {
        self.passes.iter().map(|p| p.attempted).sum()
    }

    fn failed(&self) -> usize {
        self.passes.iter().map(|p| p.failed).sum()
    }

    fn correct(&self) -> bool {
        self.deterministic && self.passes.iter().all(|p| p.failures.is_empty())
    }

    fn median(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        median(self.passes.iter().map(f).collect())
    }

    /// Whether another pass should start in a run that began at `started`:
    /// the first always does, a later one if, at the mean time per pass so
    /// far, it would end nearer `deadline` than stopping now.
    fn another(&self, started: Instant, deadline: Instant) -> bool {
        match self.passes.len() {
            0 => true,
            n => Instant::now() + started.elapsed() / (2 * n as u32) <= deadline,
        }
    }

    /// One untraced pass.
    fn pass(&mut self, w: &Workload, seed: u64, pins: Option<&[u64]>, out_dir: &Path) {
        let pass = run_pass(
            w,
            seed,
            pins,
            false,
            out_dir,
            &mut Tracer::new(false),
            &mut |_, _| {},
        );
        self.push(w, seed, pass);
    }

    /// Untraced passes until about `deadline`, at least one.
    fn until(
        &mut self,
        w: &Workload,
        seed: u64,
        pins: Option<&[u64]>,
        out_dir: &Path,
        deadline: Instant,
    ) {
        let started = Instant::now();
        while self.another(started, deadline) {
            self.pass(w, seed, pins, out_dir);
        }
    }
}

/// The timed run: passes for about `seconds`, with set-ups between them.
/// Peak memory is read after the first pass, before any set-up, so it
/// does not depend on how many passes fit.
pub fn measure(w: &Workload, seed: u64, seconds: u64, out_dir: &Path) -> Report {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let pins = pins(w, seed);
    let mut runs = Runs::new();
    let mut peak = None;
    let mut setups = Vec::new();
    while runs.another(started, deadline) {
        runs.pass(w, seed, pins.as_deref(), out_dir);
        peak.get_or_insert_with(peak_rss_mb);
        // Spread over the run, the set-ups meet the same host slowdowns
        // as the passes, and their median drifts with the passes' medians.
        while setups.iter().sum::<f64>() < SETUP_SHARE * started.elapsed().as_secs_f64() {
            setups.push(setup_once(w, seed));
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(setup_once(w, seed));
    }
    let peak_rss_mb = peak.expect("a run makes at least one pass");

    let mut m = Metrics::new(&END_TO_END);
    m.set("wall_s", runs.median(|p| p.wall_s));
    m.set(
        "sim_pclk_per_s",
        runs.median(|p| ratio(p.pclocks as f64, p.sim_s)),
    );
    m.set("setup_s", median(setups));
    m.set("peak_rss_mb", peak_rss_mb);
    let mut notes = runs.notes.clone();
    notes.push(format!("passes: {}", runs.passes.len()));
    Report {
        correct: runs.correct(),
        attempted: runs.attempted(),
        failed: runs.failed(),
        metrics: m.finish(),
        notes,
    }
}

/// Work counts summed over the traced pass's cells.
#[derive(Debug, Default)]
struct Counts {
    pclocks: u64,
    reads: u64,
    writes: u64,
    flc_read_hits: u64,
    slc_read_hits: u64,
    read_misses: u64,
    delayed_hits: u64,
    pf_issued: u64,
    pf_useful: u64,
    pf_dropped: u64,
    spurious: u64,
    slc_work_events: u64,
    events: u64,
    messages: u64,
    flit_hops: u64,
    queuing: u64,
    owner_supplied: u64,
    memory_supplied: u64,
    invalidations: u64,
    /// SLC read references per grid column (what each prefetcher sees).
    slc_reads: [u64; 4],
    queue_depth: Vec<u64>,
    queue_samples: u64,
    queue_max: u64,
}

impl Counts {
    fn add(&mut self, column: usize, r: &SimResult) {
        self.pclocks += r.exec_cycles;
        for n in &r.nodes {
            self.reads += n.reads;
            self.writes += n.writes;
            self.flc_read_hits += n.flc_read_hits;
            self.slc_read_hits += n.slc_read_hits;
            self.read_misses += n.read_misses;
            self.delayed_hits += n.delayed_hits;
            self.pf_issued += n.prefetches_issued;
            self.pf_useful += n.prefetches_useful;
            self.pf_dropped += n.pf_dropped_present + n.pf_dropped_inflight + n.pf_dropped_full;
            self.spurious += n.spurious_slc_wakeups;
            self.slc_reads[column] += n.reads - n.flc_read_hits;
        }
        self.messages += r.net.messages;
        self.flit_hops += r.net.flit_hops;
        self.queuing += r.net.queuing_cycles;
        self.owner_supplied += r.dir.owner_supplied;
        self.memory_supplied += r.dir.memory_supplied;
        self.invalidations += r.dir.invalidations;
        if let Some(m) = &r.metrics {
            self.events += m
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("ev_"))
                .map(|(_, v)| v)
                .sum::<u64>();
            self.slc_work_events += m.counter("ev_slc_work").unwrap_or(0);
            if let Some(h) = m.histogram("queue_depth") {
                if self.queue_depth.len() < h.buckets.len() {
                    self.queue_depth.resize(h.buckets.len(), 0);
                }
                for (a, b) in self.queue_depth.iter_mut().zip(&h.buckets) {
                    *a += b;
                }
                self.queue_samples += h.count;
                self.queue_max = self.queue_max.max(h.max);
            }
        }
    }

    fn queue_histogram(&self) -> pfsim::HistogramSnapshot {
        pfsim::HistogramSnapshot {
            count: self.queue_samples,
            sum: 0,
            max: self.queue_max,
            buckets: self.queue_depth.clone(),
        }
    }
}

/// Replay timings of every layer, summed over the workload's apps.
#[derive(Debug, Default)]
struct Rates {
    decode: Rate,
    queue: Rate,
    flc: Rate,
    slc: Rate,
    mshr: Rate,
    prefetch: [Rate; 3],
    directory: Rate,
    mesh: Rate,
}

/// Replays one app's recorded inputs into every inner layer, inside
/// spans, and folds its cells into the counts.
fn replay_app(
    w: &Workload,
    run: AppRun<'_>,
    counts: &mut Counts,
    rates: &mut Rates,
    tracer: &mut Tracer,
) {
    for (column, r) in run.results.iter().enumerate() {
        if let Some(r) = r {
            counts.add(column, r);
        }
    }
    let Some(baseline) = run.results[0] else {
        return;
    };
    let cfg = w.config(Scheme::None);
    let nodes = cfg.nodes as usize;
    let misses = &baseline.miss_traces;
    tracer.enter("replay", || run.app.name().to_string());
    let (t, n) = tracer.span("workloads.decode", String::new, || {
        layers::decode(run.trace)
    });
    rates.decode.add(t, n);
    let refs = tracer.span(
        "prepare",
        || "refs".into(),
        || layers::refs(run.trace, &cfg),
    );
    let ((t, n), to_slc) = tracer.span("cache.flc_probe", String::new, || {
        layers::flc(&refs, &cfg, nodes)
    });
    rates.flc.add(t, n);
    let (t, n) = tracer.span("cache.slc_probe", String::new, || {
        layers::slc(&to_slc, &cfg, nodes)
    });
    rates.slc.add(t, n);
    let (t, n) = tracer.span("cache.mshr_try_alloc", String::new, || {
        layers::mshr(misses, &cfg)
    });
    rates.mshr.add(t, n);
    for (i, scheme) in figure6_schemes()[1..].iter().enumerate() {
        let (t, n) = tracer.span(
            "prefetch.on_read",
            || scheme.to_string(),
            || layers::prefetch(misses, &cfg, *scheme),
        );
        rates.prefetch[i].add(t, n);
    }
    let requests = tracer.span(
        "prepare",
        || "directory requests".into(),
        || layers::dir_requests(&refs, &cfg),
    );
    let (t, n) = tracer.span("coherence.request", String::new, || {
        layers::directory(&requests, &cfg)
    });
    rates.directory.add(t, n);
    let (t, n) = tracer.span("network.send", String::new, || layers::mesh(misses, &cfg));
    rates.mesh.add(t, n);
    tracer.exit();
}

/// A probe cell's host seconds plain, instrumented and under the
/// consistency oracle, and whether the oracle found the run clean.
fn probe(w: &Workload, seed: u64, tracer: &mut Tracer) -> (f64, f64, f64, bool) {
    let (app, scheme) = w.probe;
    let trace = std::sync::Arc::new(w.trace(app, seed));
    let cursor = || TraceCursor::new(std::sync::Arc::clone(&trace));
    tracer.enter("cell", || format!("{app}/{scheme} probe"));
    let t = Instant::now();
    let plain = tracer.span("core.run", String::new, || {
        System::new(w.config(scheme), cursor()).run()
    });
    let plain_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let instrumented = tracer.span(
        "core.run",
        || "instrumented".into(),
        || System::new(w.config(scheme).with_instrumentation(true), cursor()).run(),
    );
    let instrumented_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let checked = tracer.span("check.run_checked", String::new, || {
        pfsim_check::run_checked(w.config(scheme), cursor())
    });
    let checked_s = t.elapsed().as_secs_f64();
    tracer.exit();
    let same = plain.exec_cycles == instrumented.exec_cycles
        && plain.exec_cycles == checked.result.exec_cycles;
    (plain_s, instrumented_s, checked_s, checked.ok && same)
}

/// The traced run: untraced passes for a third of `seconds` (at least
/// one), one traced pass with every layer replayed, and the probe cell.
pub fn traced(w: &Workload, seed: u64, seconds: u64, out_dir: &Path) -> (Report, Tracer) {
    let pins = pins(w, seed);
    let mut runs = Runs::new();
    runs.until(
        w,
        seed,
        pins.as_deref(),
        out_dir,
        Instant::now() + Duration::from_secs(seconds / 3),
    );

    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let mut rates = Rates::default();
    tracer.enter("workload", || w.name.to_string());
    let traced_pass = run_pass(
        w,
        seed,
        pins.as_deref(),
        true,
        out_dir,
        &mut tracer,
        &mut |run, tracer| replay_app(w, run, &mut counts, &mut rates, tracer),
    );
    let (plain_s, instrumented_s, checked_s, oracle_ok) = probe(w, seed, &mut tracer);
    let queue_hist = counts.queue_histogram();
    let (t, n) = tracer.span("sim-engine.schedule_pop", String::new, || {
        layers::queue(&queue_hist)
    });
    rates.queue.add(t, n);
    tracer.exit();
    let traced_wall = traced_pass.wall_s;
    let traced_ops = traced_pass.ops;
    let traced_bytes = traced_pass.packed_bytes;
    runs.push(w, seed, traced_pass);

    let untraced: Vec<&Pass> = runs.passes[..runs.passes.len() - 1].iter().collect();
    let med = |f: &dyn Fn(&Pass) -> f64| median(untraced.iter().map(|p| f(p)).collect());
    let run_s = med(&|p| p.sim_s);
    let c = &counts;
    let ns = |r: &Rate| r.ns_per_op() * 1e-9;
    // Modelled time: each layer's work count in the real run times its
    // isolated replay cost. The prefix of a warmed grid is counted once
    // per cell, like its pclocks.
    let modelled_s = ns(&rates.decode) * (traced_ops * figure6_schemes().len() as u64) as f64
        + ns(&rates.queue) * c.events as f64
        + ns(&rates.flc) * (c.reads + c.writes) as f64
        + ns(&rates.slc) * (c.reads - c.flc_read_hits + c.writes) as f64
        + ns(&rates.mshr) * (c.read_misses + c.pf_issued) as f64
        + (0..3)
            .map(|i| ns(&rates.prefetch[i]) * c.slc_reads[i + 1] as f64)
            .sum::<f64>()
        + ns(&rates.directory) * (c.owner_supplied + c.memory_supplied) as f64
        + ns(&rates.mesh) * c.messages as f64;

    let mut m = Metrics::new(&PER_LAYER);
    m.set("workloads.gen_s", med(&|p| p.gen_s));
    m.set("workloads.ops", traced_ops as f64);
    m.set(
        "workloads.bytes_per_op",
        ratio(traced_bytes as f64, traced_ops as f64),
    );
    m.set("workloads.decode_ns_per_op", rates.decode.ns_per_op());
    m.set("core.new_ms", med(&|p| p.new_s) * 1e3);
    m.set("core.run_s", run_s);
    m.set("core.events", c.events as f64);
    m.set(
        "core.events_per_pclk",
        ratio(c.events as f64, c.pclocks as f64),
    );
    m.set("core.ns_per_event", ratio(run_s * 1e9, c.events as f64));
    m.set(
        "core.spurious_wakeup_ratio",
        ratio(c.spurious as f64, c.slc_work_events as f64),
    );
    m.set("core.snapshot_ms", med(&|p| p.snapshot_s) * 1e3);
    m.set("core.restore_ms", med(&|p| p.restore_s) * 1e3);
    m.set("core.modelled_s", modelled_s);
    m.set("core.unattributed_share", 1.0 - ratio(modelled_s, run_s));
    m.set("sim-engine.queue_ns_per_op", rates.queue.ns_per_op());
    m.set(
        "sim-engine.queue_depth_p50",
        layers::depth_quantile(&queue_hist, 0.5) as f64,
    );
    m.set(
        "sim-engine.queue_depth_p99",
        layers::depth_quantile(&queue_hist, 0.99) as f64,
    );
    m.set(
        "sim-engine.metrics_overhead",
        ratio(instrumented_s, plain_s),
    );
    m.set("cache.flc_ns_per_probe", rates.flc.ns_per_op());
    m.set("cache.slc_ns_per_probe", rates.slc.ns_per_op());
    m.set("cache.mshr_ns_per_alloc", rates.mshr.ns_per_op());
    m.set(
        "cache.flc_hit_ratio",
        ratio(c.flc_read_hits as f64, c.reads as f64),
    );
    m.set(
        "cache.slc_hit_ratio",
        ratio(c.slc_read_hits as f64, (c.reads - c.flc_read_hits) as f64),
    );
    m.set("cache.read_misses", c.read_misses as f64);
    m.set("cache.delayed_hits", c.delayed_hits as f64);
    m.set("prefetch.idet_ns_per_access", rates.prefetch[0].ns_per_op());
    m.set("prefetch.ddet_ns_per_access", rates.prefetch[1].ns_per_op());
    m.set("prefetch.seq_ns_per_access", rates.prefetch[2].ns_per_op());
    m.set("prefetch.issued", c.pf_issued as f64);
    m.set(
        "prefetch.useful_ratio",
        ratio(c.pf_useful as f64, c.pf_issued as f64),
    );
    m.set(
        "prefetch.dropped_ratio",
        ratio(c.pf_dropped as f64, (c.pf_issued + c.pf_dropped) as f64),
    );
    m.set("coherence.ns_per_request", rates.directory.ns_per_op());
    m.set(
        "coherence.owner_supplied_share",
        ratio(
            c.owner_supplied as f64,
            (c.owner_supplied + c.memory_supplied) as f64,
        ),
    );
    m.set("coherence.invalidations", c.invalidations as f64);
    m.set("network.ns_per_send", rates.mesh.ns_per_op());
    m.set("network.messages", c.messages as f64);
    m.set(
        "network.flit_hops_per_msg",
        ratio(c.flit_hops as f64, c.messages as f64),
    );
    m.set(
        "network.queuing_per_msg",
        ratio(c.queuing as f64, c.messages as f64),
    );
    m.set("check.oracle_overhead", ratio(checked_s, plain_s));
    m.set(
        "bench.manifest_write_ms",
        med(&|p| p.manifest_write_s) * 1e3,
    );
    m.set(
        "analysis.manifest_validate_ms",
        med(&|p| p.manifest_validate_s) * 1e3,
    );
    m.set(
        "bench.trace_overhead",
        ratio(traced_wall, med(&|p| p.wall_s)) - 1.0,
    );
    m.set(
        "bench.cell_fail_ratio",
        ratio(runs.failed() as f64, runs.attempted() as f64),
    );

    let mut notes = runs.notes.clone();
    if !oracle_ok {
        notes.push("probe cell FAILED under the consistency oracle".to_string());
    }
    notes.push(format!("untraced passes: {}", untraced.len()));
    notes.push(format!(
        "modelled {modelled_s:.3}s of {run_s:.3}s measured simulation"
    ));
    let report = Report {
        correct: runs.correct() && oracle_ok,
        attempted: runs.attempted(),
        failed: runs.failed(),
        metrics: m.finish(),
        notes,
    };
    (report, tracer)
}
