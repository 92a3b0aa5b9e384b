//! Self-tests of the benchmark: its declared metrics, its pins, its
//! output checks, and the directory replay.

use std::path::PathBuf;

use pfsim::experiment::figure6_schemes;
use pfsim::System;
use pfsim_analysis::Json;
use pfsim_bench::Size;
use pfsim_perfbench::grid::{cell_failure, Workload, WORKLOADS};
use pfsim_perfbench::{layers, measure, pins, traced, END_TO_END, PER_LAYER};
use pfsim_prefetch::Scheme;
use pfsim_workloads::{App, TraceCursor};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str, field: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        })
        .collect()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test")
}

/// A grid small enough for a debug-build test: one seeded app at
/// default size.
const TINY: Workload = Workload {
    name: "tiny",
    apps: &[App::Chase],
    size: Size::Default,
    mesh: (4, 4),
    warmup: 0,
    probe: (App::Chase, Scheme::Sequential { degree: 1 }),
};

#[test]
fn declared_names_match_the_tables() {
    let doc = benchmark_json();
    let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    let units = |t: &[(&str, &str)]| t.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
    assert_eq!(declared(&doc, "end_to_end", "name"), names(&END_TO_END));
    assert_eq!(declared(&doc, "end_to_end", "unit"), units(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer", "name"), names(&PER_LAYER));
    assert_eq!(declared(&doc, "per_layer", "unit"), units(&PER_LAYER));
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(declared(&doc, "workloads", "name"), workloads);
}

#[test]
fn printed_names_match_the_declared_ones() {
    let doc = benchmark_json();
    let printed =
        |m: &[(&str, f64, &str)]| m.iter().map(|(n, _, _)| n.to_string()).collect::<Vec<_>>();
    for w in [
        &TINY,
        &Workload {
            warmup: 20_000,
            ..TINY
        },
    ] {
        let timed = measure(w, 3, 1, &out_dir());
        assert!(timed.correct, "{}: {:?}", w.name, timed.notes);
        assert_eq!(
            printed(&timed.metrics),
            declared(&doc, "end_to_end", "name")
        );
        let line = Json::parse(&timed.result_line()).expect("the result line is JSON");
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let (report, tracer) = traced(w, 3, 1, &out_dir());
        assert!(report.correct, "{}: {:?}", w.name, report.notes);
        assert_eq!(
            printed(&report.metrics),
            declared(&doc, "per_layer", "name")
        );
        assert!(tracer.spans().iter().any(|s| s.name == "coherence.request"));
    }
}

#[test]
fn every_workload_is_pinned_on_seed_zero() {
    let expected_totals = [("fig6", 14_059_066), ("warm-large", 156_035_983)];
    for w in WORKLOADS {
        let p = pins(w, 0).unwrap_or_else(|| panic!("{} has no pins", w.name));
        assert_eq!(p.len(), w.cells());
        if let Some(&(_, total)) = expected_totals.iter().find(|(n, _)| *n == w.name) {
            assert_eq!(p.iter().sum::<u64>(), total, "{}", w.name);
        }
        // Only a workload with a seeded generator loses its pins on
        // another seed.
        assert_eq!(pins(w, 7).is_some(), !w.seeded(), "{}", w.name);
    }
}

#[test]
fn seed_zero_keeps_the_generators_own_seeds() {
    let w = Workload {
        apps: &App::MODERN,
        mesh: (8, 8),
        ..TINY
    };
    for app in App::MODERN {
        let pinned = app.build_packed_for(Size::Default.problem(), 64);
        assert_eq!(w.trace(app, 0), pinned, "{app}");
        if matches!(app, App::Chase | App::Server) {
            assert_ne!(w.trace(app, 1), pinned, "{app} ignores the seed");
        }
    }
}

#[test]
fn cell_checks_catch_broken_laws() {
    let trace = std::sync::Arc::new(TINY.trace(App::Chase, 0));
    let run = |s| {
        System::new(
            TINY.config(s),
            TraceCursor::new(std::sync::Arc::clone(&trace)),
        )
        .run()
    };
    let base = run(Scheme::None);
    let seq = run(figure6_schemes()[3]);
    assert_eq!(
        cell_failure(&base, Scheme::None, Some(base.exec_cycles), None),
        None
    );
    assert_eq!(
        cell_failure(&seq, figure6_schemes()[3], None, Some(&base)),
        None
    );
    assert!(cell_failure(&base, Scheme::None, Some(base.exec_cycles + 1), None).is_some());

    let mut lost_read = seq.clone();
    lost_read.nodes[3].flc_read_hits -= 1;
    assert!(cell_failure(&lost_read, figure6_schemes()[3], None, Some(&base)).is_some());
    let mut overcounted = seq.clone();
    overcounted.nodes[0].prefetches_useful = overcounted.nodes[0].prefetches_issued + 1;
    assert!(cell_failure(&overcounted, figure6_schemes()[3], None, Some(&base)).is_some());
    assert!(
        cell_failure(&seq, Scheme::None, None, None).is_some(),
        "a baseline cell issues no prefetches"
    );
}

/// Replaying every app's request stream with legal completion never
/// reaches a protocol trap (which would panic), and exercises upgrades,
/// fetches and invalidations.
#[test]
fn directory_replay_never_traps() {
    let w = &WORKLOADS[0];
    let cfg = w.config(Scheme::None);
    let mut upgrading = 0;
    for &app in App::EVERY.iter() {
        let trace = pfsim_workloads::App::build_packed_for(app, Size::Default.problem(), 16);
        let refs = layers::refs(&trace, &cfg);
        let requests = layers::dir_requests(&refs, &cfg);
        assert!(!requests.is_empty(), "{app}");
        let (_, n) = layers::directory(&requests, &cfg);
        assert_eq!(n, requests.len() as u64);
        if requests
            .iter()
            .any(|(_, _, r)| matches!(r, pfsim_coherence::DirRequest::Upgrade { .. }))
        {
            upgrading += 1;
        }
    }
    assert!(upgrading > 0, "no app upgrades a shared block");
}
