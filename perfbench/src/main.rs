//! `pfsim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the pfsim benchmark and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use pfsim_perfbench::grid::Workload;
use pfsim_perfbench::{measure, traced};

/// Variables that would turn on the oracle or change threading in the
/// simulator's own runners; the benchmark clears them.
const PINNED_ENV: [&str; 3] = ["PFSIM_CHECK", "PFSIM_SHARDS", "PFSIM_THREADS"];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pfsim-perfbench: {e}");
            eprintln!("usage: pfsim-perfbench --workload <fig6|warm-large> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut cleared = Vec::new();
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            std::env::remove_var(var);
            cleared.push(var);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "env: nproc={nproc} rustc=\"{}\" git={} cleared={cleared:?}",
        rustc_version(),
        pfsim_bench::manifest::git_describe()
    );

    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let w = args.workload;
    let report = if args.trace {
        let (report, tracer) = traced(w, args.seed, args.seconds, &out_dir);
        let spans = out_dir.join(format!("spans-{}.jsonl", w.name));
        if let Err(e) = std::fs::write(&spans, tracer.render_jsonl()) {
            eprintln!("pfsim-perfbench: writing {}: {e}", spans.display());
        }
        for (name, secs) in tracer.self_seconds() {
            println!("self {name}: {secs:.6}s");
        }
        report
    } else {
        measure(w, args.seed, args.seconds, &out_dir)
    };
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name}: {value} {unit}");
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
