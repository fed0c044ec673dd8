//! The repository's serving benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `fleet_retrain_heavy`, `wire_durable_open`, `paper_lockstep`
//! (see README.md beside this crate), or `all` to run each in turn.
//! `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the workload untraced and then traced, replays
//! its inputs into the `larp` and `store` rungs, and reports the per-layer
//! metrics. Every run checks its outputs; each workload's report ends with
//! one JSON line, and the exit code is non-zero when a check fails.

mod fleet_wl;
mod paper_wl;
mod quality;
mod report;
mod rungs;
mod stats;
mod trace;
mod wire_wl;

use std::path::{Path, PathBuf};

use report::{Metrics, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// One workload invocation's parameters.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for WAL files, inside the working directory.
    pub dir: PathBuf,
}

/// Spans written out per traced run; every span recorded still feeds the
/// layer metrics.
const SPANS_WRITTEN: usize = 50_000;

const WORKLOADS: &[(&str, u64)] = &[
    ("fleet_retrain_heavy", fleet_wl::STREAMS),
    ("wire_durable_open", wire_wl::STREAMS),
    ("paper_lockstep", 60),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be `all` or one of {names:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(name: &str, run: &Run, tracer: &Tracer) -> Outcome {
    match name {
        "fleet_retrain_heavy" => fleet_wl::run(run, tracer),
        "wire_durable_open" => wire_wl::run(run, tracer),
        "paper_lockstep" => paper_wl::run(run, tracer),
        other => unreachable!("unvalidated workload {other}"),
    }
}

fn print_outcome(label: &str, out: &Outcome) {
    for line in &out.notes {
        println!("{label} {line}");
    }
    for c in &out.checks {
        println!("{label} check {} {} ({})", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
}

/// Why a per-layer metric is 0 on a workload that does not exercise it.
fn absent_reason(out: &Outcome, name: &str) -> &'static str {
    if let Some((_, why)) = out.absent.iter().find(|(n, _)| *n == name) {
        return why;
    }
    match name.split('.').next() {
        Some("store") => "no durable store on this workload",
        Some("netserve") | Some("reactor") => "no wire on this workload",
        Some("gen") => "closed loop: no schedule to run late against",
        _ => "not measured on this workload",
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench");
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.iter().map(|(w, _)| *w).collect(),
        one => vec![one],
    };
    // Every workload runs even when an earlier one fails its checks.
    let correct = names.iter().fold(true, |ok, name| run_one(name, &args, &work) & ok);
    let _ = std::fs::remove_dir(&work);
    if !correct {
        std::process::exit(1);
    }
}

/// Runs one workload as `args` ask and prints its report; returns whether
/// every check passed.
fn run_one(workload: &str, args: &Args, work: &Path) -> bool {
    let streams = WORKLOADS.iter().find(|(w, _)| *w == workload).map_or(0, |(_, s)| *s);
    let dir = work.join(format!("run-{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let run = Run { seed: args.seed, seconds: args.seconds, dir: dir.clone() };
    println!(
        "host nproc={} kernels={} profile={} workload={workload} seed={} streams={streams} run_seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        linalg::kernels::active(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let correct = if !args.trace {
        let out = run_workload(workload, &run, &Tracer::new(false));
        print_outcome("untraced", &out);
        for (name, value) in out.layers.0.iter().filter(|(n, _)| n.starts_with("e2e.")) {
            println!("untraced tail {name} {value} us (unbounded)");
        }
        report::print_result(END_TO_END, &out.e2e, &out)
    } else {
        let base = run_workload(workload, &run, &Tracer::new(false));
        print_outcome("untraced", &base);
        let tracer = Tracer::new(true);
        let mut traced = run_workload(workload, &run, &tracer);
        print_outcome("traced", &traced);
        let spans = work.join(format!("spans-{workload}-seed{}.jsonl", args.seed));
        let written = tracer.write_jsonl(&spans, SPANS_WRITTEN).expect("write spans");
        println!(
            "traced spans {} recorded, first {written} written to {}",
            tracer.len(),
            spans.display()
        );

        let mut layers = traced.layers.clone();
        // The end-to-end tails come from the untraced pass.
        for (name, value) in base.layers.0.iter().filter(|(n, _)| n.starts_with("e2e.")) {
            layers.set(name, *value);
        }
        let mut rung = rungs::larp(&traced.rung_inputs);
        let store = rungs::store(&traced.rung_inputs, &dir.join("rung-wal"));
        for (name, value) in &store.0 {
            if layers.get(name).is_none() {
                rung.set(name, *value);
            }
        }
        layers.extend(&rung);
        let sps = |o: &Outcome| o.e2e.get("throughput_sps").expect("throughput measured");
        let p50 = |o: &Outcome| o.e2e.get("latency_p50_us").expect("latency measured");
        layers.set(
            "fleet.speedup_vs_rung",
            sps(&base) / layers.get("larp.rung_sps").expect("rung ran"),
        );
        // Closed loops show tracing cost as lost throughput; the open loop
        // offers fixed rates, so it shows as added latency.
        let overhead = if workload == "wire_durable_open" {
            p50(&traced) / p50(&base)
        } else {
            sps(&base) / sps(&traced)
        };
        layers.set("obs.trace_overhead", overhead);
        let mut all = Metrics::default();
        for &(name, _) in PER_LAYER {
            match layers.get(name) {
                Some(v) => all.set(name, v),
                None => {
                    println!("absent {name}: {}", absent_reason(&traced, name));
                    all.set(name, 0.0);
                }
            }
        }
        traced.checks.extend(base.checks.iter().cloned());
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        report::print_result(PER_LAYER, &all, &traced)
    };
    let _ = std::fs::remove_dir_all(&dir);
    correct
}
