//! Ladder rungs: a workload's inputs replayed into one layer directly, on
//! this thread, with nothing else running.

use std::path::Path;
use std::time::Instant;

use larp::{RetrainOutcome, Scratch};
use store::{Sample, Wal, WalOptions};

use crate::report::{self, Metrics, RungInputs};

/// `larp` rung: each stream through its own `GuardedLarp` with deferred
/// retraining, so a step and the fit it arms are timed apart. The fit is
/// installed before the next step, which keeps forecasts bit-identical to
/// inline retraining. Steps before a stream's initial fit are warmup and
/// left out of the step and fit figures.
pub fn larp(inputs: &RungInputs) -> Metrics {
    let mut step_ns = Vec::new();
    let mut fit_us = Vec::new();
    let (mut step_total, mut fit_total) = (0.0, 0.0);
    let mut samples = 0u64;
    let mut steps = Vec::new();
    for (config, raw) in &inputs.streams {
        let mut guarded = config.build().expect("valid stream config");
        guarded.online_mut().set_deferred_retrain(true);
        let mut scratch = Scratch::default();
        for (minute, &value) in raw.iter().enumerate() {
            let t = Instant::now();
            guarded.ingest_into(minute as u64, value, &mut scratch, &mut steps);
            let ns = t.elapsed().as_nanos() as f64;
            let request = guarded.online_mut().take_retrain_request();
            let fit = request.map(|req| {
                let t = Instant::now();
                let model = req.fit(guarded.online().config());
                let us = t.elapsed().as_secs_f64() * 1e6;
                let outcome = RetrainOutcome {
                    generation: req.generation(),
                    model,
                    queue_wait_us: 0,
                    fit_us: us as u64,
                };
                guarded.online_mut().install_retrain(outcome);
                us
            });
            if minute < config.train_size {
                continue;
            }
            samples += 1;
            step_total += ns;
            step_ns.push(ns);
            if let Some(us) = fit {
                fit_total += us * 1e3;
                fit_us.push(us);
            }
        }
    }
    let mut m = Metrics::default();
    m.set("larp.step_ns.p50", report::pct(&step_ns, 0.5));
    m.set("larp.step_ns.p99", report::pct(&step_ns, 0.99));
    m.set("larp.fit_us.p50", report::pct(&fit_us, 0.5));
    m.set("larp.fit_us.p99", report::pct(&fit_us, 0.99));
    m.set("larp.fit_share", fit_total / (fit_total + step_total).max(1.0));
    m.set("larp.rung_sps", samples as f64 / ((step_total + fit_total) / 1e9).max(1e-9));
    m
}

/// `store` rung: the workload's batches appended to a fresh WAL with the
/// default options, one record per batch.
pub fn store(inputs: &RungInputs, dir: &Path) -> Metrics {
    let mut wal = Wal::create(dir, WalOptions::default()).expect("create rung WAL");
    let mut samples = 0u64;
    let mut buf = Vec::new();
    let t = Instant::now();
    for batch in &inputs.batches {
        buf.clear();
        buf.extend(batch.iter().map(|&(stream, value)| Sample { stream, minute: None, value }));
        wal.append_samples(&buf).expect("rung WAL append");
        samples += batch.len() as u64;
    }
    let ns = t.elapsed().as_nanos() as f64;
    let bytes = wal.stats().bytes;
    drop(wal);
    std::fs::remove_dir_all(dir).expect("remove rung WAL");
    let mut m = Metrics::default();
    m.set("store.rung_ns_per_sample", ns / samples.max(1) as f64);
    m.set("store.wal_bytes_per_sample", bytes as f64 / samples.max(1) as f64);
    m
}
