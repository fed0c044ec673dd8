//! Metric catalog, per-run outcome, registry readers, and the output
//! format: one `name value unit` line per metric, then one JSON line.

use fleet::FleetEngine;

/// End-to-end metrics: every workload reports every one (untraced runs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_sps", "samples/s"),
    ("latency_p50_us", "us"),
    ("forecast_nmse", "ratio"),
    ("nws_mse_ratio", "ratio"),
    ("rss_mib", "MiB"),
    ("state_bytes_per_stream", "B"),
];

/// Per-layer metrics: every workload reports every one (traced runs); a
/// layer a workload does not exercise reports 0 with its reason printed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.latency_p90_us", "us"),
    ("e2e.latency_p99_us", "us"),
    ("larp.step_ns.p50", "ns"),
    ("larp.step_ns.p99", "ns"),
    ("larp.fit_us.p50", "us"),
    ("larp.fit_us.p99", "us"),
    ("larp.retrains_per_1k_steps", "count"),
    ("larp.fit_share", "ratio"),
    ("larp.rung_sps", "samples/s"),
    ("larp.sanitized_per_1k_steps", "count"),
    ("larp.degraded_steps", "count"),
    ("fleet.push_batch_us.p50", "us"),
    ("fleet.push_batch_us.p99", "us"),
    ("fleet.enqueue_us.p99", "us"),
    ("fleet.flush_us.p50", "us"),
    ("fleet.flush_us.p99", "us"),
    ("fleet.stream_info_us.p50", "us"),
    ("fleet.retrain_queue_wait_us.p99", "us"),
    ("fleet.queue_depth.max", "count"),
    ("fleet.rejected", "count"),
    ("fleet.dropped", "count"),
    ("fleet.speedup_vs_rung", "ratio"),
    ("store.wal_append_us.p50", "us"),
    ("store.wal_append_us.p99", "us"),
    ("store.rung_ns_per_sample", "ns"),
    ("store.wal_bytes_per_sample", "B"),
    ("store.fsyncs", "count"),
    ("store.pending_ops.max", "count"),
    ("netserve.request_us.p50", "us"),
    ("netserve.request_us.p99", "us"),
    ("netserve.errors", "count"),
    ("netserve.predict_us.p90", "us"),
    ("reactor.poll_us.p99", "us"),
    ("reactor.flush_us.p99", "us"),
    ("reactor.events_per_request", "ratio"),
    ("reactor.backpressure", "count"),
    ("gen.lag_us.p99", "us"),
    ("gen.late_frac", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// Named values, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: &Metrics) {
        for (n, v) in &other.0 {
            self.set(n, *v);
        }
    }
}

/// A named correctness check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Inputs the ladder rungs replay: per-stream readings with their stream
/// configuration (larp rung) and the workload's push batches (store rung).
#[derive(Default)]
pub struct RungInputs {
    pub streams: Vec<(fleet::StreamConfig, Vec<f64>)>,
    pub batches: Vec<Vec<(u64, f64)>>,
}

/// Everything one pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Per-layer metrics this workload does not exercise, with the reason.
    pub absent: Vec<(&'static str, &'static str)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts, rung tables and other context, printed as-is.
    pub notes: Vec<String>,
    pub rung_inputs: RungInputs,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name, ok, detail: detail.into() });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Percentile `p` of a registry histogram, 0 when it recorded nothing.
pub fn hist_pct(engine: &FleetEngine, name: &str, p: f64) -> f64 {
    engine.registry().histogram(name).snapshot().percentile(p).unwrap_or(0.0)
}

pub fn hist_count(engine: &FleetEngine, name: &str) -> u64 {
    engine.registry().histogram(name).snapshot().count
}

pub fn counter(engine: &FleetEngine, name: &str) -> u64 {
    engine.registry().counter(name).get()
}

/// Largest queued depth across the engine's shards right now, from the
/// per-shard registry gauges.
pub fn queue_depth(engine: &FleetEngine) -> f64 {
    (0..engine.config().shards)
        .map(|i| engine.registry().gauge(&format!("fleet_shard{i}_queue_depth")).get())
        .fold(0.0, f64::max)
}

/// Aggregate CPU time from `/proc/stat`, in clock ticks: the part the
/// hypervisor gave to other guests (steal) and the total.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub steal: u64,
    pub total: u64,
}

impl CpuTicks {
    /// Reads the `cpu` line of `/proc/stat`; zeros where it is unreadable.
    pub fn read() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user and nice.
        Self { steal: fields.get(7).copied().unwrap_or(0), total: fields.iter().take(8).sum() }
    }

    /// Share of CPU time stolen between `self` and a later reading.
    pub fn steal_share(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Registry counters read at the edges of a steady window.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSnap {
    pub steps: u64,
    pub retrains: u64,
    pub sanitized: u64,
    pub degraded: u64,
    pub rejected: u64,
    pub dropped: u64,
}

impl CounterSnap {
    pub fn take(engine: &FleetEngine) -> Self {
        Self {
            steps: engine.health().steps,
            retrains: counter(engine, "larp_retrains_total"),
            sanitized: counter(engine, "larp_faults_sanitized_total"),
            degraded: counter(engine, "larp_degraded_steps_total"),
            rejected: counter(engine, "fleet_push_rejected_total"),
            dropped: counter(engine, "fleet_push_dropped_total"),
        }
    }
}

/// Layer metrics every engine-backed workload reads from the registry:
/// counter deltas over the steady window, histograms over the engine's
/// life.
pub fn engine_layers(engine: &FleetEngine, before: &CounterSnap, after: &CounterSnap) -> Metrics {
    let mut m = Metrics::default();
    let steps = (after.steps - before.steps).max(1) as f64;
    m.set("larp.retrains_per_1k_steps", (after.retrains - before.retrains) as f64 * 1e3 / steps);
    m.set("larp.sanitized_per_1k_steps", (after.sanitized - before.sanitized) as f64 * 1e3 / steps);
    m.set("larp.degraded_steps", (after.degraded - before.degraded) as f64);
    m.set("fleet.enqueue_us.p99", hist_pct(engine, "fleet_push_enqueue_us", 0.99));
    m.set("fleet.retrain_queue_wait_us.p99", hist_pct(engine, "larp_retrain_queue_wait_us", 0.99));
    m.set("fleet.rejected", (after.rejected - before.rejected) as f64);
    m.set("fleet.dropped", (after.dropped - before.dropped) as f64);
    m
}

/// Percentiles of a sample, 0 when empty.
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    crate::stats::percentile(&v, p)
}

/// Prints `name value unit` lines for `catalog`, then the result line.
/// A metric that could not be measured (absent or not finite) prints as 0
/// and makes the run incorrect.
pub fn print_result(catalog: &[(&str, &str)], metrics: &Metrics, outcome: &Outcome) -> bool {
    let mut json = Vec::new();
    let mut correct = outcome.correct();
    for &(name, unit) in catalog {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => v,
            other => {
                println!("unmeasured {name}: {other:?}");
                correct = false;
                0.0
            }
        };
        println!("metric {name} {value} {unit}");
        json.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    correct
}
