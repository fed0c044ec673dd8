//! `paper_lockstep`: the paper's 60-trace corpus served the way a
//! scheduler uses it. Each round pushes one sample per stream, flushes,
//! and reads every stream's latest forecast, which is scored against the
//! stream's next raw sample.

use std::time::{Duration, Instant};

use fleet::{FleetConfig, FleetEngine, StreamConfig, StreamId};
use larp::LarpConfig;
use vmsim::profiles::VmProfile;

use crate::report::{self, CounterSnap, Outcome};
use crate::trace::Tracer;
use crate::{quality, stats, Run};

const SETUPS: usize = 25;

pub fn run(run: &Run, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let traces = vmsim::traceset::paper_traces(run.seed);
    let streams = traces.len();
    let configs: Vec<StreamConfig> = traces
        .iter()
        .map(|(key, _)| {
            let m = if key.profile == VmProfile::Vm1 { 16 } else { 5 };
            StreamConfig { larp: LarpConfig::paper(m), ..StreamConfig::default() }
        })
        .collect();
    let values: Vec<&[f64]> = traces.iter().map(|(_, s)| s.values()).collect();
    // Longer runs replay each trace from its start again.
    let value = |s: usize, i: usize| values[s][i % values[s].len()];
    let train = configs[0].train_size;
    // Quality is scored on the first pass of the shortest trace, so it does
    // not depend on how far a run gets.
    let score_to = values.iter().map(|v| v.len()).min().expect("non-empty corpus");
    let config = FleetConfig::default();

    let rss0 = fleet::process_resident_bytes().unwrap_or(0);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    let mut earlier = 0u64;
    let mut batch: Vec<(StreamId, f64)> = Vec::with_capacity(streams);
    for _ in 0..SETUPS {
        if let Some(e) = engine.take() {
            earlier += FleetEngine::health(&e).pushes.accepted;
        }
        let t = Instant::now();
        let e = FleetEngine::new(config.clone()).expect("valid fleet config");
        for (id, cfg) in configs.iter().enumerate() {
            e.register_with(id as StreamId, cfg).expect("fresh stream id");
        }
        for round in 0..train {
            batch.clear();
            batch.extend((0..streams).map(|s| (s as StreamId, value(s, round))));
            e.push_batch(&batch);
            e.flush();
        }
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one setup");
    let before = CounterSnap::take(&engine);

    // Steady window: lockstep rounds from `train`, until the deadline and
    // at least one full pass of the scored range.
    let mut served: Vec<Vec<Option<f64>>> = vec![vec![None; train]; streams];
    let mut s2f_us = Vec::new();
    let mut missing = 0u64;
    let mut depth_max = 0.0f64;
    let mut round = train;
    let mut marks = Vec::new();
    let ticks = report::CpuTicks::read();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(run.seconds);
    while Instant::now() < deadline || round < score_to {
        let request = round as u64;
        let t0 = Instant::now();
        tracer.span("paper.round", 0, request, |parent| {
            batch.clear();
            batch.extend((0..streams).map(|s| (s as StreamId, value(s, round))));
            tracer.span("fleet.push_batch", parent, request, |_| engine.push_batch(&batch));
            if tracer.enabled() {
                depth_max = depth_max.max(report::queue_depth(&engine));
            }
            tracer.span("fleet.flush", parent, request, |_| engine.flush());
            for (s, log) in served.iter_mut().enumerate() {
                let info = tracer.span("fleet.stream_info", parent, request, |_| {
                    engine.stream_info(s as StreamId)
                });
                let forecast = info.expect("registered stream").last_forecast;
                if !forecast.is_some_and(f64::is_finite) {
                    missing += 1;
                }
                if log.len() < score_to {
                    log.push(forecast);
                }
            }
        });
        s2f_us.push(t0.elapsed().as_secs_f64() * 1e6);
        round += 1;
        marks.push((start.elapsed().as_secs_f64(), (streams * (round - train)) as u64));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let steal = ticks.steal_share(&report::CpuTicks::read());
    let steady_samples = (streams * (round - train)) as u64;
    let rss1 = fleet::process_resident_bytes().unwrap_or(0);
    let after = CounterSnap::take(&engine);
    let health = engine.health();
    let p = health.pushes;
    let offered = (streams * round) as u64;
    out.check(
        "accounting",
        p.accepted + p.rejected + p.dropped == offered,
        format!(
            "offered {offered} accepted {} rejected {} dropped {}",
            p.accepted, p.rejected, p.dropped
        ),
    );
    let clean: u64 = (0..streams)
        .map(|s| quality::clean_count(&configs[s], (0..round).map(|i| value(s, i))))
        .sum();
    out.check(
        "steps_match_accepted",
        health.steps == clean,
        format!(
            "steps {} = accepted {} - sanitizer drops {}",
            health.steps,
            p.accepted,
            p.accepted as i64 - clean as i64
        ),
    );
    out.check(
        "finite_forecasts",
        health.nonfinite_forecasts == 0 && missing == 0,
        format!("engine {} missing or non-finite reads {missing}", health.nonfinite_forecasts),
    );

    // Served forecasts against the next raw sample, beside NWS on the same
    // samples.
    let mut scores = Vec::new();
    for s in 0..streams {
        let raw: Vec<f64> = (0..score_to).map(|i| value(s, i)).collect();
        let rep = quality::replay(&configs[s], raw.iter().copied());
        // Forecasts were read per round (reading); scoring is per clean sample.
        let actual: Vec<f64> = rep.origin.iter().map(|&i| raw[i]).collect();
        let read: Vec<Option<f64>> = rep.origin.iter().map(|&i| served[s][i]).collect();
        let to = rep.clean.len();
        if let Some(score) = quality::score_stream(&configs[s], &read, &rep, &actual, train + 1, to)
        {
            scores.push(score);
        }
    }
    let (nmse, ratio) = stats::quality(&scores).unwrap_or((f64::NAN, f64::NAN));
    out.check("quality_scored", nmse.is_finite(), format!("{} traces scored", scores.len()));
    let s2f = stats::latency(&s2f_us, 0.99);
    out.check("latency_sample_size", s2f.is_some(), format!("{} rounds", s2f_us.len()));
    let s2f = s2f.unwrap_or(stats::Latency { count: 0, p50: f64::NAN, tail: f64::NAN, windows: 0 });

    out.e2e.set("setup_s", stats::median(&setups));
    out.e2e.set("throughput_sps", stats::median_window_rate(&marks, 1.0));
    out.e2e.set("latency_p50_us", s2f.p50);
    out.layers.set("e2e.latency_p90_us", stats::latency(&s2f_us, 0.9).map_or(f64::NAN, |l| l.tail));
    out.layers.set("e2e.latency_p99_us", s2f.tail);
    out.e2e.set("forecast_nmse", nmse);
    out.e2e.set("nws_mse_ratio", ratio);
    out.e2e.set("rss_mib", rss1.saturating_sub(rss0) as f64 / (1 << 20) as f64);
    out.e2e.set("state_bytes_per_stream", engine.mem_report().bytes_per_stream());
    out.attempted = earlier + offered;
    out.failed = p.rejected + p.dropped + health.nonfinite_forecasts + missing;
    out.note(format!(
        "streams {streams}, warmup samples {} (x{SETUPS} setups), steady samples {steady_samples} \
         in {elapsed:.3}s ({} rounds)",
        streams * train,
        round - train
    ));
    out.note(format!("setup_s runs {setups:?}"));
    out.note(format!("host steal {:.1}% of CPU time during the window", steal * 100.0));
    out.note(format!(
        "latency = push -> flush -> {streams} reads per round over {} rounds ({} windows); \
         quality over {} traces, positions {}..{score_to}",
        s2f.count,
        s2f.windows,
        scores.len(),
        train + 1
    ));

    if tracer.enabled() {
        let mut l = report::engine_layers(&engine, &before, &after);
        let push = tracer.durations_us("fleet.push_batch");
        let flush = tracer.durations_us("fleet.flush");
        l.set("fleet.push_batch_us.p50", report::pct(&push, 0.5));
        l.set("fleet.push_batch_us.p99", report::pct(&push, 0.99));
        l.set("fleet.flush_us.p50", report::pct(&flush, 0.5));
        l.set("fleet.flush_us.p99", report::pct(&flush, 0.99));
        l.set(
            "fleet.stream_info_us.p50",
            report::pct(&tracer.durations_us("fleet.stream_info"), 0.5),
        );
        l.set("fleet.queue_depth.max", depth_max);
        let round_self = tracer.self_times_us("paper.round");
        out.note(format!(
            "paper.round self time (benchmark overhead) p50 {:.2}us",
            report::pct(&round_self, 0.5)
        ));
        out.layers.extend(&l);
        out.rung_inputs.streams = (0..streams)
            .map(|s| (configs[s].clone(), (0..4 * score_to).map(|i| value(s, i)).collect()))
            .collect();
        out.rung_inputs.batches = (0..4 * score_to)
            .map(|i| (0..streams).map(|s| (s as StreamId, value(s, i))).collect())
            .collect();
    }
    out
}
