//! `fleet_retrain_heavy`: closed-loop bulk ingest into an in-process
//! `FleetEngine` with the default stream tuning, where retraining does
//! most of the work and the store and wire are bypassed.
//!
//! One producer thread pushes round-robin `push_batch` chunks under `Block`
//! backpressure (lossless). A second thread probes sample-to-forecast
//! latency: it takes the last sample of a chunk the producer just pushed
//! and polls `stream_info` until that sample's step is visible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fleet::{BackpressurePolicy, FleetConfig, FleetEngine, PushReport, StreamConfig, StreamId};

use crate::report::{self, CounterSnap, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::{quality, Run};

pub const STREAMS: u64 = 1536;
/// Pregenerated samples per stream; longer runs wrap around.
const PERIOD: usize = 1024;
const CHUNK: usize = 256;
const SETUPS: usize = 7;
/// Every `CHECK_EVERY`-th stream is replayed to its served length and
/// checked bit for bit.
const CHECK_EVERY: u64 = 16;
/// Quality is scored on positions `train_size + 1..SCORE_TO` of every
/// stream, so it does not depend on how far a run gets.
const SCORE_TO: usize = 1024;
/// Probe sweep period and the most probes in flight at once.
const POLL: Duration = Duration::from_micros(200);
const IN_FLIGHT: usize = 8;

#[derive(Clone, Copy)]
struct Probe {
    stream: StreamId,
    target: u64,
    pushed_at: Instant,
    request: u64,
}

#[derive(Default)]
struct ProbeLog {
    s2f_us: Vec<f64>,
    nonfinite: u64,
    depth_max: f64,
}

pub fn run(run: &Run, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let stream_cfg = StreamConfig::default();
    let train = stream_cfg.train_size;
    let inputs: Vec<Vec<f64>> = (0..STREAMS)
        .map(|id| {
            let mut signal = vmsim::fleet_signal(run.seed, id);
            (0..PERIOD as u64).map(|m| signal.sample(m)).collect()
        })
        .collect();
    let value = |s: usize, i: usize| inputs[s][i % PERIOD];
    let config = FleetConfig { backpressure: BackpressurePolicy::Block, ..FleetConfig::default() };

    let rss0 = fleet::process_resident_bytes().unwrap_or(0);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    let mut offered = 0u64;
    let mut pushes = PushReport::default();
    let mut batch: Vec<(StreamId, f64)> = Vec::with_capacity(CHUNK);
    let mut earlier = 0u64;
    for _ in 0..SETUPS {
        drop(engine.take());
        earlier += offered;
        offered = 0;
        pushes = PushReport::default();
        let t = Instant::now();
        let e = FleetEngine::new(config.clone()).expect("valid fleet config");
        for id in 0..STREAMS {
            e.register(id).expect("fresh stream id");
        }
        for round in 0..train {
            for s in 0..STREAMS as usize {
                batch.push((s as StreamId, value(s, round)));
                if batch.len() == CHUNK || s + 1 == STREAMS as usize {
                    add(&mut pushes, e.push_batch(&batch));
                    offered += batch.len() as u64;
                    batch.clear();
                }
            }
        }
        e.flush();
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one setup");
    let warmup_samples = STREAMS * train as u64;
    let before = CounterSnap::take(&engine);

    // Steady window: rounds `train..`, until the deadline and at least
    // SCORE_TO rounds, then a flush so every pushed sample is completed.
    let probes: Mutex<Vec<Probe>> = Mutex::new(Vec::with_capacity(IN_FLIGHT));
    let stop = AtomicBool::new(false);
    let mut round = train;
    let mut marks = Vec::new();
    let ticks = report::CpuTicks::read();
    let (elapsed, log) = std::thread::scope(|scope| {
        let observer = scope.spawn(|| observe(&engine, &probes, &stop, tracer));
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(run.seconds);
        let mut request = 0u64;
        while Instant::now() < deadline || round < SCORE_TO {
            for s in 0..STREAMS as usize {
                batch.push((s as StreamId, value(s, round)));
                if batch.len() == CHUNK || s + 1 == STREAMS as usize {
                    request += 1;
                    let mut pending = probes.lock().expect("probe list poisoned");
                    if pending.len() < IN_FLIGHT {
                        pending.push(Probe {
                            stream: s as StreamId,
                            target: round as u64 + 1,
                            pushed_at: Instant::now(),
                            request,
                        });
                    }
                    drop(pending);
                    let report =
                        tracer.span("fleet.push_batch", 0, request, |_| engine.push_batch(&batch));
                    add(&mut pushes, report);
                    offered += batch.len() as u64;
                    batch.clear();
                }
            }
            round += 1;
            marks.push((start.elapsed().as_secs_f64(), STREAMS * (round - train) as u64));
        }
        tracer.span("fleet.flush", 0, 0, |_| engine.flush());
        let elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        (elapsed, observer.join().expect("observer thread panicked"))
    });
    let steal = ticks.steal_share(&report::CpuTicks::read());
    let steady_samples = STREAMS * (round - train) as u64;
    let rss1 = fleet::process_resident_bytes().unwrap_or(0);
    let after = CounterSnap::take(&engine);
    let health = engine.health();

    // Exactly-once accounting and finite forecasts.
    let p = health.pushes;
    out.check(
        "accounting",
        p.accepted + p.rejected + p.dropped == offered && p.accepted == pushes.accepted,
        format!(
            "offered {offered} accepted {} rejected {} dropped {}",
            p.accepted, p.rejected, p.dropped
        ),
    );
    // Every stream got `round` readings; the sanitizer's own count of what
    // it passes on is what the engine must have stepped.
    let clean: u64 = (0..STREAMS as usize)
        .map(|s| quality::clean_count(&stream_cfg, (0..round).map(|i| value(s, i))))
        .sum();
    out.check(
        "steps_match_accepted",
        health.steps == clean && p.accepted == warmup_samples + steady_samples,
        format!(
            "steps {} = accepted {} - sanitizer drops {}",
            health.steps,
            p.accepted,
            p.accepted as i64 - clean as i64
        ),
    );
    out.check(
        "finite_forecasts",
        health.nonfinite_forecasts == 0 && log.nonfinite == 0,
        format!("engine {} probes {}", health.nonfinite_forecasts, log.nonfinite),
    );

    // Reference replay of every stream over the scored range, and of every
    // CHECK_EVERY-th to its served length: served forecasts must be
    // bit-identical, and the replay's forecasts score quality.
    let infos: Vec<fleet::StreamInfo> =
        (0..STREAMS).map(|s| engine.stream_info(s).expect("registered stream")).collect();
    let scored = quality::par_map(STREAMS as usize, |s| {
        let served = infos[s].steps as usize;
        let check = (s as u64).is_multiple_of(CHECK_EVERY);
        // A margin over SCORE_TO covers readings the sanitizer drops.
        let n = if check { round.max(SCORE_TO + 64) } else { SCORE_TO + 64 };
        let rep = quality::replay(&stream_cfg, (0..n).map(|i| value(s, i)));
        let same = !check
            || rep.last_forecast[served - 1].map(f64::to_bits)
                == infos[s].last_forecast.map(f64::to_bits);
        let actual: Vec<f64> = rep.origin[..SCORE_TO].iter().map(|&i| value(s, i)).collect();
        (
            quality::score_stream(
                &stream_cfg,
                &rep.last_forecast,
                &rep,
                &actual,
                train + 1,
                SCORE_TO,
            ),
            same,
        )
    });
    let mismatched = scored.iter().filter(|(_, same)| !same).count();
    let scores: Vec<_> = scored.iter().filter_map(|(score, _)| *score).collect();
    out.check(
        "served_equals_reference",
        mismatched == 0,
        format!("{mismatched} of {} streams differ", STREAMS.div_ceil(CHECK_EVERY)),
    );
    let (nmse, ratio) = stats::quality(&scores).unwrap_or((f64::NAN, f64::NAN));
    out.check("quality_scored", nmse.is_finite(), format!("{} streams scored", scores.len()));

    let s2f = stats::latency(&log.s2f_us, 0.99);
    out.check(
        "latency_sample_size",
        s2f.is_some(),
        format!("{} sample-to-forecast probes", log.s2f_us.len()),
    );
    let s2f = s2f.unwrap_or(stats::Latency { count: 0, p50: f64::NAN, tail: f64::NAN, windows: 0 });
    let mem = engine.mem_report();

    out.e2e.set("setup_s", stats::median(&setups));
    out.e2e.set("throughput_sps", stats::median_window_rate(&marks, 1.0));
    out.e2e.set("latency_p50_us", s2f.p50);
    out.layers
        .set("e2e.latency_p90_us", stats::latency(&log.s2f_us, 0.9).map_or(f64::NAN, |l| l.tail));
    out.layers.set("e2e.latency_p99_us", s2f.tail);
    out.e2e.set("forecast_nmse", nmse);
    out.e2e.set("nws_mse_ratio", ratio);
    out.e2e.set("rss_mib", rss1.saturating_sub(rss0) as f64 / (1 << 20) as f64);
    out.e2e.set("state_bytes_per_stream", mem.bytes_per_stream());
    out.attempted = earlier + offered;
    out.failed = pushes.rejected + pushes.dropped + health.nonfinite_forecasts + log.nonfinite;

    out.note(format!(
        "streams {STREAMS}, chunk {CHUNK}, warmup samples {warmup_samples} (x{SETUPS} setups), \
         steady samples {steady_samples} in {elapsed:.3}s ({} rounds)",
        round - train
    ));
    out.note(format!("setup_s runs {setups:?}"));
    out.note(format!("host steal {:.1}% of CPU time during the window", steal * 100.0));
    out.note(format!(
        "latency = sample-to-forecast over {} probes ({} windows); quality over {} streams, positions {}..{SCORE_TO}",
        s2f.count,
        s2f.windows,
        scores.len(),
        train + 1
    ));

    if tracer.enabled() {
        let mut l = report::engine_layers(&engine, &before, &after);
        let push = tracer.durations_us("fleet.push_batch");
        l.set("fleet.push_batch_us.p50", report::pct(&push, 0.5));
        l.set("fleet.push_batch_us.p99", report::pct(&push, 0.99));
        l.set(
            "fleet.stream_info_us.p50",
            report::pct(&tracer.durations_us("fleet.stream_info"), 0.5),
        );
        l.set("fleet.queue_depth.max", log.depth_max);
        out.layers.extend(&l);
        out.absent = vec![
            ("fleet.flush_us.p50", "one flush per run, at the end of the window"),
            ("fleet.flush_us.p99", "one flush per run, at the end of the window"),
        ];
        out.rung_inputs.streams = (0..64)
            .map(|k| {
                let s = (k * STREAMS / 64) as usize;
                (stream_cfg.clone(), inputs[s].clone())
            })
            .collect();
        out.rung_inputs.batches = (0..PERIOD / 4)
            .flat_map(|i| {
                let row: Vec<(u64, f64)> =
                    (0..STREAMS).map(|s| (s, inputs[s as usize][i])).collect();
                row.chunks(CHUNK).map(<[_]>::to_vec).collect::<Vec<_>>()
            })
            .collect();
    }
    out
}

fn add(total: &mut PushReport, r: PushReport) {
    total.accepted += r.accepted;
    total.rejected += r.rejected;
    total.dropped += r.dropped;
    total.wal_failed |= r.wal_failed;
}

/// The probe thread: every sweep polls each pending probe once and
/// retires those whose sample has been served.
fn observe(
    engine: &FleetEngine,
    probes: &Mutex<Vec<Probe>>,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> ProbeLog {
    let mut log = ProbeLog::default();
    let mut sweep = Vec::with_capacity(IN_FLIGHT);
    while !stop.load(Ordering::SeqCst) {
        if tracer.enabled() {
            log.depth_max = log.depth_max.max(report::queue_depth(engine));
        }
        sweep.clear();
        sweep.extend(probes.lock().expect("probe list poisoned").iter().copied());
        for p in &sweep {
            let info =
                tracer.span("fleet.stream_info", 0, p.request, |_| engine.stream_info(p.stream));
            let info = info.expect("registered stream");
            if info.steps >= p.target {
                log.s2f_us.push(p.pushed_at.elapsed().as_secs_f64() * 1e6);
                if !info.last_forecast.is_some_and(f64::is_finite) {
                    log.nonfinite += 1;
                }
                probes.lock().expect("probe list poisoned").retain(|q| q.request != p.request);
            }
        }
        std::thread::sleep(POLL);
    }
    log
}
