//! `wire_durable_open`: open-loop traffic over loopback into a durable
//! `netserve` server. Requests go out on a schedule at each rung of a fixed
//! rate ladder, and every latency is timed from when the request was due,
//! so a stall also charges the requests it delayed.
//!
//! One connection carries the pipelined traffic: this thread writes frames
//! on schedule and a reader thread takes the in-order replies. Set-up uses
//! the blocking `netserve::Client` on a second connection.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fleet::{BackpressurePolicy, DurabilityConfig, FleetConfig, FleetEngine, StreamConfig};
use netserve::{Client, ClientConfig, Request, Response, Server, ServerConfig, StreamTuning};
use vmsim::{FaultConfig, FaultInjector};

use crate::report::{self, CounterSnap, Outcome};
use crate::stats::{self, Rung};
use crate::trace::Tracer;
use crate::{quality, Run};

pub const STREAMS: u64 = 256;
const BATCH: usize = 12;
const PREDICT_EVERY: u64 = 32;
const SETUPS: usize = 7;
/// Pregenerated wire samples per stream; longer runs wrap around.
const PERIOD: usize = 4096;
const SCORE_TO: usize = 4000;
/// Offered rates of the ladder, samples/s, walked upwards.
const LADDER: &[f64] = &[24_000.0, 48_000.0, 96_000.0, 150_000.0, 600_000.0];
/// The rung whose latencies are the end-to-end latency metrics; below
/// capacity by design.
const REFERENCE: usize = 1;
/// Share of the run given to the reference rung; the others split the rest.
const REFERENCE_SHARE: f64 = 0.4;
/// Push latency limit on the rung's tail percentile.
const LIMIT_US: f64 = 50_000.0;
/// A rung whose pushes run this late stops early: it has already failed.
const ABORT_US: f64 = 200_000.0;
/// Backlog growth tolerated between a rung's midpoint and end, in seconds
/// of the rung's request rate.
const BACKLOG_SLACK_S: f64 = 0.1;
/// Sends this far behind schedule count as late.
const LATE_US: f64 = 1_000.0;

/// `net_loadgen`'s stream tuning: long QA periods keep retrains rare.
fn tuning(id: u64) -> StreamTuning {
    StreamTuning {
        train_size: StreamConfig::default().train_size as u32,
        qa_window: 16,
        qa_period: 28 + (id % 9) as u32,
        qa_threshold: 3.0,
    }
}

fn stream_config(id: u64) -> StreamConfig {
    let t = tuning(id);
    StreamConfig {
        train_size: t.train_size as usize,
        qa_window: t.qa_window as usize,
        qa_period: t.qa_period as usize,
        qa_threshold: t.qa_threshold,
        ..StreamConfig::default()
    }
}

/// Per-stream wire samples: what is sent (fault-injected) and the clean
/// value at that sample's minute.
fn inputs(seed: u64) -> Vec<Vec<(f64, f64)>> {
    (0..STREAMS)
        .map(|id| {
            let mut signal = vmsim::fleet_signal(seed, id);
            let mut faults = FaultInjector::new(FaultConfig::uniform(0.01), seed ^ (id << 1) | 1)
                .expect("valid fault config");
            let mut out = Vec::with_capacity(PERIOD + 4);
            let mut minute = 0;
            while out.len() < PERIOD {
                let clean = signal.sample(minute);
                out.extend(faults.corrupt(minute, clean).into_iter().map(|(_, v, _)| (v, clean)));
                minute += 1;
            }
            out.truncate(PERIOD);
            out
        })
        .collect()
}

/// The global sample sequence cycles through the streams, so a batch holds
/// consecutive streams and every stream advances evenly.
fn sample_at(inputs: &[Vec<(f64, f64)>], pos: u64) -> (u64, f64) {
    let s = pos % STREAMS;
    (s, inputs[s as usize][(pos / STREAMS) as usize % PERIOD].0)
}

fn batch_at(inputs: &[Vec<(f64, f64)>], pos: u64) -> Vec<(u64, f64)> {
    (pos..pos + BATCH as u64).map(|p| sample_at(inputs, p)).collect()
}

struct Stack {
    engine: Arc<FleetEngine>,
    server: Server,
    dir: std::path::PathBuf,
    /// Samples offered and acknowledged through the set-up client.
    offered: u64,
    acked: u64,
    failed: u64,
}

impl Stack {
    fn close(mut self) -> (Arc<FleetEngine>, std::path::PathBuf) {
        self.server.shutdown();
        drop(self.server);
        (self.engine, self.dir)
    }
}

fn config(dir: &Path) -> FleetConfig {
    FleetConfig {
        durability: Some(DurabilityConfig::new(dir)),
        backpressure: BackpressurePolicy::Block,
        ..FleetConfig::default()
    }
}

/// Engine and server start, registration and warmup over the wire, until
/// every stream has its initial fit.
fn setup(dir: &Path, inputs: &[Vec<(f64, f64)>], pos: &mut u64) -> Stack {
    let engine = Arc::new(FleetEngine::new(config(dir)).expect("valid fleet config"));
    let server =
        Server::start(Arc::clone(&engine), ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), ClientConfig::default()).expect("setup client");
    for id in 0..STREAMS {
        client.register_with(id, tuning(id)).expect("fresh stream id");
    }
    let train = StreamConfig::default().train_size as u64;
    let mut stack =
        Stack { engine, server, dir: dir.to_path_buf(), offered: 0, acked: 0, failed: 0 };
    let mut rounds = 0;
    loop {
        while *pos < (train + rounds) * STREAMS {
            let batch = batch_at(inputs, *pos);
            *pos += BATCH as u64;
            stack.offered += BATCH as u64;
            match client.push_batch(&batch) {
                Ok(o) => {
                    stack.acked += o.accepted;
                    stack.failed += o.rejected + o.dropped;
                }
                Err(_) => stack.failed += BATCH as u64,
            }
        }
        stack.engine.flush();
        let trained = (0..STREAMS).all(|id| {
            stack
                .engine
                .stream_info(id)
                .is_ok_and(|i| i.steps >= train && i.last_forecast.is_some())
        });
        if trained || rounds > 8 {
            break;
        }
        rounds += 1;
    }
    stack
}

#[derive(Clone, Copy)]
enum Kind {
    Push(usize),
    Predict,
    End,
}

struct InFlight {
    id: u64,
    due: Instant,
    rung: usize,
    kind: Kind,
}

#[derive(Default, Clone)]
struct RungLog {
    push_us: Vec<f64>,
    predict_us: Vec<f64>,
    acked: u64,
    failed: u64,
    last_reply: Option<Instant>,
}

/// The reply side of the open loop: matches in-order replies to their due
/// times until the end marker.
fn read_replies(
    mut conn: TcpStream,
    inflight: &Mutex<VecDeque<InFlight>>,
    answered: &AtomicU64,
    abort: &AtomicBool,
    logs: &Mutex<Vec<RungLog>>,
    tracer: &Tracer,
) -> u64 {
    let mut bad_forecasts = 0;
    loop {
        let frame = netserve::wire::read_frame(&mut conn, 1 << 24).expect("reply frame");
        let now = Instant::now();
        let req = inflight
            .lock()
            .expect("in-flight queue poisoned")
            .pop_front()
            .expect("reply to a sent request");
        assert_eq!(frame.request_id, req.id, "replies arrive in request order");
        if matches!(req.kind, Kind::End) {
            return bad_forecasts;
        }
        let resp = Response::decode(frame.opcode, &frame.payload).expect("decodable reply");
        let us = now.saturating_duration_since(req.due).as_secs_f64() * 1e6;
        let mut logs = logs.lock().expect("rung logs poisoned");
        let log = &mut logs[req.rung];
        log.last_reply = Some(now);
        match (req.kind, resp) {
            (Kind::Push(_), Response::PushBatch(o)) => {
                tracer.record_interval("netserve.push_batch", req.id, req.due, now);
                log.push_us.push(us);
                log.acked += o.accepted;
                log.failed += o.rejected + o.dropped;
                if us > ABORT_US {
                    abort.store(true, Ordering::SeqCst);
                }
            }
            (Kind::Push(n), _) => log.failed += n as u64,
            (Kind::Predict, Response::Predict(p)) => {
                tracer.record_interval("netserve.predict", req.id, req.due, now);
                log.predict_us.push(us);
                if !p.forecast.is_some_and(f64::is_finite) {
                    bad_forecasts += 1;
                }
            }
            (Kind::Predict, _) => {
                log.failed += 1;
                bad_forecasts += 1;
            }
            (Kind::End, _) => unreachable!("handled before decoding"),
        }
        drop(logs);
        answered.fetch_add(1, Ordering::SeqCst);
    }
}

/// The request side of the open loop: numbers requests and queues each
/// one's due time before its frame goes out.
struct Sender<'a> {
    conn: TcpStream,
    inflight: &'a Mutex<VecDeque<InFlight>>,
    next_id: u64,
    sent: u64,
}

impl Sender<'_> {
    fn send(&mut self, req: &Request, due: Instant, rung: usize, kind: Kind) {
        self.next_id += 1;
        let id = self.next_id;
        self.inflight.lock().expect("in-flight queue poisoned").push_back(InFlight {
            id,
            due,
            rung,
            kind,
        });
        self.conn.write_all(&frame(id, req)).expect("request write");
        self.sent += 1;
    }
}

fn frame(id: u64, req: &Request) -> Vec<u8> {
    netserve::wire::encode(&netserve::Frame {
        opcode: req.opcode() as u8,
        request_id: id,
        payload: req.encode_payload(),
    })
}

pub fn run(run: &Run, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(run.seed);
    let train = StreamConfig::default().train_size;

    let rss0 = fleet::process_resident_bytes().unwrap_or(0);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut stack = None;
    let mut pos = 0u64;
    let (mut offered, mut acked, mut failed) = (0u64, 0u64, 0u64);
    for k in 0..SETUPS {
        if let Some(old) = stack.take() {
            let (engine, dir) = Stack::close(old);
            drop(engine);
            std::fs::remove_dir_all(&dir).expect("remove set-up WAL directory");
        }
        pos = 0;
        let dir = run.dir.join(format!("wal{k}"));
        let t = Instant::now();
        let s = setup(&dir, &inputs, &mut pos);
        setups.push(t.elapsed().as_secs_f64());
        offered += s.offered;
        acked = s.acked;
        failed += s.failed;
        stack = Some(s);
    }
    let stack = stack.expect("at least one setup");
    let warmup_samples = pos;
    let engine = Arc::clone(&stack.engine);
    let before = CounterSnap::take(&engine);

    // The open loop.
    let mut conn = TcpStream::connect(stack.server.addr()).expect("traffic connection");
    conn.set_nodelay(true).expect("nodelay");
    conn.write_all(&frame(1, &Request::Hello { client: "perfbench".into() })).expect("hello");
    let hello = netserve::wire::read_frame(&mut conn, 1 << 20).expect("hello reply");
    assert!(matches!(Response::decode(hello.opcode, &hello.payload), Ok(Response::Hello { .. })));
    let inflight = Mutex::new(VecDeque::new());
    let answered = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    let logs = Mutex::new(vec![RungLog::default(); LADDER.len()]);
    let mut rungs: Vec<Rung> = Vec::new();
    // Resident size after each rung drained: memory is reported at the
    // sustained rate, not after the overload rung, whose backlog varies.
    let mut rss_after = Vec::new();
    let mut lags_ref = Vec::new();
    let mut depth_max = 0.0f64;
    let mut pending_max = 0u64;
    let reader_conn = conn.try_clone().expect("clone traffic socket");
    let mut tx = Sender { conn, inflight: &inflight, next_id: 1, sent: 0 };
    let ticks = report::CpuTicks::read();
    let bad_forecasts = std::thread::scope(|scope| {
        let reader =
            scope.spawn(|| read_replies(reader_conn, &inflight, &answered, &abort, &logs, tracer));
        let others = (1.0 - REFERENCE_SHARE) / (LADDER.len() - 1) as f64;
        for (r, &rate) in LADDER.iter().enumerate() {
            let share = if r == REFERENCE { REFERENCE_SHARE } else { others };
            let interval = BATCH as f64 / rate;
            let n = (run.seconds * share / interval).ceil() as u64;
            abort.store(false, Ordering::SeqCst);
            let t0 = Instant::now() + Duration::from_millis(1);
            let (mut mid, mut end) = (0, 0);
            for i in 0..n {
                if abort.load(Ordering::SeqCst) {
                    break;
                }
                let due = t0 + Duration::from_secs_f64(i as f64 * interval);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if r == REFERENCE {
                    lags_ref
                        .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                }
                let samples = batch_at(&inputs, pos);
                tx.send(&Request::PushBatch { samples }, due, r, Kind::Push(BATCH));
                pos += BATCH as u64;
                if (i + 1) % PREDICT_EVERY == 0 {
                    let stream = (i / PREDICT_EVERY) % STREAMS;
                    tx.send(&Request::Predict { id: stream }, due, r, Kind::Predict);
                }
                if tracer.enabled() && i % 64 == 0 {
                    depth_max = depth_max.max(report::queue_depth(&engine));
                    let pending = engine.store_stats().map_or(0, |s| s.pending_ops);
                    pending_max = pending_max.max(pending);
                }
                let backlog = || tx.sent.saturating_sub(answered.load(Ordering::SeqCst));
                if i == n / 2 {
                    mid = backlog();
                }
                if i + 1 == n {
                    end = backlog();
                }
            }
            let aborted = abort.load(Ordering::SeqCst);
            let drain_deadline = Instant::now() + Duration::from_secs(60);
            while answered.load(Ordering::SeqCst) < tx.sent {
                assert!(Instant::now() < drain_deadline, "rung {r} did not drain");
                std::thread::sleep(Duration::from_millis(1));
            }
            let log = logs.lock().expect("rung logs poisoned")[r].clone();
            let tail_p = stats::highest_supported(log.push_us.len()).unwrap_or(1.0).min(0.99);
            let tail = stats::latency(&log.push_us, tail_p).map(|l| l.tail);
            let last = log.last_reply.unwrap_or(t0);
            let rung = Rung {
                offered_sps: rate,
                achieved_sps: log.acked as f64
                    / last.saturating_duration_since(t0).as_secs_f64().max(1e-9),
                push_tail_us: tail.filter(|_| !aborted).unwrap_or(f64::INFINITY),
                failed: log.failed,
                backlog_mid: mid,
                backlog_end: end,
                backlog_slack: (rate / BATCH as f64 * BACKLOG_SLACK_S) as u64,
            };
            rungs.push(rung);
            rss_after.push(fleet::process_resident_bytes().unwrap_or(0));
            if !stats::rung_passes(&rung, LIMIT_US) {
                break;
            }
        }
        tx.send(&Request::Predict { id: 0 }, Instant::now(), 0, Kind::End);
        reader.join().expect("reader thread panicked")
    });
    let steal = ticks.steal_share(&report::CpuTicks::read());
    let logs = logs.into_inner().expect("rung logs poisoned");
    let ladder_acked: u64 = logs.iter().map(|l| l.acked).sum();
    let ladder_failed: u64 = logs.iter().map(|l| l.failed).sum();
    let ladder_offered = pos - warmup_samples;
    offered += ladder_offered;
    acked += ladder_acked;
    failed += ladder_failed + bad_forecasts;

    engine.flush_durable().expect("durable drain");
    let after = CounterSnap::take(&engine);
    let health = engine.health();
    let mem = engine.mem_report();
    let store_stats = engine.store_stats().expect("durable engine");
    let served: Vec<fleet::StreamInfo> =
        (0..STREAMS).map(|s| engine.stream_info(s).expect("registered stream")).collect();
    let mut layers = report::engine_layers(&engine, &before, &after);
    if tracer.enabled() {
        layers
            .set("store.wal_append_us.p50", report::hist_pct(&engine, "fleet_wal_append_us", 0.5));
        layers
            .set("store.wal_append_us.p99", report::hist_pct(&engine, "fleet_wal_append_us", 0.99));
        layers
            .set("store.wal_bytes_per_sample", store_stats.wal.bytes as f64 / acked.max(1) as f64);
        layers.set("store.fsyncs", store_stats.wal.fsyncs as f64);
        layers.set("store.pending_ops.max", pending_max as f64);
        layers.set("fleet.queue_depth.max", depth_max);
        layers.set("netserve.request_us.p50", report::hist_pct(&engine, "net_request_us", 0.5));
        layers.set("netserve.request_us.p99", report::hist_pct(&engine, "net_request_us", 0.99));
        layers.set("netserve.errors", report::counter(&engine, "net_errors_total") as f64);
        layers.set("reactor.poll_us.p99", report::hist_pct(&engine, "reactor_poll_us", 0.99));
        layers.set("reactor.flush_us.p99", report::hist_pct(&engine, "reactor_flush_us", 0.99));
        let requests = report::hist_count(&engine, "net_request_us").max(1) as f64;
        layers.set(
            "reactor.events_per_request",
            report::counter(&engine, "reactor_events_total") as f64 / requests,
        );
        layers.set(
            "reactor.backpressure",
            report::counter(&engine, "reactor_backpressure_total") as f64,
        );
    }

    // Accounting: every offered sample was acknowledged or failed, and the
    // engine served exactly the acknowledged ones.
    let p = health.pushes;
    let last_offered = warmup_samples + ladder_offered;
    out.check(
        "accounting",
        p.accepted + p.rejected + p.dropped == last_offered && p.accepted == acked,
        format!(
            "offered {last_offered} acked {acked} engine accepted {} rejected {} dropped {}",
            p.accepted, p.rejected, p.dropped
        ),
    );
    // Per stream, the raw readings sent; the sanitizer's own count of what
    // it passes on is what the engine must have stepped.
    let raw_count =
        |s: u64| (last_offered / STREAMS + u64::from(s < last_offered % STREAMS)) as usize;
    let raw = |s: u64| {
        let wire = &inputs[s as usize];
        (0..raw_count(s)).map(move |i| wire[i % PERIOD].0)
    };
    let clean: u64 = (0..STREAMS).map(|s| quality::clean_count(&stream_config(s), raw(s))).sum();
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
        health.nonfinite_forecasts == 0 && bad_forecasts == 0,
        format!("engine {} predict replies {bad_forecasts}", health.nonfinite_forecasts),
    );

    // Recovery, outside the timed window: a fresh engine rebuilt from the
    // WAL must replay every acked sample, without gaps, to the same state.
    let (engine_arc, dir) = Stack::close(stack);
    drop(engine);
    let t = Instant::now();
    drop(engine_arc);
    let (recovered, summary) =
        FleetEngine::recover(config(&dir), StreamConfig::default()).expect("recover");
    recovered.flush();
    let recovery_s = t.elapsed().as_secs_f64();
    let same = served.iter().all(|i| {
        recovered.stream_info(i.id).is_ok_and(|r| {
            r.steps == i.steps
                && r.last_forecast.map(f64::to_bits) == i.last_forecast.map(f64::to_bits)
        })
    });
    out.check(
        "recovery_replays_acked",
        summary.gap_records == 0 && summary.replayed_samples == acked && same,
        format!(
            "replayed {} of {acked} acked, {} gap records, state identical {same}",
            summary.replayed_samples, summary.gap_records
        ),
    );
    drop(recovered);

    // Reference replay of every stream to its served length and over the
    // scored range: the final served forecast must be bit-identical, and
    // the replay's forecasts are scored against the clean (pre-fault)
    // signal.
    let scored = quality::par_map(STREAMS as usize, |s| {
        let cfg = stream_config(s as u64);
        let wire = &inputs[s];
        let n = raw_count(s as u64).max(SCORE_TO + 64);
        let rep = quality::replay(&cfg, (0..n).map(|i| wire[i % PERIOD].0));
        let steps = served[s].steps as usize;
        let same = rep.last_forecast[steps - 1].map(f64::to_bits)
            == served[s].last_forecast.map(f64::to_bits);
        let actual: Vec<f64> = rep.origin[..SCORE_TO].iter().map(|&i| wire[i % PERIOD].1).collect();
        (quality::score_stream(&cfg, &rep.last_forecast, &rep, &actual, train + 1, SCORE_TO), same)
    });
    let mismatched = scored.iter().filter(|(_, same)| !same).count();
    let scores: Vec<_> = scored.iter().filter_map(|(score, _)| *score).collect();
    out.check(
        "served_equals_reference",
        mismatched == 0,
        format!("{mismatched} of {STREAMS} streams differ"),
    );
    let (nmse, ratio) = stats::quality(&scores).unwrap_or((f64::NAN, f64::NAN));
    out.check("quality_scored", nmse.is_finite(), format!("{} streams scored", scores.len()));

    let sustained = stats::sustained_rung(&rungs, LIMIT_US);
    out.check(
        "reference_rung_passes",
        sustained.is_some_and(|s| s >= REFERENCE),
        format!("sustained rung {sustained:?}, reference {REFERENCE}"),
    );
    let reference = logs[REFERENCE].clone();
    let push = stats::latency(&reference.push_us, 0.99);
    out.check(
        "latency_sample_size",
        push.is_some(),
        format!("{} reference pushes", reference.push_us.len()),
    );
    let push =
        push.unwrap_or(stats::Latency { count: 0, p50: f64::NAN, tail: f64::NAN, windows: 0 });
    let throughput = sustained.map_or(f64::NAN, |s| rungs[s].achieved_sps);

    out.e2e.set("setup_s", stats::median(&setups));
    out.e2e.set("throughput_sps", throughput);
    out.e2e.set("latency_p50_us", push.p50);
    out.layers.set(
        "e2e.latency_p90_us",
        stats::latency(&reference.push_us, 0.9).map_or(f64::NAN, |l| l.tail),
    );
    out.layers.set("e2e.latency_p99_us", push.tail);
    out.e2e.set("forecast_nmse", nmse);
    out.e2e.set("nws_mse_ratio", ratio);
    let rss1 = sustained.map_or(0, |s| rss_after[s]);
    out.e2e.set("rss_mib", rss1.saturating_sub(rss0) as f64 / (1 << 20) as f64);
    out.e2e.set("state_bytes_per_stream", mem.bytes_per_stream());
    out.attempted = offered;
    out.failed = failed + health.nonfinite_forecasts;

    out.note(format!(
        "streams {STREAMS}, batch {BATCH}, predict every {PREDICT_EVERY} batches, warmup samples \
         {warmup_samples} (x{SETUPS} setups), ladder samples {ladder_offered}"
    ));
    out.note(format!("setup_s runs {setups:?}; recovery {recovery_s:.3}s"));
    out.note(format!("host steal {:.1}% of CPU time during the ladder", steal * 100.0));
    for (r, rung) in rungs.iter().enumerate() {
        let l = &logs[r];
        out.note(format!(
            "rung {r}{} offered {:.0} achieved {:.0} samples/s, pushes {} predicts {}, push tail {}, \
             failed {}, backlog {}->{}, {}",
            if r == REFERENCE { " (reference)" } else { "" },
            rung.offered_sps,
            rung.achieved_sps,
            l.push_us.len(),
            l.predict_us.len(),
            if rung.push_tail_us.is_finite() {
                format!("{:.0}us", rung.push_tail_us)
            } else {
                format!("aborted (a push over {ABORT_US}us)")
            },
            rung.failed,
            rung.backlog_mid,
            rung.backlog_end,
            if stats::rung_passes(rung, LIMIT_US) { "pass" } else { "fail" }
        ));
    }
    out.note(format!(
        "latency = PushBatch from due time at {:.0} samples/s over {} pushes ({} windows, p90 {:.0}us); \
         limit {LIMIT_US}us",
        LADDER[REFERENCE],
        push.count,
        push.windows,
        stats::latency(&reference.push_us, 0.9).map_or(f64::NAN, |l| l.tail)
    ));

    if tracer.enabled() {
        let mut predict = reference.predict_us.clone();
        predict.sort_by(f64::total_cmp);
        layers.set(
            "netserve.predict_us.p90",
            if predict.is_empty() { 0.0 } else { stats::percentile(&predict, 0.9) },
        );
        let late = stats::lateness(&lags_ref, LATE_US);
        layers.set("gen.lag_us.p99", late.lag_tail_us);
        layers.set("gen.late_frac", late.late_frac);
        out.note(format!(
            "reference rung: {} predicts, generator lag tail over {} sends",
            predict.len(),
            late.count
        ));
        out.layers.extend(&layers);
        out.absent = vec![
            (
                "fleet.push_batch_us.p50",
                "push_batch runs inside the server; see netserve.request_us",
            ),
            (
                "fleet.push_batch_us.p99",
                "push_batch runs inside the server; see netserve.request_us",
            ),
            ("fleet.flush_us.p50", "the open loop never flushes"),
            ("fleet.flush_us.p99", "the open loop never flushes"),
            (
                "fleet.stream_info_us.p50",
                "reads go over the wire as Predict; see netserve.predict_us.p90",
            ),
        ];
        out.rung_inputs.streams = (0..64)
            .map(|k| {
                let s = k * STREAMS / 64;
                (stream_config(s), inputs[s as usize].iter().map(|v| v.0).collect())
            })
            .collect();
        out.rung_inputs.batches = (0..(STREAMS * PERIOD as u64 / 4) / BATCH as u64)
            .map(|b| batch_at(&inputs, b * BATCH as u64))
            .collect();
    }
    std::fs::remove_dir_all(&dir).expect("remove WAL directory");
    out
}
