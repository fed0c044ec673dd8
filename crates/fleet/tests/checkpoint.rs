//! Kill/restore acceptance: a checkpointed fleet resumes with identical
//! forecasts and no retraining, even onto a different shard count.

use fleet::{FleetConfig, FleetEngine, StreamId};
use vmsim::fleet_trace;

const STREAMS: u64 = 12;
const WARM: usize = 150;
const TAIL: usize = 90;

fn config(shards: usize) -> FleetConfig {
    // Capacity covers the whole warmup unflushed, so no samples are rejected
    // even if every stream lands on one shard — losslessness is a
    // precondition for the determinism this test asserts.
    FleetConfig { shards, fleet_seed: 77, queue_capacity: 4096, ..FleetConfig::default() }
}

/// One fleet-wide batch: every stream's sample for `minute`.
fn batch_at(traces: &[Vec<f64>], minute: usize) -> Vec<(StreamId, f64)> {
    traces.iter().enumerate().map(|(id, t)| (id as StreamId, t[minute])).collect()
}

fn build_warm_fleet(shards: usize) -> (FleetEngine, Vec<Vec<f64>>) {
    let engine = FleetEngine::new(config(shards)).unwrap();
    let traces: Vec<Vec<f64>> = (0..STREAMS).map(|id| fleet_trace(77, id, WARM + TAIL)).collect();
    for id in 0..STREAMS {
        engine.register(id).unwrap();
    }
    for minute in 0..WARM {
        engine.push_batch(&batch_at(&traces, minute));
    }
    engine.flush();
    (engine, traces)
}

/// Feeds the tail of each trace one batch at a time, recording every stream's
/// forecast after each batch.
fn serve_tail(engine: &FleetEngine, traces: &[Vec<f64>]) -> Vec<Vec<Option<f64>>> {
    let mut forecasts = vec![Vec::with_capacity(TAIL); STREAMS as usize];
    for minute in WARM..WARM + TAIL {
        engine.push_batch(&batch_at(traces, minute));
        engine.flush();
        for id in 0..STREAMS {
            forecasts[id as usize].push(engine.stream_info(id).unwrap().last_forecast);
        }
    }
    forecasts
}

#[test]
fn restore_resumes_identically_without_retraining() {
    let (original, traces) = build_warm_fleet(4);
    let retrains_before: Vec<usize> =
        (0..STREAMS).map(|id| original.stream_info(id).unwrap().retrains).collect();
    assert!(retrains_before.iter().all(|&r| r >= 1), "warmup must train every stream");

    let bytes = original.checkpoint().expect("checkpoint");

    // The original fleet keeps serving: the reference future.
    let expected = serve_tail(&original, &traces);
    drop(original);

    // "Kill" and restore onto a DIFFERENT shard count.
    let restored = FleetEngine::restore(config(2), &bytes).unwrap();
    assert_eq!(restored.stream_count(), STREAMS as usize);

    // No retraining happened at restore: the counts carried over bit-exact.
    for id in 0..STREAMS {
        assert_eq!(
            restored.stream_info(id).unwrap().retrains,
            retrains_before[id as usize],
            "stream {id} retrained during restore"
        );
        assert_eq!(restored.stream_info(id).unwrap().next_minute, WARM as u64);
    }

    // The restored fleet forecasts the identical future.
    let actual = serve_tail(&restored, &traces);
    for id in 0..STREAMS as usize {
        assert_eq!(
            actual[id], expected[id],
            "stream {id}: restored fleet diverged from the original"
        );
    }
}

#[test]
fn checkpoint_bytes_are_shard_count_independent() {
    let (a, _) = build_warm_fleet(4);
    let (b, _) = build_warm_fleet(2);
    assert_eq!(
        a.checkpoint().expect("checkpoint"),
        b.checkpoint().expect("checkpoint"),
        "checkpoint must not leak shard layout"
    );
}

#[test]
fn restore_rejects_garbage() {
    let cfg = config(4);
    assert!(FleetEngine::restore(cfg.clone(), b"not a checkpoint").is_err());
    let (engine, _) = build_warm_fleet(2);
    let mut bytes = engine.checkpoint().expect("checkpoint");
    bytes.truncate(bytes.len() / 2);
    assert!(FleetEngine::restore(cfg, &bytes).is_err());
}

#[test]
fn checkpoint_carries_only_the_history_streams_read() {
    // A default stream keeps the 40-sample training window of raw history,
    // not its whole 1,000-sample past, so its LARPSNAP stays a few KB
    // however long it has run.
    const N: u64 = 64;
    const SAMPLES: usize = 1_000;
    let engine = FleetEngine::new(config(2)).unwrap();
    let traces: Vec<Vec<f64>> = (0..N).map(|id| fleet_trace(77, id, SAMPLES)).collect();
    for id in 0..N {
        engine.register(id).unwrap();
    }
    for minute in 0..SAMPLES {
        engine.push_batch(&batch_at(&traces, minute));
        if minute % 32 == 31 {
            engine.flush();
        }
    }
    engine.flush();
    // Measured 2,638 B per stream; a ring sized by `max_history` wrote
    // 10,318 B here, and more the longer the streams ran.
    let per_stream = engine.checkpoint().expect("checkpoint").len() / N as usize;
    assert!(per_stream < 3_072, "{per_stream} B per stream");
}
