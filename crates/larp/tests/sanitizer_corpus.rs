//! What the default ingestion `Sanitizer` does to the paper's clean 60-trace
//! corpus. The traces carry no injected faults, so every repair here is the
//! sanitizer's own policy acting on healthy data — which is what the
//! `paper_lockstep` benchmark's sanitized-per-1k-steps figure measures.

use larp::{IngestConfig, IngestStats, Sanitizer};
use vmsim::{paper_traces, MetricKind, TraceKey, VmProfile};

fn sanitize(values: &[f64]) -> IngestStats {
    let mut sanitizer = Sanitizer::new(IngestConfig::default()).unwrap();
    for (minute, &v) in values.iter().enumerate() {
        sanitizer.ingest(minute as u64, v);
    }
    *sanitizer.stats()
}

#[test]
fn default_sanitizer_only_clamps_outliers_on_the_paper_corpus() {
    let corpus: Vec<(TraceKey, IngestStats, bool)> = paper_traces(11)
        .into_iter()
        .map(|(key, series)| {
            let v = series.values();
            let flat = v.iter().all(|&x| x.to_bits() == v[0].to_bits());
            (key, sanitize(v), flat)
        })
        .collect();

    // Every repair is a MAD-envelope clamp: no drops, fills or replacements.
    for (key, stats, _) in &corpus {
        assert_eq!(stats.faults_sanitized(), stats.outliers_clamped, "{key}: {stats:?}");
        assert_eq!(stats.emitted, stats.received, "{key}: {stats:?}");
    }

    // The 7 zero-variance dead-device traces are not where the repairs come
    // from.
    let flat: Vec<&(TraceKey, IngestStats, bool)> = corpus.iter().filter(|c| c.2).collect();
    assert_eq!(flat.len(), 7, "dead-device traces in the corpus");
    for (key, stats, _) in flat {
        assert_eq!(stats.outliers_clamped, 0, "{key} is constant yet was clamped");
    }

    // Corpus rate: 85.5 repairs per 1k readings, led by VM2's NIC 1 receive
    // trace with 87 of its 288 readings clamped.
    let received: usize = corpus.iter().map(|c| c.1.received).sum();
    let clamped: usize = corpus.iter().map(|c| c.1.outliers_clamped).sum();
    let per_1k = clamped as f64 * 1000.0 / received as f64;
    assert_eq!(format!("{per_1k:.1}"), "85.5", "{clamped} of {received} readings clamped");
    let (top_key, top, _) = corpus.iter().max_by_key(|c| c.1.outliers_clamped).unwrap();
    assert_eq!(top_key.profile, VmProfile::Vm2);
    assert_eq!(top_key.metric, MetricKind::Nic1Rx);
    assert_eq!((top.outliers_clamped, top.received), (87, 288));
}
