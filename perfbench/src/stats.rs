//! The benchmark's own arithmetic: percentiles and the sample-count rule,
//! windowed tails, the sustained-rate rung rule, forecast scoring, and
//! open-loop lateness. Everything here is pure so it can be unit-tested.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `[0, 1]`) of an ascending-sorted slice:
/// the smallest sample with at least `p·n` samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of the usual percentiles that keeps at least
/// [`TAIL_BEYOND`] samples beyond it, or `None` when even the median does
/// not.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5].into_iter().find(|&p| n > 0 && beyond(n, p) >= TAIL_BEYOND)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A latency summary: the median over all samples and the `p` tail taken
/// as the median of per-window tails (consecutive windows of at least
/// `1 / (1 - p) · TAIL_BEYOND` samples), so one stalled second does not
/// decide the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    pub windows: usize,
}

/// Summarises `samples` (in arrival order) at tail percentile `p`.
/// Returns `None` when the sample cannot support `p` under the
/// [`TAIL_BEYOND`] rule.
pub fn latency(samples: &[f64], p: f64) -> Option<Latency> {
    let n = samples.len();
    if n == 0 || beyond(n, p) < TAIL_BEYOND {
        return None;
    }
    let per_window = ((TAIL_BEYOND as f64 / (1.0 - p)).ceil() as usize).max(1);
    let windows = (n / per_window).clamp(1, 9);
    let size = n / windows;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { n } else { (w + 1) * size };
            let mut chunk = samples[w * size..end].to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile(&chunk, p)
        })
        .collect();
    Some(Latency { count: n, p50: median(samples), tail: median(&tails), windows })
}

/// Completion rate as the median over consecutive `window`-second windows.
/// `marks` are `(seconds since start, cumulative completions)` in time
/// order; each window's rate runs between the first marks at or after its
/// edges. A run shorter than one window gives its overall rate.
pub fn median_window_rate(marks: &[(f64, u64)], window: f64) -> f64 {
    let first_at = |t: f64| marks.iter().position(|m| m.0 >= t);
    let mut rates = Vec::new();
    let mut i = 0.0;
    while let (Some(a), Some(b)) = (first_at(i * window), first_at((i + 1.0) * window)) {
        if b > a {
            rates.push((marks[b].1 - marks[a].1) as f64 / (marks[b].0 - marks[a].0));
        }
        i += 1.0;
    }
    match marks.last() {
        _ if !rates.is_empty() => median(&rates),
        Some(&(t, n)) if t > 0.0 => n as f64 / t,
        _ => 0.0,
    }
}

/// One rung of the open-loop rate ladder, as measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rung {
    /// Offered rate, samples/s.
    pub offered_sps: f64,
    /// Acknowledged samples per second of the rung's schedule.
    pub achieved_sps: f64,
    /// Push latency tail (from due time), µs.
    pub push_tail_us: f64,
    /// Failed samples and failed requests at this rung.
    pub failed: u64,
    /// Requests due but unanswered at the schedule's midpoint and end, and
    /// how much growth between the two still counts as not growing.
    pub backlog_mid: u64,
    pub backlog_end: u64,
    pub backlog_slack: u64,
}

/// Whether a rung meets the sustained-rate conditions: latency tail within
/// `limit_us`, no failures, and no growing backlog (the end backlog may
/// exceed the midpoint one by at most the rung's slack).
pub fn rung_passes(r: &Rung, limit_us: f64) -> bool {
    r.push_tail_us <= limit_us && r.failed == 0 && r.backlog_end <= r.backlog_mid + r.backlog_slack
}

/// Index of the sustained rung: the last passing rung before the first
/// failing one, walking the ladder upwards. `None` if the lowest fails.
pub fn sustained_rung(rungs: &[Rung], limit_us: f64) -> Option<usize> {
    rungs.iter().take_while(|r| rung_passes(r, limit_us)).count().checked_sub(1)
}

/// Per-stream forecast errors over one scored range.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamScore {
    /// Mean squared error of the served forecasts.
    pub mse: f64,
    /// Mean squared error of the NWS cumulative-MSE baseline.
    pub nws_mse: f64,
    /// Variance of the actual values over the scored range.
    pub var: f64,
    /// Scored positions.
    pub n: usize,
}

/// Scores `forecasts` and `nws` against `actuals` (equal lengths).
pub fn score(forecasts: &[f64], nws: &[f64], actuals: &[f64]) -> StreamScore {
    assert!(forecasts.len() == actuals.len() && nws.len() == actuals.len());
    let n = actuals.len();
    if n == 0 {
        return StreamScore::default();
    }
    let mse =
        |f: &[f64]| f.iter().zip(actuals).map(|(f, a)| (f - a).powi(2)).sum::<f64>() / n as f64;
    let mean = actuals.iter().sum::<f64>() / n as f64;
    let var = actuals.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / n as f64;
    StreamScore { mse: mse(forecasts), nws_mse: mse(nws), var, n }
}

/// Streams whose actuals are this flat carry no forecasting signal and are
/// left out of the normalised averages.
pub const MIN_VARIANCE: f64 = 1e-9;

/// Mean of the middle 80% of a sample: a tenth of the values at each end
/// are left out, so a few spiky streams do not decide the average.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// `forecast_nmse` and `nws_mse_ratio`: the served MSE over the stream's
/// variance, and the served MSE over the NWS MSE, each averaged over
/// streams with [`trimmed_mean`]. `None` when no stream has variance.
pub fn quality(scores: &[StreamScore]) -> Option<(f64, f64)> {
    let live: Vec<&StreamScore> =
        scores.iter().filter(|s| s.n > 0 && s.var > MIN_VARIANCE && s.nws_mse > 0.0).collect();
    if live.is_empty() {
        return None;
    }
    let nmse: Vec<f64> = live.iter().map(|s| s.mse / s.var).collect();
    let ratio: Vec<f64> = live.iter().map(|s| s.mse / s.nws_mse).collect();
    Some((trimmed_mean(&nmse), trimmed_mean(&ratio)))
}

/// How late an open-loop generator ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lateness {
    /// Tail of send time minus due time, µs.
    pub lag_tail_us: f64,
    /// Share of requests sent more than the late threshold after due.
    pub late_frac: f64,
    pub count: usize,
}

/// Lateness of `lags_us` (send minus due, one per request) against
/// `late_us`, with the lag tail at the highest supported percentile.
pub fn lateness(lags_us: &[f64], late_us: f64) -> Lateness {
    if lags_us.is_empty() {
        return Lateness::default();
    }
    let mut sorted = lags_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = highest_supported(sorted.len()).unwrap_or(1.0);
    Lateness {
        lag_tail_us: percentile(&sorted, p),
        late_frac: lags_us.iter().filter(|&&l| l > late_us).count() as f64 / lags_us.len() as f64,
        count: lags_us.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn latency_refuses_undersized_samples_and_counts() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(latency(&few, 0.99).is_none());
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let l = latency(&many, 0.99).unwrap();
        assert_eq!((l.count, l.windows), (1000, 1));
        assert_eq!(l.tail, 989.0);
        assert_eq!(l.p50, 499.0);
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        // Three windows of 1000; one holds a stall. The per-window p99s are
        // 1, 1000 and 1: the median tail stays at 1.
        let mut s = vec![1.0; 3000];
        for v in &mut s[1000..1100] {
            *v = 1000.0;
        }
        let l = latency(&s, 0.99).unwrap();
        assert_eq!(l.windows, 3);
        assert_eq!(l.tail, 1.0);
    }

    fn rung(tail: f64, failed: u64, mid: u64, end: u64) -> Rung {
        Rung {
            push_tail_us: tail,
            failed,
            backlog_mid: mid,
            backlog_end: end,
            backlog_slack: 4,
            ..Rung::default()
        }
    }

    #[test]
    fn sustained_rung_rule() {
        let limit = 1000.0;
        let ok = rung(500.0, 0, 1, 1);
        // Latency over the limit stops the ladder.
        assert_eq!(sustained_rung(&[ok, ok, rung(1500.0, 0, 1, 1), ok], limit), Some(1));
        // A failure stops it too, even at low latency.
        assert_eq!(sustained_rung(&[ok, rung(10.0, 1, 0, 0)], limit), Some(0));
        // A growing backlog stops it; a bounded one within slack does not.
        assert_eq!(sustained_rung(&[ok, rung(10.0, 0, 2, 40)], limit), Some(0));
        assert_eq!(sustained_rung(&[ok, rung(10.0, 0, 2, 6)], limit), Some(1));
        // Exactly at the limit passes; nothing passing gives None.
        assert_eq!(sustained_rung(&[rung(1000.0, 0, 0, 0)], limit), Some(0));
        assert_eq!(sustained_rung(&[rung(1001.0, 0, 0, 0), ok], limit), None);
        assert_eq!(sustained_rung(&[], limit), None);
    }

    #[test]
    fn forecast_scores_by_hand() {
        // actuals 1,2,3,4: mean 2.5, variance 1.25.
        // served errors 0,0,1,-1 -> MSE 0.5; NWS errors 1,1,1,1 -> MSE 1.
        let a = [1.0, 2.0, 3.0, 4.0];
        let s = score(&[1.0, 2.0, 4.0, 3.0], &[2.0, 3.0, 4.0, 5.0], &a);
        assert_eq!(s, StreamScore { mse: 0.5, nws_mse: 1.0, var: 1.25, n: 4 });
        // actuals 0,2 (var 1): served MSE 1, NWS MSE 0.5.
        let t = score(&[1.0, 1.0], &[0.0, 1.0], &[0.0, 2.0]);
        assert_eq!(t, StreamScore { mse: 1.0, nws_mse: 0.5, var: 1.0, n: 2 });
        // actuals 0,4 (var 4): served MSE 1, NWS MSE 4.
        let u = score(&[1.0, 3.0], &[2.0, 2.0], &[0.0, 4.0]);
        assert_eq!(u, StreamScore { mse: 1.0, nws_mse: 4.0, var: 4.0, n: 2 });
        // Per-stream nmse 0.4, 1.0, 0.25 and ratios 0.5, 2.0, 0.25; a flat
        // stream is left out, and three streams are too few to trim.
        let flat = score(&[1.0], &[1.0], &[5.0]);
        let (nmse, ratio) = quality(&[s, t, u, flat]).unwrap();
        assert!((nmse - 0.55).abs() < 1e-12);
        assert!((ratio - 2.75 / 3.0).abs() < 1e-12);
        assert!(quality(&[flat]).is_none());
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.extend([-1000.0, 1000.0]);
        assert_eq!(trimmed_mean(&v), 4.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn window_rates() {
        // 100/s for two seconds, then 300/s for one: windows give 100, 100,
        // 300 and the median is 100, where the overall rate would be 166.7.
        let marks: Vec<(f64, u64)> = (0..=30)
            .map(|i| {
                let t = i as f64 * 0.1;
                (
                    t,
                    if t <= 2.0 {
                        (t * 100.0).round() as u64
                    } else {
                        200 + ((t - 2.0) * 300.0).round() as u64
                    },
                )
            })
            .collect();
        assert!((median_window_rate(&marks, 1.0) - 100.0).abs() < 1e-6);
        assert!((median_window_rate(&marks[..5], 1.0) - 100.0).abs() < 1e-6);
        assert_eq!(median_window_rate(&[], 1.0), 0.0);
    }

    #[test]
    fn open_loop_lateness() {
        // 20 requests: 18 on time, two late by 3 ms and 5 ms.
        let mut lags = vec![10.0; 18];
        lags.extend([3000.0, 5000.0]);
        let l = lateness(&lags, 1000.0);
        assert_eq!(l.count, 20);
        assert!((l.late_frac - 0.1).abs() < 1e-12);
        // 20 samples support only the median under the ten-beyond rule.
        assert_eq!(l.lag_tail_us, 10.0);
        let mut lags: Vec<f64> = vec![0.0; 990];
        lags.extend(std::iter::repeat_n(2000.0, 10));
        let l = lateness(&lags, 1000.0);
        assert_eq!(l.lag_tail_us, 0.0);
        assert!((l.late_frac - 0.01).abs() < 1e-12);
        assert_eq!(lateness(&[], 1.0), Lateness::default());
    }
}
