//! Forecast scoring: a reference replay of one stream's served inputs
//! through a fresh serving stack, and the NWS cumulative-MSE baseline on
//! the same samples and the same fitted pools. All of it runs outside the
//! timed windows.

use fleet::StreamConfig;
use larp::selector::{NwsCumMse, Selector};
use larp::{GuardedLarp, Sanitizer, TrainedLarp};

use crate::stats::{self, StreamScore};

/// What a stream's serving stack produced for a sequence of auto-clocked
/// readings: the clean values that reached the predictor and, after each,
/// the stream's latest forecast (as `StreamInfo::last_forecast` reports it),
/// whether that step (re)trained the model, and which raw reading it came
/// from.
pub struct Replay {
    pub clean: Vec<f64>,
    pub last_forecast: Vec<Option<f64>>,
    pub retrained: Vec<bool>,
    pub origin: Vec<usize>,
}

/// Replays `raw` readings (auto-clocked from minute 0, as the engine clocks
/// them) through the stack `config` builds.
pub fn replay(config: &StreamConfig, raw: impl Iterator<Item = f64>) -> Replay {
    let mut guarded: GuardedLarp = config.build().expect("valid stream config");
    let mut sanitizer = Sanitizer::new(config.ingest.clone()).expect("valid ingest config");
    let mut out = Replay {
        clean: Vec::new(),
        last_forecast: Vec::new(),
        retrained: Vec::new(),
        origin: Vec::new(),
    };
    let mut last = None;
    for (i, value) in raw.enumerate() {
        let minute = i as u64;
        for step in guarded.ingest(minute, value) {
            last = step.forecast.or(last);
            out.last_forecast.push(last);
            out.retrained.push(step.retrained);
            out.origin.push(i);
        }
        out.clean.extend(sanitizer.ingest(minute, value));
    }
    assert_eq!(out.clean.len(), out.last_forecast.len(), "one step per clean sample");
    out
}

/// Clean samples the sanitizer passes on for `raw` auto-clocked readings.
pub fn clean_count(config: &StreamConfig, raw: impl Iterator<Item = f64>) -> u64 {
    let mut sanitizer = Sanitizer::new(config.ingest.clone()).expect("valid ingest config");
    let mut clean = Vec::new();
    raw.enumerate()
        .map(|(minute, value)| {
            sanitizer.ingest_into(minute as u64, value, &mut clean);
            clean.len() as u64
        })
        .sum()
}

/// NWS forecasts (raw scale) for positions `from..to` of `rep.clean`.
///
/// The pool is refitted wherever the served model retrained, on the same
/// `train_size` window, so NWS and the served stream choose among the same
/// fitted predictors and differ only in how they choose. After each refit a
/// fresh `NwsCumMse` is warmed over the training window, as the paper warms
/// it over the training half. A refit that fails keeps the previous pool.
/// `None` if the initial fit fails.
pub fn nws_forecasts(
    config: &StreamConfig,
    rep: &Replay,
    from: usize,
    to: usize,
) -> Option<Vec<f64>> {
    let train = config.train_size;
    let fits: Vec<usize> =
        (train - 1..to).filter(|&t| t == train - 1 || rep.retrained[t]).collect();
    let mut out = Vec::with_capacity(to - from);
    let mut model: Option<TrainedLarp> = None;
    for (k, &fit) in fits.iter().enumerate() {
        let lo = fit + 1 - train;
        if let Ok(m) = TrainedLarp::train(&rep.clean[lo..=fit], &config.larp) {
            model = Some(m);
        }
        let model = model.as_ref()?;
        // This pool forecasts positions fit+1 ..= next fit.
        let hi = fits.get(k + 1).map_or(to, |&n| (n + 1).min(to));
        if hi <= from {
            continue;
        }
        let z = model.zscore();
        let norm = z.apply_slice(&rep.clean[lo..hi]);
        let pool = model.pool();
        let mut nws = NwsCumMse::new(pool);
        for p in lo + pool.min_history().max(config.larp.window)..hi {
            let history = &norm[..p - lo];
            if p > fit && p >= from {
                let id = nws.select(history).ok()?;
                out.push(z.invert(pool.predict_one(id, history)));
            }
            nws.observe(history, norm[p - lo]);
        }
    }
    (out.len() == to - from).then_some(out)
}

/// Scores clean positions `from..to`: the forecast served after position
/// `t - 1` against `actual[t]`, beside the NWS forecast for `t`. `None` when
/// the NWS baseline cannot be fitted or a position has no served forecast.
pub fn score_stream(
    config: &StreamConfig,
    served: &[Option<f64>],
    rep: &Replay,
    actual: &[f64],
    from: usize,
    to: usize,
) -> Option<StreamScore> {
    let forecasts: Option<Vec<f64>> = (from..to).map(|t| served[t - 1]).collect();
    let nws = nws_forecasts(config, rep, from, to)?;
    Some(stats::score(&forecasts?, &nws, &actual[from..to]))
}

/// `f(0..n)` on two threads (this one and one more), in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let (first, second) = out.split_at_mut(n / 2);
    std::thread::scope(|scope| {
        let f = &f;
        let helper = scope.spawn(move || {
            for (i, slot) in first.iter_mut().enumerate() {
                *slot = Some(f(i));
            }
        });
        for (i, slot) in second.iter_mut().enumerate() {
            *slot = Some(f(n / 2 + i));
        }
        helper.join().expect("scoring thread panicked");
    });
    out.into_iter().map(|t| t.expect("every index mapped")).collect()
}
