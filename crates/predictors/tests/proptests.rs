//! Randomized property tests for the predictor pool.
//!
//! Seeded `simrng` loops replace the original proptest strategies so the
//! suite runs without external crates; every case is deterministic per seed.

use simrng::{Rng64, Xoshiro256pp};

use predictors::models::{Ar, Ewma, Last, SlidingMedian, SwAvg, TrimmedMean};
use predictors::{ModelSpec, Predictor, PredictorPool};

fn random_vec(rng: &mut Xoshiro256pp, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
}

fn history(rng: &mut Xoshiro256pp) -> Vec<f64> {
    let n = 5 + rng.next_below(55) as usize;
    random_vec(rng, n, -1e3, 1e3)
}

/// Summary models stay within the history's range (they interpolate,
/// never extrapolate).
#[test]
fn summary_models_stay_in_range() {
    let mut rng = Xoshiro256pp::seed_from_u64(401);
    for _ in 0..96 {
        let h = history(&mut rng);
        let lo = h.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = h.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for model in [
            Box::new(Last) as Box<dyn Predictor>,
            Box::new(SwAvg::new(4).unwrap()),
            Box::new(SlidingMedian::new(5).unwrap()),
            Box::new(TrimmedMean::new(5, 0.2).unwrap()),
            Box::new(Ewma::new(0.4).unwrap()),
        ] {
            let p = model.predict(&h);
            assert!(
                p >= lo - 1e-9 && p <= hi + 1e-9,
                "{} gave {p} outside [{lo}, {hi}]",
                model.name()
            );
        }
    }
}

/// Translation equivariance: predicting shifted history shifts summary
/// model forecasts by the same amount.
#[test]
fn summary_models_are_translation_equivariant() {
    let mut rng = Xoshiro256pp::seed_from_u64(402);
    for _ in 0..96 {
        let h = history(&mut rng);
        let shift = rng.uniform(-100.0, 100.0);
        let shifted: Vec<f64> = h.iter().map(|x| x + shift).collect();
        for model in [
            Box::new(Last) as Box<dyn Predictor>,
            Box::new(SwAvg::new(4).unwrap()),
            Box::new(SlidingMedian::new(5).unwrap()),
            Box::new(Ewma::new(0.4).unwrap()),
        ] {
            let a = model.predict(&h);
            let b = model.predict(&shifted);
            assert!((b - (a + shift)).abs() < 1e-6, "{}", model.name());
        }
    }
}

/// AR forecasts are finite and the fit is deterministic.
#[test]
fn ar_fit_finite_and_deterministic() {
    let mut rng = Xoshiro256pp::seed_from_u64(403);
    for _ in 0..96 {
        let n = 20 + rng.next_below(130) as usize;
        let train = random_vec(&mut rng, n, -100.0, 100.0);
        let Ok(a) = Ar::fit(&train, 4) else { continue };
        let b = Ar::fit(&train, 4).unwrap();
        assert_eq!(a.coefficients(), b.coefficients());
        let p = a.predict(&train[train.len() - 4..]);
        assert!(p.is_finite());
        assert!(a.innovation_variance() >= 0.0);
    }
}

/// The pool's best_for really is the argmin of absolute errors.
#[test]
fn best_for_is_argmin() {
    let mut rng = Xoshiro256pp::seed_from_u64(404);
    for _ in 0..96 {
        let n = 30 + rng.next_below(70) as usize;
        let train = random_vec(&mut rng, n, -100.0, 100.0);
        let actual = rng.uniform(-100.0, 100.0);
        let Ok(pool) = PredictorPool::standard(&train, 5) else { continue };
        let h = &train[..10];
        let (best, forecasts) = pool.best_for(h, actual);
        let best_err = (forecasts[best.0] - actual).abs();
        for f in &forecasts {
            assert!(best_err <= (f - actual).abs() + 1e-12);
        }
    }
}

/// Every extended-pool model respects min_history and returns finite
/// forecasts on any sufficient history.
#[test]
fn extended_pool_total_on_valid_inputs() {
    let mut rng = Xoshiro256pp::seed_from_u64(405);
    for _ in 0..96 {
        let n = 40 + rng.next_below(80) as usize;
        let train = random_vec(&mut rng, n, -100.0, 100.0);
        let specs = ModelSpec::extended_pool(5);
        let Ok(pool) = PredictorPool::from_specs(&specs, &train) else { continue };
        let h = &train[..pool.min_history() + 3];
        for (id, f) in pool.ids().zip(pool.predict_all(h)) {
            assert!(f.is_finite(), "{}", pool.name(id));
        }
    }
}

/// `ModelSpec::lookback` is honest: a member claiming `Some(l)` forecasts
/// bit-identically from the last `l` points alone, on any long-enough
/// history, for every extended-pool member at several prediction orders.
#[test]
fn lookback_tail_predicts_bit_identically() {
    let mut rng = Xoshiro256pp::seed_from_u64(406);
    for m in [3, 5, 16] {
        for _ in 0..48 {
            let train = random_vec(&mut rng, 200, -100.0, 100.0);
            for spec in ModelSpec::extended_pool(m) {
                let Some(l) = spec.lookback() else { continue };
                let model = spec.build(&train).unwrap();
                let min = l.max(model.min_history());
                let n = min + rng.next_below(80) as usize;
                let h = random_vec(&mut rng, n, -1e3, 1e3);
                let full = model.predict(&h);
                let tail = model.predict(&h[h.len() - l..]);
                assert_eq!(full.to_bits(), tail.to_bits(), "{spec:?} on {n} points, lookback {l}");
            }
        }
    }
}

/// The members that claim no lookback really do read past any short tail:
/// truncating their input changes the forecast.
#[test]
fn unbounded_members_read_the_whole_slice() {
    let mut rng = Xoshiro256pp::seed_from_u64(407);
    let train = random_vec(&mut rng, 200, -100.0, 100.0);
    let h = random_vec(&mut rng, 120, -1e3, 1e3);
    for spec in ModelSpec::extended_pool(5) {
        if spec.lookback().is_some() {
            continue;
        }
        let model = spec.build(&train).unwrap();
        let tail = &h[h.len() - 8..];
        assert_ne!(model.predict(&h).to_bits(), model.predict(tail).to_bits(), "{spec:?}");
    }
}

/// `forecast_windows` equals `predict` on every window by `to_bits` for every
/// pool member (the LAST, AR and SW_AVG overrides and the default), at window
/// sizes below, at and above each member's own window, and on series with
/// NaN and infinite points.
#[test]
fn forecast_windows_match_per_window_predict_bitwise() {
    let mut rng = Xoshiro256pp::seed_from_u64(409);
    for case in 0..48 {
        let order = 2 + rng.next_below(6) as usize;
        let n = 4 * order + rng.next_below(60) as usize;
        let mut series = random_vec(&mut rng, n, -5.0, 5.0);
        if case % 8 == 7 {
            series[n / 2] = f64::NAN;
            series[n / 3] = f64::INFINITY;
        }
        let train: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let pool = PredictorPool::extended(&train, order).unwrap();
        for m in [pool.min_history(), order + 1, 2 * order] {
            let count = n - m;
            let mut out = vec![0.0; count];
            for id in pool.ids() {
                let spec = pool.spec(id).clone();
                let model = spec.build(&train).unwrap();
                model.forecast_windows(&series, m, &mut out);
                for (i, &f) in out.iter().enumerate() {
                    let want = model.predict(&series[i..i + m]);
                    assert!(
                        f.to_bits() == want.to_bits() || (f.is_nan() && want.is_nan()),
                        "{} m={m} window {i}: {f} vs {want}",
                        model.name()
                    );
                }
            }
            // Model-major labels equal the per-window streaming argmin.
            let labels = pool.best_ids(&series, m);
            assert_eq!(labels.len(), count);
            for (i, &label) in labels.iter().enumerate() {
                assert_eq!(label, pool.best_id(&series[i..i + m], series[i + m]).0, "m={m} {i}");
            }
        }
    }
}
