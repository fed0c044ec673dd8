//! Training-phase labelling: the parallel mix-of-experts step.
//!
//! For every training window the full pool runs and the model with the
//! smallest absolute one-step error becomes the window's class label (paper
//! §6.1/§7.2.1). This is the only place the LARPredictor ever runs all
//! predictors. Labelling is model-major ([`PredictorPool::best_ids`]): each
//! member forecasts every window before the next member runs, so the
//! per-window work is one non-virtual loop per model. Long series split the
//! window range over `std::thread` scoped threads; the labels do not depend
//! on the split.

use predictors::{PredictorId, PredictorPool};
use timeseries::Frames;

use crate::{LarpError, Result};

/// One labelled training window.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledWindow {
    /// Index of the window within the framed training series.
    pub index: usize,
    /// The window itself (length `m`), copied out of the training buffer.
    pub window: Vec<f64>,
    /// Class label: the pool member with the smallest absolute error.
    pub label: PredictorId,
    /// The target value the window was scored against.
    pub target: f64,
}

/// Labels every `(window, next-value)` pair of `train`, copying each window
/// out alongside its label and target (for diagnostics; training itself
/// takes [`label_ids`]).
///
/// # Errors
///
/// Returns [`LarpError::InsufficientData`] if `train` yields no
/// (window, target) pair (`train.len() <= window`), or
/// [`LarpError::InvalidConfig`] if the pool needs more history than one
/// window provides.
pub fn label_windows(
    pool: &PredictorPool,
    train: &[f64],
    window: usize,
) -> Result<Vec<LabeledWindow>> {
    let labels = label_ids(pool, train, window, 1)?;
    Ok(labels
        .into_iter()
        .enumerate()
        .map(|(index, label)| LabeledWindow {
            index,
            window: train[index..index + window].to_vec(),
            label: PredictorId(label),
            target: train[index + window],
        })
        .collect())
}

/// Labels every `(window, next-value)` pair of `train`, returning the class
/// indices only — no window copies. Series with at least 256 windows fan the
/// window range out over `threads` scoped worker threads; the labels are the
/// same for every thread count. This is the labelling step of every
/// (re)train.
///
/// # Errors
///
/// * [`LarpError::InvalidConfig`] if `threads == 0`;
/// * the same data conditions as [`label_windows`].
pub fn label_ids(
    pool: &PredictorPool,
    train: &[f64],
    window: usize,
    threads: usize,
) -> Result<Vec<usize>> {
    if threads == 0 {
        return Err(LarpError::InvalidConfig("threads must be >= 1".into()));
    }
    let total = prepare(pool, train, window)?.count_with_targets();
    // Spawning a thread costs far more than labelling a few dozen tiny
    // windows: the online serving path retrains on ~40-sample tails, and
    // fanning those out ate the entire retrain budget in thread setup. Only
    // go wide when there is real work to split.
    if threads == 1 || total < 256 {
        return Ok(pool.best_ids(train, window));
    }
    let chunk = total.div_ceil(threads);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(total)))
            .filter(|(start, end)| start < end)
            // Windows `start..end` and their targets.
            .map(|(start, end)| s.spawn(move || pool.best_ids(&train[start..end + window], window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("labeler worker panicked"))
            .collect::<Vec<Vec<usize>>>()
    });
    let mut labels = Vec::with_capacity(total);
    for part in parts {
        labels.extend(part);
    }
    Ok(labels)
}

fn prepare<'a>(pool: &PredictorPool, train: &'a [f64], window: usize) -> Result<Frames<'a>> {
    if window < pool.min_history() {
        return Err(LarpError::InvalidConfig(format!(
            "window {window} is smaller than the pool's minimum history {}",
            pool.min_history()
        )));
    }
    let frames =
        Frames::new(train, window).map_err(|e| LarpError::InsufficientData(e.to_string()))?;
    if frames.count_with_targets() == 0 {
        return Err(LarpError::InsufficientData(format!(
            "training series of length {} yields no (window, target) pair for window {window}",
            train.len()
        )));
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.31).sin() * 3.0 + (i % 7) as f64 * 0.1).collect()
    }

    fn pool(train: &[f64], m: usize) -> PredictorPool {
        PredictorPool::standard(train, m).unwrap()
    }

    /// The per-window streaming argmin the model-major pass replaced.
    fn per_window(p: &PredictorPool, t: &[f64], m: usize) -> Vec<usize> {
        (0..t.len() - m).map(|i| p.best_id(&t[i..i + m], t[i + m]).0).collect()
    }

    #[test]
    fn labels_cover_all_window_target_pairs() {
        let t = series(100);
        let p = pool(&t, 5);
        let labels = label_windows(&p, &t, 5).unwrap();
        assert_eq!(labels.len(), 95); // u - m
        for (i, lw) in labels.iter().enumerate() {
            assert_eq!(lw.index, i);
            assert_eq!(lw.window, t[i..i + 5]);
            assert_eq!(lw.target, t[i + 5]);
            assert!(lw.label.0 < p.len());
        }
    }

    #[test]
    fn label_is_argmin_absolute_error() {
        let t = series(60);
        let p = pool(&t, 5);
        for lw in label_windows(&p, &t, 5).unwrap() {
            let forecasts = p.predict_all(&lw.window);
            let best_err = (forecasts[lw.label.0] - lw.target).abs();
            for f in &forecasts {
                assert!(best_err <= (f - lw.target).abs() + 1e-15);
            }
        }
    }

    #[test]
    fn label_ids_match_the_per_window_argmin_for_all_thread_counts() {
        // Small series take the sequential path; 300 windows with more than
        // one thread take the parallel fan-out. Both must agree with the
        // per-window reference exactly, on the standard and extended pools.
        for n in [100, 300] {
            let t = series(n);
            for p in [pool(&t, 5), PredictorPool::extended(&t, 5).unwrap()] {
                let reference = per_window(&p, &t, 5);
                for threads in [1, 2, 3, 4, 7] {
                    assert_eq!(
                        label_ids(&p, &t, 5, threads).unwrap(),
                        reference,
                        "n={n} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn smooth_series_favors_last_peaky_series_mixes() {
        // A pure slow ramp: LAST (and AR) should dominate over SW_AVG,
        // which lags behind.
        let smooth: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let p = pool(&smooth, 5);
        let labels = label_windows(&p, &smooth, 5).unwrap();
        let sw_share =
            labels.iter().filter(|l| l.label.0 == 2).count() as f64 / labels.len() as f64;
        assert!(sw_share < 0.2, "SW_AVG share {sw_share}");
    }

    #[test]
    fn validation_errors() {
        let t = series(50);
        let p = pool(&t, 5);
        // Window below the pool's min_history (AR needs 5).
        assert!(matches!(label_windows(&p, &t, 3), Err(LarpError::InvalidConfig(_))));
        // Series exactly window-long: one frame, no target.
        let tiny = series(5);
        assert!(matches!(label_windows(&p, &tiny, 5), Err(LarpError::InsufficientData(_))));
        assert!(matches!(label_ids(&p, &t, 5, 0), Err(LarpError::InvalidConfig(_))));
    }
}
