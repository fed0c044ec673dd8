//! The training core (paper §6.1, Figure 3) as one fused pass.
//!
//! Every (re)train runs the same three phases:
//!
//! 1. **Front** — z-score the window, fit the pool on it, label every
//!    `(window, next value)` pair model-major, and take the PCA means and
//!    covariance straight from the overlapping windows of the normalised
//!    series (no per-window matrix copy).
//! 2. **Eigensolve** — one [`SymEigen::decompose`] of that covariance.
//! 3. **Back** — project the windows onto the leading components, index the
//!    labelled points for k-NN, and (for a retrain) probe that the model
//!    forecasts its own tail finitely, from the already-normalised series.
//!
//! [`TrainedLarp::train`] and [`RetrainRequest::fit`](crate::RetrainRequest::fit)
//! both delegate here.

use learn::{KnnClassifier, LearnError, Pca};
use linalg::{Matrix, SymEigen};
use predictors::{PredictorId, PredictorPool};
use timeseries::ZScore;

use crate::config::{FeatureReduction, LarpConfig};
use crate::labeler::label_ids;
use crate::model::{default_threads, Scratch, TrainedLarp};
use crate::{LarpError, Result};

/// Runs the three phases on one raw series with `threads` labelling threads
/// (`config` already validated). Returns the model and the normalised
/// series, for the probe.
fn fit_normalized(
    train: &[f64],
    config: &LarpConfig,
    threads: usize,
) -> Result<(TrainedLarp, Vec<f64>)> {
    let m = config.window;
    // Need enough windows for PCA (>= 2) and for k neighbours.
    let min_windows = config.k.max(2);
    if train.len() < m + min_windows {
        return Err(LarpError::InsufficientData(format!(
            "training series of length {} cannot produce {min_windows} windows of size {m}",
            train.len()
        )));
    }
    let zscore = ZScore::fit(train)?;
    let normalized = zscore.apply_slice(train);
    let pool = PredictorPool::from_specs(&config.pool, &normalized)?;
    let labels = label_ids(&pool, &normalized, m, threads)?;
    let count = labels.len();
    // The training windows are the overlapping length-m slices of the
    // normalised series that have a target.
    let windows = || normalized.windows(m).take(count);
    let (pca, points, dim) = match config.reduction {
        FeatureReduction::None => (None, windows().flatten().copied().collect(), m),
        FeatureReduction::Pca { .. } | FeatureReduction::PcaFraction { .. } => {
            let mean = Matrix::means_of_rows(windows(), m);
            let cov = Matrix::covariance_of_rows(windows(), &mean);
            let eig =
                SymEigen::decompose(&cov).map_err(|e| LearnError::Numerical(e.to_string()))?;
            let p = match config.reduction {
                FeatureReduction::Pca { dims } => Pca::from_eigen(mean, &eig, dims)?,
                FeatureReduction::PcaFraction { min_fraction } => {
                    Pca::from_eigen_fraction(mean, &eig, min_fraction)?
                }
                FeatureReduction::None => unreachable!("matched above"),
            };
            let dim = p.n_components();
            // `Pca::transform_into` on every window, under one dispatch.
            let mut features = Vec::with_capacity(count * dim);
            let components = p.components().as_slice();
            linalg::kernels::project_windows(
                components,
                p.mean(),
                &normalized,
                count,
                &mut features,
            );
            (Some(Box::new(p)), features, dim)
        }
    };
    let knn = KnnClassifier::fit_flat(points, dim, labels, config.k, config.backend)?;
    let model =
        TrainedLarp { config: config.clone(), zscore, pool, pca, knn, train_len: train.len() };
    Ok((model, normalized))
}

/// Whether the model forecasts a finite next value from its own training
/// tail: `predict_next_raw` on the tail, minus re-normalising it.
fn probe(model: &TrainedLarp, normalized: &[f64]) -> bool {
    let Scratch { features, neighbors, .. } = &mut Scratch::new();
    let window = &normalized[normalized.len() - model.config.window..];
    if model.features_for_into(window, features).is_err() {
        return false;
    }
    match model.knn.classify_into(features, neighbors) {
        Ok(id) => {
            let z = model.pool.predict_one(PredictorId(id), normalized);
            model.zscore.invert(z).is_finite()
        }
        Err(_) => false,
    }
}

/// Runs the full training phase on one raw series with `threads` labelling
/// threads — the body of [`TrainedLarp::train_with_threads`].
pub(crate) fn train(train: &[f64], config: &LarpConfig, threads: usize) -> Result<TrainedLarp> {
    config.validate()?;
    fit_normalized(train, config, threads).map(|(model, _)| model)
}

/// A retrain's fit — the body of
/// [`RetrainRequest::fit`](crate::RetrainRequest::fit): the trained model,
/// or `None` when training fails or the model cannot forecast its own tail
/// finitely.
pub(crate) fn fit_retrain(tail: &[f64], config: &LarpConfig) -> Option<TrainedLarp> {
    config.validate().ok()?;
    let (model, normalized) = fit_normalized(tail, config, default_threads()).ok()?;
    probe(&model, &normalized).then_some(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use learn::KnnBackend;

    /// Every fitted part of a model, floats by `to_bits`: z-score, pool
    /// states, PCA (mean, components, eigenvalues, total variance), k-NN
    /// points, labels and shape, plus the heap accounting.
    fn fingerprint(model: &TrainedLarp) -> Vec<u64> {
        let mut out = vec![model.zscore.mean().to_bits(), model.zscore.std().to_bits()];
        for state in model.pool.fitted_states() {
            out.push(state.len() as u64);
            out.extend(state.iter().map(|x| x.to_bits()));
        }
        if let Some(p) = model.pca() {
            out.extend(p.mean().iter().map(|x| x.to_bits()));
            out.extend(p.components().as_slice().iter().map(|x| x.to_bits()));
            out.extend(p.eigenvalues().iter().map(|x| x.to_bits()));
            out.push(p.total_variance().to_bits());
        }
        let knn = model.knn();
        out.extend(knn.points_flat().iter().map(|x| x.to_bits()));
        out.extend(knn.labels().iter().map(|&l| l as u64));
        out.extend([knn.dim() as u64, knn.k() as u64, knn.len() as u64, model.train_len as u64]);
        let (own, pca) = model.heap_bytes_split();
        out.extend([own as u64, pca as u64]);
        out
    }

    /// The fit as defined before the fused core: train, then require a
    /// finite `predict_next_raw` on the raw tail.
    fn reference_fit(tail: &[f64], config: &LarpConfig) -> Option<TrainedLarp> {
        TrainedLarp::train(tail, config)
            .ok()
            .filter(|m| matches!(m.predict_next_raw(tail), Ok((_, f)) if f.is_finite()))
    }

    /// The training phase as it read before the fused core: per-window
    /// labels, a copied window matrix, `Pca::fit`, per-window projection.
    /// Returns the PCA, the k-NN points and the labels the model must hold.
    fn unfused(tail: &[f64], config: &LarpConfig) -> (Option<Pca>, Vec<f64>, Vec<usize>) {
        let m = config.window;
        let normalized = ZScore::fit(tail).unwrap().apply_slice(tail);
        let pool = PredictorPool::from_specs(&config.pool, &normalized).unwrap();
        let n = normalized.len() - m;
        let labels: Vec<usize> =
            (0..n).map(|i| pool.best_id(&normalized[i..i + m], normalized[i + m]).0).collect();
        let rows: Vec<Vec<f64>> = (0..n).map(|i| normalized[i..i + m].to_vec()).collect();
        let matrix = Matrix::from_rows(&rows).unwrap();
        let pca = match config.reduction {
            FeatureReduction::Pca { dims } => Pca::fit(&matrix, dims).unwrap(),
            FeatureReduction::PcaFraction { min_fraction } => {
                Pca::fit_fraction(&matrix, min_fraction).unwrap()
            }
            FeatureReduction::None => return (None, matrix.as_slice().to_vec(), labels),
        };
        let points = rows.iter().flat_map(|r| pca.transform(r).unwrap()).collect();
        (Some(pca), points, labels)
    }

    fn tails(m: usize, count: u64) -> Vec<Vec<f64>> {
        let len = 8 * m;
        (0..count)
            .map(|stream| {
                let mut signal = vmsim::fleet_signal(11, stream);
                (300..300 + len as u64).map(|minute| signal.sample(minute)).collect()
            })
            .collect()
    }

    #[test]
    fn fused_fit_equals_the_unfused_reference_bitwise() {
        let mut kd = LarpConfig::paper(5);
        kd.backend = KnnBackend::KdTree;
        let mut fraction = LarpConfig::paper(5);
        fraction.reduction = FeatureReduction::PcaFraction { min_fraction: 0.9 };
        let mut raw = LarpConfig::paper(5);
        raw.reduction = FeatureReduction::None;
        let configs = [
            LarpConfig::paper(5),
            LarpConfig::paper(16),
            LarpConfig::extended(5),
            fraction,
            raw,
            kd,
        ];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for config in &configs {
            let m = config.window;
            let mut windows = tails(m, 6);
            // A constant window (zero variance) and a NaN-poisoned one.
            windows[1] = vec![7.5; 8 * m];
            windows[4][4 * m] = f64::NAN;
            for (i, tail) in windows.iter().enumerate() {
                let what = format!("m={m} reduction={:?} window {i}", config.reduction);
                let got = fit_retrain(tail, config);
                match i {
                    1 => assert!(got.is_some(), "{what}: a constant window still trains"),
                    4 => assert!(got.is_none(), "{what}: a NaN-poisoned window must not install"),
                    _ => {}
                }
                assert_eq!(
                    got.as_ref().map(fingerprint),
                    reference_fit(tail, config).as_ref().map(fingerprint),
                    "{what}"
                );
                let Some(model) = got else { continue };
                let (pca, points, labels) = unfused(tail, config);
                assert_eq!(model.pca().is_some(), pca.is_some(), "{what}: reduction");
                if let (Some(got), Some(want)) = (model.pca(), &pca) {
                    assert_eq!(bits(got.mean()), bits(want.mean()), "{what}: PCA mean");
                    assert_eq!(
                        bits(got.components().as_slice()),
                        bits(want.components().as_slice()),
                        "{what}: PCA components"
                    );
                    assert_eq!(bits(got.eigenvalues()), bits(want.eigenvalues()), "{what}");
                    assert_eq!(got.total_variance().to_bits(), want.total_variance().to_bits());
                }
                assert_eq!(bits(model.knn().points_flat()), bits(&points), "{what}: points");
                assert_eq!(model.knn().labels(), labels.as_slice(), "{what}: labels");
            }
        }
    }

    #[test]
    fn fit_retrain_rejects_an_invalid_config() {
        let mut config = LarpConfig::paper(5);
        config.k = 0;
        assert!(tails(5, 3).iter().all(|t| fit_retrain(t, &config).is_none()));
    }
}
