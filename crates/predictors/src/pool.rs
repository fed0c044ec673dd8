//! The predictor pool: a fitted set of models addressed by [`PredictorId`].

use crate::{ModelSpec, Predictor, PredictorError, Result};

/// Index of a model within its pool.
///
/// Display is 1-based to match the paper's figure legends
/// ("Predictor Class: 1 - LAST, 2 - AR, 3 - SW_AVG").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredictorId(pub usize);

impl std::fmt::Display for PredictorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A fitted pool of predictors sharing one training context.
pub struct PredictorPool {
    models: Vec<Box<dyn Predictor>>,
    specs: Vec<ModelSpec>,
}

impl PredictorPool {
    /// Builds a pool from specs, fitting each model against `train`.
    ///
    /// # Errors
    ///
    /// Returns the first build error, or
    /// [`PredictorError::InvalidParameter`] for an empty spec list.
    pub fn from_specs(specs: &[ModelSpec], train: &[f64]) -> Result<Self> {
        if specs.is_empty() {
            return Err(PredictorError::InvalidParameter("pool must contain a model".into()));
        }
        let models = specs.iter().map(|s| s.build(train)).collect::<Result<Vec<_>>>()?;
        Ok(Self { models, specs: specs.to_vec() })
    }

    /// The paper's pool {LAST, AR(order), SW_AVG(order)} fitted on `train`.
    ///
    /// # Errors
    ///
    /// Propagates AR fitting errors (e.g. training series shorter than
    /// `2 * order`).
    pub fn standard(train: &[f64], order: usize) -> Result<Self> {
        Self::from_specs(&ModelSpec::standard_pool(order), train)
    }

    /// The extended 11-model pool fitted on `train`.
    ///
    /// # Errors
    ///
    /// Propagates build errors from any member model.
    pub fn extended(train: &[f64], order: usize) -> Result<Self> {
        Self::from_specs(&ModelSpec::extended_pool(order), train)
    }

    /// Reconstructs a fitted pool from specs plus the per-member fitted state
    /// previously extracted with [`PredictorPool::fitted_states`] — no
    /// training data, no refitting.
    ///
    /// # Errors
    ///
    /// * [`PredictorError::InvalidParameter`] for an empty spec list or a
    ///   state list whose length differs from the spec list;
    /// * propagated [`ModelSpec::rebuild`] errors.
    pub fn from_fitted(specs: &[ModelSpec], states: &[Vec<f64>]) -> Result<Self> {
        if specs.is_empty() {
            return Err(PredictorError::InvalidParameter("pool must contain a model".into()));
        }
        if specs.len() != states.len() {
            return Err(PredictorError::InvalidParameter(format!(
                "{} specs vs {} fitted states",
                specs.len(),
                states.len()
            )));
        }
        let models =
            specs.iter().zip(states).map(|(s, st)| s.rebuild(st)).collect::<Result<Vec<_>>>()?;
        Ok(Self { models, specs: specs.to_vec() })
    }

    /// Every member's train-derived state, in pool order (empty vectors for
    /// the non-parametric models). Together with the specs this fully
    /// describes the fitted pool.
    pub fn fitted_states(&self) -> Vec<Vec<f64>> {
        self.models.iter().map(|m| m.fitted_state()).collect()
    }

    /// All specs in pool order.
    pub fn specs(&self) -> &[ModelSpec] {
        &self.specs
    }

    /// Approximate heap bytes held by the fitted pool: the boxed model list,
    /// the spec list, and every member's fitted state. Walks `fitted_state`
    /// (which allocates transiently), so this is for cold-path memory
    /// accounting only — never call it from the serving loop.
    pub fn heap_bytes(&self) -> usize {
        let state_doubles: usize = self.models.iter().map(|m| m.fitted_state().len()).sum();
        self.models.capacity() * std::mem::size_of::<Box<dyn Predictor>>()
            + self.specs.capacity() * std::mem::size_of::<ModelSpec>()
            + state_doubles * std::mem::size_of::<f64>()
    }

    /// Number of models in the pool.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the pool is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// All valid ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = PredictorId> {
        (0..self.models.len()).map(PredictorId)
    }

    /// The display name of model `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this pool.
    pub fn name(&self, id: PredictorId) -> &'static str {
        self.models[id.0].name()
    }

    /// All model names in pool order.
    pub fn names(&self) -> Vec<&'static str> {
        self.models.iter().map(|m| m.name()).collect()
    }

    /// The spec that produced model `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this pool.
    pub fn spec(&self, id: PredictorId) -> &ModelSpec {
        &self.specs[id.0]
    }

    /// The largest `min_history` over the pool — the number of warm-up points
    /// a driver must supply before every model can predict.
    pub fn min_history(&self) -> usize {
        self.models.iter().map(|m| m.min_history()).max().unwrap_or(1)
    }

    /// Runs a single model.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `history` is shorter than the pool's
    /// [`min_history`](Self::min_history) for that model.
    pub fn predict_one(&self, id: PredictorId, history: &[f64]) -> f64 {
        let m = &self.models[id.0];
        assert!(
            history.len() >= m.min_history(),
            "{} needs {} points, got {}",
            m.name(),
            m.min_history(),
            history.len()
        );
        m.predict(history)
    }

    /// Runs every model on the same history (the mix-of-expert step of the
    /// training phase), returning forecasts in pool order.
    ///
    /// # Panics
    ///
    /// Panics if `history` is shorter than the pool's
    /// [`min_history`](Self::min_history).
    pub fn predict_all(&self, history: &[f64]) -> Vec<f64> {
        assert!(
            history.len() >= self.min_history(),
            "pool needs {} points, got {}",
            self.min_history(),
            history.len()
        );
        self.models.iter().map(|m| m.predict(history)).collect()
    }

    /// Identifies the best predictor for one step: the model whose forecast has
    /// the smallest absolute error against `actual` (the paper's §7.2.1
    /// labelling rule). Ties break toward the lower id, making labels
    /// deterministic. A non-finite error (NaN forecast or actual) ranks after
    /// every finite one, so corrupted inputs degrade the label rather than
    /// aborting the whole training pass.
    ///
    /// # Panics
    ///
    /// Panics if `history` is shorter than the pool's
    /// [`min_history`](Self::min_history).
    pub fn best_for(&self, history: &[f64], actual: f64) -> (PredictorId, Vec<f64>) {
        let forecasts = self.predict_all(history);
        let best = forecasts
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - actual).abs().total_cmp(&(*b - actual).abs()))
            .map(|(i, _)| PredictorId(i))
            .expect("pool is non-empty");
        (best, forecasts)
    }

    /// [`PredictorPool::best_for`] without materialising the forecast vector:
    /// a streaming argmin over the same per-model forecasts, in the same
    /// order, under the same total order on absolute error — so the returned
    /// id always equals `best_for(history, actual).0`. This is the
    /// allocation-free labelling step the retrain path runs once per training
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `history` is shorter than the pool's
    /// [`min_history`](Self::min_history).
    pub fn best_id(&self, history: &[f64], actual: f64) -> PredictorId {
        assert!(
            history.len() >= self.min_history(),
            "pool needs {} points, got {}",
            self.min_history(),
            history.len()
        );
        let mut best = PredictorId(0);
        let mut best_err = f64::INFINITY;
        for (i, m) in self.models.iter().enumerate() {
            let err = (m.predict(history) - actual).abs();
            // Strict `Less` keeps the first minimum — `min_by`'s tie rule.
            if i == 0 || err.total_cmp(&best_err) == std::cmp::Ordering::Less {
                best = PredictorId(i);
                best_err = err;
            }
        }
        best
    }

    /// Labels every `(window, next value)` pair of `series` at once:
    /// `labels[i] = best_id(&series[i..i + m], series[i + m])` for each
    /// `i < series.len() - m`, under the same total order on absolute error
    /// and the same first-minimum tie rule. Model-major: each member
    /// forecasts every window through [`Predictor::forecast_windows`] before
    /// the next member runs.
    ///
    /// # Panics
    ///
    /// Panics if `m` is shorter than the pool's
    /// [`min_history`](Self::min_history).
    pub fn best_ids(&self, series: &[f64], m: usize) -> Vec<usize> {
        assert!(
            m >= self.min_history(),
            "pool needs {} points, got windows of {m}",
            self.min_history()
        );
        let count = series.len().saturating_sub(m);
        if count == 0 {
            return Vec::new();
        }
        let targets = &series[m..];
        let mut buffer = vec![0.0; 2 * count];
        let (forecasts, best_err) = buffer.split_at_mut(count);
        let mut labels = vec![0; count];
        for (i, model) in self.models.iter().enumerate() {
            model.forecast_windows(series, m, forecasts);
            if i == 0 {
                for ((best, &f), &actual) in best_err.iter_mut().zip(&*forecasts).zip(targets) {
                    *best = (f - actual).abs();
                }
                continue;
            }
            for w in 0..count {
                let err = (forecasts[w] - targets[w]).abs();
                // Strict `Less` keeps the first minimum — `best_id`'s rule.
                // Select rather than branch: which member wins is data noise.
                let better = err.total_cmp(&best_err[w]) == std::cmp::Ordering::Less;
                labels[w] = if better { i } else { labels[w] };
                best_err[w] = if better { err } else { best_err[w] };
            }
        }
        labels
    }
}

impl std::fmt::Debug for PredictorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorPool").field("models", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train() -> Vec<f64> {
        (0..100).map(|i| (i as f64 * 0.2).sin()).collect()
    }

    #[test]
    fn standard_pool_has_paper_ordering() {
        let pool = PredictorPool::standard(&train(), 5).unwrap();
        assert_eq!(pool.names(), vec!["LAST", "AR", "SW_AVG"]);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn predictor_id_displays_one_based() {
        assert_eq!(PredictorId(0).to_string(), "1");
        assert_eq!(PredictorId(2).to_string(), "3");
    }

    #[test]
    fn predict_all_matches_predict_one() {
        let pool = PredictorPool::standard(&train(), 5).unwrap();
        let h: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let all = pool.predict_all(&h);
        for id in pool.ids() {
            assert_eq!(all[id.0], pool.predict_one(id, &h));
        }
    }

    #[test]
    fn best_for_picks_minimal_absolute_error() {
        let pool = PredictorPool::standard(&train(), 3).unwrap();
        // Ramp history: LAST says 9, SW_AVG says 8, AR says something else.
        let h = [7.0, 8.0, 9.0];
        let (best, forecasts) = pool.best_for(&h, 9.0);
        let err_best = (forecasts[best.0] - 9.0).abs();
        for f in &forecasts {
            assert!(err_best <= (f - 9.0).abs() + 1e-15);
        }
    }

    #[test]
    fn best_id_matches_best_for() {
        let t = train();
        let pool = PredictorPool::standard(&t, 5).unwrap();
        for end in 10..60 {
            let h = &t[..end];
            let actual = t[end];
            assert_eq!(pool.best_id(h, actual), pool.best_for(h, actual).0);
        }
        // Non-finite actual exercises the total_cmp ordering (NaN errors rank
        // after every finite one in both implementations).
        let h = &t[..20];
        assert_eq!(pool.best_id(h, f64::NAN), pool.best_for(h, f64::NAN).0);
    }

    #[test]
    fn best_for_tie_breaks_to_lower_id() {
        // A constant history makes LAST and SW_AVG produce identical
        // forecasts; the tie must resolve to LAST (id 0).
        let t = [1.0; 50];
        let pool = PredictorPool::standard(&t, 3).unwrap();
        let (best, _) = pool.best_for(&[1.0, 1.0, 1.0], 1.0);
        assert_eq!(best, PredictorId(0));
    }

    #[test]
    fn min_history_is_pool_maximum() {
        let pool = PredictorPool::standard(&train(), 7).unwrap();
        assert_eq!(pool.min_history(), 7); // AR(7) dominates
    }

    #[test]
    #[should_panic(expected = "pool needs")]
    fn predict_all_panics_on_short_history() {
        let pool = PredictorPool::standard(&train(), 5).unwrap();
        pool.predict_all(&[1.0, 2.0]);
    }

    #[test]
    fn empty_spec_list_rejected() {
        assert!(matches!(
            PredictorPool::from_specs(&[], &train()),
            Err(PredictorError::InvalidParameter(_))
        ));
    }

    #[test]
    fn extended_pool_builds_with_eleven_models() {
        let pool = PredictorPool::extended(&train(), 5).unwrap();
        assert_eq!(pool.len(), 11);
        let h: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).cos()).collect();
        for p in pool.predict_all(&h) {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn spec_accessor_round_trips() {
        let pool = PredictorPool::standard(&train(), 4).unwrap();
        assert_eq!(pool.spec(PredictorId(1)), &ModelSpec::Ar { order: 4 });
    }
}
