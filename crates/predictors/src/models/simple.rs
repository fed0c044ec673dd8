//! Simple history-summary models: LAST, means, EWMA.

use crate::{Predictor, PredictorError, Result};

/// The LAST model (paper Eq. 2): the forecast is the most recent value.
///
/// Best on smooth traces where consecutive samples are strongly correlated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Last;

impl Predictor for Last {
    fn name(&self) -> &'static str {
        "LAST"
    }

    fn min_history(&self) -> usize {
        1
    }

    fn predict(&self, history: &[f64]) -> f64 {
        *history.last().expect("LAST requires at least one point")
    }

    fn forecast_windows(&self, series: &[f64], m: usize, out: &mut [f64]) {
        for (o, window) in crate::each_window(series, m, out) {
            *o = window[m - 1];
        }
    }
}

/// The sliding-window average (paper Eq. 3): mean of the last `window` values.
///
/// Best on noisy but stationary traces, where averaging cancels measurement
/// noise. If the provided history is shorter than the window (but at least one
/// point), the available prefix is averaged.
#[derive(Debug, Clone, Copy)]
pub struct SwAvg {
    window: usize,
}

impl SwAvg {
    /// Creates a sliding-window average over the last `window` points.
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError::InvalidParameter`] if `window == 0`.
    pub fn new(window: usize) -> Result<Self> {
        if window == 0 {
            return Err(PredictorError::InvalidParameter("SW_AVG window must be positive".into()));
        }
        Ok(Self { window })
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Predictor for SwAvg {
    fn name(&self) -> &'static str {
        "SW_AVG"
    }

    fn min_history(&self) -> usize {
        1
    }

    fn predict(&self, history: &[f64]) -> f64 {
        let start = history.len().saturating_sub(self.window);
        let tail = &history[start..];
        linalg::kernels::sum(tail) / tail.len() as f64
    }

    fn forecast_windows(&self, series: &[f64], m: usize, out: &mut [f64]) {
        // Each window's tail is the last `min(m, window)` values: the
        // windows of that length starting `start` values in.
        let start = m.saturating_sub(self.window);
        linalg::kernels::window_sums(&series[start..], m - start, out);
        let len = (m - start) as f64;
        for o in out.iter_mut() {
            *o /= len;
        }
    }
}

/// The full-history mean (NWS's RUN_AVG): averages every provided point.
///
/// Differs from [`SwAvg`] only when the caller supplies more history than the
/// sliding window — the NWS baseline selectors do.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean;

impl Predictor for Mean {
    fn name(&self) -> &'static str {
        "MEAN"
    }

    fn min_history(&self) -> usize {
        1
    }

    fn predict(&self, history: &[f64]) -> f64 {
        linalg::kernels::sum(history) / history.len() as f64
    }
}

/// Exponentially weighted moving average: `s ← α·x + (1-α)·s`, seeded with the
/// oldest provided value; the forecast is the final smoothed state.
///
/// `alpha` near 1 behaves like LAST; near 0 like the full mean.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError::InvalidParameter`] if `alpha` is outside
    /// `(0, 1]` or non-finite.
    pub fn new(alpha: f64) -> Result<Self> {
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) || alpha == 0.0 {
            return Err(PredictorError::InvalidParameter(format!(
                "EWMA smoothing factor must be in (0, 1], got {alpha}"
            )));
        }
        Ok(Self { alpha })
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Predictor for Ewma {
    fn name(&self) -> &'static str {
        "EWMA"
    }

    fn min_history(&self) -> usize {
        1
    }

    fn predict(&self, history: &[f64]) -> f64 {
        let mut s = history[0];
        for &x in &history[1..] {
            s = self.alpha * x + (1.0 - self.alpha) * s;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_returns_most_recent() {
        assert_eq!(Last.predict(&[1.0, 2.0, 3.0]), 3.0);
        assert_eq!(Last.predict(&[7.0]), 7.0);
    }

    #[test]
    fn last_is_exact_on_constant_series() {
        assert_eq!(Last.predict(&[5.0, 5.0, 5.0]), 5.0);
    }

    #[test]
    fn sw_avg_uses_only_the_window() {
        let m = SwAvg::new(2).unwrap();
        assert_eq!(m.predict(&[100.0, 2.0, 4.0]), 3.0);
    }

    #[test]
    fn sw_avg_short_history_averages_what_exists() {
        let m = SwAvg::new(10).unwrap();
        assert_eq!(m.predict(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn sw_avg_rejects_zero_window() {
        assert!(SwAvg::new(0).is_err());
    }

    #[test]
    fn mean_averages_everything() {
        assert_eq!(Mean.predict(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn ewma_alpha_one_is_last() {
        let m = Ewma::new(1.0).unwrap();
        let h = [1.0, 9.0, 4.0];
        assert_eq!(m.predict(&h), Last.predict(&h));
    }

    #[test]
    fn ewma_small_alpha_stays_near_start() {
        let m = Ewma::new(0.01).unwrap();
        let h = [10.0, 0.0, 0.0, 0.0];
        assert!(m.predict(&h) > 9.0);
    }

    #[test]
    fn ewma_constant_series_is_fixed_point() {
        let m = Ewma::new(0.3).unwrap();
        assert!((m.predict(&[4.0; 20]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_validates_alpha() {
        assert!(Ewma::new(0.0).is_err());
        assert!(Ewma::new(1.5).is_err());
        assert!(Ewma::new(f64::NAN).is_err());
        assert!(Ewma::new(0.5).is_ok());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Last.name(), "LAST");
        assert_eq!(SwAvg::new(3).unwrap().name(), "SW_AVG");
        assert_eq!(Mean.name(), "MEAN");
        assert_eq!(Ewma::new(0.5).unwrap().name(), "EWMA");
    }
}
