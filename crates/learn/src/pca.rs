//! Principal component analysis (paper §5.2).
//!
//! PCA here is a fitted linear map: the mean vector `μ` and the top-`n`
//! eigenvectors `V_q` of the training covariance (paper Eq. 7). Fitting uses
//! the Jacobi eigensolver — exact for the tiny `m × m` covariances produced by
//! prediction windows (`m ≤ 16` in all the paper's experiments).

use linalg::{Matrix, SymEigen};

use crate::{LearnError, Result};

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// `n × d` projection matrix: rows are the leading unit eigenvectors.
    components: Matrix,
    eigenvalues: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits PCA on `data` (rows = observations) keeping `n` components.
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] if `n == 0` or `n > d`;
    /// * [`LearnError::InsufficientData`] if `data` has fewer than 2 rows;
    /// * [`LearnError::Numerical`] if the eigensolver fails.
    pub fn fit(data: &Matrix, n: usize) -> Result<Self> {
        check_dims(n, data.cols())?;
        let (mean, eig) = Self::decompose(data)?;
        Self::from_eigen(mean, &eig, n)
    }

    /// Fits PCA keeping the smallest number of components whose cumulative
    /// explained variance reaches `min_fraction` (the paper's "predefined
    /// minimal fraction variance" criterion), with at least one component.
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] if `min_fraction` is outside `(0, 1]`;
    /// * same data conditions as [`Pca::fit`].
    pub fn fit_fraction(data: &Matrix, min_fraction: f64) -> Result<Self> {
        check_fraction(min_fraction)?;
        check_dims(data.cols(), data.cols())?;
        let (mean, eig) = Self::decompose(data)?;
        Self::from_eigen_fraction(mean, &eig, min_fraction)
    }

    /// Column means and the eigendecomposition of the covariance about them.
    fn decompose(data: &Matrix) -> Result<(Vec<f64>, SymEigen)> {
        if data.rows() < 2 {
            return Err(LearnError::InsufficientData(format!(
                "PCA needs at least 2 observations, got {}",
                data.rows()
            )));
        }
        let mean = data.column_means();
        let cov = data.covariance_about(&mean).map_err(|e| LearnError::Numerical(e.to_string()))?;
        let eig = SymEigen::decompose(&cov).map_err(|e| LearnError::Numerical(e.to_string()))?;
        Ok((mean, eig))
    }

    /// Builds the projection from training means and the eigendecomposition
    /// of the covariance about them, keeping the leading `n` components —
    /// the second half of [`Pca::fit`], for callers that computed the
    /// moments and solved the eigenproblem themselves (the fused retrain).
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] if `n == 0` or `n > d`;
    /// * [`LearnError::ShapeMismatch`] if `mean` and `eig` disagree on `d`.
    pub fn from_eigen(mean: Vec<f64>, eig: &SymEigen, n: usize) -> Result<Self> {
        let d = eig.eigenvalues.len();
        check_dims(n, d)?;
        if mean.len() != d {
            return Err(LearnError::ShapeMismatch(format!(
                "{} means vs a {d}-dimensional eigendecomposition",
                mean.len()
            )));
        }
        let (eigenvalues, total_variance) = clamped(eig);
        let mut components = Matrix::zeros(n, d);
        for c in 0..n {
            for (r, x) in components.row_mut(c).iter_mut().enumerate() {
                *x = eig.eigenvectors[(r, c)];
            }
        }
        Ok(Self { mean, components, eigenvalues: eigenvalues[..n].to_vec(), total_variance })
    }

    /// [`Pca::from_eigen`] keeping as many components as
    /// [`Pca::fit_fraction`] would: the fewest whose cumulative explained
    /// variance reaches `min_fraction`, one for constant data.
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] if `min_fraction` is outside `(0, 1]`;
    /// * same conditions as [`Pca::from_eigen`].
    pub fn from_eigen_fraction(mean: Vec<f64>, eig: &SymEigen, min_fraction: f64) -> Result<Self> {
        check_fraction(min_fraction)?;
        let (eigenvalues, total) = clamped(eig);
        let n = if total <= 0.0 {
            // Constant data: one component is as good as any.
            1
        } else {
            eigenvalues
                .iter()
                .scan(0.0, |acc, &l| {
                    *acc += l;
                    Some(*acc)
                })
                .position(|acc| acc / total >= min_fraction)
                .map_or(eigenvalues.len(), |i| i + 1)
        };
        Self::from_eigen(mean, eig, n)
    }

    /// Reconstructs a fitted projection from its parts (the accessors are the
    /// inverse), for serialized-model restore without refitting.
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] for an empty projection or a
    ///   non-finite `total_variance`;
    /// * [`LearnError::ShapeMismatch`] if `mean`/`eigenvalues` lengths do not
    ///   match the projection matrix.
    pub fn from_parts(
        mean: Vec<f64>,
        components: Matrix,
        eigenvalues: Vec<f64>,
        total_variance: f64,
    ) -> Result<Self> {
        if components.rows() == 0 || components.cols() == 0 {
            return Err(LearnError::InvalidParameter(
                "PCA restore needs a non-empty projection matrix".into(),
            ));
        }
        if !total_variance.is_finite() {
            return Err(LearnError::InvalidParameter(format!(
                "PCA total variance must be finite, got {total_variance}"
            )));
        }
        if mean.len() != components.cols() {
            return Err(LearnError::ShapeMismatch(format!(
                "mean dim {} vs projection input dim {}",
                mean.len(),
                components.cols()
            )));
        }
        if eigenvalues.len() != components.rows() {
            return Err(LearnError::ShapeMismatch(format!(
                "{} eigenvalues vs {} components",
                eigenvalues.len(),
                components.rows()
            )));
        }
        Ok(Self { mean, components, eigenvalues, total_variance })
    }

    /// The training mean vector `μ`.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The `n × d` projection matrix (rows are unit eigenvectors).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Total training variance (sum of all covariance eigenvalues).
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// Number of retained components `n`.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Input dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.components.cols()
    }

    /// Eigenvalues of the retained components (descending).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Heap bytes held by the fitted projection (mean + components +
    /// eigenvalues), for per-stream memory accounting.
    pub fn heap_bytes(&self) -> usize {
        (self.mean.capacity()
            + self.components.rows() * self.components.cols()
            + self.eigenvalues.capacity())
            * std::mem::size_of::<f64>()
    }

    /// Fraction of total training variance captured by each retained component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        if self.total_variance <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues.iter().map(|&l| l / self.total_variance).collect()
    }

    /// Projects one observation into the component space.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `x.len() != input_dim()`.
    pub fn transform(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.n_components());
        self.transform_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Pca::transform`] into a caller-owned buffer (cleared first), for
    /// allocation-free repeated projection. Bit-identical to `transform`:
    /// each output is the same projection kernel applied to the same
    /// component row, and the kernel itself is bit-identical across its
    /// scalar/AVX2 dispatches.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `x.len() != input_dim()`.
    pub fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.input_dim() {
            return Err(LearnError::ShapeMismatch(format!(
                "PCA::transform: expected dim {}, got {}",
                self.input_dim(),
                x.len()
            )));
        }
        out.clear();
        for c in 0..self.n_components() {
            out.push(linalg::kernels::project_dot(self.components.row(c), x, &self.mean));
        }
        Ok(())
    }

    /// Projects every row of `data`, producing an `N × n` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `data.cols() != input_dim()`.
    pub fn transform_matrix(&self, data: &Matrix) -> Result<Matrix> {
        if data.cols() != self.input_dim() {
            return Err(LearnError::ShapeMismatch(format!(
                "PCA::transform_matrix: expected dim {}, got {}",
                self.input_dim(),
                data.cols()
            )));
        }
        let mut out = Matrix::zeros(data.rows(), self.n_components());
        for (i, row) in data.iter_rows().enumerate() {
            let z = self.transform(row)?;
            out.row_mut(i).copy_from_slice(&z);
        }
        Ok(out)
    }

    /// Maps a projected point back to the input space (`μ + V_qᵀ λ`, Eq. 7) —
    /// the least-squares reconstruction.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `z.len() != n_components()`.
    pub fn inverse_transform(&self, z: &[f64]) -> Result<Vec<f64>> {
        if z.len() != self.n_components() {
            return Err(LearnError::ShapeMismatch(format!(
                "PCA::inverse_transform: expected dim {}, got {}",
                self.n_components(),
                z.len()
            )));
        }
        let mut out = self.mean.clone();
        for (c, &zc) in z.iter().enumerate() {
            linalg::kernels::axpy(zc, self.components.row(c), &mut out);
        }
        Ok(out)
    }
}

/// Checks a component count against the input dimension.
fn check_dims(n: usize, d: usize) -> Result<()> {
    if n == 0 || n > d {
        return Err(LearnError::InvalidParameter(format!(
            "PCA dimension must be in 1..={d}, got {n}"
        )));
    }
    Ok(())
}

/// Checks a minimum explained-variance fraction.
fn check_fraction(min_fraction: f64) -> Result<()> {
    if !(min_fraction.is_finite() && 0.0 < min_fraction && min_fraction <= 1.0) {
        return Err(LearnError::InvalidParameter(format!(
            "variance fraction must be in (0, 1], got {min_fraction}"
        )));
    }
    Ok(())
}

/// Covariance eigenvalues with tiny negative rounding clamped to zero, and
/// their sum (the total variance).
fn clamped(eig: &SymEigen) -> (Vec<f64>, f64) {
    let eigenvalues: Vec<f64> = eig.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
    let total = eigenvalues.iter().sum();
    (eigenvalues, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data stretched along the (1, 1) diagonal with slight noise off-axis.
    fn diagonal_data() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..50 {
            let t = i as f64 / 5.0 - 5.0;
            let off = if i % 2 == 0 { 0.1 } else { -0.1 };
            rows.push(vec![t + off, t - off]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn leading_component_finds_diagonal() {
        let pca = Pca::fit(&diagonal_data(), 1).unwrap();
        let c = pca.components.row(0);
        // Unit vector along (1, 1)/sqrt(2) up to sign — a small tilt remains
        // because the alternating off-axis noise correlates weakly with the
        // trend in this finite sample.
        assert!((c[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-2);
        assert!((c[0] - c[1]).abs() < 1e-2);
    }

    #[test]
    fn fit_is_bit_identical_to_the_two_pass_covariance() {
        // `fit` computes the column means once and centres the covariance on
        // them; the result must match decomposing `Matrix::covariance`, which
        // derives its own means, bit for bit.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                (0..5).map(|j| ((i * 7 + j * 3) as f64 * 0.37).sin() * (j + 1) as f64).collect()
            })
            .collect();
        let data = Matrix::from_rows(&rows).unwrap();
        let pca = Pca::fit(&data, 3).unwrap();
        let eig = SymEigen::decompose(&data.covariance()).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(pca.mean()), bits(&data.column_means()));
        let eigenvalues: Vec<f64> = eig.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        assert_eq!(bits(pca.eigenvalues()), bits(&eigenvalues[..3]));
        assert_eq!(pca.total_variance().to_bits(), eigenvalues.iter().sum::<f64>().to_bits());
        for c in 0..3 {
            assert_eq!(bits(pca.components().row(c)), bits(&eig.eigenvector(c)), "component {c}");
        }
    }

    #[test]
    fn explained_variance_concentrates_on_first_component() {
        let pca = Pca::fit(&diagonal_data(), 2).unwrap();
        let ratio = pca.explained_variance_ratio();
        assert!(ratio[0] > 0.99, "{ratio:?}");
        assert!((ratio.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transform_centers_data() {
        let data = diagonal_data();
        let pca = Pca::fit(&data, 2).unwrap();
        let projected = pca.transform_matrix(&data).unwrap();
        let means = projected.column_means();
        for m in means {
            assert!(m.abs() < 1e-9, "projected mean {m}");
        }
    }

    #[test]
    fn full_rank_projection_reconstructs_exactly() {
        let data = diagonal_data();
        let pca = Pca::fit(&data, 2).unwrap();
        for row in data.iter_rows() {
            let z = pca.transform(row).unwrap();
            let back = pca.inverse_transform(&z).unwrap();
            for (a, b) in back.iter().zip(row) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rank_one_reconstruction_is_least_squares() {
        // Reconstruction error through 1 component must not exceed the
        // variance orthogonal to the leading direction.
        let data = diagonal_data();
        let pca1 = Pca::fit(&data, 1).unwrap();
        let mut total_err = 0.0;
        for row in data.iter_rows() {
            let z = pca1.transform(row).unwrap();
            let back = pca1.inverse_transform(&z).unwrap();
            total_err += back.iter().zip(row).map(|(a, b)| (a - b).powi(2)).sum::<f64>();
        }
        // Off-diagonal noise is ±0.1 in a direction orthogonal to (1,1):
        // squared distance to the axis is 2 * 0.1^2 = 0.02 per point.
        let expected = 0.02 * data.rows() as f64;
        assert!((total_err - expected).abs() < expected * 0.1, "{total_err} vs {expected}");
    }

    #[test]
    fn fit_fraction_selects_minimal_components() {
        let data = diagonal_data();
        // 99% of variance lives on the diagonal: one component suffices.
        let pca = Pca::fit_fraction(&data, 0.95).unwrap();
        assert_eq!(pca.n_components(), 1);
        // Requiring 99.999% forces the second component in.
        let pca2 = Pca::fit_fraction(&data, 0.99999).unwrap();
        assert_eq!(pca2.n_components(), 2);
    }

    /// `fit_fraction` solves the eigenproblem once and truncates; before, it
    /// fitted every component and then called `fit` again with the chosen
    /// count. Both must agree by `to_bits` — same decomposition, top `n`
    /// rows and eigenvalues, same total variance — including constant data.
    #[test]
    fn fit_fraction_equals_the_double_fit_bitwise() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let wavy: Vec<f64> =
            (0..40 * 5).map(|k| ((k / 5 * 7 + k % 5 * 3) as f64 * 0.37).sin()).collect();
        let wavy = Matrix::from_vec(40, 5, wavy).unwrap();
        let constant =
            Matrix::from_rows(&[vec![2.0, 3.0], vec![2.0, 3.0], vec![2.0, 3.0]]).unwrap();
        for data in [diagonal_data(), wavy, constant] {
            for fraction in [0.3, 0.9, 0.95, 0.99999, 1.0] {
                let once = Pca::fit_fraction(&data, fraction).unwrap();
                let twice = Pca::fit(&data, once.n_components()).unwrap();
                assert_eq!(bits(once.mean()), bits(twice.mean()));
                assert_eq!(bits(once.components().as_slice()), bits(twice.components().as_slice()));
                assert_eq!(bits(once.eigenvalues()), bits(twice.eigenvalues()));
                assert_eq!(once.total_variance().to_bits(), twice.total_variance().to_bits());
                assert_eq!(once.heap_bytes(), twice.heap_bytes());
            }
        }
    }

    #[test]
    fn fit_fraction_validates() {
        let data = diagonal_data();
        assert!(Pca::fit_fraction(&data, 0.0).is_err());
        assert!(Pca::fit_fraction(&data, 1.5).is_err());
    }

    #[test]
    fn constant_data_fits_with_zero_variance() {
        let data = Matrix::from_rows(&[vec![2.0, 3.0], vec![2.0, 3.0], vec![2.0, 3.0]]).unwrap();
        let pca = Pca::fit(&data, 1).unwrap();
        assert_eq!(pca.explained_variance_ratio(), vec![0.0]);
        // Everything projects to the origin.
        assert_eq!(pca.transform(&[2.0, 3.0]).unwrap(), vec![0.0]);
        let frac = Pca::fit_fraction(&data, 0.9).unwrap();
        assert_eq!(frac.n_components(), 1);
    }

    #[test]
    fn parameter_validation() {
        let data = diagonal_data();
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 3).is_err());
        let one_row = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(Pca::fit(&one_row, 1).is_err());
    }

    #[test]
    fn shape_mismatches_rejected() {
        let pca = Pca::fit(&diagonal_data(), 2).unwrap();
        assert!(pca.transform(&[1.0]).is_err());
        assert!(pca.inverse_transform(&[1.0, 2.0, 3.0]).is_err());
        let wrong = Matrix::zeros(3, 5);
        assert!(pca.transform_matrix(&wrong).is_err());
    }

    #[test]
    fn projection_preserves_pairwise_structure_on_dominant_axis() {
        // Points far apart along the diagonal must stay far apart after a
        // 2 -> 1 reduction; this is the property the k-NN stage relies on.
        let data = diagonal_data();
        let pca = Pca::fit(&data, 1).unwrap();
        let a = pca.transform(data.row(0)).unwrap();
        let b = pca.transform(data.row(49)).unwrap();
        let c = pca.transform(data.row(1)).unwrap();
        let d_far = (a[0] - b[0]).abs();
        let d_near = (a[0] - c[0]).abs();
        assert!(d_far > 5.0 * d_near);
    }
}
