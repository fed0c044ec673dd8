//! Randomized property tests for the linear-algebra kernels.
//!
//! Seeded `simrng` loops replace the original proptest strategies so the
//! suite runs without external crates; every case is deterministic per seed.

use simrng::{Rng64, Xoshiro256pp};

use linalg::gauss;
use linalg::toeplitz::{levinson_durbin, toeplitz_matvec};
use linalg::{Cholesky, Matrix, SymEigen};

fn random_vec(rng: &mut Xoshiro256pp, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
}

/// Random symmetric matrix built as A = (B + Bᵀ)/2 from bounded entries.
fn symmetric(rng: &mut Xoshiro256pp, n: usize) -> Matrix {
    let b = Matrix::from_vec(n, n, random_vec(rng, n * n, -5.0, 5.0)).unwrap();
    let mut a = b.add(&b.transpose()).unwrap();
    a.scale(0.5);
    a
}

/// Random symmetric positive-definite matrix: A = BᵀB + εI.
fn spd(rng: &mut Xoshiro256pp, n: usize) -> Matrix {
    let b = Matrix::from_vec(n, n, random_vec(rng, n * n, -3.0, 3.0)).unwrap();
    let mut a = b.transpose().matmul(&b).unwrap();
    for i in 0..n {
        a[(i, i)] += 0.5;
    }
    a
}

/// Jacobi eigenpairs satisfy A v = λ v and V is orthonormal.
#[test]
fn eigen_residual_and_orthonormality() {
    let mut rng = Xoshiro256pp::seed_from_u64(101);
    for _ in 0..64 {
        let a = symmetric(&mut rng, 6);
        let e = SymEigen::decompose(&a).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        for k in 0..6 {
            let v = e.eigenvector(k);
            let av = a.matvec(&v).unwrap();
            for (x, y) in av.iter().zip(&v) {
                assert!((x - e.eigenvalues[k] * y).abs() < 1e-8 * scale);
            }
        }
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(6)).unwrap() < 1e-9);
    }
}

/// Eigenvalue sum equals the trace; descending order holds.
#[test]
fn eigen_trace_and_order() {
    let mut rng = Xoshiro256pp::seed_from_u64(102);
    for _ in 0..64 {
        let a = symmetric(&mut rng, 5);
        let e = SymEigen::decompose(&a).unwrap();
        let trace: f64 = (0..5).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-10);
        }
    }
}

/// Cholesky reconstructs and solves SPD systems.
#[test]
fn cholesky_solve_round_trip() {
    let mut rng = Xoshiro256pp::seed_from_u64(103);
    for _ in 0..64 {
        let a = spd(&mut rng, 5);
        let x = random_vec(&mut rng, 5, -5.0, 5.0);
        let b = a.matvec(&x).unwrap();
        let c = Cholesky::decompose(&a).unwrap();
        let got = c.solve(&b).unwrap();
        let llt = c.factor().matmul(&c.factor().transpose()).unwrap();
        assert!(llt.max_abs_diff(&a).unwrap() < 1e-8 * a.frobenius_norm().max(1.0));
        // Verify by substitution (robust to conditioning, unlike x-comparison).
        let back = a.matvec(&got).unwrap();
        for (bi, gi) in b.iter().zip(&back) {
            assert!((bi - gi).abs() < 1e-6 * b.iter().map(|v| v.abs()).fold(1.0, f64::max));
        }
    }
}

/// Gaussian elimination agrees with Cholesky on SPD systems.
#[test]
fn gauss_matches_cholesky() {
    let mut rng = Xoshiro256pp::seed_from_u64(104);
    for _ in 0..64 {
        let a = spd(&mut rng, 4);
        let x = random_vec(&mut rng, 4, -5.0, 5.0);
        let b = a.matvec(&x).unwrap();
        let g = gauss::solve(&a, &b).unwrap();
        let c = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
        for (gi, ci) in g.iter().zip(&c) {
            assert!((gi - ci).abs() < 1e-6 * gi.abs().max(1.0));
        }
    }
}

/// Levinson–Durbin solves the Toeplitz system it claims to solve, for
/// autocovariance sequences of genuine AR(1) processes.
#[test]
fn levinson_solves_toeplitz() {
    let mut rng = Xoshiro256pp::seed_from_u64(105);
    for _ in 0..64 {
        let phi = rng.uniform(-0.9, 0.9);
        let order = 1 + rng.next_below(5) as usize;
        // Theoretical AR(1) autocovariance: r(k) = phi^k / (1 - phi^2).
        let r: Vec<f64> = (0..=order).map(|k| phi.powi(k as i32) / (1.0 - phi * phi)).collect();
        let out = levinson_durbin(&r, order).unwrap();
        let lhs = toeplitz_matvec(&r, &out.coefficients);
        for i in 0..order {
            assert!((lhs[i] - r[i + 1]).abs() < 1e-8, "{} vs {}", lhs[i], r[i + 1]);
        }
        // AR(1) truth: first coefficient ~ phi, rest ~ 0.
        assert!((out.coefficients[0] - phi).abs() < 1e-8);
        for &c in &out.coefficients[1..] {
            assert!(c.abs() < 1e-8);
        }
    }
}

/// Matmul is associative on compatible shapes (within tolerance).
#[test]
fn matmul_associative() {
    let mut rng = Xoshiro256pp::seed_from_u64(106);
    for _ in 0..64 {
        let ma = Matrix::from_vec(2, 3, random_vec(&mut rng, 6, -2.0, 2.0)).unwrap();
        let mb = Matrix::from_vec(3, 2, random_vec(&mut rng, 6, -2.0, 2.0)).unwrap();
        let mc = Matrix::from_vec(2, 3, random_vec(&mut rng, 6, -2.0, 2.0)).unwrap();
        let left = ma.matmul(&mb).unwrap().matmul(&mc).unwrap();
        let right = ma.matmul(&mb.matmul(&mc).unwrap()).unwrap();
        assert!(left.max_abs_diff(&right).unwrap() < 1e-10);
    }
}

/// Transpose distributes over products: (AB)ᵀ = BᵀAᵀ.
#[test]
fn transpose_of_product() {
    let mut rng = Xoshiro256pp::seed_from_u64(107);
    for _ in 0..64 {
        let ma = Matrix::from_vec(2, 4, random_vec(&mut rng, 8, -2.0, 2.0)).unwrap();
        let mb = Matrix::from_vec(4, 2, random_vec(&mut rng, 8, -2.0, 2.0)).unwrap();
        let lhs = ma.matmul(&mb).unwrap().transpose();
        let rhs = mb.transpose().matmul(&ma.transpose()).unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-12);
    }
}

/// Covariance matrices are symmetric positive-semidefinite.
#[test]
fn covariance_is_psd() {
    let mut rng = Xoshiro256pp::seed_from_u64(108);
    for _ in 0..64 {
        let m = Matrix::from_vec(8, 3, random_vec(&mut rng, 24, -10.0, 10.0)).unwrap();
        let cov = m.covariance();
        assert!(cov.is_symmetric(1e-10));
        let e = SymEigen::decompose(&cov).unwrap();
        for &l in &e.eigenvalues {
            assert!(l > -1e-9, "negative eigenvalue {l}");
        }
    }
}

/// Covariance is pinned bit-for-bit to the textbook per-element sum (rows in
/// order, centred products, one `1/(n-1)` scale), and supplying the column
/// means from outside changes nothing.
#[test]
fn covariance_matches_elementwise_reference_bitwise() {
    let mut rng = Xoshiro256pp::seed_from_u64(109);
    for _ in 0..64 {
        let n = 2 + rng.next_below(40) as usize;
        let d = 1 + rng.next_below(16) as usize;
        let m = Matrix::from_vec(n, d, random_vec(&mut rng, n * d, -1e3, 1e3)).unwrap();
        let means = m.column_means();
        let cov = m.covariance();
        let about = m.covariance_about(&means).unwrap();
        let scale = 1.0 / (n as f64 - 1.0);
        for i in 0..d {
            for j in 0..d {
                let (a, b) = (i.min(j), i.max(j));
                let mut acc = 0.0;
                for r in 0..n {
                    acc += (m[(r, a)] - means[a]) * (m[(r, b)] - means[b]);
                }
                let want = (acc * scale).to_bits();
                assert_eq!(cov[(i, j)].to_bits(), want, "cov[{i},{j}] for {n}x{d}");
                assert_eq!(about[(i, j)].to_bits(), want, "about[{i},{j}] for {n}x{d}");
            }
        }
        assert!(m.covariance_about(&means[1..]).is_err(), "one mean per column");
    }
}
