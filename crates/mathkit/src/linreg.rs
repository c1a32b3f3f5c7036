//! Multivariate linear regression: ordinary least squares via Householder
//! QR, and ridge regression via the normal equations.
//!
//! This is the "Multivariate Regression" box of the paper's Figure 1: HPC
//! rates go in, per-frequency power-model coefficients come out.

use crate::matrix::Matrix;
use crate::{Error, Result};

/// A fitted linear model `y ≈ intercept + Σ coefficients[i] · x[i]`.
///
/// ```
/// use mathkit::linreg::LinearModel;
/// use mathkit::matrix::Matrix;
///
/// # fn main() -> Result<(), mathkit::Error> {
/// let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]])?;
/// let model = LinearModel::fit(&x, &[2.0, 4.0, 6.0])?;
/// assert!((model.predict(&[10.0])? - 20.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    intercept: f64,
    coefficients: Vec<f64>,
    r_squared: f64,
    residuals: Vec<f64>,
}

/// Options controlling a fit; construct with [`FitOptions::default`] and
/// override fields with the builder-style setters.
#[derive(Debug, Clone, PartialEq)]
pub struct FitOptions {
    intercept: bool,
    ridge_lambda: f64,
}

impl Default for FitOptions {
    fn default() -> FitOptions {
        FitOptions {
            intercept: true,
            ridge_lambda: 0.0,
        }
    }
}

impl FitOptions {
    /// Creates default options (intercept on, no ridge).
    pub fn new() -> FitOptions {
        FitOptions::default()
    }

    /// Enables/disables the intercept term. Disabling it pins the model
    /// through the origin — used when the idle power is isolated separately,
    /// as the paper does with its constant 31.48 W term.
    pub fn intercept(mut self, yes: bool) -> FitOptions {
        self.intercept = yes;
        self
    }

    /// Sets the L2 (ridge) penalty λ ≥ 0. The intercept is never penalized.
    /// A positive λ solves the normal equations (Cholesky, LU fallback);
    /// λ = 0 solves the design by QR.
    pub fn ridge(mut self, lambda: f64) -> FitOptions {
        self.ridge_lambda = lambda.max(0.0);
        self
    }
}

/// Solves a normal-equations system: Cholesky on the (symmetric
/// positive-definite, for full-rank designs) Gram matrix — half the work
/// of pivoted LU on the regression hot path — falling back to LU when the
/// matrix is only semidefinite so exact collinearity still surfaces as
/// [`Error::Singular`] exactly as before.
fn solve_spd(gram: &Matrix, rhs: &[f64]) -> Result<Vec<f64>> {
    match gram.cholesky_solve(rhs) {
        Ok(beta) => Ok(beta),
        Err(Error::NotPositiveDefinite) => gram.solve(rhs),
        Err(e) => Err(e),
    }
}

/// `x` with a leading column of ones when the fit has an intercept.
fn design_matrix(x: &Matrix, intercept: bool) -> Result<Matrix> {
    let c0 = usize::from(intercept);
    let mut design = Matrix::zeros(x.rows(), x.cols() + c0)?;
    for r in 0..x.rows() {
        if intercept {
            design[(r, 0)] = 1.0;
        }
        for c in 0..x.cols() {
            design[(r, c0 + c)] = x[(r, c)];
        }
    }
    Ok(design)
}

impl LinearModel {
    /// Fits OLS with an intercept using the default options.
    ///
    /// # Errors
    ///
    /// See [`LinearModel::fit_with`].
    pub fn fit(x: &Matrix, y: &[f64]) -> Result<LinearModel> {
        LinearModel::fit_with(x, y, &FitOptions::default())
    }

    /// Fits a linear model with explicit [`FitOptions`].
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] when `y` does not match the number
    ///   of rows of `x`;
    /// * [`Error::Underdetermined`] when there are fewer observations than
    ///   parameters;
    /// * [`Error::Singular`] when features are exactly collinear and no
    ///   ridge penalty is applied.
    pub fn fit_with(x: &Matrix, y: &[f64], opts: &FitOptions) -> Result<LinearModel> {
        let n = x.rows();
        if y.len() != n {
            return Err(Error::DimensionMismatch {
                op: "fit target",
                lhs: x.shape(),
                rhs: (y.len(), 1),
            });
        }
        let p = x.cols() + usize::from(opts.intercept);
        if n < p {
            return Err(Error::Underdetermined {
                observations: n,
                parameters: p,
            });
        }
        let design = design_matrix(x, opts.intercept)?;

        let beta = if opts.ridge_lambda > 0.0 {
            // Ridge always goes through the normal equations; λ keeps them
            // well-conditioned. The intercept column is not penalized.
            let mut gram = design.gram();
            let start = usize::from(opts.intercept);
            for i in start..p {
                gram[(i, i)] += opts.ridge_lambda;
            }
            solve_spd(&gram, &design.tr_matvec(y)?)?
        } else {
            let (q, r) = design.qr()?;
            r.solve(&q.transpose().matvec(y)?)?
        };

        let (intercept, coefficients) = if opts.intercept {
            (beta[0], beta[1..].to_vec())
        } else {
            (0.0, beta)
        };

        // Residuals / R² on the data.
        let mut residuals = Vec::with_capacity(n);
        let mut ss_res = 0.0;
        for r in 0..n {
            let mut pred = intercept;
            for c in 0..x.cols() {
                pred += coefficients[c] * x[(r, c)];
            }
            let e = y[r] - pred;
            residuals.push(e);
            ss_res += e * e;
        }
        let my = y.iter().sum::<f64>() / n as f64;
        let ss_tot: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
        let r_squared = if ss_tot == 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };

        Ok(LinearModel {
            intercept,
            coefficients,
            r_squared,
            residuals,
        })
    }

    /// Constructs a model from known parameters (e.g. the coefficients the
    /// paper publishes for the i3-2120 at 3.30 GHz).
    pub fn from_parameters(intercept: f64, coefficients: Vec<f64>) -> LinearModel {
        LinearModel {
            intercept,
            coefficients,
            r_squared: f64::NAN,
            residuals: Vec::new(),
        }
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted slope coefficients, one per feature column.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Coefficient of determination on the training data (`NaN` for models
    /// built via [`LinearModel::from_parameters`]).
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Training residuals `y − ŷ` (empty for parameter-built models).
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Predicts a single observation.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] when the feature count is wrong.
    pub fn predict(&self, features: &[f64]) -> Result<f64> {
        if features.len() != self.coefficients.len() {
            return Err(Error::DimensionMismatch {
                op: "predict",
                lhs: (self.coefficients.len(), 1),
                rhs: (features.len(), 1),
            });
        }
        Ok(self.intercept
            + self
                .coefficients
                .iter()
                .zip(features)
                .map(|(c, f)| c * f)
                .sum::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_xy() -> (Matrix, Vec<f64>) {
        // y = 5 + 2a - 3b, exact.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 5.0 + 2.0 * r[0] - 3.0 * r[1]).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn ols_recovers_exact_coefficients() {
        let (x, y) = toy_xy();
        let m = LinearModel::fit(&x, &y).unwrap();
        assert!((m.intercept() - 5.0).abs() < 1e-9);
        assert!((m.coefficients()[0] - 2.0).abs() < 1e-9);
        assert!((m.coefficients()[1] + 3.0).abs() < 1e-9);
        assert!((m.r_squared() - 1.0).abs() < 1e-9);
        assert!(m.residuals().iter().all(|r| r.abs() < 1e-9));
    }

    /// Solves the normal equations of `x`'s intercept design directly.
    fn normal_equations(x: &Matrix, y: &[f64]) -> Result<Vec<f64>> {
        let design = design_matrix(x, true)?;
        solve_spd(&design.gram(), &design.tr_matvec(y)?)
    }

    #[test]
    fn normal_equations_match_qr() {
        let (x, y) = toy_xy();
        let q = LinearModel::fit(&x, &y).unwrap();
        let ne = normal_equations(&x, &y).unwrap();
        assert!((q.intercept() - ne[0]).abs() < 1e-8);
        for (a, b) in q.coefficients().iter().zip(&ne[1..]) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn no_intercept_goes_through_origin() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![3.0, 6.0, 9.0];
        let m = LinearModel::fit_with(&x, &y, &FitOptions::new().intercept(false)).unwrap();
        assert_eq!(m.intercept(), 0.0);
        assert!((m.coefficients()[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_shrinks_collinear() {
        // Two identical columns: OLS is singular, ridge resolves it and
        // splits the weight.
        let rows: Vec<Vec<f64>> = (1..=10).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (1..=10).map(|i| 4.0 * i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        assert!(matches!(LinearModel::fit(&x, &y), Err(Error::Singular)));
        let m = LinearModel::fit_with(&x, &y, &FitOptions::new().ridge(1e-6)).unwrap();
        let c = m.coefficients();
        assert!((c[0] - c[1]).abs() < 1e-3, "ridge splits weight evenly");
        assert!((c[0] + c[1] - 4.0).abs() < 1e-3);
    }

    #[test]
    fn underdetermined_rejected() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(matches!(
            LinearModel::fit(&x, &[1.0]),
            Err(Error::Underdetermined { .. })
        ));
    }

    #[test]
    fn predict_validates_arity() {
        let m = LinearModel::from_parameters(1.0, vec![2.0, 3.0]);
        assert!((m.predict(&[1.0, 1.0]).unwrap() - 6.0).abs() < 1e-12);
        assert!(m.predict(&[1.0]).is_err());
    }

    #[test]
    fn noisy_fit_recovers_approximately() {
        // Deterministic pseudo-noise; coefficients recovered within tolerance.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // ~U(-1,1)
        };
        for i in 0..200 {
            let a = (i % 17) as f64;
            let b = (i % 7) as f64;
            rows.push(vec![a, b]);
            y.push(10.0 + 0.5 * a + 2.0 * b + 0.05 * next());
        }
        let m = LinearModel::fit(&Matrix::from_rows(&rows).unwrap(), &y).unwrap();
        assert!((m.intercept() - 10.0).abs() < 0.05);
        assert!((m.coefficients()[0] - 0.5).abs() < 0.01);
        assert!((m.coefficients()[1] - 2.0).abs() < 0.02);
        assert!(m.r_squared() > 0.999);
    }
}
