//! Ordinary least squares regression with diagnostics.
//!
//! This is the machinery behind Flower's workload dependency analysis
//! (paper §3.1): the dependency between a resource measure of layer L1 and
//! one of layer L2 is modelled as `r(L1) = β0 + β1·r(L2) + ε` (Eq. 1).
//! [`SimpleOls`] fits that model; [`MultipleOls`] generalizes to several
//! regressors, which the share analyzer uses when a layer depends on more
//! than one upstream measure.

use crate::matrix::Matrix;
use crate::{check_finite, StatsError};

/// Result of fitting `y = β0 + β1·x + ε` by least squares.
///
/// ```
/// use flower_stats::SimpleOls;
/// let x = [0.0, 1.0, 2.0, 3.0];
/// let y = [4.8, 5.0, 5.2, 5.4]; // y = 0.2·x + 4.8
/// let fit = SimpleOls::fit(&x, &y).unwrap();
/// assert!((fit.slope - 0.2).abs() < 1e-9);
/// assert!((fit.intercept - 4.8).abs() < 1e-9);
/// assert!((fit.predict(10.0) - 6.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimpleOls {
    /// Intercept β0.
    pub intercept: f64,
    /// Slope β1.
    pub slope: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Pearson correlation between x and y.
    pub correlation: f64,
    /// Residual standard error `sqrt(SSE / (n − 2))`.
    pub residual_std_error: f64,
    /// Standard error of the slope estimate.
    pub slope_std_error: f64,
    /// t statistic of the slope (slope / slope_std_error).
    pub slope_t_stat: f64,
    /// Number of observations.
    pub n: usize,
}

impl SimpleOls {
    /// Fit the model to paired observations.
    ///
    /// Requires at least three observations (so the residual degrees of
    /// freedom are positive) and a regressor with non-zero variance.
    pub fn fit(x: &[f64], y: &[f64]) -> Result<SimpleOls, StatsError> {
        if x.len() != y.len() {
            return Err(StatsError::LengthMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        if x.len() < 3 {
            return Err(StatsError::NotEnoughData {
                needed: 3,
                got: x.len(),
            });
        }
        check_finite(x)?;
        check_finite(y)?;

        let n = x.len() as f64;
        let mean_x = x.iter().sum::<f64>() / n;
        let mean_y = y.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        let mut sxy = 0.0;
        for (&xi, &yi) in x.iter().zip(y) {
            let dx = xi - mean_x;
            let dy = yi - mean_y;
            sxx += dx * dx;
            syy += dy * dy;
            sxy += dx * dy;
        }
        // A sum of squares is non-negative, so `<= 0` is exact-zero
        // detection without a float equality.
        if sxx <= 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;

        let sse: f64 = x
            .iter()
            .zip(y)
            .map(|(&xi, &yi)| {
                let fitted = intercept + slope * xi;
                (yi - fitted).powi(2)
            })
            .sum();
        let r_squared = if syy <= 0.0 { 1.0 } else { 1.0 - sse / syy };
        let correlation = if syy <= 0.0 {
            0.0
        } else {
            sxy / (sxx.sqrt() * syy.sqrt())
        };
        let dof = x.len() - 2;
        let residual_std_error = (sse / dof as f64).sqrt();
        let slope_std_error = residual_std_error / sxx.sqrt();
        let slope_t_stat = if slope_std_error <= 0.0 {
            f64::INFINITY
        } else {
            slope / slope_std_error
        };
        Ok(SimpleOls {
            intercept,
            slope,
            r_squared,
            correlation,
            residual_std_error,
            slope_std_error,
            slope_t_stat,
            n: x.len(),
        })
    }

    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Invert the fitted line: the `x` that predicts the given `y`.
    /// `None` when the slope is (numerically) zero.
    pub fn invert(&self, y: f64) -> Option<f64> {
        if self.slope.abs() < 1e-300 {
            None
        } else {
            Some((y - self.intercept) / self.slope)
        }
    }

    /// Approximate 95% confidence interval for the slope
    /// (normal-approximation `±1.96·SE`; adequate for the trace lengths
    /// the dependency analyzer operates on).
    pub fn slope_confidence_95(&self) -> (f64, f64) {
        let half = 1.96 * self.slope_std_error;
        (self.slope - half, self.slope + half)
    }

    /// Whether the slope is statistically significant at ~5% (|t| > 1.96).
    pub fn slope_is_significant(&self) -> bool {
        self.slope_t_stat.abs() > 1.96
    }
}

/// Result of fitting `y = β0 + β1·x1 + … + βk·xk + ε` by least squares
/// via the normal equations.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipleOls {
    /// Coefficients `[β0, β1, …, βk]` (first entry is the intercept).
    pub coefficients: Vec<f64>,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Adjusted R² (penalized for the number of regressors).
    pub adjusted_r_squared: f64,
    /// Residual standard error.
    pub residual_std_error: f64,
    /// Standard error of each coefficient (same order as `coefficients`).
    pub coefficient_std_errors: Vec<f64>,
    /// Number of observations.
    pub n: usize,
}

impl MultipleOls {
    /// Fit to `n` observations of `k` regressors.
    ///
    /// `xs` is row-major: `xs[i]` holds the `k` regressor values of
    /// observation `i`; an intercept column is added internally.
    pub fn fit(xs: &[Vec<f64>], y: &[f64]) -> Result<MultipleOls, StatsError> {
        if xs.len() != y.len() {
            return Err(StatsError::LengthMismatch {
                left: xs.len(),
                right: y.len(),
            });
        }
        let n = xs.len();
        if n == 0 {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        let k = xs.first().map_or(0, Vec::len);
        if xs.iter().any(|row| row.len() != k) {
            return Err(StatsError::LengthMismatch {
                left: k,
                right: xs.iter().map(Vec::len).find(|&l| l != k).unwrap_or(k),
            });
        }
        let p = k + 1; // including intercept
        if n < p + 1 {
            return Err(StatsError::NotEnoughData {
                needed: p + 1,
                got: n,
            });
        }
        for row in xs {
            check_finite(row)?;
        }
        check_finite(y)?;

        // Design matrix with intercept column.
        let design_rows: Vec<Vec<f64>> = xs
            .iter()
            .map(|row| {
                let mut r = Vec::with_capacity(p);
                r.push(1.0);
                r.extend_from_slice(row);
                r
            })
            .collect();
        let x = Matrix::from_rows(&design_rows);
        let xt = x.transpose();
        let xtx = xt.matmul(&x);
        let xty = xt.matmul(&Matrix::column(y));
        let rhs: Vec<f64> = (0..p).map(|i| xty[(i, 0)]).collect();
        let coefficients = xtx.solve(&rhs)?;

        // Residuals & diagnostics.
        let fitted: Vec<f64> = design_rows
            .iter()
            .map(|row| row.iter().zip(&coefficients).map(|(a, b)| a * b).sum())
            .collect();
        let mean_y = y.iter().sum::<f64>() / n as f64;
        let sse: f64 = y
            .iter()
            .zip(&fitted)
            .map(|(yi, fi)| (yi - fi).powi(2))
            .sum();
        let sst: f64 = y.iter().map(|yi| (yi - mean_y).powi(2)).sum();
        let r_squared = if sst <= 0.0 { 1.0 } else { 1.0 - sse / sst };
        let dof = n - p;
        let adjusted_r_squared = if sst <= 0.0 {
            1.0
        } else {
            1.0 - (1.0 - r_squared) * (n - 1) as f64 / dof as f64
        };
        let sigma2 = sse / dof as f64;
        let residual_std_error = sigma2.sqrt();
        let cov = xtx.inverse()?;
        let coefficient_std_errors: Vec<f64> = (0..p)
            .map(|i| (sigma2 * cov[(i, i)]).max(0.0).sqrt())
            .collect();

        Ok(MultipleOls {
            coefficients,
            r_squared,
            adjusted_r_squared,
            residual_std_error,
            coefficient_std_errors,
            n,
        })
    }

    /// Predicted value for one observation of regressors.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len() + 1,
            self.coefficients.len(),
            "regressor count mismatch"
        );
        #[expect(clippy::expect_used, reason = "invariant stated in the expect message")]
        let (intercept, betas) = self
            .coefficients
            .split_first()
            .expect("fit() always stores the intercept as the first coefficient");
        intercept + x.iter().zip(betas).map(|(a, b)| a * b).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_sim::SimRng;

    #[test]
    fn exact_line_recovered() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&xi| 3.0 * xi + 7.0).collect();
        let fit = SimpleOls::fit(&x, &y).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-10);
        assert!((fit.intercept - 7.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-10);
        assert!(fit.residual_std_error < 1e-8);
        assert!(fit.slope_is_significant());
    }

    #[test]
    fn noisy_line_recovered_approximately() {
        let mut rng = SimRng::seed(1);
        let x: Vec<f64> = (0..500).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&xi| 2.0 * xi + 5.0 + rng.normal(0.0, 1.0))
            .collect();
        let fit = SimpleOls::fit(&x, &y).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.05, "slope={}", fit.slope);
        assert!(
            (fit.intercept - 5.0).abs() < 0.5,
            "intercept={}",
            fit.intercept
        );
        assert!(fit.r_squared > 0.98);
        assert!(fit.correlation > 0.99);
        let (lo, hi) = fit.slope_confidence_95();
        assert!(lo < 2.0 && 2.0 < hi, "95% CI [{lo}, {hi}] should cover 2.0");
    }

    #[test]
    fn paper_equation_2_shape() {
        // Synthetic data in the shape of the paper's Eq. 2:
        // CPU ≈ 0.0002·WriteCapacity + 4.8
        let mut rng = SimRng::seed(2);
        let wc: Vec<f64> = (0..550).map(|_| rng.uniform(0.0, 60_000.0)).collect();
        let cpu: Vec<f64> = wc
            .iter()
            .map(|&w| 0.0002 * w + 4.8 + rng.normal(0.0, 0.3))
            .collect();
        let fit = SimpleOls::fit(&wc, &cpu).unwrap();
        assert!((fit.slope - 0.0002).abs() < 2e-5, "slope={}", fit.slope);
        assert!(
            (fit.intercept - 4.8).abs() < 0.2,
            "intercept={}",
            fit.intercept
        );
        assert!(fit.correlation > 0.95);
    }

    #[test]
    fn predict_and_invert_are_consistent() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&xi| 4.0 * xi - 2.0).collect();
        let fit = SimpleOls::fit(&x, &y).unwrap();
        let p = fit.predict(5.0);
        assert!((fit.invert(p).unwrap() - 5.0).abs() < 1e-10);
    }

    #[test]
    fn invert_flat_line_is_none() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y = vec![3.0; 10];
        let fit = SimpleOls::fit(&x, &y).unwrap();
        assert_eq!(fit.invert(10.0), None);
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            SimpleOls::fit(&[1.0, 2.0], &[1.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            SimpleOls::fit(&[1.0, 2.0], &[1.0, 2.0]),
            Err(StatsError::NotEnoughData { .. })
        ));
        assert_eq!(
            SimpleOls::fit(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::ZeroVariance)
        );
        assert_eq!(
            SimpleOls::fit(&[1.0, 2.0, f64::NAN], &[1.0, 2.0, 3.0]),
            Err(StatsError::NonFiniteInput)
        );
    }

    #[test]
    fn multiple_ols_recovers_plane() {
        let mut rng = SimRng::seed(3);
        let mut xs = Vec::new();
        let mut y = Vec::new();
        for _ in 0..400 {
            let a = rng.uniform(0.0, 10.0);
            let b = rng.uniform(0.0, 5.0);
            xs.push(vec![a, b]);
            y.push(1.5 + 2.0 * a - 3.0 * b + rng.normal(0.0, 0.1));
        }
        let fit = MultipleOls::fit(&xs, &y).unwrap();
        assert!((fit.coefficients[0] - 1.5).abs() < 0.1);
        assert!((fit.coefficients[1] - 2.0).abs() < 0.02);
        assert!((fit.coefficients[2] + 3.0).abs() < 0.02);
        assert!(fit.r_squared > 0.999);
        assert!(fit.adjusted_r_squared <= fit.r_squared);
        assert_eq!(fit.coefficient_std_errors.len(), 3);
        let pred = fit.predict(&[1.0, 1.0]);
        assert!((pred - 0.5).abs() < 0.1, "pred={pred}");
    }

    #[test]
    fn multiple_ols_collinear_is_singular() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(MultipleOls::fit(&xs, &y), Err(StatsError::SingularSystem));
    }

    #[test]
    fn multiple_ols_matches_simple_for_one_regressor() {
        let mut rng = SimRng::seed(4);
        let x: Vec<f64> = (0..100).map(|_| rng.uniform(0.0, 100.0)).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&xi| 0.7 * xi + 2.0 + rng.normal(0.0, 0.5))
            .collect();
        let simple = SimpleOls::fit(&x, &y).unwrap();
        let multi = MultipleOls::fit(&x.iter().map(|&v| vec![v]).collect::<Vec<_>>(), &y).unwrap();
        assert!((simple.intercept - multi.coefficients[0]).abs() < 1e-8);
        assert!((simple.slope - multi.coefficients[1]).abs() < 1e-8);
        assert!((simple.r_squared - multi.r_squared).abs() < 1e-8);
    }

    #[test]
    fn multiple_ols_requires_enough_rows() {
        let xs = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let y = vec![1.0, 2.0];
        assert!(matches!(
            MultipleOls::fit(&xs, &y),
            Err(StatsError::NotEnoughData { .. })
        ));
    }
}
