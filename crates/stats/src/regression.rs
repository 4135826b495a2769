//! Ordinary least squares for one regressor.
//!
//! This is the machinery behind Flower's workload dependency analysis
//! (paper §3.1): the dependency between a resource measure of layer L1 and
//! one of layer L2 is modelled as `r(L1) = β0 + β1·r(L2) + ε` (Eq. 1),
//! which [`SimpleOls`] fits.

use crate::StatsError;

/// Result of fitting `y = β0 + β1·x + ε` by least squares.
///
/// ```
/// use flower_stats::SimpleOls;
/// let x = [0.0, 1.0, 2.0, 3.0];
/// let y = [4.8, 5.0, 5.2, 5.4]; // y = 0.2·x + 4.8
/// let fit = SimpleOls::fit(&x, &y).unwrap();
/// assert!((fit.slope - 0.2).abs() < 1e-9);
/// assert!((fit.intercept - 4.8).abs() < 1e-9);
/// assert!((fit.correlation - 1.0).abs() < 1e-9);
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
}

fn check_finite(xs: &[f64]) -> Result<(), StatsError> {
    if xs.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(StatsError::NonFiniteInput)
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
        assert!(fit.slope_t_stat > 1.96);
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
        // The normal-approximation 95% interval covers the true slope.
        let half = 1.96 * fit.slope_std_error;
        assert!((fit.slope - 2.0).abs() < half, "±{half} should cover 2.0");
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
}
