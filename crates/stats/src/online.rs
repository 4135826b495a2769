//! Online (recursive) least squares for one parameter.
//!
//! The quasi-adaptive baseline controller the paper compares against
//! [Padala et al., *Adaptive control of virtualized resources in utility
//! computing environments*, 2007] estimates a first-order linear model of
//! the controlled system *online* and re-derives its control gain from the
//! current estimate each step. This module provides the RLS estimator
//! with exponential forgetting that such a controller needs, for its one
//! parameter.

/// Recursive least squares estimator for `y = θ·x` with forgetting
/// factor `λ ∈ (0, 1]` (1 = ordinary RLS, smaller = faster forgetting).
#[derive(Debug, Clone)]
pub struct RecursiveLeastSquares {
    theta: f64,
    /// Inverse covariance `P`.
    p: f64,
    lambda: f64,
}

impl RecursiveLeastSquares {
    /// Create an estimator with the given forgetting factor. `P` starts
    /// at `delta`; a large `delta` (e.g. 1000) means "no confidence in
    /// the zero prior".
    pub fn new(lambda: f64, delta: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0, 1]");
        assert!(delta > 0.0, "delta must be positive");
        RecursiveLeastSquares {
            theta: 0.0,
            p: delta,
            lambda,
        }
    }

    /// Current parameter estimate θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Fold one observation `(x, y)` and return the *a-priori* prediction
    /// error `y − θ·x` (before the update).
    pub fn update(&mut self, x: f64, y: f64) -> f64 {
        // `0.0 + …` and the one-term `sum()`s are the n-dimensional
        // update at n = 1 (`P·x` accumulated from 0.0, inner products
        // summed). They decide the sign of a zero result, so they stay:
        // the quasi-adaptive controller's commands are pinned bit for bit.
        let px = 0.0 + self.p * x;
        let denom = self.lambda + std::iter::once(x * px).sum::<f64>();
        let k = px / denom;
        let err = y - std::iter::once(x * self.theta).sum::<f64>();
        self.theta += k * err;
        self.p = (self.p - k * px) / self.lambda;
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_sim::SimRng;

    #[test]
    fn converges_to_true_parameters() {
        let mut rls = RecursiveLeastSquares::new(1.0, 1_000.0);
        let mut rng = SimRng::seed(1);
        for _ in 0..500 {
            let x = rng.uniform(-1.0, 1.0);
            rls.update(x, -2.0 * x + rng.normal(0.0, 0.01));
        }
        assert!((rls.theta() + 2.0).abs() < 0.02, "theta={}", rls.theta());
    }

    #[test]
    fn forgetting_tracks_parameter_drift() {
        let mut rls = RecursiveLeastSquares::new(0.95, 1_000.0);
        let mut rng = SimRng::seed(2);
        // First regime: slope 1.
        for _ in 0..200 {
            let x = rng.uniform(0.5, 1.5);
            rls.update(x, x);
        }
        assert!((rls.theta() - 1.0).abs() < 0.05);
        // Second regime: slope 5; with forgetting it should re-converge.
        for _ in 0..200 {
            let x = rng.uniform(0.5, 1.5);
            rls.update(x, 5.0 * x);
        }
        assert!((rls.theta() - 5.0).abs() < 0.1, "theta={}", rls.theta());
    }

    #[test]
    fn prediction_error_shrinks() {
        let mut rls = RecursiveLeastSquares::new(1.0, 100.0);
        let mut first_err = 0.0;
        let mut last_err = 0.0;
        for i in 0..100 {
            let x = 1.0 + (i % 7) as f64;
            let e = rls.update(x, 4.0 * x).abs();
            if i == 0 {
                first_err = e;
            }
            last_err = e;
        }
        assert!(
            last_err < first_err * 0.01,
            "first={first_err}, last={last_err}"
        );
    }

    #[test]
    #[should_panic(expected = "lambda must be in (0, 1]")]
    fn invalid_lambda_panics() {
        RecursiveLeastSquares::new(1.5, 10.0);
    }
}
