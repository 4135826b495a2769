// Test target: unwrap/expect and exact float comparison are deliberate
// here (determinism assertions compare results bit-for-bit).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Property-based tests for the statistics substrate, driven by the
//! deterministic `testkit` harness (seeded cases, reproducible replay).

use flower_sim::testkit::{forall, vec_f64};
use flower_sim::{SimDuration, SimRng, SimTime};
use flower_stats::{align_bucket_means, SimpleOls};

/// The Pearson r of a fit lies in [−1, 1] and does not depend on which
/// column is the regressor.
#[test]
fn pearson_is_bounded_and_symmetric() {
    forall(128, |rng| {
        let x = vec_f64(rng, -1e6, 1e6, 3, 49);
        let y = vec_f64(rng, -1e6, 1e6, x.len(), x.len());
        if let (Ok(xy), Ok(yx)) = (SimpleOls::fit(&x, &y), SimpleOls::fit(&y, &x)) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&xy.correlation));
            assert!((xy.correlation - yx.correlation).abs() < 1e-9);
        }
    });
}

/// Scaling and shifting either column leaves the Pearson r unchanged,
/// and a column fitted against an affine copy of itself has r = 1.
#[test]
fn pearson_invariant_to_affine_transform() {
    forall(128, |rng| {
        let x = vec_f64(rng, -1e6, 1e6, 4, 39);
        let y = vec_f64(rng, -1e6, 1e6, x.len(), x.len());
        let mut affine = |v: &[f64]| {
            let (a, b) = (rng.uniform(0.1, 10.0), rng.uniform(-100.0, 100.0));
            v.iter().map(|&vi| a * vi + b).collect::<Vec<f64>>()
        };
        let (x2, y2) = (affine(&x), affine(&y));
        if let (Ok(fit), Ok(moved)) = (SimpleOls::fit(&x, &y), SimpleOls::fit(&x2, &y2)) {
            assert!((fit.correlation - moved.correlation).abs() < 1e-6);
        }
        if let Ok(line) = SimpleOls::fit(&x, &x2) {
            assert!(
                (line.correlation - 1.0).abs() < 1e-6,
                "r = {}",
                line.correlation
            );
        }
    });
}

/// The fit's variance estimates, the residual and the slope standard
/// errors, are never negative (nor NaN).
#[test]
fn variance_is_nonnegative() {
    forall(128, |rng| {
        let x = vec_f64(rng, -1e6, 1e6, 3, 49);
        let y = vec_f64(rng, -1e6, 1e6, x.len(), x.len());
        if let Ok(fit) = SimpleOls::fit(&x, &y) {
            assert!(fit.residual_std_error >= 0.0, "{fit:?}");
            assert!(fit.slope_std_error >= 0.0, "{fit:?}");
        }
    });
}

/// A time-ordered series of 1–39 values in ±1e6, 0–29 s apart, so a
/// bucket holds one point or many.
fn random_series(rng: &mut SimRng) -> Vec<(SimTime, f64)> {
    let values = vec_f64(rng, -1e6, 1e6, 1, 39);
    let mut t = 0;
    values
        .into_iter()
        .map(|v| {
            t += rng.below(30);
            (SimTime::from_secs(t), v)
        })
        .collect()
}

/// Every aligned bucket mean lies between the smallest and the largest
/// value that fell into its bucket.
#[test]
fn mean_is_between_min_and_max() {
    forall(128, |rng| {
        let series = random_series(rng);
        let period = SimDuration::from_secs(1 + rng.below(120));
        let (means, _) = align_bucket_means(&series, &series, period);
        let buckets: Vec<&[(SimTime, f64)]> = series
            .chunk_by(|p, q| p.0.align_down(period) == q.0.align_down(period))
            .collect();
        assert_eq!(means.len(), buckets.len());
        for (&mean, bucket) in means.iter().zip(buckets) {
            let lo = bucket.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            let hi = bucket.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
            let slack = 1e-9 * lo.abs().max(hi.abs());
            assert!(
                lo - slack <= mean && mean <= hi + slack,
                "{lo} ≤ {mean} ≤ {hi}"
            );
        }
    });
}

/// Bucketing loses no mass: with `k` points in every bucket, `k` times
/// the sum of the bucket means is the series total.
#[test]
fn resample_sum_preserves_total() {
    forall(128, |rng| {
        let k = 1 + rng.below(5);
        let buckets = 1 + rng.below(8);
        let n = (k * buckets) as usize;
        let values = vec_f64(rng, -1e6, 1e6, n, n);
        let series: Vec<(SimTime, f64)> = (0..)
            .zip(&values)
            .map(|(i, &v)| (SimTime::from_secs(i / k * 60 + i % k), v))
            .collect();
        let (means, _) = align_bucket_means(&series, &series, SimDuration::from_secs(60));
        assert_eq!(means.len() as u64, buckets);
        let total: f64 = values.iter().sum();
        let resampled: f64 = means.iter().map(|m| m * k as f64).sum();
        let scale = values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        assert!((total - resampled).abs() / scale < 1e-9);
    });
}

#[test]
fn ols_residuals_orthogonal_to_regressor() {
    forall(128, |rng| {
        let x = vec_f64(rng, -1e6, 1e6, 3, 59);
        let y = vec_f64(rng, -1e6, 1e6, x.len(), x.len());
        if let Ok(fit) = SimpleOls::fit(&x, &y) {
            // Normal equations: residuals sum to ~0 and are orthogonal to x.
            let resid: Vec<f64> = x
                .iter()
                .zip(&y)
                .map(|(&xi, &yi)| yi - (fit.intercept + fit.slope * xi))
                .collect();
            let scale = y.iter().map(|v| v.abs()).fold(1.0, f64::max);
            let sum: f64 = resid.iter().sum();
            assert!(sum.abs() / (scale * x.len() as f64) < 1e-6);
            let dot: f64 = resid.iter().zip(&x).map(|(r, xi)| r * xi).sum();
            let xscale = x.iter().map(|v| v.abs()).fold(1.0, f64::max);
            assert!(dot.abs() / (scale * xscale * x.len() as f64) < 1e-6);
            assert!(fit.r_squared <= 1.0 + 1e-9);
        }
    });
}
