//! Descriptive statistics over slices of `f64`.

use crate::{check_finite, StatsError};

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (divide by `n`). Returns `None` for an empty slice.
pub fn variance_population(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64)
}

/// Sample variance (divide by `n − 1`). Returns `None` when `n < 2`.
pub fn variance_sample(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation. Returns `None` when `n < 2`.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance_sample(xs).map(f64::sqrt)
}

/// Minimum value. Returns `None` for an empty slice; NaNs are ignored.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.min(x),
            })
        })
}

/// Maximum value. Returns `None` for an empty slice; NaNs are ignored.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.max(x),
            })
        })
}

/// Percentile in `[0, 100]` using linear interpolation between closest
/// ranks (the "linear" method used by NumPy's default). Returns an error
/// for empty or non-finite input.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    check_finite(xs)?;
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    percentile(xs, 50.0)
}

/// A one-pass summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when `count < 2`).
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Sum of observations.
    pub sum: f64,
}

impl Summary {
    /// Summarize a non-empty, finite sample.
    #[expect(
        clippy::expect_used,
        reason = "invariants stated in the expect messages"
    )]
    pub fn of(xs: &[f64]) -> Result<Summary, StatsError> {
        if xs.is_empty() {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        check_finite(xs)?;
        Ok(Summary {
            count: xs.len(),
            mean: mean(xs).expect("xs verified non-empty above"),
            std_dev: std_dev(xs).unwrap_or(0.0),
            min: min(xs).expect("xs verified non-empty and finite above"),
            max: max(xs).expect("xs verified non-empty and finite above"),
            sum: xs.iter().sum(),
        })
    }

    /// Coefficient of variation (`std_dev / mean`); `None` when the mean
    /// is zero.
    pub fn coefficient_of_variation(&self) -> Option<f64> {
        if crate::float::near_zero(self.mean, crate::float::DEFAULT_TOL) {
            None
        } else {
            Some(self.std_dev / self.mean)
        }
    }

    /// Range of the sample (`max − min`).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// An incrementally-updatable summary (Welford's online algorithm),
/// used by sensors that fold metric datapoints one at a time.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Fold one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean; `None` when no observations have been folded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Current sample variance; `None` when fewer than two observations.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Current sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum observation so far.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation so far.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert!((variance_population(&xs).unwrap() - 4.0).abs() < 1e-12);
        assert!((variance_sample(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance_population(&[]), None);
        assert_eq!(variance_sample(&[1.0]), None);
        assert_eq!(std_dev(&[1.0]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 4.0);
        assert!((percentile(&xs, 50.0).unwrap() - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 25.0).unwrap() - 1.75).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_bad_input() {
        assert!(matches!(
            percentile(&[], 50.0),
            Err(StatsError::NotEnoughData { .. })
        ));
        assert_eq!(
            percentile(&[1.0, f64::NAN], 50.0),
            Err(StatsError::NonFiniteInput)
        );
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.sum, 10.0);
        assert!((s.range() - 3.0).abs() < 1e-12);
        assert!(s.coefficient_of_variation().unwrap() > 0.0);
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[5.0; 10]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn summary_cov_none_for_zero_mean() {
        let s = Summary::of(&[-1.0, 1.0]).unwrap();
        assert_eq!(s.coefficient_of_variation(), None);
    }

    #[test]
    fn running_stats_match_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((rs.variance().unwrap() - variance_sample(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(rs.min(), Some(2.0));
        assert_eq!(rs.max(), Some(9.0));
        assert!((rs.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn running_stats_empty() {
        let rs = RunningStats::new();
        assert_eq!(rs.mean(), None);
        assert_eq!(rs.variance(), None);
        assert_eq!(rs.min(), None);
        assert_eq!(rs.max(), None);
        assert_eq!(rs.count(), 0);
    }

    #[test]
    fn min_max_ignore_nan() {
        let xs = [f64::NAN, 2.0, 1.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(2.0));
    }
}
