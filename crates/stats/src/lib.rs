// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-stats
//!
//! The two estimators the Flower reproduction needs:
//!
//! * [`SimpleOls`] — the least-squares line of Flower's *workload
//!   dependency analysis* (paper §3.1, Eq. 1) with its Pearson r, which
//!   reproduces Fig. 2 (r = 0.95 between ingestion arrival rate and
//!   analytics CPU) and Eq. 2 (`CPU ≈ 0.0002 · WriteCapacity + 4.8`).
//!   [`align_bucket_means`] first puts the two metric series on one
//!   period grid, since the layers publish on different cadences.
//! * [`RecursiveLeastSquares`] — the one-parameter online estimator with
//!   forgetting that the quasi-adaptive baseline controller [Padala et
//!   al. 2007] re-derives its gain from (§3.3).

#![deny(missing_docs)]

mod online;
mod regression;
mod timeseries;

pub use online::RecursiveLeastSquares;
pub use regression::SimpleOls;
pub use timeseries::align_bucket_means;

/// Why [`SimpleOls::fit`] could not fit a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input had fewer observations than the routine requires.
    NotEnoughData {
        /// Observations required.
        needed: usize,
        /// Observations provided.
        got: usize,
    },
    /// Paired inputs had mismatched lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// The regressor had zero variance, so the model is unidentifiable.
    ZeroVariance,
    /// An input contained a NaN or infinite value.
    NonFiniteInput,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::NotEnoughData { needed, got } => {
                write!(f, "not enough data: need {needed} observations, got {got}")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            StatsError::ZeroVariance => write!(f, "regressor has zero variance"),
            StatsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for StatsError {}
