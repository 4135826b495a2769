// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-stats
//!
//! Statistical substrate for the Flower reproduction.
//!
//! Flower's *workload dependency analysis* (paper §3.1) fits linear
//! regression models between resource measures of different layers of a
//! data analytics flow — e.g. Eq. 2 of the paper,
//! `CPU ≈ 0.0002 · WriteCapacity + 4.8` — and screens candidate
//! dependencies by correlation strength (Fig. 2 reports a Pearson
//! coefficient of 0.95 between ingestion arrival rate and analytics CPU).
//!
//! This crate implements everything that analysis needs, from scratch:
//!
//! * [`descriptive`] — means, variances, percentiles, summaries.
//! * [`matrix`] — a small dense-matrix type with a Gaussian-elimination
//!   solver, enough for normal-equation least squares.
//! * [`regression`] — simple and multiple ordinary least squares with full
//!   diagnostics (R², standard errors, t statistics, confidence
//!   intervals).
//! * [`correlation`] — Pearson, Spearman, lagged cross-correlation, and
//!   correlation matrices.
//! * [`timeseries`] — a `(time, value)` series with rolling windows,
//!   EWMA smoothing, resampling, and alignment of two series on a shared
//!   clock (needed before any cross-layer regression).
//! * [`online`] — recursive least squares (RLS) with forgetting factor,
//!   the online estimator used by the quasi-adaptive baseline controller
//!   [Padala et al. 2007] that the paper compares against.

#![deny(missing_docs)]

pub mod correlation;
pub mod descriptive;
pub mod float;
pub mod matrix;
pub mod online;
pub mod regression;
pub mod timeseries;

pub use correlation::{
    autocorrelation, correlation_time, cross_correlation, pearson, spearman, CorrelationMatrix,
};
pub use descriptive::Summary;
pub use matrix::Matrix;
pub use online::RecursiveLeastSquares;
pub use regression::{MultipleOls, SimpleOls};
pub use timeseries::TimeSeries;

/// Errors produced by statistical routines in this crate.
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
    /// The regressor (or a regressor column) had zero variance, so the
    /// model is unidentifiable.
    ZeroVariance,
    /// The normal-equation system was singular (collinear regressors).
    SingularSystem,
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
            StatsError::SingularSystem => {
                write!(f, "singular normal equations (collinear regressors)")
            }
            StatsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for StatsError {}

pub(crate) fn check_finite(xs: &[f64]) -> Result<(), StatsError> {
    if xs.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(StatsError::NonFiniteInput)
    }
}
