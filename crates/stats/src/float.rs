//! Total-order and tolerance helpers for `f64` comparisons.
//!
//! The library crates may not compare floats with `==`/`!=`
//! (`clippy::float_cmp`, plus `cargo xtask lint`'s `float-eq-zero` for
//! the comparison against zero that clippy exempts) or unwrap a
//! `partial_cmp(..)` (`clippy::unwrap_used` / `expect_used`): bitwise
//! float equality silently misfires after any rounding, and `partial_cmp`
//! panics the moment a NaN sneaks into a comparator. These helpers are
//! the sanctioned replacements. Exact-zero *sentinel* checks (a value
//! that is zero by construction, never by arithmetic) may instead carry
//! a justified `lint:allow(float-eq-zero)`.

/// Relative-plus-absolute tolerance equality.
///
/// Two values are approximately equal when they differ by at most
/// `tol` absolutely, or by `tol` relative to the larger magnitude.
/// NaN is equal to nothing, including itself.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        // Before the total_cmp fast path: total order ranks two NaNs
        // with the same bit pattern as equal, but approx_eq must not.
        return false;
    }
    if a.total_cmp(&b).is_eq() {
        // Bitwise fast path; also covers equal infinities.
        return true;
    }
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= tol * scale
}

/// Whether `x` is within `tol` of zero. The guard to use before
/// dividing by a computed quantity (variance, span, determinant).
#[must_use]
pub fn near_zero(x: f64, tol: f64) -> bool {
    x.abs() <= tol
}

/// Default tolerance used by the crate's own degenerate-denominator
/// guards: comfortably above f64 rounding noise for O(1)-scaled data,
/// far below any statistically meaningful variance.
pub const DEFAULT_TOL: f64 = 1e-12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-12));
        assert!(!approx_eq(1.0, 1.1, 1e-12));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 1e-12));
    }

    #[test]
    fn approx_eq_is_relative_for_large_values() {
        assert!(approx_eq(1e15, 1e15 + 1.0, 1e-12));
        assert!(!approx_eq(1e15, 1.001e15, 1e-12));
    }

    #[test]
    fn nan_equals_nothing() {
        assert!(!approx_eq(f64::NAN, f64::NAN, 1.0));
        assert!(!approx_eq(f64::NAN, 0.0, 1.0));
    }

    #[test]
    fn near_zero_basic() {
        assert!(near_zero(0.0, DEFAULT_TOL));
        assert!(near_zero(-1e-13, DEFAULT_TOL));
        assert!(!near_zero(1e-6, DEFAULT_TOL));
        assert!(!near_zero(f64::NAN, DEFAULT_TOL), "NaN is not near zero");
    }
}
