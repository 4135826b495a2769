//! Response-quality metrics for comparing controllers.
//!
//! The paper claims (§3.3, detailed in its companion journal paper \[9\])
//! that the adaptive controller with gain memory outperforms the
//! fixed-gain \[12\] and quasi-adaptive \[14\] baselines. These are the
//! metrics that comparison is scored on: settling time after a
//! disturbance, overshoot, steady-state error, oscillation count, and
//! integral absolute error.

use flower_sim::SimTime;

/// The discrete-time stability bound for an integral controller on a
/// utilization-style plant.
///
/// Near an operating point `(u, y)` of a plant where the measurement is
/// inversely proportional to the actuator (`y ≈ k/u`, the shape of every
/// utilization metric), the local plant gain is `∂y/∂u = −y/u`, so the
/// loop `u_{k+1} = u_k + l(y_k − y_r)` is locally asymptotically stable
/// iff `l·y/u < 2`. This is the bound the paper's companion work grounds
/// its gain clamping `[l_min, l_max]` in, and what our default controller
/// configurations are sized against.
pub fn integral_gain_stability_bound(actuator: f64, measurement: f64) -> f64 {
    assert!(actuator > 0.0, "actuator must be positive");
    assert!(measurement > 0.0, "measurement must be positive");
    2.0 * actuator / measurement
}

/// Whether a gain is locally stable at the operating point.
pub fn gain_is_stable(gain: f64, actuator: f64, measurement: f64) -> bool {
    gain < integral_gain_stability_bound(actuator, measurement)
}

/// Summary metrics of one measurement trace against a setpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseMetrics {
    /// First time from which the measurement stays within
    /// `setpoint ± band` for the remainder of the trace; `None` when it
    /// never settles.
    pub settling_time: Option<SimTime>,
    /// Peak excursion above the setpoint after the first crossing,
    /// as an absolute value (0 when the trace never overshoots).
    pub overshoot: f64,
    /// Mean absolute error over the final quarter of the trace.
    pub steady_state_error: f64,
    /// Number of times the error changes sign (setpoint crossings).
    pub oscillations: usize,
    /// Integral of |error| over time (trapezoidal, error·seconds).
    pub integral_abs_error: f64,
    /// Fraction of samples outside `setpoint ± band` — the SLO-violation
    /// rate when the band encodes the SLO.
    pub violation_rate: f64,
}

impl ResponseMetrics {
    /// Score a trace of `(time, measurement)` samples against `setpoint`
    /// with tolerance `band`.
    ///
    /// # Panics
    /// Panics on an empty trace or a negative band.
    pub fn of(trace: &[(SimTime, f64)], setpoint: f64, band: f64) -> ResponseMetrics {
        assert!(!trace.is_empty(), "cannot score an empty trace");
        assert!(band >= 0.0, "band must be non-negative");

        // Settling time: last index that is *outside* the band decides it.
        let last_outside = trace
            .iter()
            .rposition(|&(_, y)| (y - setpoint).abs() > band);
        let settling_time = match last_outside {
            None => trace.first().map(|&(t, _)| t),
            Some(i) if i + 1 < trace.len() => Some(trace[i + 1].0),
            Some(_) => None,
        };

        // Overshoot: peak |error| after the first time the trace crosses
        // the setpoint (before the first crossing the excursion is the
        // initial condition, not overshoot).
        let first_cross =
            trace
                .iter()
                .zip(trace.iter().skip(1))
                .position(|(&(_, y0), &(_, y1))| {
                    let e0 = y0 - setpoint;
                    let e1 = y1 - setpoint;
                    // `abs() <= 0` catches a sample landing exactly on the
                    // setpoint (±0.0) without a float equality. The sign
                    // flip is read off the sign bit: identical to comparing
                    // signum() for every non-NaN value (including signed
                    // zeros), but a bool compare — no NaN-unsafe float `!=`.
                    e0.abs() <= 0.0 || e0.is_sign_positive() != e1.is_sign_positive()
                });
        let overshoot = match first_cross {
            None => 0.0,
            Some(i) => trace[i + 1..]
                .iter()
                .map(|&(_, y)| (y - setpoint).abs())
                .fold(0.0, f64::max),
        };

        // Steady-state error: mean |error| over the final quarter.
        let tail_start = trace.len() - (trace.len() / 4).max(1);
        let tail = &trace[tail_start..];
        let steady_state_error =
            tail.iter().map(|&(_, y)| (y - setpoint).abs()).sum::<f64>() / tail.len() as f64;

        // Oscillations: sign changes of the error (zero treated as
        // continuing the previous sign).
        let mut oscillations = 0;
        let mut prev_sign = 0i8;
        for &(_, y) in trace {
            let e = y - setpoint;
            let sign = if e > 0.0 {
                1
            } else if e < 0.0 {
                -1
            } else {
                prev_sign
            };
            if prev_sign != 0 && sign != 0 && sign != prev_sign {
                oscillations += 1;
            }
            if sign != 0 {
                prev_sign = sign;
            }
        }

        // IAE by the trapezoid rule over time.
        let mut integral_abs_error = 0.0;
        for (&(t0, y0), &(t1, y1)) in trace.iter().zip(trace.iter().skip(1)) {
            let dt = (t1 - t0).as_secs_f64();
            let e0 = (y0 - setpoint).abs();
            let e1 = (y1 - setpoint).abs();
            integral_abs_error += 0.5 * (e0 + e1) * dt;
        }

        let violations = trace
            .iter()
            .filter(|&&(_, y)| (y - setpoint).abs() > band)
            .count();
        let violation_rate = violations as f64 / trace.len() as f64;

        ResponseMetrics {
            settling_time,
            overshoot,
            steady_state_error,
            oscillations,
            integral_abs_error,
            violation_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(points: &[(u64, f64)]) -> Vec<(SimTime, f64)> {
        points
            .iter()
            .map(|&(s, y)| (SimTime::from_secs(s), y))
            .collect()
    }

    #[test]
    fn perfect_trace_settles_immediately() {
        let t = trace(&[(0, 60.0), (1, 60.0), (2, 60.0), (3, 60.0)]);
        let m = ResponseMetrics::of(&t, 60.0, 5.0);
        assert_eq!(m.settling_time, Some(SimTime::ZERO));
        assert_eq!(m.overshoot, 0.0);
        assert_eq!(m.steady_state_error, 0.0);
        assert_eq!(m.oscillations, 0);
        assert_eq!(m.integral_abs_error, 0.0);
        assert_eq!(m.violation_rate, 0.0);
    }

    #[test]
    fn settling_time_finds_entry_into_band() {
        let t = trace(&[
            (0, 100.0),
            (10, 90.0),
            (20, 70.0),
            (30, 62.0),
            (40, 61.0),
            (50, 59.0),
        ]);
        let m = ResponseMetrics::of(&t, 60.0, 5.0);
        assert_eq!(m.settling_time, Some(SimTime::from_secs(30)));
    }

    #[test]
    fn never_settles_is_none() {
        let t = trace(&[(0, 100.0), (10, 100.0), (20, 100.0)]);
        let m = ResponseMetrics::of(&t, 60.0, 5.0);
        assert_eq!(m.settling_time, None);
        assert_eq!(m.violation_rate, 1.0);
    }

    #[test]
    fn late_excursion_postpones_settling() {
        let t = trace(&[(0, 60.0), (10, 60.0), (20, 90.0), (30, 60.0), (40, 60.0)]);
        let m = ResponseMetrics::of(&t, 60.0, 5.0);
        assert_eq!(m.settling_time, Some(SimTime::from_secs(30)));
        assert!((m.violation_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overshoot_counts_only_after_crossing() {
        // Starts high (initial condition, not overshoot), crosses, dips to
        // 50 → overshoot = 10.
        let t = trace(&[(0, 100.0), (10, 80.0), (20, 50.0), (30, 58.0), (40, 60.0)]);
        let m = ResponseMetrics::of(&t, 60.0, 2.0);
        assert!(
            (m.overshoot - 10.0).abs() < 1e-12,
            "overshoot={}",
            m.overshoot
        );
    }

    #[test]
    fn no_crossing_no_overshoot() {
        let t = trace(&[(0, 100.0), (10, 80.0), (20, 70.0)]);
        let m = ResponseMetrics::of(&t, 60.0, 2.0);
        assert_eq!(m.overshoot, 0.0);
    }

    #[test]
    fn oscillations_count_sign_changes() {
        let t = trace(&[(0, 70.0), (1, 50.0), (2, 70.0), (3, 50.0), (4, 70.0)]);
        let m = ResponseMetrics::of(&t, 60.0, 1.0);
        assert_eq!(m.oscillations, 4);
        // Touching the setpoint exactly doesn't flip the sign.
        let t2 = trace(&[(0, 70.0), (1, 60.0), (2, 70.0)]);
        assert_eq!(ResponseMetrics::of(&t2, 60.0, 1.0).oscillations, 0);
    }

    #[test]
    fn iae_trapezoid() {
        // Error 10 for 10 s then 0: trapezoid gives 0.5·(10+0)·10 = 50
        // plus the flat first span 10·10 = 100 → depends on spacing:
        let t = trace(&[(0, 70.0), (10, 70.0), (20, 60.0)]);
        let m = ResponseMetrics::of(&t, 60.0, 1.0);
        assert!((m.integral_abs_error - (100.0 + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn steady_state_error_uses_tail() {
        let mut pts: Vec<(u64, f64)> = (0..30).map(|s| (s, 100.0)).collect();
        pts.extend((30..40).map(|s| (s, 62.0)));
        let m = ResponseMetrics::of(&trace(&pts), 60.0, 5.0);
        assert!((m.steady_state_error - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        ResponseMetrics::of(&[], 60.0, 5.0);
    }

    #[test]
    fn stability_bound_matches_theory() {
        // u = 2 units at y = 100%: bound = 0.04.
        assert!((integral_gain_stability_bound(2.0, 100.0) - 0.04).abs() < 1e-12);
        assert!(gain_is_stable(0.03, 2.0, 100.0));
        assert!(!gain_is_stable(0.05, 2.0, 100.0));
        // More units at the same utilization tolerate larger gains.
        assert!(gain_is_stable(0.05, 10.0, 100.0));
    }

    #[test]
    fn stability_bound_verified_by_simulation() {
        // Simulate the loop u' = u + l(y − 60) against y = k/u and check
        // the bound separates convergent from divergent gains.
        let simulate = |l: f64| -> bool {
            let k = 600.0; // y = 60 at u = 10
            let mut u: f64 = 10.5; // slightly off the fixed point
            for _ in 0..500 {
                let y = k / u.max(0.01);
                u += l * (y - 60.0);
                if !(0.001..1e6).contains(&u) {
                    return false;
                }
            }
            let y = k / u;
            (y - 60.0).abs() < 1.0
        };
        let bound = integral_gain_stability_bound(10.0, 60.0); // = 1/3
        assert!(simulate(bound * 0.5), "half the bound must converge");
        assert!(!simulate(bound * 2.5), "well above the bound must diverge");
    }
}
