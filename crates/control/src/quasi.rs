//! The quasi-adaptive baseline controller — reference \[14\] of the paper
//! (Padala et al., *Adaptive control of virtualized resources in utility
//! computing environments*, EuroSys 2007).
//!
//! A self-tuning regulator in velocity form: an online recursive-least-
//! squares estimator maintains a local first-order model of how a change
//! in the actuator moves the measurement,
//!
//! ```text
//! Δy_k ≈ b · Δu_{k-1}
//! ```
//!
//! and each step the controller inverts the current estimate to aim the
//! next measurement at the setpoint:
//!
//! ```text
//! u_k = u_{k-1} + (y_r − y_k) / b̂        (slew-limited)
//! ```
//!
//! For an elasticity plant `b` is negative — adding capacity lowers
//! utilization. Until the estimate is identified (or whenever it has the
//! wrong sign, which happens transiently when a workload change is
//! misattributed to the actuator), the controller falls back to a small
//! fixed integral gain, which also provides the excitation RLS needs.
//!
//! The gain is thus re-derived from the model *every step* — adaptive in
//! a sense, but with no memory of previously successful gains, which is
//! exactly the axis on which the Flower controller differs (§3.3).

use flower_stats::RecursiveLeastSquares;

use crate::Controller;

/// Configuration of the quasi-adaptive controller.
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiAdaptiveConfig {
    /// Setpoint `y_r`.
    pub setpoint: f64,
    /// RLS forgetting factor λ ∈ (0, 1].
    pub forgetting: f64,
    /// Maximum relative actuator change per step (slew limit), e.g. 0.5
    /// allows ±50% per step — Padala et al. bound the step to keep the
    /// loop inside its stability region.
    pub max_relative_step: f64,
    /// Initial actuator value.
    pub u_init: f64,
    /// Steps to observe before acting at all.
    pub warmup_steps: u64,
    /// Integral gain used while the model is unidentified or has the
    /// wrong sign.
    pub fallback_gain: f64,
}

impl Default for QuasiAdaptiveConfig {
    fn default() -> Self {
        QuasiAdaptiveConfig {
            setpoint: 60.0,
            forgetting: 0.9,
            max_relative_step: 0.5,
            u_init: 1.0,
            warmup_steps: 3,
            fallback_gain: 0.02,
        }
    }
}

/// The self-tuning (quasi-adaptive) controller.
#[derive(Debug, Clone)]
pub struct QuasiAdaptiveController {
    config: QuasiAdaptiveConfig,
    rls: RecursiveLeastSquares,
    u: f64,
    prev_y: Option<f64>,
    last_du: Option<f64>,
    steps: u64,
}

impl QuasiAdaptiveController {
    /// Build from configuration.
    pub fn new(config: QuasiAdaptiveConfig) -> QuasiAdaptiveController {
        assert!(
            config.forgetting > 0.0 && config.forgetting <= 1.0,
            "forgetting factor must be in (0, 1]"
        );
        assert!(
            config.max_relative_step > 0.0,
            "slew limit must be positive"
        );
        assert!(config.fallback_gain > 0.0, "fallback gain must be positive");
        QuasiAdaptiveController {
            rls: RecursiveLeastSquares::new(config.forgetting, 100.0),
            u: config.u_init,
            prev_y: None,
            last_du: None,
            config,
            steps: 0,
        }
    }

    /// Current estimate `b̂` of the actuator-to-measurement gain.
    pub fn model_gain(&self) -> f64 {
        self.rls.theta()
    }

    fn slew_limit(&self, proposed: f64) -> f64 {
        let max_step = self.u.abs().max(1.0) * self.config.max_relative_step;
        proposed.clamp(self.u - max_step, self.u + max_step)
    }
}

impl Controller for QuasiAdaptiveController {
    fn step(&mut self, measurement: f64) -> f64 {
        // Fold the newest (Δu, Δy) observation into the model.
        if let (Some(py), Some(du)) = (self.prev_y, self.last_du) {
            if du.abs() > 1e-9 {
                self.rls.update(du, measurement - py);
            }
        }
        self.prev_y = Some(measurement);
        self.steps += 1;

        if self.steps <= self.config.warmup_steps {
            self.last_du = Some(0.0);
            return self.u;
        }

        let error = measurement - self.config.setpoint;
        let b = self.model_gain();
        // The plant gain must be negative (more capacity → lower
        // measurement). An unidentified or wrong-signed estimate falls
        // back to a conservative fixed integral step, which doubles as
        // model excitation.
        let proposed = if b < -1e-4 {
            self.u + (self.config.setpoint - measurement) / b
        } else {
            self.u + self.config.fallback_gain * error
        };
        let new_u = self.slew_limit(proposed);
        self.last_du = Some(new_u - self.u);
        self.u = new_u;
        self.u
    }

    fn actuator(&self) -> f64 {
        self.u
    }

    fn sync_actuator(&mut self, actual: f64) {
        // The intended Δu never happened; invalidate the pending
        // observation pair so the model is not poisoned.
        self.u = actual;
        self.last_du = None;
    }

    fn setpoint(&self) -> f64 {
        self.config.setpoint
    }

    fn set_setpoint(&mut self, setpoint: f64) {
        self.config.setpoint = setpoint;
    }

    fn name(&self) -> &str {
        "quasi-adaptive"
    }

    fn reset(&mut self) {
        self.rls = RecursiveLeastSquares::new(self.config.forgetting, 100.0);
        self.u = self.config.u_init;
        self.prev_y = None;
        self.last_du = None;
        self.steps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A first-order utilization plant: y = 100·load/u (percentage of
    /// capacity u), i.e. more actuator → lower measurement.
    fn plant(load: f64, u: f64) -> f64 {
        100.0 * load / u.max(0.1)
    }

    fn controller() -> QuasiAdaptiveController {
        QuasiAdaptiveController::new(QuasiAdaptiveConfig {
            setpoint: 60.0,
            u_init: 5.0,
            ..Default::default()
        })
    }

    fn run(c: &mut QuasiAdaptiveController, load: f64, mut u: f64, steps: usize) -> (f64, f64) {
        let mut y = plant(load, u);
        for _ in 0..steps {
            u = c.step(y).max(0.5);
            y = plant(load, u);
        }
        (u, y)
    }

    #[test]
    fn warmup_holds_actuator() {
        let mut c = controller();
        assert_eq!(c.step(90.0), 5.0);
        assert_eq!(c.step(95.0), 5.0);
        assert_eq!(c.step(92.0), 5.0);
    }

    #[test]
    fn converges_toward_setpoint_on_nonlinear_plant() {
        let mut c = controller();
        // load 6 with u=10 gives y=60, the true answer.
        let (u, y) = run(&mut c, 6.0, 5.0, 80);
        assert!((y - 60.0).abs() < 10.0, "ended at y={y}, u={u}");
        assert!((u - 10.0).abs() < 2.0, "ended at u={u}");
    }

    #[test]
    fn tracks_a_load_increase() {
        let mut c = controller();
        let (settled_u, _) = run(&mut c, 6.0, 5.0, 60);
        // Double the load; the controller must raise u substantially.
        let (u, y) = run(&mut c, 12.0, settled_u, 80);
        assert!(
            u > settled_u * 1.4,
            "u went from {settled_u} to {u} (y={y})"
        );
    }

    #[test]
    fn slew_limit_bounds_step() {
        let mut c = QuasiAdaptiveController::new(QuasiAdaptiveConfig {
            setpoint: 60.0,
            u_init: 10.0,
            max_relative_step: 0.2,
            warmup_steps: 1,
            ..Default::default()
        });
        let mut prev = c.actuator();
        for i in 0..20 {
            let u = c.step(if i % 2 == 0 { 100.0 } else { 20.0 });
            assert!(
                (u - prev).abs() <= prev.abs().max(1.0) * 0.2 + 1e-9,
                "step too large: {prev} → {u}"
            );
            prev = u;
        }
    }

    #[test]
    fn model_learns_negative_gain() {
        let mut c = controller();
        run(&mut c, 6.0, 5.0, 60);
        let b = c.model_gain();
        assert!(
            b < 0.0,
            "plant gain should be identified as negative, got {b}"
        );
        assert!(b.is_finite());
    }

    #[test]
    fn fallback_acts_in_the_right_direction() {
        // Before the model is identified, overload must still add
        // capacity.
        let mut c = controller();
        c.step(90.0);
        c.step(90.0);
        c.step(90.0); // warmup done, model unidentified
        let u0 = c.actuator();
        let u1 = c.step(90.0);
        assert!(u1 > u0, "fallback must scale out under overload");
    }

    #[test]
    fn sync_and_reset() {
        let mut c = controller();
        for _ in 0..10 {
            c.step(80.0);
        }
        c.sync_actuator(3.0);
        assert_eq!(c.actuator(), 3.0);
        c.reset();
        assert_eq!(c.actuator(), 5.0);
        assert_eq!(c.model_gain(), 0.0);
        assert_eq!(c.name(), "quasi-adaptive");
    }

    #[test]
    fn command_stream_is_pinned_bit_for_bit() {
        // Load steps between 6 and 12 keep the estimator moving; one
        // sync and one reset mid-run cover both ways the model restarts.
        let mut c = controller();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut u = 5.0;
        for i in 0..400 {
            if i == 150 {
                c.sync_actuator(u * 0.5);
                u = c.actuator();
            }
            if i == 275 {
                c.reset();
            }
            let load = if (i / 40) % 2 == 0 { 6.0 } else { 12.0 };
            let command = c.step(plant(load, u));
            for bits in [command.to_bits(), c.model_gain().to_bits()] {
                for byte in bits.to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            u = command.max(0.5);
        }
        assert_eq!(digest, 0x7fa2_e763_2c86_a0b9);
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn bad_forgetting_rejected() {
        QuasiAdaptiveController::new(QuasiAdaptiveConfig {
            forgetting: 1.5,
            ..Default::default()
        });
    }
}
