//! The fixed-gain baseline controller — reference \[12\] of the paper
//! (Lim, Babu & Chase, *Automated control for elastic storage*,
//! ICAC 2010).
//!
//! An integral controller with a constant gain plus the "proportional
//! thresholding" dead-band of the original work: within
//! `setpoint ± dead_band` no action is taken, which suppresses actuator
//! oscillation around coarse-grained (integer) resources at the cost of
//! slower reaction to large disturbances — exactly the trade-off the
//! Flower controller's adaptive gain removes.

use crate::Controller;

/// Configuration of the fixed-gain controller.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedGainConfig {
    /// Setpoint `y_r`.
    pub setpoint: f64,
    /// The constant integral gain `l` (> 0).
    pub gain: f64,
    /// Half-width of the no-action band around the setpoint (>= 0).
    pub dead_band: f64,
    /// Initial actuator value.
    pub u_init: f64,
}

impl Default for FixedGainConfig {
    fn default() -> Self {
        FixedGainConfig {
            setpoint: 60.0,
            gain: 0.05,
            dead_band: 5.0,
            u_init: 1.0,
        }
    }
}

/// The fixed-gain integral controller with dead-band.
#[derive(Debug, Clone)]
pub struct FixedGainController {
    config: FixedGainConfig,
    u: f64,
}

impl FixedGainController {
    /// Build from configuration.
    pub fn new(config: FixedGainConfig) -> FixedGainController {
        assert!(config.gain > 0.0, "gain must be positive");
        assert!(config.dead_band >= 0.0, "dead band must be non-negative");
        FixedGainController {
            u: config.u_init,
            config,
        }
    }

    /// The (constant) gain.
    pub fn gain(&self) -> f64 {
        self.config.gain
    }
}

impl Controller for FixedGainController {
    fn step(&mut self, measurement: f64) -> f64 {
        let error = measurement - self.config.setpoint;
        if error.abs() > self.config.dead_band {
            self.u += self.config.gain * error;
        }
        self.u
    }

    fn actuator(&self) -> f64 {
        self.u
    }

    fn sync_actuator(&mut self, actual: f64) {
        self.u = actual;
    }

    fn setpoint(&self) -> f64 {
        self.config.setpoint
    }

    fn set_setpoint(&mut self, setpoint: f64) {
        self.config.setpoint = setpoint;
    }

    fn name(&self) -> &str {
        "fixed-gain"
    }

    fn reset(&mut self) {
        self.u = self.config.u_init;
    }

    fn current_gain(&self) -> Option<f64> {
        Some(self.config.gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> FixedGainController {
        FixedGainController::new(FixedGainConfig {
            setpoint: 60.0,
            gain: 0.1,
            dead_band: 5.0,
            u_init: 4.0,
        })
    }

    #[test]
    fn responds_proportionally_to_error() {
        let mut c = controller();
        let u1 = c.step(80.0); // error 20 → +2
        assert!((u1 - 6.0).abs() < 1e-12);
        let u2 = c.step(80.0);
        assert!((u2 - 8.0).abs() < 1e-12, "constant per-step increment");
    }

    #[test]
    fn dead_band_suppresses_small_errors() {
        let mut c = controller();
        assert_eq!(c.step(63.0), 4.0);
        assert_eq!(c.step(56.0), 4.0);
        assert_eq!(c.step(65.0), 4.0, "boundary is inside the band");
        assert!(c.step(66.0) > 4.0, "outside the band acts");
    }

    #[test]
    fn increment_never_grows() {
        // Contrast with the adaptive controller: under persistent error
        // the per-step increment stays constant.
        let mut c = controller();
        let mut prev = c.actuator();
        let mut deltas = Vec::new();
        for _ in 0..10 {
            let u = c.step(90.0);
            deltas.push(u - prev);
            prev = u;
        }
        for d in &deltas {
            assert!((d - deltas[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn releases_capacity_below_band() {
        let mut c = controller();
        let u = c.step(30.0); // error −30 → −3
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sync_reset_setpoint() {
        let mut c = controller();
        c.step(90.0);
        c.sync_actuator(2.0);
        assert_eq!(c.actuator(), 2.0);
        c.reset();
        assert_eq!(c.actuator(), 4.0);
        c.set_setpoint(50.0);
        assert_eq!(c.setpoint(), 50.0);
        assert_eq!(c.name(), "fixed-gain");
        assert_eq!(c.gain(), 0.1);
    }

    #[test]
    #[should_panic(expected = "gain must be positive")]
    fn zero_gain_rejected() {
        FixedGainController::new(FixedGainConfig {
            gain: 0.0,
            ..Default::default()
        });
    }
}
