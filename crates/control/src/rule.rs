//! The rule-based baseline — the threshold autoscaler the paper's
//! introduction critiques (Amazon Auto Scaling, reference \[1\]):
//! "simple rule-based techniques that quickly trigger in response to
//! predefined threshold violations … they often fail to adapt to
//! unplanned or unforeseen changes in demand."
//!
//! Semantics mirror AWS target-less step scaling: when the measurement
//! breaches a threshold for `breach_count` consecutive evaluations, add
//! or remove a *fixed* number of units, then hold through a cooldown.

use crate::Controller;

/// Configuration of the rule-based autoscaler.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleBasedConfig {
    /// Scale-out threshold (acts when `y > high`).
    pub high: f64,
    /// Scale-in threshold (acts when `y < low`).
    pub low: f64,
    /// Consecutive breaches required before acting.
    pub breach_count: u32,
    /// Units added per scale-out action.
    pub step_up: f64,
    /// Units removed per scale-in action.
    pub step_down: f64,
    /// Evaluations to skip after any action.
    pub cooldown_steps: u32,
    /// Initial actuator value.
    pub u_init: f64,
}

impl Default for RuleBasedConfig {
    fn default() -> Self {
        RuleBasedConfig {
            high: 75.0,
            low: 35.0,
            breach_count: 2,
            step_up: 2.0,
            step_down: 1.0,
            cooldown_steps: 3,
            u_init: 1.0,
        }
    }
}

/// The rule-based autoscaler.
#[derive(Debug, Clone)]
pub struct RuleBasedController {
    config: RuleBasedConfig,
    u: f64,
    high_breaches: u32,
    low_breaches: u32,
    cooldown: u32,
    actions: u64,
}

impl RuleBasedController {
    /// Build from configuration.
    pub fn new(config: RuleBasedConfig) -> RuleBasedController {
        assert!(
            config.low < config.high,
            "low threshold must sit below high"
        );
        assert!(config.breach_count >= 1, "breach count must be at least 1");
        assert!(config.step_up > 0.0 && config.step_down > 0.0);
        RuleBasedController {
            u: config.u_init,
            config,
            high_breaches: 0,
            low_breaches: 0,
            cooldown: 0,
            actions: 0,
        }
    }

    /// Number of scaling actions taken so far.
    pub fn actions(&self) -> u64 {
        self.actions
    }
}

impl Controller for RuleBasedController {
    fn step(&mut self, measurement: f64) -> f64 {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return self.u;
        }
        if measurement > self.config.high {
            self.high_breaches += 1;
            self.low_breaches = 0;
        } else if measurement < self.config.low {
            self.low_breaches += 1;
            self.high_breaches = 0;
        } else {
            self.high_breaches = 0;
            self.low_breaches = 0;
        }

        if self.high_breaches >= self.config.breach_count {
            self.u += self.config.step_up;
            self.high_breaches = 0;
            self.cooldown = self.config.cooldown_steps;
            self.actions += 1;
        } else if self.low_breaches >= self.config.breach_count {
            self.u -= self.config.step_down;
            self.low_breaches = 0;
            self.cooldown = self.config.cooldown_steps;
            self.actions += 1;
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
        // The "setpoint" of a band controller is the band centre.
        (self.config.high + self.config.low) / 2.0
    }

    fn set_setpoint(&mut self, setpoint: f64) {
        // Shift the band to keep its width, centred on the new setpoint.
        let half = (self.config.high - self.config.low) / 2.0;
        self.config.high = setpoint + half;
        self.config.low = setpoint - half;
    }

    fn name(&self) -> &str {
        "rule-based"
    }

    fn reset(&mut self) {
        self.u = self.config.u_init;
        self.high_breaches = 0;
        self.low_breaches = 0;
        self.cooldown = 0;
        self.actions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> RuleBasedController {
        RuleBasedController::new(RuleBasedConfig {
            high: 75.0,
            low: 35.0,
            breach_count: 2,
            step_up: 2.0,
            step_down: 1.0,
            cooldown_steps: 3,
            u_init: 4.0,
        })
    }

    #[test]
    fn needs_consecutive_breaches() {
        let mut c = controller();
        assert_eq!(c.step(90.0), 4.0, "first breach: no action");
        assert_eq!(c.step(90.0), 6.0, "second consecutive breach: scale out");
    }

    #[test]
    fn interrupted_breaches_reset_the_count() {
        let mut c = controller();
        c.step(90.0);
        c.step(50.0); // back in band
        assert_eq!(c.step(90.0), 4.0, "count restarted");
    }

    #[test]
    fn cooldown_blocks_actions() {
        let mut c = controller();
        c.step(90.0);
        c.step(90.0); // action, cooldown = 3
        assert_eq!(c.actuator(), 6.0);
        for _ in 0..3 {
            assert_eq!(c.step(99.0), 6.0, "cooldown holds");
        }
        // Cooldown over; two more breaches trigger again.
        c.step(99.0);
        assert_eq!(c.step(99.0), 8.0);
        assert_eq!(c.actions(), 2);
    }

    #[test]
    fn scales_in_below_low() {
        let mut c = controller();
        c.step(10.0);
        assert_eq!(c.step(10.0), 3.0);
    }

    #[test]
    fn fixed_step_cannot_match_big_disturbances() {
        // The core weakness vs the adaptive controller: a huge spike
        // still only earns +2 units per (breach_count + cooldown) window.
        let mut c = controller();
        for _ in 0..12 {
            c.step(100.0);
        }
        // 12 steps: action every (2 breaches + 3 cooldown = 5) steps ⇒
        // at most 3 actions.
        assert!(c.actuator() <= 4.0 + 3.0 * 2.0);
    }

    #[test]
    fn setpoint_maps_to_band_centre() {
        let mut c = controller();
        assert_eq!(c.setpoint(), 55.0);
        c.set_setpoint(65.0);
        assert_eq!(c.setpoint(), 65.0);
        // Band width preserved: 85/45.
        assert_eq!(c.step(84.0), 4.0, "inside shifted band");
        c.step(86.0);
        assert_eq!(c.step(86.0), 6.0, "outside shifted band");
    }

    #[test]
    fn reset_and_sync() {
        let mut c = controller();
        c.step(90.0);
        c.step(90.0);
        c.sync_actuator(10.0);
        assert_eq!(c.actuator(), 10.0);
        c.reset();
        assert_eq!(c.actuator(), 4.0);
        assert_eq!(c.actions(), 0);
        assert_eq!(c.name(), "rule-based");
    }

    #[test]
    #[should_panic(expected = "low threshold must sit below high")]
    fn inverted_band_rejected() {
        RuleBasedController::new(RuleBasedConfig {
            high: 30.0,
            low: 60.0,
            ..Default::default()
        });
    }
}
