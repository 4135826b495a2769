//! The paper's adaptive controller (Eqs. 6–7) with gain memory.
//!
//! Control law (Eq. 6):
//! ```text
//! u_{k+1} = u_k + l_{k+1} · (y_k − y_r)
//! ```
//!
//! Gain update law (Eq. 7):
//! ```text
//! l_{k+1} = l_k + γ(y_k − y_r)   clamped to [l_min, l_max]
//! ```
//!
//! While the error persists on one side of the setpoint the gain keeps
//! growing (bounded by `l_max`), so a large sustained disturbance is
//! answered with increasingly aggressive resizing — the "rapid
//! elasticity" of §3.3. When the measurement crosses back, the same law
//! pulls the gain down again, restoring gentle steady-state behaviour.
//! The clamping to `[l_min, l_max]` is what the companion paper's
//! stability analysis relies on.
//!
//! **Gain memory.** §3.3 distinguishes Flower from fixed-gain \[12\] and
//! quasi-adaptive \[14\] controllers by "updating the gain parameters in
//! multi-stages and keeping the history of the previously computed
//! control gains". We implement that as a bounded history of recently
//! computed gains: when the error *re-enters* the same regime (sign) after
//! an excursion, the controller warm-starts the gain from the largest
//! gain it recently needed in that regime instead of re-ramping from
//! scratch. The feature can be disabled (`gain_memory = false`) for the
//! A1 ablation.

use std::collections::VecDeque;

use crate::Controller;

/// Configuration of the adaptive controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Setpoint `y_r` (e.g. target utilization %).
    pub setpoint: f64,
    /// Gain adaptation rate γ (> 0).
    pub gamma: f64,
    /// Gain lower bound `l_min` (> 0).
    pub l_min: f64,
    /// Gain upper bound `l_max` (>= l_min).
    pub l_max: f64,
    /// Initial gain `l_0`, clamped into `[l_min, l_max]`.
    pub l_init: f64,
    /// Initial actuator value `u_0`.
    pub u_init: f64,
    /// Keep a history of computed gains and warm-start from it on regime
    /// re-entry (the paper's distinguishing feature).
    pub gain_memory: bool,
    /// How many past gains the memory retains.
    pub memory_len: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            setpoint: 60.0,
            gamma: 0.005,
            l_min: 0.01,
            l_max: 1.0,
            l_init: 0.05,
            u_init: 1.0,
            gain_memory: true,
            memory_len: 32,
        }
    }
}

/// The paper's adaptive elasticity controller.
///
/// ```
/// use flower_control::{AdaptiveConfig, AdaptiveController, Controller};
/// let mut c = AdaptiveController::new(AdaptiveConfig {
///     setpoint: 60.0,
///     u_init: 2.0,
///     ..Default::default()
/// });
/// // Persistent overload: each step adds capacity, and the per-step
/// // increment grows as the gain adapts (Eq. 7).
/// let u1 = c.step(90.0);
/// let u2 = c.step(90.0);
/// assert!(u1 > 2.0 && (u2 - u1) >= (u1 - 2.0));
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    config: AdaptiveConfig,
    u: f64,
    l: f64,
    /// Gains computed while over the setpoint (scale-out regime).
    history_over: VecDeque<f64>,
    /// Gains computed while under the setpoint (scale-in regime).
    history_under: VecDeque<f64>,
    last_error_positive: Option<bool>,
    steps: u64,
    /// Whether the most recent step recalled a remembered gain.
    warm_started_last: bool,
    /// Total warm starts taken since construction/reset.
    warm_starts: u64,
    /// Control rounds held with a stale sensor (degraded mode).
    held_rounds: u64,
}

impl AdaptiveController {
    /// Build from configuration.
    pub fn new(config: AdaptiveConfig) -> AdaptiveController {
        assert!(config.gamma > 0.0, "gamma must be positive (Eq. 7)");
        assert!(config.l_min > 0.0, "l_min must be positive (Eq. 7)");
        assert!(config.l_max >= config.l_min, "l_max must be >= l_min");
        assert!(config.memory_len > 0, "memory length must be positive");
        let l = config.l_init.clamp(config.l_min, config.l_max);
        AdaptiveController {
            u: config.u_init,
            l,
            history_over: VecDeque::with_capacity(config.memory_len),
            history_under: VecDeque::with_capacity(config.memory_len),
            last_error_positive: None,
            config,
            steps: 0,
            warm_started_last: false,
            warm_starts: 0,
            held_rounds: 0,
        }
    }

    /// Current controller gain `l_k`.
    pub fn gain(&self) -> f64 {
        self.l
    }

    /// The remembered gains across both regimes (scale-out first).
    pub fn gain_history(&self) -> impl Iterator<Item = f64> + '_ {
        self.history_over
            .iter()
            .chain(self.history_under.iter())
            .copied()
    }

    /// Number of control steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of steps that warm-started the gain from memory (regime
    /// re-entries where a remembered gain beat the current one).
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts
    }

    /// Control rounds spent held in degraded mode (see
    /// [`Controller::hold`]).
    pub fn held_rounds(&self) -> u64 {
        self.held_rounds
    }

    fn remember(&mut self, positive_error: bool, gain: f64) {
        let history = if positive_error {
            &mut self.history_over
        } else {
            &mut self.history_under
        };
        if history.len() == self.config.memory_len {
            history.pop_front();
        }
        history.push_back(gain);
    }

    /// Largest remembered gain for the given error regime.
    fn recall(&self, positive_error: bool) -> Option<f64> {
        let history = if positive_error {
            &self.history_over
        } else {
            &self.history_under
        };
        history
            .iter()
            .copied()
            .fold(None, |acc, g| Some(acc.map_or(g, |a: f64| a.max(g))))
    }
}

impl Controller for AdaptiveController {
    fn step(&mut self, measurement: f64) -> f64 {
        let error = measurement - self.config.setpoint;
        let positive = error > 0.0;
        // False exactly at the setpoint (and on a NaN measurement), where
        // the error has no direction to remember.
        let has_direction = error.abs() > 0.0;

        // Regime re-entry: warm-start from history (the memory feature).
        // The warm start applies to the *scale-out* regime only: rapid
        // elasticity means acquiring resources "as soon as required"
        // (§1); releasing them reuses the cautious freshly-adapted gain,
        // so a remembered aggressive scale-in can never amplify the next
        // disturbance.
        self.warm_started_last = false;
        if self.config.gain_memory && has_direction {
            if positive && self.last_error_positive != Some(true) {
                if let Some(remembered) = self.recall(true) {
                    if remembered > self.l {
                        self.l = remembered;
                        self.warm_started_last = true;
                        self.warm_starts += 1;
                    }
                }
            }
            self.last_error_positive = Some(positive);
        }

        // Gain update law (Eq. 7): drift the gain along the error, clamp.
        self.l = (self.l + self.config.gamma * error).clamp(self.config.l_min, self.config.l_max);

        if self.config.gain_memory && has_direction {
            self.remember(positive, self.l);
        }

        // Control law (Eq. 6).
        self.u += self.l * error;
        self.steps += 1;
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
        "adaptive"
    }

    fn reset(&mut self) {
        self.u = self.config.u_init;
        self.l = self
            .config
            .l_init
            .clamp(self.config.l_min, self.config.l_max);
        self.history_over.clear();
        self.history_under.clear();
        self.last_error_positive = None;
        self.steps = 0;
        self.warm_started_last = false;
        self.warm_starts = 0;
        self.held_rounds = 0;
    }

    fn current_gain(&self) -> Option<f64> {
        Some(self.l)
    }

    fn warm_started(&self) -> bool {
        self.warm_started_last
    }

    fn hold(&mut self) {
        // Degraded mode: no measurement arrived, so neither Eq. 6 nor
        // Eq. 7 runs — `u`, `l`, and the gain memory all stay frozen.
        // Only bookkeeping moves.
        self.warm_started_last = false;
        self.held_rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(gain_memory: bool) -> AdaptiveController {
        AdaptiveController::new(AdaptiveConfig {
            setpoint: 60.0,
            gamma: 0.01,
            l_min: 0.01,
            l_max: 2.0,
            l_init: 0.1,
            u_init: 4.0,
            gain_memory,
            memory_len: 16,
        })
    }

    #[test]
    fn over_setpoint_adds_capacity() {
        let mut c = controller(false);
        let u0 = c.actuator();
        let u1 = c.step(90.0);
        assert!(u1 > u0, "u must grow when y > y_r");
    }

    #[test]
    fn under_setpoint_releases_capacity() {
        let mut c = controller(false);
        let u0 = c.actuator();
        let u1 = c.step(20.0);
        assert!(u1 < u0, "u must shrink when y < y_r");
    }

    #[test]
    fn at_setpoint_holds() {
        let mut c = controller(false);
        let u0 = c.actuator();
        assert_eq!(c.step(60.0), u0);
    }

    #[test]
    fn gain_ramps_under_persistent_error() {
        // Eq. 7: while the error persists, the gain keeps growing.
        let mut c = controller(false);
        let mut last_gain = c.gain();
        let mut deltas = Vec::new();
        let mut prev_u = c.actuator();
        for _ in 0..10 {
            let u = c.step(90.0);
            deltas.push(u - prev_u);
            prev_u = u;
            assert!(c.gain() >= last_gain);
            last_gain = c.gain();
        }
        // The per-step increments themselves grow: rapid elasticity.
        assert!(deltas[9] > deltas[0] * 2.0, "deltas={deltas:?}");
    }

    #[test]
    fn gain_is_clamped_at_bounds() {
        let mut c = controller(false);
        for _ in 0..10_000 {
            c.step(100.0);
        }
        assert!((c.gain() - 2.0).abs() < 1e-12, "upper clamp");
        c.reset();
        for _ in 0..10_000 {
            c.step(0.0);
        }
        assert!((c.gain() - 0.01).abs() < 1e-12, "lower clamp");
    }

    #[test]
    fn gain_decreases_after_crossing() {
        let mut c = controller(false);
        for _ in 0..20 {
            c.step(90.0);
        }
        let peak = c.gain();
        for _ in 0..5 {
            c.step(50.0);
        }
        assert!(c.gain() < peak, "gain must fall once y < y_r");
    }

    #[test]
    fn memory_warm_starts_on_regime_reentry() {
        let mut with = controller(true);
        let mut without = controller(false);
        // Phase 1: long overload ramps both gains up.
        for _ in 0..30 {
            with.step(95.0);
            without.step(95.0);
        }
        // Phase 2: dip below the setpoint pulls the gain down.
        for _ in 0..25 {
            with.step(30.0);
            without.step(30.0);
        }
        assert!(without.gain() <= 0.02, "memoryless gain collapsed");
        // Phase 3: overload returns. With memory, the first step recalls
        // the big gain; without, it re-ramps from the floor.
        let before_with = with.actuator();
        let before_without = without.actuator();
        let du_with = with.step(95.0) - before_with;
        let du_without = without.step(95.0) - before_without;
        assert!(
            du_with > du_without * 3.0,
            "memory should react much faster: {du_with} vs {du_without}"
        );
    }

    #[test]
    fn warm_start_telemetry_is_exposed() {
        let mut c = controller(true);
        assert_eq!(c.current_gain(), Some(0.1));
        assert!(!c.warm_started());
        // Ramp up, dip out, and re-enter the scale-out regime.
        for _ in 0..30 {
            c.step(95.0);
        }
        for _ in 0..25 {
            c.step(30.0);
        }
        assert_eq!(c.warm_starts(), 0, "no re-entry yet");
        c.step(95.0);
        assert!(c.warm_started(), "re-entry recalls the remembered gain");
        assert_eq!(c.warm_starts(), 1);
        // The flag reports only the most recent step.
        c.step(95.0);
        assert!(!c.warm_started());
        assert_eq!(c.warm_starts(), 1);
        assert_eq!(c.current_gain(), Some(c.gain()));
        c.reset();
        assert_eq!(c.warm_starts(), 0);
    }

    #[test]
    fn memoryless_controller_never_warm_starts() {
        let mut c = controller(false);
        for i in 0..40 {
            c.step(if i % 3 == 0 { 30.0 } else { 95.0 });
            assert!(!c.warm_started());
        }
        assert_eq!(c.warm_starts(), 0);
    }

    #[test]
    fn memory_is_bounded() {
        let mut c = controller(true);
        for i in 0..200 {
            c.step(if i % 2 == 0 { 80.0 } else { 40.0 });
        }
        // Each regime keeps at most `memory_len` gains.
        assert!(c.gain_history().count() <= 32);
    }

    #[test]
    fn hold_freezes_gain_actuator_and_memory() {
        let mut c = controller(true);
        // Ramp the gain up and populate the scale-out memory.
        for _ in 0..20 {
            c.step(95.0);
        }
        let gain = c.gain();
        let u = c.actuator();
        let remembered = c.gain_history().count();
        let steps = c.steps();
        for _ in 0..5 {
            c.hold();
        }
        assert_eq!(c.gain(), gain, "Eq. 7 gain must stay frozen while held");
        assert_eq!(c.actuator(), u, "Eq. 6 actuator must stay frozen");
        assert_eq!(c.gain_history().count(), remembered, "memory untouched");
        assert_eq!(c.steps(), steps, "held rounds are not control steps");
        assert_eq!(c.held_rounds(), 5);
        assert!(!c.warm_started(), "hold clears the warm-start flag");
        // Recovery: the next real step resumes from the frozen gain.
        let before = c.actuator();
        let after = c.step(95.0);
        assert!((after - before - gain_effect(gain, 95.0 - 60.0)).abs() < 1.0);
        c.reset();
        assert_eq!(c.held_rounds(), 0);
    }

    /// The Eq. 6 increment for a gain near `l` and error `e` (the gain
    /// drifts by γ·e within the step, hence "near").
    fn gain_effect(l: f64, e: f64) -> f64 {
        l * e
    }

    #[test]
    fn default_hold_is_a_noop_for_stateless_controllers() {
        // The trait default must compile and do nothing observable.
        struct Bang(f64);
        impl Controller for Bang {
            fn step(&mut self, _m: f64) -> f64 {
                self.0
            }
            fn actuator(&self) -> f64 {
                self.0
            }
            fn sync_actuator(&mut self, actual: f64) {
                self.0 = actual;
            }
            fn setpoint(&self) -> f64 {
                0.0
            }
            fn set_setpoint(&mut self, _s: f64) {}
            fn name(&self) -> &str {
                "bang"
            }
            fn reset(&mut self) {}
        }
        let mut b = Bang(3.0);
        b.hold();
        assert_eq!(b.actuator(), 3.0);
    }

    #[test]
    fn sync_actuator_overrides_state() {
        let mut c = controller(false);
        c.step(90.0);
        c.sync_actuator(7.0);
        assert_eq!(c.actuator(), 7.0);
        // Next step builds on the synced value.
        let u = c.step(60.0);
        assert_eq!(u, 7.0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = controller(true);
        for _ in 0..50 {
            c.step(95.0);
        }
        c.reset();
        assert_eq!(c.actuator(), 4.0);
        assert!((c.gain() - 0.1).abs() < 1e-12);
        assert_eq!(c.gain_history().count(), 0);
        assert_eq!(c.steps(), 0);
    }

    #[test]
    fn setpoint_is_mutable() {
        let mut c = controller(false);
        assert_eq!(c.setpoint(), 60.0);
        c.set_setpoint(75.0);
        assert_eq!(c.setpoint(), 75.0);
        let u0 = c.actuator();
        assert_eq!(c.step(75.0), u0, "no error at the new setpoint");
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn invalid_gamma_rejected() {
        AdaptiveController::new(AdaptiveConfig {
            gamma: 0.0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "l_max must be >= l_min")]
    fn inverted_gain_bounds_rejected() {
        AdaptiveController::new(AdaptiveConfig {
            l_min: 1.0,
            l_max: 0.5,
            ..Default::default()
        });
    }
}
