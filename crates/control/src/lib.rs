// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-control
//!
//! Elasticity controllers for data analytics flows — the heart of the
//! Flower paper's §3.3 (*Resource Provisioning*).
//!
//! All controllers share one discrete-time loop shape: each monitoring
//! period the sensor reports a measurement `y_k` (typically a utilization
//! percentage), the controller computes a new actuator value `u_{k+1}`
//! (shards, VMs, or capacity units), and the actuator applies it.
//!
//! Implemented controllers:
//!
//! * [`adaptive::AdaptiveController`] — **the paper's controller**
//!   (Eqs. 6–7): integral control `u_{k+1} = u_k + l_{k+1}(y_k − y_r)`
//!   whose gain follows the clamped adaptive update law
//!   `l_{k+1} = clamp(l_k + γ(y_k − y_r), l_min, l_max)`, extended with the
//!   *gain memory* feature §3.3 highlights ("keeping the history of the
//!   previously computed control gains for rapid elasticity").
//! * [`fixed::FixedGainController`] — the fixed-gain integral controller
//!   with dead-band of Lim, Babu & Chase (ICAC 2010), the paper's
//!   reference \[12\].
//! * [`quasi::QuasiAdaptiveController`] — the self-tuning controller of
//!   Padala et al. (EuroSys 2007), the paper's reference \[14\]: an online
//!   RLS estimate of a first-order model re-derives the gain each step.
//! * [`rule::RuleBasedController`] — the threshold-plus-cooldown
//!   autoscaler the paper's introduction critiques (Amazon Auto Scaling).
//!
//! [`stability`] provides the response metrics (settling time, overshoot,
//! oscillation count, IAE) used to compare them, reproducing the shape of
//! the §3.3 claim that the adaptive controller outperforms both baselines.

#![deny(missing_docs)]

pub mod adaptive;
pub mod fixed;
pub mod quasi;
pub mod rule;
pub mod stability;

pub use adaptive::{AdaptiveConfig, AdaptiveController};
pub use fixed::{FixedGainConfig, FixedGainController};
pub use quasi::{QuasiAdaptiveConfig, QuasiAdaptiveController};
pub use rule::{RuleBasedConfig, RuleBasedController};
pub use stability::{gain_is_stable, integral_gain_stability_bound, ResponseMetrics};

/// A discrete-time elasticity controller.
///
/// Convention: the measurement `y` *increases* when the layer needs more
/// resources (utilization, backlog, latency), so controllers add capacity
/// while `y_k > y_r` and release it while `y_k < y_r`.
pub trait Controller {
    /// Fold one measurement and return the new (continuous) actuator
    /// value. The caller rounds/clamps it to what the cloud accepts.
    fn step(&mut self, measurement: f64) -> f64;

    /// The current actuator value the controller believes is in force.
    fn actuator(&self) -> f64;

    /// Overwrite the controller's actuator state — used when the real
    /// actuation was clamped (account limits, reshard-in-progress) so the
    /// controller does not wind up against a bound it cannot cross.
    fn sync_actuator(&mut self, actual: f64);

    /// The setpoint `y_r`.
    fn setpoint(&self) -> f64;

    /// Change the setpoint at runtime.
    fn set_setpoint(&mut self, setpoint: f64);

    /// Controller name for reports.
    fn name(&self) -> &str;

    /// Reset internal state (gain, histories) keeping configuration.
    fn reset(&mut self);

    /// The current integral gain, for controllers that have one. The
    /// observability layer records this per control round to expose the
    /// Eq. 7 gain trajectory; gain-free controllers return `None`.
    fn current_gain(&self) -> Option<f64> {
        None
    }

    /// True when the *most recent* [`Controller::step`] warm-started its
    /// gain from memory (the adaptive controller's gain-memory feature,
    /// §3.3). Always false for memoryless controllers.
    fn warm_started(&self) -> bool {
        false
    }

    /// Notify the controller that this control round is *held*: the
    /// sensor is stale (e.g. an injected metric dropout) and the loop is
    /// keeping the last-known-good actuation instead of stepping. The
    /// controller must freeze every adaptive quantity — for the paper's
    /// adaptive controller that means the Eq. 7 gain `l_k` and its gain
    /// memory stay untouched, so garbage error signals cannot corrupt
    /// them. The default is a no-op (stateless controllers need nothing).
    fn hold(&mut self) {}
}
