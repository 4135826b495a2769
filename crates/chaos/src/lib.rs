// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-chaos
//!
//! Seeded, deterministic fault injection for the Flower reproduction.
//!
//! The paper's §3.3 control loops assume every resize lands and every
//! sensor reading is fresh; real managed services reject, throttle, lag,
//! and go quiet. This crate perturbs the simulated flow with exactly
//! those failure modes — **reproducibly**:
//!
//! * [`FaultPlan`] — a declarative plan (scenario presets + a TOML
//!   subset) of [`FaultClause`]s: resize-API rejection, quantized-short
//!   actuation, delayed actuation, sensor dropout, and deterministic
//!   throttling storms, each scoped to a layer and a sim-time window.
//! * [`FaultInjector`] — evaluates the plan. Every randomized clause
//!   draws from a dedicated per-layer RNG stream
//!   (`SimRng::seed(seed).fork(1 + position)`), so traces stay
//!   byte-identical at any worker count and adding a layer never
//!   perturbs another layer's faults.
//! * [`ChaosLayer`] — wraps any [`flower_cloud::LayerService`] so the
//!   injector sits between the control plane and the service.
//!
//! Every injected fault emits a [`flower_obs::kind::CHAOS_FAULT`] event
//! when a recorder is attached, so the `flower trace` timeline can line
//! faults up against retries, timeouts, and degraded-mode windows (see
//! `flower-core`'s resilience policy, which consumes this crate).

#![deny(missing_docs)]

pub mod inject;
pub mod plan;
pub mod wrap;

pub use inject::{DelayedResize, FaultDecision, FaultInjector};
pub use plan::{FaultClause, FaultKind, FaultPlan, PRESETS};
pub use wrap::ChaosLayer;
