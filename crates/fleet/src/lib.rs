// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-fleet
//!
//! The multi-flow fleet manager: thousands of tenant flows — each its
//! own [`flower_core::elasticity::ElasticityManager`] episode — sharing
//! one global hourly budget (the paper's Eq. 4 constraint, lifted from
//! a single flow to a fleet, in the spirit of Kllapi et al.'s elastic
//! workload scheduling under shared money/time constraints).
//!
//! The pipeline is **registry → broker → fan-out → ordered merge**
//! (DESIGN.md §16):
//!
//! * [`spec`] — the declarative fleet: a registry of [`spec::TenantSpec`]s
//!   keyed by stable [`spec::FlowId`]s, parsed from a small TOML subset
//!   (`flower fleet run --config fleet.toml`).
//! * [`broker`] — the global budget broker: pluggable policies
//!   (fair-share, strict priority, proportional bid) splitting the
//!   global budget across the active tenants at every decision point.
//! * [`runner`] — SimTime-scheduled rebroker events (joins, leaves,
//!   settle windows, overspend) multiplexed on one
//!   [`flower_sim::Scheduler`], with due per-flow episodes fanned out
//!   over [`flower_par::Executor`] and collected in registry order.
//!
//! ## Determinism
//!
//! An `ElasticityManager` is `!Send` (its recorder is an `Rc` ring
//! buffer), so a flow's entire episode runs inside *one* worker
//! closure, built from plain `Send` data and returning plain `Send`
//! results (the flow's trace rendered as a
//! [`flower_obs::RenderedStream`]). Collection is ordered, the broker
//! timeline is a pure function of the spec, and the merged trace orders
//! events by `(fleet time, registry index, seq)` — so the same seed
//! produces a **byte-identical** merged trace at any `FLOWER_THREADS`,
//! and a 1-flow fleet's tenant lines reproduce the single-episode golden
//! trace byte-for-byte (less `seq` and the `flow` stamp).

#![deny(missing_docs)]

pub mod broker;
pub mod runner;
pub mod spec;

pub use broker::{allocate, BrokerPolicy, Claim};
pub use runner::{Fleet, FleetReport, FlowOutcome};
pub use spec::{EpisodeConfig, FleetSpec, FlowId, ReplanSpec, TenantSpec, WorkloadSpec};

/// Errors from fleet parsing, validation, or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError(pub String);

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FleetError {}

impl From<String> for FleetError {
    fn from(msg: String) -> FleetError {
        FleetError(msg)
    }
}
