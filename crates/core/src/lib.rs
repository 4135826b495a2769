// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-core
//!
//! **Flower: A Data Analytics Flow Elasticity Manager** — a Rust
//! reproduction of Khoshkbarforoushha, Ranjan, Wang & Friedrich's VLDB
//! 2017 demonstration.
//!
//! A data analytics flow spans three layers — ingestion, analytics,
//! storage — each backed by a managed cloud service (Kinesis, Storm on
//! EC2, DynamoDB in the paper's demo). Flower manages the *elasticity* of
//! the whole flow holistically:
//!
//! * [`dependency`] — **Workload Dependency Analysis** (§3.1): linear
//!   regressions between layer resource measures, learned from metric
//!   logs (the paper's Eq. 1/Eq. 2 and Fig. 2).
//! * [`share`] — **Resource Share Analysis** (§3.2): NSGA-II over the
//!   provisioning plan space, maximizing per-layer resource shares under
//!   a budget constraint and the learned dependency constraints (the
//!   paper's Eqs. 3–5 and Fig. 4).
//! * [`provision`] — **Resource Provisioning** (§3.3): per-layer
//!   sensor → controller → actuator loops, defaulting to the paper's
//!   adaptive gain-memory controller (Eqs. 6–7).
//! * [`monitor`] / [`dashboard`] — **Cross-Platform Monitoring** (§3.4):
//!   the "all-in-one-place visualizer" consolidating every service's
//!   metrics, rendered as text tables and sparkline charts.
//! * [`flow`] — the Flow Builder of the demo walkthrough (§4, Fig. 5):
//!   declare platforms, connect layers, validate, and materialize a
//!   runnable simulated flow.
//! * [`elasticity`] — the end-to-end runtime tying everything together:
//!   workload → simulated cloud → sensors → controllers → actuators,
//!   producing an auditable [`elasticity::EpisodeReport`].
//! * [`config`] — serializable configuration types mirroring the demo's
//!   Flow Configuration Wizard (§4, step 2).
//! * [`replan`] — the outer loop closing §3.1→§3.2→§3.3: periodic
//!   re-analysis of dependencies and re-solving of resource shares over
//!   trailing windows, as §2's "arbitrary time windows" describes.
//!
//! ## Quickstart
//!
//! ```
//! use flower_core::prelude::*;
//!
//! // 1. Build the paper's click-stream flow (Fig. 1).
//! let flow = FlowBuilder::new("clickstream")
//!     .ingestion(Platform::kinesis("clicks", 2))
//!     .analytics(Platform::storm("counter", 2))
//!     .storage(Platform::dynamo("aggregates", 100.0))
//!     .build()
//!     .expect("valid flow");
//!
//! // 2. Configure the elasticity manager and run 10 simulated minutes
//! //    against a diurnal click-stream workload.
//! let mut manager = ElasticityManager::builder(flow)
//!     .workload(Workload::diurnal(800.0, 600.0))
//!     .seed(7)
//!     .build()
//!     .expect("workload attached");
//! let report = manager.run_for_mins(10);
//! assert!(report.total_cost_dollars > 0.0);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod dashboard;
pub mod dependency;
pub mod elasticity;
pub mod error;
pub mod export;
pub mod flow;
pub mod monitor;
pub mod provision;
pub mod replan;
pub mod share;
pub mod slo;
pub mod wizard;

pub use error::FlowerError;

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::dependency::{Dependency, DependencyAnalyzer};
    pub use crate::elasticity::{ElasticityManager, EpisodeReport, Workload};
    pub use crate::error::FlowerError;
    pub use crate::flow::{FlowBuilder, FlowSpec, Layer, Platform};
    pub use crate::monitor::CrossPlatformMonitor;
    pub use crate::provision::{LayerControllerConfig, ProvisioningManager, ResilienceConfig};
    pub use crate::replan::{PlanSelection, ReplanConfig, Replanner};
    pub use crate::share::{ResourceShares, ShareAnalyzer, ShareProblem, ShareSolution};
    pub use crate::slo::{Objective, SloReport, SloSpec};
    pub use crate::wizard::WizardConfig;
    pub use flower_chaos::{FaultInjector, FaultPlan, PRESETS};
    pub use flower_control::Controller;
    pub use flower_sim::{SimDuration, SimTime};
}
