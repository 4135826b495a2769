// Operational entry point: exempt from the library panic-freedom,
// console and determinism floor (DESIGN.md §7).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout,
    clippy::print_stderr
)]
//! # flower-bench
//!
//! The experiment harness regenerating every figure of the Flower paper
//! plus the ablations DESIGN.md calls out. Each experiment is a binary:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig2_dependency` | Fig. 2 + Eq. 2 — cross-layer dependency & regression |
//! | `fig4_pareto` | Fig. 4 — Pareto-optimal resource shares (NSGA-II) |
//! | `exp_controllers` | §3.3 — adaptive vs fixed-gain vs quasi-adaptive vs rule-based |
//! | `exp_holistic` | §1 — holistic vs analytics-only vs static-peak cost |
//! | `abl_gain_memory` | A1 — gain memory on/off, γ sweep |
//! | `abl_monitoring_period` | A2 — monitoring period sweep |
//! | `abl_nsga2` | A3 — NSGA-II vs random/grid search (hypervolume) |
//! | `abl_skew` | A4 — hot-key skew: stream-average vs hottest-shard sensor |
//!
//! All binaries accept an optional `--seed N` argument and print
//! CSV-ish tables to stdout. Performance is measured by the repository
//! benchmark in `perfbench/`, not here.

#![warn(clippy::all)]
// Re-allowed after `warn(clippy::all)`, which would re-raise it.
#![allow(clippy::disallowed_methods)]

use flower_core::config::ControllerSpec;
use flower_core::flow::{clickstream_flow, Layer};
use flower_core::prelude::*;

/// Parse `--seed N` from argv, defaulting to the experiment's fixed seed.
pub fn seed_arg(default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--seed")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

/// Run one elasticity episode of the reference click-stream flow with the
/// same controller spec on every layer.
pub fn run_episode(
    spec: ControllerSpec,
    workload: Workload,
    minutes: u64,
    seed: u64,
) -> EpisodeReport {
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(workload)
        .all_controllers(spec)
        .seed(seed)
        .build()
        .expect("workload attached above");
    manager.run_for_mins(minutes)
}

/// Summarize an episode into the columns the §3.3 comparison reports.
pub struct EpisodeSummary {
    /// Controller name.
    pub controller: String,
    /// Whether the default click-stream SLO held.
    pub slo_met: bool,
    /// Records throttled at ingestion (elasticity-speed proxy).
    pub throttled_ingest: u64,
    /// Loss rate at ingestion.
    pub loss_rate: f64,
    /// Dollar cost of the episode.
    pub cost: f64,
    /// Scaling actions taken.
    pub actions: u64,
    /// Analytics-layer SLO violation rate (CPU outside 60 ± 15).
    pub violation_rate: f64,
    /// Analytics-layer integral absolute error.
    pub iae: f64,
    /// Analytics-layer oscillation count.
    pub oscillations: usize,
}

/// Build the summary for a finished episode.
pub fn summarize(controller: &str, report: &EpisodeReport) -> EpisodeSummary {
    let metrics = report.response_metrics(Layer::ANALYTICS, 60.0, 15.0);
    let slo_met = flower_core::slo::SloSpec::clickstream_default()
        .evaluate(report)
        .all_met();
    EpisodeSummary {
        controller: controller.to_owned(),
        slo_met,
        throttled_ingest: report.throttled_ingest,
        loss_rate: report.ingest_loss_rate(),
        cost: report.total_cost_dollars,
        actions: report.total_actions(),
        violation_rate: metrics.violation_rate,
        iae: metrics.integral_abs_error,
        oscillations: metrics.oscillations,
    }
}

/// Print the standard comparison table header.
pub fn print_summary_header() {
    println!(
        "{:<16} {:>12} {:>8} {:>10} {:>9} {:>12} {:>10} {:>6} {:>5}",
        "controller", "thr.ingest", "loss%", "cost $", "actions", "violation%", "IAE", "osc", "SLO"
    );
}

/// Print one summary row.
pub fn print_summary_row(s: &EpisodeSummary) {
    println!(
        "{:<16} {:>12} {:>8.2} {:>10.4} {:>9} {:>12.1} {:>10.0} {:>6} {:>5}",
        s.controller,
        s.throttled_ingest,
        s.loss_rate * 100.0,
        s.cost,
        s.actions,
        s.violation_rate * 100.0,
        s.iae,
        s.oscillations,
        if s.slo_met { "met" } else { "MISS" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_sim::SimTime;

    #[test]
    fn seed_arg_defaults() {
        assert_eq!(seed_arg(17), 17);
    }

    #[test]
    fn episode_and_summary_roundtrip() {
        let report = run_episode(
            ControllerSpec::adaptive(60.0),
            Workload::step(400.0, 2_000.0, SimTime::from_mins(2)),
            6,
            1,
        );
        let s = summarize("adaptive", &report);
        assert_eq!(s.controller, "adaptive");
        assert!(s.cost > 0.0);
        assert!(s.loss_rate >= 0.0 && s.loss_rate <= 1.0);
        print_summary_header();
        print_summary_row(&s);
    }
}
