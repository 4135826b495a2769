// Operational entry point: exempt from the library panic-freedom,
// console and determinism floor (DESIGN.md §7).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods
)]
//! **E4 — the §3.3 controller comparison.**
//!
//! The paper claims its adaptive gain-memory controller "outperforms the
//! state of the art fixed-gain \[12\] and quasi-adaptive \[14\]
//! counterparts" (experiments detailed in the companion journal paper
//! \[9\]). This experiment reproduces the comparison's *shape* on three
//! workloads — step, flash crowd, and recurring bursts (MMPP) — scoring
//! each controller on throttled records (elasticity speed), SLO
//! violation rate, cost, and actuator oscillation.
//!
//! Expected shape: the adaptive controller throttles the fewest records
//! (reacts fastest), the rule-based autoscaler the most; the adaptive
//! premium is a modestly higher cost from transient over-provisioning.
//!
//! ```text
//! cargo run --release -p flower-bench --bin exp_controllers [--seed N]
//! ```

use flower_bench::{print_summary_header, print_summary_row, run_episode, seed_arg, summarize};
use flower_core::config::ControllerSpec;
use flower_core::prelude::*;
use flower_sim::{SimDuration, SimRng, SimTime};
use flower_workload::MmppRate;

fn workload(kind: &str, seed: u64) -> Workload {
    match kind {
        "step" => Workload::step(600.0, 3_600.0, SimTime::from_mins(10)),
        "flash-crowd" => Workload::flash_crowd(600.0, 5_000.0, SimTime::from_mins(10)),
        "recurring-bursts" => Workload::custom(Box::new(MmppRate::new(
            500.0,
            4_000.0,
            SimDuration::from_mins(8),
            SimDuration::from_mins(4),
            SimRng::seed(seed ^ 0xABCD),
        ))),
        _ => unreachable!(),
    }
}

fn main() {
    let seed = seed_arg(5);
    const MINUTES: u64 = 60;
    let specs = [
        ControllerSpec::adaptive(60.0),
        ControllerSpec::fixed_gain(60.0),
        ControllerSpec::quasi_adaptive(60.0),
        ControllerSpec::rule_based(60.0),
    ];

    let mut adaptive_thr = u64::MAX;
    let mut best_other_thr = u64::MAX;

    for kind in ["step", "flash-crowd", "recurring-bursts"] {
        println!("\n=== workload: {kind} ({MINUTES} min, seed {seed}) ===");
        print_summary_header();
        for spec in &specs {
            let report = run_episode(spec.clone(), workload(kind, seed), MINUTES, seed);
            let summary = summarize(spec.name(), &report);
            print_summary_row(&summary);
            if kind == "recurring-bursts" {
                if spec.name() == "adaptive" {
                    adaptive_thr = summary.throttled_ingest;
                } else {
                    best_other_thr = best_other_thr.min(summary.throttled_ingest);
                }
            }
        }
    }

    println!("\n== shape check (recurring bursts, the gain-memory habitat) ==");
    println!(
        "  adaptive throttles fewer records than every baseline: {} ({} vs best baseline {})",
        if adaptive_thr < best_other_thr {
            "PASS"
        } else {
            "FAIL"
        },
        adaptive_thr,
        best_other_thr
    );
}
