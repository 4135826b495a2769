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
//! **A2 — ablation: the monitoring period.**
//!
//! The demo lets attendees "adjust parameters of the controllers, such
//! as elasticity speed, monitoring period, or even their internal
//! settings and compare their impacts on SLOs" (§4). This ablation
//! sweeps the sensor window / control interval on a flash-crowd
//! workload.
//!
//! Expected shape: very short periods react fastest but act on noisy
//! windows (more actions); very long periods are cheap on actions but
//! throttle heavily during the crowd; an intermediate period balances.
//!
//! ```text
//! cargo run --release -p flower-bench --bin abl_monitoring_period [--seed N]
//! ```

use flower_bench::seed_arg;
use flower_core::flow::clickstream_flow;
use flower_core::prelude::*;
use flower_sim::{SimDuration, SimTime};

fn main() {
    let seed = seed_arg(5);
    const MINUTES: u64 = 45;

    println!("A2 — monitoring period sweep (flash crowd at t=10 min, {MINUTES} min)");
    println!(
        "{:>10} {:>14} {:>10} {:>10} {:>12}",
        "period", "thr.ingest", "cost $", "actions", "rejected"
    );

    let mut results = Vec::new();
    for secs in [10u64, 15, 30, 60, 120, 300] {
        let mut manager = ElasticityManager::builder(clickstream_flow())
            .workload(Workload::flash_crowd(
                600.0,
                5_000.0,
                SimTime::from_mins(10),
            ))
            .monitoring_period(SimDuration::from_secs(secs))
            .seed(seed)
            .build()
            .expect("workload attached above");
        let report = manager.run_for_mins(MINUTES);
        let rejected: u64 = report.rejected_actuations.iter().sum();
        println!(
            "{:>9}s {:>14} {:>10.4} {:>10} {:>12}",
            secs,
            report.throttled_ingest,
            report.total_cost_dollars,
            report.total_actions(),
            rejected
        );
        results.push((secs, report.throttled_ingest, report.total_actions()));
    }

    let thr_short = results.first().expect("non-empty").1;
    let thr_long = results.last().expect("non-empty").1;
    let actions_short = results.first().expect("non-empty").2;
    let actions_long = results.last().expect("non-empty").2;
    println!("\n== shape checks ==");
    println!(
        "  short periods throttle less than long ones: {} ({thr_short} vs {thr_long})",
        if thr_short < thr_long { "PASS" } else { "FAIL" }
    );
    println!(
        "  short periods act more often: {} ({actions_short} vs {actions_long})",
        if actions_short > actions_long {
            "PASS"
        } else {
            "FAIL"
        }
    );
}
