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
//! **A1 — ablation: the gain-memory feature and the γ sweep.**
//!
//! §3.3 distinguishes Flower's controller by "updating the gain
//! parameters in multi-stages and keeping the history of the previously
//! computed control gains for rapid elasticity". This ablation isolates
//! that feature: the same adaptive controller with and without gain
//! memory, across the γ (gain adaptation rate) range, on a
//! recurring-burst workload where regimes repeat.
//!
//! Expected shape: memory pays when γ is small (the gain would otherwise
//! re-ramp slowly on every burst) and washes out as γ grows (one step
//! already saturates the gain); throttled records quantify the benefit.
//!
//! ```text
//! cargo run --release -p flower-bench --bin abl_gain_memory [--seed N]
//! ```

use flower_bench::{run_episode, seed_arg};
use flower_core::config::ControllerSpec;
use flower_core::prelude::*;
use flower_sim::{SimDuration, SimRng};
use flower_workload::MmppRate;

fn bursts(seed: u64) -> Workload {
    Workload::custom(Box::new(MmppRate::new(
        500.0,
        4_000.0,
        SimDuration::from_mins(8),
        SimDuration::from_mins(4),
        SimRng::seed(seed ^ 0x5EED),
    )))
}

fn main() {
    let base_seed = seed_arg(5);
    const MINUTES: u64 = 90;
    let seeds = [base_seed, base_seed + 1, base_seed + 2];

    println!(
        "A1 — gain memory ablation ({MINUTES} min recurring bursts, {} seeds)",
        seeds.len()
    );
    println!(
        "{:>9} {:>8} {:>14} {:>10} {:>10}",
        "gamma", "memory", "thr.ingest", "cost $", "actions"
    );

    let mut memory_wins_small_gamma = false;
    for gamma in [0.00002, 0.00005, 0.0001, 0.0005] {
        let mut rows = Vec::new();
        for memory in [true, false] {
            let spec = ControllerSpec::Adaptive {
                setpoint: 60.0,
                gamma,
                l_min: 0.002,
                l_max: 0.05,
                gain_memory: memory,
            };
            let mut thr = 0u64;
            let mut cost = 0.0;
            let mut actions = 0u64;
            for &seed in &seeds {
                let report = run_episode(spec.clone(), bursts(seed), MINUTES, seed);
                thr += report.throttled_ingest;
                cost += report.total_cost_dollars;
                actions += report.total_actions();
            }
            println!(
                "{:>9} {:>8} {:>14} {:>10.3} {:>10}",
                gamma,
                if memory { "on" } else { "off" },
                thr,
                cost,
                actions
            );
            rows.push(thr);
        }
        if gamma <= 0.00005 && rows[0] < rows[1] {
            memory_wins_small_gamma = true;
        }
    }

    println!("\n== shape check ==");
    println!(
        "  memory reduces throttling at small gamma: {}",
        if memory_wins_small_gamma {
            "PASS"
        } else {
            "FAIL"
        }
    );
}
