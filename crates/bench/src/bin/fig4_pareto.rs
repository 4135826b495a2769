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
//! **E3 — Fig. 4 of the paper: Pareto-optimal resource shares.**
//!
//! The paper's worked example (§3.2): maximize `(r_I, r_A, r_S)` subject
//! to a budget and the assumptive dependency constraints
//! `5·r_A ≥ r_I`, `2·r_A ≤ r_I`, `2·r_I ≤ r_S`, solved with NSGA-II
//! (pop 100, gen 250). The demo reports **six Pareto optimal solutions**
//! for its instance; the shape to reproduce is a small handful of
//! distinct, feasible, budget-saturating plans trading the three shares
//! against each other.
//!
//! ```text
//! cargo run --release -p flower-bench --bin fig4_pareto [--seed N]
//! ```

use flower_bench::seed_arg;
use flower_core::prelude::*;
use flower_core::share::ShareProblem;
use flower_nsga2::Nsga2Config;

fn main() {
    let seed = seed_arg(2017);
    // A budget chosen so the worked example's integer front lands in the
    // single digits, like the paper's six.
    let budget = 0.75;
    let problem = ShareProblem::worked_example(budget);

    println!("Fig. 4 reproduction — resource share analysis (seed {seed})");
    println!("budget ${budget:.2}/h; constraints:");
    for c in &problem.constraints {
        println!("  {}", c.label);
    }

    let analyzer = ShareAnalyzer::new(problem).with_config(Nsga2Config {
        population: 100,
        generations: 250,
        seed,
        ..Default::default()
    });
    let plans = analyzer.solve().expect("feasible plans exist");
    println!(
        "\nNSGA-II found {} distinct feasible Pareto plans at integer resolution.",
        plans.len()
    );

    // Collapse to the representative list the demo's Fig. 4 shows: the
    // analytics share (VMs — the coarsest, most expensive resource)
    // indexes the trade-off; keep the maximum-share plan per VM count.
    let mut plans_by_vms: Vec<flower_core::share::ResourceShares> = Vec::new();
    for p in &plans {
        match plans_by_vms.iter_mut().find(|q| q.vms() == p.vms()) {
            Some(existing) => {
                if p.hourly_cost > existing.hourly_cost {
                    *existing = p.clone();
                }
            }
            None => plans_by_vms.push(p.clone()),
        }
    }
    plans_by_vms.sort_by(|a, b| a.vms().partial_cmp(&b.vms()).expect("finite"));
    let plans = plans_by_vms;

    println!("representative Pareto-optimal provisioning plans (paper: 6):");
    println!(
        "{:>4} {:>14} {:>10} {:>12} {:>10}",
        "#", "Kinesis shards", "Storm VMs", "Dynamo WCU", "$/hour"
    );
    for (i, p) in plans.iter().enumerate() {
        println!(
            "{:>4} {:>14.0} {:>10.0} {:>12.0} {:>10.4}",
            i + 1,
            p.shards(),
            p.vms(),
            p.wcu(),
            p.hourly_cost
        );
    }

    // Shape checks.
    let distinct_ok = plans.len() >= 3 && plans.len() <= 12;
    let saturating = plans
        .iter()
        .filter(|p| p.hourly_cost > 0.9 * budget)
        .count();
    let tradeoff = {
        // At least two plans must differ in which layer they favour.
        let max_vms = plans.iter().map(ResourceShares::vms).fold(0.0, f64::max);
        let max_shards = plans.iter().map(ResourceShares::shards).fold(0.0, f64::max);
        let argmax_vms = plans.iter().position(|p| p.vms() == max_vms);
        let argmax_shards = plans.iter().position(|p| p.shards() == max_shards);
        argmax_vms != argmax_shards || plans.len() == 1
    };
    println!("\n== shape checks ==");
    println!(
        "  handful of distinct plans (paper: 6, ours: {}): {}",
        plans.len(),
        if distinct_ok { "PASS" } else { "FAIL" }
    );
    println!(
        "  plans saturate the budget ({} of {} above 90%): {}",
        saturating,
        plans.len(),
        if saturating >= 1 { "PASS" } else { "FAIL" }
    );
    println!(
        "  plans trade layers against each other: {}",
        if tradeoff { "PASS" } else { "FAIL" }
    );
}
