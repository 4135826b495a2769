// Example: it prints its results and reads its arguments; unwrap/expect
// and exact float comparison are deliberate here (determinism
// assertions compare results bit-for-bit).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout,
    clippy::disallowed_methods
)]
//! Resource Share Analysis (paper §3.2, Fig. 4): given an hourly budget
//! and the worked example's dependency constraints, find the Pareto-
//! optimal resource shares for the three layers with NSGA-II and print
//! them the way the paper's Fig. 4 lists its six solutions.
//!
//! ```text
//! cargo run --release --example pareto_planner [budget_dollars_per_hour]
//! ```

use flower_core::prelude::*;
use flower_core::share::ShareProblem;
use flower_nsga2::Nsga2Config;

fn main() {
    let budget: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    println!("budget: ${budget:.2}/hour");
    println!("constraints (the paper's worked example):");
    let problem = ShareProblem::worked_example(budget);
    for c in &problem.constraints {
        println!("  {}", c.label);
    }
    print!("prices:");
    for (layer, price) in problem.layers.iter().zip(&problem.unit_prices) {
        print!(" {} ${price}/h,", layer.resource());
    }
    println!("\n");

    let analyzer = ShareAnalyzer::new(problem).with_config(Nsga2Config {
        population: 100,
        generations: 250,
        seed: 2017,
        ..Default::default()
    });

    match analyzer.solve() {
        Ok(plans) => {
            println!(
                "{} Pareto-optimal provisioning plans (integer resolution):",
                plans.len()
            );
            println!(
                "{:>4} {:>8} {:>6} {:>8} {:>10}",
                "#", "shards", "VMs", "WCU", "$/hour"
            );
            for (i, p) in plans.iter().enumerate() {
                println!(
                    "{:>4} {:>8.0} {:>6.0} {:>8.0} {:>10.4}",
                    i + 1,
                    p.shards(),
                    p.vms(),
                    p.wcu(),
                    p.hourly_cost
                );
            }
            println!(
                "\npick one manually, or let Flower pick (the paper: 'one solution\n\
                 … must be identified either manually by the user or randomly by\n\
                 the system')."
            );
        }
        Err(e) => println!("no plan: {e}"),
    }
}
