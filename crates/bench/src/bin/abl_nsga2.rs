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
//! **A3 — ablation: NSGA-II against naive plan-space search.**
//!
//! §3.2 chose NSGA-II "to efficiently search the provisioning plan
//! space". This ablation quantifies that choice on the worked-example
//! problem: NSGA-II vs pure random search vs a uniform grid, at equal
//! evaluation budgets, scored by the 3-D hypervolume of the feasible
//! front (reference point = the origin of "no resources", objectives
//! negated-for-minimization).
//!
//! Expected shape: NSGA-II dominates both baselines at every budget, and
//! the gap widens as the budget shrinks.
//!
//! ```text
//! cargo run --release -p flower-bench --bin abl_nsga2 [--seed N]
//! ```

use flower_bench::seed_arg;
use flower_core::share::ShareProblem;
use flower_nsga2::sorting::fast_non_dominated_sort_soa;
use flower_nsga2::{hypervolume, Executor, Individual, Nsga2, Nsga2Config, Problem, SoaPopulation};
use flower_sim::SimRng;

/// Collect the feasible non-dominated objective vectors of a candidate
/// set (objectives are negated shares, i.e. minimized): front 0 of the
/// feasible candidates, in candidate order.
fn feasible_front(problem: &ShareProblem, genes: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut feasible = SoaPopulation::for_problem(problem, genes.len());
    for g in genes {
        let ind = Individual::evaluated(problem, g.clone());
        if ind.is_feasible() {
            feasible.push(ind);
        }
    }
    let fronts = fast_non_dominated_sort_soa(&mut feasible, &Executor::serial());
    fronts.first().map_or_else(Vec::new, |front| {
        front
            .iter()
            .map(|&i| feasible.objectives(i).to_vec())
            .collect()
    })
}

fn random_search(problem: &ShareProblem, evals: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SimRng::seed(seed);
    (0..evals)
        .map(|_| {
            (0..3)
                .map(|i| {
                    let (lo, hi) = problem.bounds(i);
                    rng.uniform(lo, hi)
                })
                .collect()
        })
        .collect()
}

fn grid_search(problem: &ShareProblem, evals: usize) -> Vec<Vec<f64>> {
    // A cube grid with ~evals points.
    let per_dim = (evals as f64).powf(1.0 / 3.0).floor().max(2.0) as usize;
    let mut out = Vec::new();
    for i in 0..per_dim {
        for j in 0..per_dim {
            for k in 0..per_dim {
                let coord = |idx: usize, step: usize| {
                    let (lo, hi) = problem.bounds(idx);
                    lo + (hi - lo) * step as f64 / (per_dim - 1) as f64
                };
                out.push(vec![coord(0, i), coord(1, j), coord(2, k)]);
            }
        }
    }
    out
}

fn main() {
    let seed = seed_arg(2017);
    let problem = ShareProblem::worked_example(0.75);
    // Reference point for the (negated) maximization: 0 shares.
    let reference = [0.0, 0.0, 0.0];

    println!("A3 — NSGA-II vs naive search on the Fig. 4 problem");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "evals", "nsga2 HV", "random HV", "grid HV"
    );

    // The three budgets are independent — fan them out across the
    // executor's workers. Each run fixes its own seed and RNG stream, so
    // the rows (collected in submission order) are identical to the old
    // sequential loop's output.
    let budgets = [(40usize, 24usize), (60, 49), (100, 99)];
    let executor = Executor::from_env();
    let rows_out = executor.par_map(&budgets, |_, &(pop, gens)| {
        let evals = pop * (gens + 1);
        let result = Nsga2::new(
            problem.clone(),
            Nsga2Config {
                population: pop,
                generations: gens,
                seed,
                ..Default::default()
            },
        )
        .run();
        let nsga_front: Vec<Vec<f64>> = result
            .pareto_front()
            .iter()
            .filter(|i| i.is_feasible())
            .map(|i| i.objectives.clone())
            .collect();
        let hv_nsga = hypervolume(&nsga_front, &reference);

        let hv_random = hypervolume(
            &feasible_front(&problem, &random_search(&problem, evals, seed)),
            &reference,
        );
        let hv_grid = hypervolume(
            &feasible_front(&problem, &grid_search(&problem, evals)),
            &reference,
        );
        (evals, hv_nsga, hv_random, hv_grid)
    });

    let mut nsga_wins = 0;
    let mut rows = 0;
    for (evals, hv_nsga, hv_random, hv_grid) in rows_out {
        println!("{evals:>8} {hv_nsga:>14.1} {hv_random:>14.1} {hv_grid:>14.1}");
        rows += 1;
        if hv_nsga > hv_random && hv_nsga > hv_grid {
            nsga_wins += 1;
        }
    }

    println!("\n== shape check ==");
    println!(
        "  NSGA-II dominates both baselines at every budget: {} ({nsga_wins}/{rows})",
        if nsga_wins == rows { "PASS" } else { "FAIL" }
    );
}
