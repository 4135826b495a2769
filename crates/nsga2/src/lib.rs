// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-nsga2
//!
//! A from-scratch implementation of **NSGA-II** — the fast elitist
//! multi-objective genetic algorithm of Deb, Pratap, Agarwal & Meyarivan
//! (IEEE TEVC 6(2), 2002) — which the Flower paper (§3.2) uses to search
//! the resource-provisioning plan space: *maximize* the resource shares
//! `(r_I, r_A, r_S)` of the ingestion, analytics and storage layers
//! subject to a budget constraint and the regression-learned dependency
//! constraints.
//!
//! Components, each in its own module:
//!
//! * [`problem`] — the [`Problem`] trait: box-bounded real decision
//!   variables, minimized objectives, and inequality constraints reported
//!   as violation magnitudes.
//! * [`individual`] — a candidate solution with its evaluation results
//!   (the optimizer's input and output boundary) and Deb's
//!   constraint-domination kernel.
//! * [`soa`] — structure-of-arrays population storage, the one layout
//!   sorting, crowding, selection and survival run on: contiguous
//!   genome/objective/violation arrays with cached
//!   feasibility/degeneracy.
//! * [`sorting`] — fast non-dominated sorting and crowding distance.
//! * [`archive`] — an epsilon-dominance archive bounding Pareto-front
//!   churn across replans so warm-start seeds stay small and stable.
//! * [`operators`] — simulated binary crossover (SBX), polynomial
//!   mutation, and binary tournament selection.
//! * [`algorithm`] — the generational loop with (μ+λ) elitist survival.
//! * [`hypervolume`](mod@hypervolume) — exact hypervolume indicators for 2- and
//!   3-objective fronts, used by the ablation benches to compare NSGA-II
//!   against naive search.
//!
//! ```
//! use flower_nsga2::{Nsga2, Nsga2Config, Problem};
//!
//! /// Minimize (x², (x−2)²) over x ∈ [−10, 10] — Schaffer's SCH problem.
//! struct Sch;
//! impl Problem for Sch {
//!     fn n_vars(&self) -> usize { 1 }
//!     fn n_objectives(&self) -> usize { 2 }
//!     fn bounds(&self, _: usize) -> (f64, f64) { (-10.0, 10.0) }
//!     fn evaluate(&self, x: &[f64], out: &mut [f64]) {
//!         out[0] = x[0] * x[0];
//!         out[1] = (x[0] - 2.0) * (x[0] - 2.0);
//!     }
//! }
//!
//! let cfg = Nsga2Config { population: 40, generations: 50, seed: 1, ..Default::default() };
//! let result = Nsga2::new(Sch, cfg).run();
//! // The SCH front lives at x ∈ [0, 2]; every solution should be close.
//! assert!(result.pareto_front().iter().all(|ind| ind.genes[0] > -0.5 && ind.genes[0] < 2.5));
//! ```

#![deny(missing_docs)]

pub mod algorithm;
pub mod archive;
pub mod hypervolume;
pub mod individual;
pub mod operators;
pub mod problem;
pub mod soa;
pub mod sorting;

pub use algorithm::{Nsga2, Nsga2Config, Nsga2Result};
pub use archive::EpsilonArchive;
pub use flower_par::Executor;
pub use hypervolume::hypervolume;
pub use individual::{Domination, Individual};
pub use problem::Problem;
pub use soa::SoaPopulation;
