//! Periodic re-planning — closing the loop between §3.1, §3.2 and §3.3.
//!
//! The paper's workflow description (§2) notes that "the resource shares
//! can be determined with respect to arbitrary time windows": Flower does
//! not learn dependencies once — it re-analyzes recent workload logs,
//! re-solves the share problem, and feeds the new upper bounds to the
//! per-layer controllers. This module implements that outer loop.
//!
//! The [`Replanner`] runs at a configurable cadence (much slower than the
//! monitoring period — hours vs seconds in production, minutes vs tens
//! of seconds in simulation). Each round it:
//!
//! 1. re-runs the [`DependencyAnalyzer`] over the trailing analysis
//!    window;
//! 2. converts each confirmed dependency into a
//!    [`Constraint`](crate::share::Constraint) ratio band (the paper's
//!    Eq. 5) anchored at the layers' observed deployed resource levels;
//! 3. re-solves the share problem under the budget with NSGA-II;
//! 4. publishes the selected plan's shares as the new per-layer bounds.

use flower_cloud::{MetricId, MetricsStore, Statistic};
use flower_nsga2::sorting::fast_non_dominated_sort_soa;
use flower_nsga2::{EpsilonArchive, Executor, Individual, Nsga2Config, SoaPopulation};
use flower_obs::{kind, Recorder};
use flower_sim::{SimDuration, SimTime};

use crate::dependency::DependencyAnalyzer;
use crate::error::FlowerError;
use crate::flow::Layer;
use crate::share::{ResourceShares, ShareAnalyzer, ShareProblem};

/// How the replanner picks one plan from the Pareto front.
///
/// The paper: "one solution which is best suited to the problem in
/// practice must be identified either manually by the user or randomly
/// by the system."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSelection {
    /// The plan with the largest ingestion share.
    MaxIngestion,
    /// The plan with the largest analytics share.
    MaxAnalytics,
    /// The plan with the largest storage share.
    MaxStorage,
    /// The plan with the most even spend across layers, each share
    /// priced at the solved problem's `unit_prices`.
    Balanced,
}

impl PlanSelection {
    /// Apply the policy to a non-empty plan list solved from `problem`.
    #[expect(clippy::expect_used, reason = "invariant stated in the expect message")]
    pub fn pick<'a>(
        &self,
        problem: &ShareProblem,
        plans: &'a [ResourceShares],
    ) -> &'a ResourceShares {
        assert!(!plans.is_empty(), "cannot select from an empty plan list");
        let max_of = |layer: Layer| {
            plans
                .iter()
                .max_by(|a, b| a.of(layer).total_cmp(&b.of(layer)))
        };
        let picked = match self {
            PlanSelection::MaxIngestion => max_of(Layer::INGESTION),
            PlanSelection::MaxAnalytics => max_of(Layer::ANALYTICS),
            PlanSelection::MaxStorage => max_of(Layer::STORAGE),
            PlanSelection::Balanced => plans
                .iter()
                .min_by(|a, b| balance_score(problem, a).total_cmp(&balance_score(problem, b))),
        };
        picked.expect("plans verified non-empty by the assert above")
    }
}

/// Spread of per-layer spend (smaller = more even), over whatever layers
/// the plan covers (ascending layer order). A layer `problem` does not
/// encode prices at zero and carries no weight.
fn balance_score(problem: &ShareProblem, plan: &ResourceShares) -> f64 {
    let unit_price = |layer: Layer| {
        problem
            .layers
            .iter()
            .position(|&l| l == layer)
            .and_then(|i| problem.unit_prices.get(i))
            .copied()
            .unwrap_or(0.0)
    };
    let spends: Vec<f64> = plan
        .shares
        .iter()
        .map(|(layer, units)| units * unit_price(layer))
        .collect();
    if spends.is_empty() {
        return 0.0;
    }
    let mean = spends.iter().sum::<f64>() / spends.len() as f64;
    spends.iter().map(|s| (s - mean).powi(2)).sum::<f64>()
}

/// Configuration of the re-planning loop.
#[derive(Debug, Clone)]
pub struct ReplanConfig {
    /// Hourly budget handed to the share analyzer.
    pub budget: f64,
    /// How often to re-plan.
    pub cadence: SimDuration,
    /// Length of the trailing analysis window.
    pub analysis_window: SimDuration,
    /// Plan-selection policy.
    pub selection: PlanSelection,
    /// Half-width of the Eq. 5 equality band, as a fraction of the
    /// predicted value (e.g. 0.5 → ±50 %).
    pub dependency_band: f64,
    /// NSGA-II settings for each re-solve.
    pub nsga2: Nsga2Config,
    /// Evaluation fan-out worker count for each re-solve; `None` uses
    /// the environment's (`FLOWER_THREADS`). Fronts are bit-identical
    /// for every worker count — pinning makes that property testable
    /// without mutating process-global environment state.
    pub workers: Option<usize>,
    /// Warm-start consecutive re-solves from the previous rounds'
    /// epsilon-archived Pareto front (falling back to a cold start
    /// whenever the layer set or constraint shape changed). Warm rounds
    /// run [`ReplanConfig::warm_generations`] generations instead of
    /// the full `nsga2.generations`. Disable to pin byte-identical
    /// cold-start traces (e.g. against a pre-warm-start golden
    /// fixture).
    pub warm_start: bool,
    /// Generation budget of a warm-started re-solve. Seeded from the
    /// previous front, NSGA-II needs only a refinement pass, not a full
    /// search from uniform noise.
    pub warm_generations: usize,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig {
            budget: 1.0,
            cadence: SimDuration::from_mins(30),
            analysis_window: SimDuration::from_mins(30),
            selection: PlanSelection::Balanced,
            dependency_band: 0.5,
            nsga2: Nsga2Config {
                population: 60,
                generations: 60,
                ..Default::default()
            },
            workers: None,
            warm_start: true,
            warm_generations: 12,
        }
    }
}

/// One completed re-planning round.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// When the round ran.
    pub at: SimTime,
    /// Dependencies confirmed in the analysis window.
    pub dependencies: usize,
    /// The plan chosen (new per-layer upper bounds).
    pub plan: ResourceShares,
    /// Size of the Pareto front the plan was chosen from.
    pub front_size: usize,
    /// Whether this round's solve was warm-started from the previous
    /// rounds' archived front (`false` on cold starts — the first
    /// round, a constraint-shape change, or `warm_start` disabled).
    pub warm: bool,
}

/// The shape of a share problem for warm-start compatibility: the layer
/// list (the genome encoding) and the sorted multiset of per-constraint
/// layer couplings. Coefficient *values* are free to move between
/// rounds (re-evaluating the archived genomes absorbs them),
/// and so is the *order* constraints are listed in — dependency
/// enumeration order varies by analysis window, but a reorder of the
/// same couplings leaves the feasible region and genome space intact.
/// A genuine change of shape means the archived genomes live in a
/// different space and the replanner must cold-start.
type ProblemSignature = (Vec<Layer>, Vec<Vec<Layer>>);

fn problem_signature(problem: &ShareProblem) -> ProblemSignature {
    let mut shapes: Vec<Vec<Layer>> = problem
        .constraints
        .iter()
        .map(|c| c.terms.iter().map(|&(layer, _)| layer).collect())
        .collect();
    shapes.sort();
    (problem.layers.clone(), shapes)
}

/// Objective-space box edge of the warm-start archive. Plans deploy at
/// integer resolution, so solutions within half a unit of each other
/// are duplicates for seeding purposes.
const WARM_ARCHIVE_EPSILON: f64 = 0.5;
/// Entry cap of the warm-start archive — bounds the seed set (and the
/// seed-picking sort) regardless of how wide fronts get.
const WARM_ARCHIVE_CAPACITY: usize = 64;

/// Carry-over state between warm-started rounds: the shape of the
/// problem the archive was built under, and the epsilon archive of
/// front points.
struct WarmState {
    signature: ProblemSignature,
    archive: EpsilonArchive,
}

/// The outer re-planning loop.
pub struct Replanner {
    config: ReplanConfig,
    analyzer: DependencyAnalyzer,
    base_problem: ShareProblem,
    /// Metric id of each layer's deployed resource level (open shards,
    /// running VMs, provisioned WCU, cache nodes, …), used to anchor
    /// learned dependencies in resource space. Layers without an entry
    /// contribute no learned constraints.
    resource_metrics: Vec<(Layer, MetricId)>,
    next_due: SimTime,
    recorder: Recorder,
    warm: Option<WarmState>,
}

impl Replanner {
    /// Create a replanner for the reference click-stream flow: wires the
    /// standard dependency analyzer and the deployed-resource metrics of
    /// the named stream/cluster/table.
    pub fn for_clickstream(
        config: ReplanConfig,
        stream: &str,
        cluster: &str,
        table: &str,
        base_problem: ShareProblem,
    ) -> Replanner {
        use flower_cloud::engine::metric_names::*;
        let analyzer = DependencyAnalyzer::for_clickstream(stream, cluster, table);
        Replanner::new(config, analyzer, base_problem)
            .with_resource_metric(
                Layer::INGESTION,
                MetricId::new(NS_KINESIS, OPEN_SHARDS, stream),
            )
            .with_resource_metric(
                Layer::ANALYTICS,
                MetricId::new(NS_STORM, RUNNING_VMS, cluster),
            )
            .with_resource_metric(
                Layer::STORAGE,
                MetricId::new(NS_DYNAMO, PROVISIONED_WCU, table),
            )
    }

    /// Register the metric carrying `layer`'s deployed resource level,
    /// anchoring learned dependencies touching that layer in resource
    /// space. Replaces any previous metric for the layer.
    pub fn with_resource_metric(mut self, layer: Layer, metric: MetricId) -> Replanner {
        match self.resource_metrics.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, m)) => *m = metric,
            None => self.resource_metrics.push((layer, metric)),
        }
        self
    }

    /// Create a replanner from an analyzer and the static parts of the
    /// share problem (prices, structural constraints, bounds). Without
    /// resource metrics (see [`Replanner::for_clickstream`]) learned
    /// dependencies inform the outcome report but add no constraints.
    pub fn new(
        config: ReplanConfig,
        analyzer: DependencyAnalyzer,
        base_problem: ShareProblem,
    ) -> Replanner {
        assert!(
            !config.cadence.is_zero(),
            "re-plan cadence must be non-zero"
        );
        assert!(
            !config.analysis_window.is_zero(),
            "analysis window must be non-zero"
        );
        assert!(config.budget > 0.0, "budget must be positive");
        let next_due = SimTime::ZERO + config.cadence;
        Replanner {
            config,
            analyzer,
            base_problem,
            resource_metrics: Vec::new(),
            next_due,
            recorder: Recorder::disabled(),
            warm: None,
        }
    }

    /// Attach an observability recorder: each round then emits a
    /// [`kind::REPLAN_OUTCOME`] event carrying the chosen Pareto point
    /// (or [`kind::REPLAN_FAILED`] with the error), and the NSGA-II
    /// re-solve emits its per-generation progress events.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// When the next round is due.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Whether a round is due at `now`.
    pub fn is_due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Make the next round due immediately (`flower serve`'s
    /// `force-replan` command): the round then runs at the next tick
    /// boundary the episode loop checks [`Self::is_due`] on.
    pub fn force_next(&mut self) {
        self.next_due = SimTime::ZERO;
    }

    /// The hourly budget currently handed to each round.
    pub fn budget(&self) -> f64 {
        self.config.budget
    }

    /// Change the hourly budget handed to subsequent rounds
    /// (`flower serve`'s `set-budget` command). Callers validate the
    /// value; the same `budget > 0` invariant as construction applies.
    pub fn set_budget(&mut self, budget: f64) {
        assert!(budget > 0.0, "replan budget must be positive: {budget}");
        self.config.budget = budget;
    }

    /// Run one round against the metric store. Returns the outcome, or
    /// an error when the analysis window is too thin or no feasible plan
    /// exists (in which case the previous bounds should stay in force —
    /// the caller decides).
    pub fn replan(
        &mut self,
        store: &MetricsStore,
        now: SimTime,
    ) -> Result<ReplanOutcome, FlowerError> {
        let result = self.replan_inner(store, now);
        if self.recorder.is_enabled() {
            self.recorder.set_now(now);
            match &result {
                Ok(outcome) => {
                    // One field per planned layer, keyed by the layer's
                    // resource name ("shards", "vms", "wcu", …); the
                    // event's key-sorted fields order the final payload.
                    let mut fields: Vec<(&'static str, flower_obs::FieldValue)> = vec![
                        ("dependencies", outcome.dependencies.into()),
                        ("front_size", outcome.front_size.into()),
                        ("hourly_cost", outcome.plan.hourly_cost.into()),
                    ];
                    // The warm/cold marker exists only for replanners
                    // with warm starts enabled, keeping cold-only trace
                    // fixtures from before the field byte-identical.
                    if self.config.warm_start {
                        fields.push(("warm", outcome.warm.into()));
                    }
                    for (layer, units) in outcome.plan.shares.iter() {
                        fields.push((layer.resource(), units.into()));
                    }
                    self.recorder.emit(kind::REPLAN_OUTCOME, &fields);
                }
                Err(err) => {
                    self.recorder
                        .emit(kind::REPLAN_FAILED, &[("error", err.to_string().into())]);
                    self.recorder.count("replan.failures", 1);
                }
            }
            self.recorder.count("replan.rounds", 1);
        }
        result
    }

    fn replan_inner(
        &mut self,
        store: &MetricsStore,
        now: SimTime,
    ) -> Result<ReplanOutcome, FlowerError> {
        self.next_due = now + self.config.cadence;
        let from = now - self.config.analysis_window;
        let deps = self.analyzer.dependencies(store, from, now)?;

        // Rebuild the problem: structural constraints plus a banded
        // ratio constraint per learned dependency. A metric-space slope
        // (CPU% per record) has no meaning for resource units, so the
        // ratio is anchored at the layers' *observed deployed resource
        // levels* over the window — the dependency establishes that the
        // coupling exists; the observation establishes its resource-space
        // operating ratio; the band leaves the optimizer room around it.
        let mut problem = self.base_problem.clone();
        problem.budget = self.config.budget;
        let mean_units = |layer: Layer| -> Option<f64> {
            let (_, metric) = self.resource_metrics.iter().find(|(l, _)| *l == layer)?;
            store.window_stat(metric, Statistic::Average, from, now)
        };
        for dep in &deps {
            let (Some(source_units), Some(target_units)) =
                (mean_units(dep.source.layer), mean_units(dep.target.layer))
            else {
                continue;
            };
            if let Some(constraints) = dependency_to_constraint(
                dep,
                target_units / source_units.max(f64::MIN_POSITIVE),
                self.config.dependency_band,
            ) {
                problem.constraints.extend(constraints);
            }
        }

        // Warm start: when the problem kept its shape since the last
        // round, seed the solver with the archived front's survivors.
        // The archived genomes are re-evaluated under the new problem
        // (objectives are shape-stable; only constraint violations can
        // move) and sorted; front 0 seeds the solve. The pool is capped
        // at the archive capacity — far below the parallel-sort
        // threshold — so the sort is serial. A shape change drops the
        // state and cold-starts.
        let signature = problem_signature(&problem);
        let mut seeds: Vec<Vec<f64>> = Vec::new();
        if self.config.warm_start {
            match &self.warm {
                Some(state) if state.signature == signature => {
                    let mut pool = SoaPopulation::for_problem(&problem, state.archive.len());
                    for entry in state.archive.entries() {
                        pool.push(Individual::evaluated(&problem, entry.genes.clone()));
                    }
                    let fronts = fast_non_dominated_sort_soa(&mut pool, &Executor::serial());
                    if let Some(front) = fronts.first() {
                        seeds = front.iter().map(|&i| pool.genes(i).to_vec()).collect();
                    }
                }
                Some(_) => self.warm = None,
                None => {}
            }
        }
        let warm = !seeds.is_empty();
        let nsga2 = if warm {
            Nsga2Config {
                generations: self.config.warm_generations,
                ..self.config.nsga2
            }
        } else {
            self.config.nsga2
        };

        let mut analyzer = ShareAnalyzer::new(problem.clone())
            .with_config(nsga2)
            .with_recorder(self.recorder.clone());
        if let Some(workers) = self.config.workers {
            analyzer = analyzer.with_workers(workers);
        }
        let solution = match analyzer.solve_with_seeds(&seeds) {
            Ok(solution) => solution,
            Err(err) => {
                // A failed round invalidates the carried state: the
                // next round retries from a cold start.
                self.warm = None;
                return Err(err);
            }
        };

        if self.config.warm_start {
            // Fold this round's front into the epsilon archive. The
            // archive bounds front churn: sub-epsilon wiggles between
            // rounds cannot change its membership, so the seed set stays
            // small and stable across consecutive replans.
            let mut archive = match self.warm.take() {
                Some(state) => state.archive,
                None => EpsilonArchive::new(WARM_ARCHIVE_EPSILON, WARM_ARCHIVE_CAPACITY),
            };
            for (genes, objectives) in &solution.front {
                archive.offer(genes, objectives);
            }
            self.warm = Some(WarmState { signature, archive });
        }

        let plan = self
            .config
            .selection
            .pick(&problem, &solution.plans)
            .clone();
        Ok(ReplanOutcome {
            at: now,
            dependencies: deps.len(),
            plan,
            front_size: solution.plans.len(),
            warm,
        })
    }
}

/// Translate a learned dependency into resource-space constraints, when
/// the pair maps onto distinct layers.
///
/// `ratio` is the observed resource-space operating ratio
/// `r_target / r_source` over the analysis window; the constraint keeps
/// future plans within `ratio·(1 ± band)`. Returns `None` for degenerate
/// fits or non-positive ratios.
fn dependency_to_constraint(
    dep: &crate::dependency::Dependency,
    ratio: f64,
    band: f64,
) -> Option<[crate::share::Constraint; 2]> {
    let source = dep.source.layer;
    let target = dep.target.layer;
    if source == target || dep.fit.slope.abs() < 1e-12 {
        return None;
    }
    if !(ratio.is_finite() && ratio > 0.0) {
        return None;
    }
    let lo = ratio * (1.0 - band);
    let hi = ratio * (1.0 + band);
    Some([
        // r_t − hi·r_s ≤ 0
        crate::share::Constraint::new(
            [(target, 1.0), (source, -hi)],
            0.0,
            format!("learned: r_{target} <= {hi:.4}*r_{source}"),
        ),
        // lo·r_s − r_t ≤ 0
        crate::share::Constraint::new(
            [(target, -1.0), (source, lo)],
            0.0,
            format!("learned: r_{target} >= {lo:.4}*r_{source}"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_cloud::{CloudEngine, EngineConfig};
    use flower_sim::SimRng;
    use flower_workload::{ClickStreamConfig, ClickStreamGenerator, DiurnalRate};

    fn shares(shards: f64, vms: f64, wcu: f64, hourly_cost: f64) -> ResourceShares {
        ResourceShares::new(
            flower_cloud::ResourceVector::from_pairs([
                (Layer::INGESTION, shards),
                (Layer::ANALYTICS, vms),
                (Layer::STORAGE, wcu),
            ]),
            hourly_cost,
        )
    }

    fn plans() -> Vec<ResourceShares> {
        vec![
            shares(10.0, 2.0, 100.0, 0.5),
            shares(4.0, 4.0, 200.0, 0.6),
            shares(2.0, 1.0, 900.0, 0.7),
        ]
    }

    #[test]
    fn selection_policies_pick_expected_plans() {
        let plans = plans();
        let problem = ShareProblem::worked_example(1.0);
        let pick = |selection: PlanSelection| selection.pick(&problem, &plans);
        assert_eq!(pick(PlanSelection::MaxIngestion).shards(), 10.0);
        assert_eq!(pick(PlanSelection::MaxAnalytics).vms(), 4.0);
        assert_eq!(pick(PlanSelection::MaxStorage).wcu(), 900.0);
        // Balanced: spend vectors are (0.15,0.2,0.065), (0.06,0.4,0.13),
        // (0.03,0.1,0.585) → the first is the most even.
        assert_eq!(pick(PlanSelection::Balanced).shards(), 10.0);
        // The weights are the problem's prices: with free VMs the spend
        // vectors become (0.15,0,0.065), (0.06,0,0.13), (0.03,0,0.585)
        // → the second is the most even.
        let mut free_vms = ShareProblem::worked_example(1.0);
        free_vms.unit_prices[1] = 0.0;
        assert_eq!(
            PlanSelection::Balanced.pick(&free_vms, &plans).shards(),
            4.0
        );
    }

    #[test]
    #[should_panic(expected = "empty plan list")]
    fn selection_from_empty_panics() {
        PlanSelection::Balanced.pick(&ShareProblem::worked_example(1.0), &[]);
    }

    fn populated_store(minutes: u64) -> MetricsStore {
        let mut engine = CloudEngine::new(EngineConfig {
            kinesis: flower_cloud::KinesisConfig {
                initial_shards: 6,
                ..Default::default()
            },
            storm: flower_cloud::StormConfig {
                initial_vms: 4,
                ..Default::default()
            },
            dynamo: flower_cloud::DynamoConfig {
                initial_wcu: 300.0,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut generator =
            ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(1));
        let mut process = DiurnalRate::new(
            2_500.0,
            2_000.0,
            SimDuration::from_hours(2),
            SimDuration::ZERO,
        );
        for s in 0..minutes * 60 {
            let now = SimTime::from_secs(s);
            let records = generator.tick(&mut process, now, 1.0);
            engine.tick(&records, now, SimDuration::from_secs(1));
        }
        engine.metrics().clone()
    }

    fn analyzer() -> DependencyAnalyzer {
        DependencyAnalyzer::for_clickstream("clickstream", "storm-cluster", "click-aggregates")
    }

    #[test]
    fn replan_produces_feasible_bounds() {
        let store = populated_store(60);
        let mut replanner = Replanner::for_clickstream(
            ReplanConfig {
                cadence: SimDuration::from_mins(30),
                analysis_window: SimDuration::from_mins(30),
                nsga2: Nsga2Config {
                    population: 40,
                    generations: 40,
                    seed: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
            "clickstream",
            "storm-cluster",
            "click-aggregates",
            ShareProblem::worked_example(1.0),
        );
        let now = SimTime::from_mins(60);
        assert!(replanner.is_due(now));
        let outcome = replanner.replan(&store, now).expect("replan succeeds");
        assert_eq!(outcome.at, now);
        assert!(
            !outcome.warm,
            "the first round has nothing to warm-start from"
        );
        assert!(outcome.dependencies >= 1, "should learn the flow couplings");
        assert!(outcome.front_size >= 1);
        assert!(outcome.plan.hourly_cost <= 1.0 + 1e-9);
        assert_eq!(replanner.next_due(), now + SimDuration::from_mins(30));
        assert!(!replanner.is_due(now + SimDuration::from_mins(29)));
    }

    #[test]
    fn replan_with_empty_store_fails_gracefully() {
        let store = MetricsStore::new();
        let mut replanner = Replanner::new(
            ReplanConfig::default(),
            analyzer(),
            ShareProblem::worked_example(1.0),
        );
        // No data: dependencies() returns an empty list (insufficient
        // outcomes) and the solve proceeds on structural constraints
        // alone — so this must still produce a plan, not crash.
        let outcome = replanner.replan(&store, SimTime::from_mins(60));
        assert!(outcome.is_ok());
        assert_eq!(outcome.unwrap().dependencies, 0);
    }

    #[test]
    fn tighter_budget_yields_smaller_plan() {
        let store = populated_store(40);
        let run = |budget: f64| {
            let mut replanner = Replanner::for_clickstream(
                ReplanConfig {
                    budget,
                    nsga2: Nsga2Config {
                        population: 100,
                        generations: 120,
                        seed: 2,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                "clickstream",
                "storm-cluster",
                "click-aggregates",
                ShareProblem::worked_example(budget),
            );
            replanner
                .replan(&store, SimTime::from_mins(40))
                .expect("feasible")
                .plan
        };
        let small = run(0.5);
        let large = run(1.5);
        assert!(small.hourly_cost < large.hourly_cost);
    }

    #[test]
    fn consecutive_replans_warm_start() {
        let store = populated_store(100);
        let mut replanner = Replanner::for_clickstream(
            ReplanConfig {
                cadence: SimDuration::from_mins(30),
                analysis_window: SimDuration::from_mins(30),
                nsga2: Nsga2Config {
                    population: 40,
                    generations: 40,
                    seed: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            "clickstream",
            "storm-cluster",
            "click-aggregates",
            ShareProblem::worked_example(1.0),
        );
        let r1 = replanner
            .replan(&store, SimTime::from_mins(40))
            .expect("round 1");
        assert!(!r1.warm, "first round has nothing to warm-start from");
        let r2 = replanner
            .replan(&store, SimTime::from_mins(70))
            .expect("round 2");
        assert!(r2.warm, "second round must reuse the archived front");
        let r3 = replanner
            .replan(&store, SimTime::from_mins(100))
            .expect("round 3");
        assert!(r3.warm);
        // Warm rounds still deliver feasible, budget-respecting plans.
        for outcome in [&r1, &r2, &r3] {
            assert!(outcome.front_size >= 1);
            assert!(outcome.plan.hourly_cost <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn warm_start_disabled_stays_cold() {
        let store = populated_store(100);
        let mut replanner = Replanner::for_clickstream(
            ReplanConfig {
                warm_start: false,
                nsga2: Nsga2Config {
                    population: 40,
                    generations: 40,
                    seed: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            "clickstream",
            "storm-cluster",
            "click-aggregates",
            ShareProblem::worked_example(1.0),
        );
        for mins in [40u64, 70, 100] {
            let outcome = replanner
                .replan(&store, SimTime::from_mins(mins))
                .expect("replan");
            assert!(!outcome.warm, "warm_start=false must never warm-start");
        }
    }

    #[test]
    fn failed_round_drops_the_warm_state() {
        // No metrics: every round solves the structural problem alone,
        // so the signature never changes and only the failure can cold
        // the next round.
        let store = MetricsStore::new();
        let mut replanner = Replanner::new(
            ReplanConfig {
                nsga2: Nsga2Config {
                    population: 40,
                    generations: 40,
                    seed: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            analyzer(),
            ShareProblem::worked_example(1.0),
        );
        let round = |replanner: &mut Replanner, mins: u64| {
            replanner
                .replan(&store, SimTime::from_mins(mins))
                .map(|outcome| outcome.warm)
        };
        assert_eq!(round(&mut replanner, 30), Ok(false));
        assert_eq!(round(&mut replanner, 60), Ok(true));
        // No plan fits this budget: the round fails ...
        replanner.set_budget(1e-9);
        assert!(round(&mut replanner, 90).is_err());
        // ... and the next feasible round starts cold, then warms again.
        replanner.set_budget(1.0);
        assert_eq!(round(&mut replanner, 120), Ok(false));
        assert_eq!(round(&mut replanner, 150), Ok(true));
    }

    #[test]
    fn signature_tracks_constraint_shape_not_coefficients() {
        let base = ShareProblem::worked_example(1.0);
        let a = base
            .clone()
            .with_constraint(crate::share::Constraint::ratio(
                2.0,
                Layer::ANALYTICS,
                1.0,
                Layer::STORAGE,
            ));
        // Same coupling, different coefficient: same shape.
        let b = base
            .clone()
            .with_constraint(crate::share::Constraint::ratio(
                3.5,
                Layer::ANALYTICS,
                1.0,
                Layer::STORAGE,
            ));
        assert_eq!(problem_signature(&a), problem_signature(&b));
        // Different coupling: different shape.
        let c = base.with_constraint(crate::share::Constraint::ratio(
            2.0,
            Layer::ANALYTICS,
            1.0,
            Layer::INGESTION,
        ));
        assert_ne!(problem_signature(&a), problem_signature(&c));
    }

    #[test]
    fn dependency_constraint_translation() {
        use crate::dependency::{Dependency, LayerMetric};
        use flower_cloud::MetricId;
        use flower_stats::SimpleOls;
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.0 * v + 1.0).collect();
        let dep = Dependency {
            source: LayerMetric {
                layer: Layer::INGESTION,
                id: MetricId::new("n", "a", "r"),
            },
            target: LayerMetric {
                layer: Layer::ANALYTICS,
                id: MetricId::new("n", "b", "r"),
            },
            fit: SimpleOls::fit(&x, &y).expect("fits"),
        };
        let [up, down] = dependency_to_constraint(&dep, 2.0, 0.5).expect("valid");
        // observed ratio 2, band ±50% → r_A ∈ [1·r_I, 3·r_I].
        let layers = Layer::ALL;
        assert_eq!(up.violation(&layers, &[1.0, 2.0, 0.0]), 0.0);
        assert!(up.violation(&layers, &[1.0, 4.0, 0.0]) > 0.0);
        assert_eq!(down.violation(&layers, &[1.0, 2.0, 0.0]), 0.0);
        assert!(down.violation(&layers, &[1.0, 0.5, 0.0]) > 0.0);
    }

    #[test]
    fn same_layer_dependency_is_skipped() {
        use crate::dependency::{Dependency, LayerMetric};
        use flower_cloud::MetricId;
        use flower_stats::SimpleOls;
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y = x.clone();
        let dep = Dependency {
            source: LayerMetric {
                layer: Layer::STORAGE,
                id: MetricId::new("n", "a", "r"),
            },
            target: LayerMetric {
                layer: Layer::STORAGE,
                id: MetricId::new("n", "b", "r"),
            },
            fit: SimpleOls::fit(&x, &y).expect("fits"),
        };
        assert!(dependency_to_constraint(&dep, 1.0, 0.5).is_none());
        // Non-positive or non-finite ratios are also rejected.
    }
}
