// Test target: unwrap/expect and exact float comparison are deliberate
// here (determinism assertions compare results bit-for-bit).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Integration: the full Flower pipeline in paper order — learn
//! dependencies (§3.1), derive resource shares under a budget (§3.2),
//! then run provisioning inside the share bounds (§3.3) and monitor it
//! (§3.4).

use flower_core::config::ControllerSpec;
use flower_core::dependency::DependencyAnalyzer;
use flower_core::flow::{clickstream_flow, Layer};
use flower_core::monitor::CrossPlatformMonitor;
use flower_core::prelude::*;
use flower_core::share::{Constraint, ShareProblem};
use flower_nsga2::Nsga2Config;
use flower_obs::{kind, Recorder};
use flower_sim::{SimDuration, SimTime};

#[test]
fn end_to_end_paper_workflow() {
    // ---- Phase 0: collect workload logs on a modest static deployment.
    let mut probe = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::diurnal(1_500.0, 1_200.0))
        .all_controllers(ControllerSpec::Static)
        .seed(21)
        .build()
        .unwrap();
    probe.run_for_mins(90);

    // ---- Phase 1 (§3.1): learn cross-layer dependencies from the logs.
    let analyzer = DependencyAnalyzer::for_clickstream("clicks", "counter", "aggregates");
    let deps = analyzer
        .dependencies(
            probe.engine().metrics(),
            SimTime::ZERO,
            SimTime::from_mins(90),
        )
        .unwrap();
    assert!(!deps.is_empty(), "no dependencies learned");
    let strongest = &deps[0];
    assert!(strongest.correlation().abs() > 0.7);

    // ---- Phase 2 (§3.2): resource share analysis under a budget,
    // including a dependency-derived constraint band.
    let mut problem = ShareProblem::worked_example(1.0);
    // Example of Eq. 5 in constraint form: keep VMs within a band of the
    // regression between shards and VMs implied by capacity ratios.
    problem.constraints.extend(Constraint::equality_band(
        Layer::ANALYTICS,
        Layer::INGESTION,
        0.5,
        0.0,
        4.0,
    ));
    let plans = ShareAnalyzer::new(problem)
        .with_config(Nsga2Config {
            population: 60,
            generations: 80,
            seed: 13,
            ..Default::default()
        })
        .solve()
        .unwrap();
    assert!(!plans.is_empty());
    let plan = &plans[0]; // the maximum-share plan
    assert!(plan.hourly_cost <= 1.0 + 1e-9);

    // ---- Phase 3 (§3.3): provision with the plan as upper bounds.
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::diurnal(1_500.0, 1_200.0))
        .bounds(Layer::INGESTION, 1.0, plan.shards().max(2.0))
        .bounds(Layer::ANALYTICS, 1.0, plan.vms().max(2.0))
        .bounds(Layer::STORAGE, 1.0, plan.wcu().max(100.0))
        .seed(21)
        .build()
        .unwrap();
    let report = manager.run_for_mins(120);

    // Bounds hold throughout.
    let max_shards = report
        .actuators(Layer::INGESTION)
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0, f64::max);
    assert!(max_shards <= plan.shards().max(2.0) + 1e-9);

    // ---- Phase 4 (§3.4): the consolidated monitor sees the episode.
    let monitor = CrossPlatformMonitor::for_engine(manager.engine());
    let snap = monitor.snapshot(
        manager.engine().metrics(),
        manager.now(),
        SimDuration::from_mins(10),
    );
    assert_eq!(snap.rows.len(), 17);
    // The hourly spend implied by the final deployment respects the plan:
    // it cannot exceed the budget the share analysis was given, because
    // every actuator is capped by the plan's shares.
    let final_vms = report.actuators(Layer::ANALYTICS).last().unwrap().1;
    let final_wcu = report.actuators(Layer::STORAGE).last().unwrap().1;
    let hourly = flower_cloud::PriceList::default().hourly_cost(
        report.actuators(Layer::INGESTION).last().unwrap().1,
        final_vms,
        final_wcu,
        0.0,
    );
    assert!(hourly <= 1.05, "final deployment spends ${hourly}/h");
}

#[test]
fn share_plan_bounds_prevent_budget_blowout_under_overload() {
    // Even under hopeless overload, the share-analysis bounds keep the
    // deployment inside the budget: the defining property of combining
    // §3.2 with §3.3.
    let plans = ShareAnalyzer::new(ShareProblem::worked_example(0.6))
        .with_config(Nsga2Config {
            population: 60,
            generations: 80,
            seed: 3,
            ..Default::default()
        })
        .solve()
        .unwrap();
    let plan = &plans[0];
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::constant(20_000.0))
        .bounds(Layer::INGESTION, 1.0, plan.shards().max(2.0))
        .bounds(Layer::ANALYTICS, 1.0, plan.vms().max(2.0))
        .bounds(Layer::STORAGE, 1.0, plan.wcu().max(100.0))
        .seed(17)
        .build()
        .unwrap();
    let report = manager.run_for_mins(60);
    let peak_hourly = report
        .actuators(Layer::INGESTION)
        .iter()
        .zip(
            report
                .actuators(Layer::ANALYTICS)
                .iter()
                .zip(report.actuators(Layer::STORAGE).iter()),
        )
        .map(|(&(_, s), (&(_, v), &(_, w)))| {
            flower_cloud::PriceList::default().hourly_cost(s, v, w, 0.0)
        })
        .fold(0.0, f64::max);
    assert!(
        peak_hourly <= 0.6 + 0.05,
        "peak spend ${peak_hourly}/h exceeds the budget band"
    );
    // The overload is visible as sustained throttling — the budget, not
    // the controller, is the binding constraint.
    assert!(report.ingest_loss_rate() > 0.5);
}

#[test]
fn replanner_updates_bounds_during_an_episode() {
    use flower_core::replan::{PlanSelection, ReplanConfig, Replanner};

    let replanner = Replanner::for_clickstream(
        ReplanConfig {
            budget: 1.0,
            cadence: SimDuration::from_mins(20),
            analysis_window: SimDuration::from_mins(20),
            selection: PlanSelection::Balanced,
            dependency_band: 0.5,
            nsga2: Nsga2Config {
                population: 60,
                generations: 60,
                seed: 4,
                ..Default::default()
            },
            workers: None,
            warm_start: false,
            warm_generations: 12,
        },
        "clicks",
        "counter",
        "aggregates",
        flower_core::share::ShareProblem::worked_example(1.0),
    );

    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::diurnal(1_800.0, 1_400.0))
        .replanner(replanner)
        .seed(6)
        .recorder(Recorder::with_capacity(65_536))
        .build()
        .unwrap();
    let report = manager.run_for_mins(90);

    // The replanner fired at 20, 40, 60, 80 minutes; its outcomes are
    // the trace's `replan.outcome` events.
    assert_eq!(manager.recorder().dropped(), 0);
    let rounds: Vec<_> = manager
        .recorder()
        .events()
        .into_iter()
        .filter(|e| e.kind == kind::REPLAN_OUTCOME)
        .collect();
    assert!(
        (3..=5).contains(&rounds.len()),
        "expected ~4 replan rounds, got {}",
        rounds.len()
    );
    for round in &rounds {
        assert!(round.f64("hourly_cost").unwrap() <= 1.0 + 1e-9);
        assert!(round.f64("front_size").unwrap() >= 1.0);
    }
    // With the plan's shares as maximum bounds, the deployment can never
    // spend more per hour than the budget (plus the cheapest layer's
    // rounding slack).
    let final_hourly = flower_cloud::PriceList::default().hourly_cost(
        report.actuators(Layer::INGESTION).last().unwrap().1,
        report.actuators(Layer::ANALYTICS).last().unwrap().1,
        report.actuators(Layer::STORAGE).last().unwrap().1,
        0.0,
    );
    assert!(final_hourly <= 1.1, "final spend ${final_hourly}/h");
}
