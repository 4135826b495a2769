// Test target: unwrap/expect and exact float comparison are deliberate
// here (determinism assertions compare results bit-for-bit).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Integration: closed-loop elasticity across crates — controllers from
//! flower-control driving the flower-cloud services through flower-core's
//! provisioning manager.

use flower_chaos::{FaultClause, FaultKind};
use flower_core::config::ControllerSpec;
use flower_core::flow::{clickstream_flow, Layer};
use flower_core::prelude::*;
use flower_obs::{kind, parse_trace, Recorder, Trace};
use flower_sim::{SimDuration, SimRng, SimTime};
use flower_workload::MmppRate;

fn run(spec: ControllerSpec, workload: Workload, minutes: u64, seed: u64) -> EpisodeReport {
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(workload)
        .all_controllers(spec)
        .seed(seed)
        .build()
        .unwrap();
    manager.run_for_mins(minutes)
}

#[test]
fn every_controller_kind_survives_a_step_disturbance() {
    for spec in [
        ControllerSpec::adaptive(60.0),
        ControllerSpec::fixed_gain(60.0),
        ControllerSpec::quasi_adaptive(60.0),
        ControllerSpec::rule_based(60.0),
    ] {
        let name = spec.name();
        let report = run(
            spec,
            Workload::step(500.0, 3_500.0, SimTime::from_mins(10)),
            40,
            1,
        );
        // All controllers must eventually add ingestion capacity.
        let final_shards = report.actuators(Layer::INGESTION).last().unwrap().1;
        assert!(final_shards > 2.0, "{name}: shards stuck at {final_shards}");
        // And the flow must keep accepting most records post-transient.
        assert!(
            report.ingest_loss_rate() < 0.35,
            "{name}: loss rate {}",
            report.ingest_loss_rate()
        );
    }
}

#[test]
fn adaptive_beats_fixed_gain_on_flash_crowd_settling() {
    // The §3.3 claim, end to end: the adaptive controller reacts to a
    // flash crowd faster than the fixed-gain baseline, measured as
    // ingestion-layer throttled records during the episode.
    let workload = || Workload::flash_crowd(600.0, 5_000.0, SimTime::from_mins(10));
    let adaptive = run(ControllerSpec::adaptive(60.0), workload(), 30, 5);
    let fixed = run(ControllerSpec::fixed_gain(60.0), workload(), 30, 5);
    assert!(
        adaptive.throttled_ingest < fixed.throttled_ingest,
        "adaptive {} vs fixed {}",
        adaptive.throttled_ingest,
        fixed.throttled_ingest
    );
}

#[test]
fn adaptive_throttles_least_under_recurring_bursts() {
    // E4 (EXPERIMENTS.md), the exp_controllers recipe on its
    // gain-memory habitat: MMPP bursts between 500 and 4,000 rec/s, one
    // hour, seed 5, setpoint 60. The adaptive controller must throttle
    // fewer ingest records than every baseline.
    let seed = 5;
    let bursts = || {
        Workload::custom(Box::new(MmppRate::new(
            500.0,
            4_000.0,
            SimDuration::from_mins(8),
            SimDuration::from_mins(4),
            SimRng::seed(seed ^ 0xABCD),
        )))
    };
    let adaptive = run(ControllerSpec::adaptive(60.0), bursts(), 60, seed).throttled_ingest;
    for spec in [
        ControllerSpec::fixed_gain(60.0),
        ControllerSpec::quasi_adaptive(60.0),
        ControllerSpec::rule_based(60.0),
    ] {
        let name = spec.name();
        let baseline = run(spec, bursts(), 60, seed).throttled_ingest;
        assert!(
            adaptive < baseline,
            "adaptive throttled {adaptive}, {name} {baseline}"
        );
    }
}

#[test]
fn holistic_scaling_is_cheaper_than_static_peak() {
    // The §1 economic argument ([15]): scaling all tiers beats
    // provisioning statically for the peak.
    let diurnal = || Workload::diurnal(1_200.0, 1_000.0);

    // Static deployment sized for the ~2,200 rec/s peak.
    let peak_flow = flower_core::flow::FlowBuilder::new("peak")
        .ingestion(flower_core::flow::Platform::kinesis("clicks", 4))
        .analytics(flower_core::flow::Platform::storm("counter", 3))
        .storage(flower_core::flow::Platform::dynamo("aggregates", 200.0))
        .build()
        .unwrap();
    let mut static_manager = ElasticityManager::builder(peak_flow)
        .workload(diurnal())
        .all_controllers(ControllerSpec::Static)
        .seed(9)
        .build()
        .unwrap();
    let static_report = static_manager.run_for_mins(240); // two diurnal cycles

    let mut elastic_manager = ElasticityManager::builder(clickstream_flow())
        .workload(diurnal())
        .seed(9)
        .build()
        .unwrap();
    let elastic_report = elastic_manager.run_for_mins(240);

    assert!(
        elastic_report.total_cost_dollars < static_report.total_cost_dollars,
        "elastic ${} vs static ${}",
        elastic_report.total_cost_dollars,
        static_report.total_cost_dollars
    );
    // And without materially worse delivery.
    assert!(
        elastic_report.ingest_loss_rate() < static_report.ingest_loss_rate() + 0.10,
        "elastic loss {} vs static loss {}",
        elastic_report.ingest_loss_rate(),
        static_report.ingest_loss_rate()
    );
}

#[test]
fn monitoring_period_affects_reaction_granularity() {
    let fast = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::step(500.0, 3_000.0, SimTime::from_mins(5)))
        .monitoring_period(SimDuration::from_secs(15))
        .seed(2)
        .build()
        .unwrap()
        .run_for_mins(20);
    let slow = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::step(500.0, 3_000.0, SimTime::from_mins(5)))
        .monitoring_period(SimDuration::from_mins(3))
        .seed(2)
        .build()
        .unwrap()
        .run_for_mins(20);
    // Faster monitoring yields at least as many scaling actions.
    assert!(
        fast.total_actions() >= slow.total_actions(),
        "fast {} vs slow {}",
        fast.total_actions(),
        slow.total_actions()
    );
}

#[test]
fn mixed_controllers_per_layer() {
    // The wizard allows different controllers per layer (§4 step 2).
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::constant(2_500.0))
        .controller(Layer::INGESTION, ControllerSpec::adaptive(70.0))
        .controller(Layer::ANALYTICS, ControllerSpec::rule_based(60.0))
        .controller(Layer::STORAGE, ControllerSpec::Static)
        .seed(4)
        .build()
        .unwrap();
    assert_eq!(
        manager.controller_spec(Layer::INGESTION).unwrap().name(),
        "adaptive"
    );
    assert_eq!(
        manager.controller_spec(Layer::ANALYTICS).unwrap().name(),
        "rule-based"
    );
    let report = manager.run_for_mins(15);
    // The static storage layer never moves.
    assert!(report
        .actuators(Layer::STORAGE)
        .iter()
        .all(|&(_, v)| v == 100.0));
    // The managed layers do.
    assert!(report.actuators(Layer::INGESTION).last().unwrap().1 > 2.0);
}

#[test]
fn rejections_are_tracked_not_fatal() {
    // Aggressive scale-down against DynamoDB's decrease limit generates
    // rejected actuations; the episode must finish and count them.
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::custom(Box::new(flower_workload::MmppRate::new(
            200.0,
            4_000.0,
            SimDuration::from_mins(6),
            SimDuration::from_mins(6),
            flower_sim::SimRng::seed(8),
        ))))
        .monitoring_period(SimDuration::from_secs(15))
        .seed(8)
        .build()
        .unwrap();
    let report = manager.run_for_mins(120);
    // Long bursty episodes exercise reshard-in-progress and the WCU
    // decrease limit; at least some actuations are expected to bounce.
    let total_rejections: u64 = report.rejected_actuations.iter().sum();
    assert!(
        total_rejections > 0,
        "expected some control-plane rejections"
    );
    assert_eq!(report.arrival_trace.len(), 120 * 60);
}

/// Heavy read traffic against a table provisioned with the default
/// 50 RCU (300 reads/s of 2 KiB, eventually consistent), with the
/// read-capacity loop on.
fn read_heavy() -> flower_core::elasticity::ElasticityManagerBuilder {
    ElasticityManager::builder(clickstream_flow())
        .workload(Workload::constant(1_500.0))
        .read_workload(flower_cloud::ReadWorkloadConfig {
            base_rate: 300.0,
            per_record: 0.0,
            avg_item_bytes: 2_048,
            eventually_consistent: true,
        })
        .rcu_controller(ControllerSpec::adaptive_for_capacity(70.0), 1.0, 2_000.0)
        .seed(12)
}

#[test]
fn rcu_loop_manages_read_capacity() {
    // The fourth control loop must grow read capacity while the write
    // loops manage the rest of the flow.
    let mut manager = read_heavy().build().unwrap();
    let report = manager.run_for_mins(60);

    // Demand ≈ 150 RCU/s; at the 70% target the loop converges toward
    // ~215 RCU (scale-down after the initial burst-absorption overshoot
    // is deliberately slow — Eq. 7 drives the gain to its floor under
    // negative error).
    let final_rcu = report.rcu_trace.last().unwrap().1;
    assert!(final_rcu > 100.0, "RCU stuck at {final_rcu}");
    assert!(report.rcu_actions > 0, "the RCU loop never acted");
    // Late read utilization should be near the 70% setpoint.
    let tail: Vec<f64> = report
        .read_utilization_trace
        .iter()
        .rev()
        .take(300)
        .map(|&(_, v)| v)
        .collect();
    let avg = tail.iter().sum::<f64>() / tail.len() as f64;
    // Either the loop trimmed the overshoot back toward the setpoint, or
    // it is pinned above demand because the table's *shared* daily
    // capacity-decrease budget (4/day, split with the WCU loop) ran out —
    // the faithful DynamoDB friction this simulator models.
    let decreases_exhausted = manager.engine().dynamo().decreases_today() >= 4;
    assert!(
        (35.0..110.0).contains(&avg) || decreases_exhausted,
        "late read utilization {avg}% with decreases_today = {}",
        manager.engine().dynamo().decreases_today()
    );
    // And the read metrics exist in the store for the monitor.
    let monitor = flower_core::monitor::CrossPlatformMonitor::for_engine(manager.engine());
    let snap = monitor.snapshot(
        manager.engine().metrics(),
        manager.now(),
        SimDuration::from_mins(5),
    );
    assert!(snap.row("ConsumedReadCapacityUnits").is_some());
    assert!(snap.row("ProvisionedReadCapacityUnits").unwrap().latest > 100.0);
}

/// The read-heavy episode, traced, with the resilience policy on and a
/// replanner whose re-solve fans out over `workers` threads.
fn traced_read_heavy(faults: FaultPlan, workers: usize) -> (EpisodeReport, Trace) {
    let config = ReplanConfig {
        workers: Some(workers),
        ..Default::default()
    };
    let problem = ShareProblem::worked_example(1.0);
    let mut manager = read_heavy()
        .replanner(Replanner::for_clickstream(
            config,
            "clicks",
            "counter",
            "aggregates",
            problem,
        ))
        .resilience(ResilienceConfig::default())
        .faults(faults)
        .recorder(Recorder::with_capacity(65_536))
        .build()
        .unwrap();
    let report = manager.run_for_mins(40);
    let trace = parse_trace(&manager.recorder().to_jsonl()).unwrap();
    (report, trace)
}

/// `(layer, measurement, applied)` of every `control.decision` event
/// of a layer in `layers` (every layer when empty).
fn decisions(trace: &Trace, layers: &[&str]) -> Vec<(String, f64, f64)> {
    let events = trace
        .events
        .iter()
        .filter(|e| e.kind == kind::CONTROL_DECISION);
    events
        .filter_map(|e| {
            let layer = e
                .str("layer")
                .filter(|l| layers.is_empty() || layers.contains(l))?;
            Some((layer.to_owned(), e.f64("measurement")?, e.f64("applied")?))
        })
        .collect()
}

#[test]
fn rcu_loop_is_traced_like_every_other_loop() {
    let (report, trace) = traced_read_heavy(FaultPlan::none(), 1);
    let has = |k: &str, field: &str, value: &str| {
        let mut events = trace.events.iter();
        events.any(|e| e.kind == k && e.str(field) == Some(value))
    };
    assert!(has(kind::CONTROL_DECISION, "layer", "storage_read"));
    assert!(has(kind::CONTROL_GAIN, "layer", "storage_read"));
    assert!(has(kind::CLOUD_RESIZE, "resource", "rcu"));
    // A replan round ran, so the worker count below has work to split.
    assert!(trace.counts_by_kind().contains_key(kind::NSGA2_GENERATION));
    // The read loop is an actuator, not a registered layer: reports
    // and genomes keep the paper's three.
    assert_eq!(report.layers, Layer::ALL.to_vec());

    let (_, wide) = traced_read_heavy(FaultPlan::none(), 8);
    assert_eq!(trace.to_jsonl(), wide.to_jsonl(), "1 vs 8 workers");
}

#[test]
fn refused_decreases_are_not_retried() {
    // DynamoDB's limit of four capacity decreases a day cannot clear
    // before the next simulated day, so resending a refused decrease
    // only repeats the refusal. Every rejection in this episode is that
    // refusal, so the resilience policy, which is on, retries nothing.
    let (_, trace) = traced_read_heavy(FaultPlan::none(), 1);
    let of_kind = |k: &'static str| trace.events.iter().filter(move |e| e.kind == k);
    let rejections: Vec<&str> = of_kind(kind::CLOUD_RESIZE)
        .filter_map(|e| e.str("error"))
        .collect();
    assert!(!rejections.is_empty(), "the episode must hit the limit");
    assert!(
        rejections.iter().all(|e| e.contains("decrease limit")),
        "{rejections:?}"
    );
    assert_eq!(of_kind(kind::RESILIENCE_RETRY).count(), 0);
}

#[test]
fn a_storage_read_fault_reaches_only_the_read_loop() {
    let reject_reads = FaultPlan {
        seed: 4,
        clauses: vec![FaultClause {
            layer: Some("storage_read".to_owned()),
            from: SimTime::ZERO,
            until: SimTime::from_secs(100),
            kind: FaultKind::Reject { p: 1.0 },
        }],
    };
    let (_, clean) = traced_read_heavy(FaultPlan::none(), 1);
    let (_, faulted) = traced_read_heavy(reject_reads, 1);

    let layers_of = |k: &str| -> Vec<&str> {
        let events = faulted.events.iter().filter(|e| e.kind == k);
        events.map(|e| e.str("layer").unwrap()).collect()
    };
    let faults = layers_of(kind::CHAOS_FAULT);
    assert!(!faults.is_empty() && faults.iter().all(|&l| l == "storage_read"));
    // The injected rejections retry under the read loop's layer.
    assert!(layers_of(kind::RESILIENCE_RETRY).contains(&"storage_read"));

    // Ingestion and analytics decide exactly as without the fault. The
    // write loop may not: DynamoDB's daily decrease budget is shared by
    // the table's read and write capacity, so read decreases the fault
    // blocked leave the write loop more of it.
    let upstream = ["ingestion", "analytics"];
    assert!(!decisions(&clean, &upstream).is_empty());
    assert_eq!(decisions(&clean, &upstream), decisions(&faulted, &upstream));
    assert_ne!(decisions(&clean, &[]), decisions(&faulted, &[]));
}

#[test]
fn without_read_workload_the_read_path_is_idle() {
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::constant(500.0))
        .seed(2)
        .build()
        .unwrap();
    let report = manager.run_for_mins(3);
    assert_eq!(report.throttled_reads, 0);
    assert_eq!(report.rcu_actions, 0);
    assert!(report.read_utilization_trace.iter().all(|&(_, v)| v == 0.0));
    // RCU stays at the default 50.
    assert!(report.rcu_trace.iter().all(|&(_, v)| v == 50.0));
}
