// Test target: unwrap/expect and exact float comparison are deliberate
// here (determinism assertions compare results bit-for-bit).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Integration: flow building → simulated deployment → dependency
//! analysis across crates (workload → cloud → stats → core).

use flower_core::dependency::{DependencyAnalyzer, PairOutcome};
use flower_core::flow::{clickstream_flow, FlowBuilder, Layer, Platform};
use flower_core::monitor::CrossPlatformMonitor;
use flower_core::prelude::*;
use flower_sim::{SimDuration, SimRng, SimTime};
use flower_workload::{ClickStreamConfig, ClickStreamGenerator, DiurnalRate};

/// Drive the paper's click-stream flow open-loop (no controllers) for
/// `minutes` against a diurnal workload and return the engine.
fn populated_engine(minutes: u64, seed: u64) -> flower_cloud::CloudEngine {
    let flow = clickstream_flow();
    let mut config = flow.engine_config();
    // Enough static capacity that the trace is not clipped by throttling.
    config.kinesis.initial_shards = 6;
    config.storm.initial_vms = 4;
    config.dynamo.initial_wcu = 300.0;
    let mut engine = flower_cloud::CloudEngine::new(config);
    let mut generator = ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed));
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
    engine
}

#[test]
fn fig2_dependency_emerges_from_the_simulated_flow() {
    // The paper's Fig. 2: arrival rate at ingestion strongly correlated
    // with CPU at analytics (r = 0.95 there). Our simulated flow must
    // reproduce that shape end-to-end: workload → Kinesis → Storm
    // metrics → regression.
    let engine = populated_engine(120, 42);
    let analyzer = DependencyAnalyzer::for_clickstream("clicks", "counter", "aggregates");
    let deps = analyzer
        .dependencies(engine.metrics(), SimTime::ZERO, SimTime::from_mins(120))
        .unwrap();
    let ingestion_analytics = deps
        .iter()
        .find(|d| d.source.layer == Layer::INGESTION && d.target.layer == Layer::ANALYTICS)
        .expect("ingestion→analytics dependency must be detected");
    assert!(
        ingestion_analytics.correlation() > 0.9,
        "r = {}",
        ingestion_analytics.correlation()
    );
    // The fitted line has a positive slope and a positive intercept (the
    // cluster's idle CPU), the shape of the paper's Eq. 2.
    assert!(ingestion_analytics.fit.slope > 0.0);
    assert!(ingestion_analytics.fit.intercept > 0.0);
    assert!(ingestion_analytics.fit.slope_is_significant());
}

#[test]
fn analytics_storage_dependency_also_holds() {
    let engine = populated_engine(60, 7);
    let analyzer = DependencyAnalyzer::for_clickstream("clicks", "counter", "aggregates");
    let outcomes = analyzer
        .analyze(engine.metrics(), SimTime::ZERO, SimTime::from_mins(60))
        .unwrap();
    assert_eq!(outcomes.len(), 3);
    // Analytics CPU and storage consumed-WCU both follow arrival rate,
    // so every cross-layer pair of this flow is dependent.
    let dependent = outcomes
        .iter()
        .filter(|o| matches!(o, PairOutcome::Dependent(_)))
        .count();
    assert_eq!(dependent, 3, "all pairs follow the workload in this flow");
}

#[test]
fn monitor_consolidates_all_three_services() {
    let engine = populated_engine(10, 3);
    let monitor = CrossPlatformMonitor::for_engine(&engine);
    let snap = monitor.snapshot(
        engine.metrics(),
        SimTime::from_mins(10),
        SimDuration::from_mins(5),
    );
    assert_eq!(snap.rows.len(), 17);
    let table = snap.to_table();
    for needle in ["clicks", "counter", "aggregates", "CpuUtilization"] {
        assert!(table.contains(needle), "table missing {needle}");
    }
}

#[test]
fn builder_rejects_bad_flows_and_accepts_the_reference() {
    assert!(FlowBuilder::new("x")
        .ingestion(Platform::kinesis("a", 1))
        .analytics(Platform::kinesis("b", 1))
        .storage(Platform::dynamo("c", 10.0))
        .build()
        .is_err());
    let flow = FlowBuilder::new("ok")
        .ingestion(Platform::kinesis("in", 3))
        .analytics(Platform::storm("an", 2))
        .storage(Platform::dynamo("st", 50.0))
        .build()
        .unwrap();
    let config = flow.engine_config();
    assert_eq!(config.kinesis.initial_shards, 3);
    assert_eq!(config.dynamo.initial_wcu, 50.0);
}

#[test]
fn quickstart_shape_from_lib_docs() {
    let flow = FlowBuilder::new("clickstream")
        .ingestion(Platform::kinesis("clicks", 2))
        .analytics(Platform::storm("counter", 2))
        .storage(Platform::dynamo("aggregates", 100.0))
        .build()
        .unwrap();
    let mut manager = ElasticityManager::builder(flow)
        .workload(Workload::diurnal(800.0, 600.0))
        .seed(7)
        .build()
        .unwrap();
    let report = manager.run_for_mins(10);
    assert!(report.total_cost_dollars > 0.0);
    assert_eq!(report.arrival_trace.len(), 600);
}
