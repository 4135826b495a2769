// Test target: unwrap/expect and exact float comparison are deliberate
// here (determinism assertions compare results bit-for-bit).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Property-based tests for the simulated cloud services: conservation
//! laws and invariants that must hold for *any* workload, capacity, or
//! tick pattern. Driven by the deterministic `testkit` harness.

use flower_cloud::{
    CloudEngine, DynamoConfig, DynamoTable, EngineConfig, KinesisConfig, KinesisStream, MetricId,
    MetricsStore, Statistic, StormCluster, StormConfig, Topology,
};
use flower_sim::testkit::{forall, vec_f64, vec_u64};
use flower_sim::{SimDuration, SimRng, SimTime};
use flower_workload::{ClickStreamConfig, ClickStreamGenerator};

const DT: SimDuration = SimDuration::from_secs(1);

/// Kinesis conserves records: accepted + throttled == offered, and
/// accepted never exceeds aggregate capacity.
#[test]
fn kinesis_conserves_records() {
    forall(32, |rng| {
        let shards = 1 + rng.below(15) as u32;
        let batch_sizes = vec_u64(rng, 5_000, 1, 19);
        let seed = rng.below(1_000);
        let mut stream = KinesisStream::new(KinesisConfig {
            initial_shards: shards,
            ..Default::default()
        });
        let mut generator =
            ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed));
        let mut offered_total = 0u64;
        for (i, &n) in batch_sizes.iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let batch = generator.generate(n);
            let out = stream.ingest(&batch, now, DT);
            assert_eq!(out.accepted + out.throttled, n);
            assert!(out.accepted <= u64::from(shards) * 1_000);
            offered_total += n;
        }
        let (accepted, throttled, _) = stream.counters();
        assert_eq!(accepted + throttled, offered_total);
    });
}

/// Storm conserves tuples: processed + dropped + backlog == offered, and
/// CPU stays within [idle, 100].
#[test]
fn storm_conserves_tuples() {
    forall(32, |rng| {
        let vms = 1 + rng.below(9) as u32;
        let loads = vec_u64(rng, 30_000, 1, 29);
        let mut cluster = StormCluster::new(
            StormConfig {
                initial_vms: vms,
                max_backlog: 50_000,
                ..Default::default()
            },
            Topology::clickstream(),
        );
        let mut offered = 0u64;
        let mut processed = 0u64;
        let mut dropped = 0u64;
        let mut backlog = 0u64;
        for (i, &n) in loads.iter().enumerate() {
            let out = cluster.process(n, SimTime::from_secs(i as u64), DT);
            offered += n;
            processed += out.processed;
            dropped += out.dropped;
            backlog = out.backlog;
            assert!(out.cpu_pct >= 4.8 - 1e-9 && out.cpu_pct <= 100.0 + 1e-9);
            assert!(out.latency_secs >= 0.0);
        }
        assert_eq!(processed + dropped + backlog, offered);
    });
}

/// DynamoDB conserves items, never consumes more than provisioned +
/// burst, and the burst bucket stays within its cap.
#[test]
fn dynamo_write_invariants() {
    forall(32, |rng| {
        let wcu = rng.uniform(1.0, 500.0);
        let items = vec_u64(rng, 2_000, 1, 29);
        let mut table = DynamoTable::new(DynamoConfig {
            initial_wcu: wcu,
            ..Default::default()
        });
        for (i, &n) in items.iter().enumerate() {
            let out = table.write(n, 512, SimTime::from_secs(i as u64), DT);
            assert_eq!(out.written + out.throttled, n);
            // Consumed rate can exceed provisioned only via burst credit.
            assert!(out.consumed_wcu <= wcu + 300.0 * wcu + 1e-6);
            assert!(out.burst_credit >= 0.0);
            assert!(out.burst_credit <= 300.0 * wcu + 1e-6);
        }
    });
}

/// The read path obeys the same invariants independently.
#[test]
fn dynamo_read_invariants() {
    forall(32, |rng| {
        let rcu = rng.uniform(1.0, 500.0);
        let items = vec_u64(rng, 2_000, 1, 29);
        let eventually = rng.chance(0.5);
        let mut table = DynamoTable::new(DynamoConfig {
            initial_wcu: 10.0,
            initial_rcu: rcu,
            ..Default::default()
        });
        for (i, &n) in items.iter().enumerate() {
            let out = table.read(n, 4_096, eventually, SimTime::from_secs(i as u64), DT);
            assert_eq!(out.read + out.throttled, n);
            assert!(out.burst_credit >= 0.0);
            assert!(out.burst_credit <= 300.0 * rcu + 1e-6);
        }
    });
}

/// The full engine: money only ever accrues, layer conservation holds
/// end-to-end, and a bigger deployment never accepts fewer records on
/// the same workload.
#[test]
fn engine_monotonicity_and_conservation() {
    forall(32, |rng| {
        let rate = 100 + rng.below(3_900);
        let seed = rng.below(500);
        let run = |shards: u32, vms: u32| {
            let mut engine = CloudEngine::new(EngineConfig {
                kinesis: KinesisConfig {
                    initial_shards: shards,
                    ..Default::default()
                },
                storm: StormConfig {
                    initial_vms: vms,
                    ..Default::default()
                },
                ..Default::default()
            });
            let mut generator =
                ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed));
            let mut accepted = 0u64;
            let mut offered = 0u64;
            let mut last_cost = 0.0;
            for s in 0..20u64 {
                let now = SimTime::from_secs(s);
                let batch = generator.generate(rate);
                let tick = engine.tick(&batch, now, DT);
                assert!(tick.cost > 0.0, "resources always cost money");
                assert!(engine.billing().total() > last_cost);
                last_cost = engine.billing().total();
                accepted += tick.ingest.accepted;
                offered += rate;
            }
            assert!(accepted <= offered);
            accepted
        };
        let small = run(1, 1);
        let large = run(8, 8);
        assert!(
            large >= small,
            "bigger deployment accepted less: {large} < {small}"
        );
    });
}

/// A window's percentile never falls as the percentile rises, and runs
/// from the window's Minimum at p0 to its Maximum at p100.
#[test]
fn percentile_monotone() {
    forall(128, |rng| {
        let values = vec_f64(rng, -1e6, 1e6, 1, 49);
        let id = MetricId::new("AWS/Test", "Value", "prop");
        let mut store = MetricsStore::new();
        let series = store.register(id.clone());
        for (t, &v) in (0..).zip(&values) {
            store.push(series, SimTime::from_secs(t), v);
        }
        let end = SimTime::from_secs(values.len() as u64);
        let stat = |s| store.window_stat(&id, s, SimTime::ZERO, end).unwrap();
        let (p1, p2) = (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0));
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(stat(Statistic::Percentile(lo)) <= stat(Statistic::Percentile(hi)) + 1e-6);
        assert_eq!(stat(Statistic::Percentile(0.0)), stat(Statistic::Minimum));
        assert_eq!(stat(Statistic::Percentile(100.0)), stat(Statistic::Maximum));
    });
}
