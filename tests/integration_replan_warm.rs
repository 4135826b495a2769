// Test target: unwrap/expect and exact comparison are deliberate here
// (determinism assertions compare exported traces byte-for-byte).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Integration: warm-started replanning stays inside the determinism
//! contract.
//!
//! Warm starts change *how much* work a consecutive replan does, not
//! *what* it computes for a given worker count: the epsilon archive and
//! the seeds sorted out of it are pure functions of the previous
//! rounds. Four contracts are pinned here:
//!
//! 1. a three-round cold → warm → warm sequence exports exactly the
//!    trace in `tests/fixtures/golden_replan_warm.jsonl`;
//! 2. that trace is byte-identical whether evaluation fans out over 1
//!    worker or 8, and every `replan.outcome` event carries the
//!    warm/cold marker;
//! 3. the machine-readable (bench-JSON-style) serialization of a
//!    warm-started solve's front is byte-identical across worker
//!    counts;
//! 4. on the worked example, warm and cold rounds are each individually
//!    reproducible, and the warm round genuinely reuses the archive —
//!    it is not a cold start in disguise.

use flower_cloud::{CloudEngine, EngineConfig, MetricsStore};
use flower_core::prelude::*;
use flower_core::replan::{PlanSelection, ReplanConfig, Replanner};
use flower_core::share::ShareProblem;
use flower_nsga2::Nsga2Config;
use flower_obs::{kind, parse_trace, JsonValue, Recorder};
use flower_sim::SimRng;
use flower_workload::{ClickStreamConfig, ClickStreamGenerator, DiurnalRate};

/// A metrics store populated by a diurnal click-stream episode — the
/// same shape the replanner unit tests analyze, long enough for three
/// 30-minute analysis windows.
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
    let mut generator = ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(1));
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

fn warm_replanner(workers: usize) -> Replanner {
    Replanner::for_clickstream(
        ReplanConfig {
            cadence: SimDuration::from_mins(30),
            analysis_window: SimDuration::from_mins(30),
            selection: PlanSelection::Balanced,
            nsga2: Nsga2Config {
                population: 40,
                generations: 40,
                seed: 3,
                ..Default::default()
            },
            workers: Some(workers),
            ..Default::default()
        },
        "clickstream",
        "storm-cluster",
        "click-aggregates",
        ShareProblem::worked_example(1.0),
    )
}

/// Run a three-round warm-started replan sequence against `store` and
/// export its structured-event trace.
fn warm_trace(store: &MetricsStore, workers: usize) -> String {
    let recorder = Recorder::with_capacity(16_384);
    let mut replanner = warm_replanner(workers);
    replanner.set_recorder(recorder.clone());
    for mins in [40u64, 70, 100] {
        replanner
            .replan(store, SimTime::from_mins(mins))
            .expect("replan succeeds");
    }
    recorder.to_jsonl()
}

#[test]
fn warm_replan_traces_are_byte_identical_across_worker_counts() {
    let store = populated_store(100);
    let one = warm_trace(&store, 1);
    let eight = warm_trace(&store, 8);
    assert!(
        one == eight,
        "warm-started replan trace diverged between 1 and 8 workers \
         (first differing line: {:?})",
        one.lines()
            .zip(eight.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a} != {b}", i + 1))
    );

    // Every replan outcome carries the warm/cold marker, and the
    // sequence is cold-then-warm: round one has no archive to reuse.
    let trace = parse_trace(&one).unwrap();
    let warms: Vec<bool> = trace
        .events
        .iter()
        .filter(|e| e.kind == kind::REPLAN_OUTCOME)
        .map(|e| match e.fields.get("warm") {
            Some(JsonValue::Bool(b)) => *b,
            other => panic!("replan.outcome without a boolean `warm` field: {other:?}"),
        })
        .collect();
    assert_eq!(
        warms,
        vec![false, true, true],
        "cold round then warm rounds"
    );
}

#[test]
fn warm_replan_trace_matches_golden_fixture() {
    // The fixture is the three-round cold → warm → warm sequence as
    // exported while the replanner still carried its seed pool's
    // dominance matrix between rounds. Worker-count identity alone
    // cannot catch a change that moves the seeds of every run alike.
    let golden = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden_replan_warm.jsonl"
    ));
    let current = warm_trace(&populated_store(100), 1);
    assert!(
        current == golden,
        "warm replan trace diverged from the golden fixture \
         (first differing line: {:?})",
        current
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a} != {b}", i + 1))
            .or_else(|| Some(format!(
                "line counts {} vs {}",
                current.lines().count(),
                golden.lines().count()
            )))
    );
}

#[test]
fn warm_solve_front_serializes_identically_across_worker_counts() {
    // The bench-JSON-style serialization of a warm-started solve: every
    // genome and objective of the returned front, printed to full
    // precision. Byte-identity here is a stronger statement than plan
    // equality — it pins the exact floats, not their rounded images.
    let serialize = |workers: usize| -> String {
        let seeds = {
            let cold = ShareAnalyzer::new(ShareProblem::worked_example(1.0))
                .with_config(Nsga2Config {
                    population: 40,
                    generations: 40,
                    seed: 3,
                    ..Default::default()
                })
                .with_workers(workers)
                .solve_with_seeds(&[])
                .expect("cold solve");
            cold.front
                .iter()
                .map(|(genes, _)| genes.clone())
                .collect::<Vec<_>>()
        };
        let warm = ShareAnalyzer::new(ShareProblem::worked_example(1.0))
            .with_config(Nsga2Config {
                population: 40,
                generations: 12,
                seed: 3,
                ..Default::default()
            })
            .with_workers(workers)
            .solve_with_seeds(&seeds)
            .expect("warm solve");
        let mut out = String::from("{\"front\": [\n");
        for (genes, objectives) in &warm.front {
            out.push_str(&format!(
                "  {{\"genes\": {genes:?}, \"objectives\": {objectives:?}}},\n"
            ));
        }
        out.push_str("]}\n");
        out
    };
    let one = serialize(1);
    let eight = serialize(8);
    assert!(!one.is_empty());
    assert_eq!(one, eight, "warm front bytes diverged across worker counts");
}

#[test]
fn warm_rounds_reuse_the_archive_and_stay_reproducible() {
    let store = populated_store(100);

    // Two independent warm sequences agree round for round.
    let run = |workers: usize| -> Vec<(bool, Vec<(String, u32)>)> {
        let mut replanner = warm_replanner(workers);
        [40u64, 70, 100]
            .iter()
            .map(|&mins| {
                let outcome = replanner
                    .replan(&store, SimTime::from_mins(mins))
                    .expect("replan succeeds");
                let plan = outcome
                    .plan
                    .rounded()
                    .into_iter()
                    .map(|(layer, units)| (layer.to_string(), units))
                    .collect();
                (outcome.warm, plan)
            })
            .collect()
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "same seed, same store ⇒ same warm sequence");
    let c = run(8);
    assert_eq!(a, c, "worker count must not leak into outcomes");
    assert!(!a[0].0, "round 1 is cold");
    assert!(a[1].0 && a[2].0, "later rounds warm-start");

    // The warm rounds really run the short generation budget: a
    // disabled-warm-start replanner over the same store and seed does
    // strictly more optimizer work, and its history never warms.
    let mut cold_only = Replanner::for_clickstream(
        ReplanConfig {
            warm_start: false,
            cadence: SimDuration::from_mins(30),
            analysis_window: SimDuration::from_mins(30),
            nsga2: Nsga2Config {
                population: 40,
                generations: 40,
                seed: 3,
                ..Default::default()
            },
            workers: Some(1),
            ..Default::default()
        },
        "clickstream",
        "storm-cluster",
        "click-aggregates",
        ShareProblem::worked_example(1.0),
    );
    for mins in [40u64, 70, 100] {
        let outcome = cold_only
            .replan(&store, SimTime::from_mins(mins))
            .expect("replan succeeds");
        assert!(!outcome.warm);
    }
}
