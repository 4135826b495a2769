// Test target: unwrap/expect and exact comparison are deliberate here
// (determinism assertions compare exported traces byte-for-byte).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Integration: fault injection and the resilience policy, end to end.
//!
//! Three contracts are pinned here. First, chaos is *observable*: every
//! scenario preset leaves typed `chaos.*`/`resilience.*` events in the
//! trace — faults, retries, timeouts, degraded-mode entries and exits —
//! and each names the layer it hit. Second, chaos is *survivable*: after
//! the fault window closes, the flow re-converges out of overload on the
//! same flash-crowd episode the golden fixture pins. Third, chaos is
//! *deterministic*: per-layer RNG streams make a faulted trace
//! byte-identical at any worker count, and the zero-fault plan installs
//! nothing at all — reproducing the pre-chaos golden fixture byte for
//! byte. Each preset's faulted trace is also pinned by digest and length,
//! so a change that moves its bytes at every worker count alike fails.

use flower_core::flow::clickstream_flow;
use flower_core::prelude::*;
use flower_core::replan::{PlanSelection, ReplanConfig, Replanner};
use flower_core::share::ShareProblem;
use flower_nsga2::Nsga2Config;
use flower_obs::{kind, parse_trace, Recorder, Trace};
use flower_sim::{SimDuration, SimTime};

fn replanner(workers: Option<usize>) -> Replanner {
    Replanner::for_clickstream(
        ReplanConfig {
            budget: 1.0,
            cadence: SimDuration::from_mins(15),
            analysis_window: SimDuration::from_mins(15),
            selection: PlanSelection::Balanced,
            dependency_band: 0.5,
            nsga2: Nsga2Config {
                population: 32,
                generations: 24,
                seed: 9,
                ..Default::default()
            },
            workers,
            warm_start: false,
            warm_generations: 12,
        },
        "clicks",
        "counter",
        "aggregates",
        ShareProblem::worked_example(1.0),
    )
}

/// The golden 45-minute flash-crowd episode, with faults injected.
fn faulted_episode(plan: FaultPlan, workers: Option<usize>) -> (EpisodeReport, String) {
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::flash_crowd(
            600.0,
            9_000.0,
            SimTime::from_mins(10),
        ))
        .replanner(replanner(workers))
        .recorder(Recorder::with_capacity(65_536))
        .seed(5)
        .faults(plan)
        .build()
        .unwrap();
    let report = manager.run_for_mins(45);
    (report, manager.recorder().to_jsonl())
}

fn preset(name: &str) -> FaultPlan {
    FaultPlan::preset(name).unwrap()
}

/// Every `chaos.*`/`resilience.*` event must name the layer it hit, or
/// the `flower trace` fault/recovery timeline cannot line faults up with
/// recoveries. The rule binds the writer, not the trace format, so it is
/// checked here rather than by the reader.
fn assert_fault_events_are_attributed(trace: &Trace) {
    for e in &trace.events {
        if e.kind.starts_with("chaos.") || e.kind.starts_with("resilience.") {
            assert!(
                e.str("layer").is_some(),
                "`{}` event at t={}ms has no `layer` field",
                e.kind,
                e.t_ms
            );
        }
    }
}

/// Each preset's 45-minute faulted trace, pinned by FNV-1a 64 digest and
/// byte length. No golden fixture holds a `chaos.*` or `resilience.*`
/// line, so the worker-count equality checks alone would not notice a
/// change that moves those lines' bytes on every worker count at once.
const PINNED_TRACES: [(&str, u64, usize); 4] = [
    ("flaky-actuator", 0xa07e_da37_4397_0815, 137_397),
    ("stale-sensor", 0xb9db_c13f_a0f0_90f4, 119_912),
    ("slow-resize", 0xa561_ca35_8b55_2c2d, 141_670),
    ("throttle-storm", 0xac72_041e_2c44_54e1, 147_440),
];

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_pinned(preset: &str, doc: &str) {
    let &(_, digest, len) = PINNED_TRACES
        .iter()
        .find(|(name, _, _)| *name == preset)
        .unwrap();
    assert_eq!(
        (fnv1a64(doc.as_bytes()), doc.len()),
        (digest, len),
        "the {preset} trace moved (digest, bytes)"
    );
}

/// After the last fault window closes (all presets close by minute 25),
/// the controllers must pull the flow back out of overload: the final
/// five minutes of ingestion utilization sit inside the working band.
fn assert_reconverged(report: &EpisodeReport) {
    let meas = report.measurements(Layer::INGESTION);
    let tail = &meas[meas.len() - 300..];
    let mean = tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64;
    assert!(
        mean > 1.0 && mean < 100.0,
        "ingestion utilization did not re-converge after the fault window: \
         last-5-min mean {mean:.1}%"
    );
}

#[test]
fn zero_fault_plan_reproduces_the_golden_fixture() {
    // `--faults none` must install neither the injector nor the
    // resilience runtime: the episode reproduces the pre-chaos golden
    // fixture byte for byte.
    let golden = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden_trace_3layer.jsonl"
    ));
    let (_, current) = faulted_episode(FaultPlan::none(), Some(2));
    assert!(
        current == golden,
        "a zero-fault plan perturbed the trace (first differing line: {:?})",
        current
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a} != {b}", i + 1))
    );
}

#[test]
fn flaky_actuator_retries_recovers_and_stays_deterministic() {
    let (report, one) = faulted_episode(preset("flaky-actuator"), Some(1));
    let (_, eight) = faulted_episode(preset("flaky-actuator"), Some(8));
    assert_eq!(one, eight, "faulted trace differs across worker counts");
    assert_pinned("flaky-actuator", &one);

    let trace = parse_trace(&one).unwrap();
    assert_eq!(trace.dropped, 0, "flight recorder overflowed");
    assert_fault_events_are_attributed(&trace);
    let counts = trace.counts_by_kind();
    assert!(counts.get(kind::CHAOS_FAULT).copied().unwrap_or(0) > 0);
    assert!(counts.get(kind::RESILIENCE_RETRY).copied().unwrap_or(0) > 0);
    // Recovery activity follows the injected faults. (Retries are not
    // exclusive to chaos — the engine can refuse an actuation on its
    // own — so anchor on the first *injected* fault and require retry
    // traffic after it.)
    let first_fault = trace
        .events
        .iter()
        .find(|e| e.kind == kind::CHAOS_FAULT)
        .unwrap()
        .t_ms;
    assert!(trace
        .events
        .iter()
        .any(|e| e.kind == kind::RESILIENCE_RETRY && e.t_ms > first_fault));
    assert_reconverged(&report);
}

#[test]
fn stale_sensor_enters_and_exits_degraded_mode() {
    let (report, one) = faulted_episode(preset("stale-sensor"), Some(1));
    let (_, eight) = faulted_episode(preset("stale-sensor"), Some(8));
    assert_eq!(one, eight, "faulted trace differs across worker counts");
    assert_pinned("stale-sensor", &one);

    let trace = parse_trace(&one).unwrap();
    assert_fault_events_are_attributed(&trace);
    let degraded: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == kind::RESILIENCE_DEGRADED)
        .collect();
    let enters = degraded
        .iter()
        .filter(|e| e.str("phase") == Some("enter"))
        .count();
    let exits = degraded
        .iter()
        .filter(|e| e.str("phase") == Some("exit"))
        .count();
    // Both dropped-out layers (ingestion, analytics) enter and recover.
    assert!(enters >= 2, "expected >= 2 degraded entries, got {enters}");
    assert_eq!(enters, exits, "every degraded entry must be exited");
    // While degraded, the held share is reported so the timeline can
    // show what the flow froze at.
    for e in &degraded {
        assert!(e.f64("held").is_some(), "degraded event without `held`");
    }
    assert_reconverged(&report);
}

#[test]
fn slow_resize_trips_actuation_timeouts_then_lands() {
    let (report, one) = faulted_episode(preset("slow-resize"), Some(1));
    let (_, eight) = faulted_episode(preset("slow-resize"), Some(8));
    assert_eq!(one, eight, "faulted trace differs across worker counts");
    assert_pinned("slow-resize", &one);

    let trace = parse_trace(&one).unwrap();
    assert_fault_events_are_attributed(&trace);
    let counts = trace.counts_by_kind();
    // The preset's 150 s landing delay exceeds the 120 s actuation
    // timeout, so every delayed resize is declared timed out first and
    // still lands 30 s later as an ordinary cloud resize.
    assert!(counts.get(kind::CHAOS_FAULT).copied().unwrap_or(0) > 0);
    assert!(counts.get(kind::RESILIENCE_TIMEOUT).copied().unwrap_or(0) > 0);
    assert!(counts.get(kind::CLOUD_RESIZE).copied().unwrap_or(0) > 0);
    assert_reconverged(&report);
}

#[test]
fn throttle_storm_injects_and_diverges_from_golden() {
    let golden = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden_trace_3layer.jsonl"
    ));
    let (report, doc) = faulted_episode(preset("throttle-storm"), Some(2));
    assert_ne!(doc, golden, "a storming episode cannot match the fixture");
    assert_pinned("throttle-storm", &doc);

    let trace = parse_trace(&doc).unwrap();
    assert_fault_events_are_attributed(&trace);
    let counts = trace.counts_by_kind();
    assert!(counts.get(kind::CHAOS_FAULT).copied().unwrap_or(0) > 0);
    assert!(counts.get(kind::RESILIENCE_RETRY).copied().unwrap_or(0) > 0);
    // Storms are deterministic duty cycles: every injected fault during
    // a burst is a storm-rejection at some layer.
    for e in trace.events.iter().filter(|e| e.kind == kind::CHAOS_FAULT) {
        assert_eq!(e.str("fault"), Some("storm"));
    }
    assert_reconverged(&report);
}
