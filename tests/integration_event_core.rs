// Test target: unwrap/expect and exact comparison are deliberate here
// (determinism assertions compare exported traces byte-for-byte), and
// the wall-clock bound reads `Instant::now`.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::disallowed_methods
)]
//! Integration: the event-driven episode core over a month of SimTime.
//!
//! The discrete-event rewrite's reason to exist is that episode cost
//! scales with *events*, not *seconds*: a 30-day episode that goes
//! quiet after its first hour must cost on the order of its scheduled
//! control/alarm/replan events, never its 2.6 million simulated
//! seconds. This file pins that — bounded event counts and bounded
//! wall clock on a quiet-heavy month — and pins determinism at scale:
//! the full structured trace of the month is byte-identical whether
//! the replanner's share analysis fans out over 1 worker or 8.

use std::time::Instant;

use flower_core::flow::clickstream_flow;
use flower_core::prelude::*;
use flower_core::replan::{ReplanConfig, Replanner};
use flower_core::share::ShareProblem;
use flower_nsga2::Nsga2Config;
use flower_obs::{kind, parse_trace, Recorder};
use flower_sim::{SimDuration, SimTime};

const DAYS: u64 = 30;

/// A 30-day episode that is busy for one hour and silent for the rest,
/// fast-forwarded, traced, replanning every 10 days.
fn month_long_episode(workers: usize) -> (EpisodeReport, String) {
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::step(2_000.0, 0.0, SimTime::from_hours(1)))
        .monitoring_period(SimDuration::from_mins(5))
        .replanner(Replanner::for_clickstream(
            ReplanConfig {
                cadence: SimDuration::from_hours(24 * 10),
                analysis_window: SimDuration::from_mins(30),
                nsga2: Nsga2Config {
                    population: 32,
                    generations: 24,
                    seed: 9,
                    ..Default::default()
                },
                workers: Some(workers),
                ..Default::default()
            },
            "clicks",
            "counter",
            "aggregates",
            ShareProblem::worked_example(1.0),
        ))
        .recorder(Recorder::with_capacity(65_536))
        .fast_forward(true)
        .seed(11)
        .build()
        .unwrap();
    let report = manager.run_for_mins(DAYS * 24 * 60);
    assert_eq!(
        manager.now(),
        SimTime::from_hours(DAYS * 24),
        "episode must reach the 30-day mark"
    );
    let doc = manager.recorder().to_jsonl();
    (report, doc)
}

#[test]
fn quiet_heavy_month_costs_events_not_seconds() {
    let started = Instant::now();
    let (report, doc) = month_long_episode(2);
    let elapsed = started.elapsed();

    // Cost scales with scheduled events. The tick-era core paid one
    // engine step per simulated second — at least 2.59 million for this
    // episode before any housekeeping. The event core pays for the
    // busy hour, the control/alarm grids, and one catch-up tick per
    // quiet gap: well under a fifth of the seconds.
    let seconds = DAYS * 24 * 60 * 60;
    assert!(
        report.events_executed < seconds / 5,
        "{} events for {seconds} quiet-heavy seconds — quiet windows are not being skipped",
        report.events_executed
    );
    assert!(
        report.events_executed > 10_000,
        "suspiciously few events ({}) — did the grids run?",
        report.events_executed
    );
    assert!(
        report.queue_high_water > 0 && report.queue_high_water < 64,
        "queue high-water {} outside sane bounds",
        report.queue_high_water
    );
    // Generous bound for slow single-core CI hosts (looser still without
    // optimizations); the point is that the month completes in test time
    // at all (the pre-event-core fixed-step loop plus tracing would not).
    let limit = if cfg!(debug_assertions) { 900 } else { 240 };
    assert!(
        elapsed.as_secs() < limit,
        "30-day episode took {elapsed:?} of wall clock (limit {limit}s)"
    );

    // The busy first hour produced real (Poisson-sampled) work around
    // the 2 000 rec/s intensity; the quiet tail produced none, so the
    // month's total is just that hour's.
    let expected = 2_000 * 60 * 60;
    assert!(
        report.offered_records.abs_diff(expected) < expected / 20,
        "offered {} far from the busy hour's ~{expected}",
        report.offered_records
    );

    // Replans fired on their 10-day cadence and reached the optimizer
    // even though the analysis window held only quiet samples.
    let trace = parse_trace(&doc).unwrap();
    let counts = trace.counts_by_kind();
    let outcomes = counts.get(kind::REPLAN_OUTCOME).copied().unwrap_or(0);
    let failures = counts.get(kind::REPLAN_FAILED).copied().unwrap_or(0);
    assert!(
        (2..=3).contains(&(outcomes + failures)),
        "expected 2-3 replan rounds over 30 days at a 10-day cadence, \
         got {outcomes} outcomes + {failures} failures"
    );
    assert!(
        outcomes >= 1 && counts.get(kind::NSGA2_GENERATION).copied().unwrap_or(0) > 0,
        "no replan reached the NSGA-II solve; kinds seen: {counts:?}"
    );

    // Event timestamps stay ordered and inside the episode even when
    // the clock jumps across quiet windows.
    let mut last = 0;
    for e in &trace.events {
        assert!(e.t_ms >= last, "t_ms went backwards at seq {}", e.seq);
        last = e.t_ms;
    }
    assert!(last <= seconds * 1_000);
}

#[test]
fn month_long_trace_is_byte_identical_across_worker_counts() {
    let (report_one, one) = month_long_episode(1);
    let (report_eight, eight) = month_long_episode(8);
    assert!(!one.is_empty());
    assert!(
        one == eight,
        "1-worker and 8-worker month-long traces differ (first differing line: {:?})",
        one.lines()
            .zip(eight.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a} != {b}", i + 1))
    );
    assert_eq!(report_one, report_eight, "episode reports differ");
}
