// Test target: unwrap/expect and exact comparison are deliberate here
// (fleet determinism is pinned by byte-for-byte trace comparison).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Integration: the multi-flow fleet manager end to end.
//!
//! Three contracts are pinned here. First, *scale*: a 1,000-tenant
//! fleet over a 1,000-SimTime-second quiet-heavy day completes in test
//! time on one scheduler and one budget. Second, *determinism*: the
//! 200-flow CI smoke fleet produces a byte-identical merged trace at 1
//! and 8 workers, equal to a pinned digest of the merged bytes. Third,
//! *fidelity*: a 1-flow fair-share fleet is indistinguishable from a
//! standalone episode — its tenant lines in the merged trace reproduce
//! the golden 3-layer trace byte for byte, proving the fleet layer adds
//! no observable perturbation to a tenant that holds the whole budget.

use flower_fleet::{
    BrokerPolicy, EpisodeConfig, Fleet, FleetSpec, FlowId, ReplanSpec, TenantSpec, WorkloadSpec,
};
use flower_obs::{parse_trace, JsonValue};
use flower_par::Executor;
use flower_sim::{SimDuration, SimTime};

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A quiet tenant: rate-0 workload, fast-forwarded, tiny ring.
fn quiet(id: &str, seed: u64) -> TenantSpec {
    TenantSpec::new(
        FlowId::new(id).unwrap(),
        EpisodeConfig {
            seed,
            fast_forward: true,
            capacity: 512,
            ..EpisodeConfig::default()
        },
    )
}

#[test]
fn a_thousand_flows_share_one_scheduler_and_one_budget() {
    // A quiet-heavy day: 990 idle tenants plus 10 busy ones, all on a
    // 1,000-SimTime-second fleet clock with 250-second settle windows.
    let mut flows = Vec::with_capacity(1_000);
    for i in 0..990u64 {
        flows.push(quiet(&format!("quiet-{i:04}"), 10_000 + i));
    }
    for i in 0..10u64 {
        let mut busy = quiet(&format!("busy-{i:04}"), 20_000 + i);
        busy.episode.workload = WorkloadSpec::Constant { rate: 40.0 };
        busy.episode.capacity = 4_096;
        busy.weight = 4.0;
        flows.push(busy);
    }
    let spec = FleetSpec {
        budget: 10.0,
        settle: SimDuration::from_secs(250),
        horizon: SimDuration::from_secs(1_000),
        overspend: false, // single pass: this test is about scale
        flows,
        ..FleetSpec::default()
    };
    let report = Fleet::new(spec).unwrap().run(Executor::from_env()).unwrap();

    assert_eq!(report.flows.len(), 1_000);
    // Decision points: the join batch at t=0 plus settles at 250/500/750.
    assert_eq!(report.rebrokers, 4);
    assert!(report.total_spend > 0.0, "busy tenants spend real dollars");

    let trace = parse_trace(&report.merged_trace).unwrap();
    assert_eq!(trace.dropped, 0, "fleet recorder overflowed");
    assert_eq!(trace.flows().len(), 1_000, "every tenant stamps its events");
    let counts = trace.counts_by_kind();
    assert_eq!(counts["fleet.join"], 1_000);
    assert_eq!(counts["fleet.rebroker"], 4);
    assert_eq!(counts["fleet.alloc"], 4_000, "1,000 allocations per point");

    // Busy tenants carry 4x weight: 4x the fair share of the 10-dollar
    // budget. 990*1 + 10*4 = 1030 weight units.
    let busy = report
        .flows
        .iter()
        .find(|f| f.id.as_str() == "busy-0000")
        .unwrap();
    let (_, alloc) = busy.allocations[0];
    assert!(
        (alloc - 10.0 * 4.0 / 1_030.0).abs() < 1e-5,
        "fair share of a weighted tenant, got {alloc}"
    );
}

#[test]
fn the_ci_smoke_fleet_is_byte_identical_at_1_and_8_workers() {
    // The same 200-tenant fleet the CI `fleet` job runs through the
    // CLI at FLOWER_THREADS 1 vs 8 — pinned here at the library level.
    let text = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/fleet-smoke.toml"
    ));
    let spec = FleetSpec::parse(text).unwrap();
    assert_eq!(spec.flows.len(), 200);
    assert!(spec.overspend, "smoke fleet exercises the two-pass path");
    let fleet = Fleet::new(spec).unwrap();

    let serial = fleet.run(Executor::new(1)).unwrap();
    let parallel = fleet.run(Executor::new(8)).unwrap();
    assert!(
        serial.merged_trace == parallel.merged_trace,
        "merged fleet trace depends on worker count (first differing \
         line: {:?})",
        serial
            .merged_trace
            .lines()
            .zip(parallel.merged_trace.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a} != {b}", i + 1))
    );

    // The merged bytes are pinned: FNV-1a 64 and length of the trace
    // the fleet wrote when every tenant ran again in the overspend pass.
    assert_eq!(
        (
            fnv1a(serial.merged_trace.as_bytes()),
            serial.merged_trace.len()
        ),
        (0xa30d_ad06_c211_1a4f, 9_166_098),
        "smoke fleet merged trace changed"
    );

    // The busy tenants overspend their 8/200-dollar slices, so the
    // probe pass must have shifted budget — and the trace says so.
    assert!(serial.overspends > 0, "expected overspent settle windows");
    // Only the two replanning wave tenants have a budget input, so the
    // overspend pass re-runs them and keeps every other probe run.
    assert!(
        0 < serial.reruns && serial.reruns < serial.flows.len() as u64,
        "expected a partial re-run, got {} of {}",
        serial.reruns,
        serial.flows.len()
    );
    assert_eq!(serial.reruns, parallel.reruns);
    let trace = parse_trace(&serial.merged_trace).unwrap();
    let counts = trace.counts_by_kind();
    assert!(counts["fleet.rebroker"] >= 4);
    assert_eq!(counts["fleet.leave"], 2, "the two wave tenants leave early");

    // Per-flow demux: retaining one tenant keeps only its events.
    let mut one = parse_trace(&serial.merged_trace).unwrap();
    one.retain_flow("busy-000");
    assert!(!one.events.is_empty());
    assert!(one.events.len() < trace.events.len());
}

/// An event line with its `{"seq":N,` prefix and its `flow` stamp
/// removed: what a fleet tenant's line shares with a standalone trace.
fn unstamped(line: &str, flow: &str) -> String {
    let body = line.split_once(',').map_or(line, |(_, rest)| rest);
    let stamp = format!("\"flow\":\"{flow}\"");
    for pattern in [format!(",{stamp}"), format!("{stamp},"), stamp.clone()] {
        if body.contains(&pattern) {
            return body.replacen(&pattern, "", 1);
        }
    }
    body.to_owned()
}

/// A summary section without the fleet recorder's `fleet.*` entries.
fn tenant_section(summary: &JsonValue, section: &str) -> Vec<(String, JsonValue)> {
    summary
        .as_obj()
        .and_then(|s| s.get(section))
        .and_then(JsonValue::as_obj)
        .unwrap()
        .iter()
        .filter(|(name, _)| !name.starts_with("fleet."))
        .map(|(name, value)| (name.clone(), value.clone()))
        .collect()
}

#[test]
fn a_one_flow_fleet_reproduces_the_golden_trace_byte_for_byte() {
    // The golden 3-layer recipe, expressed as a fleet of one. Under
    // fair-share the sole tenant's allocation equals its configured
    // budget, so the broker never reassigns it and the episode must be
    // bit-compatible with a standalone `run_for_mins(45)`.
    let tenant = TenantSpec::new(
        FlowId::new("clickstream").unwrap(),
        EpisodeConfig {
            seed: 5,
            workload: WorkloadSpec::FlashCrowd {
                base: 600.0,
                spike: 9_000.0,
                at: SimTime::from_mins(10),
            },
            replan: Some(ReplanSpec {
                budget: 1.0,
                cadence: SimDuration::from_mins(15),
                analysis_window: SimDuration::from_mins(15),
                population: 32,
                generations: 24,
                nsga2_seed: 9,
                workers: Some(2),
            }),
            fault_preset: None,
            fast_forward: false,
            capacity: 65_536,
        },
    );
    let spec = FleetSpec {
        budget: 1.0,
        policy: BrokerPolicy::FairShare,
        settle: SimDuration::from_mins(15),
        horizon: SimDuration::from_mins(45),
        overspend: false,
        flows: vec![tenant],
        ..FleetSpec::default()
    };
    let report = Fleet::new(spec).unwrap().run(Executor::serial()).unwrap();

    let golden = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden_trace_3layer.jsonl"
    ));
    // The sole tenant always holds the whole budget, unreassigned.
    let flow = &report.flows[0];
    assert!(flow.allocations.iter().all(|&(_, a)| a == 1.0));
    assert_eq!(report.reruns, 0, "one pass: overspend policing is off");

    // Every tenant line of the merged trace is its golden event line,
    // byte for byte, once `seq` and the `flow` stamp are removed: same
    // order, same count, and no fleet time offset (the tenant joins at
    // zero).
    let event_lines = |doc: &str| -> Vec<String> {
        let lines: Vec<&str> = doc.lines().collect();
        lines[1..lines.len() - 1]
            .iter()
            .map(|line| unstamped(line, "clickstream"))
            .collect()
    };
    let episode: Vec<String> = event_lines(&report.merged_trace)
        .into_iter()
        .filter(|body| {
            !body
                .split_once(",\"kind\":")
                .is_some_and(|(_, rest)| rest.starts_with("\"fleet."))
        })
        .collect();
    let expected = event_lines(golden);
    assert_eq!(episode.len(), expected.len(), "tenant event count");
    if let Some((i, (m, g))) = episode
        .iter()
        .zip(&expected)
        .enumerate()
        .find(|(_, (m, g))| m != g)
    {
        panic!("tenant event {i} diverged from the golden trace:\n  fleet:  {m}\n  golden: {g}");
    }

    // The merged summary, less the broker's `fleet.*` entries, is the
    // golden summary.
    let merged = parse_trace(&report.merged_trace).unwrap();
    assert_eq!(merged.flows(), vec!["clickstream"]);
    let golden_trace = parse_trace(golden).unwrap();
    for section in ["counters", "gauges", "histograms", "spans"] {
        assert_eq!(
            tenant_section(&merged.summary, section),
            tenant_section(&golden_trace.summary, section),
            "summary section `{section}`"
        );
    }

    // The flow-filtered view also keeps the broker's `fleet.*` events
    // that reference this tenant (join + one alloc per decision point).
    let mut demuxed = merged.clone();
    demuxed.retain_flow("clickstream");
    let fleet_events = demuxed
        .events
        .iter()
        .filter(|e| e.kind.starts_with("fleet."))
        .count();
    assert_eq!(fleet_events, 4, "join + 3 allocs");
}
