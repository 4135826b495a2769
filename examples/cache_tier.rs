// Example: it prints its results and reads its arguments and
// FLOWER_THREADS; unwrap/expect is deliberate here (an example fails loud).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout,
    clippy::disallowed_methods
)]
//! A fourth layer beyond the paper: a cache tier on the storage read
//! path, driven end-to-end through the same registry machinery as the
//! paper's three layers — its own capacity unit (cache nodes), its own
//! 2017 price, its own adaptive control loop, a structural dependency
//! edge to the storage layer, and a genome slot in the NSGA-II share
//! analysis. Nothing in the elasticity pipeline is special-cased.
//!
//! ```text
//! cargo run --release --example cache_tier [trace_out.jsonl]
//! ```
//!
//! With an output path the full `flower-trace/v1` JSONL document is
//! written there; CI runs this twice (`FLOWER_THREADS=1` and `=8`) and
//! byte-diffs the two files to prove the four-layer episode is as
//! deterministic as the three-layer one.

use flower_cloud::{MetricId, PriceList, ReadWorkloadConfig};
use flower_core::flow::{cached_clickstream_flow, Layer};
use flower_core::prelude::*;
use flower_core::share::Constraint;
use flower_nsga2::Nsga2Config;
use flower_obs::Recorder;
use flower_sim::SimTime;

fn main() {
    let out_path = std::env::args().nth(1);
    // Worker count for the share analysis fan-out; the trace must be
    // byte-identical whatever this is.
    let workers: Option<usize> = std::env::var("FLOWER_THREADS")
        .ok()
        .and_then(|s| s.parse().ok());

    let flow = cached_clickstream_flow();
    println!("flow '{}' ({} layers):", flow.name, flow.layers().len());
    for layer in flow.layers() {
        let platform = flow
            .platform(layer)
            .expect("layers() lists deployed layers");
        println!(
            "  {:<10} -> {:<14} scaled in {}",
            layer.label(),
            platform.name(),
            layer.resource_unit()
        );
    }

    // The share problem is the paper's worked example *plus* one open
    // registry extension: a genome slot for cache nodes at the 2017
    // ElastiCache price, coupled to storage by a structural constraint
    // (at least one cache node per 1000 provisioned write units, so the
    // hot set keeps up with the table it fronts).
    let prices = PriceList::default();
    let problem = ShareProblem::worked_example(1.0)
        .with_layer(Layer::CACHE, prices.cache_node_hour, 20.0)
        .with_constraint(Constraint::ratio(0.001, Layer::STORAGE, 1.0, Layer::CACHE));

    let replanner = Replanner::for_clickstream(
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
        problem,
    )
    .with_resource_metric(
        Layer::CACHE,
        MetricId::new(
            flower_cloud::engine::metric_names::NS_CACHE,
            flower_cloud::engine::metric_names::CACHE_NODES,
            "hot-aggregates",
        ),
    );

    // A flash crowd on the write path plus a read workload tracking site
    // traffic: the reads are what the cache tier absorbs.
    let mut manager = ElasticityManager::builder(flow)
        .workload(Workload::flash_crowd(
            600.0,
            9_000.0,
            SimTime::from_mins(10),
        ))
        .read_workload(ReadWorkloadConfig {
            base_rate: 150.0,
            per_record: 0.5,
            ..Default::default()
        })
        .replanner(replanner)
        .recorder(Recorder::with_capacity(65_536))
        .seed(5)
        .build()
        .expect("workload attached above");
    let report = manager.run_for_mins(45);

    println!("\nafter 45 simulated minutes (15x flash crowd at t=10min):");
    println!("  offered records : {}", report.offered_records);
    println!("  accepted records: {}", report.accepted_records);
    println!("  total cost      : ${:.4}", report.total_cost_dollars);
    for (layer, actions) in report.layers.iter().zip(&report.scaling_actions) {
        let units = report
            .actuators(*layer)
            .last()
            .map_or(f64::NAN, |&(_, u)| u);
        println!(
            "  {:<10} final {units:>7.0} {:<21} ({actions} scaling actions)",
            layer.label(),
            layer.resource_unit()
        );
    }

    let trace = manager.recorder().to_jsonl();
    println!(
        "\ntrace: {} events, {} bytes",
        trace.lines().count(),
        trace.len()
    );
    if let Some(path) = out_path {
        std::fs::write(&path, &trace).expect("trace output path must be writable");
        println!("trace written to {path}");
    }
}
