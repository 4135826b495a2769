// Example: it prints its results; unwrap/expect and exact float
// comparison are deliberate here (determinism assertions compare
// results bit-for-bit).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout
)]
//! Quickstart: build the paper's click-stream flow, attach Flower's
//! adaptive controllers, run ten simulated minutes, and print what
//! happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use flower_core::flow::Layer;
use flower_core::prelude::*;

fn main() {
    // Step 1 — Flow Builder (paper §4, step 1): drag-and-drop as code.
    let flow = FlowBuilder::new("clickstream-analytics")
        .ingestion(Platform::kinesis("clicks", 2))
        .analytics(Platform::storm("counter", 2))
        .storage(Platform::dynamo("aggregates", 100.0))
        .build()
        .expect("valid flow");
    println!("flow '{}' built:", flow.name);
    for layer in Layer::ALL {
        let platform = flow.platform(layer).expect("paper layers are present");
        println!("  {layer:<10} -> {}", platform.name());
    }

    // Step 2 — Configuration wizard: defaults are the paper's adaptive
    // controller on every layer, 30 s monitoring period.
    let mut manager = ElasticityManager::builder(flow)
        .workload(Workload::diurnal(1_500.0, 1_200.0))
        .seed(7)
        .build()
        .expect("workload attached above");

    // Step 3 — run and observe.
    let report = manager.run_for_mins(10);

    println!("\nafter 10 simulated minutes:");
    println!("  offered records : {}", report.offered_records);
    println!("  accepted records: {}", report.accepted_records);
    println!(
        "  ingest loss rate: {:.2}%",
        report.ingest_loss_rate() * 100.0
    );
    println!("  scaling actions : {}", report.total_actions());
    println!("  total cost      : ${:.4}", report.total_cost_dollars);

    for layer in Layer::ALL {
        let (_, units) = report.actuators(layer).last().copied().unwrap();
        println!("  final {layer:<10}: {units:.0} {}", layer.resource_unit());
    }
}
