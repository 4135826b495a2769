// Example: it prints its results; unwrap/expect and exact float
// comparison are deliberate here (determinism assertions compare
// results bit-for-bit).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout
)]
//! Cross-Platform Monitoring (paper §3.4, Figs. 5–6): the
//! "all-in-one-place visualizer" — one consolidated view over Kinesis-,
//! Storm- and DynamoDB-like services, refreshed live while the flow runs.
//!
//! ```text
//! cargo run --release --example dashboard
//! ```

use flower_core::dashboard::{Dashboard, Panel};
use flower_core::flow::Layer;
use flower_core::monitor::CrossPlatformMonitor;
use flower_core::prelude::*;

fn main() {
    let flow = FlowBuilder::new("clickstream-analytics")
        .ingestion(Platform::kinesis("clicks", 2))
        .analytics(Platform::storm("counter", 2))
        .storage(Platform::dynamo("aggregates", 100.0))
        .build()
        .expect("valid flow");

    let mut manager = ElasticityManager::builder(flow)
        .workload(Workload::diurnal(1_800.0, 1_400.0))
        .seed(31)
        .build()
        .expect("workload attached above");

    let mut monitor = CrossPlatformMonitor::for_engine(manager.engine());

    // Simulate a live session: advance 15 minutes at a time and re-render
    // the consolidated view, as the demo's audience would watch it.
    for round in 1..=4 {
        let report = manager.run_for_mins(15);
        println!("\n──────── monitoring refresh #{round} ────────");
        for t in monitor.observe(manager.engine().metrics(), manager.now()) {
            println!("alarm transition: {} {} -> {}", t.alarm, t.from, t.to);
        }
        let snapshot = monitor.snapshot(
            manager.engine().metrics(),
            manager.now(),
            SimDuration::from_mins(5),
        );
        print!("{}", snapshot.to_table_with_alarms(monitor.alarms()));

        // Controller performance monitor (Fig. 6): measurement vs
        // setpoint per layer.
        let charts = Dashboard::new()
            .panel(
                Panel::new(
                    "ingestion utilization (%)",
                    report.measurements(Layer::INGESTION).to_vec(),
                )
                .with_reference(70.0),
            )
            .panel(
                Panel::new(
                    "analytics CPU (%)",
                    report.measurements(Layer::ANALYTICS).to_vec(),
                )
                .with_reference(60.0),
            )
            .panel(
                Panel::new(
                    "storage write utilization (%)",
                    report.measurements(Layer::STORAGE).to_vec(),
                )
                .with_reference(70.0),
            );
        println!("{}", charts.render(80));
    }

    println!(
        "session totals: ${:.4} spent",
        manager.engine().billing().total()
    );
}
