// Example: it prints its results; unwrap/expect and exact float
// comparison are deliberate here (determinism assertions compare
// results bit-for-bit).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout
)]
//! The paper's headline scenario end-to-end: a click-stream data
//! analytics flow (Fig. 1) under a realistic day/night workload with a
//! lunchtime flash crowd, managed holistically by Flower.
//!
//! Demonstrates: workload dependency analysis on the collected logs
//! (§3.1, the Fig. 2 / Eq. 2 reproduction) and the elasticity episode the
//! controllers produce.
//!
//! ```text
//! cargo run --release --example clickstream
//! ```

use flower_core::dashboard::{Dashboard, Panel};
use flower_core::dependency::DependencyAnalyzer;
use flower_core::flow::Layer;
use flower_core::prelude::*;
use flower_sim::SimRng;
use flower_sim::SimTime;
use flower_workload::{CompositeProcess, DiurnalRate, FlashCrowd, NoisyRate};

fn main() {
    // A compressed diurnal cycle with a flash crowd 40 minutes in, plus
    // 10% multiplicative noise — the kind of "real website traffic" the
    // demo emulates with its EC2 click generators.
    let process = NoisyRate::new(
        Box::new(CompositeProcess::sum(vec![
            Box::new(DiurnalRate::new(
                1_800.0,
                1_200.0,
                SimDuration::from_hours(2),
                SimDuration::ZERO,
            )),
            Box::new(FlashCrowd::new(
                0.0,
                2_500.0,
                SimTime::from_mins(40),
                SimDuration::from_mins(5),
                SimDuration::from_mins(8),
            )),
        ])),
        0.10,
        SimRng::seed(99),
    );

    let flow = FlowBuilder::new("clickstream-analytics")
        .ingestion(Platform::kinesis("clicks", 3))
        .analytics(Platform::storm("counter", 2))
        .storage(Platform::dynamo("aggregates", 150.0))
        .build()
        .expect("valid flow");

    let mut manager = ElasticityManager::builder(flow)
        .workload(Workload::custom(Box::new(process)))
        .monitoring_period(SimDuration::from_secs(30))
        .seed(13)
        .build()
        .expect("workload attached above");

    println!("running 2 simulated hours of click-stream analytics...");
    let report = manager.run_for_mins(120);

    // --- The elasticity episode, as sparkline dashboards.
    let dashboard = Dashboard::new()
        .panel(Panel::new(
            "arrival rate (records/s)",
            report.arrival_trace.clone(),
        ))
        .panel(
            Panel::new(
                "ingestion utilization (%)",
                report.measurements(Layer::INGESTION).to_vec(),
            )
            .with_reference(70.0),
        )
        .panel(Panel::new(
            "shards",
            report.actuators(Layer::INGESTION).to_vec(),
        ))
        .panel(
            Panel::new(
                "analytics CPU (%)",
                report.measurements(Layer::ANALYTICS).to_vec(),
            )
            .with_reference(60.0),
        )
        .panel(Panel::new(
            "VMs",
            report.actuators(Layer::ANALYTICS).to_vec(),
        ))
        .panel(
            Panel::new(
                "storage write utilization (%)",
                report.measurements(Layer::STORAGE).to_vec(),
            )
            .with_reference(70.0),
        )
        .panel(Panel::new(
            "write capacity units",
            report.actuators(Layer::STORAGE).to_vec(),
        ));
    println!("\n{}", dashboard.render(100));

    println!(
        "cost ${:.4} | loss {:.2}% | actions {} | dropped tuples {}",
        report.total_cost_dollars,
        report.ingest_loss_rate() * 100.0,
        report.total_actions(),
        report.dropped_tuples,
    );

    // --- Dependency analysis on the logs this episode produced (§3.1).
    println!("\nworkload dependency analysis over the episode:");
    let analyzer = DependencyAnalyzer::for_clickstream("clicks", "counter", "aggregates");
    match analyzer.dependencies(manager.engine().metrics(), SimTime::ZERO, manager.now()) {
        Ok(deps) if deps.is_empty() => println!("  (no strong dependencies found)"),
        Ok(deps) => {
            for d in deps {
                println!("  {}", d.equation());
            }
        }
        Err(e) => println!("  analysis failed: {e}"),
    }
}
