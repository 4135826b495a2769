// Operational entry point: exempt from the library panic-freedom,
// console and determinism floor (DESIGN.md §7).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods
)]
//! **E5 — holistic vs partial vs static provisioning.**
//!
//! The paper's introduction motivates *holistic* elasticity with the
//! observation (citing Zhu et al., HotCloud'12) that "the ability to
//! scale down both web servers and cache tier leads to 65% saving of the
//! peak operational cost, compared to 45% if we only consider resizing
//! the web tier". This experiment reproduces the shape on our flow: a
//! diurnal workload with a ~4× peak/trough ratio, three policies —
//!
//! * **static-peak** — every layer provisioned for the peak, no scaling;
//! * **analytics-only** — only the analytics (VM) tier scales, the
//!   single-tier policy of the citation;
//! * **holistic** — Flower scales all three layers.
//!
//! Expected: cost(holistic) < cost(analytics-only) < cost(static-peak),
//! with comparable delivery (ingest loss).
//!
//! ```text
//! cargo run --release -p flower-bench --bin exp_holistic [--seed N]
//! ```

use flower_bench::seed_arg;
use flower_core::config::ControllerSpec;
use flower_core::flow::{FlowBuilder, Layer, Platform};
use flower_core::prelude::*;

fn diurnal() -> Workload {
    // ~700 → ~2,900 records/s: a 4× swing, two 2-hour cycles below.
    Workload::diurnal(1_800.0, 1_100.0)
}

/// Peak-sized deployment: 4 shards (peak 2,900 < 4,000), 3 VMs, 250 WCU.
fn peak_flow() -> flower_core::flow::FlowSpec {
    FlowBuilder::new("peak-sized")
        .ingestion(Platform::kinesis("clicks", 4))
        .analytics(Platform::storm("counter", 3))
        .storage(Platform::dynamo("aggregates", 250.0))
        .build()
        .expect("valid flow")
}

struct Policy {
    name: &'static str,
    report: EpisodeReport,
}

fn main() {
    let seed = seed_arg(9);
    const MINUTES: u64 = 240; // two full diurnal cycles

    let static_peak = {
        let mut m = ElasticityManager::builder(peak_flow())
            .workload(diurnal())
            .all_controllers(ControllerSpec::Static)
            .seed(seed)
            .build()
            .expect("workload attached above");
        Policy {
            name: "static-peak",
            report: m.run_for_mins(MINUTES),
        }
    };

    let analytics_only = {
        let mut m = ElasticityManager::builder(peak_flow())
            .workload(diurnal())
            .controller(Layer::INGESTION, ControllerSpec::Static)
            .controller(Layer::ANALYTICS, ControllerSpec::adaptive(60.0))
            .controller(Layer::STORAGE, ControllerSpec::Static)
            .seed(seed)
            .build()
            .expect("workload attached above");
        Policy {
            name: "analytics-only",
            report: m.run_for_mins(MINUTES),
        }
    };

    let holistic = {
        let mut m = ElasticityManager::builder(peak_flow())
            .workload(diurnal())
            .seed(seed)
            .build()
            .expect("workload attached above");
        Policy {
            name: "holistic",
            report: m.run_for_mins(MINUTES),
        }
    };

    println!("E5 — holistic vs partial scaling ({MINUTES} min diurnal, seed {seed})");
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>10}",
        "policy", "cost $", "saving%", "loss%", "actions"
    );
    let base = static_peak.report.total_cost_dollars;
    for p in [&static_peak, &analytics_only, &holistic] {
        println!(
            "{:<16} {:>10.4} {:>10.1} {:>12.3} {:>10}",
            p.name,
            p.report.total_cost_dollars,
            (1.0 - p.report.total_cost_dollars / base) * 100.0,
            p.report.ingest_loss_rate() * 100.0,
            p.report.total_actions()
        );
    }

    let h = holistic.report.total_cost_dollars;
    let a = analytics_only.report.total_cost_dollars;
    println!("\n== shape checks (paper's citation: 65% holistic vs 45% single-tier) ==");
    println!(
        "  holistic saves more than analytics-only: {} ({:.1}% vs {:.1}%)",
        if h < a { "PASS" } else { "FAIL" },
        (1.0 - h / base) * 100.0,
        (1.0 - a / base) * 100.0
    );
    println!(
        "  both save vs static peak: {}",
        if h < base && a < base { "PASS" } else { "FAIL" }
    );
    println!(
        "  delivery comparable (holistic loss ≤ static loss + 5%): {}",
        if holistic.report.ingest_loss_rate() <= static_peak.report.ingest_loss_rate() + 0.05 {
            "PASS"
        } else {
            "FAIL"
        }
    );
}
