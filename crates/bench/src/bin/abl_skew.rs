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
//! **A4 — ablation: hot-key skew and the monitoring sensor's altitude.**
//!
//! The paper's first challenge (§1) is "heterogeneity of workloads": a
//! skewed partition-key distribution saturates individual Kinesis shards
//! while the stream-level *average* utilization looks healthy — the
//! pathology coarse autoscaling rules miss. This ablation runs the same
//! skewed click-stream twice, once with the ingestion controller fed by
//! the stream-average sensor and once by the enhanced shard-level
//! (hottest-shard) sensor.
//!
//! Expected shape: under skew, the average-fed controller under-provisions
//! and throttles heavily; the hot-shard-fed controller over-provisions
//! (shards don't help a single hot key much — the honest finding) but
//! still cuts throttling. Under uniform keys the two behave alike.
//!
//! ```text
//! cargo run --release -p flower-bench --bin abl_skew [--seed N]
//! ```

use flower_bench::seed_arg;
use flower_core::flow::{clickstream_flow, Layer};
use flower_core::prelude::*;
use flower_workload::ClickStreamConfig;

fn episode(skewed: bool, hot_sensor: bool, seed: u64) -> EpisodeReport {
    let click = if skewed {
        ClickStreamConfig {
            hot_user_fraction: 0.6,
            hot_user_count: 3,
            ..Default::default()
        }
    } else {
        ClickStreamConfig::default()
    };
    let mut manager = ElasticityManager::builder(clickstream_flow())
        .workload(Workload::constant(2_500.0).with_click_config(click))
        .hot_shard_sensor(hot_sensor)
        .seed(seed)
        .build()
        .expect("workload attached above");
    manager.run_for_mins(45)
}

fn main() {
    let seed = seed_arg(5);
    println!("A4 — hot-key skew vs monitoring sensor (45 min @ 2,500 rec/s, seed {seed})");
    println!(
        "{:>8} {:>12} {:>14} {:>8} {:>12} {:>10}",
        "keys", "sensor", "thr.ingest", "loss%", "final shards", "cost $"
    );

    let mut results = Vec::new();
    for (skewed, label) in [(false, "uniform"), (true, "skewed")] {
        for (hot, sensor) in [(false, "average"), (true, "hot-shard")] {
            let report = episode(skewed, hot, seed);
            let shards = report.actuators(Layer::INGESTION).last().unwrap().1;
            println!(
                "{:>8} {:>12} {:>14} {:>8.2} {:>12.0} {:>10.4}",
                label,
                sensor,
                report.throttled_ingest,
                report.ingest_loss_rate() * 100.0,
                shards,
                report.total_cost_dollars
            );
            results.push((skewed, hot, report));
        }
    }

    let loss = |skewed: bool, hot: bool| {
        results
            .iter()
            .find(|(s, h, _)| *s == skewed && *h == hot)
            .map(|(_, _, r)| r.ingest_loss_rate())
            .expect("present")
    };
    println!("\n== shape checks ==");
    println!(
        "  skew hurts the average-fed controller: {} ({:.1}% vs {:.1}% uniform)",
        if loss(true, false) > loss(false, false) + 0.02 {
            "PASS"
        } else {
            "FAIL"
        },
        loss(true, false) * 100.0,
        loss(false, false) * 100.0
    );
    println!(
        "  the hot-shard sensor cuts skewed-key loss: {} ({:.1}% vs {:.1}%)",
        if loss(true, true) < loss(true, false) {
            "PASS"
        } else {
            "FAIL"
        },
        loss(true, true) * 100.0,
        loss(true, false) * 100.0
    );
    println!(
        "  under uniform keys the sensors roughly agree: {} ({:.1}% vs {:.1}%)",
        if (loss(false, true) - loss(false, false)).abs() < 0.05 {
            "PASS"
        } else {
            "FAIL"
        },
        loss(false, true) * 100.0,
        loss(false, false) * 100.0
    );
}
