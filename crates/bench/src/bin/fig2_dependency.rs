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
//! **E1 + E2 — Fig. 2 and Eq. 2 of the paper.**
//!
//! Reproduces the paper's Fig. 2: a 550-minute trace of the click-stream
//! flow in which the data arrival rate at the ingestion layer (Kinesis)
//! is strongly correlated with the CPU load at the analytics layer
//! (Storm). The paper reports a Pearson coefficient of 0.95 and the
//! fitted dependency `CPU ≈ 0.0002·WriteCapacity + 4.8` (Eq. 2).
//!
//! Our trace comes from the simulated flow under a diurnal+noise click
//! workload; the *shape* to reproduce is a strong (≥ 0.9) positive
//! correlation and a regression line with a small positive slope and an
//! intercept equal to the cluster's idle CPU.
//!
//! ```text
//! cargo run --release -p flower-bench --bin fig2_dependency [--seed N]
//! ```

use flower_bench::seed_arg;
use flower_core::dashboard::{downsample, sparkline};
use flower_core::dependency::DependencyAnalyzer;
use flower_core::flow::clickstream_flow;
use flower_sim::{SimDuration, SimRng, SimTime};
use flower_workload::{DiurnalRate, NoisyRate};

fn main() {
    let seed = seed_arg(2017);
    // The paper's trace spans 550 minutes with visible load cycles.
    const MINUTES: u64 = 550;

    // Static over-provisioned deployment: Fig. 2 is an *observation*
    // trace, not a control episode — capacity must not clip the signal.
    let flow = clickstream_flow();
    let mut config = flow.engine_config();
    config.kinesis.initial_shards = 8;
    config.storm.initial_vms = 6;
    config.storm.cpu_noise_std = 5.0; // correlated sensor disturbance → r ≈ 0.95
    config.storm.noise_seed = seed ^ 0xC10;
    config.dynamo.initial_wcu = 400.0;
    let mut engine = flower_cloud::CloudEngine::new(config);

    let mut process = NoisyRate::new(
        Box::new(DiurnalRate::new(
            3_500.0,
            2_800.0,
            SimDuration::from_mins(180),
            SimDuration::ZERO,
        )),
        0.08,
        SimRng::seed(seed).fork(2),
    );
    let mut generator = flower_workload::ClickStreamGenerator::new(
        flower_workload::ClickStreamConfig::default(),
        SimRng::seed(seed).fork(1),
    );

    println!("simulating {MINUTES} minutes of the click-stream flow (seed {seed})...");
    for s in 0..MINUTES * 60 {
        let now = SimTime::from_secs(s);
        let records = generator.tick(&mut process, now, 1.0);
        engine.tick(&records, now, SimDuration::from_secs(1));
    }

    // --- Fig. 2 panels: per-minute input records and analytics CPU.
    use flower_cloud::engine::metric_names::*;
    use flower_cloud::{MetricId, Statistic};
    let records_id = MetricId::new(NS_KINESIS, INCOMING_RECORDS, "clicks");
    let cpu_id = MetricId::new(NS_STORM, CPU_UTILIZATION, "counter");
    let per_min_records: Vec<f64> = engine
        .metrics()
        .get_statistics(
            &records_id,
            Statistic::Sum,
            SimDuration::from_mins(1),
            SimTime::ZERO,
            SimTime::from_mins(MINUTES),
        )
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    let per_min_cpu: Vec<f64> = engine
        .metrics()
        .get_statistics(
            &cpu_id,
            Statistic::Average,
            SimDuration::from_mins(1),
            SimTime::ZERO,
            SimTime::from_mins(MINUTES),
        )
        .into_iter()
        .map(|(_, v)| v)
        .collect();

    println!("\nFig. 2 (top): ingestion layer — input records per minute");
    println!("  {}", sparkline(&downsample(&per_min_records, 110)));
    println!("Fig. 2 (bottom): analytics layer — CPU (%)");
    println!("  {}", sparkline(&downsample(&per_min_cpu, 110)));

    // --- The quantitative reproduction: correlation + Eq. 2 regression.
    let analyzer = DependencyAnalyzer::for_clickstream("clicks", "counter", "aggregates");
    let deps = analyzer
        .dependencies(engine.metrics(), SimTime::ZERO, SimTime::from_mins(MINUTES))
        .expect("analysis succeeds");

    println!("\nlearned cross-layer dependencies (|r| >= 0.7):");
    for d in &deps {
        println!("  {}", d.equation());
    }

    let fig2 = deps
        .iter()
        .find(|d| d.source.id.metric == INCOMING_RECORDS && d.target.id.metric == CPU_UTILIZATION)
        .expect("the Fig. 2 pair must be dependent");
    println!("\n== paper vs reproduction ==");
    println!(
        "  correlation (paper: 0.95)     : {:.3}",
        fig2.correlation()
    );
    println!(
        "  regression (paper Eq. 2: CPU = 0.0002*WC + 4.8): CPU = {:.6}*records_per_sec + {:.2}",
        fig2.fit.slope * 60.0, // per-minute sum → per-second rate
        fig2.fit.intercept
    );
    println!(
        "  shape check: strong positive correlation {}; positive intercept (idle CPU) {}",
        if fig2.correlation() >= 0.9 {
            "PASS"
        } else {
            "FAIL"
        },
        if fig2.fit.intercept > 0.0 {
            "PASS"
        } else {
            "FAIL"
        },
    );
}
