// Test target: unwrap/expect and exact float comparison are deliberate
// here (determinism assertions compare results bit-for-bit).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Determinism regression tests for the workload generators.
//!
//! Flower's experiments must replay identically — the paper's traces are
//! the fixed input every analysis stage consumes — so the generators
//! guarantee: same seed ⇒ bit-identical sampled rates and identical
//! record stream across independent runs.

use flower_sim::testkit::forall;
use flower_sim::{SimDuration, SimRng, SimTime};
use flower_workload::arrival::{ConstantRate, DiurnalRate, MmppRate, NoisyRate};
use flower_workload::click::{ClickStreamConfig, ClickStreamGenerator};
use flower_workload::ArrivalProcess;

/// Sample `process` every `period` for `n` steps from `t = 0` and
/// digest the bits of every sampled rate.
fn sampled_rates_digest(process: &mut dyn ArrivalProcess, period: SimDuration, n: u64) -> u64 {
    let mut digest = Fnv1a::new();
    for i in 0..n {
        digest.write_u64(process.rate(SimTime::ZERO + period * i).to_bits());
    }
    digest.0
}

/// A noisy diurnal intensity re-seeded from `seed`, sampled every 30 s
/// for two hours.
fn noisy_diurnal_digest(seed: u64) -> u64 {
    let mut process = NoisyRate::new(
        Box::new(DiurnalRate::new(
            120.0,
            60.0,
            SimDuration::from_hours(24),
            SimDuration::ZERO,
        )),
        0.2,
        SimRng::seed(seed),
    );
    sampled_rates_digest(&mut process, SimDuration::from_secs(30), 240)
}

/// Same seed ⇒ byte-identical serialized trace: the little-endian bytes
/// of every sampled rate digest the same across two runs, over many
/// seeds.
#[test]
fn same_seed_yields_byte_identical_serialized_trace() {
    forall(16, |rng| {
        let seed = rng.next_u64();
        assert_eq!(
            noisy_diurnal_digest(seed),
            noisy_diurnal_digest(seed),
            "sampled rates diverged for seed {seed}"
        );
    });
}

/// Different seeds must not collapse onto the same noisy trace — a
/// sanity check that the equality above is not vacuous.
#[test]
fn different_seeds_yield_different_traces() {
    assert_ne!(noisy_diurnal_digest(1), noisy_diurnal_digest(2));
}

/// The noisy rates themselves are pinned, not just their
/// replayability: a noisy diurnal day at two seeds and a noisy constant
/// rate with many significant digits.
#[test]
fn noisy_rates_match_golden_digests() {
    let mut constant = NoisyRate::new(Box::new(ConstantRate::new(333.333)), 0.5, SimRng::seed(99));
    let actual = [
        noisy_diurnal_digest(1),
        noisy_diurnal_digest(2),
        sampled_rates_digest(&mut constant, SimDuration::from_secs(10), 50),
    ];
    assert_eq!(
        actual,
        [
            0xa952_a85b_776f_9178,
            0x284f_53d7_a503_ca1a,
            0x390f_21c4_237d_01ad
        ]
    );
}

/// Same seed ⇒ identical click-record stream (every field, every
/// record) across two independently constructed generators driven by a
/// bursty MMPP arrival process.
#[test]
fn same_seed_yields_identical_click_stream() {
    forall(8, |rng| {
        let seed = rng.next_u64();
        let run = || {
            let mut process = MmppRate::new(
                50.0,
                400.0,
                SimDuration::from_secs(20),
                SimDuration::from_secs(10),
                SimRng::seed(seed ^ 0x9e37_79b9),
            );
            let mut generator =
                ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed));
            let mut records = Vec::new();
            for step in 0..120u64 {
                let t = SimTime::ZERO + SimDuration::from_secs(step);
                records.extend(generator.tick(&mut process, t, 1.0));
            }
            (records, generator.total_generated())
        };
        let ((records_a, total_a), (records_b, total_b)) = (run(), run());
        assert_eq!(total_a, total_b, "record counts diverged for seed {seed}");
        assert_eq!(
            records_a, records_b,
            "record streams diverged for seed {seed}"
        );
    });
}

/// 64-bit FNV-1a, fed little-endian integers.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drive a generator through two 1-s ticks at each of a spread of rates
/// (idle, a trickle, and up to the busy 15,000 rec/s) and digest every
/// field of every record, then the lifetime count.
fn record_stream_digest(config: &ClickStreamConfig, seed: u64) -> (u64, u64) {
    let mut generator = ClickStreamGenerator::new(config.clone(), SimRng::seed(seed));
    let mut digest = Fnv1a::new();
    let mut step = 0u64;
    for rate in [0.0, 3.0, 50.0, 1_500.0, 15_000.0] {
        for _ in 0..2 {
            let t = SimTime::from_secs(step);
            step += 1;
            for r in generator.tick_at_rate(rate, t, 1.0) {
                digest.write_u64(r.user_id);
                digest.write_u64(u64::from(r.payload_bytes));
            }
        }
    }
    digest.write_u64(generator.total_generated());
    (digest.0, generator.total_generated())
}

/// The record stream itself is pinned, not just its replayability. The
/// digests were taken over the two kept fields from the generator that
/// still built `page`, `kind` and `session_id` records: a record reduced
/// to what ingestion reads must come from the same draws, so the
/// deleted draws' RNG advances are pinned too.
#[test]
fn record_streams_match_golden_digests() {
    let configs = [
        ("default", ClickStreamConfig::default()),
        (
            "hot users 0.8/4",
            ClickStreamConfig {
                hot_user_fraction: 0.8,
                hot_user_count: 4,
                ..Default::default()
            },
        ),
        (
            "one-view sessions",
            ClickStreamConfig {
                mean_session_length: 1.0,
                ..Default::default()
            },
        ),
        (
            "sessions of 40",
            ClickStreamConfig {
                mean_session_length: 40.0,
                ..Default::default()
            },
        ),
    ];
    let golden: [(u64, u64, u64); 8] = [
        (1, 0xd7af_49b5_6742_31cd, 33_118),
        (0x5eed_0002, 0xc5c8_df6f_17ee_60b4, 32_953),
        (1, 0xc40c_1ac1_f415_7839, 33_048),
        (0x5eed_0002, 0xd104_6e89_dc37_f0e4, 32_889),
        (1, 0x9ff0_2882_fe04_5363, 32_927),
        (0x5eed_0002, 0x9345_1060_6b87_37f5, 32_987),
        (1, 0xf7b8_db2f_a627_0b02, 33_210),
        (0x5eed_0002, 0xd66e_ea9a_a693_0f5c, 33_341),
    ];
    let actual: Vec<(&str, u64, u64, u64)> = golden
        .iter()
        .enumerate()
        .map(|(i, &(seed, _, _))| {
            let (name, config) = &configs[i / 2];
            let (digest, total) = record_stream_digest(config, seed);
            (*name, seed, digest, total)
        })
        .collect();
    let expected: Vec<(&str, u64, u64, u64)> = golden
        .iter()
        .enumerate()
        .map(|(i, &(seed, digest, total))| (configs[i / 2].0, seed, digest, total))
        .collect();
    assert_eq!(actual, expected);
}
