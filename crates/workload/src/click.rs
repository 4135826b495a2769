//! Click-stream record generation.
//!
//! Turns a [`crate::arrival::ArrivalProcess`] intensity
//! into concrete click records: each simulated user browses a site in
//! sessions (page-view counts geometrically distributed), and each record
//! carries the user id as its partition key — which is what spreads (or
//! skews) load across Kinesis shards downstream.
//!
//! A record holds only what ingestion reads: the partition key and the
//! payload size. The page a view lands on, the event kind and the session
//! id reached no reader, so they are not materialized; their draws still
//! advance the RNG, so every record stream is the one the full record
//! model gave.

use flower_sim::{SimRng, SimTime};

use crate::arrival::ArrivalProcess;

/// One click-stream record — the unit the ingestion layer receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClickRecord {
    /// The user who generated it; doubles as the partition key.
    pub user_id: u64,
    /// Serialized payload size in bytes.
    pub payload_bytes: u32,
}

impl ClickRecord {
    /// The record's partition key — Kinesis hashes this to pick a shard.
    pub fn partition_key(&self) -> u64 {
        self.user_id
    }
}

/// Configuration of the click-stream generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickStreamConfig {
    /// Size of the simulated user population.
    pub n_users: u64,
    /// Mean page-views per session (geometric distribution parameter is
    /// derived as `1 / mean`).
    pub mean_session_length: f64,
    /// Mean payload size in bytes.
    pub mean_payload_bytes: f64,
    /// Payload size standard deviation in bytes.
    pub payload_bytes_std: f64,
    /// Fraction of sessions belonging to a small set of "heavy hitter"
    /// users (0 = uniform population). Skewed users concentrate on few
    /// partition keys, creating the hot-shard pathology the enhanced
    /// shard-level monitoring sensor exists for.
    pub hot_user_fraction: f64,
    /// Size of the heavy-hitter set when `hot_user_fraction > 0`.
    pub hot_user_count: u64,
}

impl Default for ClickStreamConfig {
    fn default() -> Self {
        ClickStreamConfig {
            n_users: 50_000,
            mean_session_length: 8.0,
            mean_payload_bytes: 600.0,
            payload_bytes_std: 150.0,
            hot_user_fraction: 0.0,
            hot_user_count: 8,
        }
    }
}

/// Stateful click-stream generator.
///
/// Call [`ClickStreamGenerator::tick`] once per simulation step; it
/// Poisson-samples the record count for the step from the arrival
/// process's intensity and materializes that many records.
pub struct ClickStreamGenerator {
    config: ClickStreamConfig,
    rng: SimRng,
    /// The sessions currently emitting records, in the order they
    /// started. The spawn rule caps it at 256; a session leaves the
    /// moment its last view is drawn, so none is ever exhausted here.
    active: Vec<UserSession>,
    total_generated: u64,
}

#[derive(Debug)]
struct UserSession {
    user_id: u64,
    remaining: u64,
}

impl ClickStreamGenerator {
    /// Build a generator with the given config and RNG.
    pub fn new(config: ClickStreamConfig, rng: SimRng) -> Self {
        assert!(config.n_users > 0, "need at least one user");
        assert!(
            config.mean_session_length >= 1.0,
            "sessions must average >= 1 view"
        );
        ClickStreamGenerator {
            config,
            rng,
            active: Vec::new(),
            total_generated: 0,
        }
    }

    /// Total records generated over the generator's lifetime.
    pub fn total_generated(&self) -> u64 {
        self.total_generated
    }

    /// Generate the records for one step of length `dt_secs` at time `t`,
    /// with instantaneous intensity taken from `process`.
    pub fn tick(
        &mut self,
        process: &mut dyn ArrivalProcess,
        t: SimTime,
        dt_secs: f64,
    ) -> Vec<ClickRecord> {
        let intensity = process.rate(t);
        self.tick_at_rate(intensity, t, dt_secs)
    }

    /// Like [`ClickStreamGenerator::tick`] but with the intensity already
    /// sampled by the caller — avoids double-querying stateful or noisy
    /// arrival processes when the caller also records the rate. Records
    /// carry no timestamp, so the step's start `_t` only keeps the
    /// argument list of [`ClickStreamGenerator::tick`].
    pub fn tick_at_rate(&mut self, intensity: f64, _t: SimTime, dt_secs: f64) -> Vec<ClickRecord> {
        assert!(dt_secs > 0.0, "step length must be positive");
        debug_assert!(intensity >= 0.0 && intensity.is_finite());
        let count = self.rng.poisson(intensity * dt_secs);
        self.generate(count)
    }

    /// Generate exactly `count` records.
    pub fn generate(&mut self, count: u64) -> Vec<ClickRecord> {
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let user_id = self.next_session_user();
            // A page and an event kind, one `next_u64` each in the full
            // record model: no field keeps them, but both still advance
            // the stream so every later draw keeps its value.
            self.rng.next_u64();
            self.rng.next_u64();
            let payload_bytes = self
                .rng
                .normal(
                    self.config.mean_payload_bytes,
                    self.config.payload_bytes_std,
                )
                .max(32.0) as u32;
            out.push(ClickRecord {
                user_id,
                payload_bytes,
            });
        }
        self.total_generated += count;
        out
    }

    /// Pick (or create) the session that emits the next record, spend
    /// one of its views, and return its user.
    fn next_session_user(&mut self) -> u64 {
        // Keep a modest pool of concurrently active sessions; new ones
        // join when the pool is small or by chance, modelling user churn.
        let spawn = self.active.is_empty() || (self.active.len() < 256 && self.rng.chance(0.15));
        if spawn {
            let user_id = if self.config.hot_user_fraction > 0.0
                && self.rng.chance(self.config.hot_user_fraction)
            {
                self.rng.below(self.config.hot_user_count.max(1))
            } else {
                self.rng.below(self.config.n_users)
            };
            // The session id's draw, kept for the same reason.
            self.rng.next_u64();
            let p = 1.0 / self.config.mean_session_length;
            let remaining = self.rng.geometric(p);
            self.active.push(UserSession { user_id, remaining });
        }
        let idx = self.rng.below(self.active.len() as u64) as usize;
        let session = &mut self.active[idx];
        session.remaining -= 1;
        let user_id = session.user_id;
        // Only the picked session is ever spent and none joins empty
        // (`geometric` is at least 1), so this is the one session that can
        // be exhausted; removing it in place keeps the pool's order.
        if session.remaining == 0 {
            self.active.remove(idx);
        }
        user_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ConstantRate;

    fn generator(seed: u64) -> ClickStreamGenerator {
        ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed))
    }

    #[test]
    fn tick_count_tracks_intensity() {
        let mut generator = generator(1);
        let mut process = ConstantRate::new(1_000.0);
        let mut total = 0usize;
        let steps = 200;
        for s in 0..steps {
            total += generator
                .tick(&mut process, SimTime::from_secs(s), 1.0)
                .len();
        }
        let mean = total as f64 / steps as f64;
        assert!((mean - 1_000.0).abs() < 30.0, "mean={mean}");
        assert_eq!(generator.total_generated(), total as u64);
    }

    #[test]
    fn zero_intensity_generates_nothing() {
        let mut generator = generator(2);
        let mut process = ConstantRate::new(0.0);
        assert!(generator.tick(&mut process, SimTime::ZERO, 1.0).is_empty());
    }

    #[test]
    fn records_are_well_formed() {
        let mut generator = generator(3);
        let records = generator.generate(5_000);
        assert_eq!(records.len(), 5_000);
        for r in &records {
            assert!(r.user_id < ClickStreamConfig::default().n_users);
            assert!(r.payload_bytes >= 32);
            assert_eq!(r.partition_key(), r.user_id);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut g1 = generator(9);
        let mut g2 = generator(9);
        assert_eq!(g1.generate(100), g2.generate(100));
    }

    #[test]
    fn sessions_produce_repeat_users() {
        let mut generator = generator(10);
        let records = generator.generate(2_000);
        let mut user_counts = std::collections::BTreeMap::new();
        for r in &records {
            *user_counts.entry(r.user_id).or_insert(0u32) += 1;
        }
        // With session reuse there must be users with multiple records.
        assert!(user_counts.values().any(|&c| c > 3));
    }

    #[test]
    fn payload_sizes_cluster_around_mean() {
        let mut generator = generator(11);
        let records = generator.generate(20_000);
        let mean: f64 =
            records.iter().map(|r| r.payload_bytes as f64).sum::<f64>() / records.len() as f64;
        assert!((mean - 600.0).abs() < 15.0, "mean payload {mean}");
    }

    #[test]
    fn hot_users_concentrate_partition_keys() {
        let mut skewed = ClickStreamGenerator::new(
            ClickStreamConfig {
                hot_user_fraction: 0.8,
                hot_user_count: 4,
                ..Default::default()
            },
            SimRng::seed(21),
        );
        let records = skewed.generate(20_000);
        let hot = records.iter().filter(|r| r.user_id < 4).count();
        let share = hot as f64 / records.len() as f64;
        assert!(share > 0.6, "hot-user share {share}");
        // The uniform default keeps the same keys rare.
        let mut uniform = ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(21));
        let records = uniform.generate(20_000);
        let hot = records.iter().filter(|r| r.user_id < 4).count();
        assert!((hot as f64 / records.len() as f64) < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        ClickStreamGenerator::new(
            ClickStreamConfig {
                n_users: 0,
                ..Default::default()
            },
            SimRng::seed(0),
        );
    }
}
