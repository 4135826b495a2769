//! Click-stream record generation.
//!
//! Turns a [`crate::arrival::ArrivalProcess`] intensity
//! into concrete click records: each simulated user browses a site in
//! sessions (page-view counts geometrically distributed), page popularity
//! follows a Zipf-like law, and each record carries the user id as its
//! partition key — which is what spreads (or skews) load across Kinesis
//! shards downstream.

use flower_sim::{SimRng, SimTime, WeightTable};

use crate::arrival::ArrivalProcess;

/// What the user did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A page was rendered.
    PageView,
    /// An on-page element was clicked.
    Click,
    /// An item was added to the cart.
    AddToCart,
    /// A purchase was completed.
    Purchase,
}

impl EventKind {
    const ALL: [EventKind; 4] = [
        EventKind::PageView,
        EventKind::Click,
        EventKind::AddToCart,
        EventKind::Purchase,
    ];
    /// Default relative frequencies of the event kinds (page views
    /// dominate, purchases are rare).
    const WEIGHTS: [f64; 4] = [0.62, 0.30, 0.06, 0.02];
}

/// One click-stream record — the unit the ingestion layer receives.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickRecord {
    /// Virtual time the event occurred.
    pub at: SimTime,
    /// The user who generated it; doubles as the partition key.
    pub user_id: u64,
    /// The user's current session number.
    pub session_id: u64,
    /// Page index in the site's page catalogue.
    pub page: u32,
    /// Event kind.
    pub kind: EventKind,
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
    /// Number of distinct pages on the site.
    pub n_pages: u32,
    /// Zipf exponent for page popularity (0 = uniform; ~0.8–1.2 typical).
    pub zipf_exponent: f64,
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
            n_pages: 200,
            zipf_exponent: 1.0,
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
    /// Zipf popularity weights over pages.
    pages: WeightTable,
    /// Relative frequencies of [`EventKind::ALL`].
    kinds: WeightTable,
    /// The sessions currently emitting records, in the order they
    /// started. The spawn rule caps it at 256; a session leaves the
    /// moment its last view is drawn, so none is ever exhausted here.
    active: Vec<UserSession>,
    total_generated: u64,
}

#[derive(Debug)]
struct UserSession {
    user_id: u64,
    session_id: u64,
    remaining: u64,
}

impl ClickStreamGenerator {
    /// Build a generator with the given config and RNG.
    pub fn new(config: ClickStreamConfig, rng: SimRng) -> Self {
        assert!(config.n_users > 0, "need at least one user");
        assert!(config.n_pages > 0, "need at least one page");
        assert!(
            config.mean_session_length >= 1.0,
            "sessions must average >= 1 view"
        );
        let page_weights: Vec<f64> = (1..=config.n_pages)
            .map(|r| 1.0 / (r as f64).powf(config.zipf_exponent))
            .collect();
        ClickStreamGenerator {
            config,
            rng,
            pages: WeightTable::new(&page_weights),
            kinds: WeightTable::new(&EventKind::WEIGHTS),
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
    /// arrival processes when the caller also records the rate.
    pub fn tick_at_rate(&mut self, intensity: f64, t: SimTime, dt_secs: f64) -> Vec<ClickRecord> {
        assert!(dt_secs > 0.0, "step length must be positive");
        debug_assert!(intensity >= 0.0 && intensity.is_finite());
        let count = self.rng.poisson(intensity * dt_secs);
        self.generate(t, count)
    }

    /// Generate exactly `count` records stamped at `t`.
    pub fn generate(&mut self, t: SimTime, count: u64) -> Vec<ClickRecord> {
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (user_id, session_id) = self.next_session_slot();
            let page = self.rng.weighted_index(&self.pages) as u32;
            let kind = EventKind::ALL[self.rng.weighted_index(&self.kinds)];
            let payload_bytes = self
                .rng
                .normal(
                    self.config.mean_payload_bytes,
                    self.config.payload_bytes_std,
                )
                .max(32.0) as u32;
            out.push(ClickRecord {
                at: t,
                user_id,
                session_id,
                page,
                kind,
                payload_bytes,
            });
        }
        self.total_generated += count;
        out
    }

    /// Pick (or create) the session that emits the next record, spend
    /// one of its views, and return its `(user, session)` ids.
    fn next_session_slot(&mut self) -> (u64, u64) {
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
            let session_id = self.rng.next_u64() >> 16;
            let p = 1.0 / self.config.mean_session_length;
            let remaining = self.rng.geometric(p);
            self.active.push(UserSession {
                user_id,
                session_id,
                remaining,
            });
        }
        let idx = self.rng.below(self.active.len() as u64) as usize;
        let session = &mut self.active[idx];
        session.remaining -= 1;
        let ids = (session.user_id, session.session_id);
        // Only the picked session is ever spent and none joins empty
        // (`geometric` is at least 1), so this is the one session that can
        // be exhausted; removing it in place keeps the pool's order.
        if session.remaining == 0 {
            self.active.remove(idx);
        }
        ids
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
        let records = generator.generate(SimTime::from_secs(42), 5_000);
        assert_eq!(records.len(), 5_000);
        for r in &records {
            assert_eq!(r.at, SimTime::from_secs(42));
            assert!(r.user_id < ClickStreamConfig::default().n_users);
            assert!(r.page < ClickStreamConfig::default().n_pages);
            assert!(r.payload_bytes >= 32);
            assert_eq!(r.partition_key(), r.user_id);
        }
    }

    #[test]
    fn page_popularity_is_skewed() {
        let mut generator = generator(4);
        let records = generator.generate(SimTime::ZERO, 50_000);
        let mut counts = vec![0u32; ClickStreamConfig::default().n_pages as usize];
        for r in &records {
            counts[r.page as usize] += 1;
        }
        // Zipf(1.0): page 0 should be visited far more than page 100.
        assert!(
            counts[0] > counts[100] * 5,
            "p0={} p100={}",
            counts[0],
            counts[100]
        );
    }

    #[test]
    fn event_mix_matches_weights() {
        let mut generator = generator(5);
        let records = generator.generate(SimTime::ZERO, 50_000);
        let views = records
            .iter()
            .filter(|r| r.kind == EventKind::PageView)
            .count();
        let purchases = records
            .iter()
            .filter(|r| r.kind == EventKind::Purchase)
            .count();
        let view_share = views as f64 / records.len() as f64;
        let purchase_share = purchases as f64 / records.len() as f64;
        assert!((view_share - 0.62).abs() < 0.02, "views={view_share}");
        assert!(
            (purchase_share - 0.02).abs() < 0.01,
            "purchases={purchase_share}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut g1 = generator(9);
        let mut g2 = generator(9);
        assert_eq!(
            g1.generate(SimTime::ZERO, 100),
            g2.generate(SimTime::ZERO, 100)
        );
    }

    #[test]
    fn sessions_produce_repeat_users() {
        let mut generator = generator(10);
        let records = generator.generate(SimTime::ZERO, 2_000);
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
        let records = generator.generate(SimTime::ZERO, 20_000);
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
        let records = skewed.generate(SimTime::ZERO, 20_000);
        let hot = records.iter().filter(|r| r.user_id < 4).count();
        let share = hot as f64 / records.len() as f64;
        assert!(share > 0.6, "hot-user share {share}");
        // The uniform default keeps the same keys rare.
        let mut uniform = ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(21));
        let records = uniform.generate(SimTime::ZERO, 20_000);
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
