//! A Kinesis-like stream simulator (ingestion layer).
//!
//! Model scope — everything a shard-count controller can observe or
//! influence:
//!
//! * per-shard write limits of **1,000 records/s and 1 MiB/s** (the paper
//!   quotes the records limit verbatim in §3.1);
//! * records are routed to shards by hashing their partition key, so a
//!   skewed key distribution throttles hot shards while the stream as a
//!   whole is under-utilized — exactly the pathology coarse "average
//!   utilization" autoscaling rules miss;
//! * resharding (split/merge) is not instantaneous: a target shard count
//!   takes effect only after a configurable latency, during which further
//!   reshard requests are rejected, as in the real service where a stream
//!   in `UPDATING` state cannot be resharded again.

use flower_sim::{SimDuration, SimTime};
use flower_workload::ClickRecord;

use crate::alarms::{Alarm, Comparison};
use crate::engine::{metric_names, EngineError, TickReport};
use crate::layer::{LayerId, LayerService, SensorProbe, INGESTION};
use crate::metrics::{MetricId, Statistic};

/// Static configuration of a simulated stream.
#[derive(Debug, Clone, PartialEq)]
pub struct KinesisConfig {
    /// Stream name (metric dimension).
    pub name: String,
    /// Initial number of shards.
    pub initial_shards: u32,
    /// Per-shard record rate limit (records/second).
    pub records_per_shard_sec: f64,
    /// Per-shard byte rate limit (bytes/second).
    pub bytes_per_shard_sec: f64,
    /// Time a reshard operation takes to complete.
    pub reshard_latency: SimDuration,
    /// Upper bound on shard count (account limit).
    pub max_shards: u32,
}

impl Default for KinesisConfig {
    fn default() -> Self {
        KinesisConfig {
            name: "clickstream".to_owned(),
            initial_shards: 2,
            records_per_shard_sec: 1_000.0,
            bytes_per_shard_sec: 1024.0 * 1024.0,
            reshard_latency: SimDuration::from_secs(30),
            max_shards: 500,
        }
    }
}

/// Result of one ingestion step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestOutcome {
    /// Records accepted into the stream.
    pub accepted: u64,
    /// Records rejected with `ProvisionedThroughputExceeded`.
    pub throttled: u64,
    /// Bytes accepted.
    pub accepted_bytes: u64,
    /// Stream-level utilization in `[0, ∞)`: offered record rate over
    /// aggregate capacity (can exceed 1 under overload).
    pub utilization: f64,
    /// Utilization of the *hottest* shard this step. Under a skewed
    /// partition-key distribution this diverges from the stream-level
    /// average — the signal an "enhanced shard-level monitoring" sensor
    /// would alert on while the coarse average looks healthy.
    pub max_shard_utilization: f64,
}

/// Errors from control-plane operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KinesisError {
    /// A reshard is already in flight.
    ResourceInUse,
    /// Target shard count out of `[1, max_shards]`.
    InvalidShardCount {
        /// The rejected target.
        requested: u32,
        /// The account limit.
        max: u32,
    },
}

impl std::fmt::Display for KinesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KinesisError::ResourceInUse => write!(f, "stream is UPDATING; reshard in progress"),
            KinesisError::InvalidShardCount { requested, max } => {
                write!(f, "invalid shard count {requested} (allowed 1..={max})")
            }
        }
    }
}

impl std::error::Error for KinesisError {}

/// The simulated stream.
///
/// ```
/// use flower_cloud::{KinesisConfig, KinesisStream};
/// use flower_sim::{SimDuration, SimRng, SimTime};
/// use flower_workload::{ClickStreamConfig, ClickStreamGenerator};
///
/// let mut stream = KinesisStream::new(KinesisConfig::default()); // 2 shards
/// let mut generator =
///     ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(1));
/// let batch = generator.generate(SimTime::ZERO, 3_000);
/// let out = stream.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
/// // Two shards accept at most 2,000 records/s; the rest throttle.
/// assert!(out.accepted <= 2_000);
/// assert_eq!(out.accepted + out.throttled, 3_000);
/// ```
#[derive(Debug, Clone)]
pub struct KinesisStream {
    config: KinesisConfig,
    shards: u32,
    pending_reshard: Option<(u32, SimTime)>,
    total_accepted: u64,
    total_throttled: u64,
    reshard_count: u64,
}

impl KinesisStream {
    /// Create a stream per `config`.
    pub fn new(config: KinesisConfig) -> KinesisStream {
        assert!(config.initial_shards >= 1, "need at least one shard");
        assert!(config.initial_shards <= config.max_shards);
        assert!(config.records_per_shard_sec > 0.0 && config.bytes_per_shard_sec > 0.0);
        KinesisStream {
            shards: config.initial_shards,
            config,
            pending_reshard: None,
            total_accepted: 0,
            total_throttled: 0,
            reshard_count: 0,
        }
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The *hottest* shard's utilization (window maximum, as %), from
    /// enhanced shard-level monitoring. Under skewed partition keys this
    /// probe sees saturation the stream-level average of
    /// [`LayerService::utilization_sensor`] hides.
    pub fn hot_shard_sensor(&self) -> SensorProbe {
        use metric_names::*;
        SensorProbe {
            metric: MetricId::new(NS_KINESIS, MAX_SHARD_UTILIZATION, self.name()),
            statistic: Statistic::Maximum,
            scale: 100.0,
        }
    }

    /// Currently open shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The reshard target, when one is in flight.
    pub fn pending_reshard(&self) -> Option<(u32, SimTime)> {
        self.pending_reshard
    }

    /// Aggregate record capacity (records/second).
    pub fn capacity_records_per_sec(&self) -> f64 {
        self.shards as f64 * self.config.records_per_shard_sec
    }

    /// Lifetime counters: `(accepted, throttled, reshards)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.total_accepted,
            self.total_throttled,
            self.reshard_count,
        )
    }

    /// The shard count the stream is converging to (pending target when a
    /// reshard is in flight, else the current count).
    pub fn target_shards(&self) -> u32 {
        self.pending_reshard.map(|(t, _)| t).unwrap_or(self.shards)
    }

    /// Request a reshard to `target` shards at time `now`; takes effect
    /// after `reshard_latency`. Requesting the current count is a no-op.
    pub fn update_shard_count(&mut self, target: u32, now: SimTime) -> Result<(), KinesisError> {
        self.settle_reshard(now);
        if target == self.shards && self.pending_reshard.is_none() {
            return Ok(());
        }
        if self.pending_reshard.is_some() {
            return Err(KinesisError::ResourceInUse);
        }
        if target < 1 || target > self.config.max_shards {
            return Err(KinesisError::InvalidShardCount {
                requested: target,
                max: self.config.max_shards,
            });
        }
        self.pending_reshard = Some((target, now + self.config.reshard_latency));
        Ok(())
    }

    /// Complete a due reshard; call at the start of every tick.
    fn settle_reshard(&mut self, now: SimTime) {
        if let Some((target, ready_at)) = self.pending_reshard {
            if now >= ready_at {
                self.shards = target;
                self.pending_reshard = None;
                self.reshard_count += 1;
            }
        }
    }

    /// Ingest a batch of records spanning a step of `dt`.
    ///
    /// Records are routed to shards by partition-key hash; each shard
    /// enforces its own record and byte limits, so skew throttles early.
    pub fn ingest(
        &mut self,
        records: &[ClickRecord],
        now: SimTime,
        dt: SimDuration,
    ) -> IngestOutcome {
        self.settle_reshard(now);
        let dt_secs = dt.as_secs_f64();
        assert!(dt_secs > 0.0, "ingest step must have positive length");
        let n_shards = self.shards as usize;
        let record_cap = (self.config.records_per_shard_sec * dt_secs).floor() as u64;
        let byte_cap = (self.config.bytes_per_shard_sec * dt_secs).floor() as u64;

        let mut shard_records = vec![0u64; n_shards];
        let mut shard_bytes = vec![0u64; n_shards];
        let mut accepted = 0u64;
        let mut throttled = 0u64;
        let mut accepted_bytes = 0u64;

        for record in records {
            // The same multiplicative hash Kinesis-style key routing
            // reduces to for our u64 keys.
            let shard = (record.partition_key().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
                % n_shards;
            let bytes = record.payload_bytes as u64;
            if shard_records[shard] < record_cap && shard_bytes[shard] + bytes <= byte_cap {
                shard_records[shard] += 1;
                shard_bytes[shard] += bytes;
                accepted += 1;
                accepted_bytes += bytes;
            } else {
                throttled += 1;
            }
        }

        self.total_accepted += accepted;
        self.total_throttled += throttled;
        let offered_rate = records.len() as f64 / dt_secs;
        let utilization = offered_rate / self.capacity_records_per_sec();
        // Per-shard offered load = accepted + throttled attributed to the
        // shard; we track accepted per shard, so approximate the hottest
        // shard's utilization from accepted counts plus its share of the
        // throttles (throttles only occur on saturated shards).
        let max_shard_offered = shard_records
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(if throttled > 0 { record_cap } else { 0 });
        let max_shard_utilization = if record_cap == 0 {
            0.0
        } else {
            max_shard_offered as f64 / record_cap as f64
                + if throttled > 0 {
                    throttled as f64 / record_cap as f64
                } else {
                    0.0
                }
        };
        IngestOutcome {
            accepted,
            throttled,
            accepted_bytes,
            utilization,
            max_shard_utilization,
        }
    }
}

impl LayerService for KinesisStream {
    fn id(&self) -> LayerId {
        INGESTION
    }

    fn actuator_units(&self) -> f64 {
        f64::from(self.shards())
    }

    fn target_units(&self) -> f64 {
        f64::from(self.target_shards())
    }

    fn max_units(&self) -> f64 {
        f64::from(self.config.max_shards)
    }

    fn quantize(&self, target: f64) -> f64 {
        f64::from(target as u32)
    }

    fn actuate(&mut self, target: f64, now: SimTime) -> Result<(), EngineError> {
        self.update_shard_count(target as u32, now)
            .map_err(EngineError::Kinesis)
    }

    fn utilization_sensor(&self) -> SensorProbe {
        SensorProbe {
            metric: MetricId::new(
                metric_names::NS_KINESIS,
                metric_names::SHARD_UTILIZATION,
                self.name(),
            ),
            statistic: Statistic::Average,
            scale: 100.0,
        }
    }

    fn measurement(&self, tick: &TickReport) -> Option<f64> {
        Some(tick.ingest.utilization * 100.0)
    }

    fn headline_metrics(&self) -> Vec<MetricId> {
        use metric_names::*;
        [
            INCOMING_RECORDS,
            WRITE_THROTTLED,
            SHARD_UTILIZATION,
            OPEN_SHARDS,
        ]
        .into_iter()
        .map(|m| MetricId::new(NS_KINESIS, m, self.name()))
        .collect()
    }

    fn default_alarm(&self) -> Option<Alarm> {
        Some(Alarm::new(
            "ingestion-throttling",
            MetricId::new(
                metric_names::NS_KINESIS,
                metric_names::WRITE_THROTTLED,
                self.name(),
            ),
            Statistic::Sum,
            SimDuration::from_mins(1),
            Comparison::GreaterThan,
            0.0,
            2,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_sim::SimRng;
    use flower_workload::{ClickStreamConfig, ClickStreamGenerator};

    fn records(n: u64, seed: u64) -> Vec<ClickRecord> {
        let mut generator =
            ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed));
        generator.generate(SimTime::ZERO, n)
    }

    fn stream(shards: u32) -> KinesisStream {
        KinesisStream::new(KinesisConfig {
            initial_shards: shards,
            ..Default::default()
        })
    }

    #[test]
    fn under_capacity_accepts_everything() {
        let mut s = stream(2);
        let batch = records(1_500, 1); // capacity 2,000/s
        let out = s.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(out.accepted + out.throttled, 1_500);
        // Mild skew may throttle a handful; the bulk must land.
        assert!(out.accepted > 1_400, "accepted={}", out.accepted);
        assert!(out.utilization > 0.7 && out.utilization < 0.8);
    }

    #[test]
    fn over_capacity_throttles_excess() {
        let mut s = stream(2);
        let batch = records(5_000, 2); // capacity 2,000/s
        let out = s.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
        assert!(out.throttled >= 3_000, "throttled={}", out.throttled);
        assert!(out.accepted <= 2_000);
        assert!(out.utilization > 2.0);
        let (acc, thr, _) = s.counters();
        assert_eq!(acc, out.accepted);
        assert_eq!(thr, out.throttled);
    }

    #[test]
    fn more_shards_absorb_more() {
        let batch = records(5_000, 3);
        let mut small = stream(2);
        let mut large = stream(8);
        let out_small = small.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
        let out_large = large.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
        assert!(out_large.accepted > out_small.accepted * 2);
        assert!(out_large.throttled < out_small.throttled);
    }

    #[test]
    fn byte_limit_binds_for_large_payloads() {
        // 2,000 records of ~600 B ≈ 1.2 MB > 1 MiB/s on one shard.
        let mut s = stream(1);
        let batch = records(2_000, 4);
        let out = s.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
        // Record cap alone would admit 1,000; byte cap must also hold.
        assert!(out.accepted_bytes <= 1024 * 1024);
        assert!(out.accepted <= 1_000);
    }

    #[test]
    fn reshard_takes_effect_after_latency() {
        let mut s = stream(2);
        s.update_shard_count(6, SimTime::ZERO).unwrap();
        assert_eq!(s.shards(), 2, "not yet effective");
        assert!(s.pending_reshard().is_some());
        // Tick before the latency elapses: still 2 shards.
        let batch = records(100, 5);
        s.ingest(&batch, SimTime::from_secs(10), SimDuration::from_secs(1));
        assert_eq!(s.shards(), 2);
        // After 30 s it settles.
        s.ingest(&batch, SimTime::from_secs(30), SimDuration::from_secs(1));
        assert_eq!(s.shards(), 6);
        assert!(s.pending_reshard().is_none());
        assert_eq!(s.counters().2, 1);
    }

    #[test]
    fn concurrent_reshard_rejected() {
        let mut s = stream(2);
        s.update_shard_count(4, SimTime::ZERO).unwrap();
        assert_eq!(
            s.update_shard_count(8, SimTime::from_secs(1)),
            Err(KinesisError::ResourceInUse)
        );
    }

    #[test]
    fn reshard_to_same_count_is_noop() {
        let mut s = stream(3);
        s.update_shard_count(3, SimTime::ZERO).unwrap();
        assert!(s.pending_reshard().is_none());
    }

    #[test]
    fn invalid_shard_counts_rejected() {
        let mut s = stream(2);
        assert!(matches!(
            s.update_shard_count(0, SimTime::ZERO),
            Err(KinesisError::InvalidShardCount { .. })
        ));
        assert!(matches!(
            s.update_shard_count(10_000, SimTime::ZERO),
            Err(KinesisError::InvalidShardCount { .. })
        ));
    }

    #[test]
    fn skewed_keys_throttle_despite_headroom() {
        // All records share one partition key → one hot shard.
        let mut batch = records(1_900, 6);
        for r in &mut batch {
            r.user_id = 7;
        }
        let mut s = stream(4); // aggregate capacity 4,000/s
        let out = s.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
        // Only the hot shard's 1,000 records/s can land.
        assert!(out.accepted <= 1_000);
        assert!(out.throttled >= 900);
        assert!(
            out.utilization < 0.5,
            "stream-level utilization looks healthy"
        );
    }

    #[test]
    fn hot_shard_utilization_diverges_from_average_under_skew() {
        let mut batch = records(1_900, 8);
        for r in &mut batch {
            r.user_id = 7; // one hot partition key
        }
        let mut s = stream(4);
        let out = s.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
        assert!(out.utilization < 0.5, "average looks healthy");
        assert!(
            out.max_shard_utilization > 1.5,
            "hot shard should read saturated: {}",
            out.max_shard_utilization
        );
    }

    #[test]
    fn uniform_keys_keep_shard_utilizations_close() {
        let batch = records(1_600, 9);
        let mut s = stream(4);
        let out = s.ingest(&batch, SimTime::ZERO, SimDuration::from_secs(1));
        // Uniform routing: hottest shard near the 0.4 average.
        assert!(out.max_shard_utilization < out.utilization * 2.0);
    }

    #[test]
    fn subsecond_ticks_scale_caps() {
        let mut s = stream(1);
        let batch = records(600, 7);
        let out = s.ingest(&batch, SimTime::ZERO, SimDuration::from_millis(500));
        // Cap is 500 records per half-second tick.
        assert!(out.accepted <= 500);
    }
}
