//! A DynamoDB-like table simulator (storage layer).
//!
//! Model scope — what a capacity-unit controller observes and actuates:
//!
//! * provisioned write/read capacity units (WCU = one ≤1 KiB write per
//!   second, RCU = one ≤4 KiB strongly-consistent read per second);
//! * the **burst-credit bucket**: up to 300 seconds of unused provisioned
//!   capacity accumulates and absorbs short spikes, exactly the
//!   documented DynamoDB behaviour — it is why naive threshold rules see
//!   no throttles until credit runs out, then a cliff;
//! * capacity increases apply after a short control-plane delay;
//!   **decreases are limited per day** (four in 2017), a real asymmetry a
//!   holistic controller must respect;
//! * throttled writes surface as `ThrottledRequests`.

use flower_sim::{SimDuration, SimTime};

use crate::alarms::{Alarm, Comparison};
use crate::engine::{metric_names, EngineError, TickReport};
use crate::layer::{LayerId, LayerService, SensorProbe, STORAGE};
use crate::metrics::{MetricId, Statistic};

/// Static configuration of a simulated table.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamoConfig {
    /// Table name (metric dimension).
    pub name: String,
    /// Initial provisioned write capacity units.
    pub initial_wcu: f64,
    /// Initial provisioned read capacity units.
    pub initial_rcu: f64,
    /// Bytes covered by one WCU.
    pub wcu_item_bytes: u32,
    /// Bytes covered by one RCU (strongly consistent read).
    pub rcu_item_bytes: u32,
    /// Seconds of unused capacity the burst bucket can hold.
    pub burst_seconds: f64,
    /// Control-plane delay for capacity changes.
    pub update_latency: SimDuration,
    /// Maximum capacity decreases per day.
    pub max_decreases_per_day: u32,
    /// Account limit on provisioned WCU.
    pub max_wcu: f64,
}

impl Default for DynamoConfig {
    fn default() -> Self {
        DynamoConfig {
            name: "click-aggregates".to_owned(),
            initial_wcu: 100.0,
            initial_rcu: 50.0,
            wcu_item_bytes: 1024,
            rcu_item_bytes: 4096,
            burst_seconds: 300.0,
            update_latency: SimDuration::from_secs(10),
            max_decreases_per_day: 4,
            max_wcu: 40_000.0,
        }
    }
}

/// Result of one write step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// Capacity units consumed (provisioned + burst).
    pub consumed_wcu: f64,
    /// Items written successfully.
    pub written: u64,
    /// Items throttled.
    pub throttled: u64,
    /// Consumed-over-provisioned utilization for the step.
    pub utilization: f64,
    /// Remaining burst credit (in capacity-unit-seconds).
    pub burst_credit: f64,
}

/// Result of one read step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// Capacity units consumed (provisioned + burst).
    pub consumed_rcu: f64,
    /// Items read successfully.
    pub read: u64,
    /// Items throttled.
    pub throttled: u64,
    /// Consumed-over-provisioned utilization for the step.
    pub utilization: f64,
    /// Remaining read burst credit (in capacity-unit-seconds).
    pub burst_credit: f64,
}

impl ReadOutcome {
    /// The all-zero outcome of a step with no read traffic.
    pub fn idle() -> ReadOutcome {
        ReadOutcome {
            consumed_rcu: 0.0,
            read: 0,
            throttled: 0,
            utilization: 0.0,
            burst_credit: 0.0,
        }
    }
}

/// Errors from control-plane operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamoError {
    /// Capacity target out of range.
    InvalidCapacity {
        /// The rejected target.
        requested: f64,
        /// The account limit.
        max: f64,
    },
    /// The daily capacity-decrease budget is spent.
    DecreaseLimitReached {
        /// Decreases already performed in the current day.
        used: u32,
        /// The daily limit.
        limit: u32,
    },
    /// A capacity update is already in flight.
    UpdateInProgress,
}

impl std::fmt::Display for DynamoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamoError::InvalidCapacity { requested, max } => {
                write!(f, "invalid capacity {requested} (allowed 1..={max})")
            }
            DynamoError::DecreaseLimitReached { used, limit } => {
                write!(f, "capacity decrease limit reached ({used}/{limit} today)")
            }
            DynamoError::UpdateInProgress => write!(f, "a capacity update is in progress"),
        }
    }
}

impl std::error::Error for DynamoError {}

/// The simulated table.
#[derive(Debug, Clone)]
pub struct DynamoTable {
    config: DynamoConfig,
    provisioned_wcu: f64,
    provisioned_rcu: f64,
    pending_update: Option<(f64, SimTime)>,
    pending_rcu_update: Option<(f64, SimTime)>,
    /// Burst credit in WCU-seconds.
    burst_credit: f64,
    /// Burst credit in RCU-seconds.
    burst_credit_rcu: f64,
    decreases_today: u32,
    day_start: SimTime,
    total_written: u64,
    total_throttled: u64,
    total_read: u64,
    total_read_throttled: u64,
}

impl DynamoTable {
    /// Create a table per `config`.
    pub fn new(config: DynamoConfig) -> DynamoTable {
        assert!(config.initial_wcu >= 1.0 && config.initial_wcu <= config.max_wcu);
        assert!(config.initial_rcu >= 1.0);
        assert!(config.burst_seconds >= 0.0);
        DynamoTable {
            provisioned_wcu: config.initial_wcu,
            provisioned_rcu: config.initial_rcu,
            burst_credit: 0.0,
            burst_credit_rcu: 0.0,
            config,
            pending_update: None,
            pending_rcu_update: None,
            decreases_today: 0,
            day_start: SimTime::ZERO,
            total_written: 0,
            total_throttled: 0,
            total_read: 0,
            total_read_throttled: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Average read utilization over the window, as % — the sensor of
    /// the read-capacity loop ([`crate::layer::STORAGE_READ`]).
    pub fn read_sensor(&self) -> SensorProbe {
        use metric_names::*;
        SensorProbe {
            metric: MetricId::new(NS_DYNAMO, READ_UTILIZATION, self.name()),
            statistic: Statistic::Average,
            scale: 100.0,
        }
    }

    /// Currently provisioned WCU.
    pub fn provisioned_wcu(&self) -> f64 {
        self.provisioned_wcu
    }

    /// Currently provisioned RCU.
    pub fn provisioned_rcu(&self) -> f64 {
        self.provisioned_rcu
    }

    /// Remaining burst credit in WCU-seconds.
    pub fn burst_credit(&self) -> f64 {
        self.burst_credit
    }

    /// Capacity decreases used in the current day.
    pub fn decreases_today(&self) -> u32 {
        self.decreases_today
    }

    /// Lifetime counters: `(written, throttled)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.total_written, self.total_throttled)
    }

    /// Lifetime read counters: `(read, throttled)`.
    pub fn read_counters(&self) -> (u64, u64) {
        (self.total_read, self.total_read_throttled)
    }

    /// Remaining read burst credit in RCU-seconds.
    pub fn read_burst_credit(&self) -> f64 {
        self.burst_credit_rcu
    }

    /// The RCU the table is converging to (pending target when an update
    /// is in flight, else the provisioned value).
    pub fn target_rcu(&self) -> f64 {
        self.pending_rcu_update
            .map(|(t, _)| t)
            .unwrap_or(self.provisioned_rcu)
    }

    /// Request a provisioned-RCU change at time `now`; applies after
    /// `update_latency`. Decreases draw on the same daily budget as
    /// write-capacity decreases (real `UpdateTable` counts one decrease
    /// per call regardless of which throughput moved).
    pub fn update_read_capacity(&mut self, target: f64, now: SimTime) -> Result<(), DynamoError> {
        self.roll_day(now);
        self.settle_rcu_update(now);
        let target = target.round();
        if (target - self.provisioned_rcu).abs() < 0.5 && self.pending_rcu_update.is_none() {
            return Ok(());
        }
        if self.pending_rcu_update.is_some() {
            return Err(DynamoError::UpdateInProgress);
        }
        if target < 1.0 || target > self.config.max_wcu {
            return Err(DynamoError::InvalidCapacity {
                requested: target,
                max: self.config.max_wcu,
            });
        }
        if target < self.provisioned_rcu {
            if self.decreases_today >= self.config.max_decreases_per_day {
                return Err(DynamoError::DecreaseLimitReached {
                    used: self.decreases_today,
                    limit: self.config.max_decreases_per_day,
                });
            }
            self.decreases_today += 1;
        }
        self.pending_rcu_update = Some((target, now + self.config.update_latency));
        Ok(())
    }

    /// Land a pending read-capacity change whose latency has passed.
    /// Reads do this themselves; the engine calls it on a tick with no
    /// read traffic, since a table resizes whether or not it is read.
    pub(crate) fn settle_rcu_update(&mut self, now: SimTime) {
        if let Some((target, ready)) = self.pending_rcu_update {
            if now >= ready {
                self.provisioned_rcu = target;
                self.burst_credit_rcu = self
                    .burst_credit_rcu
                    .min(self.config.burst_seconds * self.provisioned_rcu);
                self.pending_rcu_update = None;
            }
        }
    }

    /// Read `items` of `avg_item_bytes` each over a step of `dt`.
    /// Eventually-consistent reads cost half an RCU per 4-KiB unit, as
    /// in the real service.
    pub fn read(
        &mut self,
        items: u64,
        avg_item_bytes: u32,
        eventually_consistent: bool,
        now: SimTime,
        dt: SimDuration,
    ) -> ReadOutcome {
        self.roll_day(now);
        self.settle_rcu_update(now);
        let dt_secs = dt.as_secs_f64();
        assert!(dt_secs > 0.0, "read step must have positive length");

        let mut rcu_per_item = (avg_item_bytes as f64 / self.config.rcu_item_bytes as f64)
            .ceil()
            .max(1.0);
        if eventually_consistent {
            rcu_per_item *= 0.5;
        }
        let demand_rcu = items as f64 * rcu_per_item;
        let provisioned_step = self.provisioned_rcu * dt_secs;

        let (consumed, throttled_rcu) = if demand_rcu <= provisioned_step {
            self.burst_credit_rcu = (self.burst_credit_rcu + (provisioned_step - demand_rcu))
                .min(self.config.burst_seconds * self.provisioned_rcu);
            (demand_rcu, 0.0)
        } else {
            let deficit = demand_rcu - provisioned_step;
            let from_burst = deficit.min(self.burst_credit_rcu);
            self.burst_credit_rcu -= from_burst;
            (provisioned_step + from_burst, deficit - from_burst)
        };

        let throttled = (throttled_rcu / rcu_per_item).round() as u64;
        let read = items - throttled.min(items);
        self.total_read += read;
        self.total_read_throttled += throttled;

        ReadOutcome {
            consumed_rcu: consumed / dt_secs,
            read,
            throttled,
            utilization: demand_rcu / provisioned_step.max(f64::MIN_POSITIVE),
            burst_credit: self.burst_credit_rcu,
        }
    }

    /// The WCU the table is converging to (pending target when an update
    /// is in flight, else the provisioned value).
    pub fn target_wcu(&self) -> f64 {
        self.pending_update
            .map(|(t, _)| t)
            .unwrap_or(self.provisioned_wcu)
    }

    /// Request a provisioned-WCU change at time `now`; applies after
    /// `update_latency`. Decreases consume the daily budget.
    pub fn update_write_capacity(&mut self, target: f64, now: SimTime) -> Result<(), DynamoError> {
        self.roll_day(now);
        self.settle_update(now);
        let target = target.round();
        if (target - self.provisioned_wcu).abs() < 0.5 && self.pending_update.is_none() {
            return Ok(());
        }
        if self.pending_update.is_some() {
            return Err(DynamoError::UpdateInProgress);
        }
        if target < 1.0 || target > self.config.max_wcu {
            return Err(DynamoError::InvalidCapacity {
                requested: target,
                max: self.config.max_wcu,
            });
        }
        if target < self.provisioned_wcu {
            if self.decreases_today >= self.config.max_decreases_per_day {
                return Err(DynamoError::DecreaseLimitReached {
                    used: self.decreases_today,
                    limit: self.config.max_decreases_per_day,
                });
            }
            self.decreases_today += 1;
        }
        self.pending_update = Some((target, now + self.config.update_latency));
        Ok(())
    }

    fn roll_day(&mut self, now: SimTime) {
        while now - self.day_start >= SimDuration::from_hours(24) {
            // lint:allow(fixed-step-loop): day-boundary catch-up runs at most once per elapsed day, not per quiet second
            self.day_start += SimDuration::from_hours(24);
            self.decreases_today = 0;
        }
    }

    fn settle_update(&mut self, now: SimTime) {
        if let Some((target, ready)) = self.pending_update {
            if now >= ready {
                self.provisioned_wcu = target;
                // Burst credit never exceeds the bucket for the *new*
                // capacity.
                self.burst_credit = self
                    .burst_credit
                    .min(self.config.burst_seconds * self.provisioned_wcu);
                self.pending_update = None;
            }
        }
    }

    /// Write `items` of `avg_item_bytes` each over a step of `dt`.
    pub fn write(
        &mut self,
        items: u64,
        avg_item_bytes: u32,
        now: SimTime,
        dt: SimDuration,
    ) -> WriteOutcome {
        self.roll_day(now);
        self.settle_update(now);
        let dt_secs = dt.as_secs_f64();
        assert!(dt_secs > 0.0, "write step must have positive length");

        // WCUs per item: ceil(bytes / 1 KiB), minimum 1.
        let wcu_per_item = (avg_item_bytes as f64 / self.config.wcu_item_bytes as f64)
            .ceil()
            .max(1.0);
        let demand_wcu = items as f64 * wcu_per_item;
        let provisioned_step = self.provisioned_wcu * dt_secs;

        let (consumed, throttled_wcu) = if demand_wcu <= provisioned_step {
            // Unused capacity tops up the burst bucket.
            self.burst_credit = (self.burst_credit + (provisioned_step - demand_wcu))
                .min(self.config.burst_seconds * self.provisioned_wcu);
            (demand_wcu, 0.0)
        } else {
            let deficit = demand_wcu - provisioned_step;
            let from_burst = deficit.min(self.burst_credit);
            self.burst_credit -= from_burst;
            (provisioned_step + from_burst, deficit - from_burst)
        };

        let throttled = (throttled_wcu / wcu_per_item).round() as u64;
        let written = items - throttled.min(items);
        self.total_written += written;
        self.total_throttled += throttled;

        WriteOutcome {
            consumed_wcu: consumed / dt_secs,
            written,
            throttled,
            utilization: demand_wcu / provisioned_step.max(f64::MIN_POSITIVE),
            burst_credit: self.burst_credit,
        }
    }
}

impl LayerService for DynamoTable {
    fn id(&self) -> LayerId {
        STORAGE
    }

    fn actuator_units(&self) -> f64 {
        self.provisioned_wcu()
    }

    fn target_units(&self) -> f64 {
        self.target_wcu()
    }

    fn max_units(&self) -> f64 {
        self.config.max_wcu
    }

    fn actuate(&mut self, target: f64, now: SimTime) -> Result<(), EngineError> {
        self.update_write_capacity(target, now)
            .map_err(EngineError::Dynamo)
    }

    fn utilization_sensor(&self) -> SensorProbe {
        SensorProbe {
            metric: MetricId::new(
                metric_names::NS_DYNAMO,
                metric_names::WRITE_UTILIZATION,
                self.name(),
            ),
            statistic: Statistic::Average,
            scale: 100.0,
        }
    }

    fn measurement(&self, tick: &TickReport) -> Option<f64> {
        Some(tick.write.utilization * 100.0)
    }

    fn headline_metrics(&self) -> Vec<MetricId> {
        use metric_names::*;
        [
            CONSUMED_WCU,
            DYNAMO_THROTTLED,
            WRITE_UTILIZATION,
            PROVISIONED_WCU,
            CONSUMED_RCU,
            DYNAMO_READ_THROTTLED,
            READ_UTILIZATION,
            PROVISIONED_RCU,
        ]
        .into_iter()
        .map(|m| MetricId::new(NS_DYNAMO, m, self.name()))
        .collect()
    }

    fn default_alarm(&self) -> Option<Alarm> {
        Some(Alarm::new(
            "storage-throttling",
            MetricId::new(
                metric_names::NS_DYNAMO,
                metric_names::DYNAMO_THROTTLED,
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

    const DT: SimDuration = SimDuration::from_secs(1);

    fn table(wcu: f64) -> DynamoTable {
        DynamoTable::new(DynamoConfig {
            initial_wcu: wcu,
            ..Default::default()
        })
    }

    #[test]
    fn under_capacity_writes_all_and_banks_credit() {
        let mut t = table(100.0);
        let out = t.write(60, 512, SimTime::ZERO, DT);
        assert_eq!(out.written, 60);
        assert_eq!(out.throttled, 0);
        assert!((out.consumed_wcu - 60.0).abs() < 1e-9);
        assert!((out.utilization - 0.6).abs() < 1e-9);
        assert!(
            (out.burst_credit - 40.0).abs() < 1e-9,
            "unused 40 WCU banked"
        );
    }

    #[test]
    fn burst_credit_absorbs_spikes_then_cliff() {
        let mut t = table(100.0);
        // Bank credit for 100 seconds at half load → 5,000 credit... capped
        // at 300 × 100 = 30,000; here we accumulate 50/step.
        for s in 0..100 {
            t.write(50, 512, SimTime::from_secs(s), DT);
        }
        let credit = t.burst_credit();
        assert!((credit - 5_000.0).abs() < 1e-6, "credit={credit}");
        // Spike at 3× capacity: 200 WCU/s over provisioned; credit covers
        // 5,000/200 = 25 seconds.
        let mut first_throttle_at = None;
        for s in 100..200 {
            let out = t.write(300, 512, SimTime::from_secs(s), DT);
            if out.throttled > 0 && first_throttle_at.is_none() {
                first_throttle_at = Some(s - 100);
            }
        }
        let cliff = first_throttle_at.expect("spike must eventually throttle");
        assert!(
            (24..=26).contains(&cliff),
            "cliff at {cliff}s, expected ~25s"
        );
    }

    #[test]
    fn burst_bucket_is_capped() {
        let mut t = table(100.0);
        for s in 0..1_000 {
            t.write(0, 512, SimTime::from_secs(s), DT);
        }
        assert!((t.burst_credit() - 30_000.0).abs() < 1e-6);
    }

    #[test]
    fn large_items_cost_multiple_wcu() {
        let mut t = table(100.0);
        // 2.5 KiB items cost 3 WCU each → 40 items = 120 WCU > 100.
        let out = t.write(40, 2_560, SimTime::ZERO, DT);
        assert!(out.throttled > 0, "expected throttling, got {out:?}");
    }

    #[test]
    fn capacity_update_applies_after_latency() {
        let mut t = table(100.0);
        t.update_write_capacity(400.0, SimTime::ZERO).unwrap();
        assert_eq!(t.provisioned_wcu(), 100.0);
        t.write(0, 512, SimTime::from_secs(5), DT);
        assert_eq!(t.provisioned_wcu(), 100.0, "not yet at t=5s");
        t.write(0, 512, SimTime::from_secs(10), DT);
        assert_eq!(t.provisioned_wcu(), 400.0);
    }

    #[test]
    fn decrease_limit_enforced_and_resets_daily() {
        let mut t = table(1_000.0);
        let mut now = SimTime::ZERO;
        for target in [900.0, 800.0, 700.0, 600.0] {
            t.update_write_capacity(target, now).unwrap();
            now += SimDuration::from_mins(30);
            t.write(0, 512, now, DT); // settle
            now += SimDuration::from_mins(30);
        }
        assert_eq!(t.decreases_today(), 4);
        assert!(matches!(
            t.update_write_capacity(500.0, now),
            Err(DynamoError::DecreaseLimitReached { used: 4, limit: 4 })
        ));
        // Increases still allowed.
        t.update_write_capacity(800.0, now).unwrap();
        t.write(0, 512, now + SimDuration::from_mins(1), DT);
        // Next day the budget resets.
        let tomorrow = SimTime::from_hours(25);
        t.update_write_capacity(500.0, tomorrow).unwrap();
        assert_eq!(t.decreases_today(), 1);
    }

    #[test]
    fn concurrent_update_rejected() {
        let mut t = table(100.0);
        t.update_write_capacity(200.0, SimTime::ZERO).unwrap();
        assert_eq!(
            t.update_write_capacity(300.0, SimTime::from_secs(1)),
            Err(DynamoError::UpdateInProgress)
        );
    }

    #[test]
    fn noop_update_consumes_nothing() {
        let mut t = table(100.0);
        t.update_write_capacity(100.0, SimTime::ZERO).unwrap();
        assert!(t.pending_update.is_none());
        assert_eq!(t.decreases_today(), 0);
    }

    #[test]
    fn invalid_capacity_rejected() {
        let mut t = table(100.0);
        assert!(matches!(
            t.update_write_capacity(0.0, SimTime::ZERO),
            Err(DynamoError::InvalidCapacity { .. })
        ));
        assert!(matches!(
            t.update_write_capacity(1e9, SimTime::ZERO),
            Err(DynamoError::InvalidCapacity { .. })
        ));
    }

    #[test]
    fn shrinking_capacity_clips_burst_credit() {
        let mut t = table(100.0);
        for s in 0..400 {
            t.write(0, 512, SimTime::from_secs(s), DT);
        }
        assert!((t.burst_credit() - 30_000.0).abs() < 1e-6);
        t.update_write_capacity(10.0, SimTime::from_secs(400))
            .unwrap();
        t.write(0, 512, SimTime::from_secs(450), DT);
        assert_eq!(t.provisioned_wcu(), 10.0);
        assert!(t.burst_credit() <= 3_000.0 + 1e-9);
    }

    #[test]
    fn utilization_reflects_demand_over_provisioned() {
        let mut t = table(200.0);
        let out = t.write(300, 512, SimTime::ZERO, DT);
        assert!((out.utilization - 1.5).abs() < 1e-9);
    }

    #[test]
    fn read_under_capacity_banks_credit() {
        let mut t = table(100.0); // initial_rcu = 50 by default
        let out = t.read(30, 2_048, false, SimTime::ZERO, DT);
        assert_eq!(out.read, 30);
        assert_eq!(out.throttled, 0);
        // 2 KiB strongly consistent = 1 RCU each → 30 consumed, 20 banked.
        assert!((out.consumed_rcu - 30.0).abs() < 1e-9);
        assert!((out.burst_credit - 20.0).abs() < 1e-9);
        assert!((out.utilization - 0.6).abs() < 1e-9);
    }

    #[test]
    fn eventually_consistent_reads_cost_half() {
        let mut strong = table(100.0);
        let mut eventual = table(100.0);
        let s = strong.read(40, 4_096, false, SimTime::ZERO, DT);
        let e = eventual.read(40, 4_096, true, SimTime::ZERO, DT);
        assert!((s.consumed_rcu - 40.0).abs() < 1e-9);
        assert!((e.consumed_rcu - 20.0).abs() < 1e-9);
    }

    #[test]
    fn large_reads_cost_multiple_rcu() {
        let mut t = table(100.0); // 50 RCU
                                  // 10 KiB items cost 3 RCU each → 30 items = 90 RCU > 50.
        let out = t.read(30, 10_240, false, SimTime::ZERO, DT);
        assert!(out.throttled > 0, "expected read throttling: {out:?}");
    }

    #[test]
    fn read_burst_credit_absorbs_then_throttles() {
        let mut t = table(100.0); // 50 RCU
        for s in 0..100 {
            t.read(25, 4_096, false, SimTime::from_secs(s), DT); // banks 25/s
        }
        assert!((t.read_burst_credit() - 2_500.0).abs() < 1e-6);
        // 3× capacity: 100 RCU over provisioned; credit covers 25 s.
        let mut first_throttle = None;
        for s in 100..200 {
            let out = t.read(150, 4_096, false, SimTime::from_secs(s), DT);
            if out.throttled > 0 && first_throttle.is_none() {
                first_throttle = Some(s - 100);
            }
        }
        let cliff = first_throttle.expect("must throttle");
        assert!((24..=26).contains(&cliff), "cliff at {cliff}");
    }

    #[test]
    fn rcu_update_applies_after_latency_and_shares_decrease_budget() {
        let mut t = table(1_000.0);
        t.update_read_capacity(200.0, SimTime::ZERO).unwrap();
        assert_eq!(t.provisioned_rcu(), 50.0);
        t.read(0, 4_096, false, SimTime::from_secs(10), DT);
        assert_eq!(t.provisioned_rcu(), 200.0);
        assert_eq!(t.target_rcu(), 200.0);
        // Four decreases (mixing read and write) exhaust the shared budget.
        let mut now = SimTime::from_mins(1);
        for (i, target) in [150.0, 120.0].iter().enumerate() {
            t.update_read_capacity(*target, now).unwrap();
            now += SimDuration::from_mins(2);
            t.read(0, 4_096, false, now, DT);
            now += SimDuration::from_mins(2);
            let _ = i;
        }
        for target in [900.0, 800.0] {
            t.update_write_capacity(target, now).unwrap();
            now += SimDuration::from_mins(2);
            t.write(0, 512, now, DT);
            now += SimDuration::from_mins(2);
        }
        assert_eq!(t.decreases_today(), 4);
        assert!(matches!(
            t.update_read_capacity(100.0, now),
            Err(DynamoError::DecreaseLimitReached { .. })
        ));
    }

    #[test]
    fn concurrent_rcu_update_rejected_independently_of_wcu() {
        let mut t = table(100.0);
        t.update_read_capacity(80.0, SimTime::ZERO).unwrap();
        assert_eq!(
            t.update_read_capacity(90.0, SimTime::from_secs(1)),
            Err(DynamoError::UpdateInProgress)
        );
        // A write-capacity update is a separate control-plane slot here.
        t.update_write_capacity(150.0, SimTime::from_secs(1))
            .unwrap();
    }

    #[test]
    fn read_counters_and_idle_outcome() {
        let mut t = table(100.0);
        t.read(10, 4_096, false, SimTime::ZERO, DT);
        t.read(200, 4_096, false, SimTime::from_secs(1), DT);
        let (read, throttled) = t.read_counters();
        assert!(read >= 10);
        assert!(throttled > 0);
        let idle = ReadOutcome::idle();
        assert_eq!(idle.read, 0);
        assert_eq!(idle.consumed_rcu, 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = table(10.0);
        t.write(5, 512, SimTime::ZERO, DT);
        t.write(50, 512, SimTime::from_secs(1), DT);
        let (written, throttled) = t.counters();
        assert!(written >= 15);
        assert!(throttled > 0);
    }
}
