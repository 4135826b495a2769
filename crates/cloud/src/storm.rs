//! A Storm-like analytics cluster simulator (analytics layer).
//!
//! A [`Topology`] is a linear spout→bolt pipeline; each bolt charges a
//! CPU cost per tuple and emits `selectivity` output tuples per input.
//! The cluster executes the topology on a fleet of identical worker VMs:
//!
//! * aggregate capacity = `vms · cores · 1000 ms` of CPU per second;
//! * demand above capacity accumulates in a bounded backlog (beyond the
//!   bound, tuples are dropped — Storm's spout back-pressure analogue);
//! * cluster CPU% = idle baseline + busy fraction, so the fitted
//!   dependency between arrival rate and CPU has a positive intercept —
//!   the shape of the paper's Eq. 2 (`CPU ≈ 0.0002·WriteCapacity + 4.8`);
//! * adding VMs takes a boot delay; removing VMs is immediate (drain).

use flower_sim::{SimDuration, SimRng, SimTime};

use crate::alarms::{Alarm, Comparison};
use crate::engine::{metric_names, EngineError, TickReport};
use crate::layer::{LayerId, LayerService, SensorProbe, ANALYTICS};
use crate::metrics::{MetricId, Statistic};

/// One bolt of the topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Bolt {
    /// Bolt name (for reports).
    pub name: String,
    /// CPU milliseconds consumed per input tuple.
    pub cpu_ms_per_tuple: f64,
    /// Output tuples emitted per input tuple (e.g. 0.1 for a 10:1
    /// aggregation, 2.0 for a splitter).
    pub selectivity: f64,
}

impl Bolt {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, cpu_ms_per_tuple: f64, selectivity: f64) -> Bolt {
        assert!(cpu_ms_per_tuple >= 0.0, "negative CPU cost");
        assert!(selectivity >= 0.0, "negative selectivity");
        Bolt {
            name: name.into(),
            cpu_ms_per_tuple,
            selectivity,
        }
    }
}

/// A linear spout→bolt pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Topology name.
    pub name: String,
    /// The bolts, in pipeline order.
    pub bolts: Vec<Bolt>,
}

impl Topology {
    /// Build a topology; needs at least one bolt.
    pub fn new(name: impl Into<String>, bolts: Vec<Bolt>) -> Topology {
        assert!(!bolts.is_empty(), "topology needs at least one bolt");
        Topology {
            name: name.into(),
            bolts,
        }
    }

    /// The click-stream counting topology of the paper's demo flow
    /// (after Amazon's reference architecture): parse → sessionize →
    /// windowed count, aggregating ~50 input records into one output row.
    pub fn clickstream() -> Topology {
        Topology::new(
            "clickstream-counts",
            vec![
                Bolt::new("parse", 0.20, 1.0),
                Bolt::new("sessionize", 0.35, 1.0),
                Bolt::new("window-count", 0.25, 0.02),
            ],
        )
    }

    /// Total CPU milliseconds charged per spout tuple, accounting for
    /// selectivity shrinking/growing the tuple volume along the pipeline.
    pub fn cpu_ms_per_input_tuple(&self) -> f64 {
        let mut volume = 1.0;
        let mut total = 0.0;
        for bolt in &self.bolts {
            total += volume * bolt.cpu_ms_per_tuple;
            volume *= bolt.selectivity;
        }
        total
    }

    /// Output tuples emitted per spout tuple.
    pub fn output_per_input_tuple(&self) -> f64 {
        self.bolts.iter().map(|b| b.selectivity).product()
    }
}

/// Static configuration of the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct StormConfig {
    /// Cluster name (metric dimension).
    pub name: String,
    /// Initial VM count.
    pub initial_vms: u32,
    /// Cores per VM.
    pub cores_per_vm: u32,
    /// Boot delay of a new VM.
    pub vm_boot_delay: SimDuration,
    /// Maximum queued tuples before drops.
    pub max_backlog: u64,
    /// Maximum VM count (account limit).
    pub max_vms: u32,
    /// CPU% consumed by the OS and Storm daemons when idle.
    pub idle_cpu_pct: f64,
    /// Stationary standard deviation of the AR(1) measurement noise
    /// added to the reported CPU% (0 = noiseless sensor, the default).
    /// Real cluster CPU readings carry GC pauses, co-tenant interference
    /// and sampling lag — *temporally correlated* disturbances, which is
    /// why the noise is an Ornstein–Uhlenbeck process (correlation time
    /// ~2 min) rather than white: it survives per-minute averaging and is
    /// what keeps the Fig. 2 correlation at ~0.95 instead of 1.0.
    pub cpu_noise_std: f64,
    /// Seed of the measurement-noise stream.
    pub noise_seed: u64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            name: "storm-cluster".to_owned(),
            initial_vms: 2,
            cores_per_vm: 2,
            vm_boot_delay: SimDuration::from_secs(60),
            max_backlog: 2_000_000,
            max_vms: 100,
            idle_cpu_pct: 4.8,
            cpu_noise_std: 0.0,
            noise_seed: 0x5707,
        }
    }
}

/// Result of one processing step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessOutcome {
    /// Tuples fully processed this step.
    pub processed: u64,
    /// Output tuples emitted downstream (to the storage layer).
    pub emitted: u64,
    /// Tuples dropped because the backlog bound was hit.
    pub dropped: u64,
    /// Current backlog after the step.
    pub backlog: u64,
    /// Cluster CPU utilization in percent (idle baseline included).
    pub cpu_pct: f64,
    /// Estimated processing latency in seconds (backlog over service
    /// rate; infinite backlog growth reads as very large, not ∞).
    pub latency_secs: f64,
}

/// Errors from control-plane operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StormError {
    /// VM target outside `[1, max_vms]`.
    InvalidVmCount {
        /// The rejected target.
        requested: u32,
        /// The account limit.
        max: u32,
    },
}

impl std::fmt::Display for StormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StormError::InvalidVmCount { requested, max } => {
                write!(f, "invalid VM count {requested} (allowed 1..={max})")
            }
        }
    }
}

impl std::error::Error for StormError {}

/// The simulated cluster.
#[derive(Debug, Clone)]
pub struct StormCluster {
    config: StormConfig,
    topology: Topology,
    noise_rng: SimRng,
    /// Current AR(1) noise state.
    noise_state: f64,
    running_vms: u32,
    /// VMs that have been requested but not booted: `(count, ready_at)`.
    booting: Vec<(u32, SimTime)>,
    backlog: u64,
    /// Fractional output tuples carried between steps so aggregation
    /// ratios hold exactly in the long run.
    emit_carry: f64,
    total_processed: u64,
    total_dropped: u64,
}

impl StormCluster {
    /// Create a cluster running `topology` per `config`.
    pub fn new(config: StormConfig, topology: Topology) -> StormCluster {
        assert!(config.initial_vms >= 1 && config.initial_vms <= config.max_vms);
        assert!(config.cores_per_vm >= 1);
        assert!((0.0..100.0).contains(&config.idle_cpu_pct));
        StormCluster {
            running_vms: config.initial_vms,
            noise_rng: SimRng::seed(config.noise_seed),
            noise_state: 0.0,
            config,
            topology,
            booting: Vec::new(),
            backlog: 0,
            emit_carry: 0.0,
            total_processed: 0,
            total_dropped: 0,
        }
    }

    /// Cluster name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The topology in execution.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// VMs currently serving (excludes booting ones).
    pub fn running_vms(&self) -> u32 {
        self.running_vms
    }

    /// VMs requested but still booting.
    pub fn booting_vms(&self) -> u32 {
        self.booting.iter().map(|&(n, _)| n).sum()
    }

    /// The VM count the cluster is converging to.
    pub fn target_vms(&self) -> u32 {
        self.running_vms + self.booting_vms()
    }

    /// Current backlog in tuples.
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// Lifetime counters: `(processed, dropped)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.total_processed, self.total_dropped)
    }

    /// Aggregate tuple service rate (tuples/second) at the current
    /// running VM count.
    pub fn service_rate(&self) -> f64 {
        let cpu_ms_per_sec = self.running_vms as f64 * self.config.cores_per_vm as f64 * 1_000.0;
        cpu_ms_per_sec / self.topology.cpu_ms_per_input_tuple()
    }

    /// Set the cluster's target VM count at time `now`. Scale-out boots
    /// after `vm_boot_delay`; scale-in takes effect immediately.
    pub fn set_vm_target(&mut self, target: u32, now: SimTime) -> Result<(), StormError> {
        self.settle_boots(now);
        if target < 1 || target > self.config.max_vms {
            return Err(StormError::InvalidVmCount {
                requested: target,
                max: self.config.max_vms,
            });
        }
        let current_target = self.target_vms();
        match target.cmp(&current_target) {
            std::cmp::Ordering::Greater => {
                self.booting
                    .push((target - current_target, now + self.config.vm_boot_delay));
            }
            std::cmp::Ordering::Less => {
                let mut to_remove = current_target - target;
                // Cancel booting VMs first (cheapest), newest first.
                while to_remove > 0 {
                    if let Some(last) = self.booting.last_mut() {
                        let cancel = last.0.min(to_remove);
                        last.0 -= cancel;
                        to_remove -= cancel;
                        if last.0 == 0 {
                            self.booting.pop();
                        }
                    } else {
                        self.running_vms -= to_remove;
                        to_remove = 0;
                    }
                }
            }
            std::cmp::Ordering::Equal => {}
        }
        Ok(())
    }

    fn settle_boots(&mut self, now: SimTime) {
        let mut booted = 0;
        self.booting.retain(|&(n, ready)| {
            if now >= ready {
                booted += n;
                false
            } else {
                true
            }
        });
        self.running_vms += booted;
    }

    /// Process `incoming` tuples over a step of `dt`.
    pub fn process(&mut self, incoming: u64, now: SimTime, dt: SimDuration) -> ProcessOutcome {
        self.settle_boots(now);
        let dt_secs = dt.as_secs_f64();
        assert!(dt_secs > 0.0, "process step must have positive length");

        let capacity = (self.service_rate() * dt_secs).floor() as u64;
        let demand = self.backlog + incoming;
        let processed = demand.min(capacity);
        let mut backlog = demand - processed;
        let dropped = backlog.saturating_sub(self.config.max_backlog);
        backlog -= dropped;
        self.backlog = backlog;

        // Exact long-run aggregation ratio via fractional carry.
        let emitted_f = processed as f64 * self.topology.output_per_input_tuple() + self.emit_carry;
        let emitted = emitted_f.floor() as u64;
        self.emit_carry = emitted_f - emitted as f64;

        self.total_processed += processed;
        self.total_dropped += dropped;

        let busy_fraction = if capacity == 0 {
            1.0
        } else {
            (demand as f64 / capacity as f64).min(1.0)
        };
        let mut cpu_pct =
            self.config.idle_cpu_pct + (100.0 - self.config.idle_cpu_pct) * busy_fraction;
        if self.config.cpu_noise_std > 0.0 {
            // AR(1) with a ~2-minute correlation time per 1-second step.
            const RHO: f64 = 0.9917; // exp(-1/120)
            let innovation_std = self.config.cpu_noise_std * (1.0 - RHO * RHO).sqrt();
            self.noise_state = RHO * self.noise_state + self.noise_rng.normal(0.0, innovation_std);
            cpu_pct = (cpu_pct + self.noise_state).clamp(0.0, 100.0);
        }
        let service = self.service_rate();
        let latency_secs = if service > 0.0 {
            backlog as f64 / service
        } else {
            f64::MAX
        };

        ProcessOutcome {
            processed,
            emitted,
            dropped,
            backlog,
            cpu_pct,
            latency_secs,
        }
    }
}

impl LayerService for StormCluster {
    fn id(&self) -> LayerId {
        ANALYTICS
    }

    /// VMs bill (and trace) from launch, so the actuator baseline is the
    /// target fleet, booting included.
    fn actuator_units(&self) -> f64 {
        f64::from(self.target_vms())
    }

    fn target_units(&self) -> f64 {
        f64::from(self.target_vms())
    }

    fn max_units(&self) -> f64 {
        f64::from(self.config.max_vms)
    }

    fn quantize(&self, target: f64) -> f64 {
        f64::from(target as u32)
    }

    fn actuate(&mut self, target: f64, now: SimTime) -> Result<(), EngineError> {
        self.set_vm_target(target as u32, now)
            .map_err(EngineError::Storm)
    }

    fn utilization_sensor(&self) -> SensorProbe {
        SensorProbe {
            metric: MetricId::new(
                metric_names::NS_STORM,
                metric_names::CPU_UTILIZATION,
                self.name(),
            ),
            statistic: Statistic::Average,
            scale: 1.0,
        }
    }

    fn measurement(&self, tick: &TickReport) -> Option<f64> {
        Some(tick.process.cpu_pct)
    }

    fn headline_metrics(&self) -> Vec<MetricId> {
        use metric_names::*;
        [
            CPU_UTILIZATION,
            TUPLES_PROCESSED,
            BACKLOG,
            PROCESS_LATENCY,
            RUNNING_VMS,
        ]
        .into_iter()
        .map(|m| MetricId::new(NS_STORM, m, self.name()))
        .collect()
    }

    fn default_alarm(&self) -> Option<Alarm> {
        Some(Alarm::new(
            "analytics-cpu-high",
            MetricId::new(
                metric_names::NS_STORM,
                metric_names::CPU_UTILIZATION,
                self.name(),
            ),
            Statistic::Average,
            SimDuration::from_mins(1),
            Comparison::GreaterThan,
            85.0,
            2,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(vms: u32) -> StormCluster {
        StormCluster::new(
            StormConfig {
                initial_vms: vms,
                ..Default::default()
            },
            Topology::clickstream(),
        )
    }

    const DT: SimDuration = SimDuration::from_secs(1);

    #[test]
    fn topology_cost_accounting() {
        let t = Topology::clickstream();
        // parse 0.20 + sessionize 0.35 + window-count 0.25, all at full
        // volume until the last bolt.
        assert!((t.cpu_ms_per_input_tuple() - 0.80).abs() < 1e-12);
        assert!((t.output_per_input_tuple() - 0.02).abs() < 1e-12);
        // Selectivity shrinks downstream volume:
        let t2 = Topology::new(
            "x",
            vec![Bolt::new("a", 1.0, 0.5), Bolt::new("b", 1.0, 1.0)],
        );
        assert!((t2.cpu_ms_per_input_tuple() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn service_rate_scales_with_vms() {
        // 2 VMs × 2 cores × 1000 ms / 0.8 ms/tuple = 5,000 tuples/s.
        assert!((cluster(2).service_rate() - 5_000.0).abs() < 1e-9);
        assert!((cluster(4).service_rate() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn underload_processes_everything() {
        let mut c = cluster(2);
        let out = c.process(3_000, SimTime::ZERO, DT);
        assert_eq!(out.processed, 3_000);
        assert_eq!(out.backlog, 0);
        assert_eq!(out.dropped, 0);
        // busy = 3000/5000 = 0.6 → cpu ≈ 4.8 + 95.2·0.6 ≈ 61.9
        assert!((out.cpu_pct - 61.92).abs() < 0.1, "cpu={}", out.cpu_pct);
    }

    #[test]
    fn overload_builds_backlog_then_drains() {
        let mut c = cluster(2); // 5,000 tuples/s
        let out1 = c.process(8_000, SimTime::ZERO, DT);
        assert_eq!(out1.processed, 5_000);
        assert_eq!(out1.backlog, 3_000);
        assert!((out1.cpu_pct - 100.0).abs() < 1e-9);
        assert!(out1.latency_secs > 0.5);
        // Light next tick: backlog drains first.
        let out2 = c.process(1_000, SimTime::from_secs(1), DT);
        assert_eq!(out2.processed, 4_000);
        assert_eq!(out2.backlog, 0);
    }

    #[test]
    fn backlog_bound_drops_tuples() {
        let mut c = StormCluster::new(
            StormConfig {
                initial_vms: 1,
                max_backlog: 1_000,
                ..Default::default()
            },
            Topology::clickstream(),
        );
        let out = c.process(50_000, SimTime::ZERO, DT);
        assert_eq!(out.backlog, 1_000);
        assert!(out.dropped > 40_000);
        assert_eq!(c.counters().1, out.dropped);
    }

    #[test]
    fn emitted_respects_aggregation_ratio() {
        let mut c = cluster(4);
        let mut total_emitted = 0u64;
        let mut total_processed = 0u64;
        for s in 0..100 {
            let out = c.process(5_000, SimTime::from_secs(s), DT);
            total_emitted += out.emitted;
            total_processed += out.processed;
        }
        let ratio = total_emitted as f64 / total_processed as f64;
        assert!((ratio - 0.02).abs() < 1e-4, "ratio={ratio}");
    }

    #[test]
    fn scale_out_waits_for_boot() {
        let mut c = cluster(2);
        c.set_vm_target(4, SimTime::ZERO).unwrap();
        assert_eq!(c.running_vms(), 2);
        assert_eq!(c.booting_vms(), 2);
        assert_eq!(c.target_vms(), 4);
        c.process(0, SimTime::from_secs(30), DT);
        assert_eq!(c.running_vms(), 2, "still booting at t=30s");
        c.process(0, SimTime::from_secs(60), DT);
        assert_eq!(c.running_vms(), 4);
        assert_eq!(c.booting_vms(), 0);
    }

    #[test]
    fn scale_in_is_immediate_and_cancels_boots_first() {
        let mut c = cluster(4);
        c.set_vm_target(8, SimTime::ZERO).unwrap();
        assert_eq!(c.target_vms(), 8);
        // Scale back to 6: cancels 2 booting VMs, keeps 4 running.
        c.set_vm_target(6, SimTime::from_secs(1)).unwrap();
        assert_eq!(c.running_vms(), 4);
        assert_eq!(c.booting_vms(), 2);
        // Scale to 2: cancels remaining boots, stops 2 running VMs now.
        c.set_vm_target(2, SimTime::from_secs(2)).unwrap();
        assert_eq!(c.running_vms(), 2);
        assert_eq!(c.booting_vms(), 0);
    }

    #[test]
    fn invalid_vm_targets_rejected() {
        let mut c = cluster(2);
        assert!(matches!(
            c.set_vm_target(0, SimTime::ZERO),
            Err(StormError::InvalidVmCount { .. })
        ));
        assert!(matches!(
            c.set_vm_target(1_000, SimTime::ZERO),
            Err(StormError::InvalidVmCount { .. })
        ));
    }

    #[test]
    fn idle_cluster_reports_idle_cpu() {
        let mut c = cluster(2);
        let out = c.process(0, SimTime::ZERO, DT);
        assert!((out.cpu_pct - 4.8).abs() < 1e-9);
        assert_eq!(out.processed, 0);
    }

    #[test]
    fn cpu_is_linear_in_load_below_saturation() {
        // The linearity behind the paper's Eq. 2.
        let mut c = cluster(4); // 10,000 tuples/s
        let mut pts = Vec::new();
        for (i, load) in [1_000u64, 3_000, 5_000, 7_000, 9_000].iter().enumerate() {
            let out = c.process(*load, SimTime::from_secs(i as u64), DT);
            assert_eq!(out.backlog, 0);
            pts.push((*load as f64, out.cpu_pct));
        }
        // Slope between consecutive points must be constant.
        let slope01 = (pts[1].1 - pts[0].1) / (pts[1].0 - pts[0].0);
        let slope34 = (pts[4].1 - pts[3].1) / (pts[4].0 - pts[3].0);
        assert!((slope01 - slope34).abs() < 1e-9);
        // Intercept extrapolates to the idle baseline.
        let intercept = pts[0].1 - slope01 * pts[0].0;
        assert!((intercept - 4.8).abs() < 1e-6, "intercept={intercept}");
    }

    #[test]
    #[should_panic(expected = "at least one bolt")]
    fn empty_topology_panics() {
        Topology::new("x", vec![]);
    }
}
