//! Cross-Platform Monitoring — paper §3.4.
//!
//! "Flower introduces a module called all-in-one-place visualizer, which
//! allows users to visually define a monitoring layer on top of multiple
//! systems. The module calls the APIs of the systems, such as CloudWatch
//! and Storm, and consolidates diverse performance measures in an
//! integrated user interface."
//!
//! [`CrossPlatformMonitor`] is that consolidation layer: it snapshots
//! every registered metric across all service namespaces in one call and
//! renders the result as a text table (the simulated stand-in for the
//! demo GUI of Fig. 6). [`CrossPlatformMonitor::for_engine`] takes each
//! layer's rows and health alarm from the layer's own service.

use flower_cloud::alarms::{Alarm, AlarmSet, AlarmTransition};
use flower_cloud::{CloudEngine, MetricId, MetricsStore, Statistic};
use flower_sim::{SimDuration, SimTime};

use crate::flow::Layer;

/// One consolidated row: a metric's window statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorRow {
    /// The layer the metric belongs to.
    pub layer: Layer,
    /// The metric.
    pub metric: MetricId,
    /// Most recent value.
    pub latest: f64,
    /// Window average.
    pub average: f64,
    /// Window minimum.
    pub minimum: f64,
    /// Window maximum.
    pub maximum: f64,
    /// Datapoints in the window.
    pub samples: usize,
}

/// A point-in-time consolidated view across all layers.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Window the statistics cover.
    pub window: SimDuration,
    /// One row per metric with data.
    pub rows: Vec<MonitorRow>,
}

impl MonitorSnapshot {
    /// Rows of one layer.
    pub fn layer_rows(&self, layer: Layer) -> Vec<&MonitorRow> {
        self.rows.iter().filter(|r| r.layer == layer).collect()
    }

    /// Find a row by metric name (first match).
    pub fn row(&self, metric_name: &str) -> Option<&MonitorRow> {
        self.rows.iter().find(|r| r.metric.metric == metric_name)
    }

    /// Render as an aligned text table — the all-in-one-place view.
    /// Every attached alarm is appended below the metric rows with its
    /// current state (`OK`, `INSUFFICIENT_DATA`, or `ALARM`) — a healthy
    /// alarm is information too, not just a firing one.
    pub fn to_table_with_alarms(&self, alarms: &AlarmSet) -> String {
        let mut out = self.to_table();
        if !alarms.is_empty() {
            out.push_str("alarms:\n");
            for (name, state) in alarms.states() {
                out.push_str(&format!("  {name} -> {state}\n"));
            }
        }
        out
    }

    /// Render as an aligned text table — the all-in-one-place view.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== Flower cross-platform monitor @ {} (window {}) ===\n",
            self.at, self.window
        ));
        out.push_str(&format!(
            "{:<10} {:<45} {:>12} {:>12} {:>12} {:>12} {:>8}\n",
            "layer", "metric", "latest", "avg", "min", "max", "samples"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<45} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>8}\n",
                row.layer.label(),
                row.metric.to_string(),
                row.latest,
                row.average,
                row.minimum,
                row.maximum,
                row.samples
            ));
        }
        out
    }
}

/// The consolidating monitor.
#[derive(Debug, Clone)]
pub struct CrossPlatformMonitor {
    registered: Vec<(Layer, MetricId)>,
    alarms: AlarmSet,
}

impl CrossPlatformMonitor {
    /// An empty monitor.
    pub fn new() -> CrossPlatformMonitor {
        CrossPlatformMonitor {
            registered: Vec::new(),
            alarms: AlarmSet::new(),
        }
    }

    /// Attach a metric alarm to the consolidated view; alarms are
    /// evaluated on every [`CrossPlatformMonitor::observe`] call.
    pub fn add_alarm(&mut self, alarm: Alarm) {
        self.alarms.add(alarm);
    }

    /// The alarm set (states, firing list, transition history).
    pub fn alarms(&self) -> &AlarmSet {
        &self.alarms
    }

    /// Evaluate all attached alarms at `now`, returning this round's
    /// state transitions.
    pub fn observe(&mut self, store: &MetricsStore, now: SimTime) -> Vec<AlarmTransition> {
        self.alarms.evaluate(store, now)
    }

    /// Register a metric under a layer. Returns `true` when the metric
    /// is new; re-registering an already-known metric updates its layer
    /// (last wins — previously a conflicting layer was silently dropped)
    /// and returns `false`.
    pub fn register(&mut self, layer: Layer, metric: MetricId) -> bool {
        match self.registered.iter_mut().find(|(_, m)| *m == metric) {
            Some(entry) => {
                entry.0 = layer;
                false
            }
            None => {
                self.registered.push((layer, metric));
                true
            }
        }
    }

    /// A monitor over every service `engine` registers, in registry
    /// order: each service's [`headline_metrics`] filed under its layer,
    /// and its [`default_alarm`] when it declares one.
    ///
    /// [`headline_metrics`]: flower_cloud::LayerService::headline_metrics
    /// [`default_alarm`]: flower_cloud::LayerService::default_alarm
    pub fn for_engine(engine: &CloudEngine) -> CrossPlatformMonitor {
        let mut monitor = CrossPlatformMonitor::new();
        for service in engine.services() {
            for metric in service.headline_metrics() {
                monitor.register(service.id(), metric);
            }
            if let Some(alarm) = service.default_alarm() {
                monitor.add_alarm(alarm);
            }
        }
        monitor
    }

    /// Registered metric count.
    pub fn len(&self) -> usize {
        self.registered.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.registered.is_empty()
    }

    /// Take a consolidated snapshot over `[now − window, now)`. Metrics
    /// without datapoints in the window are omitted.
    #[expect(
        clippy::expect_used,
        reason = "invariants stated in the expect messages"
    )]
    pub fn snapshot(
        &self,
        store: &MetricsStore,
        now: SimTime,
        window: SimDuration,
    ) -> MonitorSnapshot {
        let from = now - window;
        let mut rows = Vec::new();
        for (layer, metric) in &self.registered {
            let pts = store.raw(metric, from, now);
            if pts.is_empty() {
                continue;
            }
            let avg = store
                .window_stat(metric, Statistic::Average, from, now)
                .expect("pts guarded non-empty, so the window has datapoints");
            let min = store
                .window_stat(metric, Statistic::Minimum, from, now)
                .expect("pts guarded non-empty, so the window has datapoints");
            let max = store
                .window_stat(metric, Statistic::Maximum, from, now)
                .expect("pts guarded non-empty, so the window has datapoints");
            rows.push(MonitorRow {
                layer: *layer,
                metric: metric.clone(),
                latest: pts
                    .last()
                    .expect("pts guarded non-empty before this push")
                    .1,
                average: avg,
                minimum: min,
                maximum: max,
                samples: pts.len(),
            });
        }
        MonitorSnapshot {
            at: now,
            window,
            rows,
        }
    }
}

impl Default for CrossPlatformMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_cloud::{CloudEngine, EngineConfig};
    use flower_sim::SimRng;
    use flower_workload::{ClickStreamConfig, ClickStreamGenerator, ConstantRate};

    fn populated_engine() -> CloudEngine {
        let mut e = CloudEngine::new(EngineConfig::default());
        let mut generator =
            ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(1));
        let mut process = ConstantRate::new(1_000.0);
        for s in 0..120u64 {
            let now = SimTime::from_secs(s);
            let records = generator.tick(&mut process, now, 1.0);
            e.tick(&records, now, SimDuration::from_secs(1));
        }
        e
    }

    /// The registry monitor's snapshot of a populated engine over the
    /// `window` ending at `at`.
    fn snapshot(at: SimTime, window: SimDuration) -> MonitorSnapshot {
        let e = populated_engine();
        CrossPlatformMonitor::for_engine(&e).snapshot(e.metrics(), at, window)
    }

    #[test]
    fn clickstream_monitor_covers_all_layers() {
        let e = populated_engine();
        let m = CrossPlatformMonitor::for_engine(&e);
        assert_eq!(m.len(), 17);
        assert!(!m.is_empty());
        let alarms: Vec<_> = m.alarms().states().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            alarms,
            [
                "ingestion-throttling",
                "analytics-cpu-high",
                "storage-throttling"
            ]
        );
        let snap = m.snapshot(
            e.metrics(),
            SimTime::from_secs(120),
            SimDuration::from_mins(2),
        );
        assert_eq!(snap.rows.len(), 17, "all metrics have data");
        assert_eq!(snap.layer_rows(Layer::INGESTION).len(), 4);
        assert_eq!(snap.layer_rows(Layer::ANALYTICS).len(), 5);
        assert_eq!(snap.layer_rows(Layer::STORAGE).len(), 8);
    }

    #[test]
    fn snapshot_statistics_are_consistent() {
        let snap = snapshot(SimTime::from_secs(120), SimDuration::from_mins(1));
        for row in &snap.rows {
            assert!(row.minimum <= row.average + 1e-9, "{row:?}");
            assert!(row.average <= row.maximum + 1e-9, "{row:?}");
            assert!(row.latest >= row.minimum - 1e-9 && row.latest <= row.maximum + 1e-9);
            assert_eq!(row.samples, 60);
        }
    }

    #[test]
    fn row_lookup_by_name() {
        let snap = snapshot(SimTime::from_secs(120), SimDuration::from_mins(1));
        let cpu = snap.row("CpuUtilization").expect("cpu row");
        assert!(cpu.average > 4.8);
        assert!(snap.row("NoSuchMetric").is_none());
    }

    #[test]
    fn empty_window_omits_rows() {
        // A window entirely in the future of the data.
        let snap = snapshot(SimTime::from_hours(3), SimDuration::from_mins(1));
        assert!(snap.rows.is_empty());
    }

    #[test]
    fn duplicate_registration_is_deduplicated() {
        let mut m = CrossPlatformMonitor::new();
        let id = MetricId::new("ns", "m", "r");
        assert!(m.register(Layer::INGESTION, id.clone()));
        assert!(!m.register(Layer::INGESTION, id));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn conflicting_layer_registration_replaces() {
        // Regression: re-registering a metric under a *different* layer
        // used to be silently dropped, leaving the metric filed under
        // the stale layer forever. Last registration must win.
        let mut m = CrossPlatformMonitor::new();
        let id = MetricId::new("ns", "m", "r");
        assert!(m.register(Layer::INGESTION, id.clone()));
        assert!(!m.register(Layer::STORAGE, id.clone()));
        assert_eq!(m.len(), 1, "still one registration");
        let mut store = MetricsStore::new();
        store.put(id, SimTime::from_secs(1), 42.0);
        let snap = m.snapshot(&store, SimTime::from_secs(2), SimDuration::from_secs(10));
        assert!(snap.layer_rows(Layer::INGESTION).is_empty());
        assert_eq!(snap.layer_rows(Layer::STORAGE).len(), 1);
    }

    #[test]
    fn default_alarms_fire_under_stress() {
        use flower_cloud::alarms::AlarmState;
        // An overloaded tiny deployment: ingestion throttles immediately.
        let mut e = CloudEngine::new(EngineConfig {
            kinesis: flower_cloud::KinesisConfig {
                initial_shards: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut generator =
            ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(2));
        let mut process = ConstantRate::new(3_000.0);
        let mut m = CrossPlatformMonitor::for_engine(&e);
        let mut transitions = Vec::new();
        for s in 0..300u64 {
            let now = SimTime::from_secs(s);
            let records = generator.tick(&mut process, now, 1.0);
            e.tick(&records, now, SimDuration::from_secs(1));
            if s % 60 == 59 {
                transitions.extend(m.observe(e.metrics(), now + SimDuration::from_secs(1)));
            }
        }
        assert_eq!(
            m.alarms().state("ingestion-throttling"),
            Some(AlarmState::Alarm),
            "throttling alarm must fire"
        );
        assert!(!transitions.is_empty());
        let table = {
            let snap = m.snapshot(
                e.metrics(),
                SimTime::from_secs(300),
                SimDuration::from_mins(2),
            );
            snap.to_table_with_alarms(m.alarms())
        };
        assert!(table.contains("ingestion-throttling -> ALARM"), "{table}");
    }

    #[test]
    fn healthy_flow_keeps_alarms_ok() {
        use flower_cloud::alarms::AlarmState;
        let e = populated_engine(); // 1,000 rec/s on the default deployment
        let mut m = CrossPlatformMonitor::for_engine(&e);
        for minute in 1..=2u64 {
            m.observe(e.metrics(), SimTime::from_secs(minute * 60));
        }
        assert_eq!(m.alarms().state("analytics-cpu-high"), Some(AlarmState::Ok));
        assert!(m.alarms().firing().is_empty());
        let snap = m.snapshot(
            e.metrics(),
            SimTime::from_secs(120),
            SimDuration::from_mins(2),
        );
        // Every attached alarm is listed with its (healthy) state.
        let table = snap.to_table_with_alarms(m.alarms());
        assert!(table.contains("ingestion-throttling -> OK"), "{table}");
        assert!(table.contains("analytics-cpu-high -> OK"), "{table}");
        assert!(table.contains("storage-throttling -> OK"), "{table}");
        assert!(!table.contains("-> ALARM"), "{table}");
    }

    #[test]
    fn table_renders_every_row() {
        let snap = snapshot(SimTime::from_secs(120), SimDuration::from_mins(1));
        let table = snap.to_table();
        assert!(table.contains("CpuUtilization"));
        assert!(table.contains("ingestion"));
        assert!(table.contains("storage"));
        assert_eq!(table.lines().count(), 2 + snap.rows.len());
    }
}
