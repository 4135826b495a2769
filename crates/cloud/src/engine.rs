//! The cloud engine: the paper's Fig. 1 click-stream flow as one
//! co-simulated world.
//!
//! Each tick the engine:
//! 1. feeds the step's click records to the Kinesis-like stream,
//! 2. hands the accepted records to the Storm-like cluster as tuples,
//! 3. writes the cluster's emitted aggregates to the DynamoDB-like table,
//! 4. publishes every service metric to the CloudWatch-like store, and
//! 5. accrues billing for all held resources.
//!
//! The chain is what creates the cross-layer workload dependencies the
//! paper's Fig. 2 exhibits — arrival rate upstream drives CPU% and
//! consumed write capacity downstream, with saturation and backlogs
//! decoupling the layers under overload.

use flower_obs::{kind, FieldValue, Recorder};
use flower_sim::{SimDuration, SimTime};
use flower_workload::ClickRecord;

use crate::cache::{CacheCluster, CacheConfig, CacheError, CacheOutcome};
use crate::dynamo::{DynamoConfig, DynamoError, DynamoTable, ReadOutcome, WriteOutcome};
use crate::kinesis::{IngestOutcome, KinesisConfig, KinesisError, KinesisStream};
use crate::layer::{LayerId, LayerService, STORAGE_READ};
use crate::metrics::{MetricId, MetricsStore};
use crate::pricing::{BillingMeter, PriceList, ResourceKind};
use crate::storm::{ProcessOutcome, StormCluster, StormConfig, StormError, Topology};

/// Engine-level configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Ingestion layer configuration.
    pub kinesis: KinesisConfig,
    /// Analytics layer configuration.
    pub storm: StormConfig,
    /// Storage layer configuration.
    pub dynamo: DynamoConfig,
    /// The topology the cluster runs.
    pub topology: Topology,
    /// Price list used by the billing meter.
    pub prices: PriceList,
    /// Average size of an aggregate row written to storage.
    pub aggregate_item_bytes: u32,
    /// Read traffic against the storage layer (dashboards and consumers
    /// querying the aggregates) — §2 of the paper lists "DynamoDB
    /// read/write units" among the managed resources.
    pub read_workload: ReadWorkloadConfig,
    /// Optional fourth tier: a cache interposed on the storage read
    /// path. `None` reproduces the paper's three-layer flow exactly.
    pub cache: Option<CacheConfig>,
}

/// Read traffic against the aggregates table.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadWorkloadConfig {
    /// Baseline read rate in items/second (monitoring dashboards).
    pub base_rate: f64,
    /// Additional reads per ingested record (user-facing queries track
    /// site traffic).
    pub per_record: f64,
    /// Average read item size in bytes.
    pub avg_item_bytes: u32,
    /// Whether reads are eventually consistent (half RCU cost).
    pub eventually_consistent: bool,
}

impl Default for ReadWorkloadConfig {
    fn default() -> Self {
        ReadWorkloadConfig {
            base_rate: 0.0,
            per_record: 0.0,
            avg_item_bytes: 2_048,
            eventually_consistent: true,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            kinesis: KinesisConfig::default(),
            storm: StormConfig::default(),
            dynamo: DynamoConfig::default(),
            topology: Topology::clickstream(),
            prices: PriceList::default(),
            aggregate_item_bytes: 512,
            read_workload: ReadWorkloadConfig::default(),
            cache: None,
        }
    }
}

/// Everything that happened in one engine tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// When the tick happened.
    pub at: SimTime,
    /// Ingestion-layer outcome.
    pub ingest: IngestOutcome,
    /// Analytics-layer outcome.
    pub process: ProcessOutcome,
    /// Storage-layer write outcome.
    pub write: WriteOutcome,
    /// Storage-layer read outcome (all-zero when no read workload is
    /// configured).
    pub read: ReadOutcome,
    /// Cache-tier outcome (`None` when no cache tier is deployed).
    pub cache: Option<CacheOutcome>,
    /// Dollars accrued during this tick.
    pub cost: f64,
}

/// Metric names the engine publishes (stable identifiers for sensors).
pub mod metric_names {
    /// Kinesis namespace.
    pub const NS_KINESIS: &str = "AWS/Kinesis";
    /// Storm/EC2 namespace.
    pub const NS_STORM: &str = "Storm";
    /// DynamoDB namespace.
    pub const NS_DYNAMO: &str = "AWS/DynamoDB";

    /// Records offered to the stream per tick.
    pub const INCOMING_RECORDS: &str = "IncomingRecords";
    /// Records throttled by the stream per tick.
    pub const WRITE_THROTTLED: &str = "WriteProvisionedThroughputExceeded";
    /// Stream utilization (offered rate / capacity).
    pub const SHARD_UTILIZATION: &str = "ShardUtilization";
    /// Open shard count.
    pub const OPEN_SHARDS: &str = "OpenShards";
    /// Utilization of the hottest shard (enhanced shard-level monitoring).
    pub const MAX_SHARD_UTILIZATION: &str = "MaxShardUtilization";

    /// Cluster CPU percent.
    pub const CPU_UTILIZATION: &str = "CpuUtilization";
    /// Tuples processed per tick.
    pub const TUPLES_PROCESSED: &str = "TuplesProcessed";
    /// Backlogged tuples.
    pub const BACKLOG: &str = "Backlog";
    /// Estimated processing latency (seconds).
    pub const PROCESS_LATENCY: &str = "ProcessLatencySecs";
    /// Running VM count.
    pub const RUNNING_VMS: &str = "RunningVms";

    /// Consumed write capacity units per second.
    pub const CONSUMED_WCU: &str = "ConsumedWriteCapacityUnits";
    /// Throttled storage writes per tick.
    pub const DYNAMO_THROTTLED: &str = "ThrottledRequests";
    /// Write utilization (consumed / provisioned).
    pub const WRITE_UTILIZATION: &str = "WriteUtilization";
    /// Provisioned WCU.
    pub const PROVISIONED_WCU: &str = "ProvisionedWriteCapacityUnits";
    /// Consumed read capacity units per second.
    pub const CONSUMED_RCU: &str = "ConsumedReadCapacityUnits";
    /// Throttled storage reads per tick.
    pub const DYNAMO_READ_THROTTLED: &str = "ReadThrottleEvents";
    /// Read utilization (consumed / provisioned).
    pub const READ_UTILIZATION: &str = "ReadUtilization";
    /// Provisioned RCU.
    pub const PROVISIONED_RCU: &str = "ProvisionedReadCapacityUnits";

    /// Cache-tier namespace.
    pub const NS_CACHE: &str = "ElastiCache";
    /// Read requests offered to the cache per tick.
    pub const CACHE_REQUESTS: &str = "CacheRequests";
    /// Hit ratio in effect, in `[0, 1]`.
    pub const CACHE_HIT_RATIO: &str = "CacheHitRate";
    /// Cache utilization (offered rate / fleet capacity).
    pub const CACHE_UTILIZATION: &str = "CacheUtilization";
    /// Running cache node count.
    pub const CACHE_NODES: &str = "CacheNodes";
}

/// Control-plane errors surfaced by the engine's actuator API.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Ingestion-layer rejection.
    Kinesis(KinesisError),
    /// Analytics-layer rejection.
    Storm(StormError),
    /// Storage-layer rejection.
    Dynamo(DynamoError),
    /// Cache-tier rejection.
    Cache(CacheError),
    /// The addressed layer is not registered with the engine.
    UnknownLayer(LayerId),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Kinesis(e) => write!(f, "kinesis: {e}"),
            EngineError::Storm(e) => write!(f, "storm: {e}"),
            EngineError::Dynamo(e) => write!(f, "dynamo: {e}"),
            EngineError::Cache(e) => write!(f, "cache: {e}"),
            EngineError::UnknownLayer(layer) => {
                write!(f, "no service registered for layer {layer}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The co-simulated flow: the paper's three layers, plus any optional
/// extension tiers, behind an ordered [`LayerService`] registry.
pub struct CloudEngine {
    config: EngineConfig,
    kinesis: KinesisStream,
    storm: StormCluster,
    dynamo: DynamoTable,
    cache: Option<CacheCluster>,
    metrics: MetricsStore,
    billing: BillingMeter,
    last_cost_total: f64,
    /// Fractional read items carried between ticks so the configured
    /// read rate holds exactly in the long run.
    read_carry: f64,
    /// Structured-event sink (disabled by default; near-free when off).
    recorder: Recorder,
}

impl CloudEngine {
    /// Build the engine from configuration.
    pub fn new(config: EngineConfig) -> CloudEngine {
        let kinesis = KinesisStream::new(config.kinesis.clone());
        let storm = StormCluster::new(config.storm.clone(), config.topology.clone());
        let dynamo = DynamoTable::new(config.dynamo.clone());
        let cache = config.cache.clone().map(CacheCluster::new);
        CloudEngine {
            config,
            kinesis,
            storm,
            dynamo,
            cache,
            metrics: MetricsStore::new(),
            billing: BillingMeter::new(),
            last_cost_total: 0.0,
            read_carry: 0.0,
            recorder: Recorder::disabled(),
        }
    }

    /// Attach a flight recorder; the engine emits [`kind::CLOUD_RESIZE`]
    /// and [`kind::CLOUD_THROTTLE`] events (plus per-layer gauges and
    /// counters) through it. Pass [`Recorder::disabled`] to detach.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The ingestion layer.
    pub fn kinesis(&self) -> &KinesisStream {
        &self.kinesis
    }

    /// The analytics layer.
    pub fn storm(&self) -> &StormCluster {
        &self.storm
    }

    /// The storage layer.
    pub fn dynamo(&self) -> &DynamoTable {
        &self.dynamo
    }

    /// The cache tier, when one is deployed.
    pub fn cache(&self) -> Option<&CacheCluster> {
        self.cache.as_ref()
    }

    /// The registered layer services, in ascending [`LayerId`] order.
    ///
    /// This order is the determinism contract everything downstream
    /// leans on: genome encodings, trace exports, and episode reports
    /// all iterate layers the way this registry yields them.
    pub fn services(&self) -> Vec<&dyn LayerService> {
        let mut services: Vec<&dyn LayerService> = vec![&self.kinesis, &self.storm, &self.dynamo];
        if let Some(cache) = &self.cache {
            services.push(cache);
        }
        services
    }

    /// The registered layers, in ascending [`LayerId`] order.
    pub fn layer_ids(&self) -> Vec<LayerId> {
        self.services().into_iter().map(LayerService::id).collect()
    }

    /// The service occupying `layer`, if registered.
    pub fn service(&self, layer: LayerId) -> Option<&dyn LayerService> {
        self.services().into_iter().find(|s| s.id() == layer)
    }

    fn service_mut(&mut self, layer: LayerId) -> Option<&mut dyn LayerService> {
        if LayerService::id(&self.kinesis) == layer {
            return Some(&mut self.kinesis);
        }
        if LayerService::id(&self.storm) == layer {
            return Some(&mut self.storm);
        }
        if LayerService::id(&self.dynamo) == layer {
            return Some(&mut self.dynamo);
        }
        match &mut self.cache {
            Some(cache) if LayerService::id(cache) == layer => Some(cache),
            _ => None,
        }
    }

    /// Units `layer` is converging to, if the engine answers for it: a
    /// registered layer, or [`STORAGE_READ`].
    pub fn target_units(&self, layer: LayerId) -> Option<f64> {
        if layer == STORAGE_READ {
            return Some(self.dynamo.target_rcu());
        }
        self.service(layer).map(LayerService::target_units)
    }

    /// Units `layer` currently has deployed, if the engine answers for
    /// it: a registered layer, or [`STORAGE_READ`].
    pub fn actuator_units(&self, layer: LayerId) -> Option<f64> {
        if layer == STORAGE_READ {
            return Some(self.dynamo.provisioned_rcu());
        }
        self.service(layer).map(LayerService::actuator_units)
    }

    /// Actuator: request a resize of `layer` to `target` units.
    ///
    /// The layer's own [`LayerService::quantize`] decides how the
    /// continuous command lands on the service's actuation grid, and
    /// the attempt is traced as a [`kind::CLOUD_RESIZE`] event under the
    /// layer's resource name. [`STORAGE_READ`] resizes the storage
    /// service's read capacity.
    pub fn actuate(
        &mut self,
        layer: LayerId,
        target: f64,
        now: SimTime,
    ) -> Result<(), EngineError> {
        let (from, to, result) = if layer == STORAGE_READ {
            let from = self.dynamo.provisioned_rcu();
            let result = self.dynamo.update_read_capacity(target, now);
            (from, target, result.map_err(EngineError::Dynamo))
        } else {
            let Some(service) = self.service(layer) else {
                return Err(EngineError::UnknownLayer(layer));
            };
            let from = service.actuator_units();
            let to = service.quantize(target);
            let result = match self.service_mut(layer) {
                Some(service) => service.actuate(target, now),
                None => Err(EngineError::UnknownLayer(layer)),
            };
            (from, to, result)
        };
        self.trace_resize(layer.resource(), from, to, &result, now);
        result
    }

    /// The metric store all layers publish into.
    pub fn metrics(&self) -> &MetricsStore {
        &self.metrics
    }

    /// The billing meter.
    pub fn billing(&self) -> &BillingMeter {
        &self.billing
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Emit a [`kind::CLOUD_RESIZE`] event for an actuation that changed
    /// something or was rejected (no-op re-assertions of the current
    /// size are not trace-worthy).
    fn trace_resize(
        &self,
        resource: &'static str,
        from: f64,
        to: f64,
        result: &Result<(), EngineError>,
        now: SimTime,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let accepted = result.is_ok();
        if accepted && from.to_bits() == to.to_bits() {
            return;
        }
        self.recorder.set_now(now);
        let mut fields: Vec<(&'static str, FieldValue)> = vec![
            ("accepted", accepted.into()),
            ("from", from.into()),
            ("resource", resource.into()),
            ("to", to.into()),
        ];
        if let Err(e) = result {
            fields.push(("error", e.to_string().into()));
        }
        self.recorder.emit(kind::CLOUD_RESIZE, &fields);
        self.recorder.count("cloud.resize_requests", 1);
        if !accepted {
            self.recorder.count("cloud.resize_rejections", 1);
        }
    }

    /// Advance the whole flow by one step of `dt`, feeding it the step's
    /// click records.
    pub fn tick(&mut self, records: &[ClickRecord], now: SimTime, dt: SimDuration) -> TickReport {
        // Layer 1: ingestion.
        let ingest = self.kinesis.ingest(records, now, dt);
        // Layer 2: analytics consumes what ingestion accepted.
        let process = self.storm.process(ingest.accepted, now, dt);
        // Layer 3: storage persists the emitted aggregates...
        let write = self
            .dynamo
            .write(process.emitted, self.config.aggregate_item_bytes, now, dt);
        // ...and serves the read traffic (dashboards + per-record
        // queries), through the cache tier when one is deployed: only
        // cache misses reach the table.
        let rw = &self.config.read_workload;
        let mut cache_outcome = None;
        let read = if rw.base_rate > 0.0 || rw.per_record > 0.0 {
            let demand = (rw.base_rate * dt.as_secs_f64() + rw.per_record * records.len() as f64)
                + self.read_carry;
            let items = demand.floor() as u64;
            self.read_carry = demand - items as f64;
            let table_items = match &mut self.cache {
                Some(cache) => {
                    let outcome = cache.serve(items, now, dt);
                    cache_outcome = Some(outcome);
                    outcome.misses
                }
                None => items,
            };
            self.dynamo.read(
                table_items,
                rw.avg_item_bytes,
                rw.eventually_consistent,
                now,
                dt,
            )
        } else {
            // No read traffic; still step the cache so in-flight fleet
            // resizes settle on time.
            if let Some(cache) = &mut self.cache {
                cache_outcome = Some(cache.serve(0, now, dt));
            }
            ReadOutcome::idle()
        };

        self.publish_metrics(now, records.len() as u64, &ingest, &process, &write, &read);
        self.publish_cache_metrics(now, cache_outcome.as_ref());
        self.trace_tick(now, &ingest, &process, &write, &read);

        // Billing: integrate held resources over the step.
        let prices = &self.config.prices;
        self.billing.accrue(
            prices,
            ResourceKind::Shard,
            self.kinesis.shards() as f64,
            dt,
        );
        self.billing.accrue(
            prices,
            ResourceKind::Vm,
            // Booting VMs bill too — you pay from launch, not from ready.
            self.storm.target_vms() as f64,
            dt,
        );
        self.billing.accrue(
            prices,
            ResourceKind::WriteCapacityUnit,
            self.dynamo.provisioned_wcu(),
            dt,
        );
        self.billing.accrue(
            prices,
            ResourceKind::ReadCapacityUnit,
            self.dynamo.provisioned_rcu(),
            dt,
        );
        if let Some(cache) = &self.cache {
            self.billing.accrue(
                prices,
                ResourceKind::CacheNode,
                // Like VMs, nodes bill from launch, not from ready.
                f64::from(cache.target_nodes()),
                dt,
            );
        }
        self.billing.accrue_put_records(prices, ingest.accepted);

        let cost = self.billing.total() - self.last_cost_total;
        self.last_cost_total = self.billing.total();

        TickReport {
            at: now,
            ingest,
            process,
            write,
            read,
            cache: cache_outcome,
            cost,
        }
    }

    /// Trace-side view of a tick: one [`kind::CLOUD_THROTTLE`] event per
    /// layer that throttled/dropped work, plus rolling counters, layer
    /// gauges, and a CPU histogram. One branch and no allocation when
    /// the recorder is disabled.
    fn trace_tick(
        &self,
        now: SimTime,
        ingest: &IngestOutcome,
        process: &ProcessOutcome,
        write: &WriteOutcome,
        read: &ReadOutcome,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.recorder.set_now(now);
        let throttles: [(&'static str, u64); 3] = [
            ("ingestion", ingest.throttled),
            ("storage", write.throttled),
            ("storage_read", read.throttled),
        ];
        for (layer, count) in throttles {
            if count > 0 {
                self.recorder.emit(
                    kind::CLOUD_THROTTLE,
                    &[("count", count.into()), ("layer", layer.into())],
                );
                self.recorder.count("cloud.throttled_records", count);
            }
        }
        self.recorder.count("cloud.ticks", 1);
        self.recorder
            .gauge("cloud.shards", f64::from(self.kinesis.shards()));
        self.recorder
            .gauge("cloud.vms", f64::from(self.storm.running_vms()));
        self.recorder
            .gauge("cloud.wcu", self.dynamo.provisioned_wcu());
        self.recorder
            .gauge("cloud.rcu", self.dynamo.provisioned_rcu());
        if let Some(cache) = &self.cache {
            self.recorder
                .gauge("cloud.cache_nodes", f64::from(cache.nodes()));
        }
        self.recorder.observe("cloud.cpu_pct", process.cpu_pct);
    }

    /// Publish the cache tier's metrics for the tick, when deployed.
    fn publish_cache_metrics(&mut self, now: SimTime, outcome: Option<&CacheOutcome>) {
        use metric_names::*;
        let Some(cache) = &self.cache else { return };
        let Some(outcome) = outcome else { return };
        let name = cache.name().to_owned();
        let nodes = cache.nodes();
        let m = &mut self.metrics;
        m.put(
            MetricId::new(NS_CACHE, CACHE_REQUESTS, &name),
            now,
            outcome.requests as f64,
        );
        m.put(
            MetricId::new(NS_CACHE, CACHE_HIT_RATIO, &name),
            now,
            outcome.hit_ratio,
        );
        m.put(
            MetricId::new(NS_CACHE, CACHE_UTILIZATION, &name),
            now,
            outcome.utilization,
        );
        m.put(
            MetricId::new(NS_CACHE, CACHE_NODES, &name),
            now,
            f64::from(nodes),
        );
    }

    fn publish_metrics(
        &mut self,
        now: SimTime,
        offered: u64,
        ingest: &IngestOutcome,
        process: &ProcessOutcome,
        write: &WriteOutcome,
        read: &ReadOutcome,
    ) {
        use metric_names::*;
        let stream = self.kinesis.name().to_owned();
        let cluster = self.storm.name().to_owned();
        let table = self.dynamo.name().to_owned();
        let m = &mut self.metrics;

        m.put(
            MetricId::new(NS_KINESIS, INCOMING_RECORDS, &stream),
            now,
            offered as f64,
        );
        m.put(
            MetricId::new(NS_KINESIS, WRITE_THROTTLED, &stream),
            now,
            ingest.throttled as f64,
        );
        m.put(
            MetricId::new(NS_KINESIS, SHARD_UTILIZATION, &stream),
            now,
            ingest.utilization,
        );
        m.put(
            MetricId::new(NS_KINESIS, OPEN_SHARDS, &stream),
            now,
            self.kinesis.shards() as f64,
        );
        m.put(
            MetricId::new(NS_KINESIS, MAX_SHARD_UTILIZATION, &stream),
            now,
            ingest.max_shard_utilization,
        );

        m.put(
            MetricId::new(NS_STORM, CPU_UTILIZATION, &cluster),
            now,
            process.cpu_pct,
        );
        m.put(
            MetricId::new(NS_STORM, TUPLES_PROCESSED, &cluster),
            now,
            process.processed as f64,
        );
        m.put(
            MetricId::new(NS_STORM, BACKLOG, &cluster),
            now,
            process.backlog as f64,
        );
        m.put(
            MetricId::new(NS_STORM, PROCESS_LATENCY, &cluster),
            now,
            process.latency_secs,
        );
        m.put(
            MetricId::new(NS_STORM, RUNNING_VMS, &cluster),
            now,
            self.storm.running_vms() as f64,
        );

        m.put(
            MetricId::new(NS_DYNAMO, CONSUMED_WCU, &table),
            now,
            write.consumed_wcu,
        );
        m.put(
            MetricId::new(NS_DYNAMO, DYNAMO_THROTTLED, &table),
            now,
            write.throttled as f64,
        );
        m.put(
            MetricId::new(NS_DYNAMO, WRITE_UTILIZATION, &table),
            now,
            write.utilization,
        );
        m.put(
            MetricId::new(NS_DYNAMO, PROVISIONED_WCU, &table),
            now,
            self.dynamo.provisioned_wcu(),
        );
        m.put(
            MetricId::new(NS_DYNAMO, CONSUMED_RCU, &table),
            now,
            read.consumed_rcu,
        );
        m.put(
            MetricId::new(NS_DYNAMO, DYNAMO_READ_THROTTLED, &table),
            now,
            read.throttled as f64,
        );
        m.put(
            MetricId::new(NS_DYNAMO, READ_UTILIZATION, &table),
            now,
            read.utilization,
        );
        m.put(
            MetricId::new(NS_DYNAMO, PROVISIONED_RCU, &table),
            now,
            self.dynamo.provisioned_rcu(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ANALYTICS, CACHE, INGESTION, STORAGE};
    use crate::metrics::Statistic;
    use flower_sim::SimRng;
    use flower_workload::{ClickStreamConfig, ClickStreamGenerator, ConstantRate};

    fn engine() -> CloudEngine {
        CloudEngine::new(EngineConfig::default())
    }

    fn run_constant(engine: &mut CloudEngine, rate: f64, secs: u64, seed: u64) -> Vec<TickReport> {
        let mut generator =
            ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed));
        let mut process = ConstantRate::new(rate);
        let dt = SimDuration::from_secs(1);
        (0..secs)
            .map(|s| {
                let now = SimTime::from_secs(s);
                let records = generator.tick(&mut process, now, 1.0);
                engine.tick(&records, now, dt)
            })
            .collect()
    }

    #[test]
    fn layers_are_chained() {
        let mut e = engine();
        let reports = run_constant(&mut e, 1_000.0, 30, 1);
        let last = reports.last().unwrap();
        assert!(last.ingest.accepted > 0);
        assert!(last.process.processed > 0);
        // Aggregation 50:1 means some ticks write 15-25 items.
        let total_written: u64 = reports.iter().map(|r| r.write.written).sum();
        let total_processed: u64 = reports.iter().map(|r| r.process.processed).sum();
        let ratio = total_written as f64 / total_processed as f64;
        assert!((ratio - 0.02).abs() < 0.005, "aggregation ratio {ratio}");
    }

    #[test]
    fn metrics_are_published_every_tick() {
        let mut e = engine();
        run_constant(&mut e, 500.0, 10, 2);
        let m = e.metrics();
        assert_eq!(m.list_namespace("AWS/Kinesis").len(), 5);
        assert_eq!(m.list_namespace("Storm").len(), 5);
        assert_eq!(m.list_namespace("AWS/DynamoDB").len(), 8);
        let id = MetricId::new("Storm", "CpuUtilization", "storm-cluster");
        let count = m
            .window_stat(
                &id,
                Statistic::SampleCount,
                SimTime::ZERO,
                SimTime::from_secs(10),
            )
            .unwrap();
        assert_eq!(count, 10.0);
    }

    #[test]
    fn cpu_tracks_arrival_rate() {
        // The Fig. 2 dependency: higher arrival rate → higher CPU.
        let mut low = engine();
        let low_reports = run_constant(&mut low, 500.0, 20, 3);
        let mut high = engine();
        let high_reports = run_constant(&mut high, 1_800.0, 20, 3);
        let avg =
            |rs: &[TickReport]| rs.iter().map(|r| r.process.cpu_pct).sum::<f64>() / rs.len() as f64;
        assert!(
            avg(&high_reports) > avg(&low_reports) + 15.0,
            "low={}, high={}",
            avg(&low_reports),
            avg(&high_reports)
        );
    }

    #[test]
    fn cost_accrues_every_tick() {
        let mut e = engine();
        let reports = run_constant(&mut e, 100.0, 60, 4);
        assert!(reports.iter().all(|r| r.cost > 0.0));
        let total: f64 = reports.iter().map(|r| r.cost).sum();
        assert!((total - e.billing().total()).abs() < 1e-9);
        // 1 minute of 2 shards + 2 VMs + 100 WCU + 50 RCU ≈
        // (2·0.015 + 2·0.10 + 100·0.00065 + 50·0.00013)/60 ≈ $0.005.
        assert!(total > 0.003 && total < 0.01, "total=${total}");
    }

    #[test]
    fn actuators_reach_all_layers() {
        let mut e = engine();
        e.actuate(INGESTION, 6.0, SimTime::ZERO).unwrap();
        e.actuate(ANALYTICS, 5.0, SimTime::ZERO).unwrap();
        e.actuate(STORAGE, 700.0, SimTime::ZERO).unwrap();
        // Read capacity is an actuator of the storage service, not a
        // registered layer of its own.
        assert!(!e.layer_ids().contains(&STORAGE_READ));
        e.actuate(STORAGE_READ, 120.0, SimTime::ZERO).unwrap();
        assert_eq!(e.actuator_units(STORAGE_READ), Some(50.0));
        assert_eq!(e.target_units(STORAGE_READ), Some(120.0));
        // Advance past every latency (VM boot = 60 s).
        run_constant(&mut e, 10.0, 61, 5);
        assert_eq!(e.kinesis().shards(), 6);
        assert_eq!(e.storm().running_vms(), 5);
        assert_eq!(e.dynamo().provisioned_wcu(), 700.0);
    }

    #[test]
    fn actuator_errors_are_typed() {
        let mut e = engine();
        assert!(matches!(
            e.actuate(INGESTION, 0.0, SimTime::ZERO),
            Err(EngineError::Kinesis(_))
        ));
        assert!(matches!(
            e.actuate(ANALYTICS, 0.0, SimTime::ZERO),
            Err(EngineError::Storm(_))
        ));
        assert!(matches!(
            e.actuate(STORAGE, 0.0, SimTime::ZERO),
            Err(EngineError::Dynamo(_))
        ));
        assert!(matches!(
            e.actuate(STORAGE_READ, 0.0, SimTime::ZERO),
            Err(EngineError::Dynamo(_))
        ));
        assert_eq!(
            e.actuate(CACHE, 2.0, SimTime::ZERO),
            Err(EngineError::UnknownLayer(CACHE)),
            "no cache tier deployed"
        );
    }

    #[test]
    fn overload_shows_up_across_layers() {
        // Tiny deployment, heavy load: ingestion throttles, analytics
        // saturates, and the backlog throttles the arrival the storage
        // layer sees.
        let mut e = CloudEngine::new(EngineConfig {
            kinesis: KinesisConfig {
                initial_shards: 4,
                ..Default::default()
            },
            storm: StormConfig {
                initial_vms: 1,
                ..Default::default()
            },
            dynamo: DynamoConfig {
                initial_wcu: 5.0,
                ..Default::default()
            },
            ..Default::default()
        });
        let reports = run_constant(&mut e, 6_000.0, 30, 6);
        let last = reports.last().unwrap();
        assert!(last.ingest.throttled > 0, "kinesis should throttle");
        assert!(last.process.cpu_pct > 99.0, "storm should saturate");
        let any_dynamo_throttle = reports.iter().any(|r| r.write.throttled > 0);
        assert!(any_dynamo_throttle, "dynamo should throttle eventually");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut e1 = engine();
        let r1 = run_constant(&mut e1, 800.0, 20, 7);
        let mut e2 = engine();
        let r2 = run_constant(&mut e2, 800.0, 20, 7);
        assert_eq!(r1, r2);
    }

    #[test]
    fn traced_engine_emits_resize_and_throttle_events() {
        let rec = Recorder::with_capacity(1 << 12);
        let mut e = CloudEngine::new(EngineConfig {
            kinesis: KinesisConfig {
                initial_shards: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        e.set_recorder(rec.clone());
        // A real change and a rejected change both trace; a no-op does not.
        e.actuate(INGESTION, 4.0, SimTime::ZERO).unwrap();
        e.actuate(ANALYTICS, f64::from(e.storm().target_vms()), SimTime::ZERO)
            .unwrap();
        assert!(e.actuate(STORAGE, 0.0, SimTime::ZERO).is_err());
        e.actuate(STORAGE_READ, 80.0, SimTime::ZERO).unwrap();
        // Overload a tiny deployment so throttling shows up.
        run_constant(&mut e, 6_000.0, 10, 11);
        let events = rec.events();
        let resizes: Vec<_> = events
            .iter()
            .filter(|ev| ev.kind == kind::CLOUD_RESIZE)
            .collect();
        assert_eq!(resizes.len(), 3, "no-op vm resize must not trace");
        assert_eq!(resizes[0].str("resource"), Some("shards"));
        assert_eq!(resizes[0].f64("to"), Some(4.0));
        assert_eq!(resizes[1].str("resource"), Some("wcu"));
        assert!(resizes[1].str("error").is_some());
        assert_eq!(resizes[2].str("resource"), Some("rcu"));
        assert_eq!(resizes[2].f64("to"), Some(80.0));
        assert!(
            events
                .iter()
                .any(|ev| ev.kind == kind::CLOUD_THROTTLE && ev.str("layer") == Some("ingestion")),
            "overload must emit ingestion throttle events"
        );
        assert_eq!(rec.counter("cloud.ticks"), 10);
        assert!(rec.counter("cloud.throttled_records") > 0);
        assert_eq!(rec.counter("cloud.resize_rejections"), 1);
        assert!(rec.gauge_value("cloud.shards").is_some());
        assert!(rec
            .histogram("cloud.cpu_pct")
            .is_some_and(|h| h.count == 10));
    }

    #[test]
    fn disabled_recorder_changes_nothing() {
        // A tick stream with the default (disabled) recorder matches one
        // with an enabled recorder attached: tracing is observational.
        let mut plain = engine();
        let r1 = run_constant(&mut plain, 800.0, 15, 9);
        let mut traced = engine();
        traced.set_recorder(Recorder::with_capacity(64));
        let r2 = run_constant(&mut traced, 800.0, 15, 9);
        assert_eq!(r1, r2);
    }
}
