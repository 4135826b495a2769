//! An ElastiCache-like read cache (the fourth, extension tier).
//!
//! The paper's demo flow has three layers, but Flower's architecture is
//! layer-generic — this simulator exists to prove it. A cache cluster
//! sits on the storage *read* path: read requests hit the cache first,
//! and only the misses fall through to DynamoDB. Its scaled resource is
//! the node count, with the usual control-relevant dynamics:
//!
//! * each node serves a fixed read rate and holds a fixed number of
//!   items, so the achievable hit ratio grows with the fleet until the
//!   working set fits (capped by `max_hit_ratio` for the compulsory
//!   miss floor);
//! * resizing the fleet is not instantaneous and concurrent resizes are
//!   rejected, like a cluster in a `modifying` state.

use flower_sim::{SimDuration, SimTime};

use crate::engine::{metric_names, EngineError, TickReport};
use crate::layer::{LayerId, LayerService, SensorProbe, CACHE};
use crate::metrics::{MetricId, Statistic};

/// Static configuration of a simulated cache cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Cluster name (metric dimension).
    pub name: String,
    /// Initial number of cache nodes.
    pub initial_nodes: u32,
    /// Per-node read service rate (requests/second).
    pub reads_per_node_sec: f64,
    /// Items one node can hold.
    pub items_per_node: f64,
    /// Size of the hot working set the reads draw from, in items.
    pub working_set_items: f64,
    /// Hit-ratio ceiling (compulsory misses keep it below 1).
    pub max_hit_ratio: f64,
    /// Time a fleet resize takes to complete.
    pub resize_latency: SimDuration,
    /// Upper bound on node count (account limit).
    pub max_nodes: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            name: "hot-aggregates".to_owned(),
            initial_nodes: 1,
            reads_per_node_sec: 2_000.0,
            items_per_node: 1_000_000.0,
            working_set_items: 4_000_000.0,
            max_hit_ratio: 0.95,
            resize_latency: SimDuration::from_secs(60),
            max_nodes: 20,
        }
    }
}

/// Result of one cache step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheOutcome {
    /// Read requests offered to the cache this step.
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that fell through to the backing store.
    pub misses: u64,
    /// Offered read rate over fleet service capacity, in `[0, ∞)`.
    pub utilization: f64,
    /// The hit ratio in effect this step, in `[0, 1]`.
    pub hit_ratio: f64,
}

impl CacheOutcome {
    /// A step with no read traffic.
    pub fn idle() -> CacheOutcome {
        CacheOutcome {
            requests: 0,
            hits: 0,
            misses: 0,
            utilization: 0.0,
            hit_ratio: 0.0,
        }
    }
}

/// Errors from cache control-plane operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A fleet resize is already in flight.
    ResizeInProgress,
    /// Target node count out of `[1, max_nodes]`.
    InvalidNodeCount {
        /// The rejected target.
        requested: u32,
        /// The account limit.
        max: u32,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::ResizeInProgress => write!(f, "cluster is modifying; resize in progress"),
            CacheError::InvalidNodeCount { requested, max } => {
                write!(f, "invalid node count {requested} (allowed 1..={max})")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// The simulated cache cluster.
#[derive(Debug, Clone)]
pub struct CacheCluster {
    config: CacheConfig,
    nodes: u32,
    pending_resize: Option<(u32, SimTime)>,
    total_requests: u64,
    total_hits: u64,
    total_misses: u64,
    resize_count: u64,
}

impl CacheCluster {
    /// Create a cluster per `config`.
    pub fn new(config: CacheConfig) -> CacheCluster {
        assert!(config.initial_nodes >= 1, "need at least one node");
        assert!(config.initial_nodes <= config.max_nodes);
        assert!(config.reads_per_node_sec > 0.0 && config.items_per_node > 0.0);
        assert!(config.working_set_items > 0.0);
        assert!((0.0..=1.0).contains(&config.max_hit_ratio));
        CacheCluster {
            nodes: config.initial_nodes,
            config,
            pending_resize: None,
            total_requests: 0,
            total_hits: 0,
            total_misses: 0,
            resize_count: 0,
        }
    }

    /// Cluster name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Currently running nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The resize target, when one is in flight.
    pub fn pending_resize(&self) -> Option<(u32, SimTime)> {
        self.pending_resize
    }

    /// The node count the cluster is converging to.
    pub fn target_nodes(&self) -> u32 {
        self.pending_resize.map(|(t, _)| t).unwrap_or(self.nodes)
    }

    /// Lifetime counters: `(requests, hits, misses, resizes)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.total_requests,
            self.total_hits,
            self.total_misses,
            self.resize_count,
        )
    }

    /// The hit ratio the current fleet achieves on the working set.
    pub fn hit_ratio(&self) -> f64 {
        let coverage =
            self.nodes as f64 * self.config.items_per_node / self.config.working_set_items;
        self.config.max_hit_ratio.min(coverage)
    }

    /// Request a fleet resize to `target` nodes at `now`; takes effect
    /// after `resize_latency`. Requesting the current count is a no-op.
    pub fn set_node_target(&mut self, target: u32, now: SimTime) -> Result<(), CacheError> {
        self.settle_resize(now);
        if target == self.nodes && self.pending_resize.is_none() {
            return Ok(());
        }
        if self.pending_resize.is_some() {
            return Err(CacheError::ResizeInProgress);
        }
        if target < 1 || target > self.config.max_nodes {
            return Err(CacheError::InvalidNodeCount {
                requested: target,
                max: self.config.max_nodes,
            });
        }
        self.pending_resize = Some((target, now + self.config.resize_latency));
        Ok(())
    }

    fn settle_resize(&mut self, now: SimTime) {
        if let Some((target, ready_at)) = self.pending_resize {
            if now >= ready_at {
                self.nodes = target;
                self.pending_resize = None;
                self.resize_count += 1;
            }
        }
    }

    /// Serve `requests` read requests spanning a step of `dt`.
    ///
    /// Requests beyond the fleet's service capacity bypass the cache
    /// (they count as misses), so an undersized fleet shows up both as
    /// utilization above 1 and as extra load on the backing store.
    pub fn serve(&mut self, requests: u64, now: SimTime, dt: SimDuration) -> CacheOutcome {
        self.settle_resize(now);
        let dt_secs = dt.as_secs_f64();
        assert!(dt_secs > 0.0, "cache step must have positive length");
        let capacity_rate = self.nodes as f64 * self.config.reads_per_node_sec;
        let capacity = (capacity_rate * dt_secs).floor() as u64;
        let hit_ratio = self.hit_ratio();
        let served = requests.min(capacity);
        let hits = (served as f64 * hit_ratio).floor() as u64;
        let misses = requests - hits;
        let utilization = (requests as f64 / dt_secs) / capacity_rate;
        self.total_requests += requests;
        self.total_hits += hits;
        self.total_misses += misses;
        CacheOutcome {
            requests,
            hits,
            misses,
            utilization,
            hit_ratio,
        }
    }
}

impl LayerService for CacheCluster {
    fn id(&self) -> LayerId {
        CACHE
    }

    fn actuator_units(&self) -> f64 {
        f64::from(self.nodes)
    }

    fn target_units(&self) -> f64 {
        f64::from(self.target_nodes())
    }

    fn max_units(&self) -> f64 {
        f64::from(self.config.max_nodes)
    }

    fn quantize(&self, target: f64) -> f64 {
        f64::from(target as u32)
    }

    fn actuate(&mut self, target: f64, now: SimTime) -> Result<(), EngineError> {
        self.set_node_target(target as u32, now)
            .map_err(EngineError::Cache)
    }

    fn utilization_sensor(&self) -> SensorProbe {
        SensorProbe {
            metric: MetricId::new(
                metric_names::NS_CACHE,
                metric_names::CACHE_UTILIZATION,
                self.name(),
            ),
            statistic: Statistic::Average,
            scale: 100.0,
        }
    }

    fn measurement(&self, tick: &TickReport) -> Option<f64> {
        tick.cache.map(|c| c.utilization * 100.0)
    }

    fn headline_metrics(&self) -> Vec<MetricId> {
        use metric_names::*;
        [
            CACHE_REQUESTS,
            CACHE_HIT_RATIO,
            CACHE_UTILIZATION,
            CACHE_NODES,
        ]
        .into_iter()
        .map(|m| MetricId::new(NS_CACHE, m, self.name()))
        .collect()
    }

    // No default alarm: the cache's hit ratio has never been alarmed on,
    // and registering one would add events to every traced 4-layer
    // episode.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: u32) -> CacheCluster {
        CacheCluster::new(CacheConfig {
            initial_nodes: nodes,
            ..Default::default()
        })
    }

    #[test]
    fn hit_ratio_grows_with_fleet_until_capped() {
        // 1M items/node over a 4M working set: 25% per node, capped 95%.
        assert_eq!(cluster(1).hit_ratio(), 0.25);
        assert_eq!(cluster(3).hit_ratio(), 0.75);
        assert_eq!(cluster(8).hit_ratio(), 0.95);
    }

    #[test]
    fn serve_splits_hits_and_misses() {
        let mut c = cluster(2); // 50% hit ratio, 4,000 req/s capacity
        let out = c.serve(1_000, SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(out.requests, 1_000);
        assert_eq!(out.hits, 500);
        assert_eq!(out.misses, 500);
        assert_eq!(out.hits + out.misses, out.requests);
        assert_eq!(out.utilization, 0.25);
        let (req, hits, misses, _) = c.counters();
        assert_eq!((req, hits, misses), (1_000, 500, 500));
    }

    #[test]
    fn overload_bypasses_to_the_backing_store() {
        let mut c = cluster(1); // 2,000 req/s capacity, 25% hit ratio
        let out = c.serve(6_000, SimTime::ZERO, SimDuration::from_secs(1));
        // Only the served fraction can hit; the rest miss through.
        assert_eq!(out.hits, 500);
        assert_eq!(out.misses, 5_500);
        assert!(out.utilization > 2.9);
    }

    #[test]
    fn resize_takes_effect_after_latency() {
        let mut c = cluster(1);
        c.set_node_target(4, SimTime::ZERO).unwrap();
        assert_eq!(c.nodes(), 1, "not yet effective");
        assert_eq!(c.target_nodes(), 4);
        c.serve(100, SimTime::from_secs(30), SimDuration::from_secs(1));
        assert_eq!(c.nodes(), 1);
        c.serve(100, SimTime::from_secs(60), SimDuration::from_secs(1));
        assert_eq!(c.nodes(), 4);
        assert!(c.pending_resize().is_none());
        assert_eq!(c.counters().3, 1);
    }

    #[test]
    fn concurrent_resize_rejected_and_bounds_enforced() {
        let mut c = cluster(1);
        c.set_node_target(2, SimTime::ZERO).unwrap();
        assert_eq!(
            c.set_node_target(3, SimTime::from_secs(1)),
            Err(CacheError::ResizeInProgress)
        );
        let mut c = cluster(1);
        assert!(matches!(
            c.set_node_target(0, SimTime::ZERO),
            Err(CacheError::InvalidNodeCount { .. })
        ));
        assert!(matches!(
            c.set_node_target(10_000, SimTime::ZERO),
            Err(CacheError::InvalidNodeCount { .. })
        ));
        c.set_node_target(1, SimTime::ZERO).unwrap();
        assert!(c.pending_resize().is_none(), "same-count resize is a no-op");
    }

    #[test]
    fn layer_service_contract() {
        let c = cluster(2);
        assert_eq!(LayerService::id(&c), CACHE);
        assert_eq!(c.actuator_units(), 2.0);
        assert_eq!(c.max_units(), 20.0);
        assert_eq!(c.quantize(3.7), 3.0);
        let probe = c.utilization_sensor();
        assert_eq!(probe.metric.metric, metric_names::CACHE_UTILIZATION);
        assert_eq!(probe.scale, 100.0);
        assert_eq!(c.headline_metrics().len(), 4);
        assert!(c.default_alarm().is_none());
    }
}
