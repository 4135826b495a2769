//! The open layer registry: [`LayerId`], [`LayerService`], and
//! [`ResourceVector`].
//!
//! Flower's architecture (§3) is layer-generic — dependency analysis,
//! NSGA-II share search, and per-layer adaptive controllers are defined
//! over an arbitrary set of layers. This module is the substrate for
//! that generality: a layer is an identity ([`LayerId`]) plus a service
//! behind a uniform trait ([`LayerService`]), and a resource plan is a
//! vector indexed by layer ([`ResourceVector`]) instead of a hard-wired
//! `{shards, vms, wcu}` triple.
//!
//! # Determinism rules
//!
//! Everything downstream (NSGA-II genome encoding, JSONL traces, CSV
//! exports) iterates layers in **ascending [`LayerId`] order**, which is
//! position-major. Registry iteration must therefore be reproducible:
//!
//! * a [`LayerId`]'s `position` is part of its public identity and must
//!   never change once traces reference it (stability policy: positions
//!   0–2 are the paper's layers, 3+ are extensions, and a position is
//!   never reused for a different tier);
//! * [`ResourceVector`] keeps its entries sorted by layer at all times;
//! * `CloudEngine` yields services in ascending layer order.

use flower_sim::{SimDuration, SimTime};

use crate::alarms::Alarm;
use crate::engine::{EngineError, TickReport};
use crate::metrics::{MetricId, MetricsStore, Statistic};

/// Identity of one layer in a data analytics flow.
///
/// A `LayerId` is a value, not an enum variant: any crate can mint new
/// layers with [`LayerId::new`] without touching this one. The derived
/// ordering is position-major (the `position` field is declared first),
/// which is what fixes registry iteration order, genome encoding order,
/// and the flow direction used by dependency analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId {
    position: u8,
    name: &'static str,
    resource: &'static str,
    resource_unit: &'static str,
    symbol: &'static str,
}

/// The paper's ingestion layer (position 0).
pub const INGESTION: LayerId = LayerId::new(0, "ingestion", "shards", "shards", "I");
/// The paper's analytics layer (position 1).
pub const ANALYTICS: LayerId = LayerId::new(1, "analytics", "vms", "VMs", "A");
/// The paper's storage layer (position 2).
pub const STORAGE: LayerId = LayerId::new(2, "storage", "wcu", "write capacity units", "S");
/// The cache tier extension layer (position 3).
pub const CACHE: LayerId = LayerId::new(3, "cache", "cache_nodes", "cache nodes", "C");
/// The storage layer's read capacity (position 4). An actuator of the
/// storage service, not a registered service of its own: the engine
/// answers for it, but it is absent from `CloudEngine::layer_ids`.
pub const STORAGE_READ: LayerId =
    LayerId::new(4, "storage_read", "rcu", "read capacity units", "R");

impl LayerId {
    /// The three layers of the paper's demo flow, in flow order.
    pub const ALL: [LayerId; 3] = [INGESTION, ANALYTICS, STORAGE];

    /// Compat aliases so call sites read `Layer::INGESTION`.
    pub const INGESTION: LayerId = INGESTION;
    /// See [`ANALYTICS`].
    pub const ANALYTICS: LayerId = ANALYTICS;
    /// See [`STORAGE`].
    pub const STORAGE: LayerId = STORAGE;
    /// See [`CACHE`].
    pub const CACHE: LayerId = CACHE;
    /// See [`STORAGE_READ`].
    pub const STORAGE_READ: LayerId = STORAGE_READ;

    /// Mint a new layer identity.
    ///
    /// `position` fixes where the layer sorts relative to others (and
    /// therefore its place in genome encodings and registry iteration);
    /// `name` is the human label used in traces and tables; `resource`
    /// is the snake_case key used for trace fields and plan columns;
    /// `resource_unit` is the prose unit; `symbol` is the short
    /// algebraic symbol used in constraint labels (`r_I <= 5*r_A`).
    pub const fn new(
        position: u8,
        name: &'static str,
        resource: &'static str,
        resource_unit: &'static str,
        symbol: &'static str,
    ) -> LayerId {
        LayerId {
            position,
            name,
            resource,
            resource_unit,
            symbol,
        }
    }

    /// Sort position in the flow (0 = most upstream).
    pub const fn position(self) -> u8 {
        self.position
    }

    /// Human-readable label, e.g. `"ingestion"`.
    pub const fn label(self) -> &'static str {
        self.name
    }

    /// The snake_case resource key used in traces and plans, e.g.
    /// `"shards"`.
    pub const fn resource(self) -> &'static str {
        self.resource
    }

    /// The unit of the scaled resource, e.g. `"write capacity units"`.
    pub const fn resource_unit(self) -> &'static str {
        self.resource_unit
    }

    /// Short algebraic symbol for constraint labels, e.g. `"I"`.
    pub const fn symbol(self) -> &'static str {
        self.symbol
    }
}

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

/// How to read a layer's utilization signal from the metric store.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorProbe {
    /// The metric to read.
    pub metric: MetricId,
    /// The statistic to aggregate the window with.
    pub statistic: Statistic,
    /// Multiplier applied to the statistic (e.g. 100 for a fraction
    /// published in `[0, 1]` that the controller wants in percent).
    pub scale: f64,
}

impl SensorProbe {
    /// Read the probe over `[now − window, now)`. `None` when the window
    /// holds no datapoints yet.
    pub fn read(&self, store: &MetricsStore, now: SimTime, window: SimDuration) -> Option<f64> {
        store
            .window_stat(&self.metric, self.statistic, now - window, now)
            .map(|v| v * self.scale)
    }
}

/// Uniform control-plane interface over one simulated layer service.
///
/// Implemented by [`KinesisStream`](crate::KinesisStream),
/// [`StormCluster`](crate::StormCluster),
/// [`DynamoTable`](crate::DynamoTable) and
/// [`CacheCluster`](crate::CacheCluster); external crates can add their
/// own tiers the same way. All methods must be deterministic functions
/// of the service state — no ambient clocks or randomness.
pub trait LayerService {
    /// The layer this service occupies.
    fn id(&self) -> LayerId;

    /// Units currently deployed, as the actuator trace reports them.
    ///
    /// This is the `from` side of a resize event and the baseline the
    /// episode's actuator trace records each tick.
    fn actuator_units(&self) -> f64;

    /// Units the service is converging to (pending target if a resize
    /// is in flight, else the deployed amount). Used to re-synchronize
    /// a controller whose command was rejected.
    fn target_units(&self) -> f64;

    /// Largest admissible resource amount (account limit).
    fn max_units(&self) -> f64;

    /// Project a continuous controller command onto the service's
    /// actuation grid (e.g. whole shards). Must match what
    /// [`LayerService::actuate`] will actually request, so the resize
    /// trace records the true `to` value.
    fn quantize(&self, target: f64) -> f64 {
        target
    }

    /// Request a resize to `target` units at `now`.
    fn actuate(&mut self, target: f64, now: SimTime) -> Result<(), EngineError>;

    /// The utilization signal a controller for this layer should watch.
    fn utilization_sensor(&self) -> SensorProbe;

    /// This layer's utilization measurement for one completed tick, in
    /// percent. `None` when the tick carries no signal for the layer.
    fn measurement(&self, tick: &TickReport) -> Option<f64>;

    /// The metrics a cross-platform monitor should register for this
    /// layer, in display order.
    fn headline_metrics(&self) -> Vec<MetricId>;

    /// A service-recommended alarm on its own health signal, if any.
    fn default_alarm(&self) -> Option<Alarm> {
        None
    }
}

/// A resource amount per layer — the N-layer generalization of the
/// paper's `(shards, vms, wcu)` triple.
///
/// Entries are kept sorted by ascending [`LayerId`] so that iteration
/// order (and everything serialized from it) is deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResourceVector {
    entries: Vec<(LayerId, f64)>,
}

impl ResourceVector {
    /// An empty vector.
    pub fn new() -> ResourceVector {
        ResourceVector::default()
    }

    /// Build from `(layer, units)` pairs; later pairs win on duplicate
    /// layers, and the result is sorted by layer.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (LayerId, f64)>) -> ResourceVector {
        let mut v = ResourceVector::new();
        for (layer, units) in pairs {
            v.set(layer, units);
        }
        v
    }

    /// Set the amount for `layer`, inserting or replacing.
    pub fn set(&mut self, layer: LayerId, units: f64) {
        match self.entries.binary_search_by(|(l, _)| l.cmp(&layer)) {
            Ok(i) => self.entries[i].1 = units,
            Err(i) => self.entries.insert(i, (layer, units)),
        }
    }

    /// The amount for `layer`, if present.
    pub fn get(&self, layer: LayerId) -> Option<f64> {
        self.entries
            .binary_search_by(|(l, _)| l.cmp(&layer))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// The amount for `layer`, defaulting to zero for absent layers.
    pub fn of(&self, layer: LayerId) -> f64 {
        self.get(layer).unwrap_or(0.0)
    }

    /// Iterate `(layer, units)` in ascending layer order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The layers present, in ascending order.
    pub fn layers(&self) -> impl Iterator<Item = LayerId> + '_ {
        self.entries.iter().map(|&(l, _)| l)
    }

    /// Number of layers present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no layer is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(LayerId, f64)> for ResourceVector {
    fn from_iter<T: IntoIterator<Item = (LayerId, f64)>>(iter: T) -> ResourceVector {
        ResourceVector::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layers_sort_in_flow_order() {
        assert!(INGESTION < ANALYTICS && ANALYTICS < STORAGE && STORAGE < CACHE);
        assert_eq!(LayerId::ALL, [INGESTION, ANALYTICS, STORAGE]);
        assert_eq!(LayerId::INGESTION, INGESTION);
    }

    #[test]
    fn layer_metadata_is_stable() {
        assert_eq!(INGESTION.label(), "ingestion");
        assert_eq!(INGESTION.resource(), "shards");
        assert_eq!(ANALYTICS.resource_unit(), "VMs");
        assert_eq!(STORAGE.symbol(), "S");
        assert_eq!(CACHE.position(), 3);
        assert_eq!(format!("{STORAGE}"), "storage");
        assert!(CACHE < STORAGE_READ);
        assert_eq!(STORAGE_READ.resource(), "rcu");
    }

    #[test]
    fn custom_layers_slot_into_the_order() {
        let edge = LayerId::new(4, "edge", "pods", "pods", "E");
        assert!(CACHE < edge);
        assert_eq!(edge.label(), "edge");
    }

    #[test]
    fn vector_stays_sorted_and_last_write_wins() {
        let mut v = ResourceVector::new();
        v.set(STORAGE, 100.0);
        v.set(INGESTION, 2.0);
        v.set(STORAGE, 214.0);
        let layers: Vec<_> = v.layers().collect();
        assert_eq!(layers, vec![INGESTION, STORAGE]);
        assert_eq!(v.of(STORAGE), 214.0);
        assert_eq!(v.of(ANALYTICS), 0.0);
        assert_eq!(v.get(ANALYTICS), None);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let v = ResourceVector::from_pairs([(CACHE, 3.0), (INGESTION, 21.0), (CACHE, 4.0)]);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![(INGESTION, 21.0), (CACHE, 4.0)]
        );
        assert!(!v.is_empty());
    }
}
