//! Flow definition — the programmatic equivalent of the demo's drag-and-
//! drop **Flow Builder** (§4 step 1, Fig. 5).
//!
//! A flow names one platform per layer; [`FlowBuilder`] validates the
//! combination and [`FlowSpec::engine_config`] materializes the simulated
//! cloud deployment the elasticity manager runs against.

use flower_cloud::{CacheConfig, DynamoConfig, EngineConfig, KinesisConfig, StormConfig, Topology};

use crate::error::FlowerError;

/// A layer of a data analytics flow.
///
/// This is [`flower_cloud::LayerId`] — an open identity, not a closed
/// enum. The paper's three layers are `Layer::INGESTION`,
/// `Layer::ANALYTICS`, and `Layer::STORAGE`; extensions (like the cache
/// tier, `Layer::CACHE`) and custom layers minted with [`Layer::new`]
/// slot into the same ordering.
pub type Layer = flower_cloud::LayerId;

/// A platform dropped onto the canvas: which service, its name, and its
/// initial capacity.
#[derive(Debug, Clone, PartialEq)]
pub enum Platform {
    /// A Kinesis-like stream with an initial shard count.
    Kinesis {
        /// Stream name.
        name: String,
        /// Initial shards.
        shards: u32,
    },
    /// A Storm-like cluster with an initial VM count.
    Storm {
        /// Cluster name.
        name: String,
        /// Initial VMs.
        vms: u32,
    },
    /// A DynamoDB-like table with initial write capacity.
    Dynamo {
        /// Table name.
        name: String,
        /// Initial write capacity units.
        wcu: f64,
    },
    /// An ElastiCache-like cluster with an initial node count.
    Cache {
        /// Cluster name.
        name: String,
        /// Initial cache nodes.
        nodes: u32,
    },
}

impl Platform {
    /// A Kinesis-like stream.
    pub fn kinesis(name: impl Into<String>, shards: u32) -> Platform {
        Platform::Kinesis {
            name: name.into(),
            shards,
        }
    }

    /// A Storm-like cluster.
    pub fn storm(name: impl Into<String>, vms: u32) -> Platform {
        Platform::Storm {
            name: name.into(),
            vms,
        }
    }

    /// A DynamoDB-like table.
    pub fn dynamo(name: impl Into<String>, wcu: f64) -> Platform {
        Platform::Dynamo {
            name: name.into(),
            wcu,
        }
    }

    /// An ElastiCache-like cluster.
    pub fn cache(name: impl Into<String>, nodes: u32) -> Platform {
        Platform::Cache {
            name: name.into(),
            nodes,
        }
    }

    /// Which layer this platform can serve.
    pub fn layer(&self) -> Layer {
        match self {
            Platform::Kinesis { .. } => Layer::INGESTION,
            Platform::Storm { .. } => Layer::ANALYTICS,
            Platform::Dynamo { .. } => Layer::STORAGE,
            Platform::Cache { .. } => Layer::CACHE,
        }
    }

    /// The platform's display name.
    pub fn name(&self) -> &str {
        match self {
            Platform::Kinesis { name, .. }
            | Platform::Storm { name, .. }
            | Platform::Dynamo { name, .. }
            | Platform::Cache { name, .. } => name,
        }
    }
}

/// A validated flow: the paper's three layers, plus an optional cache
/// tier.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Flow name.
    pub name: String,
    /// Ingestion platform.
    pub ingestion: Platform,
    /// Analytics platform.
    pub analytics: Platform,
    /// Storage platform.
    pub storage: Platform,
    /// Cache tier, when deployed.
    pub cache: Option<Platform>,
}

impl FlowSpec {
    /// The platform serving `layer`, if the flow populates it.
    pub fn platform(&self, layer: Layer) -> Option<&Platform> {
        [&self.ingestion, &self.analytics, &self.storage]
            .into_iter()
            .chain(self.cache.as_ref())
            .find(|p| p.layer() == layer)
    }

    /// The layers this flow populates, in ascending order.
    pub fn layers(&self) -> Vec<Layer> {
        let mut layers = vec![
            self.ingestion.layer(),
            self.analytics.layer(),
            self.storage.layer(),
        ];
        if let Some(cache) = &self.cache {
            layers.push(cache.layer());
        }
        layers.sort();
        layers
    }

    /// Materialize the simulated cloud deployment for this flow.
    pub fn engine_config(&self) -> EngineConfig {
        let (stream_name, shards) = match &self.ingestion {
            Platform::Kinesis { name, shards } => (name.clone(), *shards),
            _ => unreachable!("validated by the builder"),
        };
        let (cluster_name, vms) = match &self.analytics {
            Platform::Storm { name, vms } => (name.clone(), *vms),
            _ => unreachable!("validated by the builder"),
        };
        let (table_name, wcu) = match &self.storage {
            Platform::Dynamo { name, wcu } => (name.clone(), *wcu),
            _ => unreachable!("validated by the builder"),
        };
        let cache = self.cache.as_ref().map(|platform| match platform {
            Platform::Cache { name, nodes } => CacheConfig {
                name: name.clone(),
                initial_nodes: *nodes,
                ..Default::default()
            },
            _ => unreachable!("validated by the builder"),
        });
        EngineConfig {
            kinesis: KinesisConfig {
                name: stream_name,
                initial_shards: shards,
                ..Default::default()
            },
            storm: StormConfig {
                name: cluster_name,
                initial_vms: vms,
                ..Default::default()
            },
            dynamo: DynamoConfig {
                name: table_name,
                initial_wcu: wcu,
                ..Default::default()
            },
            topology: Topology::clickstream(),
            cache,
            ..Default::default()
        }
    }
}

/// Fluent builder mirroring the demo's drag-and-drop canvas.
#[derive(Debug, Clone, Default)]
pub struct FlowBuilder {
    name: String,
    ingestion: Option<Platform>,
    analytics: Option<Platform>,
    storage: Option<Platform>,
    cache: Option<Platform>,
}

impl FlowBuilder {
    /// Start a flow with the given name.
    pub fn new(name: impl Into<String>) -> FlowBuilder {
        FlowBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Drop a platform onto the ingestion layer.
    pub fn ingestion(mut self, platform: Platform) -> FlowBuilder {
        self.ingestion = Some(platform);
        self
    }

    /// Drop a platform onto the analytics layer.
    pub fn analytics(mut self, platform: Platform) -> FlowBuilder {
        self.analytics = Some(platform);
        self
    }

    /// Drop a platform onto the storage layer.
    pub fn storage(mut self, platform: Platform) -> FlowBuilder {
        self.storage = Some(platform);
        self
    }

    /// Drop a platform onto the optional cache tier.
    pub fn cache(mut self, platform: Platform) -> FlowBuilder {
        self.cache = Some(platform);
        self
    }

    /// Validate and produce the flow.
    ///
    /// Checks: every layer is populated, each platform sits on a layer it
    /// can serve, names are non-empty and unique, and initial capacities
    /// are positive.
    pub fn build(self) -> Result<FlowSpec, FlowerError> {
        if self.name.trim().is_empty() {
            return Err(FlowerError::InvalidFlow("flow name is empty".into()));
        }
        let ingestion = self
            .ingestion
            .ok_or_else(|| FlowerError::InvalidFlow("ingestion layer is empty".into()))?;
        let analytics = self
            .analytics
            .ok_or_else(|| FlowerError::InvalidFlow("analytics layer is empty".into()))?;
        let storage = self
            .storage
            .ok_or_else(|| FlowerError::InvalidFlow("storage layer is empty".into()))?;

        let mut placements = vec![
            (Layer::INGESTION, &ingestion),
            (Layer::ANALYTICS, &analytics),
            (Layer::STORAGE, &storage),
        ];
        if let Some(cache) = &self.cache {
            placements.push((Layer::CACHE, cache));
        }
        for (expected, platform) in &placements {
            if platform.layer() != *expected {
                return Err(FlowerError::InvalidFlow(format!(
                    "platform '{}' cannot serve the {expected} layer",
                    platform.name()
                )));
            }
            if platform.name().trim().is_empty() {
                return Err(FlowerError::InvalidFlow(format!(
                    "{expected} platform has an empty name"
                )));
            }
        }
        let names: Vec<&str> = placements.iter().map(|(_, p)| p.name()).collect();
        if names
            .iter()
            .enumerate()
            .any(|(i, n)| names.iter().skip(i + 1).any(|m| m == n))
        {
            return Err(FlowerError::InvalidFlow(
                "platform names must be unique".into(),
            ));
        }
        // Initial capacities must lie in `[1, account limit]`, the range
        // the services accept; a NaN WCU lies outside it too.
        let within = |what: &str, value: f64, max: f64| {
            if (1.0..=max).contains(&value) {
                return Ok(());
            }
            let message = format!("{what} must be in [1, {max}], got {value}");
            Err(FlowerError::InvalidFlow(message))
        };
        let (kinesis, storm) = (KinesisConfig::default(), StormConfig::default());
        if let Platform::Kinesis { shards, .. } = ingestion {
            within("stream shards", shards.into(), kinesis.max_shards.into())?;
        }
        if let Platform::Storm { vms, .. } = analytics {
            within("cluster VMs", vms.into(), storm.max_vms.into())?;
        }
        if let Platform::Dynamo { wcu, .. } = storage {
            within("table WCU", wcu, DynamoConfig::default().max_wcu)?;
        }
        if let Some(Platform::Cache { nodes, .. }) = self.cache {
            let max_nodes = CacheConfig::default().max_nodes;
            within("cache nodes", nodes.into(), max_nodes.into())?;
        }

        Ok(FlowSpec {
            name: self.name,
            ingestion,
            analytics,
            storage,
            cache: self.cache,
        })
    }
}

/// The paper's demo flow (Fig. 1): Kinesis → Storm → DynamoDB with small
/// initial capacities.
#[expect(clippy::expect_used, reason = "invariant stated in the expect message")]
pub fn clickstream_flow() -> FlowSpec {
    FlowBuilder::new("clickstream-analytics")
        .ingestion(Platform::kinesis("clicks", 2))
        .analytics(Platform::storm("counter", 2))
        .storage(Platform::dynamo("aggregates", 100.0))
        .build()
        .expect("the reference flow is valid")
}

/// The demo flow extended with a fourth tier: a cache on the storage
/// read path, proving the layer registry is open beyond the paper's
/// three layers.
#[expect(clippy::expect_used, reason = "invariant stated in the expect message")]
pub fn cached_clickstream_flow() -> FlowSpec {
    FlowBuilder::new("clickstream-analytics-cached")
        .ingestion(Platform::kinesis("clicks", 2))
        .analytics(Platform::storm("counter", 2))
        .storage(Platform::dynamo("aggregates", 100.0))
        .cache(Platform::cache("hot-aggregates", 1))
        .build()
        .expect("the reference flow is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_flow_builds() {
        let flow = clickstream_flow();
        assert_eq!(flow.name, "clickstream-analytics");
        assert_eq!(flow.platform(Layer::INGESTION).unwrap().name(), "clicks");
        assert_eq!(flow.platform(Layer::ANALYTICS).unwrap().name(), "counter");
        assert_eq!(flow.platform(Layer::STORAGE).unwrap().name(), "aggregates");
        assert!(flow.platform(Layer::CACHE).is_none());
        assert_eq!(flow.layers(), Layer::ALL.to_vec());
    }

    #[test]
    fn cached_flow_adds_a_fourth_layer() {
        let flow = cached_clickstream_flow();
        assert_eq!(
            flow.platform(Layer::CACHE).unwrap().name(),
            "hot-aggregates"
        );
        assert_eq!(
            flow.layers(),
            vec![
                Layer::INGESTION,
                Layer::ANALYTICS,
                Layer::STORAGE,
                Layer::CACHE
            ]
        );
        let cfg = flow.engine_config();
        let cache = cfg.cache.expect("cache tier configured");
        assert_eq!(cache.name, "hot-aggregates");
        assert_eq!(cache.initial_nodes, 1);
    }

    #[test]
    fn cache_validation() {
        let base = || {
            FlowBuilder::new("x")
                .ingestion(Platform::kinesis("a", 1))
                .analytics(Platform::storm("b", 1))
                .storage(Platform::dynamo("c", 10.0))
        };
        assert!(base().cache(Platform::cache("d", 0)).build().is_err());
        assert!(base().cache(Platform::cache("c", 1)).build().is_err());
        assert!(base().cache(Platform::kinesis("d", 1)).build().is_err());
        assert!(base().cache(Platform::cache("d", 1)).build().is_ok());
    }

    #[test]
    fn engine_config_propagates_capacities() {
        let cfg = clickstream_flow().engine_config();
        assert_eq!(cfg.kinesis.initial_shards, 2);
        assert_eq!(cfg.kinesis.name, "clicks");
        assert_eq!(cfg.storm.initial_vms, 2);
        assert_eq!(cfg.dynamo.initial_wcu, 100.0);
    }

    #[test]
    fn missing_layers_rejected() {
        let err = FlowBuilder::new("x")
            .ingestion(Platform::kinesis("a", 1))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowerError::InvalidFlow(ref m) if m.contains("analytics")));
    }

    #[test]
    fn wrong_layer_platform_rejected() {
        let err = FlowBuilder::new("x")
            .ingestion(Platform::storm("a", 1))
            .analytics(Platform::storm("b", 1))
            .storage(Platform::dynamo("c", 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowerError::InvalidFlow(ref m) if m.contains("cannot serve")));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = FlowBuilder::new("x")
            .ingestion(Platform::kinesis("same", 1))
            .analytics(Platform::storm("same", 1))
            .storage(Platform::dynamo("c", 10.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowerError::InvalidFlow(ref m) if m.contains("unique")));
    }

    #[test]
    fn zero_capacities_rejected() {
        let base = || {
            FlowBuilder::new("x")
                .ingestion(Platform::kinesis("a", 1))
                .analytics(Platform::storm("b", 1))
                .storage(Platform::dynamo("c", 10.0))
        };
        assert!(base().ingestion(Platform::kinesis("a", 0)).build().is_err());
        assert!(base().analytics(Platform::storm("b", 0)).build().is_err());
        assert!(base().storage(Platform::dynamo("c", 0.5)).build().is_err());
        // Above the account limits, and NaN, are out of range too.
        for wcu in [f64::NAN, f64::INFINITY, 1e9] {
            assert!(base().storage(Platform::dynamo("c", wcu)).build().is_err());
        }
        assert!(base()
            .ingestion(Platform::kinesis("a", 100_000))
            .build()
            .is_err());
        assert!(base()
            .analytics(Platform::storm("b", 100_000))
            .build()
            .is_err());
    }

    #[test]
    fn empty_names_rejected() {
        assert!(FlowBuilder::new("  ")
            .ingestion(Platform::kinesis("a", 1))
            .analytics(Platform::storm("b", 1))
            .storage(Platform::dynamo("c", 10.0))
            .build()
            .is_err());
        assert!(FlowBuilder::new("x")
            .ingestion(Platform::kinesis("", 1))
            .analytics(Platform::storm("b", 1))
            .storage(Platform::dynamo("c", 10.0))
            .build()
            .is_err());
    }

    #[test]
    fn layer_metadata() {
        assert_eq!(Layer::INGESTION.resource_unit(), "shards");
        assert_eq!(Layer::ANALYTICS.resource_unit(), "VMs");
        assert_eq!(Layer::STORAGE.resource_unit(), "write capacity units");
        assert_eq!(Layer::CACHE.resource_unit(), "cache nodes");
        assert_eq!(Layer::ALL.len(), 3);
        assert_eq!(Layer::ANALYTICS.to_string(), "analytics");
    }
}
