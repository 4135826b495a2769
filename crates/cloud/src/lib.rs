// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-cloud
//!
//! Simulated cloud managed services — the substrate of the Flower
//! reproduction.
//!
//! The paper deploys its demo flow on AWS: Amazon Kinesis ingests click
//! streams, Apache Storm on EC2 processes them, DynamoDB persists the
//! aggregates, and CloudWatch carries the metrics Flower's sensors read.
//! None of that is available offline, so this crate implements faithful
//! laptop-scale simulators of each service's *control-relevant* dynamics:
//!
//! * [`kinesis`] — a shard-based stream: each shard accepts up to 1,000
//!   records/s and 1 MiB/s of writes (the exact limits the paper quotes),
//!   excess is throttled, and resharding takes time.
//! * [`storm`] — a topology (spout → bolts with per-bolt CPU cost and
//!   selectivity) executed on a fleet of VMs with boot latency; saturation
//!   grows a backlog, and cluster CPU% is what the analytics-layer sensor
//!   observes.
//! * [`dynamo`] — a table with provisioned write/read capacity units, a
//!   300-second burst-credit bucket, throttling, and the daily limit on
//!   capacity *decreases* that real DynamoDB imposes.
//! * [`metrics`] — a CloudWatch-like namespaced metric store with
//!   period-aligned statistics queries (including `p`-percentiles).
//! * [`alarms`] — CloudWatch-like metric alarms with the three-state
//!   `INSUFFICIENT_DATA → OK ⇄ ALARM` machine.
//! * [`pricing`] — 2017 us-east-1 list prices and a billing meter that
//!   integrates $-cost over virtual time.
//! * [`cache`] — an ElastiCache-like node-count-scaled read cache that
//!   can be interposed on the storage read path as a fourth tier.
//! * [`layer`] — the open layer registry: [`layer::LayerId`] identities,
//!   the [`layer::LayerService`] control-plane trait each simulator
//!   implements, and [`layer::ResourceVector`] plans indexed by layer.
//! * [`engine`] — [`engine::CloudEngine`] wires the services into
//!   the click-stream flow of the paper's Fig. 1 and publishes every
//!   metric each tick; it is the "world" the elasticity manager controls.

#![deny(missing_docs)]

pub mod alarms;
pub mod cache;
pub mod dynamo;
pub mod engine;
pub mod kinesis;
pub mod layer;
pub mod metrics;
pub mod pricing;
pub mod storm;

pub use alarms::{Alarm, AlarmSet, AlarmState, AlarmTransition, Comparison};
pub use cache::{CacheCluster, CacheConfig, CacheError, CacheOutcome};
pub use dynamo::{DynamoConfig, DynamoTable, ReadOutcome, WriteOutcome};
pub use engine::{CloudEngine, EngineConfig, ReadWorkloadConfig, TickReport};
pub use kinesis::{IngestOutcome, KinesisConfig, KinesisStream};
pub use layer::{LayerId, LayerService, ResourceVector, SensorProbe};
pub use metrics::{MetricId, MetricsStore, SeriesHandle, Statistic};
pub use pricing::{BillingMeter, PriceList, ResourceKind};
pub use storm::{Bolt, ProcessOutcome, StormCluster, StormConfig, Topology};
