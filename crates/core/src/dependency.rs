//! Workload Dependency Analysis — paper §3.1.
//!
//! Flower "applies statistical regression models to workload logs to
//! quantitatively explain relationships between, for example, resource
//! amount in the ingestion layer … and resource amount in the analytics
//! layer". Concretely (Eq. 1):
//!
//! ```text
//! r(L1) = β0 + β1·r(L2) + ε ,   L1 ≠ L2 ∈ {I, A, S}
//! ```
//!
//! The analyzer consumes the metric store the simulated services publish
//! into, aligns each candidate pair of series on a shared period grid,
//! screens by Pearson correlation, and fits the regression for the pairs
//! that pass — reproducing both Fig. 2 (the r = 0.95 ingestion↔analytics
//! coupling) and Eq. 2 (`CPU ≈ 0.0002·WriteCapacity + 4.8`). It also
//! reports *absent* dependencies, mirroring the paper's observation that
//! "not all the layers are dependent on each other".

use flower_cloud::{MetricId, MetricsStore};
use flower_sim::{SimDuration, SimTime};
use flower_stats::{align_bucket_means, SimpleOls};

use crate::error::FlowerError;
use crate::flow::Layer;

/// A metric on one layer that participates in dependency analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Which layer the metric describes.
    pub layer: Layer,
    /// The metric's identifier in the store.
    pub id: MetricId,
}

/// A quantified cross-layer dependency.
#[derive(Debug, Clone)]
pub struct Dependency {
    /// The explained (dependent) metric.
    pub target: LayerMetric,
    /// The explaining (independent) metric.
    pub source: LayerMetric,
    /// The fitted linear model `target = β0 + β1·source + ε`.
    pub fit: SimpleOls,
}

impl Dependency {
    /// Pearson correlation of the pair.
    pub fn correlation(&self) -> f64 {
        self.fit.correlation
    }

    /// Render the dependency as the paper renders Eq. 2.
    pub fn equation(&self) -> String {
        format!(
            "{} \u{2248} {:.6}*{} + {:.4}  (r={:.3}, R\u{00b2}={:.3}, n={})",
            self.target.id.metric,
            self.fit.slope,
            self.source.id.metric,
            self.fit.intercept,
            self.fit.correlation,
            self.fit.r_squared,
            self.fit.n,
        )
    }
}

/// Configuration of the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct DependencyConfig {
    /// Alignment period for the metric series.
    pub period: SimDuration,
    /// Minimum |Pearson r| for a pair to count as dependent.
    pub min_correlation: f64,
    /// Minimum aligned samples required to attempt a fit.
    pub min_samples: usize,
}

impl Default for DependencyConfig {
    fn default() -> Self {
        DependencyConfig {
            period: SimDuration::from_mins(1),
            min_correlation: 0.7,
            min_samples: 10,
        }
    }
}

/// The workload dependency analyzer.
#[derive(Debug, Clone)]
pub struct DependencyAnalyzer {
    config: DependencyConfig,
    metrics: Vec<LayerMetric>,
}

/// Outcome of analyzing one metric pair.
#[derive(Debug, Clone)]
pub enum PairOutcome {
    /// The pair is dependent; regression attached.
    Dependent(Dependency),
    /// The pair's correlation fell below the threshold — reported so the
    /// operator can see independence, as §3.1 does for Kinesis-write vs
    /// DynamoDB-write in the demo flow.
    Independent {
        /// The explained metric.
        target: LayerMetric,
        /// The explaining metric.
        source: LayerMetric,
        /// The measured correlation (NaN when undefined).
        correlation: f64,
    },
    /// Not enough overlapping samples (or degenerate data) to decide.
    Insufficient {
        /// The explained metric.
        target: LayerMetric,
        /// The explaining metric.
        source: LayerMetric,
    },
}

impl DependencyAnalyzer {
    /// Create an analyzer over the given layer metrics.
    pub fn new(config: DependencyConfig, metrics: Vec<LayerMetric>) -> DependencyAnalyzer {
        DependencyAnalyzer { config, metrics }
    }

    /// Convenience: the three headline metrics of the paper's demo flow —
    /// ingestion arrival rate, analytics CPU, storage consumed capacity.
    pub fn for_clickstream(stream: &str, cluster: &str, table: &str) -> DependencyAnalyzer {
        use flower_cloud::engine::metric_names::*;
        DependencyAnalyzer::new(
            DependencyConfig::default(),
            vec![
                LayerMetric {
                    layer: Layer::INGESTION,
                    id: MetricId::new(NS_KINESIS, INCOMING_RECORDS, stream),
                },
                LayerMetric {
                    layer: Layer::ANALYTICS,
                    id: MetricId::new(NS_STORM, CPU_UTILIZATION, cluster),
                },
                LayerMetric {
                    layer: Layer::STORAGE,
                    id: MetricId::new(NS_DYNAMO, CONSUMED_WCU, table),
                },
            ],
        )
    }

    /// The metrics under analysis.
    pub fn metrics(&self) -> &[LayerMetric] {
        &self.metrics
    }

    /// Analyze every cross-layer pair over `[from, to)`.
    ///
    /// Each ordered pair `(target, source)` with `target.layer !=
    /// source.layer` is considered once, with the *downstream* metric as
    /// the target (the flow direction: ingestion explains analytics,
    /// analytics explains storage).
    pub fn analyze(
        &self,
        store: &MetricsStore,
        from: SimTime,
        to: SimTime,
    ) -> Result<Vec<PairOutcome>, FlowerError> {
        let mut out = Vec::new();
        for i in 0..self.metrics.len() {
            for j in 0..self.metrics.len() {
                if i == j {
                    continue;
                }
                let source = &self.metrics[i];
                let target = &self.metrics[j];
                if source.layer >= target.layer {
                    continue; // keep the flow direction, one pair once
                }
                out.push(self.analyze_pair(store, source, target, from, to));
            }
        }
        Ok(out)
    }

    /// Analyze a single directed pair.
    pub fn analyze_pair(
        &self,
        store: &MetricsStore,
        source: &LayerMetric,
        target: &LayerMetric,
        from: SimTime,
        to: SimTime,
    ) -> PairOutcome {
        let (xs, ys) = align_bucket_means(
            &store.raw(&source.id, from, to),
            &store.raw(&target.id, from, to),
            self.config.period,
        );
        if xs.len() < self.config.min_samples {
            return PairOutcome::Insufficient {
                target: target.clone(),
                source: source.clone(),
            };
        }
        match SimpleOls::fit(&xs, &ys) {
            Ok(fit) if fit.correlation.abs() >= self.config.min_correlation => {
                PairOutcome::Dependent(Dependency {
                    target: target.clone(),
                    source: source.clone(),
                    fit,
                })
            }
            Ok(fit) => PairOutcome::Independent {
                target: target.clone(),
                source: source.clone(),
                correlation: fit.correlation,
            },
            Err(_) => PairOutcome::Insufficient {
                target: target.clone(),
                source: source.clone(),
            },
        }
    }

    /// Just the confirmed dependencies from [`DependencyAnalyzer::analyze`],
    /// strongest correlation first.
    pub fn dependencies(
        &self,
        store: &MetricsStore,
        from: SimTime,
        to: SimTime,
    ) -> Result<Vec<Dependency>, FlowerError> {
        let mut deps: Vec<Dependency> = self
            .analyze(store, from, to)?
            .into_iter()
            .filter_map(|o| match o {
                PairOutcome::Dependent(d) => Some(d),
                _ => None,
            })
            .collect();
        deps.sort_by(|a, b| b.correlation().abs().total_cmp(&a.correlation().abs()));
        Ok(deps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_sim::SimRng;

    fn metric(layer: Layer, name: &str) -> LayerMetric {
        LayerMetric {
            layer,
            id: MetricId::new("ns", name, "res"),
        }
    }

    /// Build a store where `cpu = 0.0002·records + 4.8 + noise` and an
    /// unrelated storage metric.
    fn synthetic_store(minutes: u64, noise: f64, seed: u64) -> MetricsStore {
        let mut store = MetricsStore::new();
        let [records_series, cpu_series, unrelated_series] =
            ["records", "cpu", "unrelated"].map(|m| store.register(MetricId::new("ns", m, "res")));
        let mut rng = SimRng::seed(seed);
        for m in 0..minutes {
            let t = SimTime::from_mins(m);
            let records = 30_000.0
                + 25_000.0 * ((m as f64 / 120.0) * std::f64::consts::TAU).sin()
                + rng.normal(0.0, 500.0);
            let records = records.max(0.0);
            let cpu = 0.0002 * records + 4.8 + rng.normal(0.0, noise);
            let unrelated = rng.uniform(0.0, 100.0);
            store.push(records_series, t, records);
            store.push(cpu_series, t, cpu);
            store.push(unrelated_series, t, unrelated);
        }
        store
    }

    fn analyzer() -> DependencyAnalyzer {
        DependencyAnalyzer::new(
            DependencyConfig::default(),
            vec![
                metric(Layer::INGESTION, "records"),
                metric(Layer::ANALYTICS, "cpu"),
                metric(Layer::STORAGE, "unrelated"),
            ],
        )
    }

    #[test]
    fn recovers_equation_2() {
        let store = synthetic_store(550, 0.3, 1);
        let deps = analyzer()
            .dependencies(&store, SimTime::ZERO, SimTime::from_mins(550))
            .unwrap();
        assert_eq!(deps.len(), 1, "only records→cpu should correlate");
        let d = &deps[0];
        assert_eq!(d.source.id.metric, "records");
        assert_eq!(d.target.id.metric, "cpu");
        assert!((d.fit.slope - 0.0002).abs() < 2e-5, "slope={}", d.fit.slope);
        assert!(
            (d.fit.intercept - 4.8).abs() < 0.5,
            "intercept={}",
            d.fit.intercept
        );
        assert!(d.correlation() > 0.9, "r={}", d.correlation());
        assert!(d.equation().contains("cpu"));
    }

    #[test]
    fn independent_pairs_are_reported_as_such() {
        let store = synthetic_store(200, 0.3, 2);
        let outcomes = analyzer()
            .analyze(&store, SimTime::ZERO, SimTime::from_mins(200))
            .unwrap();
        // Three directed cross-layer pairs: I→A, I→S, A→S.
        assert_eq!(outcomes.len(), 3);
        let independents = outcomes
            .iter()
            .filter(|o| matches!(o, PairOutcome::Independent { .. }))
            .count();
        assert_eq!(independents, 2, "both pairs involving 'unrelated'");
    }

    #[test]
    fn short_windows_are_insufficient() {
        let store = synthetic_store(5, 0.3, 3);
        let outcomes = analyzer()
            .analyze(&store, SimTime::ZERO, SimTime::from_mins(5))
            .unwrap();
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, PairOutcome::Insufficient { .. })));
    }

    #[test]
    fn analysis_respects_the_window() {
        let store = synthetic_store(300, 0.3, 4);
        // Analyze only the second half.
        let deps = analyzer()
            .dependencies(&store, SimTime::from_mins(150), SimTime::from_mins(300))
            .unwrap();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].fit.n, 150);
    }

    #[test]
    fn noisier_data_weakens_correlation() {
        let clean = synthetic_store(200, 0.1, 5);
        let noisy = synthetic_store(200, 10.0, 5);
        let a = analyzer();
        let r_clean = a
            .dependencies(&clean, SimTime::ZERO, SimTime::from_mins(200))
            .unwrap()[0]
            .correlation();
        let deps_noisy = a
            .dependencies(&noisy, SimTime::ZERO, SimTime::from_mins(200))
            .unwrap();
        if let Some(d) = deps_noisy.first() {
            assert!(d.correlation() < r_clean);
        }
        assert!(r_clean > 0.95);
    }

    #[test]
    fn clickstream_analyzer_has_three_metrics() {
        let a = DependencyAnalyzer::for_clickstream("s", "c", "t");
        assert_eq!(a.metrics().len(), 3);
        assert_eq!(a.metrics()[0].layer, Layer::INGESTION);
        assert_eq!(a.metrics()[2].id.resource, "t");
    }
}
