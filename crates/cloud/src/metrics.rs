//! A CloudWatch-like metric store.
//!
//! Services register each series once under a `(namespace, metric,
//! resource)` identifier and publish its datapoints by handle; consumers
//! query period-aligned statistics over arbitrary windows by identifier
//! — exactly the API shape Flower's sensor module needs ("resource usage
//! stats as per the specified monitoring window", §2).

use std::collections::BTreeMap;

use flower_sim::{SimDuration, SimTime};

/// Identifies one metric stream, CloudWatch-style: a namespace (the
/// service), a metric name, and a resource dimension (stream/cluster/
/// table name).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Service namespace, e.g. `AWS/Kinesis`.
    pub namespace: String,
    /// Metric name, e.g. `IncomingRecords`.
    pub metric: String,
    /// Resource dimension, e.g. the stream name.
    pub resource: String,
}

impl MetricId {
    /// Convenience constructor.
    pub fn new(
        namespace: impl Into<String>,
        metric: impl Into<String>,
        resource: impl Into<String>,
    ) -> MetricId {
        MetricId {
            namespace: namespace.into(),
            metric: metric.into(),
            resource: resource.into(),
        }
    }
}

impl std::fmt::Display for MetricId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}[{}]", self.namespace, self.metric, self.resource)
    }
}

/// Statistic to compute over the datapoints of a period bucket or window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Statistic {
    /// Arithmetic mean.
    Average,
    /// Sum.
    Sum,
    /// Minimum.
    Minimum,
    /// Maximum.
    Maximum,
    /// Number of datapoints.
    SampleCount,
    /// Percentile in `[0, 100]` (CloudWatch's `p50`/`p90`/`p99`
    /// extended statistics), linearly interpolated.
    Percentile(f64),
}

impl Statistic {
    /// The `p99`-style label CloudWatch uses.
    pub fn label(&self) -> String {
        match self {
            Statistic::Average => "Average".to_owned(),
            Statistic::Sum => "Sum".to_owned(),
            Statistic::Minimum => "Minimum".to_owned(),
            Statistic::Maximum => "Maximum".to_owned(),
            Statistic::SampleCount => "SampleCount".to_owned(),
            Statistic::Percentile(p) => format!("p{p}"),
        }
    }
}

/// `stat` over a non-empty run of datapoints. Sums run left to right
/// over the stored order; only a percentile copies the values, to sort
/// them.
fn apply(stat: Statistic, points: &[(SimTime, f64)]) -> f64 {
    let values = points.iter().map(|&(_, v)| v);
    match stat {
        Statistic::Average => values.sum::<f64>() / points.len() as f64,
        Statistic::Sum => values.sum(),
        Statistic::Minimum => values.fold(f64::INFINITY, f64::min),
        Statistic::Maximum => values.fold(f64::NEG_INFINITY, f64::max),
        Statistic::SampleCount => points.len() as f64,
        Statistic::Percentile(p) => {
            assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
            let mut sorted: Vec<f64> = values.collect();
            sorted.sort_by(f64::total_cmp);
            let rank = p / 100.0 * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let frac = rank - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            }
        }
    }
}

/// A registered series, as [`MetricsStore::register`] hands it out.
/// Publishing by handle skips building a [`MetricId`] and searching the
/// id index for every datapoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesHandle(usize);

/// The metric store.
///
/// A publisher registers each series once and pushes datapoints by
/// handle; consumers query by [`MetricId`].
///
/// ```
/// use flower_cloud::{MetricId, MetricsStore, Statistic};
/// use flower_sim::SimTime;
///
/// let mut store = MetricsStore::new();
/// let id = MetricId::new("AWS/Kinesis", "IncomingRecords", "clicks");
/// let series = store.register(id.clone());
/// for i in 0..5u64 {
///     store.push(series, SimTime::from_secs(i), i as f64 * 10.0);
/// }
/// let avg = store
///     .window_stat(&id, Statistic::Average, SimTime::ZERO, SimTime::from_secs(5))
///     .unwrap();
/// assert_eq!(avg, 20.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsStore {
    /// Each registered id's handle, in id order.
    index: BTreeMap<MetricId, SeriesHandle>,
    /// Datapoints per series, by handle, in time order; `None` until the
    /// series' first datapoint, so a series exists for queries and
    /// listings only once something was published to it.
    series: Vec<Option<Vec<(SimTime, f64)>>>,
}

impl MetricsStore {
    /// An empty store.
    pub fn new() -> MetricsStore {
        MetricsStore::default()
    }

    /// Register the series `id` and return its handle. Registering an id
    /// again returns the handle it already has.
    pub fn register(&mut self, id: MetricId) -> SeriesHandle {
        if let Some(&handle) = self.index.get(&id) {
            return handle;
        }
        let handle = SeriesHandle(self.series.len());
        self.series.push(None);
        self.index.insert(id, handle);
        handle
    }

    /// Publish one datapoint to a series this store registered. Time
    /// must be non-decreasing per series.
    pub fn push(&mut self, series: SeriesHandle, t: SimTime, value: f64) {
        debug_assert!(value.is_finite(), "non-finite datapoint {value} at {t}");
        let points = self.series[series.0].get_or_insert_with(Vec::new);
        if let Some(&(last, _)) = points.last() {
            assert!(t >= last, "datapoint time went backwards ({last} then {t})");
        }
        points.push((t, value));
    }

    /// The published series' ids, in id order.
    fn published(&self) -> impl Iterator<Item = &MetricId> {
        self.index
            .iter()
            .filter(|(_, handle)| self.series[handle.0].is_some())
            .map(|(id, _)| id)
    }

    /// All metric ids currently present, in sorted order.
    pub fn list(&self) -> Vec<&MetricId> {
        self.published().collect()
    }

    /// All metric ids in a namespace.
    pub fn list_namespace(&self, namespace: &str) -> Vec<&MetricId> {
        self.published()
            .filter(|id| id.namespace == namespace)
            .collect()
    }

    /// All stored datapoints of `id`, in time order.
    fn points(&self, id: &MetricId) -> &[(SimTime, f64)] {
        self.index
            .get(id)
            .and_then(|handle| self.series[handle.0].as_deref())
            .unwrap_or_default()
    }

    /// The stored datapoints of `id` in `[from, to)`, in time order.
    fn window(&self, id: &MetricId, from: SimTime, to: SimTime) -> &[(SimTime, f64)] {
        let points = self.points(id);
        let lo = points.partition_point(|&(t, _)| t < from);
        let hi = points.partition_point(|&(t, _)| t < to);
        &points[lo..hi]
    }

    /// The most recent datapoint of a metric.
    pub fn latest(&self, id: &MetricId) -> Option<(SimTime, f64)> {
        self.points(id).last().copied()
    }

    /// Raw datapoints in `[from, to)`.
    pub fn raw(&self, id: &MetricId, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        self.window(id, from, to).to_vec()
    }

    /// A single statistic over all datapoints in `[from, to)`, computed
    /// in place over the stored window. `None` when the window holds no
    /// datapoints.
    pub fn window_stat(
        &self,
        id: &MetricId,
        stat: Statistic,
        from: SimTime,
        to: SimTime,
    ) -> Option<f64> {
        let points = self.window(id, from, to);
        (!points.is_empty()).then(|| apply(stat, points))
    }

    /// Period-aligned statistics over `[from, to)`, CloudWatch-style:
    /// datapoints are bucketed into `period`-aligned bins and the
    /// statistic is applied per bin. Empty bins are omitted.
    pub fn get_statistics(
        &self,
        id: &MetricId,
        stat: Statistic,
        period: SimDuration,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(SimTime, f64)> {
        assert!(!period.is_zero(), "period must be non-zero");
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut rest = self.window(id, from, to);
        // Times are non-decreasing, so each bin is one contiguous run.
        while let Some(&(first, _)) = rest.first() {
            let bin = first.align_down(period);
            let len = rest.partition_point(|&(t, _)| t.align_down(period) == bin);
            let (run, tail) = rest.split_at(len);
            out.push((bin, apply(stat, run)));
            rest = tail;
        }
        out
    }

    /// Total number of stored datapoints across all metrics.
    pub fn total_datapoints(&self) -> usize {
        self.series.iter().flatten().map(Vec::len).sum()
    }

    /// Drop datapoints older than `horizon` before `now` (retention).
    pub fn prune(&mut self, now: SimTime, horizon: SimDuration) {
        let cutoff = now - horizon;
        for points in self.series.iter_mut().flatten() {
            let keep_from = points.partition_point(|&(t, _)| t < cutoff);
            points.drain(..keep_from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> MetricId {
        MetricId::new("AWS/Kinesis", "IncomingRecords", "clicks")
    }

    fn seeded_store() -> MetricsStore {
        let mut store = MetricsStore::new();
        let series = store.register(id());
        for i in 0..10u64 {
            store.push(series, SimTime::from_secs(i * 30), i as f64);
        }
        store
    }

    #[test]
    fn latest_returns_newest() {
        let store = seeded_store();
        assert_eq!(store.latest(&id()), Some((SimTime::from_secs(270), 9.0)));
        assert_eq!(store.latest(&MetricId::new("x", "y", "z")), None);
    }

    #[test]
    fn raw_is_half_open_window() {
        let store = seeded_store();
        let pts = store.raw(&id(), SimTime::from_secs(30), SimTime::from_secs(90));
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], (SimTime::from_secs(30), 1.0));
        assert_eq!(pts[1], (SimTime::from_secs(60), 2.0));
    }

    #[test]
    fn window_statistics() {
        let store = seeded_store();
        let w = |stat| {
            store
                .window_stat(&id(), stat, SimTime::ZERO, SimTime::from_secs(300))
                .unwrap()
        };
        assert_eq!(w(Statistic::SampleCount), 10.0);
        assert_eq!(w(Statistic::Sum), 45.0);
        assert_eq!(w(Statistic::Average), 4.5);
        assert_eq!(w(Statistic::Minimum), 0.0);
        assert_eq!(w(Statistic::Maximum), 9.0);
        assert_eq!(
            store.window_stat(
                &id(),
                Statistic::Sum,
                SimTime::from_hours(2),
                SimTime::from_hours(3)
            ),
            None
        );
    }

    #[test]
    fn period_aligned_statistics() {
        let store = seeded_store(); // points every 30 s
        let stats = store.get_statistics(
            &id(),
            Statistic::Sum,
            SimDuration::from_secs(60),
            SimTime::ZERO,
            SimTime::from_secs(300),
        );
        // Buckets: [0,60) holds 0+1, [60,120) holds 2+3, ...
        assert_eq!(stats.len(), 5);
        assert_eq!(stats[0], (SimTime::ZERO, 1.0));
        assert_eq!(stats[1], (SimTime::from_secs(60), 5.0));
        assert_eq!(stats[4], (SimTime::from_secs(240), 17.0));
    }

    #[test]
    fn namespace_listing() {
        let mut store = seeded_store();
        let wcu = store.register(MetricId::new("AWS/DynamoDB", "ConsumedWCU", "t"));
        store.push(wcu, SimTime::ZERO, 1.0);
        // Registering an id again hands out the handle it already has.
        assert_eq!(store.register(id()), store.register(id()));
        assert_ne!(store.register(id()), wcu);
        assert_eq!(store.list().len(), 2);
        assert_eq!(store.list_namespace("AWS/Kinesis").len(), 1);
        assert_eq!(store.list_namespace("AWS/DynamoDB").len(), 1);
        assert!(store.list_namespace("AWS/EC2").is_empty());
    }

    #[test]
    fn prune_drops_old_points() {
        let mut store = seeded_store();
        assert_eq!(store.total_datapoints(), 10);
        store.prune(SimTime::from_secs(270), SimDuration::from_secs(60));
        // Cutoff at t=210: keeps 210, 240, 270.
        assert_eq!(store.total_datapoints(), 3);
        assert_eq!(store.latest(&id()), Some((SimTime::from_secs(270), 9.0)));
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn out_of_order_put_panics() {
        let mut store = seeded_store();
        let series = store.register(id());
        store.push(series, SimTime::ZERO, 1.0);
    }

    #[test]
    fn percentile_statistics() {
        let store = seeded_store(); // values 0..=9
        let p = |pct| {
            store
                .window_stat(
                    &id(),
                    Statistic::Percentile(pct),
                    SimTime::ZERO,
                    SimTime::from_secs(300),
                )
                .unwrap()
        };
        assert_eq!(p(0.0), 0.0);
        assert_eq!(p(100.0), 9.0);
        assert!((p(50.0) - 4.5).abs() < 1e-12);
        assert!((p(90.0) - 8.1).abs() < 1e-9);
        assert_eq!(Statistic::Percentile(99.0).label(), "p99");
        assert_eq!(Statistic::Maximum.label(), "Maximum");
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn out_of_range_percentile_panics() {
        let store = seeded_store();
        store.window_stat(
            &id(),
            Statistic::Percentile(150.0),
            SimTime::ZERO,
            SimTime::from_secs(300),
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(id().to_string(), "AWS/Kinesis/IncomingRecords[clicks]");
    }

    /// `apply` as the by-id store had it: over a copy of the window's
    /// values.
    fn by_id_apply(stat: Statistic, values: &[f64]) -> f64 {
        match stat {
            Statistic::Average => values.iter().sum::<f64>() / values.len() as f64,
            Statistic::Sum => values.iter().sum(),
            Statistic::Minimum => values.iter().copied().fold(f64::INFINITY, f64::min),
            Statistic::Maximum => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Statistic::SampleCount => values.len() as f64,
            Statistic::Percentile(p) => {
                let mut sorted = values.to_vec();
                sorted.sort_by(f64::total_cmp);
                let rank = p / 100.0 * (sorted.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                if lo == hi {
                    sorted[lo]
                } else {
                    let frac = rank - lo as f64;
                    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
                }
            }
        }
    }

    /// The store this one replaced: datapoints put by id into a
    /// string-keyed map, and every query over a copied window.
    #[derive(Default)]
    struct ById(BTreeMap<MetricId, Vec<(SimTime, f64)>>);

    impl ById {
        fn put(&mut self, id: MetricId, t: SimTime, value: f64) {
            self.0.entry(id).or_default().push((t, value));
        }

        fn raw(&self, id: &MetricId, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
            match self.0.get(id) {
                None => Vec::new(),
                Some(s) => {
                    let lo = s.partition_point(|&(t, _)| t < from);
                    let hi = s.partition_point(|&(t, _)| t < to);
                    s[lo..hi].to_vec()
                }
            }
        }

        fn window_stat(
            &self,
            id: &MetricId,
            stat: Statistic,
            from: SimTime,
            to: SimTime,
        ) -> Option<f64> {
            let pts = self.raw(id, from, to);
            if pts.is_empty() {
                return None;
            }
            let values: Vec<f64> = pts.iter().map(|&(_, v)| v).collect();
            Some(by_id_apply(stat, &values))
        }

        fn get_statistics(
            &self,
            id: &MetricId,
            stat: Statistic,
            period: SimDuration,
            from: SimTime,
            to: SimTime,
        ) -> Vec<(SimTime, f64)> {
            let mut out: Vec<(SimTime, f64)> = Vec::new();
            let mut bucket: Option<SimTime> = None;
            let mut values: Vec<f64> = Vec::new();
            for (t, v) in self.raw(id, from, to) {
                let b = t.align_down(period);
                match bucket {
                    Some(cur) if cur == b => values.push(v),
                    Some(cur) => {
                        out.push((cur, by_id_apply(stat, &values)));
                        values.clear();
                        values.push(v);
                        bucket = Some(b);
                    }
                    None => {
                        bucket = Some(b);
                        values.push(v);
                    }
                }
            }
            if let Some(cur) = bucket {
                out.push((cur, by_id_apply(stat, &values)));
            }
            out
        }
    }

    fn bits(points: &[(SimTime, f64)]) -> Vec<(SimTime, u64)> {
        points.iter().map(|&(t, v)| (t, v.to_bits())).collect()
    }

    /// Series published by handle answer every query bit for bit as the
    /// by-id store did: random series with repeated timestamps and values
    /// across magnitudes and signs, random windows (empty ones, ones past
    /// either end, zero-width ones) and every statistic.
    #[test]
    fn handle_published_series_answer_like_the_by_id_store() {
        let stats = [
            Statistic::Average,
            Statistic::Sum,
            Statistic::Minimum,
            Statistic::Maximum,
            Statistic::SampleCount,
            Statistic::Percentile(0.0),
            Statistic::Percentile(37.5),
            Statistic::Percentile(50.0),
            Statistic::Percentile(99.0),
            Statistic::Percentile(100.0),
        ];
        flower_sim::testkit::forall(200, |rng| {
            let ids = [
                MetricId::new("AWS/Kinesis", "IncomingRecords", "clicks"),
                MetricId::new("Storm", "CpuUtilization", "counter"),
                MetricId::new("AWS/DynamoDB", "WriteUtilization", "aggregates"),
            ];
            let mut store = MetricsStore::new();
            let mut by_id = ById::default();
            // Registered in a different order from their id order; a
            // series nothing is published to stays absent.
            let handles = [2, 0, 1].map(|i| (i, store.register(ids[i].clone())));
            store.register(MetricId::new("AWS/EC2", "CPUUtilization", "none"));
            let mut clocks = [0u64; 3];
            for _ in 0..rng.int_range(1, 120) {
                let (i, handle) = handles[rng.below(3) as usize];
                clocks[i] += rng.below(3) * 1_000 + rng.below(2) * 250;
                let t = SimTime::from_millis(clocks[i]);
                let value = match rng.below(4) {
                    0 => rng.uniform(-1e6, 1e6),
                    1 => rng.uniform(0.0, 1.0) * 1e-300,
                    2 => rng.below(5) as f64,
                    _ => rng.normal(100.0, 40.0),
                };
                store.push(handle, t, value);
                by_id.put(ids[i].clone(), t, value);
            }
            let listed: Vec<&MetricId> = by_id.0.keys().collect();
            assert_eq!(store.list(), listed);
            assert_eq!(
                store.list_namespace("AWS/Kinesis"),
                by_id
                    .0
                    .keys()
                    .filter(|id| id.namespace == "AWS/Kinesis")
                    .collect::<Vec<_>>()
            );
            assert!(store.list_namespace("AWS/EC2").is_empty());
            assert_eq!(
                store.total_datapoints(),
                by_id.0.values().map(Vec::len).sum::<usize>()
            );
            let end = clocks.iter().max().copied().unwrap_or(0) + 2_000;
            let absent = MetricId::new("AWS/EC2", "CPUUtilization", "none");
            for id in ids.iter().chain([&absent]) {
                assert_eq!(
                    store.latest(id).map(|(t, v)| (t, v.to_bits())),
                    by_id
                        .0
                        .get(id)
                        .and_then(|s| s.last())
                        .map(|&(t, v)| (t, v.to_bits()))
                );
                for _ in 0..12 {
                    let a = rng.below(end);
                    let b = rng.below(end);
                    let (from, to) = (
                        SimTime::from_millis(a.min(b)),
                        SimTime::from_millis(a.max(b)),
                    );
                    assert_eq!(
                        bits(&store.raw(id, from, to)),
                        bits(&by_id.raw(id, from, to))
                    );
                    let period = SimDuration::from_millis(rng.int_range(1, 4_000) as u64);
                    for &stat in &stats {
                        assert_eq!(
                            store.window_stat(id, stat, from, to).map(f64::to_bits),
                            by_id.window_stat(id, stat, from, to).map(f64::to_bits),
                            "{id} {stat:?} over [{from}, {to})"
                        );
                        assert_eq!(
                            bits(&store.get_statistics(id, stat, period, from, to)),
                            bits(&by_id.get_statistics(id, stat, period, from, to)),
                            "{id} {stat:?} per {period:?} over [{from}, {to})"
                        );
                    }
                }
            }
        });
    }
}
