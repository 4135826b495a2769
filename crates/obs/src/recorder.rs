//! The flight recorder: a bounded, deterministic event sink.
//!
//! [`Recorder`] is a cheaply-cloneable handle; every clone shares the
//! same underlying buffer, so a single recorder can be threaded through
//! the cloud engine, the provisioning manager, the replanner, and the
//! NSGA-II solver and still produce one totally-ordered event stream.
//! All emission happens on the simulation's (single) control thread —
//! worker pools never emit — which is what makes the sequence numbers,
//! and therefore the exported JSONL, byte-identical for any
//! `FLOWER_THREADS` worker count.
//!
//! ## Disabled-recorder contract
//!
//! A disabled recorder ([`Recorder::disabled`], also `Default`) holds no
//! buffer at all. Every API call starts with a single `Option` branch
//! and returns immediately — no allocation, no locking, no time lookup
//! — so leaving instrumentation compiled into hot paths (the NSGA-II
//! generational loop) is near-free.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use flower_sim::{SimDuration, SimTime};

use crate::event::{kind, Event, FieldValue, Fields};
use crate::merge::{FlightSnapshot, RenderedStream};

/// Histogram decade-bucket upper edges (the last bucket is overflow).
/// Comparisons only — no `log` calls — so bucketing is bit-exact.
pub const HISTOGRAM_EDGES: [f64; 10] = [
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
];

/// Deterministic histogram: count/sum/min/max plus decade buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations (insertion order is deterministic, so
    /// the float accumulation is too).
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Counts per decade bucket: `buckets[i]` counts observations
    /// `<= HISTOGRAM_EDGES[i]`; the final slot is the overflow bucket.
    pub buckets: [u64; HISTOGRAM_EDGES.len() + 1],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_EDGES.len() + 1],
        }
    }

    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let slot = HISTOGRAM_EDGES
            .iter()
            .position(|&edge| value <= edge)
            .unwrap_or(HISTOGRAM_EDGES.len());
        self.buckets[slot] += 1;
    }
}

/// Aggregate statistics for all closed spans sharing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of closed spans with this name.
    pub count: u64,
    /// Total sim-time spent inside them.
    pub total: SimDuration,
    /// Longest single span.
    pub max: SimDuration,
}

/// The aggregate half of a recorder, reported on the summary line:
/// counters, gauges, histograms and closed-span aggregates, each
/// name-ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauges (last write wins).
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Closed-span aggregates.
    pub spans: BTreeMap<String, SpanStats>,
}

impl Summary {
    /// Fold `other` into `self` the way a merged trace reports many
    /// recorders: counters sum, gauges keep their maximum, histograms
    /// add bucket-wise, and span aggregates fold.
    pub(crate) fn fold(&mut self, other: &Summary) {
        for (&name, &v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (&name, &v) in &other.gauges {
            self.gauges
                .entry(name)
                .and_modify(|g| *g = g.max(v))
                .or_insert(v);
        }
        for (&name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(acc) => {
                    acc.count += h.count;
                    acc.sum += h.sum;
                    acc.min = acc.min.min(h.min);
                    acc.max = acc.max.max(h.max);
                    for (slot, add) in acc.buckets.iter_mut().zip(h.buckets.iter()) {
                        *slot += add;
                    }
                }
                None => {
                    self.histograms.insert(name, h.clone());
                }
            }
        }
        for (name, s) in &other.spans {
            match self.spans.get_mut(name.as_str()) {
                Some(acc) => {
                    acc.count += s.count;
                    acc.total += s.total;
                    acc.max = acc.max.max(s.max);
                }
                None => {
                    self.spans.insert(name.clone(), *s);
                }
            }
        }
    }
}

/// Handle to an open span, returned by [`Recorder::span_enter`].
///
/// A disabled recorder hands out an inert id; exiting it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

#[derive(Debug)]
struct OpenSpan {
    name: String,
    started: SimTime,
}

/// A streaming tap on the event stream: [`Recorder::set_sink`] installs
/// one alongside the ring buffer, and every event is handed to it the
/// moment it is recorded — before any later eviction can touch it. This
/// is what `flower serve` uses to stream `event` frames live.
///
/// The sink runs on the control thread, inside the recorder's borrow:
/// implementations must not call back into the recorder (buffer the
/// event and drain it from outside instead).
pub trait EventSink: std::fmt::Debug {
    /// Called once per emitted event, in sequence order.
    fn on_event(&mut self, event: &Event);
}

/// The shared recorder state. Private: all access goes through
/// [`Recorder`].
#[derive(Debug)]
pub(crate) struct Flight {
    pub(crate) now: SimTime,
    pub(crate) next_seq: u64,
    pub(crate) capacity: usize,
    pub(crate) events: VecDeque<Event>,
    pub(crate) dropped: u64,
    pub(crate) summary: Summary,
    next_span_id: u64,
    open_spans: BTreeMap<u64, OpenSpan>,
    sink: Option<Box<dyn EventSink>>,
}

/// The counter bumped when the ring buffer evicts an event, so overflow
/// is visible in the exported summary (`flower trace` warns on it).
pub const DROPPED_COUNTER: &str = "trace.dropped";

impl Flight {
    fn push(&mut self, kind: &'static str, fields: &[(&'static str, FieldValue)]) {
        let event = Event {
            seq: self.next_seq,
            at: self.now,
            kind,
            fields: Fields::from_slice(fields),
        };
        self.next_seq += 1;
        if let Some(sink) = self.sink.as_mut() {
            sink.on_event(&event);
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
            *self.summary.counters.entry(DROPPED_COUNTER).or_insert(0) += 1;
        }
        self.events.push_back(event);
    }
}

/// A cloneable handle to a (possibly disabled) flight recorder.
///
/// See the [module docs](self) for the sharing and determinism model.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<RefCell<Flight>>>,
}

impl Recorder {
    /// A recorder that records nothing. Every call is a single branch.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder whose ring buffer keeps the last `capacity`
    /// events (older events are counted in [`Recorder::dropped`]).
    /// `capacity` is clamped to at least 1.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            inner: Some(Rc::new(RefCell::new(Flight {
                now: SimTime::ZERO,
                next_seq: 0,
                capacity: capacity.max(1),
                events: VecDeque::new(),
                dropped: 0,
                summary: Summary::default(),
                next_span_id: 0,
                open_spans: BTreeMap::new(),
                sink: None,
            }))),
        }
    }

    /// Install a streaming [`EventSink`] alongside the ring buffer (a
    /// no-op on a disabled recorder). Every subsequent event reaches
    /// the sink at emit time, in sequence order, including events the
    /// ring buffer later evicts. Replaces any previous sink.
    pub fn set_sink(&self, sink: Box<dyn EventSink>) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().sink = Some(sink);
        }
    }

    /// Remove the streaming sink, if one is installed.
    pub fn clear_sink(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().sink = None;
        }
    }

    /// True when events are actually being recorded. Use this to guard
    /// payload computation that is itself expensive (e.g. a
    /// hypervolume) — plain `emit` calls need no guard.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advance the ambient virtual clock. Subsequent events are stamped
    /// with this instant; the driving loop calls it once per tick so
    /// deep emitters (engine, solver) need no time plumbing.
    pub fn set_now(&self, at: SimTime) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().now = at;
        }
    }

    /// The ambient virtual clock ([`SimTime::ZERO`] when disabled).
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Some(inner) => inner.borrow().now,
            None => SimTime::ZERO,
        }
    }

    /// Record one event. The sequence number is assigned here, at emit
    /// time. Field *keys* never allocate; the fields slice itself may
    /// live on the caller's stack.
    pub fn emit(&self, kind: &'static str, fields: &[(&'static str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().push(kind, fields);
    }

    /// Add `delta` to the monotonic counter `name`.
    pub fn count(&self, name: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        *inner.borrow_mut().summary.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().summary.gauges.insert(name, value);
    }

    /// Record one observation into the histogram `name`.
    pub fn observe(&self, name: &'static str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner
            .borrow_mut()
            .summary
            .histograms
            .entry(name)
            .or_insert_with(Histogram::new)
            .observe(value);
    }

    /// Open a named span at the ambient clock and emit a
    /// [`kind::SPAN_ENTER`] event. Returns the id to close it with.
    pub fn span_enter(&self, name: &str) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId(u64::MAX);
        };
        let mut flight = inner.borrow_mut();
        let id = flight.next_span_id;
        flight.next_span_id += 1;
        let started = flight.now;
        flight.open_spans.insert(
            id,
            OpenSpan {
                name: name.to_owned(),
                started,
            },
        );
        flight.push(
            kind::SPAN_ENTER,
            &[("id", id.into()), ("name", name.into())],
        );
        SpanId(id)
    }

    /// Close a span: emits a [`kind::SPAN_EXIT`] event carrying the
    /// sim-time duration and folds it into the per-name aggregate.
    /// Unknown or already-closed ids are ignored.
    pub fn span_exit(&self, id: SpanId) {
        let Some(inner) = &self.inner else { return };
        let mut flight = inner.borrow_mut();
        let Some(open) = flight.open_spans.remove(&id.0) else {
            return;
        };
        let duration = flight.now.since(open.started);
        let stats = flight
            .summary
            .spans
            .entry(open.name.clone())
            .or_insert(SpanStats {
                count: 0,
                total: SimDuration::ZERO,
                max: SimDuration::ZERO,
            });
        stats.count += 1;
        stats.total += duration;
        stats.max = stats.max.max(duration);
        flight.push(
            kind::SPAN_EXIT,
            &[
                ("duration_ms", duration.as_millis().into()),
                ("id", id.0.into()),
                ("name", open.name.as_str().into()),
            ],
        );
    }

    /// Number of events currently held in the ring buffer.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.borrow().events.len(),
            None => 0,
        }
    }

    /// True when no events are buffered (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events emitted over the recorder's lifetime (including any
    /// evicted from the ring buffer).
    pub fn emitted(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.borrow().next_seq,
            None => 0,
        }
    }

    /// Events evicted from the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.borrow().dropped,
            None => 0,
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.borrow().events.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Current value of the counter `name` (0 when absent/disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .borrow()
                .summary
                .counters
                .get(name)
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }

    /// Snapshot of every counter, name-ordered. Powers the live
    /// `snapshot` frames of the `flower-wire/v1` protocol.
    pub fn counters_snapshot(&self) -> Vec<(&'static str, u64)> {
        match &self.inner {
            Some(inner) => inner
                .borrow()
                .summary
                .counters
                .iter()
                .map(|(&name, &value)| (name, value))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Snapshot of every gauge, name-ordered.
    pub fn gauges_snapshot(&self) -> Vec<(&'static str, f64)> {
        match &self.inner {
            Some(inner) => inner
                .borrow()
                .summary
                .gauges
                .iter()
                .map(|(&name, &value)| (name, value))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Current value of the gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.borrow().summary.gauges.get(name).copied())
    }

    /// Snapshot of the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.borrow().summary.histograms.get(name).cloned())
    }

    /// Aggregate stats of closed spans named `name`.
    pub fn span_stats(&self, name: &str) -> Option<SpanStats> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.borrow().summary.spans.get(name).copied())
    }

    /// Freeze the recorder into a plain, `Send`-able
    /// [`FlightSnapshot`] for cross-thread trace merging. A disabled
    /// recorder snapshots to an empty state.
    pub fn snapshot(&self) -> FlightSnapshot {
        match &self.inner {
            Some(inner) => {
                let flight = inner.borrow();
                FlightSnapshot {
                    capacity: flight.capacity,
                    emitted: flight.next_seq,
                    dropped: flight.dropped,
                    events: flight.events.iter().cloned().collect(),
                    summary: flight.summary.clone(),
                }
            }
            None => FlightSnapshot::default(),
        }
    }

    /// Render the buffered events as one input of
    /// [`crate::merge::merge_rendered`]: each event line after its
    /// `{"seq":N,`, shifted by `offset` onto the fleet clock and stamped
    /// `flow` when given, plus the header counts and the summary. The
    /// result is `Send`, so a worker can render its own recorder. A
    /// disabled recorder renders an empty stream.
    pub fn render_stream(&self, flow: Option<&str>, offset: SimDuration) -> RenderedStream {
        match &self.inner {
            Some(inner) => {
                let flight = inner.borrow();
                RenderedStream::render(
                    flight.capacity,
                    flight.next_seq,
                    flight.dropped,
                    &flight.events,
                    &flight.summary,
                    flow,
                    offset,
                )
            }
            None => RenderedStream::default(),
        }
    }

    /// Serialize the recorder into the versioned `flower-trace/v1`
    /// JSONL document (see [`crate::jsonl`]). A disabled recorder
    /// serializes to the empty string.
    pub fn to_jsonl(&self) -> String {
        match &self.inner {
            Some(inner) => crate::jsonl::write_jsonl(&inner.borrow()),
            None => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.set_now(SimTime::from_secs(5));
        rec.emit(kind::CONTROL_DECISION, &[("x", 1u64.into())]);
        rec.count("ticks", 3);
        rec.gauge("g", 1.0);
        rec.observe("h", 1.0);
        let span = rec.span_enter("s");
        rec.span_exit(span);
        assert!(rec.is_empty());
        assert_eq!(rec.emitted(), 0);
        assert_eq!(rec.counter("ticks"), 0);
        assert_eq!(rec.to_jsonl(), "");
        assert_eq!(rec.now(), SimTime::ZERO);
    }

    #[test]
    fn events_are_stamped_and_sequenced_at_emit() {
        let rec = Recorder::with_capacity(16);
        rec.set_now(SimTime::from_secs(1));
        rec.emit("a.one", &[]);
        rec.set_now(SimTime::from_secs(2));
        rec.emit("a.two", &[("v", 0.5.into())]);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].at, SimTime::from_secs(1));
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].at, SimTime::from_secs(2));
        assert_eq!(events[1].f64("v"), Some(0.5));
    }

    #[test]
    fn ring_buffer_keeps_the_last_n() {
        let rec = Recorder::with_capacity(3);
        for i in 0..10u64 {
            rec.emit("tick", &[("i", i.into())]);
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.dropped(), 7);
        assert_eq!(rec.emitted(), 10);
        // Sequence numbers survive eviction: the survivors are 7, 8, 9.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        // Overflow is surfaced as a counter, not just silent eviction.
        assert_eq!(rec.counter(DROPPED_COUNTER), 7);
        // A non-overflowing recorder carries no such counter, so
        // existing golden traces are unaffected.
        let quiet = Recorder::with_capacity(16);
        quiet.emit("tick", &[]);
        assert_eq!(quiet.counters_snapshot(), Vec::new());
    }

    #[derive(Debug, Default)]
    struct Tap {
        seen: std::rc::Rc<std::cell::RefCell<Vec<(u64, &'static str)>>>,
    }

    impl EventSink for Tap {
        fn on_event(&mut self, event: &Event) {
            self.seen.borrow_mut().push((event.seq, event.kind));
        }
    }

    #[test]
    fn sink_sees_every_event_including_evicted_ones() {
        let rec = Recorder::with_capacity(2);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        rec.set_sink(Box::new(Tap { seen: seen.clone() }));
        for _ in 0..4 {
            rec.emit("tick", &[]);
        }
        let span = rec.span_enter("s");
        rec.span_exit(span);
        // The tap saw all six events in sequence order, even though the
        // ring buffer only retains the last two.
        assert_eq!(
            *seen.borrow(),
            vec![
                (0, "tick"),
                (1, "tick"),
                (2, "tick"),
                (3, "tick"),
                (4, kind::SPAN_ENTER),
                (5, kind::SPAN_EXIT)
            ]
        );
        assert_eq!(rec.len(), 2);
        rec.clear_sink();
        rec.emit("tick", &[]);
        assert_eq!(seen.borrow().len(), 6, "cleared sink sees nothing");
        // Disabled recorders accept (and ignore) a sink.
        Recorder::disabled().set_sink(Box::new(Tap::default()));
    }

    #[test]
    fn snapshots_are_name_ordered() {
        let rec = Recorder::with_capacity(4);
        rec.count("z.late", 1);
        rec.count("a.early", 2);
        rec.gauge("m.mid", 3.5);
        assert_eq!(rec.counters_snapshot(), vec![("a.early", 2), ("z.late", 1)]);
        assert_eq!(rec.gauges_snapshot(), vec![("m.mid", 3.5)]);
        assert_eq!(Recorder::disabled().counters_snapshot(), Vec::new());
        assert_eq!(Recorder::disabled().gauges_snapshot(), Vec::new());
    }

    #[test]
    fn clones_share_one_stream() {
        let rec = Recorder::with_capacity(8);
        let clone = rec.clone();
        rec.emit("from.original", &[]);
        clone.emit("from.clone", &[]);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "from.original");
        assert_eq!(events[1].kind, "from.clone");
        assert_eq!(events[1].seq, 1);
        // The ambient clock is shared too.
        clone.set_now(SimTime::from_secs(9));
        assert_eq!(rec.now(), SimTime::from_secs(9));
    }

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let rec = Recorder::with_capacity(8);
        rec.count("throttles", 2);
        rec.count("throttles", 3);
        assert_eq!(rec.counter("throttles"), 5);
        rec.gauge("shards", 2.0);
        rec.gauge("shards", 5.0);
        assert_eq!(rec.gauge_value("shards"), Some(5.0));
        rec.observe("latency", 0.5);
        rec.observe("latency", 50.0);
        rec.observe("latency", 5e9);
        let h = rec.histogram("latency").expect("histogram exists");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 5e9);
        // 0.5 → bucket `<= 1`, 50 → `<= 100`, 5e9 → overflow.
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[5], 1);
        assert_eq!(h.buckets[HISTOGRAM_EDGES.len()], 1);
    }

    #[test]
    fn spans_measure_sim_time() {
        let rec = Recorder::with_capacity(16);
        rec.set_now(SimTime::from_secs(10));
        let a = rec.span_enter("alarm:cpu");
        rec.set_now(SimTime::from_secs(40));
        rec.span_exit(a);
        rec.set_now(SimTime::from_secs(50));
        let b = rec.span_enter("alarm:cpu");
        rec.set_now(SimTime::from_secs(60));
        rec.span_exit(b);
        let stats = rec.span_stats("alarm:cpu").expect("span closed");
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total, SimDuration::from_secs(40));
        assert_eq!(stats.max, SimDuration::from_secs(30));
        // Enter/exit pairs appear in the event stream.
        let kinds: Vec<&str> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                kind::SPAN_ENTER,
                kind::SPAN_EXIT,
                kind::SPAN_ENTER,
                kind::SPAN_EXIT
            ]
        );
        // Double-exit is ignored.
        rec.span_exit(b);
        assert_eq!(rec.events().len(), 4);
    }

    /// Emitters may list fields in any order and repeat a key: every
    /// writer renders the event as collecting its fields into a
    /// `BTreeMap` did, key-sorted with the last of a repeated key
    /// winning.
    #[test]
    fn unsorted_and_repeated_fields_render_key_sorted_last_wins() {
        let rec = Recorder::with_capacity(8);
        rec.set_now(SimTime::from_secs(2));
        // A rejected resize, built as `CloudEngine::trace_resize` builds
        // it: `error` is pushed after `to` but sorts before `from`.
        rec.emit(
            kind::CLOUD_RESIZE,
            &[
                ("accepted", false.into()),
                ("from", 2.0.into()),
                ("resource", "shards".into()),
                ("to", 0.0.into()),
                ("error", "kinesis: invalid shard count 0".into()),
            ],
        );
        rec.emit(
            "test.unsorted",
            &[
                ("zeta", 1u64.into()),
                ("alpha", "first".into()),
                ("mid", (-0.5).into()),
                ("flow", "own".into()),
                ("alpha", "last".into()),
            ],
        );
        let lines = [
            r#"{"seq":0,"t_ms":2000,"kind":"cloud.resize","fields":{"accepted":false,"error":"kinesis: invalid shard count 0","from":2,"resource":"shards","to":0}}"#,
            r#"{"seq":1,"t_ms":2000,"kind":"test.unsorted","fields":{"alpha":"last","flow":"own","mid":-0.5,"zeta":1}}"#,
        ];
        let events = rec.events();
        let rendered: Vec<String> = events.iter().map(crate::jsonl::event_line).collect();
        assert_eq!(rendered, lines);
        let doc = rec.to_jsonl();
        assert_eq!(doc.lines().skip(1).take(2).collect::<Vec<_>>(), lines);
        // The fleet writer stamps the stream's flow, which replaces the
        // event's own `flow` field.
        let stream = rec.render_stream(Some("t-1"), SimDuration::from_secs(60));
        let merged = crate::merge::merge_rendered(&[stream]);
        assert_eq!(
            merged.lines().skip(1).take(2).collect::<Vec<_>>(),
            [
                r#"{"seq":0,"t_ms":62000,"kind":"cloud.resize","fields":{"accepted":false,"error":"kinesis: invalid shard count 0","flow":"t-1","from":2,"resource":"shards","to":0}}"#,
                r#"{"seq":1,"t_ms":62000,"kind":"test.unsorted","fields":{"alpha":"last","flow":"t-1","mid":-0.5,"zeta":1}}"#,
            ]
        );
    }
}
