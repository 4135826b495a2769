//! Deterministic multi-stream trace merging.
//!
//! A fleet run produces one recorder per flow (filled on whichever
//! `flower-par` worker ran the flow's episode) plus a fleet-level
//! recorder for broker events. This module folds those streams into a
//! single `flower-trace/v1` document in two steps:
//!
//! * **render** — each stream becomes a [`RenderedStream`]: every event
//!   line after its `{"seq":N,`, already shifted onto the fleet clock and
//!   stamped with a `flow` field (so `flower trace --flow` can demux it),
//!   plus the header counts and the summary. A worker renders its own
//!   recorder ([`crate::Recorder::render_stream`]) and ships the plain,
//!   `Send` result back; [`crate::Recorder`] itself is `!Send`;
//! * **splice** — [`merge_rendered`] orders the events by `(fleet time,
//!   stream index, position)`, writes `{"seq":N,` with `N` counting
//!   `0..n` and copies each body after it, so the merged document
//!   satisfies the schema's strictly-increasing-seq /
//!   non-decreasing-time rules. Counters sum, gauges keep their maximum,
//!   histograms add bucket-wise, and span aggregates fold; the header
//!   keeps the `emitted == events + dropped` accounting because each
//!   input stream already satisfies it.
//!
//! [`merge_streams`] takes frozen [`FlightSnapshot`]s instead and runs
//! the same two steps. The merge is a pure function of its inputs, so
//! the merged bytes are identical for any `FLOWER_THREADS` as long as
//! each stream is.

use flower_sim::{SimDuration, SimTime};

use crate::event::Event;
use crate::jsonl::{write_event_body, write_header, write_seq, write_summary};
use crate::recorder::Summary;

/// A frozen, thread-transferable copy of one recorder's state.
///
/// Produced by [`crate::Recorder::snapshot`]; consumed by
/// [`merge_streams`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightSnapshot {
    /// Ring-buffer capacity of the source recorder.
    pub capacity: usize,
    /// Total events emitted over the recorder's lifetime.
    pub emitted: u64,
    /// Events evicted from the ring buffer.
    pub dropped: u64,
    /// The surviving events, oldest first.
    pub events: Vec<Event>,
    /// Counters, gauges, histograms and closed-span aggregates.
    pub summary: Summary,
}

/// One input stream of a merge: a snapshot plus its fleet placement.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStream {
    /// `Some(flow id)` stamps every event of this stream with a
    /// `"flow"` field; `None` marks the fleet-level stream.
    pub flow: Option<String>,
    /// Shift applied to every event timestamp, translating the
    /// stream's local episode clock (which starts at zero) onto the
    /// shared fleet timeline.
    pub offset: SimDuration,
    /// The frozen recorder state.
    pub snapshot: FlightSnapshot,
}

/// The field key used to stamp per-flow events in a merged trace.
pub const FLOW_FIELD: &str = "flow";

/// One stream rendered for [`merge_rendered`]; built by
/// [`crate::Recorder::render_stream`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RenderedStream {
    capacity: u64,
    emitted: u64,
    dropped: u64,
    /// Every event's line after `{"seq":N,`, newline included, back to
    /// back in stream order.
    bodies: String,
    /// Per event: its fleet time and the end of its body in `bodies`.
    events: Vec<(SimTime, usize)>,
    summary: Summary,
}

impl RenderedStream {
    /// Render `events` at fleet time `at + offset`, stamped with `flow`.
    pub(crate) fn render<'a>(
        capacity: usize,
        emitted: u64,
        dropped: u64,
        events: impl IntoIterator<Item = &'a Event>,
        summary: &Summary,
        flow: Option<&str>,
        offset: SimDuration,
    ) -> RenderedStream {
        let mut bodies = String::new();
        let mut index = Vec::new();
        for event in events {
            let at = event.at + offset;
            write_event_body(&mut bodies, event, at.as_millis(), flow);
            bodies.push('\n');
            index.push((at, bodies.len()));
        }
        RenderedStream {
            capacity: capacity as u64,
            emitted,
            dropped,
            bodies,
            events: index,
            summary: summary.clone(),
        }
    }
}

impl FlightSnapshot {
    fn render(&self, flow: Option<&str>, offset: SimDuration) -> RenderedStream {
        RenderedStream::render(
            self.capacity,
            self.emitted,
            self.dropped,
            &self.events,
            &self.summary,
            flow,
            offset,
        )
    }
}

/// Merge snapshot streams into one `flower-trace/v1` JSONL document:
/// each is rendered, then spliced by [`merge_rendered`].
///
/// Events are ordered by `(offset-shifted time, stream index, position
/// in the stream)` and re-sequenced; ties across streams break by the
/// caller's stream order, so callers must present streams in a stable
/// order (the fleet runner uses: fleet stream first, then flows in
/// `FlowId` order).
#[must_use]
pub fn merge_streams(streams: &[TraceStream]) -> String {
    let rendered: Vec<RenderedStream> = streams
        .iter()
        .map(|s| s.snapshot.render(s.flow.as_deref(), s.offset))
        .collect();
    merge_rendered(&rendered)
}

/// Splice rendered streams into one `flower-trace/v1` JSONL document,
/// ordering events by `(fleet time, stream index, position)` and
/// re-sequencing them `0..n` (see the [module docs](self)).
#[must_use]
pub fn merge_rendered(streams: &[RenderedStream]) -> String {
    let total: usize = streams.iter().map(|s| s.events.len()).sum();
    let mut order: Vec<(SimTime, usize, usize)> = Vec::with_capacity(total);
    for (idx, stream) in streams.iter().enumerate() {
        order.extend(
            stream
                .events
                .iter()
                .enumerate()
                .map(|(pos, &(at, _))| (at, idx, pos)),
        );
    }
    order.sort_unstable();

    let mut summary = Summary::default();
    let (mut capacity, mut emitted, mut dropped, mut bytes) = (0, 0, 0, 0);
    for stream in streams {
        capacity += stream.capacity;
        emitted += stream.emitted;
        dropped += stream.dropped;
        bytes += stream.bodies.len();
        summary.fold(&stream.summary);
    }
    // Each spliced line adds `{"seq":N,` (at most 28 bytes) to its body.
    let mut out = String::with_capacity(bytes + 28 * total + 4096);
    write_header(&mut out, capacity, total as u64, emitted, dropped);
    for (seq, &(_, idx, pos)) in order.iter().enumerate() {
        let stream = &streams[idx];
        let start = pos.checked_sub(1).map_or(0, |prev| stream.events[prev].1);
        let end = stream.events[pos].1;
        write_seq(&mut out, seq as u64);
        out.push_str(&stream.bodies[start..end]);
    }
    write_summary(&mut out, &summary);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn stream(flow: Option<&str>, offset_s: u64, rec: &Recorder) -> TraceStream {
        TraceStream {
            flow: flow.map(str::to_owned),
            offset: SimDuration::from_secs(offset_s),
            snapshot: rec.snapshot(),
        }
    }

    #[test]
    fn snapshot_freezes_recorder_state() {
        let rec = Recorder::with_capacity(4);
        rec.set_now(SimTime::from_secs(1));
        rec.emit("a.b", &[("x", 1u64.into())]);
        rec.count("n", 2);
        rec.gauge("g", 0.5);
        rec.observe("h", 3.0);
        let span = rec.span_enter("s");
        rec.set_now(SimTime::from_secs(2));
        rec.span_exit(span);
        let snap = rec.snapshot();
        assert_eq!(snap.capacity, 4);
        assert_eq!(snap.emitted, 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.summary.counters.get("n"), Some(&2));
        assert_eq!(snap.summary.gauges.get("g"), Some(&0.5));
        assert_eq!(snap.summary.histograms.get("h").map(|h| h.count), Some(1));
        assert_eq!(snap.summary.spans.get("s").map(|s| s.count), Some(1));
        // The snapshot type is Send — this is the property that lets
        // par workers ship recorder state across threads.
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&snap);
    }

    #[test]
    fn merge_writes_the_exact_bytes() {
        // The fleet stream keeps its own `flow` field, unstamped.
        let fleet = Recorder::with_capacity(4);
        fleet.set_now(SimTime::from_secs(1));
        fleet.emit("fleet.join", &[("flow", "a".into())]);

        let a = Recorder::with_capacity(8);
        a.set_now(SimTime::from_secs(1));
        // Fields keyed before and after `flow`, one needing escapes.
        a.emit(
            "a.mixed",
            &[("active", 2u64.into()), ("zone", "q\"x\n".into())],
        );
        a.emit("a.empty", &[]);
        a.set_now(SimTime::from_secs(2));
        // A `flow` field already present comes out once, restamped.
        a.emit(
            "a.restamp",
            &[("flow", "stale".into()), ("lag", f64::NAN.into())],
        );
        a.count("n", 2);

        // A ring of two that dropped two events, shifted by 1 s.
        let b = Recorder::with_capacity(2);
        for i in 0..4u64 {
            b.emit("b.tick", &[("i", i.into()), ("neg", (-1i64).into())]);
        }

        let expected = concat!(
            r#"{"schema":"flower-trace/v1","capacity":14,"events":6,"emitted":8,"dropped":2}"#,
            "\n",
            r#"{"seq":0,"t_ms":1000,"kind":"fleet.join","fields":{"flow":"a"}}"#,
            "\n",
            r#"{"seq":1,"t_ms":1000,"kind":"a.mixed","fields":{"active":2,"flow":"a","zone":"q\"x\n"}}"#,
            "\n",
            r#"{"seq":2,"t_ms":1000,"kind":"a.empty","fields":{"flow":"a"}}"#,
            "\n",
            r#"{"seq":3,"t_ms":1000,"kind":"b.tick","fields":{"flow":"b","i":2,"neg":-1}}"#,
            "\n",
            r#"{"seq":4,"t_ms":1000,"kind":"b.tick","fields":{"flow":"b","i":3,"neg":-1}}"#,
            "\n",
            r#"{"seq":5,"t_ms":2000,"kind":"a.restamp","fields":{"flow":"a","lag":null}}"#,
            "\n",
            r#"{"summary":{"counters":{"n":2,"trace.dropped":2},"gauges":{},"histograms":{},"spans":{}}}"#,
            "\n",
        );
        let rendered = merge_rendered(&[
            fleet.render_stream(None, SimDuration::ZERO),
            a.render_stream(Some("a"), SimDuration::ZERO),
            b.render_stream(Some("b"), SimDuration::from_secs(1)),
        ]);
        assert_eq!(rendered, expected);
        let snapshots = merge_streams(&[
            stream(None, 0, &fleet),
            stream(Some("a"), 0, &a),
            stream(Some("b"), 1, &b),
        ]);
        assert_eq!(snapshots, rendered);
        crate::reader::parse_trace(&rendered).expect("merged doc parses");
    }

    #[test]
    fn merge_orders_by_time_then_stream_and_restamps() {
        let fleet = Recorder::with_capacity(8);
        fleet.set_now(SimTime::from_secs(10));
        fleet.emit("fleet.rebroker", &[("active", 2u64.into())]);

        let a = Recorder::with_capacity(8);
        a.set_now(SimTime::from_secs(10));
        a.emit("a.tick", &[]);
        let b = Recorder::with_capacity(8);
        b.set_now(SimTime::from_secs(5));
        b.emit("b.tick", &[]);

        // Flow b joins at t=5s, so its local 5s lands at fleet 10s —
        // a three-way tie resolved by stream order: fleet, a, b.
        let doc = merge_streams(&[
            stream(None, 0, &fleet),
            stream(Some("a"), 0, &a),
            stream(Some("b"), 5, &b),
        ]);
        let trace = crate::reader::parse_trace(&doc).expect("merged doc parses");
        let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["fleet.rebroker", "a.tick", "b.tick"]);
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "re-sequenced");
        assert!(trace.events.iter().all(|e| e.t_ms == 10_000));
        assert_eq!(trace.events[0].str(FLOW_FIELD), None, "fleet unstamped");
        assert_eq!(trace.events[1].str(FLOW_FIELD), Some("a"));
        assert_eq!(trace.events[2].str(FLOW_FIELD), Some("b"));
    }

    #[test]
    fn merge_preserves_header_accounting() {
        let a = Recorder::with_capacity(2);
        for i in 0..5u64 {
            a.emit("tick", &[("i", i.into())]);
        }
        let b = Recorder::with_capacity(4);
        b.emit("tock", &[]);
        let doc = merge_streams(&[stream(Some("a"), 0, &a), stream(Some("b"), 0, &b)]);
        let trace = crate::reader::parse_trace(&doc).expect("parses");
        assert_eq!(trace.capacity, 6);
        assert_eq!(trace.emitted, 6);
        assert_eq!(trace.dropped, 3);
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.emitted, trace.events.len() as u64 + trace.dropped);
    }

    #[test]
    fn merge_folds_counters_gauges_histograms_spans() {
        let a = Recorder::with_capacity(8);
        a.count("n", 2);
        a.gauge("depth", 3.0);
        a.observe("lat", 0.5);
        let sa = a.span_enter("round");
        a.set_now(SimTime::from_secs(2));
        a.span_exit(sa);

        let b = Recorder::with_capacity(8);
        b.count("n", 5);
        b.gauge("depth", 7.0);
        b.observe("lat", 50.0);
        let sb = b.span_enter("round");
        b.set_now(SimTime::from_secs(5));
        b.span_exit(sb);

        let doc = merge_streams(&[stream(Some("a"), 0, &a), stream(Some("b"), 0, &b)]);
        let last = doc.lines().last().unwrap_or_default();
        assert!(last.contains("\"n\":7"), "counters sum: {last}");
        assert!(last.contains("\"depth\":7"), "gauges keep max: {last}");
        assert!(
            last.contains("\"lat\":{\"count\":2,\"sum\":50.5,\"min\":0.5,\"max\":50"),
            "histograms fold: {last}"
        );
        assert!(
            last.contains("\"round\":{\"count\":2,\"total_ms\":7000,\"max_ms\":5000}"),
            "spans fold: {last}"
        );
        crate::jsonl::assert_summary_sections(&doc);
    }

    #[test]
    fn single_unlabeled_stream_round_trips_exactly() {
        // A merge of one unshifted, unlabeled stream is the identity:
        // byte-for-byte the recorder's own export.
        let rec = Recorder::with_capacity(8);
        rec.set_now(SimTime::from_secs(1));
        rec.emit("a", &[("x", 0.1.into())]);
        rec.count("n", 1);
        let merged = merge_streams(&[stream(None, 0, &rec)]);
        assert_eq!(merged, rec.to_jsonl());
    }

    #[test]
    fn empty_input_is_a_valid_empty_document() {
        let doc = merge_streams(&[]);
        let trace = crate::reader::parse_trace(&doc).expect("parses");
        assert_eq!(trace.events.len(), 0);
        assert_eq!(trace.emitted, 0);
        crate::jsonl::assert_summary_sections(&doc);
    }
}
