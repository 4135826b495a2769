//! The versioned `flower-trace/v1` JSONL export.
//!
//! Layout (one JSON object per line, `\n`-terminated):
//!
//! 1. **Header** — `{"schema":"flower-trace/v1","capacity":…,
//!    "events":…,"emitted":…,"dropped":…}`.
//! 2. **Events** — one line per buffered event, oldest first:
//!    `{"seq":…,"t_ms":…,"kind":"…","fields":{…}}` with fields in key
//!    order.
//! 3. **Summary** — a final `{"summary":{…}}` line folding in the
//!    counters, gauges, histograms, and closed-span aggregates.
//!
//! Determinism: event fields and all summary maps are key-ordered,
//! floats are rendered with Rust's shortest-round-trip `Display`
//! (bit-identical for bit-identical inputs), and non-finite floats
//! become `null` — so the same recorder state always serializes to the
//! same bytes. [`crate::reader`] reads and validates these documents
//! (`flower trace --in`).

use std::fmt::Write as _;

use crate::event::{Event, FieldValue};
use crate::merge::FLOW_FIELD;
use crate::recorder::{Flight, Summary};

/// The schema identifier stamped into every export.
pub const SCHEMA: &str = "flower-trace/v1";

pub(crate) fn write_jsonl(flight: &Flight) -> String {
    let mut out = String::with_capacity(128 * (flight.events.len() + 2));
    write_header(
        &mut out,
        flight.capacity as u64,
        flight.events.len() as u64,
        flight.next_seq,
        flight.dropped,
    );
    // Events, oldest first.
    for event in &flight.events {
        write_event_line(&mut out, event);
        out.push('\n');
    }
    write_summary(&mut out, &flight.summary);
    out
}

/// Append the header line (newline included).
pub(crate) fn write_header(
    out: &mut String,
    capacity: u64,
    events: u64,
    emitted: u64,
    dropped: u64,
) {
    out.push_str("{\"schema\":");
    push_json_str(out, SCHEMA);
    out.push_str(",\"capacity\":");
    push_u64(out, capacity);
    out.push_str(",\"events\":");
    push_u64(out, events);
    out.push_str(",\"emitted\":");
    push_u64(out, emitted);
    out.push_str(",\"dropped\":");
    push_u64(out, dropped);
    out.push_str("}\n");
}

/// Append the summary line (newline included).
pub(crate) fn write_summary(out: &mut String, summary: &Summary) {
    out.push_str("{\"summary\":{\"counters\":{");
    for (i, (name, value)) in summary.counters.iter().enumerate() {
        push_key(out, i, name);
        push_u64(out, *value);
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in summary.gauges.iter().enumerate() {
        push_key(out, i, name);
        push_json_f64(out, *value);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in summary.histograms.iter().enumerate() {
        push_key(out, i, name);
        out.push_str("{\"count\":");
        push_u64(out, h.count);
        out.push_str(",\"sum\":");
        push_json_f64(out, h.sum);
        out.push_str(",\"min\":");
        push_json_f64(out, h.min);
        out.push_str(",\"max\":");
        push_json_f64(out, h.max);
        out.push_str(",\"buckets\":[");
        for (j, bucket) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_u64(out, *bucket);
        }
        out.push_str("]}");
    }
    out.push_str("},\"spans\":{");
    for (i, (name, stats)) in summary.spans.iter().enumerate() {
        push_key(out, i, name);
        out.push_str("{\"count\":");
        push_u64(out, stats.count);
        out.push_str(",\"total_ms\":");
        push_u64(out, stats.total.as_millis());
        out.push_str(",\"max_ms\":");
        push_u64(out, stats.max.as_millis());
        out.push('}');
    }
    out.push_str("}}}\n");
}

/// Render one event as its `flower-trace/v1` event line (no trailing
/// newline): `{"seq":…,"t_ms":…,"kind":"…","fields":{…}}` with fields
/// in key order. `flower serve` embeds exactly these bytes in its
/// `event` frames so live streams and file exports cannot diverge.
#[must_use]
pub fn event_line(event: &Event) -> String {
    let mut out = String::with_capacity(128);
    write_event_line(&mut out, event);
    out
}

/// Append `event`'s line (no trailing newline) at its own seq and time.
fn write_event_line(out: &mut String, event: &Event) {
    write_seq(out, event.seq);
    write_event_body(out, event, event.at.as_millis(), None);
}

/// Append the start of an event line, `{"seq":N,`.
pub(crate) fn write_seq(out: &mut String, seq: u64) {
    out.push_str("{\"seq\":");
    push_u64(out, seq);
    out.push(',');
}

/// Append the rest of an event line after [`write_seq`]:
/// `"t_ms":…,"kind":"…","fields":{…}}` at time `t_ms`. A `flow` stamp
/// goes in key order among the fields and replaces any `flow` field the
/// event already carries. This is the one event writer: the recorder
/// export, [`event_line`] and the merge all go through it.
pub(crate) fn write_event_body(out: &mut String, event: &Event, t_ms: u64, flow: Option<&str>) {
    out.push_str("\"t_ms\":");
    push_u64(out, t_ms);
    out.push_str(",\"kind\":");
    push_json_str(out, event.kind);
    out.push_str(",\"fields\":{");
    let mut written = 0;
    let mut stamp = flow;
    for (key, value) in event.fields.iter() {
        if let Some(flow) = stamp.filter(|_| key >= FLOW_FIELD) {
            push_key(out, written, FLOW_FIELD);
            push_json_str(out, flow);
            written += 1;
            stamp = None;
            if key == FLOW_FIELD {
                continue;
            }
        }
        push_key(out, written, key);
        push_field_value(out, value);
        written += 1;
    }
    if let Some(flow) = stamp {
        push_key(out, written, FLOW_FIELD);
        push_json_str(out, flow);
    }
    out.push_str("}}");
}

/// Append `"key":`, preceded by a comma unless it is entry 0.
fn push_key(out: &mut String, index: usize, key: &str) {
    if index > 0 {
        out.push(',');
    }
    push_json_str(out, key);
    out.push(':');
}

/// Append a field value as a JSON scalar.
fn push_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::U64(v) => push_u64(out, *v),
        FieldValue::I64(v) => {
            if *v < 0 {
                out.push('-');
            }
            push_u64(out, v.unsigned_abs());
        }
        FieldValue::F64(v) => push_json_f64(out, *v),
        FieldValue::Str(s) => push_json_str(out, s),
    }
}

/// Append an unsigned integer in decimal.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Append a float with Rust's shortest-round-trip `Display`; JSON has
/// no non-finite literals, so NaN/±inf append `null`.
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `raw` as a JSON string with minimal escaping (quotes,
/// backslashes, control chars). Runs of plain bytes are copied whole.
pub(crate) fn push_json_str(out: &mut String, raw: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in raw.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(raw.get(plain..i).unwrap_or_default());
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(raw.get(plain..).unwrap_or_default());
    out.push('"');
}

/// Floats render with Rust's shortest-round-trip `Display`; JSON has no
/// non-finite literals, so NaN/±inf map to `null`.
#[must_use]
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    push_json_f64(&mut out, v);
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
#[must_use]
pub fn json_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    push_json_str(&mut out, raw);
    out
}

/// Assert the writer's side of the summary contract: the summary line
/// carries all four sections, each an object (the reader only requires
/// an object).
#[cfg(test)]
pub(crate) fn assert_summary_sections(doc: &str) {
    let trace = crate::reader::parse_trace(doc).expect("writer output parses");
    for key in ["counters", "gauges", "histograms", "spans"] {
        assert!(
            trace
                .summary
                .as_obj()
                .and_then(|s| s.get(key))
                .is_some_and(|v| v.as_obj().is_some()),
            "summary missing object `{key}`: {doc}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use flower_sim::SimTime;

    #[test]
    fn empty_recorder_exports_header_and_summary() {
        let rec = Recorder::with_capacity(4);
        let doc = rec.to_jsonl();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"schema\":\"flower-trace/v1\""));
        assert!(lines[1].starts_with("{\"summary\":"));
        assert!(doc.ends_with('\n'));
        assert_summary_sections(&doc);
    }

    #[test]
    fn events_render_with_ordered_fields() {
        let rec = Recorder::with_capacity(4);
        rec.set_now(SimTime::from_secs(30));
        rec.emit(
            "control.decision",
            &[
                ("layer", "ingestion".into()),
                ("applied", 3u64.into()),
                ("accepted", true.into()),
                ("measurement", 71.5.into()),
            ],
        );
        let doc = rec.to_jsonl();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3);
        // Key order: accepted, applied, layer, measurement.
        assert_eq!(
            lines[1],
            "{\"seq\":0,\"t_ms\":30000,\"kind\":\"control.decision\",\"fields\":\
             {\"accepted\":true,\"applied\":3,\"layer\":\"ingestion\",\"measurement\":71.5}}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.25), "1.25");
        assert_eq!(json_f64(2.0), "2");
    }

    #[test]
    fn string_escaping_round_trips_specials() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn summary_folds_in_counters_spans_histograms() {
        let rec = Recorder::with_capacity(4);
        rec.count("ticks", 7);
        rec.gauge("shards", 4.0);
        rec.observe("util", 50.0);
        rec.set_now(SimTime::from_secs(1));
        let s = rec.span_enter("round");
        rec.set_now(SimTime::from_secs(3));
        rec.span_exit(s);
        let doc = rec.to_jsonl();
        let last = doc.lines().last().unwrap_or_default();
        assert!(last.contains("\"counters\":{\"ticks\":7}"), "{last}");
        assert!(last.contains("\"gauges\":{\"shards\":4}"), "{last}");
        assert!(last.contains("\"util\":{\"count\":1"), "{last}");
        assert!(
            last.contains("\"round\":{\"count\":1,\"total_ms\":2000,\"max_ms\":2000}"),
            "{last}"
        );
        assert_summary_sections(&doc);
    }

    #[test]
    fn export_is_reproducible() {
        let build = || {
            let rec = Recorder::with_capacity(8);
            rec.set_now(SimTime::from_secs(2));
            rec.emit("a", &[("x", 0.1.into()), ("y", (-3i64).into())]);
            rec.count("n", 1);
            rec.to_jsonl()
        };
        assert_eq!(build(), build());
    }
}
