//! Reading `flower-trace/v1` JSONL documents back.
//!
//! The CLI's `flower trace` subcommand, the `flower serve` wire and
//! record readers, and the integration tests all read JSON through this
//! module, and [`TraceFollower`] is the one validator of the trace
//! format. The parser is a hand-rolled, dependency-free recursive
//! descent with byte-offset error messages.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects use [`BTreeMap`] so that re-serialized
/// or iterated output is deterministically key-ordered.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for non-finite floats by the writer).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as an object, when it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The value as a float, when numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an integer, when it is a finite, non-negative,
    /// integral number no larger than 2^53 (the range an `f64` holds
    /// exactly). Every integer field of the trace, wire and record
    /// formats is read through this, so `-1`, `1.5` and `1e300` are
    /// errors rather than saturated casts.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0;
        match self {
            // lint:allow(float-eq-zero): fract() of a finite f64 is exactly 0.0 iff it is an integer
            JsonValue::Num(n) if (0.0..=MAX_EXACT).contains(n) && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// One event line read back from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emit-order sequence number.
    pub seq: u64,
    /// Virtual timestamp in milliseconds.
    pub t_ms: u64,
    /// Dot-namespaced kind.
    pub kind: String,
    /// Payload fields.
    pub fields: BTreeMap<String, JsonValue>,
}

impl TraceEvent {
    /// The field `name` as a float, when present and numeric.
    pub fn f64(&self, name: &str) -> Option<f64> {
        self.fields.get(name).and_then(JsonValue::as_num)
    }

    /// The field `name` as a string slice, when present and a string.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.fields.get(name).and_then(JsonValue::as_str)
    }
}

/// A fully parsed `flower-trace/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Ring-buffer capacity of the producing recorder.
    pub capacity: u64,
    /// Total events emitted over the recorder's lifetime.
    pub emitted: u64,
    /// Events evicted before export.
    pub dropped: u64,
    /// The buffered events, oldest first.
    pub events: Vec<TraceEvent>,
    /// The summary object from the final line.
    pub summary: JsonValue,
}

impl Trace {
    /// Event count per kind, kind-ordered.
    pub fn counts_by_kind(&self) -> BTreeMap<&str, usize> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for event in &self.events {
            *counts.entry(event.kind.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// Distinct `flow` stamps present in the events, name-ordered. A
    /// merged fleet trace carries one per tenant; a single-episode trace
    /// has none.
    pub fn flows(&self) -> Vec<&str> {
        let set: std::collections::BTreeSet<&str> = self
            .events
            .iter()
            .filter_map(|e| e.str(crate::merge::FLOW_FIELD))
            .collect();
        set.into_iter().collect()
    }

    /// Keep only events stamped `flow = <flow>` — the per-flow demux of
    /// a merged fleet trace (`flower trace --flow`). Header counts and
    /// the summary are left untouched: they describe the whole document.
    pub fn retain_flow(&mut self, flow: &str) {
        self.events
            .retain(|e| e.str(crate::merge::FLOW_FIELD) == Some(flow));
    }

    /// Re-serialize as a `flower-trace/v1` JSONL document, byte-identical
    /// to the document this trace was parsed from.
    ///
    /// Export → [`parse_trace`] → re-export is a fixed point: maps render
    /// in key order (they were parsed into `BTreeMap`s), floats with the
    /// shortest-round-trip `Display` the writer used, and the schema's
    /// two aggregate shapes — histogram and span objects in the summary —
    /// in the writer's fixed field order rather than key order.
    pub fn to_jsonl(&self) -> String {
        use crate::jsonl::{push_json_str, push_u64, write_header, write_seq};

        let mut out = String::new();
        write_header(
            &mut out,
            self.capacity,
            self.events.len() as u64,
            self.emitted,
            self.dropped,
        );
        for event in &self.events {
            write_seq(&mut out, event.seq);
            out.push_str("\"t_ms\":");
            push_u64(&mut out, event.t_ms);
            out.push_str(",\"kind\":");
            push_json_str(&mut out, &event.kind);
            out.push_str(",\"fields\":");
            write_object(&event.fields, &mut out);
            out.push_str("}\n");
        }
        out.push_str("{\"summary\":");
        write_summary(&self.summary, &mut out);
        out.push_str("}\n");
        out
    }
}

/// The writer's fixed field order for histogram aggregates.
const HISTOGRAM_SHAPE: [&str; 5] = ["count", "sum", "min", "max", "buckets"];
/// The writer's fixed field order for closed-span aggregates.
const SPAN_SHAPE: [&str; 3] = ["count", "total_ms", "max_ms"];

/// Serialize the summary object: generic key-ordered JSON, except that
/// the `histograms` and `spans` sections hold aggregate objects the
/// writer emits in a fixed (non-alphabetical) field order.
fn write_summary(value: &JsonValue, out: &mut String) {
    use crate::jsonl::push_json_str;
    let Some(map) = value.as_obj() else {
        write_json(value, out);
        return;
    };
    out.push('{');
    for (i, (key, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, key);
        out.push(':');
        match (key.as_str(), v) {
            ("histograms", JsonValue::Obj(aggs)) => write_aggregates(aggs, &HISTOGRAM_SHAPE, out),
            ("spans", JsonValue::Obj(aggs)) => write_aggregates(aggs, &SPAN_SHAPE, out),
            _ => write_json(v, out),
        }
    }
    out.push('}');
}

/// Serialize a map of named aggregate objects, each in the writer's
/// `shape` field order (falling back to generic serialization for a
/// value that does not match the shape).
fn write_aggregates(map: &BTreeMap<String, JsonValue>, shape: &[&str], out: &mut String) {
    use crate::jsonl::push_json_str;
    out.push('{');
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, name);
        out.push(':');
        match v.as_obj() {
            Some(obj) if obj.len() == shape.len() && shape.iter().all(|k| obj.contains_key(*k)) => {
                out.push('{');
                for (j, key) in shape.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_json_str(out, key);
                    out.push(':');
                    if let Some(field) = obj.get(*key) {
                        write_json(field, out);
                    }
                }
                out.push('}');
            }
            _ => write_json(v, out),
        }
    }
    out.push('}');
}

/// Serialize a parsed value back to the writer's byte format: maps in
/// key order, floats via the shortest-round-trip `Display`.
fn write_json(value: &JsonValue, out: &mut String) {
    use crate::jsonl::{push_json_f64, push_json_str};
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => push_json_f64(out, *n),
        JsonValue::Str(s) => push_json_str(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(map) => write_object(map, out),
    }
}

/// Serialize an object in key order.
fn write_object(map: &BTreeMap<String, JsonValue>, out: &mut String) {
    out.push('{');
    for (i, (key, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::jsonl::push_json_str(out, key);
        out.push(':');
        write_json(v, out);
    }
    out.push('}');
}

/// One complete line surfaced by [`TraceFollower`].
#[derive(Debug, Clone, PartialEq)]
pub enum FollowItem {
    /// The header line: the document opened.
    Header {
        /// Ring-buffer capacity of the producing recorder.
        capacity: u64,
        /// Total events emitted over the recorder's lifetime.
        emitted: u64,
        /// Events evicted before export.
        dropped: u64,
        /// Event-line count the header declares.
        declared_events: u64,
    },
    /// One complete, validated event line.
    Event(TraceEvent),
    /// The final summary line: the document is complete.
    Summary(JsonValue),
}

/// Incremental reader for a growing `flower-trace/v1` JSONL document.
///
/// Feed arbitrarily-chopped chunks with [`TraceFollower::feed`]; only
/// *complete* (newline-terminated) lines are parsed, and a partial tail
/// is carried until the rest of the line arrives — so the follower
/// survives mid-line writes, resumes cleanly across partial reads, and
/// never mis-parses a truncated record. The format rules are enforced
/// as lines stream in:
///
/// - the header comes first, names the schema, and carries integer
///   `capacity`/`events`/`emitted`/`dropped` with `events <= capacity`
///   and `emitted == events + dropped`;
/// - each event has strictly increasing integer `seq`, non-decreasing
///   integer `t_ms`, a non-empty `kind`, an object `fields`, and a
///   string `flow` stamp when it has one;
/// - a single summary line, an object, comes last.
///
/// `flower trace --follow` tails a file with this type; [`parse_trace`]
/// is the same machine run to end-of-input.
#[derive(Debug, Default)]
pub struct TraceFollower {
    pending: String,
    lineno: usize,
    header: Option<(u64, u64, u64, u64)>,
    last: Option<(u64, u64)>,
    events_seen: u64,
    summary_seen: bool,
}

impl TraceFollower {
    /// A follower expecting the header line.
    pub fn new() -> TraceFollower {
        TraceFollower::default()
    }

    /// Feed the next chunk of the document (any split, including
    /// mid-line and mid-token) and collect the items completed by it.
    ///
    /// # Errors
    ///
    /// Returns the same line-addressed schema violations as
    /// [`parse_trace`]. After an error the follower is poisoned only in
    /// the sense that its validation state reflects the lines accepted
    /// so far; callers should stop feeding.
    pub fn feed(&mut self, chunk: &str) -> Result<Vec<FollowItem>, String> {
        self.pending.push_str(chunk);
        let mut items = Vec::new();
        // Consume complete lines via a cursor and compact the carried
        // tail once — draining per line would memmove the rest of the
        // buffer each time, which is quadratic when a whole multi-MB
        // document arrives as a single chunk (parse_trace does exactly
        // that for merged fleet traces).
        let mut consumed = 0usize;
        while let Some(nl) = self.pending[consumed..].find('\n') {
            let line: String = self.pending[consumed..consumed + nl].to_owned();
            consumed += nl + 1;
            match self.take_line(&line) {
                Ok(Some(item)) => items.push(item),
                Ok(None) => {}
                Err(e) => {
                    self.pending.drain(..consumed);
                    return Err(e);
                }
            }
        }
        self.pending.drain(..consumed);
        Ok(items)
    }

    /// Treat end-of-input as the final line terminator: parse any
    /// carried partial line (a document whose last line has no trailing
    /// newline). Tailing callers should *not* call this until the
    /// writer is done — a mid-line EOF is exactly what [`Self::pending`]
    /// carries across the next read.
    ///
    /// # Errors
    ///
    /// Returns the pending line's parse or schema violation, if any.
    pub fn finish(&mut self) -> Result<Option<FollowItem>, String> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let line = std::mem::take(&mut self.pending);
        self.take_line(&line)
    }

    /// The carried partial line (empty when the last feed ended exactly
    /// on a line boundary).
    pub fn pending(&self) -> &str {
        &self.pending
    }

    /// True once the summary line has been read: the document is
    /// complete and no further lines are valid.
    pub fn finished(&self) -> bool {
        self.summary_seen
    }

    /// Event lines accepted so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    fn take_line(&mut self, line: &str) -> Result<Option<FollowItem>, String> {
        self.lineno += 1;
        let lineno = self.lineno;
        let Some((_, _, _, declared_events)) = self.header else {
            let header = parse_json(line).map_err(|e| format!("line 1 (header): {e}"))?;
            let header = header
                .as_obj()
                .ok_or_else(|| "line 1 (header): not an object".to_owned())?;
            let schema = header
                .get("schema")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "header: missing string `schema`".to_owned())?;
            if schema != crate::jsonl::SCHEMA {
                return Err(format!(
                    "header: schema is `{schema}`, expected `{}`",
                    crate::jsonl::SCHEMA
                ));
            }
            let header_u64 = |key: &str| -> Result<u64, String> {
                header
                    .get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("header: `{key}` must be a non-negative integer"))
            };
            let capacity = header_u64("capacity")?;
            let emitted = header_u64("emitted")?;
            let dropped = header_u64("dropped")?;
            let events = header_u64("events")?;
            if events > capacity {
                return Err(format!(
                    "header: {events} events exceed capacity {capacity}"
                ));
            }
            if emitted != events + dropped {
                return Err(format!(
                    "header: emitted ({emitted}) != events ({events}) + dropped ({dropped})"
                ));
            }
            self.header = Some((capacity, emitted, dropped, events));
            return Ok(Some(FollowItem::Header {
                capacity,
                emitted,
                dropped,
                declared_events: events,
            }));
        };
        if line.trim().is_empty() {
            return Ok(None);
        }
        let value = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let obj = value
            .as_obj()
            .ok_or_else(|| format!("line {lineno}: not an object"))?;
        if let Some(summary_value) = obj.get("summary") {
            if self.summary_seen {
                return Err(format!("line {lineno}: duplicate summary line"));
            }
            if summary_value.as_obj().is_none() {
                return Err(format!("line {lineno}: `summary` is not an object"));
            }
            if self.events_seen != declared_events {
                return Err(format!(
                    "header declares {declared_events} events, document has {}",
                    self.events_seen
                ));
            }
            self.summary_seen = true;
            return Ok(Some(FollowItem::Summary(summary_value.clone())));
        }
        if self.summary_seen {
            return Err(format!("line {lineno}: event after the summary line"));
        }
        let num = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("line {lineno}: `{key}` must be a non-negative integer"))
        };
        let event = TraceEvent {
            seq: num("seq")?,
            t_ms: num("t_ms")?,
            kind: obj
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {lineno}: missing string `kind`"))?
                .to_owned(),
            fields: obj
                .get("fields")
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| format!("line {lineno}: missing object `fields`"))?
                .clone(),
        };
        if event.kind.is_empty() {
            return Err(format!("line {lineno}: empty event kind"));
        }
        // `flower trace --flow` demuxes merged fleet traces on this
        // stamp; a non-string stamp would silently escape the filter.
        if event
            .fields
            .get(crate::merge::FLOW_FIELD)
            .is_some_and(|flow| flow.as_str().is_none())
        {
            return Err(format!(
                "line {lineno}: `{}` field must be a string",
                crate::merge::FLOW_FIELD
            ));
        }
        if let Some((prev_seq, prev_t)) = self.last {
            if event.seq <= prev_seq {
                return Err(format!(
                    "line {lineno}: seq {} not strictly increasing (previous {prev_seq})",
                    event.seq
                ));
            }
            if event.t_ms < prev_t {
                return Err(format!(
                    "line {lineno}: t_ms {} goes backwards (previous {prev_t})",
                    event.t_ms
                ));
            }
        }
        self.last = Some((event.seq, event.t_ms));
        self.events_seen += 1;
        Ok(Some(FollowItem::Event(event)))
    }
}

/// Parse a complete `flower-trace/v1` JSONL document: the
/// [`TraceFollower`] state machine run to end-of-input, requiring the
/// header and the final summary line (the follower checks the declared
/// event count when it reads the summary).
pub fn parse_trace(text: &str) -> Result<Trace, String> {
    let mut follower = TraceFollower::new();
    let mut items = follower.feed(text)?;
    if let Some(item) = follower.finish()? {
        items.push(item);
    }
    let mut header = None;
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut summary = None;
    for item in items {
        match item {
            FollowItem::Header {
                capacity,
                emitted,
                dropped,
                ..
            } => header = Some((capacity, emitted, dropped)),
            FollowItem::Event(event) => events.push(event),
            FollowItem::Summary(value) => summary = Some(value),
        }
    }
    let Some((capacity, emitted, dropped)) = header else {
        return Err("empty document: missing header line".to_owned());
    };
    let summary = summary.ok_or_else(|| "missing final summary line".to_owned())?;
    Ok(Trace {
        capacity,
        emitted,
        dropped,
        events,
        summary,
    })
}

/// Nesting limit of [`parse_json`]: deep enough for every document the
/// workspace writes (a trace summary nests four levels), shallow enough
/// that a line of `[[[[…` is an error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// Parse a single JSON document from `text`.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` with one push. Both
            // delimiters are ASCII and every run starts right after one
            // (or after an ASCII escape), so both ends are char boundaries.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_owned())?;
            let end = self.pos + run;
            out.push_str(&self.text[self.pos..end]);
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let start = self.pos + 1;
                    let end = start + 4;
                    let hex = self
                        .bytes
                        .get(start..end)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape at offset {}", self.pos))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at offset {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at offset {start}"))?;
        raw.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number `{raw}` at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use flower_sim::SimTime;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-2.5e1").unwrap(), JsonValue::Num(-25.0));
        assert_eq!(
            parse_json("\"a\\nb\"").unwrap(),
            JsonValue::Str("a\nb".to_owned())
        );
    }

    #[test]
    fn structures_parse() {
        let v = parse_json("{\"a\":[1,2,{\"b\":false}],\"c\":\"x\"}").unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj.len(), 2);
        match obj.get("a") {
            Some(JsonValue::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_error() {
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"open").is_err());
        assert!(parse_json("\"open\\").is_err());
        assert!(parse_json("\"bad \\q escape\"").is_err());
        assert!(parse_json("\"\\u12\"").is_err());
    }

    #[test]
    fn strings_copy_multibyte_runs_between_escapes() {
        assert_eq!(
            parse_json("\"h\u{e9}llo \\\"\u{2713}\\\" \\u00e9\\n\u{1f600}\"").unwrap(),
            JsonValue::Str("h\u{e9}llo \"\u{2713}\" \u{e9}\n\u{1f600}".to_owned())
        );
        assert_eq!(parse_json("\"\"").unwrap(), JsonValue::Str(String::new()));
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // A million brackets is an error, not a stack overflow.
        assert!(parse_json(&"[{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn as_u64_accepts_exact_non_negative_integers_only() {
        for (text, want) in [
            ("0", Some(0)),
            ("42", Some(42)),
            ("1e3", Some(1_000)),
            ("9007199254740992", Some(9_007_199_254_740_992)),
            ("9007199254740994", None),
            ("-1", None),
            ("1.5", None),
            ("1e300", None),
            ("1e400", None),
            ("\"7\"", None),
            ("null", None),
        ] {
            assert_eq!(parse_json(text).unwrap().as_u64(), want, "{text}");
        }
    }

    #[test]
    fn written_traces_round_trip() {
        let rec = Recorder::with_capacity(8);
        rec.set_now(SimTime::from_secs(30));
        rec.emit(
            "control.decision",
            &[("layer", "ingestion".into()), ("applied", 3u64.into())],
        );
        rec.set_now(SimTime::from_secs(60));
        rec.emit("cloud.throttle", &[("count", 12u64.into())]);
        rec.count("ticks", 2);
        let trace = parse_trace(&rec.to_jsonl()).unwrap();
        assert_eq!(trace.capacity, 8);
        assert_eq!(trace.emitted, 2);
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].kind, "control.decision");
        assert_eq!(trace.events[0].t_ms, 30_000);
        assert_eq!(trace.events[0].str("layer"), Some("ingestion"));
        assert_eq!(trace.events[1].f64("count"), Some(12.0));
        let counts = trace.counts_by_kind();
        assert_eq!(counts.get("cloud.throttle"), Some(&1));
        assert!(trace.summary.as_obj().is_some());
    }

    #[test]
    fn reexport_is_byte_identical() {
        // Exercise every writer shape: all field-value types, counters,
        // gauges, a histogram, and a closed span (the two aggregates
        // whose field order is schema-fixed, not alphabetical).
        let rec = Recorder::with_capacity(16);
        rec.set_now(SimTime::from_secs(5));
        rec.emit(
            "plan.outcome",
            &[
                ("accepted", true.into()),
                ("cost", 0.9714.into()),
                ("delta", (-2i64).into()),
                ("layer", "storage".into()),
                ("units", 431u64.into()),
            ],
        );
        rec.count("replan.rounds", 3);
        rec.gauge("cloud.shards", 6.0);
        rec.observe("util", 71.5);
        rec.observe("util", 12.0);
        let span = rec.span_enter("episode.run");
        rec.set_now(SimTime::from_secs(9));
        rec.span_exit(span);
        let doc = rec.to_jsonl();
        let trace = parse_trace(&doc).unwrap();
        assert_eq!(trace.to_jsonl(), doc, "re-export is not a fixed point");
    }

    /// A well-formed document and, per rule of the format, a one-edit
    /// variant it rejects with the named reason.
    const GOOD: &str = "\
{\"schema\":\"flower-trace/v1\",\"capacity\":8,\"events\":2,\"emitted\":2,\"dropped\":0}\n\
{\"seq\":0,\"t_ms\":30000,\"kind\":\"fleet.join\",\"fields\":{\"flow\":\"busy-000\"}}\n\
{\"seq\":1,\"t_ms\":60000,\"kind\":\"cloud.resize\",\"fields\":{\"flow\":\"busy-000\",\"to\":4}}\n\
{\"summary\":{\"counters\":{\"control.decisions\":1},\"gauges\":{},\"histograms\":{},\"spans\":{}}}\n";

    #[test]
    fn schema_and_shape_violations_are_rejected() {
        let trace = parse_trace(GOOD).unwrap();
        assert_eq!(trace.flows(), ["busy-000"]);
        let edit = |from: &str, to: &str| GOOD.replace(from, to);
        let second_event = GOOD.lines().nth(2).unwrap_or_default();
        let summary = GOOD.lines().last().unwrap_or_default();
        let third_event = "{\"seq\":2,\"t_ms\":70000,\"kind\":\"x\",\"fields\":{}}";
        // The reader requires an object summary; its four sections are
        // the writer's promise, asserted by the jsonl and merge tests.
        assert!(parse_trace(&edit(summary, "{\"summary\":{}}")).is_ok());
        let mut cases = vec![
            (edit("flower-trace/v1", "other/v9"), "schema is `other/v9`"),
            (
                edit("\"events\":2", "\"events\":3"),
                "emitted (2) != events (3) + dropped (0)",
            ),
            (
                edit("\"emitted\":2", "\"emitted\":5"),
                "emitted (5) != events (2)",
            ),
            (
                edit("\"capacity\":8", "\"capacity\":1"),
                "2 events exceed capacity 1",
            ),
            (edit("\"seq\":1", "\"seq\":0"), "not strictly increasing"),
            (edit("\"t_ms\":60000", "\"t_ms\":1"), "goes backwards"),
            (
                edit("\"kind\":\"cloud.resize\",", ""),
                "missing string `kind`",
            ),
            (edit("\"cloud.resize\"", "\"\""), "empty event kind"),
            (
                edit("{\"flow\":\"busy-000\",\"to\":4}", "4"),
                "missing object `fields`",
            ),
            (
                edit("\"flow\":\"busy-000\",", "\"flow\":7,"),
                "`flow` field must be a string",
            ),
            (
                edit(&format!("{second_event}\n"), ""),
                "header declares 2 events, document has 1",
            ),
            (
                edit(summary, &format!("{third_event}\n{summary}")),
                "header declares 2 events, document has 3",
            ),
            (edit(summary, "\n"), "missing final summary line"),
            (
                edit(summary, "{\"summary\":7}"),
                "`summary` is not an object",
            ),
            (
                format!("{GOOD}{third_event}\n"),
                "event after the summary line",
            ),
            (String::new(), "empty document"),
        ];
        for bad in ["-4", "1.5", "1e300", "\"8\""] {
            for (from, key) in [
                ("\"capacity\":8", "capacity"),
                ("\"seq\":1", "seq"),
                ("\"t_ms\":60000", "t_ms"),
            ] {
                cases.push((
                    edit(from, &format!("\"{key}\":{bad}")),
                    "must be a non-negative integer",
                ));
            }
        }
        for (doc, why) in cases {
            let err = parse_trace(&doc).unwrap_err();
            assert!(err.contains(why), "`{err}` should mention `{why}`");
        }
    }

    /// Feed `text` in random chunk sizes, each ending on a char boundary,
    /// then finish: the items, or the first error.
    fn feed_in_chunks(rng: &mut flower_sim::SimRng, text: &str) -> Result<Vec<FollowItem>, String> {
        let mut follower = TraceFollower::new();
        let mut items = Vec::new();
        let mut rest = text;
        while !rest.is_empty() {
            let mut cut = (rng.below(24) as usize + 1).min(rest.len());
            while !rest.is_char_boundary(cut) {
                cut += 1;
            }
            let (chunk, tail) = rest.split_at(cut);
            items.extend(follower.feed(chunk)?);
            rest = tail;
        }
        items.extend(follower.finish()?);
        Ok(items)
    }

    #[test]
    fn arbitrary_text_never_panics_and_chunking_never_matters() {
        use flower_sim::testkit::{forall, fuzz_text, mutate};
        let rec = Recorder::with_capacity(16);
        rec.set_now(SimTime::from_secs(1));
        rec.emit("fleet.join", &[("flow", "b\u{e9}sy#1 \u{2713}".into())]);
        rec.set_now(SimTime::from_secs(2));
        rec.emit(
            "cloud.resize",
            &[
                ("note", "a \"quoted\" \\ \u{1f600}".into()),
                ("units", 3u64.into()),
            ],
        );
        rec.count("ticks", 2);
        rec.observe("util", 71.5);
        let span = rec.span_enter("round");
        rec.set_now(SimTime::from_secs(4));
        rec.span_exit(span);
        let valid = rec.to_jsonl();
        assert!(parse_trace(&valid).is_ok());
        forall(500, |rng| {
            for text in [fuzz_text(rng, 96), mutate(rng, &valid), valid.clone()] {
                let whole = parse_trace(&text);
                let mut one = TraceFollower::new();
                let at_once = one.feed(&text).and_then(|mut items| {
                    items.extend(one.finish()?);
                    Ok(items)
                });
                assert_eq!(feed_in_chunks(rng, &text), at_once, "{text:?}");
                assert_eq!(whole.is_ok(), at_once.is_ok() && one.finished(), "{text:?}");
            }
        });
    }

    fn small_doc() -> String {
        let rec = Recorder::with_capacity(16);
        rec.set_now(SimTime::from_secs(1));
        rec.emit("control.decision", &[("layer", "ingestion".into())]);
        rec.set_now(SimTime::from_secs(2));
        rec.emit("cloud.resize", &[("units", 3u64.into())]);
        rec.count("ticks", 2);
        rec.to_jsonl()
    }

    #[test]
    fn truncated_document_is_rejected_whole_but_followable() {
        // A writer that died mid-episode: header + events, no summary.
        let doc = small_doc();
        let truncated: String = doc.lines().take(3).map(|l| format!("{l}\n")).collect();
        let err = parse_trace(&truncated).unwrap_err();
        assert!(err.contains("missing final summary line"), "{err}");

        // The follower accepts the same prefix and simply reports that
        // the document is not finished yet.
        let mut follower = TraceFollower::new();
        let items = follower.feed(&truncated).unwrap();
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], FollowItem::Header { .. }));
        assert!(!follower.finished());
        assert_eq!(follower.events_seen(), 2);
        assert!(follower.pending().is_empty());
    }

    #[test]
    fn interleaved_chunks_reassemble_every_line() {
        // Feed the document in 7-byte chunks: every line boundary and
        // most JSON tokens are split across reads.
        let doc = small_doc();
        let mut follower = TraceFollower::new();
        let mut items = Vec::new();
        let bytes = doc.as_bytes();
        for chunk in bytes.chunks(7) {
            let chunk = std::str::from_utf8(chunk).unwrap();
            items.extend(follower.feed(chunk).unwrap());
        }
        assert!(follower.finished());
        assert!(matches!(items.first(), Some(FollowItem::Header { .. })));
        assert!(matches!(items.last(), Some(FollowItem::Summary(_))));
        let events: Vec<_> = items
            .iter()
            .filter_map(|i| match i {
                FollowItem::Event(e) => Some(e.kind.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(events, ["control.decision", "cloud.resize"]);
    }

    #[test]
    fn mid_line_eof_is_carried_until_the_rest_arrives() {
        let doc = small_doc();
        // Stop mid-way through the second event line, as a tailing
        // reader would see while the writer is flushing.
        let split = doc.find("cloud.resize").unwrap();
        let (head, tail) = doc.split_at(split);
        let mut follower = TraceFollower::new();
        let items = follower.feed(head).unwrap();
        assert_eq!(items.len(), 2, "header + first event only");
        assert!(follower.pending().starts_with("{\"seq\""));
        assert_eq!(follower.events_seen(), 1);

        // finish() at a true mid-line EOF surfaces the malformed tail.
        let mut eof = TraceFollower::new();
        eof.feed(head).unwrap();
        assert!(eof.finish().is_err());

        // The tailing reader instead keeps the fragment and resumes.
        let items = follower.feed(tail).unwrap();
        assert!(follower.finished());
        assert!(matches!(items.last(), Some(FollowItem::Summary(_))));
        assert_eq!(follower.events_seen(), 2);
    }

    #[test]
    fn follower_rejects_lines_after_the_summary() {
        let doc = small_doc();
        let mut follower = TraceFollower::new();
        follower.feed(&doc).unwrap();
        assert!(follower.finished());
        let err = follower
            .feed("{\"seq\":99,\"t_ms\":0,\"kind\":\"a\",\"fields\":{}}\n")
            .unwrap_err();
        assert!(err.contains("event after the summary line"), "{err}");
    }
}
