//! The structured event model.
//!
//! Every event is a sim-time-stamped record with a dot-namespaced kind
//! and a small bag of typed payload fields. Field keys are `&'static
//! str` so that building an event payload on a hot path never allocates
//! for the keys; values allocate only for the [`FieldValue::Str`]
//! variant. Fields live in one key-sorted list ([`Fields`]) so iteration
//! (and therefore the JSONL export) is deterministically key-ordered.

use std::fmt;

use flower_sim::SimTime;

/// A typed scalar payload value attached to an [`Event`] field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean flag (e.g. whether an actuation was accepted).
    Bool(bool),
    /// Unsigned integer — counts, sizes, generation numbers.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point measurement — utilizations, gains, hypervolumes.
    F64(f64),
    /// Short label — layer names, alarm names, resources.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Bool(b) => write!(f, "{b}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    /// The value as a float, when it is numeric (`U64`/`I64`/`F64`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            FieldValue::U64(v) => Some(v as f64),
            FieldValue::I64(v) => Some(v as f64),
            FieldValue::F64(v) => Some(v),
            FieldValue::Bool(_) | FieldValue::Str(_) => None,
        }
    }
}

/// The payload fields of an [`Event`]: one entry per key, sorted by key
/// in byte order, held in one list.
///
/// It is built from an emitter's slice with the semantics of collecting
/// the slice into a `BTreeMap`: the emitter may list keys in any order,
/// and the last of repeated keys wins.
///
/// ```
/// use flower_obs::event::{FieldValue, Fields};
///
/// let fields = Fields::from_slice(&[
///     ("to", 4u64.into()),
///     ("from", 2u64.into()),
///     ("to", 5u64.into()),
/// ]);
/// let keys: Vec<&str> = fields.iter().map(|(key, _)| key).collect();
/// assert_eq!(keys, ["from", "to"]);
/// assert_eq!(fields.get("to"), Some(&FieldValue::U64(5)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fields(Vec<(&'static str, FieldValue)>);

impl Fields {
    /// Sort `fields` by key, keeping the last value of a repeated key.
    pub fn from_slice(fields: &[(&'static str, FieldValue)]) -> Fields {
        let mut sorted: Vec<(&'static str, FieldValue)> = Vec::with_capacity(fields.len());
        for (key, value) in fields {
            match sorted.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(at) => {
                    if let Some(slot) = sorted.get_mut(at) {
                        slot.1 = value.clone();
                    }
                }
                Err(at) => sorted.insert(at, (key, value.clone())),
            }
        }
        Fields(sorted)
    }

    /// The value of `key`, when present.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        let at = self.0.binary_search_by(|(k, _)| (*k).cmp(key)).ok()?;
        self.0.get(at).map(|(_, value)| value)
    }

    /// The fields in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &FieldValue)> {
        self.0.iter().map(|(key, value)| (*key, value))
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Emit-order sequence number, unique and strictly increasing
    /// within a recorder (assigned at emit time, before any ring-buffer
    /// eviction — so it survives as a global ordering even when old
    /// events are dropped).
    pub seq: u64,
    /// Virtual timestamp: the recorder's ambient *now* at emit time.
    pub at: SimTime,
    /// Dot-namespaced kind, e.g. `control.decision` (see [`crate::kind`]).
    pub kind: &'static str,
    /// Payload fields, ordered by key.
    pub fields: Fields,
}

impl Event {
    /// The field `name` as a float, when present and numeric.
    pub fn f64(&self, name: &str) -> Option<f64> {
        self.fields.get(name).and_then(FieldValue::as_f64)
    }

    /// The field `name` as a string slice, when present and a string.
    pub fn str(&self, name: &str) -> Option<&str> {
        match self.fields.get(name) {
            Some(FieldValue::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Dot-namespaced event kinds emitted by the Flower control stack.
///
/// Kinds are plain `&'static str` constants (not an enum) so that
/// downstream crates can add their own namespaces without a
/// coordination point; the JSONL schema treats the kind as an opaque
/// non-empty string.
pub mod kind {
    /// One per-layer sensor→controller→actuator decision per
    /// monitoring period (`ProvisioningManager::step`).
    pub const CONTROL_DECISION: &str = "control.decision";
    /// Controller gain trajectory sample — including whether the
    /// adaptive controller's gain memory produced a warm start.
    pub const CONTROL_GAIN: &str = "control.gain";
    /// A cloud resource actually changed size (shards, VMs, WCU, RCU),
    /// or a resize request was rejected by the platform.
    pub const CLOUD_RESIZE: &str = "cloud.resize";
    /// A tick saw throttled/dropped work at some layer.
    pub const CLOUD_THROTTLE: &str = "cloud.throttle";
    /// A CloudWatch-style alarm changed state.
    pub const ALARM_TRANSITION: &str = "alarm.transition";
    /// A replanning round completed with a chosen Pareto plan.
    pub const REPLAN_OUTCOME: &str = "replan.outcome";
    /// A planned resource share was clamped up to a layer's minimum
    /// deployable unit during rounding.
    pub const PLAN_CLAMP: &str = "plan.clamp";
    /// A replanning round failed (e.g. no feasible plan).
    pub const REPLAN_FAILED: &str = "replan.failed";
    /// NSGA-II per-generation progress (front size, hypervolume).
    pub const NSGA2_GENERATION: &str = "nsga2.generation";
    /// A named span was entered.
    pub const SPAN_ENTER: &str = "span.enter";
    /// A named span was exited (payload carries its sim-time duration).
    pub const SPAN_EXIT: &str = "span.exit";
    /// The chaos layer injected a fault (rejected, shortened, delayed
    /// or dropped an operation) at some layer.
    pub const CHAOS_FAULT: &str = "chaos.fault";
    /// The resilience policy retried a rejected actuation after its
    /// deterministic backoff elapsed.
    pub const RESILIENCE_RETRY: &str = "resilience.retry";
    /// A delayed actuation missed its deadline and was declared lost.
    pub const RESILIENCE_TIMEOUT: &str = "resilience.timeout";
    /// A control loop entered or left degraded mode (stale sensor —
    /// hold last-known-good share, freeze the adaptive gain).
    pub const RESILIENCE_DEGRADED: &str = "resilience.degraded";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_pick_the_right_variant() {
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3u64), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i64), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(0.5), FieldValue::F64(0.5));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".to_owned()));
    }

    #[test]
    fn numeric_accessor_spans_variants() {
        assert_eq!(FieldValue::U64(2).as_f64(), Some(2.0));
        assert_eq!(FieldValue::I64(-2).as_f64(), Some(-2.0));
        assert_eq!(FieldValue::F64(2.5).as_f64(), Some(2.5));
        assert_eq!(FieldValue::Bool(true).as_f64(), None);
        assert_eq!(FieldValue::from("2").as_f64(), None);
    }

    #[test]
    fn event_field_accessors() {
        let fields = Fields::from_slice(&[
            ("layer", FieldValue::from("ingestion")),
            ("gain", FieldValue::F64(0.25)),
        ]);
        let e = Event {
            seq: 0,
            at: SimTime::from_secs(30),
            kind: kind::CONTROL_GAIN,
            fields,
        };
        assert_eq!(e.f64("gain"), Some(0.25));
        assert_eq!(e.str("layer"), Some("ingestion"));
        assert_eq!(e.f64("layer"), None);
        assert_eq!(e.str("gain"), None);
    }

    #[test]
    fn display_renders_scalars() {
        assert_eq!(FieldValue::from(0.5).to_string(), "0.5");
        assert_eq!(FieldValue::from("storage").to_string(), "storage");
        assert_eq!(FieldValue::from(false).to_string(), "false");
        assert_eq!(FieldValue::from(-1i64).to_string(), "-1");
    }

    /// `Fields::from_slice` holds what collecting the slice into a
    /// `BTreeMap` held, in the same order: random slices over a small
    /// key alphabet, so most repeat a key.
    #[test]
    fn fields_match_a_collected_btree_map() {
        use std::collections::BTreeMap;
        const KEYS: [&str; 7] = ["to", "from", "error", "a", "", "flow", "fl"];
        flower_sim::testkit::forall(300, |rng| {
            let slice: Vec<(&'static str, FieldValue)> = (0..rng.below(12))
                .map(|i| (*rng.pick(&KEYS), FieldValue::U64(i)))
                .collect();
            let fields = Fields::from_slice(&slice);
            let map: BTreeMap<&'static str, FieldValue> = slice.iter().cloned().collect();
            let listed: Vec<(&str, &FieldValue)> = fields.iter().collect();
            let expected: Vec<(&str, &FieldValue)> = map.iter().map(|(k, v)| (*k, v)).collect();
            assert_eq!(listed, expected);
            for key in KEYS {
                assert_eq!(fields.get(key), map.get(key), "key {key:?}");
            }
        });
    }
}
