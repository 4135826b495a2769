// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-obs
//!
//! Deterministic structured tracing for the Flower control stack: the
//! system's answer to "*why* did it act?". The monitor
//! (`flower-core::monitor`) shows the current state all in one place;
//! this crate records the *decisions* — controller gain updates,
//! actuations, throttling, alarm transitions, replanner outcomes,
//! NSGA-II convergence — as a totally-ordered event stream that
//! survives the episode.
//!
//! Three properties drive the design:
//!
//! * **Determinism.** Timestamps come from [`flower_sim::SimTime`] only
//!   (wall clocks are banned by the `nondet-time` lint), collections
//!   are key-ordered, and sequence numbers are assigned at emit
//!   time on the single control thread — so the same seed produces a
//!   **byte-identical** JSONL trace at any `FLOWER_THREADS` worker
//!   count.
//! * **Bounded memory.** The [`Recorder`] is a ring-buffer flight
//!   recorder: the last *N* events survive arbitrarily long episodes;
//!   counters, gauges, histograms, and span aggregates summarize the
//!   rest.
//! * **Near-free when off.** A disabled recorder costs one branch per
//!   call and never allocates, so instrumentation stays compiled into
//!   hot paths.
//!
//! The export format is the versioned JSONL schema `flower-trace/v1`
//! ([`jsonl::SCHEMA`]): a header line, one line per event, and a final
//! summary line. [`reader`] parses them back and is the one validator
//! of the format: `flower trace --in <file>` fails on any document it
//! rejects.

#![deny(missing_docs)]

pub mod event;
pub mod jsonl;
pub mod merge;
pub mod reader;
pub mod recorder;

pub use event::{kind, Event, FieldValue, Fields};
pub use jsonl::{event_line, json_f64, json_str};
pub use merge::{
    merge_rendered, merge_streams, FlightSnapshot, RenderedStream, TraceStream, FLOW_FIELD,
};
pub use reader::{
    parse_json, parse_trace, FollowItem, JsonValue, Trace, TraceEvent, TraceFollower,
};
pub use recorder::{EventSink, Histogram, Recorder, SpanId, SpanStats, Summary, DROPPED_COUNTER};
