// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-workload
//!
//! Workload generation for the Flower reproduction.
//!
//! The paper's demonstration drives its click-stream analytics flow with
//! "a random multi-threaded click stream generator deployed on several
//! EC2 instances to emulate the real website traffics" (§4). This crate
//! is the simulated equivalent:
//!
//! * [`arrival`] — arrival-rate processes over virtual time: constant,
//!   step, ramp, diurnal (the day/night cycle visible in the paper's
//!   Fig. 2), flash crowd, Markov-modulated (MMPP), plus composition and
//!   multiplicative-noise wrappers. Rates are *intensities* (records per
//!   second); actual counts are Poisson-sampled around them.
//! * [`click`] — a click-stream generator that turns an arrival process
//!   into concrete [`click::ClickRecord`]s: users browsing in sessions,
//!   each record reduced to its partition key and payload size — the
//!   two fields the simulated Kinesis reads.
//! * [`scenarios`] — a catalogue of named workload scenarios (diurnal,
//!   flash crowds, periodic/random bursts, growth) composed from the
//!   arrival primitives, for uniform experiment sweeps.

#![deny(missing_docs)]

pub mod arrival;
pub mod click;
pub mod scenarios;

pub use arrival::{
    ArrivalProcess, CompositeProcess, ConstantRate, DiurnalRate, FlashCrowd, MmppRate, NoisyRate,
    RampRate, SpikeTrain, StepRate,
};
pub use click::{ClickRecord, ClickStreamConfig, ClickStreamGenerator};
pub use scenarios::Scenario;
