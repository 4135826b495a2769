// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-sim
//!
//! Deterministic discrete-event simulation kernel used by every other crate
//! in the Flower reproduction.
//!
//! The paper's system ran against live AWS services in wall-clock time; this
//! crate substitutes a virtual clock so that every experiment is
//! reproducible, seedable, and runs in milliseconds on a laptop while
//! preserving the *cadence* that matters to the controllers: periodic
//! metric samples, periodic control ticks, and delayed actuation effects
//! (VM boot time, shard-split duration, ...).
//!
//! The kernel is deliberately small and generic:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time in integer milliseconds.
//! * [`SimRng`] — a self-contained, dependency-free xoshiro256++ PRNG
//!   (stable across toolchain upgrades, unlike `StdRng`) with its own
//!   distribution toolkit (uniform, normal, Poisson, geometric, ...).
//! * [`Scheduler`] — a binary-heap event queue with FIFO tie-breaking,
//!   generic over the simulated world state `S`.
//! * [`conf`] — the TOML-subset line reader behind the fleet and
//!   fault-plan files.
//!
//! ```
//! use flower_sim::{Scheduler, SimDuration, SimTime};
//!
//! // World state: a counter.
//! let mut sched: Scheduler<u64> = Scheduler::new();
//! // Schedule three increments at t = 10ms, 20ms, 30ms.
//! for i in 1..=3u64 {
//!     sched.schedule_in(SimDuration::from_millis(10 * i), move |_s, state| {
//!         *state += i;
//!     });
//! }
//! let mut state = 0u64;
//! sched.run(&mut state);
//! assert_eq!(state, 6);
//! assert_eq!(sched.now(), SimTime::from_millis(30));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod conf;
#[cfg(clippy)]
mod lint_floor;
pub mod rng;
pub mod scheduler;
pub mod testkit;
pub mod time;

pub use rng::SimRng;
pub use scheduler::{EventHandle, Scheduler};
pub use time::{SimDuration, SimTime};
