//! `flower-serve`: the live runtime daemon.
//!
//! Everything deterministic lives downstream (`flower-core` and
//! friends); this crate is the one place sockets, wall clocks, and
//! files appear. It hosts a flow episode behind a versioned
//! newline-JSON protocol ([`wire`]: `flower-wire/v1`), streams every
//! `flower-obs` event the moment it is recorded, applies live commands
//! at tick boundaries, and records the applied command stream
//! (`flower-record/v1`) so any live session [`replay`]s to a
//! byte-identical trace. `cargo xtask lint`'s `crate-layering` rule
//! forbids the deterministic crates from depending on this one, and this
//! crate alone re-allows the `clippy.toml` determinism bans: the daemon
//! paces streaming on the wall clock.

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
#![allow(clippy::disallowed_methods)]
#![deny(missing_docs)]

pub mod daemon;
pub mod wire;

pub use daemon::{replay, Daemon, ServeConfig, ServeOutcome};
pub use wire::{
    parse_client_frame, parse_recording, ClientFrame, Command, FaultCommand, Recording, PROTO,
    RECORD_SCHEMA,
};
