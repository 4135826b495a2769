//! Pins for the workspace lint floor, compiled only under clippy.
//!
//! `clippy.toml` names each banned path as a string, and a path that
//! resolves to nothing only draws a warning that even `-D warnings` lets
//! pass. So each ban is pinned by one violation under `#[expect]`: if
//! the entry is dropped or misspelled, the expectation goes unfulfilled
//! and `cargo clippy -- -D warnings` fails.
//!
//! An `#[expect]` sets the level it expects, so such a pin cannot see
//! whether the workspace denies a lint. The `[workspace.lints.clippy]`
//! levels are therefore checked against the root manifest's text.
#![allow(dead_code, reason = "pins are never called; clippy only inspects them")]

use std::time::Duration;

#[expect(clippy::disallowed_methods, reason = "pin: std::time::Instant::now")]
fn instant_now() {
    let _ = std::time::Instant::now();
}

#[expect(clippy::disallowed_methods, reason = "pin: std::time::SystemTime::now")]
fn system_time_now() {
    let _ = std::time::SystemTime::now();
}

#[expect(clippy::disallowed_methods, reason = "pin: std::thread::sleep")]
fn thread_sleep() {
    std::thread::sleep(Duration::ZERO);
}

#[expect(clippy::disallowed_methods, reason = "pin: std::thread::park_timeout")]
fn thread_park_timeout() {
    std::thread::park_timeout(Duration::ZERO);
}

#[expect(clippy::disallowed_methods, reason = "pin: std::thread::current")]
fn thread_current() {
    let _ = std::thread::current();
}

#[expect(clippy::disallowed_methods, reason = "pin: std::env::var")]
fn env_var() {
    let _ = std::env::var("");
}

#[expect(clippy::disallowed_methods, reason = "pin: std::env::var_os")]
fn env_var_os() {
    let _ = std::env::var_os("");
}

#[expect(clippy::disallowed_methods, reason = "pin: std::env::vars")]
fn env_vars() {
    let _ = std::env::vars();
}

#[expect(clippy::disallowed_methods, reason = "pin: std::env::args")]
fn env_args() {
    let _ = std::env::args();
}

#[expect(clippy::disallowed_methods, reason = "pin: std::env::args_os")]
fn env_args_os() {
    let _ = std::env::args_os();
}

#[expect(clippy::disallowed_types, reason = "pin: std::collections::HashMap")]
fn hash_map() -> usize {
    std::collections::HashMap::<u8, u8>::new().len()
}

#[expect(clippy::disallowed_types, reason = "pin: std::collections::HashSet")]
fn hash_set() -> usize {
    std::collections::HashSet::<u8>::new().len()
}

#[expect(clippy::disallowed_types, reason = "pin: std::hash::RandomState")]
fn random_state() {
    let _ = std::hash::RandomState::new();
}

/// `clippy.toml` lets test code print and panic; dropping either
/// relaxation fails clippy here.
#[cfg(test)]
mod in_tests {
    #[test]
    fn prints_and_panics() {
        println!("pin: allow-print-in-tests");
        if std::hint::black_box(false) {
            panic!("pin: allow-panic-in-tests");
        }
    }
}

/// The root manifest, whose `[workspace.lints.clippy]` sets the levels.
const WORKSPACE_MANIFEST: &str = include_str!("../../../Cargo.toml");

/// Does `text` hold `line` as a whole line?
const fn has_line(text: &str, line: &str) -> bool {
    let (t, l) = (text.as_bytes(), line.as_bytes());
    let mut start = 0;
    while start + l.len() <= t.len() {
        let starts_line = start == 0 || t[start - 1] == b'\n';
        let end = start + l.len();
        let ends_line = end == t.len() || t[end] == b'\n';
        if starts_line && ends_line {
            let mut k = 0;
            while k < l.len() && t[start + k] == l[k] {
                k += 1;
            }
            if k == l.len() {
                return true;
            }
        }
        start += 1;
    }
    false
}

macro_rules! denied {
    ($($lint:ident),* $(,)?) => {$(
        const _: () = assert!(
            has_line(WORKSPACE_MANIFEST, concat!(stringify!($lint), " = \"deny\"")),
            concat!("the root Cargo.toml must deny clippy::", stringify!($lint))
        );
    )*};
}

denied!(
    unwrap_used,
    expect_used,
    panic,
    todo,
    unimplemented,
    float_cmp,
    float_cmp_const,
    disallowed_methods,
    disallowed_types,
    iter_over_hash_type,
    print_stdout,
    print_stderr,
);
