//! Deterministic property-testing harness.
//!
//! A tiny, dependency-free replacement for `proptest`-style randomized
//! testing: each property runs over a fixed number of *seeded* cases, so
//! a failure is reproducible bit-for-bit on any machine — rerunning the
//! test replays exactly the same inputs. On failure the harness prints
//! the failing case index so the property can be re-run under a debugger
//! with `case_rng(<index>)`. [`fuzz_text`] and [`mutate`] build the
//! arbitrary inputs of the no-panic properties every reader carries.

use crate::SimRng;

/// Seed-mixing constant shared by [`forall`] and [`case_rng`].
const CASE_SALT: u64 = 0x5EED_CA5E_0F10_0E57;

/// The RNG used for case `index` of a [`forall`] run.
pub fn case_rng(index: u64) -> SimRng {
    SimRng::seed(CASE_SALT ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run `property` over `cases` deterministic seeded inputs.
///
/// The closure receives a fresh [`SimRng`] per case and builds whatever
/// random inputs the property needs from it. Panics (failed asserts)
/// propagate; a guard prints the failing case index first.
pub fn forall(cases: u64, mut property: impl FnMut(&mut SimRng)) {
    for case in 0..cases {
        let guard = CaseGuard(case);
        let mut rng = case_rng(case);
        property(&mut rng);
        core::mem::forget(guard);
    }
}

struct CaseGuard(u64);

impl Drop for CaseGuard {
    #[expect(
        clippy::print_stderr,
        reason = "test-harness drop guard; only fires mid-panic to aid reproduction"
    )]
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property failed at deterministic case {} (reproduce with testkit::case_rng({}))",
                self.0, self.0
            );
        }
    }
}

/// Random `f64` vector with uniform entries in `[lo, hi)` and a length
/// drawn uniformly from `[min_len, max_len]`.
pub fn vec_f64(rng: &mut SimRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = rng.int_range(min_len as i64, max_len as i64) as usize;
    (0..len).map(|_| rng.uniform(lo, hi)).collect()
}

/// Random `u64` vector with uniform entries in `[0, bound)` and a length
/// drawn uniformly from `[min_len, max_len]`.
pub fn vec_u64(rng: &mut SimRng, bound: u64, min_len: usize, max_len: usize) -> Vec<u64> {
    let len = rng.int_range(min_len as i64, max_len as i64) as usize;
    (0..len).map(|_| rng.below(bound)).collect()
}

/// Random boolean vector with a length drawn uniformly from
/// `[min_len, max_len]`.
pub fn vec_bool(rng: &mut SimRng, min_len: usize, max_len: usize) -> Vec<bool> {
    let len = rng.int_range(min_len as i64, max_len as i64) as usize;
    (0..len).map(|_| rng.chance(0.5)).collect()
}

/// Characters that steer the JSON and TOML readers, plus 2-, 3- and
/// 4-byte UTF-8 chars so that a byte-offset slip in a reader surfaces
/// as a panic on a char boundary.
pub const FUZZ_ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', '\\', ':', ',', '=', '#', '\n', ' ', '-', '+', '.', 'e', 'u', '0',
    '1', '9', 'a', 't', 'n', 'é', '✓', '😀',
];

/// A random string of up to `max_len` chars from [`FUZZ_ALPHABET`].
pub fn fuzz_text(rng: &mut SimRng, max_len: usize) -> String {
    let len = rng.int_range(0, max_len as i64) as usize;
    (0..len).map(|_| *rng.pick(FUZZ_ALPHABET)).collect()
}

/// `valid` cut at a random char boundary, or with the char at a random
/// boundary replaced by one from [`FUZZ_ALPHABET`]: inputs close enough
/// to a real document to reach a reader's deeper checks.
pub fn mutate(rng: &mut SimRng, valid: &str) -> String {
    let boundaries: Vec<usize> = valid
        .char_indices()
        .map(|(i, _)| i)
        .chain([valid.len()])
        .collect();
    let at = *rng.pick(&boundaries);
    let (head, tail) = valid.split_at(at);
    if rng.chance(0.5) {
        return head.to_owned();
    }
    let mut rest = tail.chars();
    rest.next();
    let mut out = head.to_owned();
    out.push(*rng.pick(FUZZ_ALPHABET));
    out.push_str(rest.as_str());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forall_runs_every_case_deterministically() {
        let mut first = Vec::new();
        forall(10, |rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        forall(10, |rng| second.push(rng.next_u64()));
        assert_eq!(first.len(), 10);
        assert_eq!(first, second);
    }

    #[test]
    fn generators_respect_bounds() {
        forall(20, |rng| {
            let xs = vec_f64(rng, -2.0, 3.0, 1, 40);
            assert!((1..=40).contains(&xs.len()));
            assert!(xs.iter().all(|x| (-2.0..3.0).contains(x)));
            let us = vec_u64(rng, 17, 0, 5);
            assert!(us.len() <= 5);
            assert!(us.iter().all(|&u| u < 17));
            let bs = vec_bool(rng, 3, 3);
            assert_eq!(bs.len(), 3);
        });
    }

    #[test]
    fn fuzz_inputs_stay_in_bounds() {
        let valid = "{\"k\":\"é😀\"}";
        forall(200, |rng| {
            let text = fuzz_text(rng, 12);
            assert!(text.chars().count() <= 12);
            assert!(text.chars().all(|c| FUZZ_ALPHABET.contains(&c)));
            let m: Vec<char> = mutate(rng, valid).chars().collect();
            let v: Vec<char> = valid.chars().collect();
            let diffs = m.iter().zip(&v).filter(|(a, b)| a != b).count();
            let cut = v.starts_with(&m);
            let replaced = m.len() == v.len() && diffs <= 1;
            let appended = m.len() == v.len() + 1 && m.starts_with(&v);
            assert!(cut || replaced || appended, "{m:?}");
        });
    }
}
