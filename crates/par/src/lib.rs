// Unit tests may unwrap/expect and compare floats exactly — the
// panic-freedom and NaN-safety floor applies to library code only.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]
//! # flower-par
//!
//! A dependency-free, **deterministic** data-parallel executor built on
//! [`std::thread::scope`]. It exists so Flower's hot paths (NSGA-II
//! population evaluation, non-dominated sorting, the lint scan, bench
//! fan-out) can use every core *without* giving up the workspace's
//! bit-identical-results regime (DESIGN.md §7–§8).
//!
//! The determinism contract:
//!
//! * work is split into **contiguous index ranges** — the split depends
//!   only on `(items, workers)`, never on scheduling;
//! * results are collected **in input order** (worker 0's chunk first,
//!   then worker 1's, …), so the output of [`Executor::par_map`] is
//!   exactly `items.iter().map(f).collect()` for *every* worker count —
//!   provided `f` is pure (no shared mutable state, no ambient RNG);
//! * a panic in any closure is **propagated** to the caller (the first
//!   panicking chunk in input order wins), matching serial behavior.
//!
//! The worker count comes from the `FLOWER_THREADS` environment variable
//! when set (clamped to ≥ 1), else [`std::thread::available_parallelism`].
//! Because results are ordered and closures must be pure, the thread
//! count can never change *what* is computed — only how fast.
//!
//! ```
//! use flower_par::Executor;
//!
//! let exec = Executor::new(4);
//! let squares = exec.par_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![deny(missing_docs)]

use std::num::NonZeroUsize;

/// A fixed-width data-parallel executor.
///
/// Cheap to construct and `Copy`: it holds only the worker count.
/// Threads are scoped per call ([`std::thread::scope`]), so an
/// `Executor` owns no OS resources and needs no shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
}

impl Default for Executor {
    /// Same as [`Executor::from_env`].
    fn default() -> Self {
        Executor::from_env()
    }
}

impl Executor {
    /// An executor with exactly `workers` workers (clamped to ≥ 1).
    pub fn new(workers: usize) -> Executor {
        Executor {
            workers: workers.max(1),
        }
    }

    /// A single-worker executor: every `par_*` call degrades to a plain
    /// ordered serial loop with zero thread overhead.
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// Worker count from the environment: `FLOWER_THREADS` when set and
    /// parseable (clamped to ≥ 1), else the machine's available
    /// parallelism, else 1.
    #[expect(
        clippy::disallowed_methods,
        reason = "thread count selects only the degree of fan-out — ordered collection keeps every result bit-identical for any value"
    )]
    pub fn from_env() -> Executor {
        let from_var = std::env::var("FLOWER_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        let workers = from_var
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        Executor::new(workers)
    }

    /// The fixed worker count of this executor.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over `0..n`, returning results in index order.
    ///
    /// `f(i)` must be pure. Panics in `f` are propagated.
    pub fn par_map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.workers.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let f = &f;
        let mut out: Vec<R> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers - 1);
            for w in 1..workers {
                let (start, end) = chunk_range(n, workers, w);
                handles.push(scope.spawn(move || (start..end).map(f).collect::<Vec<R>>()));
            }
            // The caller's thread works chunk 0 while the others run.
            let (start, end) = chunk_range(n, workers, 0);
            out.extend((start..end).map(f));
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        out
    }

    /// Map `f(index, &item)` over a slice, returning results in input
    /// order. Equivalent to
    /// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` for
    /// every worker count.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_index(items.len(), |i| f(i, &items[i]))
    }

    /// Map `f(index, item)` over an owned vector, consuming it; results
    /// come back in input order. Use this when `f` wants ownership
    /// (e.g. moving a gene vector into an evaluated individual) so the
    /// parallel path stays clone-free.
    pub fn par_map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        // Split into per-worker chunks (back to front so each split_off
        // peels the tail), preserving input order inside each chunk.
        let mut rest = items;
        let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(workers);
        for w in (1..workers).rev() {
            let (start, _) = chunk_range(n, workers, w);
            chunks.push((start, rest.split_off(start)));
        }
        chunks.push((0, rest));
        chunks.reverse();

        let f = &f;
        let mut out: Vec<R> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers - 1);
            let mut chunk_iter = chunks.into_iter();
            let first = chunk_iter.next();
            for (start, chunk) in chunk_iter {
                handles.push(scope.spawn(move || {
                    chunk
                        .into_iter()
                        .enumerate()
                        .map(|(i, x)| f(start + i, x))
                        .collect::<Vec<R>>()
                }));
            }
            if let Some((start, chunk)) = first {
                out.extend(chunk.into_iter().enumerate().map(|(i, x)| f(start + i, x)));
            }
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        out
    }
}

/// The half-open index range of worker `w` when `n` items are split
/// across `workers` contiguous chunks whose sizes differ by at most one
/// (earlier workers take the remainder).
fn chunk_range(n: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = n / workers;
    let extra = n % workers;
    let start = w * base + w.min(extra);
    let len = base + usize::from(w < extra);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_exactly() {
        for n in [0usize, 1, 2, 7, 8, 9, 100, 1023] {
            for workers in [1usize, 2, 3, 8, 16] {
                let workers = workers.min(n.max(1));
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for w in 0..workers {
                    let (start, end) = chunk_range(n, workers, w);
                    assert_eq!(start, prev_end, "n={n} workers={workers} w={w}");
                    assert!(end >= start);
                    covered += end - start;
                    prev_end = end;
                }
                assert_eq!(covered, n, "n={n} workers={workers}");
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = (0..3)
            .map(|w| {
                let (a, b) = chunk_range(10, 3, w);
                b - a
            })
            .collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn empty_input_all_entry_points() {
        let exec = Executor::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(exec.par_map_index(0, |i| i).is_empty());
        assert!(exec.par_map(&empty, |_, &x| x).is_empty());
        assert!(exec.par_map_owned(empty.clone(), |_, x| x).is_empty());
    }

    #[test]
    fn results_are_in_input_order_for_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1usize, 2, 3, 8, 64, 1000] {
            let exec = Executor::new(workers);
            assert_eq!(
                exec.par_map(&items, |_, &x| x * 3 + 1),
                expect,
                "w={workers}"
            );
            assert_eq!(
                exec.par_map_owned(items.clone(), |_, x| x * 3 + 1),
                expect,
                "owned w={workers}"
            );
        }
    }

    #[test]
    fn par_map_passes_matching_indices() {
        let items: Vec<usize> = (100..200).collect();
        let exec = Executor::new(8);
        let out = exec.par_map(&items, |i, &x| (i, x));
        for (i, &(j, x)) in out.iter().enumerate() {
            assert_eq!(i, j);
            assert_eq!(x, i + 100);
        }
    }

    #[test]
    fn par_map_owned_moves_without_clone() {
        // Boxed values have no Clone path in this closure — this
        // compiles only because chunks are moved, not copied.
        let items: Vec<Box<u32>> = (0..33).map(Box::new).collect();
        let out = Executor::new(4).par_map_owned(items, |i, b| *b + i as u32);
        assert_eq!(out.len(), 33);
        assert_eq!(out[10], 20);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the thread that ran each item shows where the chunks split"
    )]
    fn par_chunks_boundaries_are_exact() {
        // 10 items on 3 workers run as the chunk ranges [0..4), [4..7),
        // [7..10), each on one thread, in both the borrowed and the
        // owned map.
        let items: Vec<u32> = (0..10).collect();
        let exec = Executor::new(3);
        let borrowed = exec.par_map(&items, |_, _| std::thread::current().id());
        let owned = exec.par_map_owned(items, |_, _| std::thread::current().id());
        for threads in [borrowed, owned] {
            let starts: Vec<usize> = (0..threads.len())
                .filter(|&i| i == 0 || threads[i] != threads[i - 1])
                .collect();
            assert_eq!(starts, vec![0, 4, 7]);
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = Executor::new(64).par_map(&[1u8, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "deliberate worker panic")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        Executor::new(4).par_map(&items, |i, _| {
            assert!(i != 77, "deliberate worker panic");
            i
        });
    }

    #[test]
    #[should_panic(expected = "first-chunk panic")]
    fn caller_thread_panic_propagates() {
        // Index 0 lives in the caller's own chunk.
        Executor::new(4).par_map_index(100, |i| {
            assert!(i != 0, "first-chunk panic");
            i
        });
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(Executor::new(0).workers(), 1);
        assert_eq!(Executor::serial().workers(), 1);
    }

    #[test]
    fn from_env_is_at_least_one() {
        assert!(Executor::from_env().workers() >= 1);
        assert!(Executor::default().workers() >= 1);
    }
}
