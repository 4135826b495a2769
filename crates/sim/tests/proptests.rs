// Test target: unwrap/expect and exact float comparison are deliberate
// here (determinism assertions compare results bit-for-bit).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Property-based tests for the discrete-event kernel and the PRNG,
//! driven by the deterministic `testkit` harness (seeded cases, so every
//! failure replays bit-for-bit).

use flower_sim::testkit::{forall, vec_bool, vec_u64};
use flower_sim::{Scheduler, SimDuration, SimRng, SimTime};

/// Events always execute in non-decreasing time order, with FIFO
/// tie-breaking, whatever order they were scheduled in.
#[test]
fn execution_order_is_causal() {
    forall(64, |rng| {
        let times = vec_u64(rng, 1_000, 1, 99);
        let mut sched: Scheduler<Vec<(u64, usize)>> = Scheduler::new();
        for (seq, &t) in times.iter().enumerate() {
            sched.schedule_at(SimTime::from_millis(t), move |s, log| {
                log.push((s.now().as_millis(), seq));
            });
        }
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated at equal timestamps");
            }
        }
    });
}

/// run_until never executes events beyond the horizon, and the clock
/// lands exactly on the horizon.
#[test]
fn run_until_respects_horizon() {
    forall(64, |rng| {
        let times = vec_u64(rng, 1_000, 1, 59);
        let horizon = rng.below(1_200);
        let mut sched: Scheduler<Vec<u64>> = Scheduler::new();
        for &t in &times {
            sched.schedule_at(SimTime::from_millis(t), move |_, log| log.push(t));
        }
        let mut log = Vec::new();
        sched.run_until(SimTime::from_millis(horizon), &mut log);
        assert!(log.iter().all(|&t| t <= horizon));
        let expected = times.iter().filter(|&&t| t <= horizon).count();
        assert_eq!(log.len(), expected);
        assert!(sched.now() >= SimTime::from_millis(horizon));
    });
}

/// Cancelling a subset of events removes exactly those events.
#[test]
fn cancellation_is_exact() {
    forall(64, |rng| {
        let cancel_mask = vec_bool(rng, 1, 49);
        let n = cancel_mask.len();
        let mut sched: Scheduler<Vec<usize>> = Scheduler::new();
        let handles: Vec<_> = (0..n)
            .map(|i| sched.schedule_at(SimTime::from_millis(i as u64), move |_, log| log.push(i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            if cancel_mask[i] {
                assert!(sched.cancel(h));
            } else {
                expected.push(i);
            }
        }
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, expected);
    });
}

/// The RNG's fork streams are reproducible and label-sensitive.
#[test]
fn forks_reproducible() {
    forall(64, |rng| {
        let seed = rng.next_u64();
        let a = rng.below(1_000);
        let b = rng.below(1_000);
        let root = SimRng::seed(seed);
        let mut f1 = root.fork(a);
        let mut f2 = root.fork(a);
        assert_eq!(f1.next_u64(), f2.next_u64());
        if a != b {
            let mut g = root.fork(b);
            // Overwhelmingly unlikely to collide on the first draw.
            assert_ne!(root.fork(a).next_u64(), g.next_u64());
        }
    });
}

/// below(n) is always in range.
#[test]
fn below_in_range() {
    forall(64, |rng| {
        let seed = rng.next_u64();
        let n = 1 + rng.below(1_000_000);
        let mut draw_rng = SimRng::seed(seed);
        for _ in 0..100 {
            assert!(draw_rng.below(n) < n);
        }
    });
}

/// Poisson draws are non-negative and finite-mean-ish.
#[test]
fn poisson_sane() {
    forall(256, |rng| {
        let seed = rng.next_u64();
        let lambda = rng.uniform(0.0, 500.0);
        let mut draw_rng = SimRng::seed(seed);
        let draw = draw_rng.poisson(lambda);
        // 12 sigma above the mean is effectively impossible.
        assert!((draw as f64) < lambda + 12.0 * lambda.sqrt() + 20.0);
    });
}

/// One link of a recurring event: log the time, and reschedule one
/// `period` later until `count` links have run.
fn chain(s: &mut Scheduler<Vec<u64>>, log: &mut Vec<u64>, period: SimDuration, count: usize) {
    log.push(s.now().as_millis());
    if log.len() < count {
        s.schedule_in(period, move |s, log| chain(s, log, period, count));
    }
}

/// A self-rescheduling chain fires exactly on its period grid.
#[test]
fn periodic_grid() {
    forall(64, |rng| {
        let start = rng.below(100);
        let period = 1 + rng.below(49);
        let count = 1 + rng.below(19) as usize;
        let mut sched: Scheduler<Vec<u64>> = Scheduler::new();
        sched.schedule_at(SimTime::from_millis(start), move |s, log| {
            chain(s, log, SimDuration::from_millis(period), count);
        });
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log.len(), count);
        for (i, &t) in log.iter().enumerate() {
            assert_eq!(t, start + period * i as u64);
        }
    });
}
