//! The discrete-event scheduler.
//!
//! A [`Scheduler`] owns a priority queue of events, each a boxed `FnOnce`
//! closure over the simulated world state `S`. Events at equal timestamps
//! fire in class order, then insertion (FIFO) order, which makes
//! co-simulated components deterministic without artificial epsilon
//! offsets: a component that must observe another's effects at the same
//! instant schedules itself with a later class instead of nudging its
//! timestamp.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use crate::time::{SimDuration, SimTime};

/// Event class used by [`Scheduler::schedule_at`] and
/// [`Scheduler::schedule_in`] when no class is given. Sits above the
/// low-numbered classes so explicitly-classed events fire first at a
/// shared instant.
pub const DEFAULT_CLASS: u8 = 100;

/// Opaque handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

type EventFn<S> = Box<dyn FnOnce(&mut Scheduler<S>, &mut S)>;

struct Scheduled<S> {
    at: SimTime,
    class: u8,
    seq: u64,
    action: EventFn<S>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.class == other.class && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, class, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event scheduler over world state `S`.
///
/// The state type is external so that event closures can freely mutate the
/// world while the scheduler itself stays borrowable for scheduling
/// follow-up events.
pub struct Scheduler<S> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<S>>,
    // BTreeSets rather than HashSets: they are only ever used for
    // membership, but the ordered sets keep the whole scheduler hash-free
    // so nothing here can pick up iteration-order nondeterminism later.
    //
    // `queued` mirrors the seqs currently in `queue` so `cancel` is a
    // membership probe instead of an O(n) heap scan. `cancelled` holds only
    // cancelled-but-unpopped seqs; both sets shed an entry the moment its
    // event pops or is pruned, so neither grows with run length.
    queued: BTreeSet<u64>,
    cancelled: BTreeSet<u64>,
    next_seq: u64,
    executed: u64,
    high_water: usize,
}

impl<S> Default for Scheduler<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Scheduler<S> {
    /// Create an empty scheduler at `t = 0`.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            queued: BTreeSet::new(),
            cancelled: BTreeSet::new(),
            next_seq: 0,
            executed: 0,
            high_water: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (excluding cancelled-but-unpopped).
    pub fn pending(&self) -> usize {
        self.queue.len() - self.cancelled.len()
    }

    /// High-water mark of the pending-event queue depth.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of cancelled events not yet reaped from the queue. Exposed
    /// for hygiene tests; stays bounded because pops and prunes reap.
    pub fn cancelled_backlog(&self) -> usize {
        self.cancelled.len()
    }

    /// Schedule `action` at the absolute instant `at` with the default
    /// event class.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — causality would otherwise
    /// be violated silently.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    ) -> EventHandle {
        self.schedule_at_class(at, DEFAULT_CLASS, action)
    }

    /// Schedule `action` at `at` with an explicit tie-break `class`.
    /// Among events sharing a timestamp, lower classes fire first;
    /// within a class, insertion (FIFO) order wins.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at_class(
        &mut self,
        at: SimTime,
        class: u8,
        action: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    ) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            at,
            class,
            seq,
            action: Box::new(action),
        });
        self.queued.insert(seq);
        self.high_water = self.high_water.max(self.pending());
        EventHandle(seq)
    }

    /// Schedule `action` after a relative delay from the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    ) -> EventHandle {
        let at = self.now + delay;
        self.schedule_at(at, action)
    }

    /// Cancel a pending event. Returns `true` when the event had not yet
    /// run (or been cancelled).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if handle.0 >= self.next_seq {
            return false;
        }
        // Only record the cancellation when the event is actually still
        // queued — `queued` makes that a set probe, and the entry is
        // reaped when the dead event reaches the top of the heap.
        if self.queued.contains(&handle.0) {
            self.cancelled.insert(handle.0)
        } else {
            false
        }
    }

    /// Forget a popped event's bookkeeping; returns `true` when the event
    /// had been cancelled (and so must not run).
    fn reap(&mut self, seq: u64) -> bool {
        self.queued.remove(&seq);
        self.cancelled.remove(&seq)
    }

    /// Execute the next pending event, advancing the clock to its
    /// timestamp. Returns `false` when the queue is exhausted.
    pub fn step(&mut self, state: &mut S) -> bool {
        while let Some(ev) = self.queue.pop() {
            if self.reap(ev.seq) {
                continue;
            }
            self.now = ev.at;
            self.executed += 1;
            (ev.action)(self, state);
            return true;
        }
        false
    }

    /// Run until the event queue is exhausted.
    pub fn run(&mut self, state: &mut S) {
        while self.step(state) {}
    }

    /// Timestamp of the next pending event, pruning any cancelled events
    /// blocking the head of the queue.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        loop {
            match self.queue.peek() {
                Some(ev) if self.cancelled.contains(&ev.seq) => {
                    if let Some(dropped) = self.queue.pop() {
                        self.reap(dropped.seq);
                    }
                }
                Some(ev) => return Some(ev.at),
                None => return None,
            }
        }
    }

    /// Run events with timestamps `<= until`, advancing the clock exactly
    /// to `until` afterwards (even if no event fires at that instant).
    pub fn run_until(&mut self, until: SimTime, state: &mut S) {
        while let Some(at) = self.next_event_time() {
            if at > until {
                break;
            }
            self.step(state);
        }
        if until > self.now {
            self.now = until;
        }
    }

    /// Execute *every* event scheduled at the next pending instant —
    /// including events those events schedule back onto the same
    /// instant — and return that instant. Returns `None` when the queue
    /// is empty.
    ///
    /// This is the batch form of [`Scheduler::step`] for multiplexers
    /// that treat one timestamp as one decision point: a fleet broker,
    /// for example, must see every join/leave landing on an instant
    /// before it recomputes allocations, rather than rebrokering once
    /// per membership event.
    pub fn run_next_instant(&mut self, state: &mut S) -> Option<SimTime> {
        let at = self.next_event_time()?;
        while self.next_event_time() == Some(at) {
            self.step(state);
        }
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(3), |_, log| log.push(3));
        sched.schedule_at(SimTime::from_secs(1), |_, log| log.push(1));
        sched.schedule_at(SimTime::from_secs(2), |_, log| log.push(2));
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(sched.now(), SimTime::from_secs(3));
        assert_eq!(sched.executed(), 3);
    }

    #[test]
    fn equal_timestamps_fire_fifo() {
        let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
        for i in 0..10 {
            sched.schedule_at(SimTime::from_secs(5), move |_, log| log.push(i));
        }
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn classes_break_ties_before_insertion_order() {
        let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
        let t = SimTime::from_secs(7);
        sched.schedule_at_class(t, 5, |_, log| log.push(5));
        sched.schedule_at(t, |_, log| log.push(100)); // DEFAULT_CLASS
        sched.schedule_at_class(t, 0, |_, log| log.push(0));
        sched.schedule_at_class(t, 2, |_, log| log.push(2));
        sched.schedule_at_class(t, 2, |_, log| log.push(22));
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, vec![0, 2, 22, 5, 100]);
    }

    #[test]
    fn time_order_beats_class_order() {
        let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
        sched.schedule_at_class(SimTime::from_secs(2), 0, |_, log| log.push(2));
        sched.schedule_at_class(SimTime::from_secs(1), 9, |_, log| log.push(1));
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sched: Scheduler<Vec<u64>> = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(1), |s, log| {
            log.push(s.now().as_secs());
            s.schedule_in(SimDuration::from_secs(4), |s2, log2| {
                log2.push(s2.now().as_secs());
            });
        });
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, vec![1, 5]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sched: Scheduler<()> = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(5), |_, _| {});
        let mut st = ();
        sched.run(&mut st);
        sched.schedule_at(SimTime::from_secs(1), |_, _| {});
    }

    #[test]
    fn cancellation_prevents_execution() {
        let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(1), |_, log| log.push(1));
        let h = sched.schedule_at(SimTime::from_secs(2), |_, log| log.push(2));
        sched.schedule_at(SimTime::from_secs(3), |_, log| log.push(3));
        assert!(sched.cancel(h));
        assert!(!sched.cancel(h), "double cancel reports false");
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, vec![1, 3]);
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut sched: Scheduler<()> = Scheduler::new();
        assert!(!sched.cancel(EventHandle(42)));
    }

    #[test]
    fn cancel_after_execution_is_false() {
        let mut sched: Scheduler<()> = Scheduler::new();
        let h = sched.schedule_at(SimTime::from_secs(1), |_, _| {});
        let mut st = ();
        sched.run(&mut st);
        assert!(!sched.cancel(h));
        assert_eq!(sched.cancelled_backlog(), 0);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sched: Scheduler<()> = Scheduler::new();
        let mut st = ();
        sched.run_until(SimTime::from_secs(30), &mut st);
        assert_eq!(sched.now(), SimTime::from_secs(30));
    }

    #[test]
    fn run_until_is_inclusive_and_stops() {
        let mut sched: Scheduler<Vec<u64>> = Scheduler::new();
        for t in [1u64, 2, 3, 4, 5] {
            sched.schedule_at(SimTime::from_secs(t), move |_, log| log.push(t));
        }
        let mut log = Vec::new();
        sched.run_until(SimTime::from_secs(3), &mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(sched.now(), SimTime::from_secs(3));
        assert_eq!(sched.pending(), 2);
        sched.run_until(SimTime::from_secs(10), &mut log);
        assert_eq!(log, vec![1, 2, 3, 4, 5]);
        assert_eq!(sched.now(), SimTime::from_secs(10));
    }

    #[test]
    fn next_event_time_sees_through_cancellations() {
        let mut sched: Scheduler<()> = Scheduler::new();
        let h1 = sched.schedule_at(SimTime::from_secs(1), |_, _| {});
        let h2 = sched.schedule_at(SimTime::from_secs(2), |_, _| {});
        sched.schedule_at(SimTime::from_secs(3), |_, _| {});
        sched.cancel(h1);
        sched.cancel(h2);
        assert_eq!(sched.next_event_time(), Some(SimTime::from_secs(3)));
        assert_eq!(sched.cancelled_backlog(), 0, "pruning reaps cancelled");
    }

    #[test]
    fn periodic_event_repeats_until_stopped() {
        // A recurring event is a chain that reschedules itself until its
        // action stops it, as the core's sensor and control loops do.
        fn tick(s: &mut Scheduler<Vec<u64>>, log: &mut Vec<u64>) {
            log.push(s.now().as_secs());
            if log.len() < 4 {
                s.schedule_in(SimDuration::from_secs(10), tick);
            }
        }
        let mut sched: Scheduler<Vec<u64>> = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(10), tick);
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, vec![10, 20, 30, 40]);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut sched: Scheduler<()> = Scheduler::new();
        let h = sched.schedule_at(SimTime::from_secs(1), |_, _| {});
        sched.schedule_at(SimTime::from_secs(2), |_, _| {});
        assert_eq!(sched.pending(), 2);
        sched.cancel(h);
        assert_eq!(sched.pending(), 1);
    }

    #[test]
    fn cancel_heavy_workload_keeps_bookkeeping_bounded() {
        // Satellite: schedule-then-cancel in a long loop must not grow
        // the cancelled (or queued) sets with run length — every pop or
        // prune reaps its entry.
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut st = 0u64;
        for round in 1..=10_000u64 {
            let doomed = sched.schedule_at(SimTime::from_millis(round * 10 + 5), |_, n| *n += 100);
            sched.schedule_at(SimTime::from_millis(round * 10), |_, n| *n += 1);
            sched.cancel(doomed);
            sched.run_until(SimTime::from_millis(round * 10), &mut st);
            assert!(
                sched.cancelled_backlog() <= 1,
                "cancelled backlog grew to {} after round {round}",
                sched.cancelled_backlog()
            );
        }
        // Drain: the final doomed event is pruned, never run.
        sched.run(&mut st);
        assert_eq!(st, 10_000, "no cancelled event ever executed");
        assert_eq!(sched.cancelled_backlog(), 0);
        assert_eq!(sched.pending(), 0);
        assert!(sched.high_water() <= 2);
    }

    #[test]
    fn run_next_instant_drains_one_timestamp_as_a_batch() {
        let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
        let t = SimTime::from_secs(5);
        sched.schedule_at_class(t, 2, |_, log| log.push(2));
        sched.schedule_at_class(t, 1, |s, log| {
            log.push(1);
            // An event scheduled back onto the live instant joins the
            // same batch (after already-queued events, FIFO within its
            // class).
            s.schedule_at(s.now(), |_, log2| log2.push(99));
        });
        sched.schedule_at(SimTime::from_secs(9), |_, log| log.push(9));
        let mut log = Vec::new();
        assert_eq!(sched.run_next_instant(&mut log), Some(t));
        assert_eq!(
            log,
            vec![1, 2, 99],
            "whole instant drained, later time untouched"
        );
        assert_eq!(sched.now(), t);
        assert_eq!(sched.pending(), 1);
        assert_eq!(
            sched.run_next_instant(&mut log),
            Some(SimTime::from_secs(9))
        );
        assert_eq!(sched.run_next_instant(&mut log), None, "empty queue");
    }

    #[test]
    fn run_next_instant_skips_cancelled_heads() {
        let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
        let doomed = sched.schedule_at(SimTime::from_secs(1), |_, log| log.push(1));
        sched.schedule_at(SimTime::from_secs(2), |_, log| log.push(2));
        sched.cancel(doomed);
        let mut log = Vec::new();
        assert_eq!(
            sched.run_next_instant(&mut log),
            Some(SimTime::from_secs(2))
        );
        assert_eq!(log, vec![2]);
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut sched: Scheduler<()> = Scheduler::new();
        for t in 1..=5u64 {
            sched.schedule_at(SimTime::from_secs(t), |_, _| {});
        }
        let mut st = ();
        sched.run(&mut st);
        assert_eq!(sched.high_water(), 5);
        assert_eq!(sched.pending(), 0);
    }
}
