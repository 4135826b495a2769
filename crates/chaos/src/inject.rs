//! The deterministic fault injector.
//!
//! A [`FaultInjector`] evaluates a [`crate::FaultPlan`]
//! against sensor reads and actuation requests. Randomized clauses draw
//! from a **dedicated per-layer RNG stream**
//! (`SimRng::seed(plan.seed).fork(1 + layer.position())`), so the draw a
//! layer sees depends only on its own call sequence — never on other
//! layers, registry size, or worker count. That is what keeps chaos
//! traces byte-identical at any `FLOWER_THREADS`.

use flower_cloud::LayerId;
use flower_obs::{kind, FieldValue, Recorder};
use flower_sim::{SimRng, SimTime};

use crate::plan::{FaultKind, FaultPlan};

/// What the injector decided about one actuation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// No active fault: forward the request untouched.
    Pass,
    /// The control-plane API rejected the call.
    Reject,
    /// Only part of the requested change lands; forward `target` instead.
    Short {
        /// The shortened target to actually apply.
        target: f64,
    },
    /// The call is accepted but its effect lands at `due`.
    Delay {
        /// When the delayed resize lands.
        due: SimTime,
    },
}

/// A resize held back by a `delay` clause, waiting to land.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayedResize {
    /// The layer whose resize was delayed.
    pub layer: LayerId,
    /// The originally requested target.
    pub target: f64,
    /// When it lands.
    pub due: SimTime,
}

/// Evaluates a fault plan deterministically against one episode.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-layer RNG streams, keyed by layer position; created on first
    /// use so registration order never matters.
    streams: Vec<(u8, SimRng)>,
    delayed: Vec<DelayedResize>,
    recorder: Recorder,
    injected: u64,
}

impl FaultInjector {
    /// Build an injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            streams: Vec::new(),
            delayed: Vec::new(),
            recorder: Recorder::disabled(),
            injected: 0,
        }
    }

    /// Attach a recorder; every injected fault then emits one
    /// [`kind::CHAOS_FAULT`] event (and bumps the `chaos.faults`
    /// counter).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The plan under evaluation.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Append a clause to the plan at runtime (live fault injection —
    /// `flower serve`'s inject-fault command lands here). The clause
    /// joins the plan's ordered evaluation; per-layer RNG streams keep
    /// their positions, so a clause pushed at the same sim time sees
    /// the same draws on replay.
    pub fn push_clause(&mut self, clause: crate::plan::FaultClause) {
        self.plan.clauses.push(clause);
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Draw one Bernoulli trial from the layer's dedicated fault stream
    /// (lazily created, position-keyed — creation order never matters).
    fn chance(&mut self, layer: LayerId, p: f64) -> bool {
        let position = layer.position();
        let found = self.streams.iter_mut().find(|(pos, _)| *pos == position);
        let Some((_, rng)) = found else {
            let mut rng = SimRng::seed(self.plan.seed).fork(1 + u64::from(position));
            let hit = rng.chance(p);
            self.streams.push((position, rng));
            return hit;
        };
        rng.chance(p)
    }

    fn record(
        &mut self,
        layer: LayerId,
        now: SimTime,
        fault: &'static str,
        extra: &[(&'static str, FieldValue)],
    ) {
        self.injected += 1;
        if !self.recorder.is_enabled() {
            return;
        }
        self.recorder.set_now(now);
        let mut fields: Vec<(&'static str, FieldValue)> =
            vec![("fault", fault.into()), ("layer", layer.label().into())];
        fields.extend(extra.iter().cloned());
        self.recorder.emit(kind::CHAOS_FAULT, &fields);
        self.recorder.count("chaos.faults", 1);
    }

    /// Filter one sensor reading: `None` when an active dropout clause
    /// fires (the loop must treat the round as stale).
    pub fn on_sense(&mut self, layer: LayerId, value: f64, now: SimTime) -> Option<f64> {
        for i in 0..self.plan.clauses.len() {
            let p = match self.plan.clauses.get(i) {
                Some(c) if c.applies_to(layer.label()) && c.active(now) => match c.kind {
                    FaultKind::Dropout { p } => p,
                    _ => continue,
                },
                Some(_) => continue,
                None => break,
            };
            if self.chance(layer, p) {
                self.record(layer, now, "dropout", &[("value", value.into())]);
                return None;
            }
        }
        Some(value)
    }

    /// Judge one actuation request `from → target`. Delayed resizes are
    /// queued internally; collect them with
    /// [`FaultInjector::due_resizes`].
    pub fn on_actuate(
        &mut self,
        layer: LayerId,
        from: f64,
        target: f64,
        now: SimTime,
    ) -> FaultDecision {
        for i in 0..self.plan.clauses.len() {
            let (clause_from, clause_kind) = match self.plan.clauses.get(i) {
                Some(c) if c.applies_to(layer.label()) && c.active(now) => (c.from, c.kind.clone()),
                Some(_) => continue,
                None => break,
            };
            match clause_kind {
                FaultKind::Dropout { .. } => {}
                FaultKind::Storm { period, burst } => {
                    // Deterministic duty cycle anchored at the clause
                    // window start: throttled during the first `burst` of
                    // every `period`. No RNG draw.
                    let phase = now.since(clause_from).as_millis() % period.as_millis();
                    if phase < burst.as_millis() {
                        self.record(layer, now, "storm", &[("target", target.into())]);
                        return FaultDecision::Reject;
                    }
                }
                FaultKind::Reject { p } => {
                    if self.chance(layer, p) {
                        self.record(layer, now, "reject", &[("target", target.into())]);
                        return FaultDecision::Reject;
                    }
                }
                FaultKind::Short { p, fraction } => {
                    if self.chance(layer, p) {
                        let short = from + (target - from) * fraction;
                        if (short - target).abs() > f64::EPSILON {
                            self.record(
                                layer,
                                now,
                                "short",
                                &[("short_target", short.into()), ("target", target.into())],
                            );
                            return FaultDecision::Short { target: short };
                        }
                    }
                }
                FaultKind::Delay { p, delay } => {
                    if self.chance(layer, p) {
                        let due = now + delay;
                        self.delayed.push(DelayedResize { layer, target, due });
                        self.record(
                            layer,
                            now,
                            "delay",
                            &[("due_s", due.as_secs().into()), ("target", target.into())],
                        );
                        return FaultDecision::Delay { due };
                    }
                }
            }
        }
        FaultDecision::Pass
    }

    /// Drain the delayed resizes that have come due by `now`, in the
    /// order they were injected.
    pub fn due_resizes(&mut self, now: SimTime) -> Vec<DelayedResize> {
        let mut due = Vec::new();
        self.delayed.retain(|d| {
            if d.due <= now {
                due.push(*d);
                false
            } else {
                true
            }
        });
        due
    }

    /// Resizes still held back (waiting to land).
    pub fn pending_delayed(&self) -> &[DelayedResize] {
        &self.delayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultClause;
    use flower_cloud::layer::{ANALYTICS, INGESTION, STORAGE};
    use flower_sim::SimDuration;

    fn reject_all_plan(p: f64) -> FaultPlan {
        FaultPlan {
            seed: 42,
            clauses: vec![FaultClause {
                layer: None,
                from: SimTime::ZERO,
                until: SimTime::MAX,
                kind: FaultKind::Reject { p },
            }],
        }
    }

    #[test]
    fn decisions_replay_identically() {
        let run = || {
            let mut inj = FaultInjector::new(reject_all_plan(0.5));
            (0..100)
                .map(|s| inj.on_actuate(INGESTION, 2.0, 3.0, SimTime::from_secs(s)))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same plan, same draws");
        assert!(a.contains(&FaultDecision::Reject));
        assert!(a.contains(&FaultDecision::Pass));
    }

    #[test]
    fn per_layer_streams_are_independent() {
        // Layer A's decisions must not move when layer B consumes draws.
        let solo: Vec<_> = {
            let mut inj = FaultInjector::new(reject_all_plan(0.5));
            (0..50)
                .map(|s| inj.on_actuate(ANALYTICS, 2.0, 3.0, SimTime::from_secs(s)))
                .collect()
        };
        let interleaved: Vec<_> = {
            let mut inj = FaultInjector::new(reject_all_plan(0.5));
            (0..50)
                .map(|s| {
                    // Storage consumes draws from *its* stream first.
                    let _ = inj.on_actuate(STORAGE, 10.0, 20.0, SimTime::from_secs(s));
                    inj.on_actuate(ANALYTICS, 2.0, 3.0, SimTime::from_secs(s))
                })
                .collect()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn inactive_windows_and_other_layers_pass() {
        let plan = FaultPlan {
            seed: 1,
            clauses: vec![FaultClause {
                layer: Some("storage".to_owned()),
                from: SimTime::from_secs(100),
                until: SimTime::from_secs(200),
                kind: FaultKind::Reject { p: 1.0 },
            }],
        };
        let mut inj = FaultInjector::new(plan);
        // Wrong layer.
        assert_eq!(
            inj.on_actuate(INGESTION, 2.0, 3.0, SimTime::from_secs(150)),
            FaultDecision::Pass
        );
        // Before / after the window.
        assert_eq!(
            inj.on_actuate(STORAGE, 2.0, 3.0, SimTime::from_secs(99)),
            FaultDecision::Pass
        );
        assert_eq!(
            inj.on_actuate(STORAGE, 2.0, 3.0, SimTime::from_secs(200)),
            FaultDecision::Pass
        );
        // Inside it, p=1 always rejects.
        assert_eq!(
            inj.on_actuate(STORAGE, 2.0, 3.0, SimTime::from_secs(150)),
            FaultDecision::Reject
        );
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn storm_duty_cycle_is_deterministic() {
        let plan = FaultPlan {
            seed: 9,
            clauses: vec![FaultClause {
                layer: None,
                from: SimTime::from_secs(100),
                until: SimTime::from_secs(1_000),
                kind: FaultKind::Storm {
                    period: SimDuration::from_secs(60),
                    burst: SimDuration::from_secs(20),
                },
            }],
        };
        let mut inj = FaultInjector::new(plan);
        let decide =
            |inj: &mut FaultInjector, s| inj.on_actuate(INGESTION, 2.0, 3.0, SimTime::from_secs(s));
        // Phase is anchored at the window start (t=100s).
        assert_eq!(decide(&mut inj, 100), FaultDecision::Reject);
        assert_eq!(decide(&mut inj, 119), FaultDecision::Reject);
        assert_eq!(decide(&mut inj, 120), FaultDecision::Pass);
        assert_eq!(decide(&mut inj, 159), FaultDecision::Pass);
        assert_eq!(decide(&mut inj, 160), FaultDecision::Reject, "next cycle");
    }

    #[test]
    fn short_scales_the_delta_and_skips_noops() {
        let plan = FaultPlan {
            seed: 3,
            clauses: vec![FaultClause {
                layer: None,
                from: SimTime::ZERO,
                until: SimTime::MAX,
                kind: FaultKind::Short {
                    p: 1.0,
                    fraction: 0.5,
                },
            }],
        };
        let mut inj = FaultInjector::new(plan);
        // 4 → 10 lands short at 7 (half the delta).
        let d = inj.on_actuate(STORAGE, 4.0, 10.0, SimTime::from_secs(1));
        assert_eq!(d, FaultDecision::Short { target: 7.0 });
        // A no-op request has no delta to shorten.
        let d = inj.on_actuate(STORAGE, 4.0, 4.0, SimTime::from_secs(2));
        assert_eq!(d, FaultDecision::Pass);
    }

    #[test]
    fn delayed_resizes_queue_and_come_due_in_order() {
        let plan = FaultPlan {
            seed: 5,
            clauses: vec![FaultClause {
                layer: None,
                from: SimTime::ZERO,
                until: SimTime::MAX,
                kind: FaultKind::Delay {
                    p: 1.0,
                    delay: SimDuration::from_secs(30),
                },
            }],
        };
        let mut inj = FaultInjector::new(plan);
        let d1 = inj.on_actuate(INGESTION, 2.0, 3.0, SimTime::from_secs(10));
        let d2 = inj.on_actuate(ANALYTICS, 2.0, 5.0, SimTime::from_secs(20));
        assert_eq!(
            d1,
            FaultDecision::Delay {
                due: SimTime::from_secs(40)
            }
        );
        assert_eq!(
            d2,
            FaultDecision::Delay {
                due: SimTime::from_secs(50)
            }
        );
        assert_eq!(inj.pending_delayed().len(), 2);
        assert!(inj.due_resizes(SimTime::from_secs(39)).is_empty());
        let due = inj.due_resizes(SimTime::from_secs(45));
        assert_eq!(due.len(), 1);
        assert_eq!(due.first().map(|d| d.layer), Some(INGESTION));
        let due = inj.due_resizes(SimTime::from_secs(50));
        assert_eq!(due.first().map(|d| d.target), Some(5.0));
        assert!(inj.pending_delayed().is_empty());
    }

    #[test]
    fn dropout_filters_sensor_reads_only() {
        let plan = FaultPlan::preset("stale-sensor").expect("preset exists");
        let mut inj = FaultInjector::new(plan);
        let inside = SimTime::from_secs(800);
        assert_eq!(inj.on_sense(INGESTION, 55.0, inside), None);
        assert_eq!(inj.on_sense(STORAGE, 55.0, inside), Some(55.0));
        assert_eq!(
            inj.on_sense(INGESTION, 55.0, SimTime::from_secs(100)),
            Some(55.0)
        );
        // Dropout clauses never touch actuations.
        assert_eq!(
            inj.on_actuate(INGESTION, 2.0, 3.0, inside),
            FaultDecision::Pass
        );
    }

    #[test]
    fn faults_are_traced_when_a_recorder_is_attached() {
        let recorder = Recorder::with_capacity(64);
        let mut inj = FaultInjector::new(reject_all_plan(1.0));
        inj.set_recorder(recorder.clone());
        inj.on_actuate(INGESTION, 2.0, 3.0, SimTime::from_secs(30));
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        let e = events.first().expect("one event");
        assert_eq!(e.kind, kind::CHAOS_FAULT);
        assert_eq!(e.str("fault"), Some("reject"));
        assert_eq!(e.str("layer"), Some("ingestion"));
        assert_eq!(e.f64("target"), Some(3.0));
        assert_eq!(e.at, SimTime::from_secs(30));
    }
}
