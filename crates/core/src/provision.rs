//! Resource Provisioning — paper §3.3.
//!
//! One sensor → controller → actuator loop per layer. "The sensor module
//! is responsible for providing resource usage stats as per the specified
//! monitoring window. The actuator is capable of executing the
//! controllers' commands, such as adding or removing VMs and increasing
//! or decreasing number of Shards." (§2)
//!
//! The [`ProvisioningManager`] owns one loop per registered layer and
//! steps them every monitoring period against the simulated cloud.
//! Actuator commands are rounded to deployable units, clamped to the
//! bounds the share analysis produced, and — crucially — the applied
//! value is synced back into the controller so it never winds up against
//! a limit it cannot cross. Actuations dispatch through the engine's
//! [`flower_cloud::LayerService`] registry, so a loop works for any
//! layer the engine answers for — the registered services and the
//! storage layer's read capacity ([`flower_cloud::layer::STORAGE_READ`]).
//!
//! The manager is the one fault path: an attached
//! [`FaultInjector`] sees every sensor read and actuation of every loop,
//! and the resilience policy (retries, timeouts, degraded-mode holds)
//! answers what it injects.

use flower_chaos::{FaultDecision, FaultInjector};
use flower_cloud::dynamo::DynamoError;
use flower_cloud::engine::EngineError;
use flower_cloud::kinesis::KinesisError;
use flower_cloud::{CacheError, CloudEngine, SensorProbe};
use flower_control::Controller;
use flower_obs::{kind, Recorder};
use flower_sim::{SimDuration, SimTime};

use crate::flow::Layer;

/// One layer's control loop configuration.
pub struct LayerControllerConfig {
    /// Which layer this loop manages.
    pub layer: Layer,
    /// The controller (any [`Controller`] implementation).
    pub controller: Box<dyn Controller>,
    /// The sensor feeding it.
    pub sensor: SensorProbe,
    /// Minimum deployable units (share-analysis lower bound).
    pub min_units: f64,
    /// Maximum deployable units (share-analysis upper bound — "once the
    /// upper bound resource shares for each layer are identified, an
    /// adaptive controller at each of the three layers automatically
    /// adjusts resource allocations of that layer", §2).
    pub max_units: f64,
}

/// A record of one actuation decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuationRecord {
    /// When the decision was taken.
    pub at: SimTime,
    /// The sensor reading that drove it.
    pub measurement: f64,
    /// The controller's raw (continuous) command.
    pub commanded: f64,
    /// What was actually applied after rounding/clamping.
    pub applied: f64,
    /// Whether the cloud accepted the actuation.
    pub accepted: bool,
}

/// The resilience policy: bounded retries with deterministic
/// exponential backoff, actuation timeouts, and graceful degradation.
///
/// All durations are [`SimTime`]-based — no wall clock anywhere — so an
/// episode under faults replays byte-identically at any worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Retry attempts after a rejected actuation (0 disables retries).
    pub max_retries: u32,
    /// Backoff before the first retry; attempt `n` waits
    /// `backoff_base · backoff_factor^(n−1)`.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the backoff per attempt.
    pub backoff_factor: u64,
    /// How long a delayed (accepted-but-not-landed) actuation may stay
    /// in flight before it is declared timed out.
    pub actuation_timeout: SimDuration,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_retries: 3,
            backoff_base: SimDuration::from_secs(5),
            backoff_factor: 2,
            actuation_timeout: SimDuration::from_secs(120),
        }
    }
}

impl ResilienceConfig {
    /// The deterministic backoff before retry attempt `attempt`
    /// (1-based): `base · factor^(attempt−1)`, saturating.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1);
        SimDuration::from_millis(
            self.backoff_base
                .as_millis()
                .saturating_mul(self.backoff_factor.saturating_pow(exp)),
        )
    }
}

/// A scheduled retry of a rejected actuation.
#[derive(Debug, Clone, Copy)]
struct RetryTicket {
    layer: Layer,
    target: f64,
    attempt: u32,
    due: SimTime,
}

/// An accepted actuation whose effect has not landed yet.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    layer: Layer,
    target: f64,
    deadline: SimTime,
}

/// Live retry/timeout bookkeeping for the resilience policy.
struct ResilienceRuntime {
    config: ResilienceConfig,
    retries: Vec<RetryTicket>,
    in_flight: Vec<InFlight>,
}

impl ResilienceRuntime {
    fn new(config: ResilienceConfig) -> ResilienceRuntime {
        ResilienceRuntime {
            config,
            retries: Vec::new(),
            in_flight: Vec::new(),
        }
    }

    /// A fresh control decision supersedes any retry chain for the
    /// layer — fresher information wins. In-flight actuations are *not*
    /// cancelled: the cloud-side operation is still pending whatever
    /// the loop decides next, so its timeout clock keeps running until
    /// it lands or expires.
    fn cancel(&mut self, layer: Layer) {
        self.retries.retain(|t| t.layer != layer);
    }

    /// Queue retry `attempt` (1-based) of `layer`'s actuation to
    /// `target`; `false` when the policy's retries are spent.
    fn schedule_retry(&mut self, layer: Layer, target: f64, attempt: u32, now: SimTime) -> bool {
        if attempt > self.config.max_retries {
            return false;
        }
        let due = now + self.config.backoff(attempt);
        self.retries.push(RetryTicket {
            layer,
            target,
            attempt,
            due,
        });
        true
    }

    fn track_in_flight(&mut self, layer: Layer, target: f64, now: SimTime) {
        self.in_flight.push(InFlight {
            layer,
            target,
            deadline: now + self.config.actuation_timeout,
        });
    }

    /// A delayed actuation landed: stop its timeout clock.
    fn landed(&mut self, layer: Layer, target: f64) {
        if let Some(i) = self
            .in_flight
            .iter()
            .position(|f| f.layer == layer && (f.target - target).abs() < 1e-9)
        {
            self.in_flight.remove(i);
        }
    }
}

/// Degraded-mode bookkeeping while a layer's sensor is stale.
#[derive(Debug, Clone, Copy)]
struct DegradedState {
    /// When the sensor went quiet.
    since: SimTime,
    /// The last-known-good applied share being held.
    held: f64,
    /// Control rounds spent degraded so far.
    rounds: u64,
}

/// One layer's running control loop.
struct LayerLoop {
    config: LayerControllerConfig,
    /// The share in force after the last control decision — what a
    /// degraded round holds.
    last_applied: Option<f64>,
    rejected: u64,
    degraded: Option<DegradedState>,
}

/// The per-layer provisioning manager.
pub struct ProvisioningManager {
    loops: Vec<LayerLoop>,
    window: SimDuration,
    recorder: Recorder,
    injector: Option<FaultInjector>,
    resilience: Option<ResilienceRuntime>,
}

impl ProvisioningManager {
    /// Build a manager stepping each configured layer with the given
    /// monitoring window.
    pub fn new(configs: Vec<LayerControllerConfig>, window: SimDuration) -> ProvisioningManager {
        assert!(!window.is_zero(), "monitoring window must be non-zero");
        for c in &configs {
            assert!(
                c.min_units >= 1.0 && c.min_units <= c.max_units,
                "invalid bounds for {}: [{}, {}]",
                c.layer,
                c.min_units,
                c.max_units
            );
        }
        ProvisioningManager {
            loops: configs
                .into_iter()
                .map(|config| LayerLoop {
                    config,
                    last_applied: None,
                    rejected: 0,
                    degraded: None,
                })
                .collect(),
            window,
            recorder: Recorder::disabled(),
            injector: None,
            resilience: None,
        }
    }

    /// Route every sensor read and actuation through a fault injector.
    /// Injected faults surface exactly like organic ones (rejections,
    /// shortfalls, silence), so the control loops cannot tell the
    /// difference — which is the point.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Enable the resilience policy: bounded deterministic retries,
    /// actuation timeouts, and degraded-mode holds on sensor dropout.
    pub fn set_resilience(&mut self, config: ResilienceConfig) {
        self.resilience = Some(ResilienceRuntime::new(config));
    }

    /// Inject a fault clause at runtime (`flower serve`'s
    /// `inject-fault` command). With an injector already installed the
    /// clause joins its plan — per-layer RNG streams keep their
    /// positions, so replaying the same command at the same sim time
    /// reproduces the same draws. Without one, a fresh injector seeded
    /// with `seed` is installed, along with the default resilience
    /// policy if none is active (faults without retries would wedge
    /// the loops in ways no operator asks for).
    pub fn inject_fault(&mut self, seed: u64, clause: flower_chaos::FaultClause) {
        match self.injector.as_mut() {
            Some(injector) => injector.push_clause(clause),
            None => {
                let plan = flower_chaos::FaultPlan {
                    seed,
                    clauses: vec![clause],
                };
                let mut injector = FaultInjector::new(plan);
                injector.set_recorder(self.recorder.clone());
                self.injector = Some(injector);
            }
        }
        if self.resilience.is_none() {
            self.set_resilience(ResilienceConfig::default());
        }
    }

    /// Whether `layer` is currently degraded (sensor stale, share held).
    pub fn degraded(&self, layer: Layer) -> bool {
        self.loops
            .iter()
            .find(|l| l.config.layer == layer)
            .is_some_and(|l| l.degraded.is_some())
    }

    /// The attached fault injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Attach an observability recorder: every control round then emits
    /// one [`kind::CONTROL_DECISION`] event per layer (sensor reading,
    /// raw command, applied value, acceptance) plus a
    /// [`kind::CONTROL_GAIN`] event for controllers exposing a gain —
    /// the Eq. 7 gain trajectory and its gain-memory warm starts.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The monitoring window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The layers under management.
    pub fn layers(&self) -> Vec<Layer> {
        self.loops.iter().map(|l| l.config.layer).collect()
    }

    /// Rejected actuations (cloud said no: reshard in progress, decrease
    /// limit, …) for one layer.
    pub fn rejected(&self, layer: Layer) -> u64 {
        self.loops
            .iter()
            .find(|l| l.config.layer == layer)
            .map(|l| l.rejected)
            .unwrap_or(0)
    }

    /// Update one layer's actuator bounds at runtime — how the
    /// replanner's fresh resource shares reach the §3.3 loops. Returns
    /// `false` when the layer is not under management.
    pub fn set_bounds(&mut self, layer: Layer, min_units: f64, max_units: f64) -> bool {
        assert!(
            min_units >= 1.0 && min_units <= max_units,
            "invalid bounds for {layer}: [{min_units}, {max_units}]"
        );
        match self.loops.iter_mut().find(|l| l.config.layer == layer) {
            Some(l) => {
                l.config.min_units = min_units;
                l.config.max_units = max_units;
                true
            }
            None => false,
        }
    }

    /// Run one control round against the engine at time `now`:
    /// read each sensor, step each controller, apply each actuation.
    /// Returns the records of this round (one per layer that had data).
    pub fn step(&mut self, engine: &mut CloudEngine, now: SimTime) -> Vec<ActuationRecord> {
        let mut records = Vec::with_capacity(self.loops.len());
        for l in &mut self.loops {
            let raw = l.config.sensor.read(engine.metrics(), now, self.window);
            let sensed = match (raw, self.injector.as_mut()) {
                (Some(v), Some(inj)) => inj.on_sense(l.config.layer, v, now),
                (v, _) => v,
            };
            let Some(measurement) = sensed else {
                // No data. With the resilience policy on, enter (or stay
                // in) degraded mode: hold the last-known-good share and
                // freeze the controller so Eq. 7's gain memory is not
                // corrupted by a stale window. Otherwise, legacy skip.
                if self.resilience.is_some() {
                    degraded_round(l, &self.recorder, now);
                }
                continue;
            };
            if let Some(d) = l.degraded.take() {
                // Fresh data after a stale spell: resume control.
                if self.recorder.is_enabled() {
                    self.recorder.set_now(now);
                    self.recorder.emit(
                        kind::RESILIENCE_DEGRADED,
                        &[
                            ("held", d.held.into()),
                            ("layer", l.config.layer.label().into()),
                            ("phase", "exit".into()),
                            ("rounds", d.rounds.into()),
                            ("stale_ms", now.since(d.since).as_millis().into()),
                        ],
                    );
                    self.recorder.count("resilience.recoveries", 1);
                }
            }
            let commanded = l.config.controller.step(measurement);
            // The continuous command, clamped to the share bounds; the
            // deployment gets its rounding.
            let desired = commanded.clamp(l.config.min_units, l.config.max_units);
            let applied = desired.round();

            // A fresh decision supersedes any retry chain in flight.
            if let Some(res) = self.resilience.as_mut() {
                res.cancel(l.config.layer);
            }
            let (decision, outcome) =
                actuate(self.injector.as_mut(), engine, l.config.layer, applied, now);
            let (accepted, delayed) = (outcome.accepted(), outcome == Outcome::Delayed);
            if !accepted {
                l.rejected += 1;
            }
            if let Some(res) = self.resilience.as_mut() {
                match outcome {
                    Outcome::Rejected { retry: true } => {
                        res.schedule_retry(l.config.layer, applied, 1, now);
                    }
                    Outcome::Delayed => res.track_in_flight(l.config.layer, applied, now),
                    Outcome::Applied | Outcome::Rejected { retry: false } => {}
                }
            }
            // Sync the controller with reality while preserving sub-unit
            // integral progress: when accepted, sync to the *continuous*
            // clamped command (anti-windup at the bounds only — rounding
            // is the deployment's concern, and syncing to the rounded
            // value would erase small accumulating adjustments). When
            // rejected — or landed short — sync to the deployment's
            // current target so the shortfall stays visible to the
            // controller. A delayed actuation counts as accepted: the
            // command is in flight.
            let in_force = if (matches!(decision, FaultDecision::Pass) && accepted) || delayed {
                desired
            } else {
                engine.target_units(l.config.layer).unwrap_or(desired)
            };
            l.config.controller.sync_actuator(in_force);

            let record = ActuationRecord {
                at: now,
                measurement,
                commanded,
                applied: in_force,
                accepted,
            };
            if self.recorder.is_enabled() {
                self.recorder.set_now(now);
                self.recorder.emit(
                    kind::CONTROL_DECISION,
                    &[
                        ("accepted", accepted.into()),
                        ("applied", in_force.into()),
                        ("commanded", commanded.into()),
                        ("layer", l.config.layer.label().into()),
                        ("measurement", measurement.into()),
                    ],
                );
                self.recorder.count("control.decisions", 1);
                if !accepted {
                    self.recorder.count("control.rejections", 1);
                }
                if let Some(gain) = l.config.controller.current_gain() {
                    let warm = l.config.controller.warm_started();
                    self.recorder.emit(
                        kind::CONTROL_GAIN,
                        &[
                            ("gain", gain.into()),
                            ("layer", l.config.layer.label().into()),
                            ("warm_start", warm.into()),
                        ],
                    );
                    if warm {
                        self.recorder.count("control.warm_starts", 1);
                    }
                }
            }
            l.last_applied = Some(in_force);
            records.push(record);
        }
        records
    }

    /// Per-tick housekeeping between control rounds: land delayed
    /// actuations that have come due, expire in-flight actuations past
    /// their timeout, and fire due retries with deterministic
    /// exponential backoff. A no-op unless a fault injector or the
    /// resilience policy is attached — the zero-fault path stays
    /// byte-identical to a manager without either.
    pub fn poll(&mut self, engine: &mut CloudEngine, now: SimTime) {
        if self.injector.is_none() && self.resilience.is_none() {
            return;
        }
        // 1. Delayed actuations landing now. The engine traces each as
        //    an ordinary resize; `landed` stops its timeout clock.
        if let Some(inj) = self.injector.as_mut() {
            for d in inj.due_resizes(now) {
                if engine.actuate(d.layer, d.target, now).is_err() {
                    continue; // the service itself refused the late landing
                }
                if let Some(res) = self.resilience.as_mut() {
                    res.landed(d.layer, d.target);
                }
            }
        }
        let Some(res) = self.resilience.as_mut() else {
            return;
        };
        // 2. In-flight actuations past their deadline.
        let mut timed_out = Vec::new();
        res.in_flight.retain(|f| {
            if f.deadline <= now {
                timed_out.push(*f);
                false
            } else {
                true
            }
        });
        for f in timed_out {
            if self.recorder.is_enabled() {
                self.recorder.set_now(now);
                self.recorder.emit(
                    kind::RESILIENCE_TIMEOUT,
                    &[
                        ("layer", f.layer.label().into()),
                        ("target", f.target.into()),
                    ],
                );
                self.recorder.count("resilience.timeouts", 1);
            }
        }
        // 3. Due retries. Each re-enters the fault path — a retry can be
        //    rejected again (and back off further, if the rejection is
        //    retryable) or be delayed.
        let mut due = Vec::new();
        res.retries.retain(|t| {
            if t.due <= now {
                due.push(*t);
                false
            } else {
                true
            }
        });
        for t in due {
            let (_, outcome) = actuate(self.injector.as_mut(), engine, t.layer, t.target, now);
            let accepted = outcome.accepted();
            if self.recorder.is_enabled() {
                self.recorder.set_now(now);
                self.recorder.emit(
                    kind::RESILIENCE_RETRY,
                    &[
                        ("accepted", accepted.into()),
                        ("attempt", t.attempt.into()),
                        ("layer", t.layer.label().into()),
                        ("target", t.target.into()),
                    ],
                );
                self.recorder.count("resilience.retries", 1);
            }
            let Some(res) = self.resilience.as_mut() else {
                return;
            };
            match outcome {
                Outcome::Delayed => res.track_in_flight(t.layer, t.target, now),
                Outcome::Rejected { retry: true } => {
                    let next = t.attempt.saturating_add(1);
                    if !res.schedule_retry(t.layer, t.target, next, now)
                        && self.recorder.is_enabled()
                    {
                        self.recorder.count("resilience.exhausted", 1);
                    }
                }
                Outcome::Applied | Outcome::Rejected { retry: false } => {}
            }
        }
    }

    /// The earliest instant at which [`ProvisioningManager::poll`] has
    /// work to do: the soonest of any delayed-resize landing, in-flight
    /// actuation deadline, or retry due time. `None` means polling is a
    /// no-op until a future control decision creates new work. After a
    /// `poll(now)` drained everything due, any remaining due is strictly
    /// in the future.
    pub fn next_due(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(match next {
                Some(cur) => cur.min(t),
                None => t,
            });
        };
        if let Some(inj) = self.injector.as_ref() {
            for d in inj.pending_delayed() {
                consider(d.due);
            }
        }
        if let Some(res) = self.resilience.as_ref() {
            for f in &res.in_flight {
                consider(f.deadline);
            }
            for t in &res.retries {
                consider(t.due);
            }
        }
        next
    }
}

/// What the fault path did with one actuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The engine took it, possibly short of the target.
    Applied,
    /// The injector holds it; [`ProvisioningManager::poll`] lands it
    /// when due. It counts as accepted.
    Delayed,
    /// Refused; `retry` when resending it unchanged may succeed.
    Rejected {
        /// Whether the rejection is [`retryable`].
        retry: bool,
    },
}

impl Outcome {
    fn accepted(self) -> bool {
        !matches!(self, Outcome::Rejected { .. })
    }
}

/// The rejections worth retrying unchanged, named in one place: an
/// injected reject (`None`) and a service still busy with an earlier
/// resize. Any other refusal cannot clear within a backoff: DynamoDB's
/// daily decrease limit holds until the next simulated day, and an
/// out-of-range target or unknown layer never clears. Retrying one only
/// repeats it; the next control round decides afresh.
fn retryable(rejection: Option<&EngineError>) -> bool {
    matches!(
        rejection,
        None | Some(
            EngineError::Kinesis(KinesisError::ResourceInUse)
                | EngineError::Dynamo(DynamoError::UpdateInProgress)
                | EngineError::Cache(CacheError::ResizeInProgress)
        )
    )
}

/// One actuation of `layer` to `target` along the fault path: the
/// injector, when attached, judges the request, and whatever it lets
/// through reaches the engine. Returns the decision with its outcome.
fn actuate(
    injector: Option<&mut FaultInjector>,
    engine: &mut CloudEngine,
    layer: Layer,
    target: f64,
    now: SimTime,
) -> (FaultDecision, Outcome) {
    let decision = match injector {
        Some(inj) => {
            let from = engine.actuator_units(layer).unwrap_or(target);
            inj.on_actuate(layer, from, target, now)
        }
        None => FaultDecision::Pass,
    };
    let applied = |result: Result<(), EngineError>| match result {
        Ok(()) => Outcome::Applied,
        Err(e) => Outcome::Rejected {
            retry: retryable(Some(&e)),
        },
    };
    let outcome = match decision {
        FaultDecision::Pass => applied(engine.actuate(layer, target, now)),
        FaultDecision::Short { target } => applied(engine.actuate(layer, target, now)),
        FaultDecision::Reject => Outcome::Rejected {
            retry: retryable(None),
        },
        FaultDecision::Delay { .. } => Outcome::Delayed,
    };
    (decision, outcome)
}

/// One degraded control round for `l`: enter degraded mode on the first
/// stale window (holding the last-known-good applied share), then hold
/// the controller — neither Eq. 6 nor Eq. 7 runs, so the adaptive gain
/// `l_k` and its memory stay frozen exactly as they were.
fn degraded_round(l: &mut LayerLoop, recorder: &Recorder, now: SimTime) {
    match l.degraded.as_mut() {
        Some(d) => d.rounds += 1,
        None => {
            let Some(held) = l.last_applied else {
                // Warm-up: no last-known-good share to hold yet, and the
                // controller has never stepped — nothing to freeze.
                return;
            };
            l.degraded = Some(DegradedState {
                since: now,
                held,
                rounds: 1,
            });
            if recorder.is_enabled() {
                recorder.set_now(now);
                recorder.emit(
                    kind::RESILIENCE_DEGRADED,
                    &[
                        ("held", held.into()),
                        ("layer", l.config.layer.label().into()),
                        ("phase", "enter".into()),
                    ],
                );
                recorder.count("resilience.degraded_entries", 1);
            }
        }
    }
    l.config.controller.hold();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flower_cloud::{CloudEngine, EngineConfig, LayerService};
    use flower_control::{AdaptiveConfig, AdaptiveController};
    use flower_sim::SimRng;
    use flower_workload::{ClickStreamConfig, ClickStreamGenerator, ConstantRate};

    fn engine() -> CloudEngine {
        CloudEngine::new(EngineConfig::default())
    }

    fn drive(engine: &mut CloudEngine, rate: f64, from_secs: u64, to_secs: u64, seed: u64) {
        let mut generator =
            ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed));
        let mut process = ConstantRate::new(rate);
        for s in from_secs..to_secs {
            let now = SimTime::from_secs(s);
            let records = generator.tick(&mut process, now, 1.0);
            engine.tick(&records, now, SimDuration::from_secs(1));
        }
    }

    fn analytics_loop() -> LayerControllerConfig {
        LayerControllerConfig {
            layer: Layer::ANALYTICS,
            controller: Box::new(AdaptiveController::new(AdaptiveConfig {
                setpoint: 60.0,
                u_init: 2.0,
                gamma: 0.01,
                l_min: 0.01,
                l_max: 1.0,
                l_init: 0.05,
                gain_memory: true,
                memory_len: 32,
            })),
            sensor: engine().storm().utilization_sensor(),
            min_units: 1.0,
            max_units: 50.0,
        }
    }

    #[test]
    fn sensor_reads_window_average() {
        let mut e = engine();
        drive(&mut e, 1_000.0, 0, 60, 1);
        let sensor = e.storm().utilization_sensor();
        let v = sensor
            .read(
                e.metrics(),
                SimTime::from_secs(60),
                SimDuration::from_secs(30),
            )
            .unwrap();
        assert!(v > 4.8 && v < 100.0, "cpu={v}");
    }

    #[test]
    fn sensor_scale_is_applied() {
        let mut e = engine();
        drive(&mut e, 1_000.0, 0, 10, 2);
        let raw = e.kinesis().utilization_sensor();
        let v = raw
            .read(
                e.metrics(),
                SimTime::from_secs(10),
                SimDuration::from_secs(10),
            )
            .unwrap();
        // 1,000 rec/s on 2 shards = 50% utilization after the ×100 scale.
        assert!((v - 50.0).abs() < 10.0, "utilization={v}");
    }

    #[test]
    fn empty_window_reads_none() {
        let e = engine();
        let sensor = e.storm().utilization_sensor();
        assert_eq!(
            sensor.read(
                e.metrics(),
                SimTime::from_secs(60),
                SimDuration::from_secs(30)
            ),
            None
        );
    }

    /// Drive `e` for ten minutes at `rate` rec/s with a control round at
    /// the end of every monitoring window; every decision taken.
    fn control_rounds(
        manager: &mut ProvisioningManager,
        e: &mut CloudEngine,
        rate: f64,
        seed: u64,
    ) -> Vec<ActuationRecord> {
        let mut generator =
            ClickStreamGenerator::new(ClickStreamConfig::default(), SimRng::seed(seed));
        let mut process = ConstantRate::new(rate);
        let every = manager.window().as_secs();
        let mut decisions = Vec::new();
        for s in 0..600u64 {
            let now = SimTime::from_secs(s);
            let records = generator.tick(&mut process, now, 1.0);
            e.tick(&records, now, SimDuration::from_secs(1));
            if s % every == every - 1 {
                decisions.extend(manager.step(e, now));
            }
        }
        decisions
    }

    #[test]
    fn manager_scales_out_under_load() {
        let mut e = engine();
        let mut manager =
            ProvisioningManager::new(vec![analytics_loop()], SimDuration::from_secs(30));
        // Overload: 2 VMs serve 5,000 tuples/s; offer ~4,800 → cpu ≈ 96%.
        // 6 shards so Kinesis passes the load through.
        e.actuate(Layer::INGESTION, 6.0, SimTime::ZERO).unwrap();
        let decisions = control_rounds(&mut manager, &mut e, 4_800.0, 3);
        assert!(
            e.storm().target_vms() > 2,
            "should have scaled out, still at {}",
            e.storm().target_vms()
        );
        assert!(!decisions.is_empty());
        assert!(decisions.iter().all(|r| r.accepted));
    }

    #[test]
    fn manager_skips_rounds_without_data() {
        let mut e = engine();
        let mut manager =
            ProvisioningManager::new(vec![analytics_loop()], SimDuration::from_secs(30));
        let records = manager.step(&mut e, SimTime::from_secs(30));
        assert!(records.is_empty());
    }

    #[test]
    fn actuation_is_clamped_to_bounds() {
        let mut e = engine();
        let mut cfg = analytics_loop();
        cfg.max_units = 3.0;
        let mut manager = ProvisioningManager::new(vec![cfg], SimDuration::from_secs(10));
        e.actuate(Layer::INGESTION, 8.0, SimTime::ZERO).unwrap();
        let decisions = control_rounds(&mut manager, &mut e, 7_000.0, 4);
        assert!(e.storm().target_vms() <= 3, "clamped at 3 VMs");
        assert!(decisions.iter().all(|r| r.applied <= 3.0));
        // The raw command should exceed the clamp under this overload.
        assert!(decisions.iter().any(|r| r.commanded > 3.0));
    }

    #[test]
    fn layers_listed() {
        let manager = ProvisioningManager::new(vec![analytics_loop()], SimDuration::from_secs(30));
        assert_eq!(manager.layers(), vec![Layer::ANALYTICS]);
        assert_eq!(manager.window(), SimDuration::from_secs(30));
        assert_eq!(manager.rejected(Layer::ANALYTICS), 0);
        assert!(!manager.degraded(Layer::STORAGE));
    }

    #[test]
    #[should_panic(expected = "monitoring window must be non-zero")]
    fn zero_window_rejected() {
        ProvisioningManager::new(vec![], SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn inverted_bounds_rejected() {
        let mut cfg = analytics_loop();
        cfg.min_units = 10.0;
        cfg.max_units = 2.0;
        ProvisioningManager::new(vec![cfg], SimDuration::from_secs(30));
    }

    // ----- resilience policy ---------------------------------------

    use flower_chaos::{FaultClause, FaultInjector, FaultKind, FaultPlan};
    use flower_obs::{FieldValue, Recorder};

    /// 6 shards so Kinesis passes ~4,800 rec/s through to Storm, pushing
    /// CPU past the 60% setpoint — every control round wants scale-out.
    fn overloaded_engine(to_secs: u64) -> CloudEngine {
        let mut e = engine();
        e.actuate(Layer::INGESTION, 6.0, SimTime::ZERO).unwrap();
        drive(&mut e, 4_800.0, 0, to_secs, 5);
        e
    }

    fn analytics_plan(kind: FaultKind, from_s: u64, until_s: u64) -> FaultPlan {
        FaultPlan {
            seed: 21,
            clauses: vec![FaultClause {
                layer: Some("analytics".to_owned()),
                from: SimTime::from_secs(from_s),
                until: SimTime::from_secs(until_s),
                kind,
            }],
        }
    }

    fn resilient_manager(
        plan: FaultPlan,
        config: ResilienceConfig,
    ) -> (ProvisioningManager, Recorder) {
        let mut manager =
            ProvisioningManager::new(vec![analytics_loop()], SimDuration::from_secs(30));
        let recorder = Recorder::with_capacity(4_096);
        manager.set_recorder(recorder.clone());
        let mut injector = FaultInjector::new(plan);
        injector.set_recorder(recorder.clone());
        manager.set_fault_injector(injector);
        manager.set_resilience(config);
        (manager, recorder)
    }

    #[test]
    fn rejection_schedules_and_exhausts_retries() {
        let mut e = overloaded_engine(120);
        let (mut manager, recorder) = resilient_manager(
            analytics_plan(FaultKind::Reject { p: 1.0 }, 0, 3_600),
            ResilienceConfig {
                max_retries: 2,
                backoff_base: SimDuration::from_secs(5),
                backoff_factor: 2,
                actuation_timeout: SimDuration::from_secs(120),
            },
        );
        let now = SimTime::from_secs(120);
        manager.step(&mut e, now);
        assert_eq!(manager.rejected(Layer::ANALYTICS), 1);
        assert_eq!(recorder.counter("chaos.faults"), 1);
        // Attempt 1 due at +5s, attempt 2 at +5s+10s; both re-rejected.
        manager.poll(&mut e, now + SimDuration::from_secs(5));
        assert_eq!(recorder.counter("resilience.retries"), 1);
        manager.poll(&mut e, now + SimDuration::from_secs(15));
        assert_eq!(recorder.counter("resilience.retries"), 2);
        assert_eq!(recorder.counter("resilience.exhausted"), 1);
        // Chain exhausted: nothing more ever fires.
        manager.poll(&mut e, now + SimDuration::from_secs(600));
        assert_eq!(recorder.counter("resilience.retries"), 2);
    }

    #[test]
    fn retry_that_lands_clears_the_chain() {
        let mut e = overloaded_engine(120);
        // Rejections stop at t=121s, so the retry at t=125s succeeds.
        let (mut manager, recorder) = resilient_manager(
            analytics_plan(FaultKind::Reject { p: 1.0 }, 0, 121),
            ResilienceConfig::default(),
        );
        let now = SimTime::from_secs(120);
        manager.step(&mut e, now);
        assert_eq!(manager.rejected(Layer::ANALYTICS), 1);
        manager.poll(&mut e, SimTime::from_secs(125));
        assert_eq!(recorder.counter("resilience.retries"), 1);
        assert_eq!(recorder.counter("resilience.exhausted"), 0);
        let retry = recorder
            .events()
            .iter()
            .find(|ev| ev.kind == kind::RESILIENCE_RETRY)
            .cloned()
            .unwrap();
        assert_eq!(retry.fields.get("accepted"), Some(&FieldValue::Bool(true)));
        manager.poll(&mut e, SimTime::from_secs(600));
        assert_eq!(recorder.counter("resilience.retries"), 1, "chain cleared");
    }

    #[test]
    fn dropout_enters_holds_and_exits_degraded_mode() {
        let mut e = overloaded_engine(240);
        let (mut manager, recorder) = resilient_manager(
            analytics_plan(FaultKind::Dropout { p: 1.0 }, 121, 181),
            ResilienceConfig::default(),
        );
        // Round 1: healthy — establishes the last-known-good share.
        let round1 = manager.step(&mut e, SimTime::from_secs(120));
        assert!(!manager.degraded(Layer::ANALYTICS));
        let held = round1.last().unwrap().applied;
        let target_before = e.target_units(Layer::ANALYTICS).unwrap();
        // Rounds 2–3: sensor dark — degraded, share held, no actuation.
        assert!(manager.step(&mut e, SimTime::from_secs(150)).is_empty());
        assert!(manager.step(&mut e, SimTime::from_secs(180)).is_empty());
        assert!(manager.degraded(Layer::ANALYTICS));
        assert_eq!(e.target_units(Layer::ANALYTICS).unwrap(), target_before);
        assert_eq!(recorder.counter("resilience.degraded_entries"), 1);
        // Round 4: data is back — exit, control resumes.
        assert_eq!(manager.step(&mut e, SimTime::from_secs(210)).len(), 1);
        assert!(!manager.degraded(Layer::ANALYTICS));
        assert_eq!(recorder.counter("resilience.recoveries"), 1);
        let exit = recorder
            .events()
            .iter()
            .filter(|ev| ev.kind == kind::RESILIENCE_DEGRADED)
            .find(|ev| ev.str("phase") == Some("exit"))
            .cloned()
            .unwrap();
        assert_eq!(exit.f64("held"), Some(held));
        assert_eq!(exit.f64("rounds"), Some(2.0));
    }

    #[test]
    fn delayed_actuation_times_out_then_lands() {
        let mut e = overloaded_engine(120);
        let (mut manager, recorder) = resilient_manager(
            analytics_plan(
                FaultKind::Delay {
                    p: 1.0,
                    delay: SimDuration::from_secs(150),
                },
                0,
                3_600,
            ),
            ResilienceConfig::default(), // 120s timeout < 150s delay
        );
        let now = SimTime::from_secs(120);
        let records = manager.step(&mut e, now);
        assert!(records[0].accepted, "delayed counts as accepted");
        let target_before = e.target_units(Layer::ANALYTICS).unwrap();
        manager.poll(&mut e, now + SimDuration::from_secs(120));
        assert_eq!(recorder.counter("resilience.timeouts"), 1);
        assert_eq!(e.target_units(Layer::ANALYTICS).unwrap(), target_before);
        manager.poll(&mut e, now + SimDuration::from_secs(150));
        assert!(e.target_units(Layer::ANALYTICS).unwrap() > target_before);
    }

    #[test]
    fn poll_without_faults_or_resilience_is_a_noop() {
        let mut e = engine();
        let mut manager =
            ProvisioningManager::new(vec![analytics_loop()], SimDuration::from_secs(30));
        manager.poll(&mut e, SimTime::from_secs(60));
        assert!(manager.injector().is_none());
        assert!(!manager.degraded(Layer::ANALYTICS));
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let config = ResilienceConfig::default();
        assert_eq!(config.backoff(1), SimDuration::from_secs(5));
        assert_eq!(config.backoff(2), SimDuration::from_secs(10));
        assert_eq!(config.backoff(3), SimDuration::from_secs(20));
        assert_eq!(config.backoff(0), SimDuration::from_secs(5));
        // Saturates instead of overflowing.
        let _ = config.backoff(u32::MAX);
    }
}
