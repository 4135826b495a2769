//! The end-to-end elasticity runtime.
//!
//! [`ElasticityManager`] ties every Flower component together the way the
//! demo (§4) wires them on stage: a click-stream workload feeds the
//! simulated three-layer cloud deployment; per-layer sensor → controller
//! → actuator loops run every monitoring period; everything observable is
//! recorded into an [`EpisodeReport`] for scoring and plotting.
//!
//! Every loop — one per registered layer, plus the storage read-capacity
//! loop of [`ElasticityManagerBuilder::rcu_controller`] — is a
//! [`ProvisioningManager`] loop, so faults, resilience and
//! `control.decision` tracing reach each of them alike. Sensors, monitor
//! rows and alarms come from the engine's layer services.
//!
//! # Event-driven core
//!
//! The episode runs on [`flower_sim::Scheduler`] as discrete events, not
//! a per-second loop. Every instant that the retired tick loop touched is
//! now an explicit scheduled event, and events sharing a timestamp fire
//! in a fixed class order that reproduces the old loop's intra-second
//! sequencing byte-for-byte (see DESIGN.md §15):
//!
//! 1. `POLL` — resilience housekeeping (delayed-resize landings, actuation
//!    timeouts, retry backoffs), scheduled on demand at the next due
//!    instant instead of polled every second;
//! 2. `CONTROL` — one provisioning round on the monitoring-period grid:
//!    every loop's sensor → controller → actuator step, the
//!    read-capacity loop last;
//! 3. `ALARM` — cross-platform alarm evaluation on the one-minute grid of
//!    traced episodes;
//! 4. `REPLAN` — re-planning rounds at the replanner's cadence (a single
//!    cancellable event, rescheduled from `next_due`);
//! 5. `ENGINE` — the cloud-engine tick covering the span to the next
//!    engine event (normally one second; longer in fast-forward).
//!
//! With [`ElasticityManagerBuilder::fast_forward`] enabled, quiet windows
//! — zero offered rate, no pending work — are covered by a single
//! catch-up engine tick to the next scheduled event instead of one tick
//! per second, so month-scale episodes cost wall-clock proportional to
//! activity, not duration.

use std::collections::BTreeMap;

use flower_cloud::alarms::AlarmState;
use flower_cloud::{CloudEngine, LayerService, ReadWorkloadConfig, SensorProbe};
use flower_control::ResponseMetrics;
use flower_obs::{kind, FieldValue, Recorder, SpanId};
use flower_sim::{EventHandle, Scheduler, SimDuration, SimRng, SimTime};
use flower_workload::{
    ArrivalProcess, ClickStreamConfig, ClickStreamGenerator, ConstantRate, DiurnalRate, FlashCrowd,
    StepRate,
};

use flower_chaos::{FaultInjector, FaultPlan};

use crate::config::ControllerSpec;
use crate::error::FlowerError;
use crate::flow::{FlowSpec, Layer};
use crate::monitor::CrossPlatformMonitor;
use crate::provision::{LayerControllerConfig, ProvisioningManager, ResilienceConfig};
use crate::replan::Replanner;

/// A workload: an arrival process plus the click-stream shape.
pub struct Workload {
    process: Box<dyn ArrivalProcess>,
    click: ClickStreamConfig,
}

impl Workload {
    /// Constant arrival intensity.
    pub fn constant(rate: f64) -> Workload {
        Workload {
            process: Box::new(ConstantRate::new(rate)),
            click: ClickStreamConfig::default(),
        }
    }

    /// A compressed day/night cycle (2-hour period) so diurnal dynamics
    /// appear within laptop-scale simulations.
    pub fn diurnal(base: f64, amplitude: f64) -> Workload {
        Workload {
            process: Box::new(DiurnalRate::new(
                base,
                amplitude,
                SimDuration::from_hours(2),
                SimDuration::ZERO,
            )),
            click: ClickStreamConfig::default(),
        }
    }

    /// A step disturbance at `at` — the canonical settling-time workload.
    pub fn step(before: f64, after: f64, at: SimTime) -> Workload {
        Workload {
            process: Box::new(StepRate::new(before, after, at)),
            click: ClickStreamConfig::default(),
        }
    }

    /// A flash crowd on a baseline.
    pub fn flash_crowd(base: f64, spike: f64, at: SimTime) -> Workload {
        Workload {
            process: Box::new(FlashCrowd::new(
                base,
                spike,
                at,
                SimDuration::from_mins(5),
                SimDuration::from_mins(10),
            )),
            click: ClickStreamConfig::default(),
        }
    }

    /// Any custom process.
    pub fn custom(process: Box<dyn ArrivalProcess>) -> Workload {
        Workload {
            process,
            click: ClickStreamConfig::default(),
        }
    }

    /// Override the click-stream shape.
    pub fn with_click_config(mut self, click: ClickStreamConfig) -> Workload {
        self.click = click;
        self
    }
}

/// Per-layer bounds on the actuator (from the share analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerBounds {
    /// Minimum units.
    pub min: f64,
    /// Maximum units.
    pub max: f64,
}

/// Builder for [`ElasticityManager`].
pub struct ElasticityManagerBuilder {
    flow: FlowSpec,
    workload: Option<Workload>,
    seed: u64,
    monitoring_period: SimDuration,
    controllers: Vec<(Layer, ControllerSpec)>,
    all_controllers: Option<ControllerSpec>,
    bounds: Vec<(Layer, LayerBounds)>,
    replanner: Option<Replanner>,
    read_workload: Option<ReadWorkloadConfig>,
    rcu_controller: Option<(ControllerSpec, LayerBounds)>,
    hot_shard_sensor: bool,
    recorder: Recorder,
    faults: Option<FaultPlan>,
    resilience: Option<ResilienceConfig>,
    fast_forward: bool,
}

/// The default controller spec for `layer`: the paper's setpoints for
/// the three reference layers, a 70 % utilization adaptive controller
/// for anything else.
fn default_controller(layer: Layer) -> ControllerSpec {
    if layer == Layer::ANALYTICS {
        ControllerSpec::adaptive(60.0)
    } else if layer == Layer::STORAGE {
        ControllerSpec::adaptive_for_capacity(70.0)
    } else {
        ControllerSpec::adaptive(70.0)
    }
}

/// The default actuator bounds for `layer`: the paper's share-analysis
/// caps for the three reference layers; `fallback_max` (the service's
/// own deployment limit) for anything else.
fn default_bounds(layer: Layer, fallback_max: f64) -> LayerBounds {
    let max = if layer == Layer::INGESTION {
        100.0
    } else if layer == Layer::ANALYTICS {
        50.0
    } else if layer == Layer::STORAGE {
        10_000.0
    } else {
        fallback_max
    };
    LayerBounds { min: 1.0, max }
}

impl ElasticityManagerBuilder {
    fn new(flow: FlowSpec) -> ElasticityManagerBuilder {
        ElasticityManagerBuilder {
            flow,
            workload: None,
            seed: 0,
            monitoring_period: SimDuration::from_secs(30),
            controllers: Vec::new(),
            all_controllers: None,
            bounds: Vec::new(),
            replanner: None,
            read_workload: None,
            rcu_controller: None,
            hot_shard_sensor: false,
            recorder: Recorder::disabled(),
            faults: None,
            resilience: None,
            fast_forward: false,
        }
    }

    /// Inject faults per `plan` (see [`flower_chaos`]): sensor reads and
    /// actuations route through a seeded, deterministic
    /// [`FaultInjector`], and — unless overridden via
    /// [`Self::resilience`] — the default [`ResilienceConfig`] is
    /// enabled alongside, so injected faults meet retries, timeouts, and
    /// degraded-mode holds. An empty plan installs nothing: the episode
    /// stays byte-identical to an unfaulted one.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Tune the resilience policy (bounded retries, deterministic
    /// exponential backoff, actuation timeouts, degraded-mode holds).
    /// Can also be used without [`Self::faults`] to harden against the
    /// cloud's organic rejections.
    pub fn resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = Some(config);
        self
    }

    /// Attach an observability recorder (see [`flower_obs`]). The same
    /// recorder handle is cloned into every subsystem — cloud engine,
    /// provisioning loops, replanner, NSGA-II — so one trace carries the
    /// whole control stack's events in emission order. With the default
    /// disabled recorder the episode runs exactly as without tracing.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Set the workload (required).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the monitoring period (sensor window = control interval).
    pub fn monitoring_period(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "monitoring period must be non-zero");
        self.monitoring_period = period;
        self
    }

    /// Skip quiet windows: when the arrival process offers a zero rate,
    /// no housekeeping is due, and the workload has been quiet for at
    /// least one monitoring period, the engine covers the span to the
    /// next scheduled event with a single catch-up tick instead of one
    /// tick per second. Billing stays exact (resources cannot change
    /// inside a skipped span — any event that could change them bounds
    /// it), but per-second trace samples inside skipped spans collapse
    /// to one boundary sample, so fixtures that pin per-second bytes
    /// keep this **off** (the default). Fast-forwarded episodes are
    /// deterministic in their own right: same seed ⇒ same bytes.
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Choose the controller of one layer (overrides any earlier
    /// [`Self::all_controllers`] for that layer).
    pub fn controller(mut self, layer: Layer, spec: ControllerSpec) -> Self {
        match self.controllers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, s)) => *s = spec,
            None => self.controllers.push((layer, spec)),
        }
        self
    }

    /// Use the same controller spec for every registered layer
    /// (setpoints are taken from the spec as-is). Clears earlier
    /// per-layer choices.
    pub fn all_controllers(mut self, spec: ControllerSpec) -> Self {
        self.controllers.clear();
        self.all_controllers = Some(spec);
        self
    }

    /// Set one layer's actuator bounds (from the share analysis).
    pub fn bounds(mut self, layer: Layer, min: f64, max: f64) -> Self {
        assert!(min >= 1.0 && min <= max, "invalid bounds [{min}, {max}]");
        let b = LayerBounds { min, max };
        match self.bounds.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, slot)) => *slot = b,
            None => self.bounds.push((layer, b)),
        }
        self
    }

    /// Drive the ingestion loop from the *hottest shard's* utilization
    /// (enhanced shard-level monitoring) instead of the stream-level
    /// average. Under skewed partition keys the average hides saturated
    /// shards; this sensor sees them.
    pub fn hot_shard_sensor(mut self, enabled: bool) -> Self {
        self.hot_shard_sensor = enabled;
        self
    }

    /// Attach a read workload against the storage layer (dashboard and
    /// consumer queries). Without one the read path stays idle.
    pub fn read_workload(mut self, config: ReadWorkloadConfig) -> Self {
        self.read_workload = Some(config);
        self
    }

    /// Manage the storage layer's *read* capacity (RCU,
    /// [`Layer::STORAGE_READ`]) with its own control loop — the fourth
    /// managed resource, per §2's listing of "DynamoDB read/write units".
    /// The loop runs last in each provisioning round, on the read
    /// utilization sensor; bounds cap the provisioned RCU.
    pub fn rcu_controller(mut self, spec: ControllerSpec, min: f64, max: f64) -> Self {
        assert!(
            min >= 1.0 && min <= max,
            "invalid RCU bounds [{min}, {max}]"
        );
        self.rcu_controller = Some((spec, LayerBounds { min, max }));
        self
    }

    /// Attach a re-planning outer loop (see [`crate::replan`]): at its
    /// cadence, dependencies are re-learned from the trailing metric
    /// window, resource shares re-solved, and the chosen plan's shares
    /// become the new per-layer maximum bounds.
    pub fn replanner(mut self, replanner: Replanner) -> Self {
        self.replanner = Some(replanner);
        self
    }

    /// Build the manager.
    ///
    /// # Errors
    ///
    /// Returns [`FlowerError::InvalidConfig`] if no workload was attached
    /// via [`Self::workload`] — the manager cannot run without a traffic
    /// source to drive the flow.
    pub fn build(self) -> Result<ElasticityManager, FlowerError> {
        let Some(workload) = self.workload else {
            return Err(FlowerError::InvalidConfig(
                "workload is required: attach one with ElasticityManagerBuilder::workload"
                    .to_owned(),
            ));
        };
        let mut engine_config = self.flow.engine_config();
        if let Some(rw) = self.read_workload {
            engine_config.read_workload = rw;
        }
        let mut engine = CloudEngine::new(engine_config);
        engine.set_recorder(self.recorder.clone());
        let rng = SimRng::seed(self.seed);
        let generator = ClickStreamGenerator::new(workload.click.clone(), rng.fork(1));
        let monitor = CrossPlatformMonitor::for_engine(&engine);

        // One loop per layer the engine registers, in the registry's
        // (ascending) layer order. Controller and bounds come from the
        // builder's per-layer choices, falling back to the paper
        // defaults; sensor and initial actuator level come from the
        // layer's own service.
        let mut loops = Vec::new();
        let mut controller_specs = Vec::new();
        for layer in engine.layer_ids() {
            let Some(service) = engine.service(layer) else {
                continue;
            };
            let spec = self
                .controllers
                .iter()
                .find(|(l, _)| *l == layer)
                .map(|(_, s)| s.clone())
                .or_else(|| self.all_controllers.clone())
                .unwrap_or_else(|| default_controller(layer));
            let initial = service.target_units();
            let sensor = if layer == Layer::INGESTION && self.hot_shard_sensor {
                engine.kinesis().hot_shard_sensor()
            } else {
                service.utilization_sensor()
            };
            let b = self
                .bounds
                .iter()
                .find(|(l, _)| *l == layer)
                .map(|&(_, b)| b)
                .unwrap_or_else(|| default_bounds(layer, service.max_units()));
            loops.extend(managed_loop(layer, &spec, initial, sensor, b));
            controller_specs.push((layer, spec));
        }
        // The read-capacity loop runs after the registry's loops, so it
        // acts last in each round.
        if let Some((spec, b)) = &self.rcu_controller {
            let dynamo = engine.dynamo();
            let (initial, sensor) = (dynamo.target_rcu(), dynamo.read_sensor());
            loops.extend(managed_loop(Layer::STORAGE_READ, spec, initial, sensor, *b));
        }
        let mut provisioning = ProvisioningManager::new(loops, self.monitoring_period);
        provisioning.set_recorder(self.recorder.clone());
        // Fault injection + resilience. A zero-fault plan installs
        // *neither* — the untouched hot path keeps traced episodes
        // byte-identical to fixtures recorded before this layer existed.
        match self.faults {
            Some(plan) if !plan.is_empty() => {
                let mut injector = FaultInjector::new(plan);
                injector.set_recorder(self.recorder.clone());
                provisioning.set_fault_injector(injector);
                provisioning.set_resilience(self.resilience.unwrap_or_default());
            }
            _ => {
                if let Some(config) = self.resilience {
                    provisioning.set_resilience(config);
                }
            }
        }
        let mut replanner = self.replanner;
        if let Some(r) = replanner.as_mut() {
            r.set_recorder(self.recorder.clone());
        }

        let layers = engine.layer_ids();

        // The recurring event chains. Control and alarm rounds fire at
        // whole seconds that are also multiples of their period, i.e. on
        // the lcm(period, 1 s) grid, starting at the first grid point
        // after t = 0; each event reschedules itself, so the chains
        // persist across episodes exactly like the old loop's modulo
        // checks did. Poll and replan events are scheduled on demand from
        // their next due instants.
        let mut sched: Scheduler<World> = Scheduler::new();
        let control_grid =
            SimDuration::from_millis(lcm_ms(self.monitoring_period.as_millis(), 1_000));
        sched.schedule_at_class(SimTime::ZERO + control_grid, CLASS_CONTROL, control_event);
        if self.recorder.is_enabled() {
            sched.schedule_at_class(SimTime::from_secs(60), CLASS_ALARM, alarm_event);
        }

        let mut world = World {
            flow: self.flow,
            engine,
            provisioning,
            process: workload.process,
            generator,
            monitoring_period: self.monitoring_period,
            control_grid,
            controller_specs,
            replanner,
            report: EpisodeReport::for_layers(layers),
            recorder: self.recorder,
            monitor,
            alarm_spans: BTreeMap::new(),
            episode: None,
            fast_forward: self.fast_forward,
            last_active: SimTime::ZERO,
            poll_handle: None,
            replan_handle: None,
            engine_alive: false,
        };
        reschedule_replan(&mut sched, &mut world);
        Ok(ElasticityManager { sched, world })
    }
}

/// The control loop of `layer` under `spec`, starting from `initial`
/// units; `None` for a static spec (a layer nothing scales).
fn managed_loop(
    layer: Layer,
    spec: &ControllerSpec,
    initial: f64,
    sensor: SensorProbe,
    b: LayerBounds,
) -> Option<LayerControllerConfig> {
    Some(LayerControllerConfig {
        layer,
        controller: spec.build(initial)?,
        sensor,
        min_units: b.min,
        max_units: b.max,
    })
}

/// Everything one elasticity episode produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeReport {
    /// The layers under management, in registry (ascending) order. The
    /// per-layer vectors below are parallel to this list.
    pub layers: Vec<Layer>,
    /// Offered arrival rate per second, per engine tick. In fast-forward
    /// a skipped span contributes a single boundary sample.
    pub arrival_trace: Vec<(SimTime, f64)>,
    /// Per-layer measurement traces (ingestion %, analytics CPU %,
    /// storage write %, …) at engine-tick resolution, parallel to
    /// `layers`.
    pub measurement_traces: Vec<Vec<(SimTime, f64)>>,
    /// Per-layer actuator traces (shards, VMs, WCU, …) at engine-tick
    /// resolution, parallel to `layers`.
    pub actuator_traces: Vec<Vec<(SimTime, f64)>>,
    /// Total dollars spent.
    pub total_cost_dollars: f64,
    /// Records throttled at ingestion.
    pub throttled_ingest: u64,
    /// Items throttled at storage.
    pub throttled_storage: u64,
    /// Items successfully written at storage.
    pub stored_items: u64,
    /// Tuples dropped by the analytics backlog bound.
    pub dropped_tuples: u64,
    /// Records offered by the workload.
    pub offered_records: u64,
    /// Records accepted at ingestion.
    pub accepted_records: u64,
    /// Per-layer count of actuator *changes* applied, parallel to
    /// `layers`.
    pub scaling_actions: Vec<u64>,
    /// Per-layer count of rejected actuations, parallel to `layers`.
    pub rejected_actuations: Vec<u64>,
    /// Storage-layer read utilization trace (%, empty without a read
    /// workload).
    pub read_utilization_trace: Vec<(SimTime, f64)>,
    /// Provisioned-RCU trace.
    pub rcu_trace: Vec<(SimTime, f64)>,
    /// Reads throttled at the storage layer.
    pub throttled_reads: u64,
    /// Engine ticks at which the provisioned RCU changed — the rule
    /// `scaling_actions` applies to every registered layer.
    pub rcu_actions: u64,
    /// Discrete events the scheduler executed over the manager's
    /// lifetime so far — the event-core cost model's native unit. With
    /// fast-forward, quiet windows drive this far below one event per
    /// simulated second.
    pub events_executed: u64,
    /// High-water mark of the scheduler's pending-event queue depth.
    pub queue_high_water: u64,
}

impl EpisodeReport {
    fn for_layers(layers: Vec<Layer>) -> EpisodeReport {
        let n = layers.len();
        EpisodeReport {
            layers,
            arrival_trace: Vec::new(),
            measurement_traces: vec![Vec::new(); n],
            actuator_traces: vec![Vec::new(); n],
            total_cost_dollars: 0.0,
            throttled_ingest: 0,
            throttled_storage: 0,
            stored_items: 0,
            dropped_tuples: 0,
            offered_records: 0,
            accepted_records: 0,
            scaling_actions: vec![0; n],
            rejected_actuations: vec![0; n],
            read_utilization_trace: Vec::new(),
            rcu_trace: Vec::new(),
            throttled_reads: 0,
            rcu_actions: 0,
            events_executed: 0,
            queue_high_water: 0,
        }
    }

    fn layer_slot(&self, layer: Layer) -> Option<usize> {
        self.layers.iter().position(|&l| l == layer)
    }

    /// One layer's measurement trace (empty for unmanaged layers).
    pub fn measurements(&self, layer: Layer) -> &[(SimTime, f64)] {
        self.layer_slot(layer)
            .and_then(|i| self.measurement_traces.get(i))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// One layer's actuator trace (empty for unmanaged layers).
    pub fn actuators(&self, layer: Layer) -> &[(SimTime, f64)] {
        self.layer_slot(layer)
            .and_then(|i| self.actuator_traces.get(i))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Fraction of offered records lost to ingestion throttling.
    pub fn ingest_loss_rate(&self) -> f64 {
        if self.offered_records == 0 {
            0.0
        } else {
            self.throttled_ingest as f64 / self.offered_records as f64
        }
    }

    /// Score one layer's measurement trace against a setpoint ± band.
    pub fn response_metrics(&self, layer: Layer, setpoint: f64, band: f64) -> ResponseMetrics {
        ResponseMetrics::of(self.measurements(layer), setpoint, band)
    }

    /// Scaling actions across all layers.
    pub fn total_actions(&self) -> u64 {
        self.scaling_actions.iter().sum()
    }
}

// Tie-break classes: at a shared timestamp, housekeeping (poll, control,
// alarm, replan — in that order) fires before the engine tick,
// reproducing the retired loop's "housekeeping for T runs at the end of
// the previous second's tick" sequencing.
const CLASS_POLL: u8 = 0;
const CLASS_CONTROL: u8 = 1;
const CLASS_ALARM: u8 = 2;
const CLASS_REPLAN: u8 = 3;
const CLASS_ENGINE: u8 = 4;

/// Least common multiple of two periods in milliseconds.
fn lcm_ms(a: u64, b: u64) -> u64 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    a / gcd(a, b) * b
}

/// `t` rounded up to the next whole second (identity on whole seconds).
fn ceil_whole_second(t: SimTime) -> SimTime {
    SimTime::from_millis(t.as_millis().div_ceil(1_000) * 1_000)
}

/// The first whole second strictly after `t` — where the retired loop
/// would next run housekeeping.
fn next_whole_second_after(t: SimTime) -> SimTime {
    SimTime::from_millis((t.as_millis() / 1_000 + 1) * 1_000)
}

/// Mutable world state the scheduler's events operate on. Event bodies
/// are free functions over `(&mut Scheduler<World>, &mut World)` so
/// chains can reschedule themselves.
struct World {
    flow: FlowSpec,
    engine: CloudEngine,
    provisioning: ProvisioningManager,
    process: Box<dyn ArrivalProcess>,
    generator: ClickStreamGenerator,
    monitoring_period: SimDuration,
    /// lcm(monitoring period, 1 s): the control rounds' actual grid.
    control_grid: SimDuration,
    controller_specs: Vec<(Layer, ControllerSpec)>,
    replanner: Option<Replanner>,
    report: EpisodeReport,
    recorder: Recorder,
    monitor: CrossPlatformMonitor,
    alarm_spans: BTreeMap<String, SpanId>,
    episode: Option<EpisodeState>,
    fast_forward: bool,
    /// Last instant the arrival process offered a non-zero rate; quiet
    /// spans are only skipped after one full monitoring period of
    /// silence so backlogs and boot timers settle first.
    last_active: SimTime,
    poll_handle: Option<EventHandle>,
    replan_handle: Option<EventHandle>,
    /// Whether the self-rescheduling engine chain has a live event in
    /// the queue. The chain dies at episode end and `start_episode`
    /// revives it.
    engine_alive: bool,
}

/// In-flight bookkeeping between [`ElasticityManager::start_episode`]
/// and [`ElasticityManager::finish_episode`].
struct EpisodeState {
    end: SimTime,
    span: SpanId,
    prev_actuators: Vec<f64>,
    prev_rcu: f64,
    events_at_start: u64,
}

/// ENGINE event: cover `[t, next engine event)` with one cloud-engine
/// tick — one second in tick-compat mode, the whole quiet span in
/// fast-forward — then reschedule at the span's end. Dies (clearing
/// `engine_alive`) at or past the episode end.
fn engine_event(s: &mut Scheduler<World>, w: &mut World) {
    let t = s.now();
    let Some(end) = w.episode.as_ref().map(|e| e.end) else {
        w.engine_alive = false;
        return;
    };
    if t >= end {
        w.engine_alive = false;
        return;
    }
    let rate = w.process.rate(t);
    let mut until = t + SimDuration::from_secs(1);
    let mut fast_forwarding = false;
    if w.fast_forward && rate <= 0.0 && t.since(w.last_active) >= w.monitoring_period {
        // Skip to the earliest of: the workload waking up, the episode
        // end, or the next scheduled event. Capping at the next event
        // keeps the skipped span observably inert — nothing that could
        // resize, decide, or emit fires inside it — so one catch-up
        // tick bills exactly what per-second ticks would have.
        let wake = w.process.next_active(t);
        let mut horizon = if wake >= end {
            end
        } else {
            ceil_whole_second(wake).min(end)
        };
        if let Some(next_event) = s.next_event_time() {
            horizon = horizon.min(next_event);
        }
        if horizon > until {
            until = horizon;
            fast_forwarding = true;
        }
    }
    if rate > 0.0 {
        w.last_active = t;
    }
    let records = if fast_forwarding {
        Vec::new()
    } else {
        w.generator.tick_at_rate(rate, t, 1.0)
    };
    w.report.offered_records += records.len() as u64;
    w.report.arrival_trace.push((t, rate));

    let tick = w.engine.tick(&records, t, until.since(t));
    w.report.accepted_records += tick.ingest.accepted;
    w.report.throttled_ingest += tick.ingest.throttled;
    w.report.throttled_storage += tick.write.throttled;
    w.report.stored_items += tick.write.written;
    w.report.dropped_tuples += tick.process.dropped;
    w.report.total_cost_dollars += tick.cost;

    w.report.throttled_reads += tick.read.throttled;
    w.report
        .read_utilization_trace
        .push((t, tick.read.utilization * 100.0));
    let rcu = w.engine.dynamo().provisioned_rcu();
    w.report.rcu_trace.push((t, rcu));
    // The episode is open: the event returned above otherwise.
    if let Some(episode) = w.episode.as_mut() {
        if (rcu - episode.prev_rcu).abs() > 1e-9 {
            w.report.rcu_actions += 1;
        }
        episode.prev_rcu = rcu;

        // Per layer, in registry order: the tick's measurement, the
        // deployed units, and whether they moved since the last tick.
        let prev_actuators = episode.prev_actuators.iter_mut();
        for (i, (service, prev)) in w.engine.services().zip(prev_actuators).enumerate() {
            if let Some(v) = service.measurement(&tick) {
                if let Some(trace) = w.report.measurement_traces.get_mut(i) {
                    trace.push((t, v));
                }
            }
            let units = service.actuator_units();
            if let Some(trace) = w.report.actuator_traces.get_mut(i) {
                trace.push((t, units));
            }
            if (units - *prev).abs() > 1e-9 {
                if let Some(slot) = w.report.scaling_actions.get_mut(i) {
                    *slot += 1;
                }
            }
            *prev = units;
        }
    }
    s.schedule_at_class(until, CLASS_ENGINE, engine_event);
}

/// CONTROL event: one provisioning round (sensor → controller →
/// actuator per managed loop, the read-capacity loop last) on the
/// monitoring-period grid. Control decisions can create retry/timeout
/// work, so the poll event is re-aimed afterwards.
fn control_event(s: &mut Scheduler<World>, w: &mut World) {
    let t = s.now();
    w.provisioning.step(&mut w.engine, t);
    reschedule_poll(s, w);
    s.schedule_at_class(t + w.control_grid, CLASS_CONTROL, control_event);
}

/// ALARM event: traced episodes evaluate the cross-platform alarms on
/// the one-minute grid (the alarms' own evaluation period) and record
/// state transitions; an `alarm:<name>` span spans the sim-time
/// interval each alarm stays in ALARM.
fn alarm_event(s: &mut Scheduler<World>, w: &mut World) {
    let t = s.now();
    let transitions = w.monitor.observe(w.engine.metrics(), t);
    w.recorder.set_now(t);
    for tr in &transitions {
        let mut fields: Vec<(&'static str, FieldValue)> = vec![
            ("alarm", tr.alarm.as_str().into()),
            ("from", tr.from.to_string().into()),
            ("to", tr.to.to_string().into()),
        ];
        if let Some(value) = tr.value {
            fields.push(("value", value.into()));
        }
        w.recorder.emit(kind::ALARM_TRANSITION, &fields);
        w.recorder.count("alarm.transitions", 1);
        let span_name = format!("alarm:{}", tr.alarm);
        if tr.to == AlarmState::Alarm {
            let id = w.recorder.span_enter(&span_name);
            w.alarm_spans.insert(tr.alarm.clone(), id);
        } else if let Some(id) = w.alarm_spans.remove(&tr.alarm) {
            w.recorder.span_exit(id);
        }
    }
    s.schedule_at_class(t + SimDuration::from_secs(60), CLASS_ALARM, alarm_event);
}

/// POLL event: resilience housekeeping — land delayed resizes, expire
/// in-flight actuations past their timeout, fire due retries — then
/// re-aim at whatever due instant remains.
fn poll_event(s: &mut Scheduler<World>, w: &mut World) {
    w.poll_handle = None;
    w.provisioning.poll(&mut w.engine, s.now());
    reschedule_poll(s, w);
}

/// Re-aim the single poll event at the ceiling-to-whole-second of the
/// provisioning manager's earliest due instant (the retired loop
/// observed dues on the one-second grid). No due work ⇒ no event: quiet
/// resilience bookkeeping costs nothing.
fn reschedule_poll(s: &mut Scheduler<World>, w: &mut World) {
    if let Some(h) = w.poll_handle.take() {
        s.cancel(h);
    }
    if let Some(due) = w.provisioning.next_due() {
        let at = ceil_whole_second(due);
        let at = if at <= s.now() {
            next_whole_second_after(s.now())
        } else {
            at
        };
        w.poll_handle = Some(s.schedule_at_class(at, CLASS_POLL, poll_event));
    }
}

/// REPLAN event: one re-planning round. A failed round (thin window,
/// infeasible problem) leaves the previous bounds in force; either way
/// the replanner advances `next_due` and the event re-aims from it.
fn replan_event(s: &mut Scheduler<World>, w: &mut World) {
    w.replan_handle = None;
    let t = s.now();
    if let Some(replanner) = &mut w.replanner {
        if replanner.is_due(t) {
            if let Ok(outcome) = replanner.replan(w.engine.metrics(), t) {
                for (layer, max_units) in outcome.plan.shares.iter() {
                    w.provisioning.set_bounds(layer, 1.0, max_units.max(1.0));
                }
            }
        }
    }
    reschedule_replan(s, w);
}

/// Re-aim the single replan event at the ceiling-to-whole-second of the
/// replanner's `next_due` (the retired loop checked `is_due` on the
/// one-second grid). `force_next` resets `next_due` into the past, so a
/// forced round lands at the next whole second — the old "next tick
/// boundary" contract.
fn reschedule_replan(s: &mut Scheduler<World>, w: &mut World) {
    if let Some(h) = w.replan_handle.take() {
        s.cancel(h);
    }
    let Some(replanner) = w.replanner.as_ref() else {
        return;
    };
    let at = ceil_whole_second(replanner.next_due());
    let at = if at <= s.now() {
        next_whole_second_after(s.now())
    } else {
        at
    };
    w.replan_handle = Some(s.schedule_at_class(at, CLASS_REPLAN, replan_event));
}

/// The elasticity manager: workload + cloud + provisioning loops on a
/// discrete-event scheduler.
pub struct ElasticityManager {
    sched: Scheduler<World>,
    world: World,
}

impl ElasticityManager {
    /// Start building a manager for `flow`.
    pub fn builder(flow: FlowSpec) -> ElasticityManagerBuilder {
        ElasticityManagerBuilder::new(flow)
    }

    /// The flow under management.
    pub fn flow(&self) -> &FlowSpec {
        &self.world.flow
    }

    /// The simulated cloud (read access for dashboards).
    pub fn engine(&self) -> &CloudEngine {
        &self.world.engine
    }

    /// The controller spec of one layer (`None` for layers the engine
    /// does not register).
    pub fn controller_spec(&self, layer: Layer) -> Option<&ControllerSpec> {
        self.world
            .controller_specs
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, s)| s)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The attached observability recorder (disabled unless one was
    /// passed to [`ElasticityManagerBuilder::recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.world.recorder
    }

    /// The cross-platform monitor whose alarms the traced episode
    /// evaluates on the one-minute grid.
    pub fn monitor(&self) -> &CrossPlatformMonitor {
        &self.world.monitor
    }

    /// Run for `duration`, extending any previous run. Returns a clone
    /// of the cumulative report.
    ///
    /// Equivalent to [`Self::start_episode`] + [`Self::run_until`] to
    /// the episode end + [`Self::finish_episode`] — the decomposed form
    /// `flower serve` drives so it can apply live commands at second
    /// boundaries without perturbing the byte-identical trace.
    pub fn run_for(&mut self, duration: SimDuration) -> EpisodeReport {
        self.start_episode(duration);
        if let Some(end) = self.world.episode.as_ref().map(|e| e.end) {
            self.run_until(end);
        }
        self.finish_episode()
    }

    /// Open an episode ending `duration` from now: enter the
    /// `episode.run` span, snapshot actuator positions, and (re)arm the
    /// engine event chain. Time is then advanced with
    /// [`Self::run_until`].
    pub fn start_episode(&mut self, duration: SimDuration) {
        let now = self.sched.now();
        let end = now + duration;
        self.world.recorder.set_now(now);
        let span = self.world.recorder.span_enter("episode.run");
        let prev_actuators: Vec<f64> = self
            .world
            .engine
            .services()
            .map(LayerService::actuator_units)
            .collect();
        self.world.episode = Some(EpisodeState {
            end,
            span,
            prev_actuators,
            prev_rcu: self.world.engine.dynamo().provisioned_rcu(),
            events_at_start: self.sched.executed(),
        });
        if !self.world.engine_alive {
            self.world.engine_alive = true;
            self.sched
                .schedule_at_class(now, CLASS_ENGINE, engine_event);
        }
    }

    /// Execute every event up to `min(until, episode end)` inclusive,
    /// advancing the clock exactly there. Returns `false` once the
    /// episode's end has been reached (or none is open) — time to call
    /// [`Self::finish_episode`]. `flower serve` drives this one second
    /// at a time so live commands land on second boundaries; batch runs
    /// pass the episode end directly and pay no per-second overhead.
    pub fn run_until(&mut self, until: SimTime) -> bool {
        let Some(end) = self.world.episode.as_ref().map(|e| e.end) else {
            return false;
        };
        if self.sched.now() >= end {
            return false;
        }
        self.sched.run_until(until.min(end), &mut self.world);
        true
    }

    /// Close the open episode: fill in rejected-actuation totals, exit
    /// the `episode.run` span, and return a clone of the cumulative
    /// report. A no-op span-wise when no episode is open.
    pub fn finish_episode(&mut self) -> EpisodeReport {
        let managed = self.world.report.layers.clone();
        for (i, layer) in managed.into_iter().enumerate() {
            if let Some(slot) = self.world.report.rejected_actuations.get_mut(i) {
                *slot = self.world.provisioning.rejected(layer);
            }
        }
        self.world.report.events_executed = self.sched.executed();
        self.world.report.queue_high_water = self.sched.high_water() as u64;
        if let Some(state) = self.world.episode.take() {
            self.world.recorder.set_now(self.sched.now());
            // Event-core counters ride only on fast-forwarded episodes:
            // golden fixtures recorded from tick-compat runs must keep
            // their summary bytes.
            if self.world.fast_forward && self.world.recorder.is_enabled() {
                self.world.recorder.count(
                    "engine.events_executed",
                    self.sched.executed().saturating_sub(state.events_at_start),
                );
                self.world
                    .recorder
                    .gauge("engine.queue_depth", self.sched.pending() as f64);
                self.world
                    .recorder
                    .gauge("engine.queue_high_water", self.sched.high_water() as f64);
            }
            self.world.recorder.span_exit(state.span);
        }
        self.world.report.clone()
    }

    /// Run for `minutes` simulated minutes.
    pub fn run_for_mins(&mut self, minutes: u64) -> EpisodeReport {
        self.run_for(SimDuration::from_mins(minutes))
    }

    /// Force the replanner's next round to run at the next second
    /// boundary (the `force-replan` live command). Returns `false`
    /// when no replanner is attached.
    pub fn force_replan(&mut self) -> bool {
        match self.world.replanner.as_mut() {
            Some(replanner) => {
                replanner.force_next();
            }
            None => return false,
        }
        reschedule_replan(&mut self.sched, &mut self.world);
        true
    }

    /// Dollars spent so far, across every episode this manager has run —
    /// readable mid-episode between [`Self::run_until`] calls, which is
    /// what lets an external budget owner (the fleet broker) sample
    /// per-window spend without waiting for [`Self::finish_episode`].
    pub fn cost_so_far(&self) -> f64 {
        self.world.report.total_cost_dollars
    }

    /// The replanner's current hourly budget (`None` when no replanner
    /// is attached). The counterpart read for [`Self::set_budget`]: an
    /// external budget owner uses it to skip no-op reassignments.
    pub fn budget(&self) -> Option<f64> {
        self.world
            .replanner
            .as_ref()
            .map(super::replan::Replanner::budget)
    }

    /// Change the replanner's budget for subsequent rounds (the
    /// `set-budget` live command). Rejects non-finite or non-positive
    /// budgets and returns `false` when no replanner is attached.
    pub fn set_budget(&mut self, budget: f64) -> bool {
        if !budget.is_finite() || budget <= 0.0 {
            return false;
        }
        match self.world.replanner.as_mut() {
            Some(replanner) => {
                replanner.set_budget(budget);
                true
            }
            None => false,
        }
    }

    /// Inject a chaos fault clause at runtime (the `inject-fault` live
    /// command). Installs a fault injector (seeded with `seed`) and the
    /// default resilience policy on first use; later clauses join the
    /// existing injector's plan, preserving its RNG stream positions.
    pub fn inject_fault(&mut self, seed: u64, clause: flower_chaos::FaultClause) {
        self.world.provisioning.inject_fault(seed, clause);
        reschedule_poll(&mut self.sched, &mut self.world);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::clickstream_flow;

    fn manager(workload: Workload) -> ElasticityManager {
        ElasticityManager::builder(clickstream_flow())
            .workload(workload)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn episode_records_everything() {
        let mut m = manager(Workload::constant(1_000.0));
        let report = m.run_for_mins(5);
        assert_eq!(report.arrival_trace.len(), 300);
        for layer in Layer::ALL {
            assert_eq!(report.measurements(layer).len(), 300);
            assert_eq!(report.actuators(layer).len(), 300);
        }
        assert!(report.total_cost_dollars > 0.0);
        assert!(report.offered_records > 250_000);
        assert!(report.accepted_records <= report.offered_records);
        assert_eq!(m.now(), SimTime::from_mins(5));
        assert!(report.events_executed > 300, "engine + housekeeping events");
    }

    #[test]
    fn adaptive_manager_relieves_overload() {
        // Start under-provisioned for 4,500 rec/s and let Flower scale.
        let mut m = manager(Workload::constant(4_500.0));
        let report = m.run_for_mins(20);
        // Shards must have grown beyond the initial 2 (capacity 2,000/s).
        let final_shards = report.actuators(Layer::INGESTION).last().unwrap().1;
        assert!(final_shards > 2.0, "shards stuck at {final_shards}");
        // And VMs beyond the initial 2.
        let final_vms = report.actuators(Layer::ANALYTICS).last().unwrap().1;
        assert!(final_vms > 2.0, "vms stuck at {final_vms}");
        // Loss rate must fall over time: compare first vs last 5 minutes
        // of ingestion utilization (should approach the 70% setpoint).
        let meas = report.measurements(Layer::INGESTION);
        let early: f64 = meas[..60].iter().map(|&(_, v)| v).sum::<f64>() / 60.0;
        let late: f64 = meas[meas.len() - 300..]
            .iter()
            .map(|&(_, v)| v)
            .sum::<f64>()
            / 300.0;
        assert!(early > 100.0, "starts overloaded (util {early})");
        assert!(late < 100.0, "ends relieved (util {late})");
        assert!(report.total_actions() > 0);
    }

    #[test]
    fn static_layers_never_scale() {
        let mut m = ElasticityManager::builder(clickstream_flow())
            .workload(Workload::constant(3_000.0))
            .all_controllers(ControllerSpec::Static)
            .seed(3)
            .build()
            .unwrap();
        let report = m.run_for_mins(5);
        assert_eq!(report.total_actions(), 0);
        assert_eq!(report.actuators(Layer::INGESTION).last().unwrap().1, 2.0);
        assert_eq!(report.actuators(Layer::STORAGE).last().unwrap().1, 100.0);
        // Under-provisioned static deployment keeps throttling.
        assert!(report.ingest_loss_rate() > 0.2);
    }

    #[test]
    fn scale_down_happens_when_load_drops() {
        let mut m = ElasticityManager::builder(clickstream_flow())
            .workload(Workload::step(4_000.0, 300.0, SimTime::from_mins(12)))
            .seed(5)
            .build()
            .unwrap();
        let report = m.run_for_mins(40);
        let shards_peak = report
            .actuators(Layer::INGESTION)
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        let shards_final = report.actuators(Layer::INGESTION).last().unwrap().1;
        assert!(shards_peak >= 3.0, "peak shards {shards_peak}");
        assert!(
            shards_final < shards_peak,
            "should scale back in: final {shards_final} vs peak {shards_peak}"
        );
    }

    #[test]
    fn bounds_are_respected() {
        let mut m = ElasticityManager::builder(clickstream_flow())
            .workload(Workload::constant(8_000.0))
            .bounds(Layer::INGESTION, 1.0, 4.0)
            .seed(7)
            .build()
            .unwrap();
        let report = m.run_for_mins(15);
        let max_shards = report
            .actuators(Layer::INGESTION)
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        assert!(max_shards <= 4.0, "bound violated: {max_shards}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut m = manager(Workload::diurnal(1_500.0, 1_000.0));
            m.run_for_mins(10)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut m = ElasticityManager::builder(clickstream_flow())
                .workload(Workload::constant(1_000.0))
                .seed(seed)
                .build()
                .unwrap();
            m.run_for_mins(2)
        };
        assert_ne!(run(1).offered_records, run(2).offered_records);
    }

    #[test]
    fn incremental_runs_accumulate() {
        let mut m = manager(Workload::constant(500.0));
        let first = m.run_for_mins(2);
        let second = m.run_for_mins(2);
        assert_eq!(first.arrival_trace.len(), 120);
        assert_eq!(second.arrival_trace.len(), 240);
        assert!(second.total_cost_dollars > first.total_cost_dollars);
        assert_eq!(m.now(), SimTime::from_mins(4));
    }

    #[test]
    fn run_until_advances_in_second_steps_like_serve() {
        // The serve daemon's drive pattern: one second per call, live
        // commands between calls. Must produce the same report as one
        // batch run_until.
        let mut stepped = manager(Workload::constant(800.0));
        stepped.start_episode(SimDuration::from_mins(2));
        let mut boundaries = 0;
        while stepped.run_until(stepped.now() + SimDuration::from_secs(1)) {
            boundaries += 1;
        }
        let stepped_report = stepped.finish_episode();
        assert_eq!(boundaries, 120, "one advancing call per second");

        let mut batch = manager(Workload::constant(800.0));
        let batch_report = batch.run_for_mins(2);
        assert_eq!(stepped_report, batch_report);
    }

    #[test]
    fn response_metrics_are_computable() {
        let mut m = manager(Workload::constant(2_000.0));
        let report = m.run_for_mins(10);
        let rm = report.response_metrics(Layer::ANALYTICS, 60.0, 15.0);
        assert!(rm.integral_abs_error >= 0.0);
        assert!(rm.violation_rate >= 0.0 && rm.violation_rate <= 1.0);
    }

    #[test]
    fn zero_fault_plan_changes_nothing() {
        let base = manager(Workload::constant(2_000.0)).run_for_mins(5);
        let mut faulted = ElasticityManager::builder(clickstream_flow())
            .workload(Workload::constant(2_000.0))
            .seed(11)
            .faults(FaultPlan::none())
            .build()
            .unwrap();
        assert_eq!(base, faulted.run_for_mins(5));
    }

    #[test]
    fn preset_faults_emit_chaos_and_resilience_events() {
        let recorder = Recorder::with_capacity(16_384);
        let mut m = ElasticityManager::builder(clickstream_flow())
            .workload(Workload::constant(4_500.0))
            .seed(11)
            .recorder(recorder.clone())
            .faults(FaultPlan::preset("flaky-actuator").unwrap())
            .build()
            .unwrap();
        m.run_for_mins(25);
        assert!(recorder.counter("chaos.faults") > 0, "faults injected");
        assert!(recorder.counter("resilience.retries") > 0, "retries fired");
    }

    #[test]
    fn fast_forward_is_inert_while_the_workload_stays_active() {
        // With a never-quiet workload there is nothing to skip, so the
        // fast-forward engine must reproduce tick-compat byte-for-byte
        // — including the executed-event count.
        let run = |ff| {
            let mut m = ElasticityManager::builder(clickstream_flow())
                .workload(Workload::constant(1_200.0))
                .seed(11)
                .fast_forward(ff)
                .build()
                .unwrap();
            m.run_for_mins(5)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fast_forward_skips_quiet_windows() {
        let run = |ff| {
            let mut m = ElasticityManager::builder(clickstream_flow())
                .workload(Workload::step(800.0, 0.0, SimTime::from_mins(2)))
                .seed(11)
                .fast_forward(ff)
                .build()
                .unwrap();
            m.run_for_mins(30)
        };
        let compat = run(false);
        let fast = run(true);
        assert_eq!(compat.arrival_trace.len(), 1_800, "one sample per second");
        assert!(
            fast.events_executed * 5 < compat.events_executed,
            "quiet-heavy episode must shed most events: {} vs {}",
            fast.events_executed,
            compat.events_executed
        );
        // The active prefix (2 min + one monitoring period of grace) is
        // simulated identically.
        assert_eq!(fast.offered_records, compat.offered_records);
        assert_eq!(
            &fast.arrival_trace[..150],
            &compat.arrival_trace[..150],
            "active prefix ticks second-by-second"
        );
        // And fast-forward is deterministic in its own right.
        assert_eq!(fast, run(true));
    }

    #[test]
    fn fast_forward_covers_long_horizons_cheaply() {
        // A month of quiet SimTime: the event count stays proportional
        // to housekeeping rounds, not seconds (2.6 M ticks retired).
        let mut m = ElasticityManager::builder(clickstream_flow())
            .workload(Workload::step(600.0, 0.0, SimTime::from_mins(1)))
            .seed(7)
            .fast_forward(true)
            .build()
            .unwrap();
        let report = m.run_for(SimDuration::from_hours(24 * 30));
        assert_eq!(m.now(), SimTime::from_hours(24 * 30));
        let seconds = 30 * 24 * 3600_u64;
        assert!(
            report.events_executed < seconds / 5,
            "{} events for {} simulated seconds",
            report.events_executed,
            seconds
        );
        assert!(report.total_cost_dollars > 0.0);
    }

    #[test]
    fn missing_workload_is_an_error() {
        let Err(err) = ElasticityManager::builder(clickstream_flow()).build() else {
            panic!("build without a workload must fail");
        };
        assert!(matches!(err, FlowerError::InvalidConfig(_)));
        assert!(err.to_string().contains("workload is required"), "{err}");
    }
}
