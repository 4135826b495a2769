//! The fleet runner: registry → broker → fan-out → ordered merge.
//!
//! A [`Fleet`] validates its [`FleetSpec`] into an id-sorted registry,
//! computes a **broker timeline** (a pure function of the spec: one
//! decision point per join/leave/settle instant, drained batch-wise off
//! a [`flower_sim::Scheduler`] via `run_next_instant`), then fans the
//! flows out over [`flower_par::Executor`] — one worker closure per
//! flow, because an `ElasticityManager` is `!Send` and must live and
//! die on a single thread. Workers return plain `Send` results (spend
//! samples and the flow's trace already rendered for the merge, a
//! [`flower_obs::RenderedStream`]), which the control thread splices —
//! in registry order — into the merged fleet trace.
//!
//! ## Overspend rebrokering
//!
//! With [`FleetSpec::overspend`] enabled the runner makes two passes.
//! The *probe* pass runs every flow under membership-only allocations
//! and samples `cost_so_far()` at each decision boundary. The control
//! thread then compares each settle window's spend against its
//! allocation; overspent windows earn the tenant a penalty factor
//! (`allowed/spent`, clamped to `[0.25, 1]`) that scales its claim from
//! that window's end onward. The *overspend* pass recomputes the
//! timeline under the penalties and re-runs only the tenants whose
//! [`EpisodePlan`] changed; every other tenant keeps its probe run.
//! That is exact: a fresh manager on the deterministic core emits the
//! same bytes for equal inputs, and a tenant without a replanner has no
//! budget input at all. Both passes are deterministic, so the merged
//! trace stays byte-identical at any `FLOWER_THREADS`.
//!
//! ## Budget application
//!
//! Allocations are quantized to integer micro-dollars before any
//! comparison, so "did the budget change?" is never a float equality.
//! A tenant's replanner budget is reassigned (`set_budget`) only when
//! its quantized allocation differs from what is already applied — a
//! 1-flow fair-share fleet whose allocation equals the tenant's
//! configured budget therefore runs a byte-identical episode to a
//! standalone `run_for` (the golden-trace pin).

use std::collections::BTreeSet;

use flower_chaos::FaultPlan;
use flower_core::elasticity::{ElasticityManager, Workload};
use flower_core::flow::clickstream_flow;
use flower_core::replan::{PlanSelection, ReplanConfig, Replanner};
use flower_core::share::ShareProblem;
use flower_nsga2::Nsga2Config;
use flower_obs::{merge_rendered, Recorder, RenderedStream};
use flower_par::Executor;
use flower_sim::{Scheduler, SimDuration, SimTime};

use crate::broker::{allocate, Claim};
use crate::spec::{FleetSpec, FlowId, TenantSpec, WorkloadSpec};
use crate::FleetError;

/// Quantize an hourly budget to integer micro-dollars (the unit all
/// "did it change?" comparisons use; never compare raw floats).
fn micro(v: f64) -> u64 {
    if v.is_finite() && v > 0.0 {
        (v * 1e6).round() as u64
    } else {
        0
    }
}

/// Micro-dollars back to dollars for `set_budget` and trace fields.
fn from_micro(m: u64) -> f64 {
    m as f64 / 1e6
}

/// Membership state mutated by the broker scheduler's events.
#[derive(Debug, Default)]
struct Membership {
    active: Vec<bool>,
    joins: Vec<usize>,
    leaves: Vec<usize>,
    settle: bool,
}

/// One instant of the broker timeline.
#[derive(Debug, Clone)]
struct DecisionPoint {
    at: SimTime,
    joins: Vec<usize>,
    leaves: Vec<usize>,
    /// Sorted unique reasons: join / leave / settle / overspend.
    reasons: Vec<&'static str>,
    /// `(flow index, micro-dollar allocation)` for every active flow,
    /// in registry order.
    allocs: Vec<(usize, u64)>,
}

impl DecisionPoint {
    /// Flow `i`'s allocation at this point, when it is active. `allocs`
    /// is in registry order, so this is a binary search.
    fn alloc_of(&self, i: usize) -> Option<u64> {
        self.allocs
            .binary_search_by_key(&i, |&(j, _)| j)
            .ok()
            .map(|k| self.allocs[k].1)
    }
}

/// Everything that determines one flow's episode: plain `Send` data
/// derived from the spec and the broker timeline. Budgets are
/// micro-dollars, so two plans compare equal exactly when the episodes
/// they drive are identical.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EpisodePlan {
    /// Registry index of the tenant.
    tenant: usize,
    duration: SimDuration,
    /// Budget applied before the episode starts (when the join-time
    /// allocation differs from the tenant's configured budget).
    initial_budget: Option<u64>,
    /// `(local instant, budget to apply afterwards)` — one entry per
    /// decision boundary inside the episode, in time order.
    steps: Vec<(SimTime, Option<u64>)>,
}

/// What a worker ships back: `Send` results only.
#[derive(Debug)]
struct FlowRun {
    spend: f64,
    offered: u64,
    accepted: u64,
    emitted: u64,
    /// `(local ms, cumulative dollars)` at each boundary and at the end.
    samples: Vec<(u64, f64)>,
    /// The flow's events, rendered on the fleet clock with its `flow`
    /// stamp.
    stream: RenderedStream,
}

/// Outcome of one tenant's episode in the final pass.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Tenant id.
    pub id: FlowId,
    /// Dollars spent over the episode.
    pub spend: f64,
    /// Records offered by the workload.
    pub offered_records: u64,
    /// Records accepted by the ingestion layer.
    pub accepted_records: u64,
    /// Trace events emitted by the flow's recorder.
    pub events_emitted: u64,
    /// `(fleet instant, hourly allocation)` applied in the final pass.
    pub allocations: Vec<(SimTime, f64)>,
}

/// The fleet run's result.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tenant outcomes, in registry (id) order.
    pub flows: Vec<FlowOutcome>,
    /// The merged `flower-trace/v1` document: fleet broker events plus
    /// every flow's events stamped with `flow`, ordered by
    /// `(fleet time, registry index, seq)`.
    pub merged_trace: String,
    /// Broker decision points in the final pass.
    pub rebrokers: u64,
    /// Overspent settle windows detected by the probe pass.
    pub overspends: u64,
    /// Tenants the overspend pass re-ran because their episode inputs
    /// changed (the rest kept their probe runs).
    pub reruns: u64,
    /// Total dollars spent across the fleet.
    pub total_spend: f64,
}

/// A validated, id-sorted fleet ready to run.
#[derive(Debug, Clone)]
pub struct Fleet {
    spec: FleetSpec,
}

impl Fleet {
    /// Validate a spec into a runnable fleet: sorts tenants by id,
    /// rejects duplicates, degenerate cadences, and placements outside
    /// the horizon.
    pub fn new(mut spec: FleetSpec) -> Result<Fleet, FleetError> {
        if spec.settle.is_zero() {
            return Err(FleetError("settle window must be non-zero".to_owned()));
        }
        if spec.horizon.is_zero() {
            return Err(FleetError("fleet horizon must be non-zero".to_owned()));
        }
        if !spec.budget.is_finite() || spec.budget < 0.0 {
            return Err(FleetError(format!(
                "global budget must be finite and non-negative, got {}",
                spec.budget
            )));
        }
        spec.flows.sort_by(|a, b| a.id.cmp(&b.id));
        let horizon = SimTime::ZERO + spec.horizon;
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for flow in &spec.flows {
            if !seen.insert(flow.id.as_str()) {
                return Err(FleetError(format!("duplicate flow id `{}`", flow.id)));
            }
            if flow.join >= horizon {
                return Err(FleetError(format!(
                    "flow `{}` joins at or after the fleet horizon",
                    flow.id
                )));
            }
            if let Some(leave) = flow.leave {
                if leave <= flow.join {
                    return Err(FleetError(format!(
                        "flow `{}` leaves at or before it joins",
                        flow.id
                    )));
                }
            }
        }
        Ok(Fleet { spec })
    }

    /// The validated spec (tenants in registry order).
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Fleet-time end of one tenant's episode.
    fn end_of(&self, flow: &TenantSpec) -> SimTime {
        let horizon = SimTime::ZERO + self.spec.horizon;
        flow.leave.map_or(horizon, |l| l.min(horizon))
    }

    /// Compute the broker timeline under per-flow penalty schedules
    /// (`penalties[i]` = sorted `(effective-from, factor)` entries).
    fn timeline(&self, penalties: &[Vec<(SimTime, f64)>]) -> Vec<DecisionPoint> {
        let n = self.spec.flows.len();
        let horizon = SimTime::ZERO + self.spec.horizon;
        let mut sched: Scheduler<Membership> = Scheduler::new();
        let mut world = Membership {
            active: vec![false; n],
            ..Membership::default()
        };
        // Leaves (class 5) land before joins (class 10) before settles
        // (class 20) at a shared instant; the batch drain makes the
        // order immaterial for allocation, but keeping it fixed keeps
        // `joins`/`leaves` vectors reproducible.
        for (i, flow) in self.spec.flows.iter().enumerate() {
            sched.schedule_at_class(flow.join, 10, move |_, w: &mut Membership| {
                w.active[i] = true;
                w.joins.push(i);
            });
            let end = self.end_of(flow);
            if end < horizon {
                sched.schedule_at_class(end, 5, move |_, w: &mut Membership| {
                    w.active[i] = false;
                    w.leaves.push(i);
                });
            }
        }
        let settle_ms = self.spec.settle.as_millis();
        let horizon_ms = self.spec.horizon.as_millis();
        for k in 1..horizon_ms.div_ceil(settle_ms) {
            sched.schedule_at_class(SimTime::from_millis(k * settle_ms), 20, |_, w| {
                w.settle = true;
            });
        }

        let mut points = Vec::new();
        while let Some(at) = sched.run_next_instant(&mut world) {
            let mut joins = std::mem::take(&mut world.joins);
            let mut leaves = std::mem::take(&mut world.leaves);
            joins.sort_unstable();
            leaves.sort_unstable();
            let mut reasons: Vec<&'static str> = Vec::new();
            if !joins.is_empty() {
                reasons.push("join");
            }
            if !leaves.is_empty() {
                reasons.push("leave");
            }
            if penalties.iter().any(|p| p.iter().any(|&(t, _)| t == at)) {
                reasons.push("overspend");
            }
            if world.settle {
                reasons.push("settle");
                world.settle = false;
            }
            let active: Vec<usize> = (0..n).filter(|&i| world.active[i]).collect();
            let claims: Vec<Claim<'_>> = active
                .iter()
                .map(|&i| {
                    let flow = &self.spec.flows[i];
                    let m = penalty_at(&penalties[i], at);
                    Claim {
                        id: &flow.id,
                        weight: flow.weight * m,
                        priority: flow.priority,
                        bid: flow.bid * m,
                        ask: if flow.ask.is_finite() {
                            flow.ask * m
                        } else {
                            flow.ask
                        },
                    }
                })
                .collect();
            let shares = allocate(self.spec.policy, self.spec.budget, &claims);
            let allocs = active
                .iter()
                .zip(&shares)
                .map(|(&i, &s)| (i, micro(s)))
                .collect();
            points.push(DecisionPoint {
                at,
                joins,
                leaves,
                reasons,
                allocs,
            });
        }
        points
    }

    /// Derive each flow's episode plan from a broker timeline, and the
    /// micro-dollar allocation in force during each of its spend windows
    /// (`steps.len() + 1` windows: join→step₀, …, stepₙ→end), which only
    /// the probe pass reads.
    fn plans(&self, timeline: &[DecisionPoint]) -> (Vec<EpisodePlan>, Vec<Vec<u64>>) {
        self.spec
            .flows
            .iter()
            .enumerate()
            .map(|(i, flow)| {
                let end = self.end_of(flow);
                let duration = end.since(flow.join);
                let configured = micro(flow.episode.replan.as_ref().map_or(0.0, |r| r.budget));
                let has_replan = flow.episode.replan.is_some();
                let mut applied = configured;
                let mut initial_budget = None;
                let mut steps: Vec<(SimTime, Option<u64>)> = Vec::new();
                let mut window_rates: Vec<u64> = Vec::new();
                let mut current_rate = 0u64;
                for point in timeline {
                    let Some(alloc) = point.alloc_of(i) else {
                        continue;
                    };
                    let reassign = has_replan && alloc > 0 && alloc != applied;
                    if point.at <= flow.join {
                        current_rate = alloc;
                        if reassign {
                            initial_budget = Some(alloc);
                            applied = alloc;
                        }
                    } else if point.at < end {
                        let local = SimTime::ZERO + point.at.since(flow.join);
                        window_rates.push(current_rate);
                        current_rate = alloc;
                        let budget = reassign.then(|| {
                            applied = alloc;
                            alloc
                        });
                        steps.push((local, budget));
                    }
                }
                window_rates.push(current_rate);
                let plan = EpisodePlan {
                    tenant: i,
                    duration,
                    initial_budget,
                    steps,
                };
                (plan, window_rates)
            })
            .unzip()
    }

    /// Run the fleet on `exec` workers. Same spec + same seeds ⇒
    /// byte-identical [`FleetReport::merged_trace`] for any worker
    /// count.
    ///
    /// # Errors
    ///
    /// Fails when a tenant's episode cannot be built (bad fault preset,
    /// invalid workload) — the first failing tenant in registry order
    /// is reported.
    pub fn run(&self, exec: Executor) -> Result<FleetReport, FleetError> {
        let n = self.spec.flows.len();
        let mut penalties: Vec<Vec<(SimTime, f64)>> = vec![Vec::new(); n];
        let mut overspends = 0u64;
        let mut reruns = 0u64;

        let mut timeline = self.timeline(&penalties);
        let (probe_plans, window_rates) = self.plans(&timeline);
        let mut runs = self.fan_out(exec, &probe_plans)?;

        if self.spec.overspend {
            for ((plan, rates), run) in probe_plans.iter().zip(&window_rates).zip(&runs) {
                let flow = &self.spec.flows[plan.tenant];
                for (w, rate) in rates.iter().enumerate() {
                    let Some((&(t0, c0), &(t1, c1))) =
                        run.samples.get(w).zip(run.samples.get(w + 1))
                    else {
                        continue;
                    };
                    let allowed = from_micro(*rate) * ((t1 - t0) as f64 / 3_600_000.0);
                    let spent = c1 - c0;
                    if allowed > 0.0 && spent > allowed {
                        overspends += 1;
                        let factor = (allowed / spent).clamp(0.25, 1.0);
                        let effective = flow.join + SimDuration::from_millis(t1);
                        penalties[plan.tenant].push((effective, factor));
                    }
                }
            }
            if overspends > 0 {
                timeline = self.timeline(&penalties);
                let (final_plans, _) = self.plans(&timeline);
                let changed: Vec<EpisodePlan> = final_plans
                    .into_iter()
                    .zip(&probe_plans)
                    .filter(|(final_plan, probe_plan)| final_plan != *probe_plan)
                    .map(|(final_plan, _)| final_plan)
                    .collect();
                let rerun = self.fan_out(exec, &changed)?;
                for (plan, run) in changed.iter().zip(rerun) {
                    runs[plan.tenant] = run;
                }
                reruns = changed.len() as u64;
            }
        }
        Ok(self.assemble(&timeline, runs, overspends, reruns))
    }

    /// Fan the plans out over the executor, collecting in plan order;
    /// the first failing flow aborts the run.
    fn fan_out(&self, exec: Executor, plans: &[EpisodePlan]) -> Result<Vec<FlowRun>, FleetError> {
        let flows = &self.spec.flows;
        let results: Vec<Result<FlowRun, String>> =
            exec.par_map(plans, |_, plan| run_flow(&flows[plan.tenant], plan));
        let mut runs = Vec::with_capacity(results.len());
        for (plan, result) in plans.iter().zip(results) {
            match result {
                Ok(run) => runs.push(run),
                Err(msg) => {
                    return Err(FleetError(format!(
                        "flow `{}`: {msg}",
                        flows[plan.tenant].id
                    )));
                }
            }
        }
        Ok(runs)
    }

    /// Emit the fleet-level broker events and fold everything into the
    /// final report; `runs` is in registry order.
    fn assemble(
        &self,
        timeline: &[DecisionPoint],
        runs: Vec<FlowRun>,
        overspends: u64,
        reruns: u64,
    ) -> FleetReport {
        let recorder = Recorder::with_capacity(self.spec.capacity);
        for point in timeline {
            recorder.set_now(point.at);
            for &i in &point.joins {
                recorder.emit(
                    "fleet.join",
                    &[("flow", self.spec.flows[i].id.as_str().into())],
                );
                recorder.count("fleet.joins", 1);
            }
            for &i in &point.leaves {
                recorder.emit(
                    "fleet.leave",
                    &[("flow", self.spec.flows[i].id.as_str().into())],
                );
                recorder.count("fleet.leaves", 1);
            }
            recorder.emit(
                "fleet.rebroker",
                &[
                    ("active", point.allocs.len().into()),
                    ("budget", self.spec.budget.into()),
                    ("policy", self.spec.policy.name().into()),
                    ("reason", point.reasons.join("+").into()),
                ],
            );
            recorder.count("fleet.rebrokers", 1);
            recorder.gauge("fleet.active", point.allocs.len() as f64);
            for &(i, alloc) in &point.allocs {
                recorder.emit(
                    "fleet.alloc",
                    &[
                        ("budget", from_micro(alloc).into()),
                        ("flow", self.spec.flows[i].id.as_str().into()),
                    ],
                );
            }
        }
        recorder.count("fleet.overspends", overspends);
        recorder.gauge("fleet.flows", self.spec.flows.len() as f64);

        let mut streams = Vec::with_capacity(runs.len() + 1);
        streams.push(recorder.render_stream(None, SimDuration::ZERO));
        let mut flows = Vec::with_capacity(runs.len());
        let mut total_spend = 0.0;
        for ((i, flow), run) in self.spec.flows.iter().enumerate().zip(runs) {
            total_spend += run.spend;
            let allocations = timeline
                .iter()
                .filter_map(|p| p.alloc_of(i).map(|a| (p.at, from_micro(a))))
                .collect();
            streams.push(run.stream);
            flows.push(FlowOutcome {
                id: flow.id.clone(),
                spend: run.spend,
                offered_records: run.offered,
                accepted_records: run.accepted,
                events_emitted: run.emitted,
                allocations,
            });
        }
        FleetReport {
            flows,
            merged_trace: merge_rendered(&streams),
            rebrokers: timeline.len() as u64,
            overspends,
            reruns,
            total_spend,
        }
    }
}

/// Effective penalty multiplier for a flow at `at`: the product of all
/// factors whose effective-from instant has passed.
fn penalty_at(entries: &[(SimTime, f64)], at: SimTime) -> f64 {
    entries
        .iter()
        .filter(|&&(t, _)| t <= at)
        .map(|&(_, f)| f)
        .product()
}

/// Run one flow's whole episode on the calling thread (the `!Send`
/// boundary: manager, recorder, and scheduler never leave it).
fn run_flow(tenant: &TenantSpec, plan: &EpisodePlan) -> Result<FlowRun, String> {
    let mut manager = build_manager(tenant)?;
    if let Some(budget) = plan.initial_budget {
        let _ = manager.set_budget(from_micro(budget));
    }
    manager.start_episode(plan.duration);
    let mut samples = Vec::with_capacity(plan.steps.len() + 2);
    samples.push((0u64, manager.cost_so_far()));
    for &(local, budget) in &plan.steps {
        manager.run_until(local);
        samples.push((local.as_millis(), manager.cost_so_far()));
        if let Some(budget) = budget {
            let _ = manager.set_budget(from_micro(budget));
        }
    }
    manager.run_until(SimTime::ZERO + plan.duration);
    let report = manager.finish_episode();
    samples.push((plan.duration.as_millis(), manager.cost_so_far()));
    Ok(FlowRun {
        spend: report.total_cost_dollars,
        offered: report.offered_records,
        accepted: report.accepted_records,
        emitted: manager.recorder().emitted(),
        samples,
        stream: manager
            .recorder()
            .render_stream(Some(tenant.id.as_str()), tenant.join.since(SimTime::ZERO)),
    })
}

/// Materialize one tenant's `ElasticityManager` from its plain-data
/// episode config. The replanner settings mirror the golden 3-layer
/// recipe exactly (Balanced selection, 0.5 dependency band, cold
/// start) so a fleet tenant is bit-compatible with a standalone traced
/// episode.
fn build_manager(tenant: &TenantSpec) -> Result<ElasticityManager, String> {
    let episode = &tenant.episode;
    let workload = match &episode.workload {
        WorkloadSpec::Constant { rate } => Workload::constant(*rate),
        WorkloadSpec::Diurnal { base, amplitude } => Workload::diurnal(*base, *amplitude),
        WorkloadSpec::Step { before, after, at } => Workload::step(*before, *after, *at),
        WorkloadSpec::FlashCrowd { base, spike, at } => Workload::flash_crowd(*base, *spike, *at),
    };
    let mut builder = ElasticityManager::builder(clickstream_flow())
        .workload(workload)
        .recorder(Recorder::with_capacity(episode.capacity))
        .seed(episode.seed)
        .fast_forward(episode.fast_forward);
    if let Some(replan) = &episode.replan {
        builder = builder.replanner(Replanner::for_clickstream(
            ReplanConfig {
                budget: replan.budget,
                cadence: replan.cadence,
                analysis_window: replan.analysis_window,
                selection: PlanSelection::Balanced,
                dependency_band: 0.5,
                nsga2: Nsga2Config {
                    population: replan.population,
                    generations: replan.generations,
                    seed: replan.nsga2_seed,
                    ..Default::default()
                },
                workers: replan.workers,
                warm_start: false,
                warm_generations: 12,
            },
            "clicks",
            "counter",
            "aggregates",
            ShareProblem::worked_example(replan.budget),
        ));
    }
    if let Some(name) = &episode.fault_preset {
        let plan =
            FaultPlan::preset(name).ok_or_else(|| format!("unknown fault preset `{name}`"))?;
        builder = builder.faults(plan);
    }
    builder.build().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EpisodeConfig;

    fn quiet(id: &str, seed: u64) -> TenantSpec {
        TenantSpec::new(
            FlowId::new(id).unwrap(),
            EpisodeConfig {
                seed,
                fast_forward: true,
                capacity: 256,
                ..EpisodeConfig::default()
            },
        )
    }

    fn small_spec() -> FleetSpec {
        FleetSpec {
            budget: 4.0,
            settle: SimDuration::from_mins(5),
            horizon: SimDuration::from_mins(10),
            flows: vec![quiet("a", 1), quiet("b", 2)],
            ..FleetSpec::default()
        }
    }

    #[test]
    fn validation_rejects_bad_fleets() {
        let mut dup = small_spec();
        dup.flows.push(quiet("a", 3));
        assert!(Fleet::new(dup).unwrap_err().0.contains("duplicate"));

        let mut late = small_spec();
        late.flows[0].join = SimTime::from_mins(10);
        assert!(Fleet::new(late).unwrap_err().0.contains("horizon"));

        let mut inverted = small_spec();
        inverted.flows[0].join = SimTime::from_mins(5);
        inverted.flows[0].leave = Some(SimTime::from_mins(5));
        assert!(Fleet::new(inverted).unwrap_err().0.contains("leaves"));

        let mut zero_settle = small_spec();
        zero_settle.settle = SimDuration::ZERO;
        assert!(Fleet::new(zero_settle).is_err());

        let mut bad_budget = small_spec();
        bad_budget.budget = f64::NAN;
        assert!(Fleet::new(bad_budget).is_err());
    }

    #[test]
    fn registry_sorts_by_flow_id() {
        let mut spec = small_spec();
        spec.flows.reverse();
        let fleet = Fleet::new(spec).unwrap();
        let ids: Vec<&str> = fleet.spec().flows.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn timeline_covers_joins_leaves_and_settles() {
        let mut spec = small_spec();
        spec.flows[1].join = SimTime::from_mins(2);
        spec.flows[1].leave = Some(SimTime::from_mins(7));
        let fleet = Fleet::new(spec).unwrap();
        let timeline = fleet.timeline(&[Vec::new(), Vec::new()]);
        let ats: Vec<u64> = timeline.iter().map(|p| p.at.as_secs() / 60).collect();
        assert_eq!(ats, vec![0, 2, 5, 7], "join@0, join@2, settle@5, leave@7");
        assert_eq!(timeline[0].reasons, vec!["join"]);
        assert_eq!(timeline[1].reasons, vec!["join"]);
        assert_eq!(timeline[2].reasons, vec!["settle"]);
        assert_eq!(timeline[3].reasons, vec!["leave"]);
        // After the leave, only flow 0 holds an allocation (the whole
        // budget under fair-share).
        assert_eq!(timeline[3].allocs, vec![(0, micro(4.0))]);
        // While both are active the budget splits evenly.
        assert_eq!(timeline[2].allocs, vec![(0, micro(2.0)), (1, micro(2.0))]);
    }

    #[test]
    fn departure_on_a_settle_instant_is_one_batch() {
        // A flow leaving exactly at a settle boundary must produce ONE
        // decision point whose allocation already excludes it — the
        // "departure mid-rebroker" edge.
        let mut spec = small_spec();
        spec.flows[1].leave = Some(SimTime::from_mins(5));
        let fleet = Fleet::new(spec).unwrap();
        let timeline = fleet.timeline(&[Vec::new(), Vec::new()]);
        let at_settle: Vec<&DecisionPoint> = timeline
            .iter()
            .filter(|p| p.at == SimTime::from_mins(5))
            .collect();
        assert_eq!(at_settle.len(), 1, "leave + settle fold into one point");
        assert_eq!(at_settle[0].reasons, vec!["leave", "settle"]);
        assert_eq!(at_settle[0].leaves, vec![1]);
        assert_eq!(at_settle[0].allocs, vec![(0, micro(4.0))]);
    }

    #[test]
    fn zero_budget_fleet_runs_to_completion() {
        let mut spec = small_spec();
        spec.budget = 0.0;
        let fleet = Fleet::new(spec).unwrap();
        let report = fleet.run(Executor::serial()).unwrap();
        assert_eq!(report.flows.len(), 2);
        assert_eq!(report.overspends, 0, "zero allocations cannot overspend");
        for flow in &report.flows {
            assert!(flow.allocations.iter().all(|&(_, a)| a == 0.0));
        }
    }

    #[test]
    fn merged_trace_is_identical_serial_vs_parallel() {
        let fleet = Fleet::new(small_spec()).unwrap();
        let serial = fleet.run(Executor::serial()).unwrap();
        let parallel = fleet.run(Executor::new(4)).unwrap();
        assert_eq!(serial.merged_trace, parallel.merged_trace);
        assert!(serial.rebrokers >= 2, "join point + settle point");
        let trace = flower_obs::parse_trace(&serial.merged_trace).unwrap();
        assert_eq!(trace.flows(), vec!["a", "b"]);
    }

    #[test]
    fn unknown_fault_preset_fails_with_the_flow_id() {
        let mut spec = small_spec();
        spec.flows[0].episode.fault_preset = Some("gremlins".to_owned());
        let fleet = Fleet::new(spec).unwrap();
        let err = fleet.run(Executor::serial()).unwrap_err();
        assert!(err.0.contains("`a`"), "{err}");
        assert!(err.0.contains("gremlins"), "{err}");
    }
}
