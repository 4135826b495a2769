//! The declarative fleet: tenant registry + TOML-subset parser.
//!
//! A fleet is a set of independent tenant flows, each a full
//! clickstream episode with its own seed, workload, optional replanner,
//! and optional chaos preset, placed on a shared fleet timeline by
//! `join`/`leave` instants. The registry is keyed by stable
//! [`FlowId`]s and always iterated in id order — that order is the
//! merge order of the fleet trace, so it is part of the determinism
//! contract.
//!
//! The text format is the TOML subset `FaultPlan::parse` also reads,
//! through the same line reader ([`flower_sim::conf`]): `key = value`
//! lines plus `[[flow]]` section headers, `#` comments outside quotes,
//! unknown keys rejected. A `clones = N` key expands one section into
//! `N` tenants with derived ids (`web-000`, `web-001`, …) and staggered
//! seeds, so a 1,000-flow fleet is a four-line file.

use flower_sim::conf::{self, parse_f64, parse_u64, Line};
use flower_sim::{SimDuration, SimTime};

use crate::broker::BrokerPolicy;
use crate::FleetError;

/// A stable, non-empty tenant identifier. Ordering is lexicographic;
/// the broker uses it to break priority ties and the runner uses it as
/// the registry (and merge) order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(String);

impl FlowId {
    /// Validate and wrap an id: non-empty after trimming, no
    /// whitespace or control characters (ids become trace field values
    /// and CLI arguments).
    pub fn new(id: &str) -> Result<FlowId, FleetError> {
        let id = id.trim();
        if id.is_empty() {
            return Err(FleetError("flow id must be non-empty".to_owned()));
        }
        if id.chars().any(|c| c.is_whitespace() || c.is_control()) {
            return Err(FleetError(format!(
                "flow id `{id}` must not contain whitespace or control characters"
            )));
        }
        Ok(FlowId(id.to_owned()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The workload shape of one tenant's episode (a plain-data mirror of
/// `flower_core::elasticity::Workload`'s constructors, so specs stay
/// `Send` and serializable).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Constant arrival rate (records/s). Rate 0 plus fast-forward is
    /// the canonical "quiet tenant": the episode collapses to a handful
    /// of scheduler events.
    Constant {
        /// Arrival rate in records/s.
        rate: f64,
    },
    /// Sinusoidal day/night pattern.
    Diurnal {
        /// Mean rate.
        base: f64,
        /// Peak-to-mean amplitude.
        amplitude: f64,
    },
    /// Step change at an instant.
    Step {
        /// Rate before the step.
        before: f64,
        /// Rate after the step.
        after: f64,
        /// Step instant on the episode's local clock.
        at: SimTime,
    },
    /// Flash crowd: base rate, then a spike at an instant.
    FlashCrowd {
        /// Base rate.
        base: f64,
        /// Spike rate.
        spike: f64,
        /// Spike onset on the episode's local clock.
        at: SimTime,
    },
}

/// Replanner settings for one tenant (attached only when present).
/// Fields mirror the `ReplanConfig` used by the golden 3-layer trace;
/// unspecified knobs keep the golden values so a 1-flow fleet can
/// reproduce `golden_trace_3layer.jsonl` byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanSpec {
    /// Hourly budget handed to the share analyzer (also the tenant's
    /// initial allocation until the broker reassigns it).
    pub budget: f64,
    /// Replanning cadence.
    pub cadence: SimDuration,
    /// Trailing metric window per round.
    pub analysis_window: SimDuration,
    /// NSGA-II population size.
    pub population: usize,
    /// NSGA-II generation count.
    pub generations: usize,
    /// NSGA-II seed.
    pub nsga2_seed: u64,
    /// Worker threads for the share analysis (`None` = serial).
    pub workers: Option<usize>,
}

/// One tenant's episode configuration (plain data, `Send`).
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeConfig {
    /// Episode seed.
    pub seed: u64,
    /// Workload shape.
    pub workload: WorkloadSpec,
    /// Optional replanner settings.
    pub replan: Option<ReplanSpec>,
    /// Optional chaos preset name (`flower_chaos::FaultPlan::preset`).
    pub fault_preset: Option<String>,
    /// Event-core fast-forward (collapse quiet windows).
    pub fast_forward: bool,
    /// Flight-recorder ring capacity.
    pub capacity: usize,
}

impl Default for EpisodeConfig {
    fn default() -> EpisodeConfig {
        EpisodeConfig {
            seed: 0,
            workload: WorkloadSpec::Constant { rate: 0.0 },
            replan: None,
            fault_preset: None,
            fast_forward: false,
            capacity: 4096,
        }
    }
}

/// One tenant: identity, broker claim, fleet placement, episode.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stable id (registry key, trace stamp, tie-breaker).
    pub id: FlowId,
    /// Fair-share weight (≥ 0).
    pub weight: f64,
    /// Strict-priority rank (higher wins).
    pub priority: u32,
    /// Proportional-bid amount (≥ 0).
    pub bid: f64,
    /// Budget cap: the most this tenant will accept per hour
    /// (`f64::INFINITY` = unbounded).
    pub ask: f64,
    /// Fleet-time join instant.
    pub join: SimTime,
    /// Fleet-time leave instant (`None` = fleet horizon).
    pub leave: Option<SimTime>,
    /// The episode to run between join and leave.
    pub episode: EpisodeConfig,
}

impl TenantSpec {
    /// A tenant with default claim values (weight 1, priority 0, bid 1,
    /// unbounded ask) joining at fleet start.
    pub fn new(id: FlowId, episode: EpisodeConfig) -> TenantSpec {
        TenantSpec {
            id,
            weight: 1.0,
            priority: 0,
            bid: 1.0,
            ask: f64::INFINITY,
            join: SimTime::ZERO,
            leave: None,
            episode,
        }
    }
}

/// The whole fleet: global budget, policy, cadence, horizon, tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Global hourly budget split across active tenants.
    pub budget: f64,
    /// Allocation policy.
    pub policy: BrokerPolicy,
    /// Settle-window length: the broker re-evaluates allocations (and
    /// overspend) on this grid.
    pub settle: SimDuration,
    /// Fleet horizon: every episode ends here at the latest.
    pub horizon: SimDuration,
    /// When true, the runner makes a probe pass first and shifts budget
    /// away from tenants that overspent their windows (two-pass run);
    /// when false a single pass runs with membership-only brokering.
    pub overspend: bool,
    /// Fleet-level flight-recorder ring capacity.
    pub capacity: usize,
    /// The tenants. [`crate::Fleet::new`] sorts these by id and
    /// rejects duplicates.
    pub flows: Vec<TenantSpec>,
}

impl Default for FleetSpec {
    fn default() -> FleetSpec {
        FleetSpec {
            budget: 1.0,
            policy: BrokerPolicy::FairShare,
            settle: SimDuration::from_mins(15),
            horizon: SimDuration::from_mins(60),
            overspend: true,
            capacity: 16_384,
            flows: Vec::new(),
        }
    }
}

impl FleetSpec {
    /// Parse the fleet TOML subset. See the module docs for the format;
    /// the README's fleet quickstart shows a worked example.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line or flow on malformed
    /// input.
    pub fn parse(text: &str) -> Result<FleetSpec, FleetError> {
        let mut spec = FleetSpec::default();
        let mut draft: Option<FlowDraft> = None;
        for line in conf::lines(text) {
            let (lineno, line) = line?;
            let (key, value) = match line {
                Line::Section("flow") => {
                    if let Some(d) = draft.take() {
                        spec.flows.extend(d.finish()?);
                    }
                    draft = Some(FlowDraft::default());
                    continue;
                }
                Line::Section(other) => {
                    return Err(FleetError(format!(
                        "line {lineno}: unknown section `[[{other}]]`"
                    )))
                }
                Line::Pair { key, value } => (key, value),
            };
            match &mut draft {
                None => match key {
                    "budget" => spec.budget = parse_f64(key, value)?,
                    "policy" => spec.policy = BrokerPolicy::parse(value)?,
                    "settle_mins" => spec.settle = SimDuration::from_mins(parse_u64(key, value)?),
                    "horizon_mins" => spec.horizon = SimDuration::from_mins(parse_u64(key, value)?),
                    "overspend" => spec.overspend = parse_bool(key, value)?,
                    "capacity" => spec.capacity = parse_u64(key, value)? as usize,
                    _ => {
                        return Err(FleetError(format!(
                            "line {lineno}: unknown top-level key `{key}`"
                        )))
                    }
                },
                Some(d) => d.set(key, value)?,
            }
        }
        if let Some(d) = draft.take() {
            spec.flows.extend(d.finish()?);
        }
        Ok(spec)
    }
}

fn parse_bool(key: &str, value: &str) -> Result<bool, FleetError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(FleetError(format!(
            "`{key}` must be `true` or `false`, got `{value}`"
        ))),
    }
}

/// A `[[flow]]` section under construction.
#[derive(Debug, Default)]
struct FlowDraft {
    id: Option<String>,
    clones: Option<u64>,
    weight: Option<f64>,
    priority: Option<u64>,
    bid: Option<f64>,
    ask: Option<f64>,
    join_mins: Option<u64>,
    leave_mins: Option<u64>,
    seed: Option<u64>,
    workload: Option<String>,
    rate: Option<f64>,
    base: Option<f64>,
    amplitude: Option<f64>,
    before: Option<f64>,
    after: Option<f64>,
    at_mins: Option<u64>,
    spike: Option<f64>,
    fast_forward: Option<bool>,
    capacity: Option<u64>,
    faults: Option<String>,
    replan_budget: Option<f64>,
    replan_cadence_mins: Option<u64>,
    replan_window_mins: Option<u64>,
    replan_population: Option<u64>,
    replan_generations: Option<u64>,
    replan_seed: Option<u64>,
    replan_workers: Option<u64>,
}

impl FlowDraft {
    fn set(&mut self, key: &str, value: &str) -> Result<(), FleetError> {
        match key {
            "id" => self.id = Some(value.to_owned()),
            "clones" => self.clones = Some(parse_u64(key, value)?),
            "weight" => self.weight = Some(parse_f64(key, value)?),
            "priority" => self.priority = Some(parse_u64(key, value)?),
            "bid" => self.bid = Some(parse_f64(key, value)?),
            "ask" => self.ask = Some(parse_f64(key, value)?),
            "join_mins" => self.join_mins = Some(parse_u64(key, value)?),
            "leave_mins" => self.leave_mins = Some(parse_u64(key, value)?),
            "seed" => self.seed = Some(parse_u64(key, value)?),
            "workload" => self.workload = Some(value.to_owned()),
            "rate" => self.rate = Some(parse_f64(key, value)?),
            "base" => self.base = Some(parse_f64(key, value)?),
            "amplitude" => self.amplitude = Some(parse_f64(key, value)?),
            "before" => self.before = Some(parse_f64(key, value)?),
            "after" => self.after = Some(parse_f64(key, value)?),
            "at_mins" => self.at_mins = Some(parse_u64(key, value)?),
            "spike" => self.spike = Some(parse_f64(key, value)?),
            "fast_forward" => self.fast_forward = Some(parse_bool(key, value)?),
            "capacity" => self.capacity = Some(parse_u64(key, value)?),
            "faults" => self.faults = Some(value.to_owned()),
            "replan_budget" => self.replan_budget = Some(parse_f64(key, value)?),
            "replan_cadence_mins" => self.replan_cadence_mins = Some(parse_u64(key, value)?),
            "replan_window_mins" => self.replan_window_mins = Some(parse_u64(key, value)?),
            "replan_population" => self.replan_population = Some(parse_u64(key, value)?),
            "replan_generations" => self.replan_generations = Some(parse_u64(key, value)?),
            "replan_seed" => self.replan_seed = Some(parse_u64(key, value)?),
            "replan_workers" => self.replan_workers = Some(parse_u64(key, value)?),
            _ => return Err(FleetError(format!("unknown [[flow]] key `{key}`"))),
        }
        Ok(())
    }

    fn workload(&self) -> Result<WorkloadSpec, FleetError> {
        let kind = self.workload.as_deref().unwrap_or("constant");
        let need = |v: Option<f64>, key: &str| {
            v.ok_or_else(|| FleetError(format!("workload `{kind}` needs `{key}`")))
        };
        let at = || {
            self.at_mins
                .map(SimTime::from_mins)
                .ok_or_else(|| FleetError(format!("workload `{kind}` needs `at_mins`")))
        };
        match kind {
            "constant" => Ok(WorkloadSpec::Constant {
                rate: self.rate.unwrap_or(0.0),
            }),
            "diurnal" => Ok(WorkloadSpec::Diurnal {
                base: need(self.base, "base")?,
                amplitude: need(self.amplitude, "amplitude")?,
            }),
            "step" => Ok(WorkloadSpec::Step {
                before: need(self.before, "before")?,
                after: need(self.after, "after")?,
                at: at()?,
            }),
            "flash" => Ok(WorkloadSpec::FlashCrowd {
                base: need(self.base, "base")?,
                spike: need(self.spike, "spike")?,
                at: at()?,
            }),
            other => Err(FleetError(format!(
                "unknown workload `{other}` (constant|diurnal|step|flash)"
            ))),
        }
    }

    fn replan(&self) -> Option<ReplanSpec> {
        let budget = self.replan_budget?;
        let cadence = SimDuration::from_mins(self.replan_cadence_mins.unwrap_or(15));
        Some(ReplanSpec {
            budget,
            cadence,
            analysis_window: self
                .replan_window_mins
                .map_or(cadence, SimDuration::from_mins),
            population: self.replan_population.unwrap_or(32) as usize,
            generations: self.replan_generations.unwrap_or(24) as usize,
            nsga2_seed: self.replan_seed.unwrap_or(9),
            workers: self.replan_workers.map(|w| w as usize).filter(|&w| w > 0),
        })
    }

    /// The range checks the episode builder would otherwise assert:
    /// rates `>= 0` (`parse_f64` already made them finite), a replan
    /// budget `> 0`, and replan periods of at least one minute.
    fn check(&self) -> Result<(), FleetError> {
        let rates = [
            ("rate", self.rate),
            ("base", self.base),
            ("amplitude", self.amplitude),
            ("before", self.before),
            ("after", self.after),
            ("spike", self.spike),
        ];
        for (key, value) in rates {
            if let Some(v) = value.filter(|v| *v < 0.0) {
                return Err(FleetError(format!("`{key}` must be >= 0, got `{v}`")));
            }
        }
        if let Some(b) = self.replan_budget.filter(|b| *b <= 0.0) {
            return Err(FleetError(format!(
                "`replan_budget` must be > 0, got `{b}`"
            )));
        }
        let periods = [
            ("replan_cadence_mins", self.replan_cadence_mins),
            ("replan_window_mins", self.replan_window_mins),
        ];
        match periods.into_iter().find(|&(_, mins)| mins == Some(0)) {
            Some((key, _)) => Err(FleetError(format!("`{key}` must be >= 1, got `0`"))),
            None => Ok(()),
        }
    }

    /// Expand the draft into its tenants: one, or `clones` many with
    /// derived ids (`{id}-000`, …) and staggered seeds.
    fn finish(self) -> Result<Vec<TenantSpec>, FleetError> {
        let base_id = self
            .id
            .as_deref()
            .ok_or_else(|| FleetError("[[flow]] needs an `id`".to_owned()))?;
        self.check()?;
        let workload = self.workload()?;
        let episode = EpisodeConfig {
            seed: self.seed.unwrap_or(0),
            workload,
            replan: self.replan(),
            fault_preset: self.faults.clone(),
            fast_forward: self.fast_forward.unwrap_or(false),
            capacity: self.capacity.unwrap_or(4096) as usize,
        };
        let template = TenantSpec {
            id: FlowId::new(base_id)?,
            weight: self.weight.unwrap_or(1.0),
            priority: self.priority.unwrap_or(0) as u32,
            bid: self.bid.unwrap_or(1.0),
            ask: self.ask.unwrap_or(f64::INFINITY),
            join: SimTime::from_mins(self.join_mins.unwrap_or(0)),
            leave: self.leave_mins.map(SimTime::from_mins),
            episode,
        };
        let clones = self.clones.unwrap_or(1);
        if clones <= 1 {
            return Ok(vec![template]);
        }
        let mut out = Vec::with_capacity(clones as usize);
        for i in 0..clones {
            let mut tenant = template.clone();
            tenant.id = FlowId::new(&format!("{base_id}-{i:03}"))?;
            tenant.episode.seed = template.episode.seed.wrapping_add(i);
            out.push(tenant);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_ids_validate_and_order() {
        assert!(FlowId::new("").is_err());
        assert!(FlowId::new("  ").is_err());
        assert!(FlowId::new("a b").is_err());
        let a = FlowId::new("alpha").unwrap();
        let b = FlowId::new(" beta ").unwrap();
        assert_eq!(b.as_str(), "beta");
        assert!(a < b);
        assert_eq!(a.to_string(), "alpha");
    }

    #[test]
    fn parses_a_full_fleet_file() {
        let spec = FleetSpec::parse(
            r#"
            # two tenants, priority policy
            budget = 4.0
            policy = "priority"
            settle_mins = 10
            horizon_mins = 30
            overspend = false

            [[flow]]
            id = "web"
            priority = 5
            ask = 3.0
            seed = 7
            workload = "flash"
            base = 600.0
            spike = 9000.0
            at_mins = 10
            replan_budget = 1.0

            [[flow]]
            id = "batch"
            weight = 2.0
            join_mins = 5
            leave_mins = 25
            workload = "constant"
            rate = 100.0
            fast_forward = true
            "#,
        )
        .unwrap();
        assert_eq!(spec.budget, 4.0);
        assert_eq!(spec.policy, BrokerPolicy::Priority);
        assert_eq!(spec.settle, SimDuration::from_mins(10));
        assert_eq!(spec.horizon, SimDuration::from_mins(30));
        assert!(!spec.overspend);
        assert_eq!(spec.flows.len(), 2);
        let web = &spec.flows[0];
        assert_eq!(web.id.as_str(), "web");
        assert_eq!(web.priority, 5);
        assert_eq!(web.ask, 3.0);
        assert_eq!(
            web.episode.workload,
            WorkloadSpec::FlashCrowd {
                base: 600.0,
                spike: 9000.0,
                at: SimTime::from_mins(10)
            }
        );
        let replan = web.episode.replan.as_ref().unwrap();
        assert_eq!(replan.budget, 1.0);
        assert_eq!(replan.cadence, SimDuration::from_mins(15));
        assert_eq!(replan.population, 32);
        let batch = &spec.flows[1];
        assert_eq!(batch.join, SimTime::from_mins(5));
        assert_eq!(batch.leave, Some(SimTime::from_mins(25)));
        assert!(batch.episode.fast_forward);
        assert!(batch.episode.replan.is_none());
    }

    #[test]
    fn clones_expand_with_derived_ids_and_seeds() {
        let spec = FleetSpec::parse(
            "budget = 1.0\n[[flow]]\nid = \"quiet\"\nclones = 3\nseed = 100\nfast_forward = true\n",
        )
        .unwrap();
        let ids: Vec<&str> = spec.flows.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids, vec!["quiet-000", "quiet-001", "quiet-002"]);
        let seeds: Vec<u64> = spec.flows.iter().map(|f| f.episode.seed).collect();
        assert_eq!(seeds, vec![100, 101, 102]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(FleetSpec::parse("nonsense").is_err());
        assert!(FleetSpec::parse("mystery = 1").is_err());
        assert!(
            FleetSpec::parse("[[flow]]\nweight = 1.0").is_err(),
            "id required"
        );
        assert!(FleetSpec::parse("[[flow]]\nid = \"x\"\nbudget = 1.0").is_err());
        assert!(FleetSpec::parse("[[flow]]\nid = \"x\"\nworkload = \"wavy\"").is_err());
        assert!(
            FleetSpec::parse("[[flow]]\nid = \"x\"\nworkload = \"step\"\nbefore = 1.0").is_err(),
            "step needs after + at_mins"
        );
        assert!(FleetSpec::parse("budget = lots").is_err());
        assert!(FleetSpec::parse("overspend = maybe").is_err());
        assert!(
            FleetSpec::parse("[[flow]]\nid = \"abc").is_err(),
            "unbalanced quote"
        );
        assert!(FleetSpec::parse("[[fault]]\nkind = \"reject\"").is_err());
        // Values the episode builder would assert against name their key.
        for (body, key) in [
            ("rate = -5.0", "rate"),
            (
                "workload = \"diurnal\"\nbase = 10.0\namplitude = -1.0",
                "amplitude",
            ),
            ("replan_budget = 0.0", "replan_budget"),
            (
                "replan_budget = 1.0\nreplan_cadence_mins = 0",
                "replan_cadence_mins",
            ),
            (
                "replan_budget = 1.0\nreplan_window_mins = 0",
                "replan_window_mins",
            ),
        ] {
            let err = FleetSpec::parse(&format!("[[flow]]\nid = \"x\"\n{body}")).unwrap_err();
            assert!(err.to_string().contains(key), "{body}: {err}");
        }
    }

    #[test]
    fn arbitrary_text_never_panics() {
        const VALID: &str = "budget = 4.0\npolicy = \"priority\"\nsettle_mins = 10\n\
            [[flow]]\nid = \"web#1\" # tenant\npriority = 5\nworkload = \"flash\"\n\
            base = 600.0\nspike = 9000.0\nat_mins = 10\nreplan_budget = 1.0\n\
            [[flow]]\nid = \"quiet\"\nclones = 3\nfast_forward = true\n";
        assert!(FleetSpec::parse(VALID).is_ok());
        flower_sim::testkit::forall(500, |rng| {
            let _ = FleetSpec::parse(&flower_sim::testkit::fuzz_text(rng, 64));
            let _ = FleetSpec::parse(&flower_sim::testkit::mutate(rng, VALID));
        });
    }

    #[test]
    fn comments_and_defaults() {
        let spec = FleetSpec::parse("# empty fleet file\n").unwrap();
        assert_eq!(spec.policy, BrokerPolicy::FairShare);
        assert_eq!(spec.settle, SimDuration::from_mins(15));
        assert!(spec.overspend);
        assert!(spec.flows.is_empty());
        let one = FleetSpec::parse("[[flow]]\nid = \"t\" # trailing comment\n").unwrap();
        let t = &one.flows[0];
        assert_eq!(t.weight, 1.0);
        assert_eq!(t.bid, 1.0);
        assert_eq!(t.priority, 0);
        assert!(t.ask.is_infinite());
        assert_eq!(t.join, SimTime::ZERO);
        assert_eq!(t.leave, None);
        assert_eq!(t.episode.workload, WorkloadSpec::Constant { rate: 0.0 });
        // Inside quotes `#` is part of the value, not a comment.
        let hashed = FleetSpec::parse("[[flow]]\nid = \"busy#1\" # a comment\n").unwrap();
        assert_eq!(hashed.flows[0].id.as_str(), "busy#1");
    }
}
