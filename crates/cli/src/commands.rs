//! The subcommand implementations.

use std::error::Error;

use flower_core::config::ControllerSpec;
use flower_core::dashboard::{Dashboard, Panel};
use flower_core::dependency::DependencyAnalyzer;
use flower_core::flow::{FlowBuilder, Layer, Platform};
use flower_core::monitor::CrossPlatformMonitor;
use flower_core::prelude::*;
use flower_core::replan::{ReplanConfig, Replanner};
use flower_core::share::ShareProblem;
use flower_nsga2::Nsga2Config;
use flower_obs::{kind, JsonValue, Recorder};
use flower_sim::{SimDuration, SimTime};

use crate::args::Args;

type CmdResult = Result<(), Box<dyn Error>>;

/// Usage text for `flower help`.
pub fn usage() -> String {
    "\
flower — a data analytics flow elasticity manager (VLDB'17 reproduction)

USAGE:
  flower <command> [--option value]...

COMMANDS:
  run       run an elasticity episode on the click-stream flow
              --minutes N          episode length          [30]
              --seed N             RNG seed                [0]
              --workload KIND      constant|diurnal|step|flash|bursts [diurnal]
              --rate R             base arrival rate rec/s [1500]
              --controller KIND    adaptive|fixed-gain|quasi-adaptive|
                                   rule-based|static       [adaptive]
              --period SECS        monitoring period       [30]
              --csv PATH           write the per-tick trace as CSV
              --trace PATH         record structured events as JSONL
                                   (flower-trace/v1)
              --replan MINS        re-run share analysis every MINS min
              --faults NAME|PATH   inject faults: a scenario preset
                                   (none|flaky-actuator|stale-sensor|
                                   slow-resize|throttle-storm) or a TOML
                                   fault plan; enables the resilience
                                   policy (retries, timeouts, degraded
                                   mode) alongside
              --fast-forward true  skip quiet windows: when the workload
                                   is idle, jump the clock to the next
                                   scheduled event instead of simulating
                                   every second (long-horizon episodes)
              --config PATH        load a wizard config file (overrides
                                   the flags above; see flower_core::wizard)
  plan      resource share analysis under a budget (Fig. 4)
              --budget D           $/hour                  [0.75]
              --seed N             NSGA-II seed            [2017]
  analyze   learn cross-layer dependencies from a probe run (Fig. 2)
              --minutes N          probe length            [120]
              --seed N             RNG seed                [42]
  monitor   run briefly and print the all-in-one-place snapshot (Fig. 6)
              --minutes N          run length              [10]
              --seed N             RNG seed                [0]
  trace     summarize a JSONL trace written by `run --trace` (includes a
            fault/recovery timeline when the run injected faults)
              --in PATH            trace file to read      (required)
              --field NAME         also chart this numeric event field
              --flow ID            keep only events stamped with this tenant
                                   id (demux a merged `fleet run` trace)
              --follow true        tail a growing trace, printing events as
                                   their lines complete; exits at the summary
  fleet run  run a whole fleet of tenant flows on one scheduler and one
            global budget (fair-share | priority | proportional-bid),
            writing a merged flower-trace/v1 document with per-tenant
            `flow` stamps — byte-identical for any FLOWER_THREADS
              --config PATH        fleet TOML file         (required)
              --trace PATH         write the merged trace as JSONL
              --threads N          worker threads          [FLOWER_THREADS]
  serve     host a live episode behind the flower-wire/v1 socket protocol,
            streaming flower-obs events and accepting live commands
            (inject-fault, set-budget, force-replan, pause, resume,
            shutdown); takes the `run` episode flags, plus:
              --listen ADDR        bind address            [127.0.0.1:7733]
              --pace-ms N          wall-clock ms per 1 s sim tick [0: flat out]
              --hold true          start paused until a `resume` command
              --snapshot-secs N    counter/gauge snapshot grid     [60]
              --record PATH        record applied commands (flower-record/v1)
              --trace PATH         write the episode trace on completion
              --replay RECORD      no sockets: re-run a recorded session to a
                                   byte-identical trace (with --trace PATH)
  client    line-mode client for a running `flower serve`
              --connect HOST:PORT  daemon address          (required)
              --script PATH        frames to send, one per line (`!sleep MS`
                                   pauses, `#` comments); default: subscribe
  help      this text
"
    .to_owned()
}

fn flow() -> flower_core::flow::FlowSpec {
    FlowBuilder::new("clickstream-analytics")
        .ingestion(Platform::kinesis("clicks", 2))
        .analytics(Platform::storm("counter", 2))
        .storage(Platform::dynamo("aggregates", 100.0))
        .build()
        .expect("the reference flow is valid")
}

fn workload(kind: &str, rate: f64, seed: u64) -> Result<Workload, Box<dyn Error>> {
    Ok(match kind {
        "constant" => Workload::constant(rate),
        "diurnal" => Workload::diurnal(rate, rate * 0.8),
        "step" => Workload::step(rate * 0.3, rate * 2.0, SimTime::from_mins(10)),
        "flash" => Workload::flash_crowd(rate * 0.4, rate * 3.0, SimTime::from_mins(10)),
        "bursts" => Workload::custom(Box::new(flower_workload::MmppRate::new(
            rate * 0.3,
            rate * 2.5,
            SimDuration::from_mins(8),
            SimDuration::from_mins(4),
            flower_sim::SimRng::seed(seed ^ 0xB0B5),
        ))),
        other => return Err(format!("unknown workload '{other}'").into()),
    })
}

fn controller(kind: &str) -> Result<[ControllerSpec; 3], Box<dyn Error>> {
    Ok(match kind {
        "adaptive" => [
            ControllerSpec::adaptive(70.0),
            ControllerSpec::adaptive(60.0),
            ControllerSpec::adaptive_for_capacity(70.0),
        ],
        "fixed-gain" => [
            ControllerSpec::fixed_gain(70.0),
            ControllerSpec::fixed_gain(60.0),
            ControllerSpec::fixed_gain(70.0),
        ],
        "quasi-adaptive" => [
            ControllerSpec::quasi_adaptive(70.0),
            ControllerSpec::quasi_adaptive(60.0),
            ControllerSpec::quasi_adaptive(70.0),
        ],
        "rule-based" => [
            ControllerSpec::rule_based(70.0),
            ControllerSpec::rule_based(60.0),
            ControllerSpec::rule_based(70.0),
        ],
        "static" => [
            ControllerSpec::Static,
            ControllerSpec::Static,
            ControllerSpec::Static,
        ],
        other => return Err(format!("unknown controller '{other}'").into()),
    })
}

/// Resolve `--faults`: a scenario preset name, else a TOML plan file.
fn fault_plan(spec: &str) -> Result<FaultPlan, Box<dyn Error>> {
    if let Some(plan) = FaultPlan::preset(spec) {
        return Ok(plan);
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        format!(
            "--faults '{spec}' is neither a preset ({}) nor a readable file: {e}",
            PRESETS.join("|")
        )
    })?;
    FaultPlan::parse(&text).map_err(|e| format!("--faults {spec}: {e}").into())
}

/// One episode's construction flags, shared by `flower run`,
/// `flower serve`, and `flower serve --replay`. The spec round-trips
/// through a flat string map — the `episode` object of `flower-wire/v1`
/// hello frames and `flower-record/v1` headers — so a recorded live
/// session rebuilds the exact manager it ran against.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeSpec {
    /// Episode length in minutes.
    pub minutes: u64,
    /// RNG seed.
    pub seed: u64,
    /// Base arrival rate, records/s.
    pub rate: f64,
    /// Monitoring period in seconds.
    pub period: u64,
    /// Workload kind (`constant|diurnal|step|flash|bursts`).
    pub workload: String,
    /// Controller kind (see [`controller`]).
    pub controller: String,
    /// Replanning cadence in minutes, if replanning is on.
    pub replan: Option<u64>,
    /// `--faults` spec (preset name or plan file path), if any.
    pub faults: Option<String>,
    /// Skip quiet windows (`--fast-forward true`).
    pub fast_forward: bool,
}

impl EpisodeSpec {
    /// Read the spec from CLI flags (the same flags `flower run` takes,
    /// with the same defaults).
    pub fn from_args(args: &Args) -> Result<EpisodeSpec, Box<dyn Error>> {
        let replan = match args.get("replan") {
            Some(mins) => Some(mins.parse().map_err(|_| format!("bad --replan '{mins}'"))?),
            None => None,
        };
        EpisodeSpec {
            minutes: args.u64_or("minutes", 30)?,
            seed: args.u64_or("seed", 0)?,
            rate: args.f64_or("rate", 1_500.0)?,
            period: args.u64_or("period", 30)?,
            workload: args.str_or("workload", "diurnal"),
            controller: args.str_or("controller", "adaptive"),
            replan,
            faults: args.get("faults").map(str::to_owned),
            fast_forward: args.str_or("fast-forward", "false") == "true",
        }
        .checked()
    }

    /// Rebuild the spec from a recorded episode map (missing keys take
    /// the `flower run` defaults, so hand-written records stay terse).
    pub fn from_map(
        map: &std::collections::BTreeMap<String, String>,
    ) -> Result<EpisodeSpec, Box<dyn Error>> {
        fn parsed<T: std::str::FromStr>(
            map: &std::collections::BTreeMap<String, String>,
            key: &str,
            default: T,
        ) -> Result<T, Box<dyn Error>> {
            match map.get(key) {
                Some(raw) => raw
                    .parse()
                    .map_err(|_| format!("episode.{key}: bad value '{raw}'").into()),
                None => Ok(default),
            }
        }
        EpisodeSpec {
            minutes: parsed(map, "minutes", 30)?,
            seed: parsed(map, "seed", 0)?,
            rate: parsed(map, "rate", 1_500.0)?,
            period: parsed(map, "period", 30)?,
            workload: map
                .get("workload")
                .cloned()
                .unwrap_or_else(|| "diurnal".to_owned()),
            controller: map
                .get("controller")
                .cloned()
                .unwrap_or_else(|| "adaptive".to_owned()),
            replan: match map.get("replan") {
                Some(raw) => Some(
                    raw.parse()
                        .map_err(|_| format!("episode.replan: bad value '{raw}'"))?,
                ),
                None => None,
            },
            faults: map.get("faults").cloned(),
            fast_forward: map.get("fast_forward").map(String::as_str) == Some("true"),
        }
        .checked()
    }

    /// The range check both readers end with, so an out-of-range value
    /// is an error naming its key instead of a panic in the builder.
    fn checked(self) -> Result<EpisodeSpec, Box<dyn Error>> {
        if !(self.rate.is_finite() && self.rate >= 0.0) {
            return Err(format!("rate must be finite and >= 0, got {}", self.rate).into());
        }
        if self.period == 0 {
            return Err("period must be at least 1 second, got 0".into());
        }
        if self.replan == Some(0) {
            return Err("replan must be at least 1 minute, got 0".into());
        }
        Ok(self)
    }

    /// The flat string map that [`Self::from_map`] reverses.
    pub fn to_map(&self) -> std::collections::BTreeMap<String, String> {
        let mut map = std::collections::BTreeMap::new();
        map.insert("minutes".to_owned(), self.minutes.to_string());
        map.insert("seed".to_owned(), self.seed.to_string());
        map.insert("rate".to_owned(), self.rate.to_string());
        map.insert("period".to_owned(), self.period.to_string());
        map.insert("workload".to_owned(), self.workload.clone());
        map.insert("controller".to_owned(), self.controller.clone());
        if let Some(mins) = self.replan {
            map.insert("replan".to_owned(), mins.to_string());
        }
        if let Some(faults) = &self.faults {
            map.insert("faults".to_owned(), faults.clone());
        }
        if self.fast_forward {
            map.insert("fast_forward".to_owned(), "true".to_owned());
        }
        map
    }

    /// Build the manager this spec describes. `with_recorder` attaches
    /// the standard 65 536-event flight recorder (`flower serve` always
    /// does; `flower run` only under `--trace`).
    pub fn build(&self, with_recorder: bool) -> Result<ElasticityManager, Box<dyn Error>> {
        let specs = controller(&self.controller)?;
        let mut builder = ElasticityManager::builder(flow())
            .workload(workload(&self.workload, self.rate, self.seed)?)
            .monitoring_period(SimDuration::from_secs(self.period))
            .fast_forward(self.fast_forward)
            .seed(self.seed);
        for (layer, spec) in Layer::ALL.into_iter().zip(specs) {
            builder = builder.controller(layer, spec);
        }
        if let Some(mins) = self.replan {
            builder = builder.replanner(Replanner::for_clickstream(
                ReplanConfig {
                    cadence: SimDuration::from_mins(mins),
                    analysis_window: SimDuration::from_mins(mins),
                    nsga2: Nsga2Config {
                        population: 40,
                        generations: 40,
                        seed: self.seed,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                "clicks",
                "counter",
                "aggregates",
                ShareProblem::worked_example(1.0),
            ));
        }
        if let Some(spec) = &self.faults {
            builder = builder.faults(fault_plan(spec)?);
        }
        if with_recorder {
            builder = builder.recorder(Recorder::with_capacity(65_536));
        }
        Ok(builder.build()?)
    }
}

/// `flower run`
pub fn run(args: &Args) -> CmdResult {
    let minutes = args.u64_or("minutes", 30)?;

    let mut manager = if let Some(path) = args.get("config") {
        if args.get("trace").is_some()
            || args.get("replan").is_some()
            || args.get("faults").is_some()
        {
            return Err(
                "--trace/--replan/--faults are not supported together with --config".into(),
            );
        }
        let text = std::fs::read_to_string(path)?;
        let config = flower_core::wizard::WizardConfig::from_text(&text)?;
        println!(
            "running {minutes} min from wizard config '{path}' (scenario {}, seed {})",
            config.scenario.name(),
            config.seed
        );
        config.build_manager()?
    } else {
        let spec = EpisodeSpec::from_args(args)?;
        if let Some(faults) = &spec.faults {
            let plan = fault_plan(faults)?;
            if !plan.is_empty() {
                println!(
                    "injecting faults from '{faults}' (seed {}, {} clauses) with the resilience policy enabled",
                    plan.seed,
                    plan.clauses.len()
                );
            }
        }
        println!(
            "running {minutes} min of '{}' at ~{} rec/s with the {} controller (seed {})",
            spec.workload, spec.rate, spec.controller, spec.seed
        );
        spec.build(args.get("trace").is_some())?
    };
    let report = manager.run_for_mins(minutes);

    let dashboard = Dashboard::new()
        .panel(Panel::new(
            "arrival rate (rec/s)",
            report.arrival_trace.clone(),
        ))
        .panel(
            Panel::new(
                "ingestion utilization (%)",
                report.measurements(Layer::INGESTION).to_vec(),
            )
            .with_reference(70.0),
        )
        .panel(Panel::new(
            "shards",
            report.actuators(Layer::INGESTION).to_vec(),
        ))
        .panel(
            Panel::new(
                "analytics CPU (%)",
                report.measurements(Layer::ANALYTICS).to_vec(),
            )
            .with_reference(60.0),
        )
        .panel(Panel::new(
            "VMs",
            report.actuators(Layer::ANALYTICS).to_vec(),
        ))
        .panel(Panel::new("WCU", report.actuators(Layer::STORAGE).to_vec()));
    println!("\n{}", dashboard.render(100));
    println!(
        "offered {} | accepted {} | loss {:.2}% | actions {} | cost ${:.4}",
        report.offered_records,
        report.accepted_records,
        report.ingest_loss_rate() * 100.0,
        report.total_actions(),
        report.total_cost_dollars
    );

    let slo = flower_core::slo::SloSpec::clickstream_default().evaluate(&report);
    print!("\n{}", slo.to_table());

    if let Some(path) = args.get("csv") {
        let file = std::fs::File::create(path)?;
        flower_core::export::episode_to_csv(&report, std::io::BufWriter::new(file))?;
        println!("trace written to {path}");
    }
    if let Some(path) = args.get("trace") {
        std::fs::write(path, manager.recorder().to_jsonl())?;
        println!("event trace written to {path}");
    }
    Ok(())
}

/// `flower trace`
pub fn trace(args: &Args) -> CmdResult {
    let path = args
        .get("in")
        .ok_or("trace needs --in PATH (a file written by `flower run --trace`)")?;
    if args.str_or("follow", "false") == "true" {
        return follow(path);
    }
    let text = std::fs::read_to_string(path)?;
    let mut trace = flower_obs::parse_trace(&text)?;
    if let Some(flow) = args.get("flow") {
        let known = trace.flows();
        if !known.contains(&flow) {
            return Err(format!(
                "no events stamped flow '{flow}'{}",
                if known.is_empty() {
                    " (this trace has no flow stamps — not a merged fleet trace?)".to_owned()
                } else {
                    format!(" (flows present: {})", known.join(", "))
                }
            )
            .into());
        }
        trace.retain_flow(flow);
        println!("showing flow '{flow}' only");
    }

    println!(
        "{path}: {} events kept of {} emitted ({} dropped, capacity {})",
        trace.events.len(),
        trace.emitted,
        trace.dropped,
        trace.capacity
    );
    if trace.dropped > 0 {
        println!(
            "warning: the flight recorder overflowed — the {} oldest events were \
             evicted before export (ring capacity {}); re-run with a larger recorder \
             or treat kept-event history as truncated",
            trace.dropped, trace.capacity
        );
    }

    println!("\nevents by kind:");
    for (event_kind, count) in trace.counts_by_kind() {
        println!("  {event_kind:<20} {count:>6}");
    }

    if let Some(spans) = trace.summary.as_obj().and_then(|o| o.get("spans")) {
        if let Some(spans) = spans.as_obj().filter(|o| !o.is_empty()) {
            println!("\nspans:");
            for (name, stats) in spans {
                let field = |key: &str| {
                    stats
                        .as_obj()
                        .and_then(|o| o.get(key))
                        .and_then(JsonValue::as_num)
                        .unwrap_or(f64::NAN)
                };
                println!(
                    "  {name:<24} count {:>4}  total {:>9.1} ms  max {:>9.1} ms",
                    field("count"),
                    field("total_ms"),
                    field("max_ms")
                );
            }
        }
    }

    let alarms: Vec<&flower_obs::TraceEvent> = trace
        .events
        .iter()
        .filter(|e| e.kind == kind::ALARM_TRANSITION)
        .collect();
    if !alarms.is_empty() {
        println!("\nalarm timeline:");
        for e in alarms {
            println!(
                "  t={:>6}s  {:<24} {} -> {}",
                e.t_ms / 1000,
                e.str("alarm").unwrap_or("?"),
                e.str("from").unwrap_or("?"),
                e.str("to").unwrap_or("?")
            );
        }
    }

    let faults: Vec<&flower_obs::TraceEvent> = trace
        .events
        .iter()
        .filter(|e| e.kind.starts_with("chaos.") || e.kind.starts_with("resilience."))
        .collect();
    if !faults.is_empty() {
        println!("\nfault/recovery timeline:");
        for e in &faults {
            let layer = e.str("layer").unwrap_or("?");
            let accepted = e.fields.get("accepted") == Some(&JsonValue::Bool(true));
            let detail = match e.kind.as_str() {
                "chaos.fault" => format!("fault injected: {}", e.str("fault").unwrap_or("?")),
                "resilience.retry" => format!(
                    "retry #{:.0} {}",
                    e.f64("attempt").unwrap_or(0.0),
                    if accepted { "landed" } else { "rejected again" }
                ),
                "resilience.timeout" => format!(
                    "actuation timed out (target {:.0})",
                    e.f64("target").unwrap_or(f64::NAN)
                ),
                "resilience.degraded" => match e.str("phase") {
                    Some("enter") => format!(
                        "sensor stale -> degraded, holding {:.0} units",
                        e.f64("held").unwrap_or(f64::NAN)
                    ),
                    _ => format!(
                        "sensor recovered after {:.0} held round(s)",
                        e.f64("rounds").unwrap_or(0.0)
                    ),
                },
                other => other.to_owned(),
            };
            println!("  t={:>6}s  {layer:<12} {detail}", e.t_ms / 1000);
        }
        println!(
            "  ({} fault events, {} retries, {} timeouts, {} degraded transitions)",
            faults.iter().filter(|e| e.kind == "chaos.fault").count(),
            faults
                .iter()
                .filter(|e| e.kind == "resilience.retry")
                .count(),
            faults
                .iter()
                .filter(|e| e.kind == "resilience.timeout")
                .count(),
            faults
                .iter()
                .filter(|e| e.kind == "resilience.degraded")
                .count()
        );
    }

    let replans = replan_timeline_lines(&trace);
    if !replans.is_empty() {
        println!("\nreplan timeline (warm = seeded from the previous front):");
        for line in &replans {
            println!("{line}");
        }
    }

    if let Some(field) = args.get("field") {
        let points: Vec<(SimTime, f64)> = trace
            .events
            .iter()
            .filter_map(|e| Some((SimTime::from_millis(e.t_ms), e.f64(field)?)))
            .collect();
        if points.is_empty() {
            return Err(format!("no event carries a numeric field '{field}'").into());
        }
        let panel = Panel::new(format!("event field '{field}'"), points);
        println!("\n{}", Dashboard::new().panel(panel).render(100));
    }
    Ok(())
}

/// `flower trace --follow true`: tail a growing trace file, printing
/// each event as its line completes. Each poll reads only the bytes
/// appended since the last one; partial lines are carried by the
/// incremental parser until the rest of the line lands. The command
/// exits when the final summary line arrives.
fn follow(path: &str) -> CmdResult {
    let mut tail = Tail::open(path)?;
    let mut follower = flower_obs::TraceFollower::new();
    while !follower.finished() {
        let text = tail.poll()?;
        if text.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(150));
            continue;
        }
        for item in follower.feed(&text)? {
            match item {
                flower_obs::FollowItem::Header {
                    capacity, dropped, ..
                } => {
                    print!("following {path} (flower-trace/v1, capacity {capacity})");
                    if dropped > 0 {
                        print!(" — warning: {dropped} events already evicted");
                    }
                    println!();
                }
                flower_obs::FollowItem::Event(event) => {
                    println!(
                        "t={:>6}s  seq {:>6}  {}",
                        event.t_ms / 1000,
                        event.seq,
                        event.kind
                    );
                }
                flower_obs::FollowItem::Summary(_) => {
                    println!(
                        "trace complete: {} event(s) followed",
                        follower.events_seen()
                    );
                }
            }
        }
    }
    Ok(())
}

/// The growing end of a file: each [`Tail::poll`] returns the text
/// appended since the previous one.
struct Tail {
    file: std::fs::File,
    path: String,
    /// Bytes read from the file so far.
    read: u64,
    /// The leading bytes of a multibyte character the last read ended
    /// inside; decoded once the rest of it is appended.
    carry: Vec<u8>,
}

impl Tail {
    fn open(path: &str) -> std::io::Result<Tail> {
        Ok(Tail {
            file: std::fs::File::open(path)?,
            path: path.to_owned(),
            read: 0,
            carry: Vec::new(),
        })
    }

    /// The text appended since the last poll (empty when nothing was).
    /// Invalid UTF-8 and a file that shrank are errors.
    fn poll(&mut self) -> Result<String, Box<dyn Error>> {
        use std::io::Read;
        if self.file.metadata()?.len() < self.read {
            return Err(format!("{}: file shrank while following", self.path).into());
        }
        let carry_at = self.read - self.carry.len() as u64;
        self.read += self.file.read_to_end(&mut self.carry)? as u64;
        let mut bytes = std::mem::take(&mut self.carry);
        let valid = match std::str::from_utf8(&bytes) {
            Ok(_) => bytes.len(),
            Err(e) if e.error_len().is_none() => e.valid_up_to(),
            Err(e) => {
                let at = carry_at + e.valid_up_to() as u64;
                return Err(format!("{}: not UTF-8 at byte {at}: {e}", self.path).into());
            }
        };
        self.carry = bytes.split_off(valid);
        Ok(String::from_utf8(bytes)?)
    }
}

/// One line per re-planning round in `trace`, oldest first: the
/// warm/cold start marker (from the `warm` event field — traces from
/// replanners without warm starts predate the field and render
/// `cold*`), the confirmed dependency count, the Pareto front size and
/// the chosen plan's hourly cost. Failed rounds show the error.
/// Empty when the trace holds no replan events.
fn replan_timeline_lines(trace: &flower_obs::Trace) -> Vec<String> {
    trace
        .events
        .iter()
        .filter(|e| e.kind == kind::REPLAN_OUTCOME || e.kind == kind::REPLAN_FAILED)
        .map(|e| {
            if e.kind == kind::REPLAN_FAILED {
                return format!(
                    "  t={:>6}s  failed: {}",
                    e.t_ms / 1000,
                    e.str("error").unwrap_or("?")
                );
            }
            let start = match e.fields.get("warm") {
                Some(JsonValue::Bool(true)) => "warm",
                Some(JsonValue::Bool(false)) => "cold",
                _ => "cold*", // pre-warm-start trace: the field is absent
            };
            format!(
                "  t={:>6}s  {start:<5}  deps {:>2.0}  front {:>3.0}  ${:.4}/h",
                e.t_ms / 1000,
                e.f64("dependencies").unwrap_or(f64::NAN),
                e.f64("front_size").unwrap_or(f64::NAN),
                e.f64("hourly_cost").unwrap_or(f64::NAN)
            )
        })
        .collect()
}

/// `flower plan`
pub fn plan(args: &Args) -> CmdResult {
    let budget = args.f64_or("budget", 0.75)?;
    let seed = args.u64_or("seed", 2017)?;
    let problem = ShareProblem::worked_example(budget);
    println!("budget ${budget:.2}/h; constraints:");
    for c in &problem.constraints {
        println!("  {}", c.label);
    }
    let plans = ShareAnalyzer::new(problem)
        .with_config(Nsga2Config {
            seed,
            ..Default::default()
        })
        .solve()?;
    println!("\n{} Pareto-optimal plans (best spend first):", plans.len());
    println!("{:>8} {:>6} {:>8} {:>10}", "shards", "VMs", "WCU", "$/hour");
    for p in &plans {
        println!(
            "{:>8.0} {:>6.0} {:>8.0} {:>10.4}",
            p.shards(),
            p.vms(),
            p.wcu(),
            p.hourly_cost
        );
    }
    Ok(())
}

/// `flower analyze`
pub fn analyze(args: &Args) -> CmdResult {
    let minutes = args.u64_or("minutes", 120)?;
    let seed = args.u64_or("seed", 42)?;
    println!("probing the flow for {minutes} min (static over-provisioned deployment)...");
    let mut probe = ElasticityManager::builder(
        FlowBuilder::new("probe")
            .ingestion(Platform::kinesis("clicks", 8))
            .analytics(Platform::storm("counter", 6))
            .storage(Platform::dynamo("aggregates", 400.0))
            .build()?,
    )
    .workload(Workload::diurnal(2_500.0, 2_000.0))
    .all_controllers(ControllerSpec::Static)
    .seed(seed)
    .build()?;
    probe.run_for_mins(minutes);

    let analyzer = DependencyAnalyzer::for_clickstream("clicks", "counter", "aggregates");
    let deps = analyzer.dependencies(probe.engine().metrics(), SimTime::ZERO, probe.now())?;
    if deps.is_empty() {
        println!("no dependencies above the correlation threshold");
    } else {
        println!("learned cross-layer dependencies (strongest first):");
        for d in &deps {
            println!("  {}", d.equation());
        }
    }
    Ok(())
}

/// `flower monitor`
pub fn monitor(args: &Args) -> CmdResult {
    let minutes = args.u64_or("minutes", 10)?;
    let seed = args.u64_or("seed", 0)?;
    let mut manager = ElasticityManager::builder(flow())
        .workload(Workload::diurnal(1_500.0, 1_200.0))
        .seed(seed)
        .build()?;
    manager.run_for_mins(minutes);
    let monitor = CrossPlatformMonitor::for_engine(manager.engine());
    let snapshot = monitor.snapshot(
        manager.engine().metrics(),
        manager.now(),
        SimDuration::from_mins(minutes.min(5)),
    );
    print!("{}", snapshot.to_table());
    Ok(())
}

/// `flower fleet <subcommand>`
pub fn fleet(args: &Args) -> CmdResult {
    match args.subcommand.as_deref() {
        Some("run") => fleet_run(args),
        Some(other) => Err(format!("unknown fleet subcommand '{other}' (try `fleet run`)").into()),
        None => Err("fleet needs a subcommand: `flower fleet run --config PATH`".into()),
    }
}

/// `flower fleet run`: the multi-flow fleet manager — many tenant
/// episodes on one scheduler, one global budget, one merged trace.
fn fleet_run(args: &Args) -> CmdResult {
    let path = args
        .get("config")
        .ok_or("fleet run needs --config PATH (a fleet TOML file)")?;
    let text = std::fs::read_to_string(path)?;
    let spec = flower_fleet::FleetSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let exec = match args.get("threads") {
        Some(raw) => {
            flower_par::Executor::new(raw.parse().map_err(|_| format!("bad --threads '{raw}'"))?)
        }
        None => flower_par::Executor::from_env(),
    };
    let policy = spec.policy;
    let budget = spec.budget;
    let fleet = flower_fleet::Fleet::new(spec)?;
    println!(
        "running a {}-tenant fleet ({} policy, ${budget:.2}/h global budget) on {} worker thread(s)",
        fleet.spec().flows.len(),
        policy.name(),
        exec.workers()
    );
    let report = fleet.run(exec)?;

    println!(
        "\n{} rebroker point(s), {} overspent window(s), {} tenant(s) re-run, total spend ${:.4}",
        report.rebrokers, report.overspends, report.reruns, report.total_spend
    );
    let mut by_spend: Vec<&flower_fleet::FlowOutcome> = report.flows.iter().collect();
    by_spend.sort_by(|a, b| b.spend.total_cmp(&a.spend).then_with(|| a.id.cmp(&b.id)));
    println!("top tenants by spend:");
    println!(
        "{:>20} {:>10} {:>10} {:>12} {:>8}",
        "flow", "spend $", "offered", "accepted", "events"
    );
    for flow in by_spend.iter().take(10) {
        println!(
            "{:>20} {:>10.4} {:>10} {:>12} {:>8}",
            flow.id.as_str(),
            flow.spend,
            flow.offered_records,
            flow.accepted_records,
            flow.events_emitted
        );
    }
    if report.flows.len() > 10 {
        println!("  ... and {} more", report.flows.len() - 10);
    }

    if let Some(out) = args.get("trace") {
        std::fs::write(out, &report.merged_trace)?;
        println!(
            "merged trace written to {out} ({} lines; filter one tenant with \
             `flower trace --in {out} --flow ID`)",
            report.merged_trace.lines().count()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(ToString::to_string)).expect("valid args")
    }

    #[test]
    fn usage_mentions_every_command() {
        let text = usage();
        for cmd in ["run", "plan", "analyze", "monitor", "trace", "help"] {
            assert!(text.contains(cmd), "usage missing {cmd}");
        }
    }

    #[test]
    fn replan_timeline_shows_warm_and_cold_rounds() {
        let recorder = flower_obs::Recorder::with_capacity(16);
        recorder.set_now(SimTime::from_mins(40));
        recorder.emit(
            kind::REPLAN_OUTCOME,
            &[
                ("dependencies", 3u32.into()),
                ("front_size", 12u32.into()),
                ("hourly_cost", 0.75.into()),
                ("warm", false.into()),
            ],
        );
        recorder.set_now(SimTime::from_mins(70));
        recorder.emit(
            kind::REPLAN_OUTCOME,
            &[
                ("dependencies", 3u32.into()),
                ("front_size", 11u32.into()),
                ("hourly_cost", 0.74.into()),
                ("warm", true.into()),
            ],
        );
        // A round from before the warm-start field existed.
        recorder.set_now(SimTime::from_mins(100));
        recorder.emit(
            kind::REPLAN_OUTCOME,
            &[
                ("dependencies", 2u32.into()),
                ("front_size", 9u32.into()),
                ("hourly_cost", 0.71.into()),
            ],
        );
        recorder.set_now(SimTime::from_mins(130));
        recorder.emit(kind::REPLAN_FAILED, &[("error", "no feasible plan".into())]);

        let trace = flower_obs::parse_trace(&recorder.to_jsonl()).unwrap();
        let lines = replan_timeline_lines(&trace);
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(
            lines[0].contains("cold ") && lines[0].contains("t=  2400s"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("warm ") && lines[1].contains("front  11"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("cold*"), "{}", lines[2]);
        assert!(
            lines[3].contains("failed: no feasible plan"),
            "{}",
            lines[3]
        );

        // A trace without replan events renders no timeline.
        let empty = flower_obs::Recorder::with_capacity(4);
        empty.emit(kind::ALARM_TRANSITION, &[("alarm", "x".into())]);
        let trace = flower_obs::parse_trace(&empty.to_jsonl()).unwrap();
        assert!(replan_timeline_lines(&trace).is_empty());
    }

    #[test]
    fn workload_kinds_build() {
        for kind in ["constant", "diurnal", "step", "flash", "bursts"] {
            assert!(workload(kind, 1_000.0, 1).is_ok(), "workload {kind}");
        }
        assert!(workload("nope", 1_000.0, 1).is_err());
    }

    #[test]
    fn controller_kinds_build() {
        for kind in [
            "adaptive",
            "fixed-gain",
            "quasi-adaptive",
            "rule-based",
            "static",
        ] {
            assert!(controller(kind).is_ok(), "controller {kind}");
        }
        assert!(controller("nope").is_err());
    }

    #[test]
    fn run_command_executes_and_writes_csv() {
        let dir = std::env::temp_dir().join("flower-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("episode.csv");
        let csv_str = csv.to_str().unwrap().to_owned();
        run(&args(&[
            "run",
            "--minutes",
            "2",
            "--workload",
            "constant",
            "--rate",
            "500",
            "--csv",
            &csv_str,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        assert!(text.starts_with("t_seconds,"));
        assert_eq!(text.lines().count(), 1 + 120);
        std::fs::remove_file(csv).ok();
    }

    #[test]
    fn run_with_trace_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join("flower-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("episode.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        run(&args(&[
            "run",
            "--minutes",
            "3",
            "--workload",
            "step",
            "--rate",
            "4000",
            "--trace",
            &path_str,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = flower_obs::parse_trace(&text).unwrap();
        assert!(!parsed.events.is_empty(), "traced run emitted no events");
        let counts = parsed.counts_by_kind();
        assert!(counts.contains_key(kind::CONTROL_DECISION), "{counts:?}");
        // The summary command consumes what the run command wrote.
        trace(&args(&["trace", "--in", &path_str])).unwrap();
        trace(&args(&[
            "trace",
            "--in",
            &path_str,
            "--field",
            "measurement",
        ]))
        .unwrap();
        std::fs::remove_file(path).ok();
    }

    /// A two-event trace whose field values hold a 2-byte "é" and a
    /// 3-byte "✓", and a scratch path to write it to.
    fn multibyte_trace(tag: &str) -> (String, std::path::PathBuf) {
        let recorder = Recorder::with_capacity(8);
        recorder.emit(kind::ALARM_TRANSITION, &[("alarm", "café".into())]);
        recorder.emit(kind::ALARM_TRANSITION, &[("alarm", "✓ ok".into())]);
        let dir = std::env::temp_dir().join(format!("flower-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        (recorder.to_jsonl(), dir.join("trace.jsonl"))
    }

    fn append(path: &std::path::Path, bytes: &[u8]) {
        let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        std::io::Write::write_all(&mut file, bytes).unwrap();
    }

    #[test]
    fn follow_reads_appends_split_inside_a_multibyte_character() {
        let (doc, path) = multibyte_trace("follow-split");
        let path_str = path.to_str().unwrap().to_owned();
        let e_acute = doc.find('é').unwrap();
        let check = doc.find('✓').unwrap();
        // Inside the 2-byte "é", and after each of the 3-byte "✓"'s
        // first two bytes.
        for split in [e_acute + 1, check + 1, check + 2] {
            std::fs::write(&path, &doc.as_bytes()[..split]).unwrap();
            let mut tail = Tail::open(&path_str).unwrap();
            let mut follower = flower_obs::TraceFollower::new();
            let first = tail.poll().unwrap();
            assert!(first.len() < split && doc.starts_with(&first), "{split}");
            follower.feed(&first).unwrap();
            assert_eq!(tail.poll().unwrap(), "", "nothing new appended");

            append(&path, &doc.as_bytes()[split..]);
            let second = tail.poll().unwrap();
            assert_eq!(format!("{first}{second}"), doc);
            follower.feed(&second).unwrap();
            assert!(follower.finished(), "summary followed at split {split}");
            assert_eq!(follower.events_seen(), 2);
        }
        follow(&path_str).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn follow_rejects_invalid_utf8_and_a_shrinking_file() {
        let (doc, path) = multibyte_trace("follow-reject");
        let path_str = path.to_str().unwrap().to_owned();
        std::fs::write(&path, &doc).unwrap();
        let mut tail = Tail::open(&path_str).unwrap();
        assert_eq!(tail.poll().unwrap(), doc);
        std::fs::write(&path, "{}").unwrap();
        let err = tail.poll().unwrap_err().to_string();
        assert!(err.contains("file shrank"), "{err}");

        // An invalid byte is an error, whether it arrives in the first
        // read or after earlier polls moved the offset.
        let e_acute = doc.find('é').unwrap();
        let mut bad = doc.as_bytes()[..e_acute].to_vec();
        bad.push(0xFF);
        std::fs::write(&path, &bad).unwrap();
        let err = Tail::open(&path_str)
            .unwrap()
            .poll()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("not UTF-8 at byte {e_acute}")),
            "{err}"
        );
        std::fs::write(&path, &bad[..e_acute - 3]).unwrap();
        let mut tail = Tail::open(&path_str).unwrap();
        tail.poll().unwrap();
        append(&path, &bad[e_acute - 3..]);
        let err = tail.poll().unwrap_err().to_string();
        assert!(
            err.contains(&format!("not UTF-8 at byte {e_acute}")),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_flag_is_rejected_with_config() {
        let result = run(&args(&[
            "run",
            "--minutes",
            "1",
            "--config",
            "/nonexistent",
            "--trace",
            "/tmp/t.jsonl",
        ]));
        let err = result.unwrap_err().to_string();
        assert!(err.contains("not supported"), "{err}");
    }

    #[test]
    fn fault_plan_resolves_presets_and_files() {
        assert!(!fault_plan("flaky-actuator").unwrap().is_empty());
        assert!(fault_plan("none").unwrap().is_empty());
        let err = fault_plan("nope").unwrap_err().to_string();
        assert!(err.contains("neither a preset"), "{err}");

        let dir = std::env::temp_dir().join("flower-cli-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.toml");
        std::fs::write(&path, FaultPlan::preset("stale-sensor").unwrap().to_toml()).unwrap();
        let from_file = fault_plan(path.to_str().unwrap()).unwrap();
        assert_eq!(from_file, FaultPlan::preset("stale-sensor").unwrap());
        std::fs::write(&path, "seed = what").unwrap();
        assert!(fault_plan(path.to_str().unwrap()).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn faults_flag_is_rejected_with_config() {
        let result = run(&args(&[
            "run",
            "--minutes",
            "1",
            "--config",
            "/nonexistent",
            "--faults",
            "flaky-actuator",
        ]));
        let err = result.unwrap_err().to_string();
        assert!(err.contains("not supported"), "{err}");
    }

    #[test]
    fn run_with_faults_traces_the_fault_timeline() {
        let dir = std::env::temp_dir().join("flower-cli-chaos-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chaos.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        run(&args(&[
            "run",
            "--minutes",
            "12",
            "--workload",
            "constant",
            "--rate",
            "4500",
            "--faults",
            "flaky-actuator",
            "--trace",
            &path_str,
        ]))
        .unwrap();
        let parsed = flower_obs::parse_trace(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(
            parsed.events.iter().any(|e| e.kind == "chaos.fault"),
            "faulted run must trace injected faults"
        );
        // The timeline panel renders what the run wrote.
        trace(&args(&["trace", "--in", &path_str])).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fleet_run_writes_a_filterable_merged_trace() {
        let dir = std::env::temp_dir().join("flower-cli-fleet-test");
        std::fs::create_dir_all(&dir).unwrap();
        let config = dir.join("fleet.toml");
        let trace_path = dir.join("fleet.jsonl");
        std::fs::write(
            &config,
            "budget = 2.0\nsettle_mins = 5\nhorizon_mins = 10\noverspend = false\n\
             [[flow]]\nid = \"t\"\nclones = 3\nseed = 40\nfast_forward = true\n",
        )
        .unwrap();
        let config_str = config.to_str().unwrap().to_owned();
        let trace_str = trace_path.to_str().unwrap().to_owned();
        fleet(&args(&[
            "fleet",
            "run",
            "--config",
            &config_str,
            "--threads",
            "2",
            "--trace",
            &trace_str,
        ]))
        .unwrap();
        let merged =
            flower_obs::parse_trace(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert_eq!(merged.flows(), vec!["t-000", "t-001", "t-002"]);

        // The trace command demuxes one tenant...
        trace(&args(&["trace", "--in", &trace_str, "--flow", "t-001"])).unwrap();
        // ...and names the known flows when asked for a missing one.
        let err = trace(&args(&["trace", "--in", &trace_str, "--flow", "nope"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("t-000"), "{err}");
        std::fs::remove_file(config).ok();
        std::fs::remove_file(trace_path).ok();
    }

    #[test]
    fn fleet_needs_a_known_subcommand_and_a_config() {
        let err = fleet(&args(&["fleet"])).unwrap_err().to_string();
        assert!(err.contains("subcommand"), "{err}");
        let err = fleet(&args(&["fleet", "plan"])).unwrap_err().to_string();
        assert!(err.contains("unknown fleet subcommand"), "{err}");
        let err = fleet(&args(&["fleet", "run"])).unwrap_err().to_string();
        assert!(err.contains("--config"), "{err}");
    }

    #[test]
    fn plan_command_executes() {
        plan(&args(&["plan", "--budget", "0.5"])).unwrap();
    }

    #[test]
    fn monitor_command_executes() {
        monitor(&args(&["monitor", "--minutes", "2"])).unwrap();
    }

    #[test]
    fn out_of_range_episode_values_are_errors() {
        for (flag, value) in [
            ("period", "0"),
            ("rate", "inf"),
            ("rate", "NaN"),
            ("rate", "-5"),
            ("replan", "0"),
        ] {
            let err = run(&args(&[
                "run",
                "--minutes",
                "1",
                &format!("--{flag}"),
                value,
            ]));
            assert!(
                err.unwrap_err().to_string().contains(flag),
                "--{flag} {value}"
            );
        }
        // `flower serve --replay` reads the same values from a
        // recording's episode map.
        let record = std::env::temp_dir().join("flower-cli-bad-episode.rec");
        for (key, value) in [("period", "0"), ("rate", "inf"), ("replan", "0")] {
            let episode = format!("{{\"{key}\":\"{value}\"}}");
            let header = format!(
                "{{\"schema\":\"flower-record/v1\",\"proto\":\"flower-wire/v1\",\"episode\":{episode}}}\n"
            );
            std::fs::write(&record, header).unwrap();
            let path = record.to_str().unwrap();
            let err = crate::live::serve(&args(&["serve", "--replay", path])).unwrap_err();
            assert!(err.to_string().contains(key), "{key} = {value}: {err}");
        }
        let _ = std::fs::remove_file(record);
        assert!(EpisodeSpec::from_args(&args(&["run", "--rate", "0"])).is_ok());
    }

    #[test]
    fn bad_workload_surfaces_as_error() {
        let result = run(&args(&["run", "--minutes", "1", "--workload", "nope"]));
        assert!(result.is_err());
    }
}
