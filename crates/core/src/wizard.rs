//! The Flow Configuration Wizard as a file format.
//!
//! The demo's step 2 (§4) walks the attendee through "a wizard to
//! configure the controllers with information such as resource name
//! (e.g. table name in DynamoDB), desired reference value, and monitoring
//! period". This module captures the wizard's full outcome — flow,
//! workload, controllers, monitoring period, seed — as a
//! [`WizardConfig`] that round-trips through a simple `key = value`
//! text format and materializes into a runnable [`ElasticityManager`].
//! The file is read with [`flower_sim::conf`], the reader of the fleet
//! and fault-plan files, less their `[[section]]` headers: a `#` outside
//! quotes starts a comment, and a quoted value loses its quotes.
//!
//! ```text
//! # flower wizard config
//! flow.name        = clickstream-analytics
//! ingestion.name   = clicks
//! ingestion.shards = 2
//! analytics.name   = counter
//! analytics.vms    = 2
//! storage.name     = aggregates
//! storage.wcu      = 100
//! workload.scenario = diurnal
//! workload.rate    = 1500
//! controller.ingestion = adaptive:70
//! controller.analytics = adaptive:60
//! controller.storage   = adaptive-capacity:70
//! monitoring.period_secs = 30
//! seed = 7
//! ```

use std::collections::BTreeMap;

use flower_sim::conf::{self, Line};
use flower_sim::SimDuration;
use flower_workload::Scenario;

use crate::config::ControllerSpec;
use crate::elasticity::{ElasticityManager, Workload};
use crate::error::FlowerError;
use crate::flow::{FlowBuilder, FlowSpec, Layer, Platform};

/// The wizard's complete outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WizardConfig {
    /// The flow definition.
    pub flow: FlowSpec,
    /// Workload scenario name (see [`Scenario`]).
    pub scenario: Scenario,
    /// Base arrival rate in records/second.
    pub rate: f64,
    /// Controller per layer.
    pub controllers: [ControllerSpec; 3],
    /// Monitoring period in seconds.
    pub period_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl WizardConfig {
    /// The demo's default session.
    pub fn demo_default() -> WizardConfig {
        WizardConfig {
            flow: crate::flow::clickstream_flow(),
            scenario: Scenario::Diurnal,
            rate: 1_500.0,
            controllers: [
                ControllerSpec::adaptive(70.0),
                ControllerSpec::adaptive(60.0),
                ControllerSpec::adaptive_for_capacity(70.0),
            ],
            period_secs: 30,
            seed: 0,
        }
    }

    /// Serialize to the `key = value` wizard format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# flower wizard config\n");
        out.push_str(&format!("flow.name = {}\n", self.flow.name));
        match &self.flow.ingestion {
            Platform::Kinesis { name, shards } => {
                out.push_str(&format!("ingestion.name = {name}\n"));
                out.push_str(&format!("ingestion.shards = {shards}\n"));
            }
            _ => unreachable!("validated flow"),
        }
        match &self.flow.analytics {
            Platform::Storm { name, vms } => {
                out.push_str(&format!("analytics.name = {name}\n"));
                out.push_str(&format!("analytics.vms = {vms}\n"));
            }
            _ => unreachable!("validated flow"),
        }
        match &self.flow.storage {
            Platform::Dynamo { name, wcu } => {
                out.push_str(&format!("storage.name = {name}\n"));
                out.push_str(&format!("storage.wcu = {wcu}\n"));
            }
            _ => unreachable!("validated flow"),
        }
        out.push_str(&format!("workload.scenario = {}\n", self.scenario.name()));
        out.push_str(&format!("workload.rate = {}\n", self.rate));
        for (layer, spec) in Layer::ALL.into_iter().zip(&self.controllers) {
            out.push_str(&format!(
                "controller.{} = {}\n",
                layer.label(),
                spec_to_text(spec)
            ));
        }
        out.push_str(&format!("monitoring.period_secs = {}\n", self.period_secs));
        out.push_str(&format!("seed = {}\n", self.seed));
        out
    }

    /// Parse the wizard format. Unknown keys are rejected (a typo in a
    /// config must not be silently ignored); missing keys fall back to
    /// the demo defaults. Values the manager builder would assert
    /// against (a zero period, a rate that is not positive) are errors
    /// naming their key.
    pub fn from_text(text: &str) -> Result<WizardConfig, FlowerError> {
        let invalid = FlowerError::InvalidConfig;
        let mut map: BTreeMap<&str, &str> = BTreeMap::new();
        for line in conf::lines(text) {
            match line.map_err(invalid)? {
                (_, Line::Pair { key, value }) => {
                    map.insert(key, value);
                }
                (lineno, Line::Section(name)) => {
                    return Err(invalid(format!(
                        "line {lineno}: the wizard format has no sections, got [[{name}]]"
                    )));
                }
            }
        }

        const KNOWN: [&str; 13] = [
            "flow.name",
            "ingestion.name",
            "ingestion.shards",
            "analytics.name",
            "analytics.vms",
            "storage.name",
            "storage.wcu",
            "workload.scenario",
            "workload.rate",
            "controller.ingestion",
            "controller.analytics",
            "controller.storage",
            "monitoring.period_secs",
        ];
        for key in map.keys() {
            if *key != "seed" && !KNOWN.contains(key) {
                return Err(invalid(format!("unknown key '{key}'")));
            }
        }

        let defaults = WizardConfig::demo_default();
        let get = |k: &str| map.get(k).copied();
        let parse_u64 = |k: &str, d: u64| -> Result<u64, FlowerError> {
            get(k).map_or(Ok(d), |v| conf::parse_u64(k, v).map_err(invalid))
        };
        let parse_u32 = |k: &str, d: u32| -> Result<u32, FlowerError> {
            u32::try_from(parse_u64(k, d.into())?)
                .map_err(|_| invalid(format!("`{k}` must fit a 32-bit count")))
        };
        let parse_f64 = |k: &str, d: f64| -> Result<f64, FlowerError> {
            get(k).map_or(Ok(d), |v| conf::parse_f64(k, v).map_err(invalid))
        };

        let flow = FlowBuilder::new(get("flow.name").unwrap_or(&defaults.flow.name))
            .ingestion(Platform::kinesis(
                get("ingestion.name").unwrap_or("clicks"),
                parse_u32("ingestion.shards", 2)?,
            ))
            .analytics(Platform::storm(
                get("analytics.name").unwrap_or("counter"),
                parse_u32("analytics.vms", 2)?,
            ))
            .storage(Platform::dynamo(
                get("storage.name").unwrap_or("aggregates"),
                parse_f64("storage.wcu", 100.0)?,
            ))
            .build()?;

        let scenario = match get("workload.scenario") {
            None => defaults.scenario,
            Some(name) => Scenario::by_name(name).ok_or_else(|| {
                FlowerError::InvalidConfig(format!("unknown workload scenario '{name}'"))
            })?,
        };

        let controller_for =
            |key: &str, d: &ControllerSpec| -> Result<ControllerSpec, FlowerError> {
                match get(key) {
                    None => Ok(d.clone()),
                    Some(v) => spec_from_text(v),
                }
            };

        let rate = parse_f64("workload.rate", defaults.rate)?;
        if rate <= 0.0 {
            return Err(invalid(format!(
                "`workload.rate` must be > 0, got `{rate}`"
            )));
        }
        let period_secs = parse_u64("monitoring.period_secs", defaults.period_secs)?;
        if period_secs == 0 {
            return Err(invalid(
                "`monitoring.period_secs` must be at least 1, got `0`".to_owned(),
            ));
        }

        Ok(WizardConfig {
            flow,
            scenario,
            rate,
            controllers: {
                let [d_ingest, d_analytics, d_storage] = &defaults.controllers;
                [
                    controller_for("controller.ingestion", d_ingest)?,
                    controller_for("controller.analytics", d_analytics)?,
                    controller_for("controller.storage", d_storage)?,
                ]
            },
            period_secs,
            seed: parse_u64("seed", defaults.seed)?,
        })
    }

    /// Materialize a runnable elasticity manager from the wizard outcome.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowerError::InvalidConfig`] from
    /// [`crate::elasticity::ElasticityManagerBuilder::build`]; a parsed
    /// wizard config always
    /// carries a workload, so this only fires on hand-constructed configs.
    pub fn build_manager(&self) -> Result<ElasticityManager, FlowerError> {
        let mut builder = ElasticityManager::builder(self.flow.clone())
            .workload(Workload::custom(self.scenario.build(self.rate, self.seed)))
            .monitoring_period(SimDuration::from_secs(self.period_secs))
            .seed(self.seed);
        for (layer, spec) in Layer::ALL.into_iter().zip(self.controllers.clone()) {
            builder = builder.controller(layer, spec);
        }
        builder.build()
    }
}

/// `kind:setpoint` controller shorthand used in the wizard format.
fn spec_to_text(spec: &ControllerSpec) -> String {
    match spec {
        ControllerSpec::Adaptive {
            setpoint, l_max, ..
        } if *l_max > 0.5 => {
            format!("adaptive-capacity:{setpoint}")
        }
        ControllerSpec::Adaptive { setpoint, .. } => format!("adaptive:{setpoint}"),
        ControllerSpec::FixedGain { setpoint, .. } => format!("fixed-gain:{setpoint}"),
        ControllerSpec::QuasiAdaptive { setpoint, .. } => {
            format!("quasi-adaptive:{setpoint}")
        }
        // `rule_based(sp)` sets `high = sp + 15`; invert that so the
        // rendered text re-parses to an identical spec.
        ControllerSpec::RuleBased { high, .. } => format!("rule-based:{}", high - 15.0),
        ControllerSpec::Static => "static".to_owned(),
    }
}

fn spec_from_text(text: &str) -> Result<ControllerSpec, FlowerError> {
    if text == "static" {
        return Ok(ControllerSpec::Static);
    }
    let (kind, setpoint) = text.split_once(':').ok_or_else(|| {
        FlowerError::InvalidConfig(format!(
            "controller '{text}' must be 'kind:setpoint' or 'static'"
        ))
    })?;
    let setpoint: f64 = setpoint.trim().parse().map_err(|_| {
        FlowerError::InvalidConfig(format!("controller setpoint '{setpoint}' is not a number"))
    })?;
    match kind.trim() {
        "adaptive" => Ok(ControllerSpec::adaptive(setpoint)),
        "adaptive-capacity" => Ok(ControllerSpec::adaptive_for_capacity(setpoint)),
        "fixed-gain" => Ok(ControllerSpec::fixed_gain(setpoint)),
        "quasi-adaptive" => Ok(ControllerSpec::quasi_adaptive(setpoint)),
        "rule-based" => Ok(ControllerSpec::rule_based(setpoint)),
        other => Err(FlowerError::InvalidConfig(format!(
            "unknown controller kind '{other}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_text() {
        let config = WizardConfig::demo_default();
        let text = config.to_text();
        let parsed = WizardConfig::from_text(&text).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn sparse_config_fills_defaults() {
        let parsed = WizardConfig::from_text("workload.rate = 900\nseed = 5\n").unwrap();
        assert_eq!(parsed.rate, 900.0);
        assert_eq!(parsed.seed, 5);
        assert_eq!(parsed.scenario, Scenario::Diurnal);
        assert_eq!(parsed.flow.name, "clickstream-analytics");
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# hello\n\n  # indented comment\nseed = 3\n";
        assert_eq!(WizardConfig::from_text(text).unwrap().seed, 3);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = WizardConfig::from_text("workload.rte = 900\n").unwrap_err();
        assert!(matches!(err, FlowerError::InvalidConfig(ref m) if m.contains("workload.rte")));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let err = WizardConfig::from_text("just some words\n").unwrap_err();
        assert!(matches!(err, FlowerError::InvalidConfig(ref m) if m.contains("line 1")));
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(WizardConfig::from_text("seed = soon\n").is_err());
        assert!(WizardConfig::from_text("workload.scenario = tsunami\n").is_err());
        assert!(WizardConfig::from_text("controller.ingestion = psychic\n").is_err());
        assert!(WizardConfig::from_text("controller.ingestion = psychic:60\n").is_err());
        assert!(WizardConfig::from_text("controller.ingestion = adaptive:hot\n").is_err());
        // Values the manager builder would assert against name their key.
        for (text, key) in [
            ("monitoring.period_secs = 0", "monitoring.period_secs"),
            ("workload.rate = inf", "workload.rate"),
            ("workload.rate = NaN", "workload.rate"),
            ("workload.rate = -500", "workload.rate"),
            ("workload.rate = 0", "workload.rate"),
            ("storage.wcu = NaN", "storage.wcu"),
            ("storage.wcu = inf", "storage.wcu"),
            ("ingestion.shards = 4294967298", "ingestion.shards"),
        ] {
            let err = WizardConfig::from_text(text).unwrap_err().to_string();
            assert!(err.contains(key), "{text}: {err}");
        }
        // Finite but out of the table's range: the flow builder says so.
        let err = WizardConfig::from_text("storage.wcu = 1e9").unwrap_err();
        assert!(err.to_string().contains("WCU"), "{err}");
        assert!(WizardConfig::from_text("[[flow]]\nseed = 1").is_err());
    }

    #[test]
    fn every_controller_kind_round_trips() {
        for text in [
            "adaptive:65",
            "adaptive-capacity:70",
            "fixed-gain:55",
            "quasi-adaptive:60",
            "rule-based:50",
            "static",
        ] {
            let spec = spec_from_text(text).unwrap();
            let rendered = spec_to_text(&spec);
            assert_eq!(spec_from_text(&rendered).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn built_manager_runs() {
        let config = WizardConfig::from_text(
            "workload.scenario = steady\nworkload.rate = 600\nseed = 2\nmonitoring.period_secs = 20\n",
        )
        .unwrap();
        let mut manager = config.build_manager().unwrap();
        let report = manager.run_for_mins(3);
        assert_eq!(report.arrival_trace.len(), 180);
        assert!(report.total_cost_dollars > 0.0);
    }

    #[test]
    fn custom_flow_names_propagate() {
        let text =
            "ingestion.name = in\nanalytics.name = an\nstorage.name = st\nstorage.wcu = 55\n";
        let parsed = WizardConfig::from_text(text).unwrap();
        assert_eq!(parsed.flow.ingestion.name(), "in");
        assert_eq!(parsed.flow.storage.name(), "st");
        if let Platform::Dynamo { wcu, .. } = parsed.flow.storage {
            assert_eq!(wcu, 55.0);
        } else {
            panic!("storage platform kind");
        }
    }
}
