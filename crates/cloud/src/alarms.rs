//! CloudWatch-like metric alarms.
//!
//! An [`Alarm`] watches one metric statistic over a period and moves
//! through the CloudWatch state machine `INSUFFICIENT_DATA → OK ⇄ ALARM`
//! after a configurable number of consecutive breaching evaluations.
//! The demo's rule-based autoscaling baseline is exactly "alarm → scaling
//! action", and the cross-platform monitor surfaces alarm states next to
//! the raw metrics.

use flower_sim::{SimDuration, SimTime};

use crate::metrics::{MetricId, MetricsStore, Statistic};

/// Comparison operator of an alarm condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Breach when `value > threshold`.
    GreaterThan,
    /// Breach when `value >= threshold`.
    GreaterOrEqual,
    /// Breach when `value < threshold`.
    LessThan,
    /// Breach when `value <= threshold`.
    LessOrEqual,
}

impl Comparison {
    fn breaches(self, value: f64, threshold: f64) -> bool {
        match self {
            Comparison::GreaterThan => value > threshold,
            Comparison::GreaterOrEqual => value >= threshold,
            Comparison::LessThan => value < threshold,
            Comparison::LessOrEqual => value <= threshold,
        }
    }
}

/// Alarm states, following CloudWatch's three-state model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmState {
    /// Not enough datapoints to evaluate yet.
    InsufficientData,
    /// The condition does not hold.
    Ok,
    /// The condition held for the configured number of evaluations.
    Alarm,
}

impl std::fmt::Display for AlarmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AlarmState::InsufficientData => "INSUFFICIENT_DATA",
            AlarmState::Ok => "OK",
            AlarmState::Alarm => "ALARM",
        })
    }
}

/// A state transition, returned when an evaluation changes the state.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmTransition {
    /// Alarm name.
    pub alarm: String,
    /// When the transition happened.
    pub at: SimTime,
    /// Previous state.
    pub from: AlarmState,
    /// New state.
    pub to: AlarmState,
    /// The statistic value that drove the transition (`None` for
    /// transitions into `INSUFFICIENT_DATA`).
    pub value: Option<f64>,
}

/// A metric alarm.
#[derive(Debug, Clone)]
pub struct Alarm {
    /// Alarm name.
    pub name: String,
    /// The watched metric.
    pub metric: MetricId,
    /// Statistic evaluated per period.
    pub statistic: Statistic,
    /// Evaluation period.
    pub period: SimDuration,
    /// Threshold compared against.
    pub threshold: f64,
    /// Comparison direction.
    pub comparison: Comparison,
    /// Consecutive breaching evaluations required to enter `ALARM`
    /// (and non-breaching ones to return to `OK`).
    pub evaluation_periods: u32,
    state: AlarmState,
    breaching_streak: u32,
    ok_streak: u32,
}

impl Alarm {
    /// Create an alarm in the `INSUFFICIENT_DATA` state.
    pub fn new(
        name: impl Into<String>,
        metric: MetricId,
        statistic: Statistic,
        period: SimDuration,
        comparison: Comparison,
        threshold: f64,
        evaluation_periods: u32,
    ) -> Alarm {
        assert!(!period.is_zero(), "alarm period must be non-zero");
        assert!(
            evaluation_periods >= 1,
            "need at least one evaluation period"
        );
        Alarm {
            name: name.into(),
            metric,
            statistic,
            period,
            threshold,
            comparison,
            evaluation_periods,
            state: AlarmState::InsufficientData,
            breaching_streak: 0,
            ok_streak: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> AlarmState {
        self.state
    }

    /// Evaluate the alarm at `now` against the store (reads the last full
    /// period `[now − period, now)`). Returns a transition when the state
    /// changed.
    pub fn evaluate(&mut self, store: &MetricsStore, now: SimTime) -> Option<AlarmTransition> {
        let value = store.window_stat(&self.metric, self.statistic, now - self.period, now);
        let new_state = match value {
            None => {
                self.breaching_streak = 0;
                self.ok_streak = 0;
                AlarmState::InsufficientData
            }
            Some(v) => {
                if self.comparison.breaches(v, self.threshold) {
                    self.breaching_streak += 1;
                    self.ok_streak = 0;
                } else {
                    self.ok_streak += 1;
                    self.breaching_streak = 0;
                }
                if self.breaching_streak >= self.evaluation_periods {
                    AlarmState::Alarm
                } else if self.ok_streak >= self.evaluation_periods
                    || self.state == AlarmState::InsufficientData
                {
                    AlarmState::Ok
                } else {
                    self.state // streak not long enough: hold
                }
            }
        };
        if new_state != self.state {
            let transition = AlarmTransition {
                alarm: self.name.clone(),
                at: now,
                from: self.state,
                to: new_state,
                value,
            };
            self.state = new_state;
            Some(transition)
        } else {
            None
        }
    }
}

/// A set of alarms evaluated together (per monitoring tick).
#[derive(Debug, Clone, Default)]
pub struct AlarmSet {
    alarms: Vec<Alarm>,
    history: Vec<AlarmTransition>,
}

impl AlarmSet {
    /// An empty set.
    pub fn new() -> AlarmSet {
        AlarmSet::default()
    }

    /// Add an alarm. Names must be unique.
    pub fn add(&mut self, alarm: Alarm) {
        assert!(
            !self.alarms.iter().any(|a| a.name == alarm.name),
            "duplicate alarm name '{}'",
            alarm.name
        );
        self.alarms.push(alarm);
    }

    /// Number of alarms.
    pub fn len(&self) -> usize {
        self.alarms.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.alarms.is_empty()
    }

    /// Evaluate every alarm; returns this round's transitions.
    pub fn evaluate(&mut self, store: &MetricsStore, now: SimTime) -> Vec<AlarmTransition> {
        let mut out = Vec::new();
        for alarm in &mut self.alarms {
            if let Some(t) = alarm.evaluate(store, now) {
                out.push(t.clone());
                self.history.push(t);
            }
        }
        out
    }

    /// The state of a named alarm.
    pub fn state(&self, name: &str) -> Option<AlarmState> {
        self.alarms
            .iter()
            .find(|a| a.name == name)
            .map(Alarm::state)
    }

    /// All alarms in the set, in registration order (the consolidated
    /// monitor view renders every alarm with its state, not just the
    /// firing ones).
    pub fn iter(&self) -> impl Iterator<Item = &Alarm> {
        self.alarms.iter()
    }

    /// `(name, state)` for every alarm, in registration order.
    pub fn states(&self) -> Vec<(&str, AlarmState)> {
        self.alarms
            .iter()
            .map(|a| (a.name.as_str(), a.state()))
            .collect()
    }

    /// All alarms currently in `ALARM`.
    pub fn firing(&self) -> Vec<&Alarm> {
        self.alarms
            .iter()
            .filter(|a| a.state() == AlarmState::Alarm)
            .collect()
    }

    /// Every transition ever observed, in order.
    pub fn history(&self) -> &[AlarmTransition] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> MetricId {
        MetricId::new("Storm", "CpuUtilization", "counter")
    }

    fn store_with(values: &[f64]) -> MetricsStore {
        let mut store = MetricsStore::new();
        let cpu = store.register(id());
        for (i, &v) in values.iter().enumerate() {
            store.push(cpu, SimTime::from_secs(i as u64 * 60), v);
        }
        store
    }

    fn cpu_alarm(evaluations: u32) -> Alarm {
        Alarm::new(
            "cpu-high",
            id(),
            Statistic::Average,
            SimDuration::from_secs(60),
            Comparison::GreaterThan,
            80.0,
            evaluations,
        )
    }

    #[test]
    fn starts_insufficient_then_ok() {
        let mut alarm = cpu_alarm(2);
        assert_eq!(alarm.state(), AlarmState::InsufficientData);
        let store = store_with(&[50.0]);
        let t = alarm
            .evaluate(&store, SimTime::from_secs(60))
            .expect("transition to OK");
        assert_eq!(t.from, AlarmState::InsufficientData);
        assert_eq!(t.to, AlarmState::Ok);
        assert_eq!(t.value, Some(50.0));
    }

    #[test]
    fn needs_consecutive_breaches_to_fire() {
        let mut alarm = cpu_alarm(2);
        let store = store_with(&[50.0, 90.0, 95.0]);
        assert!(alarm.evaluate(&store, SimTime::from_secs(60)).is_some()); // → OK
        assert!(alarm.evaluate(&store, SimTime::from_secs(120)).is_none()); // 1st breach holds
        assert_eq!(alarm.state(), AlarmState::Ok);
        let t = alarm
            .evaluate(&store, SimTime::from_secs(180))
            .expect("2nd consecutive breach fires");
        assert_eq!(t.to, AlarmState::Alarm);
    }

    #[test]
    fn recovers_after_consecutive_ok_evaluations() {
        let mut alarm = cpu_alarm(2);
        let store = store_with(&[90.0, 95.0, 50.0, 40.0]);
        alarm.evaluate(&store, SimTime::from_secs(60)); // → OK? value 90 breaches…
                                                        // First evaluation from INSUFFICIENT_DATA with a breach: streak 1,
                                                        // not yet ALARM, so state becomes OK (data exists).
        assert_eq!(alarm.state(), AlarmState::Ok);
        alarm.evaluate(&store, SimTime::from_secs(120)); // breach #2 → ALARM
        assert_eq!(alarm.state(), AlarmState::Alarm);
        assert!(alarm.evaluate(&store, SimTime::from_secs(180)).is_none()); // ok #1 holds
        let t = alarm
            .evaluate(&store, SimTime::from_secs(240))
            .expect("ok #2 recovers");
        assert_eq!(t.to, AlarmState::Ok);
    }

    #[test]
    fn missing_data_resets_to_insufficient() {
        let mut alarm = cpu_alarm(1);
        let store = store_with(&[90.0]);
        alarm.evaluate(&store, SimTime::from_secs(60));
        assert_eq!(alarm.state(), AlarmState::Alarm);
        // A window with no datapoints.
        let t = alarm
            .evaluate(&store, SimTime::from_secs(600))
            .expect("transition");
        assert_eq!(t.to, AlarmState::InsufficientData);
        assert_eq!(t.value, None);
    }

    #[test]
    fn default_tolerance_keeps_strict_reset() {
        // An alarm tolerates no empty window: the first one resets it.
        let mut alarm = cpu_alarm(1);
        let store = store_with(&[90.0]);
        alarm.evaluate(&store, SimTime::from_secs(60));
        assert_eq!(alarm.state(), AlarmState::Alarm);
        let t = alarm
            .evaluate(&store, SimTime::from_secs(600))
            .expect("strict alarms reset on the first empty window");
        assert_eq!(t.to, AlarmState::InsufficientData);
    }

    #[test]
    fn comparison_directions() {
        assert!(Comparison::GreaterThan.breaches(81.0, 80.0));
        assert!(!Comparison::GreaterThan.breaches(80.0, 80.0));
        assert!(Comparison::GreaterOrEqual.breaches(80.0, 80.0));
        assert!(Comparison::LessThan.breaches(79.0, 80.0));
        assert!(!Comparison::LessThan.breaches(80.0, 80.0));
        assert!(Comparison::LessOrEqual.breaches(80.0, 80.0));
    }

    #[test]
    fn alarm_set_tracks_transitions_and_firing() {
        let mut set = AlarmSet::new();
        set.add(cpu_alarm(1));
        set.add(Alarm::new(
            "cpu-low",
            id(),
            Statistic::Average,
            SimDuration::from_secs(60),
            Comparison::LessThan,
            30.0,
            1,
        ));
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());

        let store = store_with(&[90.0, 20.0]);
        let transitions = set.evaluate(&store, SimTime::from_secs(60));
        assert_eq!(transitions.len(), 2, "both alarms leave INSUFFICIENT_DATA");
        assert_eq!(set.state("cpu-high"), Some(AlarmState::Alarm));
        assert_eq!(set.state("cpu-low"), Some(AlarmState::Ok));
        assert_eq!(set.firing().len(), 1);

        let transitions = set.evaluate(&store, SimTime::from_secs(120));
        assert_eq!(transitions.len(), 2, "both flip at the second sample");
        assert_eq!(set.state("cpu-high"), Some(AlarmState::Ok));
        assert_eq!(set.state("cpu-low"), Some(AlarmState::Alarm));
        assert_eq!(set.history().len(), 4);
        assert_eq!(set.state("absent"), None);
    }

    #[test]
    fn iteration_exposes_every_alarm_with_state() {
        let mut set = AlarmSet::new();
        set.add(cpu_alarm(1));
        set.add(Alarm::new(
            "cpu-low",
            id(),
            Statistic::Average,
            SimDuration::from_secs(60),
            Comparison::LessThan,
            30.0,
            1,
        ));
        let names: Vec<&str> = set.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["cpu-high", "cpu-low"]);
        assert_eq!(
            set.states(),
            vec![
                ("cpu-high", AlarmState::InsufficientData),
                ("cpu-low", AlarmState::InsufficientData),
            ]
        );
        let store = store_with(&[90.0]);
        set.evaluate(&store, SimTime::from_secs(60));
        assert_eq!(
            set.states(),
            vec![("cpu-high", AlarmState::Alarm), ("cpu-low", AlarmState::Ok)]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate alarm name")]
    fn duplicate_names_rejected() {
        let mut set = AlarmSet::new();
        set.add(cpu_alarm(1));
        set.add(cpu_alarm(1));
    }

    #[test]
    fn display_states() {
        assert_eq!(AlarmState::Alarm.to_string(), "ALARM");
        assert_eq!(AlarmState::Ok.to_string(), "OK");
        assert_eq!(
            AlarmState::InsufficientData.to_string(),
            "INSUFFICIENT_DATA"
        );
    }
}
