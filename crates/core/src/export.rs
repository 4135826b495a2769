//! CSV export of episode artifacts.
//!
//! Experiment binaries and downstream plotting tools consume episodes as
//! flat CSV: one row per simulated second with every trace column, plus
//! a compact summary. Hand-rolled writers keep the dependency set small;
//! the output opens in ordinary spreadsheet tools.

use std::io::Write;

use crate::elasticity::EpisodeReport;
use crate::flow::Layer;

/// Write the per-tick traces of an episode as CSV.
///
/// Columns: `t_seconds, arrival_rate, ingest_util_pct, shards,
/// cpu_pct, vms, write_util_pct, wcu, read_util_pct, rcu`.
pub fn episode_to_csv<W: Write>(report: &EpisodeReport, mut w: W) -> std::io::Result<()> {
    writeln!(
        w,
        "t_seconds,arrival_rate,ingest_util_pct,shards,cpu_pct,vms,write_util_pct,wcu,read_util_pct,rcu"
    )?;
    let n = report.arrival_trace.len();
    for i in 0..n {
        let (t, arrival) = report.arrival_trace[i];
        let get = |trace: &[(flower_sim::SimTime, f64)]| {
            trace.get(i).map(|&(_, v)| v).unwrap_or(f64::NAN)
        };
        writeln!(
            w,
            "{},{arrival},{},{},{},{},{},{},{},{}",
            t.as_secs(),
            get(report.measurements(Layer::INGESTION)),
            get(report.actuators(Layer::INGESTION)),
            get(report.measurements(Layer::ANALYTICS)),
            get(report.actuators(Layer::ANALYTICS)),
            get(report.measurements(Layer::STORAGE)),
            get(report.actuators(Layer::STORAGE)),
            get(&report.read_utilization_trace),
            get(&report.rcu_trace),
        )?;
    }
    Ok(())
}

/// Write the episode's scalar summary as a two-column `key,value` CSV.
pub fn summary_to_csv<W: Write>(report: &EpisodeReport, mut w: W) -> std::io::Result<()> {
    writeln!(w, "key,value")?;
    writeln!(w, "offered_records,{}", report.offered_records)?;
    writeln!(w, "accepted_records,{}", report.accepted_records)?;
    writeln!(w, "throttled_ingest,{}", report.throttled_ingest)?;
    writeln!(w, "throttled_storage,{}", report.throttled_storage)?;
    writeln!(w, "throttled_reads,{}", report.throttled_reads)?;
    writeln!(w, "dropped_tuples,{}", report.dropped_tuples)?;
    writeln!(w, "total_cost_dollars,{}", report.total_cost_dollars)?;
    writeln!(w, "ingest_loss_rate,{}", report.ingest_loss_rate())?;
    for (layer, actions) in report.layers.iter().zip(&report.scaling_actions) {
        writeln!(w, "scaling_actions_{},{actions}", layer.label())?;
    }
    writeln!(w, "rcu_actions,{}", report.rcu_actions)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerSpec;
    use crate::flow::clickstream_flow;
    use crate::prelude::*;

    fn small_report() -> EpisodeReport {
        let mut manager = ElasticityManager::builder(clickstream_flow())
            .workload(Workload::constant(800.0))
            .all_controllers(ControllerSpec::Static)
            .seed(3)
            .build()
            .unwrap();
        manager.run_for_mins(2)
    }

    #[test]
    fn episode_csv_has_header_and_all_rows() {
        let report = small_report();
        let mut buf = Vec::new();
        episode_to_csv(&report, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 120, "header + one row per second");
        assert!(lines[0].starts_with("t_seconds,arrival_rate"));
        assert_eq!(lines[0].split(',').count(), 10);
        // Every data row parses as numbers.
        for row in &lines[1..] {
            for cell in row.split(',') {
                cell.parse::<f64>()
                    .unwrap_or_else(|_| panic!("bad cell {cell}"));
            }
        }
        // Time column counts up in seconds.
        assert!(lines[1].starts_with("0,"));
        assert!(lines[120].starts_with("119,"));
    }

    #[test]
    fn ragged_traces_round_trip_nan_cells() {
        let t = |s: u64| flower_sim::SimTime::from_secs(s);
        // A hand-built report whose traces are shorter than the arrival
        // trace (a ragged episode): missing cells take the NaN fill and
        // must survive a CSV round-trip.
        let report = EpisodeReport {
            layers: Layer::ALL.to_vec(),
            arrival_trace: vec![(t(0), 100.0), (t(1), 110.0), (t(2), 120.0)],
            measurement_traces: vec![
                vec![(t(0), 50.0), (t(1), 55.0)], // one short
                vec![(t(0), 40.0)],               // two short
                Vec::new(),                       // empty
            ],
            actuator_traces: vec![
                vec![(t(0), 2.0), (t(1), 2.0), (t(2), 3.0)],
                vec![(t(0), 2.0)],
                Vec::new(),
            ],
            read_utilization_trace: Vec::new(),
            rcu_trace: vec![(t(0), 100.0), (t(1), 100.0)],
            total_cost_dollars: 0.0,
            throttled_ingest: 0,
            throttled_storage: 0,
            stored_items: 0,
            dropped_tuples: 0,
            offered_records: 0,
            accepted_records: 0,
            scaling_actions: vec![0; 3],
            rejected_actuations: vec![0; 3],
            throttled_reads: 0,
            rcu_actions: 0,
            events_executed: 0,
            queue_high_water: 0,
        };
        let mut buf = Vec::new();
        episode_to_csv(&report, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 3, "header + one row per arrival tick");
        assert_eq!(
            lines[0],
            "t_seconds,arrival_rate,ingest_util_pct,shards,cpu_pct,vms,write_util_pct,wcu,read_util_pct,rcu"
        );
        let rows: Vec<Vec<f64>> = lines[1..]
            .iter()
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        for row in &rows {
            assert_eq!(row.len(), 10, "every row carries every column");
        }
        // Present cells survive verbatim...
        assert_eq!(rows[0][0], 0.0);
        assert_eq!(rows[2][1], 120.0);
        assert_eq!(rows[1][2], 55.0);
        assert_eq!(rows[2][3], 3.0);
        // ...and cells past a trace's end round-trip as NaN.
        assert!(rows[2][2].is_nan(), "ingest_util past its trace end");
        assert!(rows[1][4].is_nan() && rows[2][4].is_nan(), "cpu_pct tail");
        assert!(rows[1][5].is_nan(), "vms tail");
        assert!(rows.iter().all(|r| r[6].is_nan()), "empty write_util trace");
        assert!(rows.iter().all(|r| r[7].is_nan()), "empty wcu trace");
        assert!(rows.iter().all(|r| r[8].is_nan()), "empty read_util trace");
        assert!(rows[2][9].is_nan() && !rows[0][9].is_nan(), "rcu tail only");
    }

    #[test]
    fn summary_csv_contains_all_keys() {
        let report = small_report();
        let mut buf = Vec::new();
        summary_to_csv(&report, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for key in [
            "offered_records",
            "accepted_records",
            "throttled_ingest",
            "throttled_storage",
            "throttled_reads",
            "dropped_tuples",
            "total_cost_dollars",
            "ingest_loss_rate",
            "scaling_actions_ingestion",
            "scaling_actions_analytics",
            "scaling_actions_storage",
            "rcu_actions",
        ] {
            assert!(text.contains(&format!("{key},")), "missing {key}");
        }
        assert_eq!(text.lines().count(), 13);
    }

    #[test]
    fn csv_values_match_report() {
        let report = small_report();
        let mut buf = Vec::new();
        summary_to_csv(&report, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let line = text
            .lines()
            .find(|l| l.starts_with("offered_records,"))
            .unwrap();
        let value: u64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert_eq!(value, report.offered_records);
    }
}
