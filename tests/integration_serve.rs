// Test target: unwrap/expect and exact comparison are deliberate here
// (determinism assertions compare exported traces byte-for-byte).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
//! Integration: the `flower serve` daemon and record/replay identity.
//!
//! Two contracts are pinned here. First, the serve machinery is a
//! *pure shell*: driving an episode through `start_episode`/`tick`/
//! `finish_episode` with an empty command stream produces the exact
//! bytes of the pre-daemon golden fixture. Second, live sessions are
//! *replayable*: a scripted socket session — subscribe, inject a
//! fault, tweak the budget, force a replan — recorded with
//! `flower-record/v1` replays to a byte-identical JSONL trace with no
//! sockets involved.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use flower_core::flow::clickstream_flow;
use flower_core::prelude::*;
use flower_core::replan::{PlanSelection, ReplanConfig, Replanner};
use flower_core::share::ShareProblem;
use flower_nsga2::Nsga2Config;
use flower_obs::{parse_trace, Recorder};
use flower_serve::{parse_recording, replay, Daemon, ServeConfig};
use flower_sim::{SimDuration, SimTime};

fn replanner(cadence_mins: u64, workers: Option<usize>) -> Replanner {
    Replanner::for_clickstream(
        ReplanConfig {
            budget: 1.0,
            cadence: SimDuration::from_mins(cadence_mins),
            analysis_window: SimDuration::from_mins(cadence_mins),
            selection: PlanSelection::Balanced,
            dependency_band: 0.5,
            nsga2: Nsga2Config {
                population: 32,
                generations: 24,
                seed: 9,
                ..Default::default()
            },
            workers,
            warm_start: false,
            warm_generations: 12,
        },
        "clicks",
        "counter",
        "aggregates",
        ShareProblem::worked_example(1.0),
    )
}

/// The golden 45-minute flash-crowd episode from `integration_chaos`,
/// rebuilt here so the replay path can be compared against the same
/// fixture bytes.
fn golden_manager(workers: Option<usize>) -> ElasticityManager {
    ElasticityManager::builder(clickstream_flow())
        .workload(Workload::flash_crowd(
            600.0,
            9_000.0,
            SimTime::from_mins(10),
        ))
        .replanner(replanner(15, workers))
        .recorder(Recorder::with_capacity(65_536))
        .seed(5)
        .faults(FaultPlan::none())
        .build()
        .unwrap()
}

#[test]
fn empty_replay_reproduces_the_golden_fixture() {
    let golden = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden_trace_3layer.jsonl"
    ));
    let mut manager = golden_manager(Some(2));
    replay(&mut manager, SimDuration::from_mins(45), &[]).unwrap();
    assert_eq!(
        manager.recorder().to_jsonl(),
        golden,
        "the serve tick loop perturbed the golden trace"
    );
}

/// A small live episode for the socket round trip.
fn live_manager() -> ElasticityManager {
    ElasticityManager::builder(clickstream_flow())
        .workload(Workload::constant(600.0))
        .replanner(replanner(5, Some(2)))
        .recorder(Recorder::with_capacity(65_536))
        .seed(7)
        .build()
        .unwrap()
}

fn send(stream: &mut TcpStream, line: &str) {
    writeln!(stream, "{line}").unwrap();
}

fn read_until<'a>(reader: &mut impl BufRead, lines: &'a mut Vec<String>, what: &str) -> &'a String {
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed while waiting for {what}"
        );
        lines.push(line.trim_end().to_owned());
        let last = lines.len() - 1;
        if lines[last].contains(what) {
            return &lines[last];
        }
    }
}

#[test]
fn live_session_records_and_replays_byte_identically() {
    let record_path =
        std::env::temp_dir().join(format!("flower-record-test-{}.jsonl", std::process::id()));
    let duration = SimDuration::from_mins(10);
    let mut episode = BTreeMap::new();
    episode.insert("workload".to_owned(), "constant".to_owned());
    episode.insert("seed".to_owned(), "7".to_owned());
    let daemon = Daemon::bind(ServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        duration,
        hold: true,
        record: Some(record_path.clone()),
        episode,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr().unwrap();

    // The scripted client runs on a helper thread; the daemon's control
    // loop owns the (non-Send) manager on this one.
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut lines = Vec::new();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_until(&mut reader, &mut lines, "\"frame\":\"hello\"");
        send(&mut stream, "{\"frame\":\"subscribe\"}");
        send(
            &mut stream,
            "{\"frame\":\"command\",\"id\":1,\"cmd\":\"inject-fault\",\"seed\":11,\
             \"layer\":\"analytics\",\"kind\":\"reject\",\"p\":1,\"for_s\":120}",
        );
        read_until(&mut reader, &mut lines, "\"id\":1");
        send(
            &mut stream,
            "{\"frame\":\"command\",\"id\":2,\"cmd\":\"set-budget\",\"budget\":2.5}",
        );
        read_until(&mut reader, &mut lines, "\"id\":2");
        send(
            &mut stream,
            "{\"frame\":\"command\",\"id\":3,\"cmd\":\"force-replan\"}",
        );
        read_until(&mut reader, &mut lines, "\"id\":3");
        send(
            &mut stream,
            "{\"frame\":\"command\",\"id\":4,\"cmd\":\"resume\"}",
        );
        read_until(&mut reader, &mut lines, "\"frame\":\"bye\"");
        lines
    });

    let mut manager = live_manager();
    let outcome = daemon.run(&mut manager).unwrap();
    let live_trace = manager.recorder().to_jsonl();
    let lines = client.join().unwrap();

    assert_eq!(outcome.clients_served, 1);
    assert_eq!(outcome.commands_applied, 4);
    assert!(!outcome.shut_down);
    // The subscriber saw acks for every command, a live event stream,
    // and a clean goodbye.
    assert!(lines.iter().any(|l| l.contains("\"frame\":\"event\"")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"frame\":\"ack\",\"id\":1,\"ok\":true")));
    assert!(lines.iter().any(|l| l.contains("\"frame\":\"snapshot\"")));
    assert_eq!(
        lines.last().map(String::as_str),
        Some("{\"frame\":\"bye\",\"reason\":\"episode-complete\"}")
    );
    // The injected fault is attributed: every fault-layer event names
    // the layer it hit.
    let faults: Vec<_> = parse_trace(&live_trace)
        .unwrap()
        .events
        .into_iter()
        .filter(|e| e.kind.starts_with("chaos.") || e.kind.starts_with("resilience."))
        .collect();
    assert!(
        !faults.is_empty(),
        "the injected fault left no chaos events"
    );
    for e in &faults {
        assert!(
            e.str("layer").is_some(),
            "`{}` event at t={}ms has no `layer` field",
            e.kind,
            e.t_ms
        );
    }

    // Replay the recording against an identically built manager: the
    // trace must be byte-identical.
    let recorded = std::fs::read_to_string(&record_path).unwrap();
    let _ = std::fs::remove_file(&record_path);
    let recording = parse_recording(&recorded).unwrap();
    assert_eq!(
        recording.commands.len(),
        3,
        "inject-fault, set-budget, force-replan (resume is wall-clock-only): {recorded}"
    );
    assert!(recording.commands.iter().all(|(t_ms, _)| *t_ms == 0));
    let mut replayed = live_manager();
    replay(&mut replayed, duration, &recording.commands).unwrap();
    assert_eq!(
        replayed.recorder().to_jsonl(),
        live_trace,
        "replay diverged from the live session"
    );
}

/// A client that streams bytes without a newline is dropped once its
/// line passes `MAX_LINE_BYTES`, and the session goes on for everyone
/// else. The session is held until the flooding connection has closed
/// or a read timeout says it never will, so an uncapped reader (which
/// buffers the 10 MB and waits) fails here instead of passing at `bye`.
#[test]
fn over_long_client_line_drops_only_that_client() {
    let daemon = Daemon::bind(ServeConfig {
        listen: "127.0.0.1:0".to_owned(),
        duration: SimDuration::from_mins(2),
        hold: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr().unwrap();

    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut lines = Vec::new();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_until(&mut reader, &mut lines, "\"frame\":\"hello\"");
        send(&mut stream, "{\"frame\":\"subscribe\"}");

        let mut flood = TcpStream::connect(addr).unwrap();
        let mut flood_reader = BufReader::new(flood.try_clone().unwrap());
        read_until(&mut flood_reader, &mut Vec::new(), "\"frame\":\"hello\"");
        // The daemon stops reading and closes the socket partway
        // through, so the write may fail.
        let _ = flood.write_all(&vec![b'x'; 10 << 20]);
        flood
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let flood_closed = match flood_reader.read_to_end(&mut Vec::new()) {
            Ok(_) => true,
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        };

        send(
            &mut stream,
            "{\"frame\":\"command\",\"id\":1,\"cmd\":\"resume\"}",
        );
        read_until(&mut reader, &mut lines, "\"frame\":\"bye\"");
        (flood_closed, lines)
    });

    let mut manager = live_manager();
    let outcome = daemon.run(&mut manager).unwrap();
    let (flood_closed, lines) = client.join().unwrap();

    assert!(
        flood_closed,
        "the daemon never closed the flooding connection"
    );
    assert_eq!(outcome.clients_served, 2);
    assert_eq!(outcome.commands_applied, 1);
    assert!(lines.iter().any(|l| l.contains("\"frame\":\"event\"")));
    assert_eq!(
        lines.last().map(String::as_str),
        Some("{\"frame\":\"bye\",\"reason\":\"episode-complete\"}")
    );
}

#[test]
fn replay_rejects_unreachable_command_stamps() {
    let mut manager = live_manager();
    let commands = vec![(500u64, flower_serve::Command::ForceReplan)];
    let err = replay(&mut manager, SimDuration::from_mins(1), &commands).unwrap_err();
    assert!(err.contains("never reached"), "{err}");

    let mut manager = live_manager();
    let commands = vec![(120_000u64, flower_serve::Command::ForceReplan)];
    let err = replay(&mut manager, SimDuration::from_mins(1), &commands).unwrap_err();
    assert!(err.contains("beyond the episode end"), "{err}");

    // Nothing follows a shutdown, at the same instant or later.
    for later in [0u64, 5_000] {
        let mut manager = live_manager();
        let commands = vec![
            (0u64, flower_serve::Command::Shutdown),
            (later, flower_serve::Command::ForceReplan),
        ];
        let err = replay(&mut manager, SimDuration::from_mins(1), &commands).unwrap_err();
        assert!(err.contains("follows the shutdown"), "{err}");
    }
}

/// The record reader checks a document's shape; replay checks each
/// command's arguments exactly as the live daemon does. Together they
/// reject every invalid recording.
#[test]
fn replay_rejects_invalid_recorded_commands() {
    let header = "{\"schema\":\"flower-record/v1\",\"proto\":\"flower-wire/v1\",\
                  \"episode\":{\"seed\":\"7\"}}";
    for (body, why) in [
        (
            "{\"t_ms\":0,\"cmd\":\"inject-fault\",\"seed\":0,\"kind\":\"gremlins\",\"p\":1}",
            "unknown fault kind",
        ),
        (
            "{\"t_ms\":0,\"cmd\":\"inject-fault\",\"seed\":0,\"kind\":\"reject\",\"p\":1.5}",
            "p must be in [0, 1]",
        ),
        (
            "{\"t_ms\":0,\"cmd\":\"inject-fault\",\"seed\":0,\"kind\":\"reject\",\"p\":\"0.5\"}",
            "`p` must be a number",
        ),
        (
            "{\"t_ms\":0,\"cmd\":\"inject-fault\",\"seed\":0,\"layer\":7,\"kind\":\"reject\",\"p\":1}",
            "`layer` must be a string",
        ),
        (
            "{\"t_ms\":0,\"cmd\":\"inject-fault\",\"seed\":0,\"kind\":\"reject\"}",
            "`inject-fault` is missing `p`",
        ),
        (
            "{\"t_ms\":0,\"cmd\":\"inject-fault\",\"seed\":0,\"kind\":\"storm\",\
              \"period_s\":60,\"burst_s\":0}",
            "storm needs 0 < burst_s <= period_s",
        ),
        (
            "{\"t_ms\":0,\"cmd\":\"set-budget\",\"budget\":-1}",
            "finite and positive",
        ),
    ] {
        let err = parse_recording(&format!("{header}\n{body}\n"))
            .and_then(|recording| {
                replay(
                    &mut live_manager(),
                    SimDuration::from_mins(1),
                    &recording.commands,
                )
            })
            .unwrap_err();
        assert!(err.contains(why), "`{body}` → `{err}`");
    }
}
