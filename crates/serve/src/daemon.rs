//! The live daemon: a thin I/O shell over the deterministic episode.
//!
//! Architecture (one episode per [`Daemon::run`]):
//!
//! - An **accept thread** owns the listener; each connection gets a
//!   **reader thread** (lines → control channel) and a **writer
//!   thread** (outbound frame channel → socket), so a slow client can
//!   never stall the control loop. A line longer than
//!   `MAX_LINE_BYTES` (64 KiB) drops its client as if it had hung up.
//! - The **control loop** (the calling thread) owns the
//!   [`ElasticityManager`] outright. It advances the event-driven core
//!   in 1-second `run_until` strides; between strides it drains the
//!   control channel, applies commands at the current second boundary,
//!   and appends each applied state-affecting command to the record
//!   file stamped with the sim time. The deterministic core never sees
//!   a socket.
//! - A buffering [`EventSink`] taps the recorder; after every stride
//!   the loop drains it and broadcasts one `event` frame per event to
//!   subscribed clients — the nested object is byte-identical to the
//!   `flower-trace/v1` event line.
//!
//! Because commands only land on whole-second boundaries and
//! everything else is the untouched deterministic core, [`replay`] of
//! a `flower-record/v1` file reproduces the live session's trace
//! byte-for-byte — no sockets required.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::mpsc;
use std::time::Duration;

use flower_core::elasticity::{ElasticityManager, EpisodeReport};
use flower_obs::{Event, EventSink};
use flower_sim::{SimDuration, SimTime};

use crate::wire::{self, ClientFrame, Command};

/// Daemon configuration (everything beyond the manager itself).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7733` (`:0` for an ephemeral
    /// port — read it back from [`Daemon::local_addr`]).
    pub listen: String,
    /// Episode length in sim time.
    pub duration: SimDuration,
    /// Wall-clock delay per 1-second sim tick; `None` runs flat out.
    pub pace: Option<Duration>,
    /// Start paused (clients attach, then send `resume`).
    pub hold: bool,
    /// Sim-time grid for `snapshot` frames.
    pub snapshot_every: SimDuration,
    /// Record applied commands to this file (`flower-record/v1`).
    pub record: Option<std::path::PathBuf>,
    /// The episode flag map, echoed in hello frames and the record
    /// header so a recording rebuilds the same manager.
    pub episode: BTreeMap<String, String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:0".to_owned(),
            duration: SimDuration::from_mins(30),
            pace: None,
            hold: false,
            snapshot_every: SimDuration::from_mins(1),
            record: None,
            episode: BTreeMap::new(),
        }
    }
}

/// What one served episode produced, beyond the report.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The episode's cumulative report.
    pub report: EpisodeReport,
    /// Commands applied (acked ok), including wall-clock-only ones.
    pub commands_applied: u64,
    /// Connections accepted over the session.
    pub clients_served: u64,
    /// Whether a `shutdown` command truncated the episode.
    pub shut_down: bool,
}

/// Buffered recorder tap: the control loop drains it after each tick.
#[derive(Debug, Clone, Default)]
struct BufferSink {
    buffer: Rc<RefCell<VecDeque<Event>>>,
}

impl EventSink for BufferSink {
    fn on_event(&mut self, event: &Event) {
        self.buffer.borrow_mut().push_back(event.clone());
    }
}

/// The longest client line the daemon reads, far above any client
/// frame: a client that sends more bytes without a newline is dropped.
const MAX_LINE_BYTES: u64 = 64 * 1024;

enum ControlMsg {
    Connected { id: u64, tx: mpsc::Sender<String> },
    Line { id: u64, line: String },
    Disconnected { id: u64 },
}

struct Client {
    id: u64,
    tx: mpsc::Sender<String>,
    subscribed: bool,
}

/// The bound-but-not-yet-running daemon.
#[derive(Debug)]
pub struct Daemon {
    listener: TcpListener,
    config: ServeConfig,
}

impl Daemon {
    /// Bind the listen address.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …).
    pub fn bind(config: ServeConfig) -> Result<Daemon, String> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("bind {}: {e}", config.listen))?;
        Ok(Daemon { listener, config })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Serve one episode to completion (or `shutdown`): advance the
    /// manager one sim-second at a time, stream events, apply live
    /// commands at second boundaries, and record the applied command
    /// stream.
    ///
    /// # Errors
    ///
    /// Fails only on record-file I/O errors; client failures just drop
    /// the client.
    pub fn run(self, manager: &mut ElasticityManager) -> Result<ServeOutcome, String> {
        let Daemon { listener, config } = self;
        let (control_tx, control_rx) = mpsc::channel::<ControlMsg>();
        spawn_accept_thread(listener, control_tx);

        let mut record = match &config.record {
            Some(path) => {
                let mut file = std::fs::File::create(path)
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
                writeln!(file, "{}", wire::record_header(&config.episode))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                Some((path.clone(), file))
            }
            None => None,
        };
        let mut write_record = |t_ms: u64, command: &Command| -> Result<(), String> {
            if let Some((path, file)) = record.as_mut() {
                writeln!(file, "{}", wire::record_line(t_ms, command))
                    .and_then(|()| file.flush())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            Ok(())
        };

        let sink = BufferSink::default();
        let buffer = Rc::clone(&sink.buffer);
        manager.recorder().set_sink(Box::new(sink));

        let mut clients: Vec<Client> = Vec::new();
        let mut paused = config.hold;
        let mut shut_down = false;
        let mut commands_applied = 0u64;
        let mut clients_served = 0u64;

        manager.start_episode(config.duration);
        loop {
            // Between-stride command window. While paused (or pacing),
            // we block briefly instead of spinning.
            loop {
                let msg = if paused {
                    control_rx.recv_timeout(Duration::from_millis(25)).ok()
                } else {
                    control_rx.try_recv().ok()
                };
                let Some(msg) = msg else {
                    if paused && !shut_down {
                        continue;
                    }
                    break;
                };
                match msg {
                    ControlMsg::Connected { id, tx } => {
                        clients_served += 1;
                        let hello = wire::hello_frame(&config.episode, manager.now().as_millis());
                        let _ = tx.send(hello);
                        clients.push(Client {
                            id,
                            tx,
                            subscribed: false,
                        });
                    }
                    ControlMsg::Disconnected { id } => clients.retain(|c| c.id != id),
                    ControlMsg::Line { id, line } => {
                        let Some(client) = clients.iter_mut().find(|c| c.id == id) else {
                            continue;
                        };
                        match wire::parse_client_frame(&line) {
                            Ok(ClientFrame::Subscribe) => client.subscribed = true,
                            Ok(ClientFrame::Command { id, command }) => {
                                let result = match &command {
                                    Command::Pause => {
                                        paused = true;
                                        Ok(())
                                    }
                                    Command::Resume => {
                                        paused = false;
                                        Ok(())
                                    }
                                    Command::Shutdown => {
                                        shut_down = true;
                                        Ok(())
                                    }
                                    other => apply_command(manager, other),
                                };
                                if result.is_ok() {
                                    commands_applied += 1;
                                    if command.is_recorded() {
                                        write_record(manager.now().as_millis(), &command)?;
                                    }
                                }
                                let _ = client.tx.send(wire::ack_frame(id, &result));
                            }
                            Err(error) => {
                                let _ = client.tx.send(wire::ack_frame(0, &Err(error)));
                            }
                        }
                    }
                }
                if shut_down {
                    break;
                }
            }
            if shut_down {
                break;
            }
            if !manager.run_until(manager.now() + SimDuration::from_secs(1)) {
                break;
            }
            broadcast_events(&buffer, &mut clients);
            let now = manager.now();
            if on_grid(now, config.snapshot_every) {
                let frame = wire::snapshot_frame(
                    now.as_millis(),
                    &manager.recorder().counters_snapshot(),
                    &manager.recorder().gauges_snapshot(),
                );
                for client in clients.iter().filter(|c| c.subscribed) {
                    let _ = client.tx.send(frame.clone());
                }
            }
            if let Some(pace) = config.pace {
                std::thread::sleep(pace);
            }
        }
        let report = manager.finish_episode();
        broadcast_events(&buffer, &mut clients);
        manager.recorder().clear_sink();
        let reason = if shut_down {
            "shutdown"
        } else {
            "episode-complete"
        };
        for client in &clients {
            let _ = client.tx.send(wire::bye_frame(reason));
        }
        Ok(ServeOutcome {
            report,
            commands_applied,
            clients_served,
            shut_down,
        })
    }
}

fn on_grid(now: SimTime, grid: SimDuration) -> bool {
    grid.as_millis() > 0 && now.as_millis().is_multiple_of(grid.as_millis())
}

fn broadcast_events(buffer: &Rc<RefCell<VecDeque<Event>>>, clients: &mut [Client]) {
    loop {
        let Some(event) = buffer.borrow_mut().pop_front() else {
            break;
        };
        if clients.iter().all(|c| !c.subscribed) {
            continue;
        }
        let frame = wire::event_frame(&flower_obs::event_line(&event));
        for client in clients.iter().filter(|c| c.subscribed) {
            let _ = client.tx.send(frame.clone());
        }
    }
}

/// Apply one state-affecting command to the manager at its current
/// second boundary. Pause/resume/shutdown are loop states, not manager
/// state, and are handled by the caller.
fn apply_command(manager: &mut ElasticityManager, command: &Command) -> Result<(), String> {
    match command {
        Command::InjectFault(fault) => {
            let clause = fault.clause_at(manager.now())?;
            manager.inject_fault(fault.seed, clause);
            Ok(())
        }
        Command::SetBudget { budget } => {
            if !budget.is_finite() || *budget <= 0.0 {
                return Err(format!("budget must be finite and positive: {budget}"));
            }
            if manager.set_budget(*budget) {
                Ok(())
            } else {
                Err("no replanner attached".to_owned())
            }
        }
        Command::ForceReplan => {
            if manager.force_replan() {
                Ok(())
            } else {
                Err("no replanner attached".to_owned())
            }
        }
        Command::Pause | Command::Resume | Command::Shutdown => Ok(()),
    }
}

/// Replay a recorded command stream against a freshly built manager:
/// run the episode in the same 1-second strides as the live loop,
/// applying each command when the sim clock reaches its `t_ms` stamp.
/// With the same manager construction, the resulting trace is
/// byte-identical to the live session's.
///
/// # Errors
///
/// Rejects command stamps that are not second boundaries reachable by
/// the episode, any command after a shutdown, and invalid commands
/// (same validation as live).
pub fn replay(
    manager: &mut ElasticityManager,
    duration: SimDuration,
    commands: &[(u64, Command)],
) -> Result<EpisodeReport, String> {
    let mut queue = commands.iter();
    let mut next = queue.next();
    let mut shut_down = false;
    manager.start_episode(duration);
    loop {
        let now_ms = manager.now().as_millis();
        while let Some((t_ms, command)) = next {
            if *t_ms != now_ms {
                if *t_ms < now_ms {
                    return Err(format!(
                        "command `{}` stamped t_ms {t_ms} was never reached (clock at {now_ms})",
                        command.name()
                    ));
                }
                break;
            }
            match command {
                Command::Shutdown => shut_down = true,
                other => apply_command(manager, other)?,
            }
            next = queue.next();
            if shut_down {
                break;
            }
        }
        if shut_down || !manager.run_until(manager.now() + SimDuration::from_secs(1)) {
            break;
        }
    }
    if let Some((t_ms, command)) = next {
        let why = if shut_down {
            "follows the shutdown"
        } else {
            "lies beyond the episode end"
        };
        return Err(format!(
            "command `{}` stamped t_ms {t_ms} {why}",
            command.name()
        ));
    }
    Ok(manager.finish_episode())
}

fn spawn_accept_thread(listener: TcpListener, control_tx: mpsc::Sender<ControlMsg>) {
    std::thread::spawn(move || {
        for (id, stream) in (0u64..).zip(listener.incoming()) {
            let Ok(stream) = stream else { break };
            let (out_tx, out_rx) = mpsc::channel::<String>();
            if control_tx
                .send(ControlMsg::Connected { id, tx: out_tx })
                .is_err()
            {
                break;
            }
            spawn_client_threads(id, stream, control_tx.clone(), out_rx);
        }
    });
}

fn spawn_client_threads(
    id: u64,
    stream: TcpStream,
    control_tx: mpsc::Sender<ControlMsg>,
    out_rx: mpsc::Receiver<String>,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Writer: drain outbound frames until the control loop drops the
    // sender (bye sent) or the socket dies.
    std::thread::spawn(move || {
        let mut write_half = write_half;
        while let Ok(frame) = out_rx.recv() {
            if writeln!(write_half, "{frame}").is_err() {
                break;
            }
        }
        let _ = write_half.shutdown(std::net::Shutdown::Both);
    });
    // Reader: forward complete lines to the control loop.
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        while let Some(line) = read_line_capped(&mut reader) {
            if line.trim().is_empty() {
                continue;
            }
            if control_tx.send(ControlMsg::Line { id, line }).is_err() {
                return;
            }
        }
        let _ = control_tx.send(ControlMsg::Disconnected { id });
    });
}

/// The next line without its `\n` or `\r\n`, as `BufRead::lines` yields
/// it, reading at most [`MAX_LINE_BYTES`] of it. `None` at end of
/// stream, on a read error, on invalid UTF-8 and on an over-long line.
fn read_line_capped(reader: &mut impl BufRead) -> Option<String> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES + 1)
        .read_until(b'\n', &mut buf)
        .ok()?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n == 0 || n as u64 > MAX_LINE_BYTES {
        return None;
    }
    String::from_utf8(buf).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_lines_match_lines_and_stop_at_the_cap() {
        let mut input: &[u8] = b"a\r\nb\n\nlast";
        let lines: Vec<String> = std::iter::from_fn(|| read_line_capped(&mut input)).collect();
        assert_eq!(lines, ["a", "b", "", "last"]);

        let cap = usize::try_from(MAX_LINE_BYTES).unwrap();
        let at_cap = [vec![b'x'; cap], b"\nnext\n".to_vec()].concat();
        let mut input = &at_cap[..];
        assert_eq!(read_line_capped(&mut input).map(|l| l.len()), Some(cap));
        assert_eq!(read_line_capped(&mut input).as_deref(), Some("next"));

        let over_cap = [vec![b'x'; cap + 1], b"\nnext\n".to_vec()].concat();
        assert_eq!(read_line_capped(&mut &over_cap[..]), None);
        assert_eq!(read_line_capped(&mut &b"\xff\n"[..]), None);
    }
}
