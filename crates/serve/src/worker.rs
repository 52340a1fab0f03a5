//! The campaign worker: connects to a coordinator, executes leased units
//! on the shared runner-pool executor (per-thread image caches, shared
//! golden cache with snapshot fast-forward), and streams results and
//! telemetry back over the wire.
//!
//! Safety property: a worker never trusts a lease blindly. It recomputes
//! the unit's store key from its own reconstruction of the phase matrix
//! and refuses leases whose key disagrees — a serialization or version
//! mismatch between coordinator and worker fails loudly instead of
//! appending tallies under the wrong key.
//!
//! Telemetry events (`unit_done`, `unit_failed`) pass through a bounded
//! [`ChannelSink`]: a slow coordinator link drops events (counted,
//! reported on every result frame) rather than stalling execution.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cfed_runner::matrix::{CellSpec, ShardTask};
use cfed_runner::pool::{resolve_threads, GoldenCache, UnitExecutor};
use cfed_runner::store::shard_to_json;
use cfed_telemetry::json::{obj, Json};
use cfed_telemetry::{ChannelSink, Event, EventSink, Profile};

use crate::proto::{matrix_from_json, read_frame, tag, write_frame};

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address, e.g. `127.0.0.1:7171`.
    pub connect: String,
    /// Advertised worker name (the coordinator de-duplicates collisions).
    pub name: String,
    /// Executor threads — also the lease slot count advertised in `hello`.
    /// `0` means `std::thread::available_parallelism()`.
    pub threads: usize,
    /// Whether golden runs carry snapshot fast-forward sets.
    pub snapshots: bool,
    /// Whether golden preparation also runs the sampling profiler, shipping
    /// one per-cell execution profile back to the coordinator (first worker
    /// to finish a unit of the cell wins; profiles are deterministic, so
    /// which worker sends it cannot change the stored bytes).
    pub profile: bool,
    /// Capacity of the bounded outbound telemetry queue; overflow is
    /// dropped and counted, never blocking unit execution.
    pub event_queue: usize,
    /// Suppress stderr progress output.
    pub quiet: bool,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            connect: "127.0.0.1:7171".to_string(),
            name: String::new(),
            threads: 0,
            snapshots: true,
            profile: true,
            event_queue: 1024,
            quiet: false,
        }
    }
}

/// Outcome of a worker session.
#[derive(Debug, Default)]
pub struct WorkerSummary {
    /// Name the coordinator addressed this worker by.
    pub worker: String,
    /// Units completed successfully.
    pub units_done: u64,
    /// Unit attempts that failed (reported via `fail` frames).
    pub units_failed: u64,
    /// Leases refused because their key disagreed with the worker's own
    /// reconstruction of the matrix.
    pub leases_refused: u64,
    /// Telemetry events dropped at the bounded outbound queue.
    pub events_dropped: u64,
}

/// One phase as the worker sees it: the reconstructed cell list plus a
/// golden cache shared by all executor threads.
struct PhaseCtx {
    cells: Vec<CellSpec>,
    goldens: Arc<GoldenCache>,
}

struct Task {
    phase: u64,
    ctx: Arc<PhaseCtx>,
    cell: usize,
    shard: u64,
    key: String,
}

enum WorkerMsg {
    /// A frame from the coordinator.
    Frame(Json),
    /// The coordinator connection closed or failed.
    Disconnected(String),
    /// An executor thread finished a unit. `profile` carries the cell's
    /// execution profile when profiling is on; the main loop forwards it
    /// at most once per `(phase, cell)`.
    Done {
        phase: u64,
        cell: usize,
        key: String,
        ms: u64,
        outcome: Result<Json, String>,
        profile: Option<Arc<Profile>>,
    },
}

/// Connects to the coordinator and serves until it says `bye`, the
/// connection drops, or `stop` is set (drain in-flight units, announce
/// `bye`, exit — leased-but-unfinished units simply expire and are
/// re-leased elsewhere).
///
/// # Errors
///
/// Returns a message when the connection cannot be established; once
/// serving, coordinator loss is a normal exit, not an error.
pub fn work(
    options: &WorkerOptions,
    stop: Option<Arc<AtomicBool>>,
) -> Result<WorkerSummary, String> {
    let stream = TcpStream::connect(&options.connect)
        .map_err(|e| format!("connecting to coordinator {}: {e}", options.connect))?;
    let _ = stream.set_nodelay(true);
    serve_connection(stream, options, stop)
}

fn serve_connection(
    stream: TcpStream,
    options: &WorkerOptions,
    stop: Option<Arc<AtomicBool>>,
) -> Result<WorkerSummary, String> {
    let threads = resolve_threads(options.threads);
    let stop = stop.unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
    let (msg_tx, msg_rx) = mpsc::channel::<WorkerMsg>();

    // Reader thread: blocking frame reads, forwarded to the main loop.
    // The main thread owns all writes, so frames never interleave.
    let reader = {
        let tx = msg_tx.clone();
        let mut read_half = stream.try_clone().map_err(|e| format!("cloning connection: {e}"))?;
        std::thread::spawn(move || loop {
            match read_frame(&mut read_half) {
                Ok(Some(frame)) => {
                    if tx.send(WorkerMsg::Frame(frame)).is_err() {
                        break;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(WorkerMsg::Disconnected("coordinator closed".to_string()));
                    break;
                }
                Err(e) => {
                    let _ = tx.send(WorkerMsg::Disconnected(e));
                    break;
                }
            }
        })
    };

    // Executor pool: threads pull tasks from a shared channel; each thread
    // keeps one UnitExecutor per phase (private image cache, shared golden
    // cache) so repeated shards of one cell hit warm state.
    let (task_tx, task_rx) = mpsc::channel::<Task>();
    let task_rx = Arc::new(Mutex::new(task_rx));
    let mut executor_handles = Vec::with_capacity(threads);
    for _ in 0..threads {
        let task_rx = Arc::clone(&task_rx);
        let tx = msg_tx.clone();
        executor_handles.push(std::thread::spawn(move || {
            let mut executors: HashMap<u64, UnitExecutor> = HashMap::new();
            loop {
                let task = {
                    let rx = task_rx.lock().expect("task queue poisoned");
                    rx.recv()
                };
                let Ok(task) = task else { break };
                let executor = executors
                    .entry(task.phase)
                    .or_insert_with(|| UnitExecutor::new(Arc::clone(&task.ctx.goldens), false));
                let started = Instant::now();
                let run = executor.run(&task.ctx.cells[task.cell], task.shard);
                let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
                let outcome = run.tallies.map(|t| shard_to_json(&task.key, &t));
                let done = WorkerMsg::Done {
                    phase: task.phase,
                    cell: task.cell,
                    key: task.key,
                    ms,
                    outcome,
                    profile: run.profile,
                };
                if tx.send(done).is_err() {
                    break;
                }
            }
        }));
    }

    let sink = ChannelSink::new(options.event_queue);
    let mut write_half = stream;
    let mut summary = WorkerSummary::default();
    let mut phases: HashMap<u64, Arc<PhaseCtx>> = HashMap::new();
    let mut profiles_sent: HashSet<(u64, usize)> = HashSet::new();
    let mut inflight: u64 = 0;
    let mut leaving = false; // bye sent or stop requested: no new leases

    let hello = obj(vec![
        ("t", Json::Str("hello".to_string())),
        ("name", Json::Str(options.name.clone())),
        ("slots", Json::UInt(threads as u64)),
    ]);
    write_frame(&mut write_half, &hello)?;

    loop {
        if stop.load(std::sync::atomic::Ordering::Relaxed) && !leaving {
            leaving = true;
            if !options.quiet {
                eprintln!(
                    "cfed-serve worker: stop requested — draining {inflight} in-flight unit(s)"
                );
            }
        }
        if leaving && inflight == 0 {
            let _ = write_frame(&mut write_half, &obj(vec![("t", Json::Str("bye".to_string()))]));
            break;
        }
        let msg = match msg_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(msg) => msg,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        match msg {
            WorkerMsg::Disconnected(reason) => {
                if !options.quiet {
                    eprintln!("cfed-serve worker: connection lost: {reason}");
                }
                break;
            }
            WorkerMsg::Done { phase, cell, key, ms, outcome, profile } => {
                inflight -= 1;
                match outcome {
                    Ok(record) => {
                        summary.units_done += 1;
                        sink.emit(&Event::new("unit_done").str("unit", &key).u64("ms", ms));
                        // Ship the cell's profile before the result frame:
                        // if this result completes the phase, the
                        // coordinator must still hold the phase store open
                        // when the profile arrives.
                        if let Some(p) = profile {
                            if profiles_sent.insert((phase, cell)) {
                                let cell_key = phases
                                    .get(&phase)
                                    .map(|ctx| ctx.cells[cell].key())
                                    .unwrap_or_default();
                                let frame = obj(vec![
                                    ("t", Json::Str("profile".to_string())),
                                    ("phase", Json::UInt(phase)),
                                    ("cell", Json::Str(cell_key)),
                                    ("profile", p.to_json()),
                                ]);
                                if write_frame(&mut write_half, &frame).is_err() {
                                    break;
                                }
                            }
                        }
                        let frame = obj(vec![
                            ("t", Json::Str("result".to_string())),
                            ("phase", Json::UInt(phase)),
                            ("key", Json::Str(key)),
                            ("ms", Json::UInt(ms)),
                            ("dropped", Json::UInt(sink.dropped())),
                            ("record", record),
                        ]);
                        if write_frame(&mut write_half, &frame).is_err() {
                            break;
                        }
                    }
                    Err(error) => {
                        summary.units_failed += 1;
                        sink.emit(
                            &Event::new("unit_failed").str("unit", &key).str("error", &error),
                        );
                        let frame = obj(vec![
                            ("t", Json::Str("fail".to_string())),
                            ("phase", Json::UInt(phase)),
                            ("key", Json::Str(key)),
                            ("error", Json::Str(error)),
                        ]);
                        if write_frame(&mut write_half, &frame).is_err() {
                            break;
                        }
                    }
                }
                if forward_events(&mut write_half, &sink).is_err() {
                    break;
                }
            }
            WorkerMsg::Frame(frame) => {
                let Ok(kind) = tag(&frame) else { continue };
                match kind {
                    "welcome" => {
                        if let Some(name) = frame.get("worker").and_then(Json::as_str) {
                            summary.worker = name.to_string();
                            if !options.quiet {
                                let run = frame.get("run_id").and_then(Json::as_str).unwrap_or("?");
                                eprintln!(
                                    "cfed-serve worker: joined run {run} as {name} ({threads} slot(s))"
                                );
                            }
                        }
                    }
                    "phase" => match parse_phase(&frame, options.snapshots, options.profile) {
                        Ok((index, ctx)) => {
                            phases.insert(index, Arc::new(ctx));
                        }
                        Err(e) => {
                            if !options.quiet {
                                eprintln!("cfed-serve worker: bad phase frame: {e}");
                            }
                        }
                    },
                    "lease" => {
                        let accepted = accept_lease(&frame, &phases, leaving).and_then(|task| {
                            task_tx.send(task).map_err(|_| "executor pool gone".to_string())
                        });
                        match accepted {
                            Ok(()) => inflight += 1,
                            Err(error) => {
                                summary.leases_refused += 1;
                                let key = frame
                                    .get("key")
                                    .and_then(Json::as_str)
                                    .unwrap_or("")
                                    .to_string();
                                let fail = obj(vec![
                                    ("t", Json::Str("fail".to_string())),
                                    ("phase", frame.get("phase").cloned().unwrap_or(Json::UInt(0))),
                                    ("key", Json::Str(key)),
                                    ("error", Json::Str(error)),
                                ]);
                                if write_frame(&mut write_half, &fail).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    "bye" => {
                        leaving = true;
                    }
                    _ => {}
                }
            }
        }
    }

    summary.events_dropped = sink.dropped();
    // Tear down: close the socket (unblocks the reader), retire the
    // executor pool, and join everything.
    let _ = write_half.shutdown(std::net::Shutdown::Both);
    drop(task_tx);
    drop(msg_rx);
    for handle in executor_handles {
        let _ = handle.join();
    }
    let _ = reader.join();
    if !options.quiet {
        eprintln!(
            "cfed-serve worker: exiting — {} done, {} failed, {} refused, {} event(s) dropped",
            summary.units_done,
            summary.units_failed,
            summary.leases_refused,
            summary.events_dropped
        );
    }
    Ok(summary)
}

/// Parses a `phase` frame into the worker's execution context.
fn parse_phase(frame: &Json, snapshots: bool, profile: bool) -> Result<(u64, PhaseCtx), String> {
    let index = frame.get("phase").and_then(Json::as_u64).ok_or("phase frame missing index")?;
    let matrix = matrix_from_json(frame.get("matrix").ok_or("phase frame missing matrix")?)?;
    let cells = matrix.cells();
    Ok((index, PhaseCtx { cells, goldens: Arc::new(GoldenCache::new(snapshots, profile)) }))
}

/// Validates a lease against the worker's own matrix reconstruction and
/// produces the executor task.
fn accept_lease(
    frame: &Json,
    phases: &HashMap<u64, Arc<PhaseCtx>>,
    leaving: bool,
) -> Result<Task, String> {
    if leaving {
        return Err("worker is draining".to_string());
    }
    let phase = frame.get("phase").and_then(Json::as_u64).ok_or("lease missing phase")?;
    let cell = frame.get("cell").and_then(Json::as_u64).ok_or("lease missing cell")? as usize;
    let shard = frame.get("shard").and_then(Json::as_u64).ok_or("lease missing shard")?;
    let key = frame.get("key").and_then(Json::as_str).ok_or("lease missing key")?.to_string();
    let ctx = phases.get(&phase).ok_or_else(|| format!("unknown phase {phase}"))?;
    if cell >= ctx.cells.len() {
        return Err(format!("cell index {cell} out of range ({} cells)", ctx.cells.len()));
    }
    let expected = ShardTask { cell, shard_index: shard }.key(&ctx.cells);
    if expected != key {
        return Err(format!(
            "lease key mismatch: coordinator sent {key:?}, worker computes {expected:?}"
        ));
    }
    Ok(Task { phase, ctx: Arc::clone(ctx), cell, shard, key })
}

/// Drains the bounded event queue into `event` frames.
fn forward_events(w: &mut TcpStream, sink: &ChannelSink) -> Result<(), String> {
    for event in sink.drain() {
        let frame = obj(vec![("t", Json::Str("event".to_string())), ("ev", event.to_json())]);
        write_frame(w, &frame)?;
    }
    Ok(())
}
