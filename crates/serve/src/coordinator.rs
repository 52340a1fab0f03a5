//! The campaign coordinator: leases work units to connected workers,
//! handles worker failure via lease expiry / disconnect with bounded
//! retry, and is the single writer of the checkpointed result stores.
//!
//! A work unit is one shard of one matrix cell — exactly the unit the
//! JSONL store keys (`{cell key}#{shard index}`) — so the service is
//! idempotent end to end: duplicate results are dropped by key, a resumed
//! store skips persisted units, and the merged report is byte-identical
//! to a single-process run for any worker count, schedule, or crash/retry
//! history.
//!
//! ## Lease/retry state machine
//!
//! ```text
//! pending ──lease──▶ leased ──result──▶ done (appended, flushed)
//!    ▲                  │
//!    │   fail frame / lease expiry / worker disconnect
//!    └── attempts < max? re-queue after backoff : failed (appended)
//! ```
//!
//! Results, failed or expired attempts and cell profiles are recorded
//! through the same [`Ledger`] the in-process pool records through, so the
//! stores and the `shard_done` / `shard_failed` (`retried:1` while the
//! retry budget lasts) / `profile` / `attack_outcomes` events are the same
//! in both modes. A worker that accumulates [`MAX_STRIKES`] expired leases
//! is quarantined: its connection stays open (late results are still
//! accepted) but it is never leased to again.
//!
//! ## Backpressure
//!
//! Each worker holds at most `min(its advertised slots, max_inflight)`
//! outstanding leases; results and control frames are never dropped.
//! Telemetry events stream through the *worker's* bounded queue
//! ([`cfed_telemetry::ChannelSink`]) — when a slow coordinator link fills
//! it, events are dropped and counted there, and the cumulative drop
//! count rides back on every result frame into [`ServeStats`].

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use cfed_runner::ledger::Ledger;
use cfed_runner::matrix::{CampaignMatrix, ShardTask};
use cfed_runner::retry::RetryPolicy;
use cfed_runner::store::shard_from_json;
use cfed_telemetry::json::{obj, Json};
use cfed_telemetry::{Event, FlightRecorder, Profile, Telemetry};

use crate::http::LiveView;
use crate::proto::{matrix_to_json, read_frame, tag, write_frame};
use crate::stats::ServeStats;

/// Expired leases a worker may accumulate before the coordinator stops
/// leasing to it (its connection stays open for late results).
pub const MAX_STRIKES: u32 = 2;

/// One phase of a campaign: a matrix persisted to its own store file.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Phase label (progress and `serve_stats` reporting).
    pub label: String,
    /// The matrix to execute.
    pub matrix: CampaignMatrix,
    /// The JSONL store path (created or resumed).
    pub store: PathBuf,
}

/// Coordinator configuration.
#[derive(Clone)]
pub struct CoordinatorOptions {
    /// TCP listen address for workers (e.g. `127.0.0.1:0`).
    pub listen: String,
    /// Optional HTTP listen address for `/report`, `/progress`, `/healthz`.
    pub http: Option<String>,
    /// Lease deadline: a unit not answered within this window is treated
    /// as failed and re-queued under the retry policy.
    pub lease_ms: u64,
    /// Bounded retry with backoff for failed/expired units — the same
    /// policy type the in-process pool applies to failed shards.
    pub retry: RetryPolicy,
    /// Hard cap on outstanding leases per worker (backpressure), applied
    /// on top of each worker's advertised slot count.
    pub max_inflight: usize,
    /// Suppress stderr progress output.
    pub quiet: bool,
    /// Structured-event handle; receives the [`Ledger`]'s shard events
    /// (`attack_outcomes`, `shard_done`, `shard_failed`, `profile`),
    /// `serve_stats`, forwarded worker events (as `worker_event`), and the
    /// `flight_dump`s of SIGINT drain, worker loss and quarantine.
    pub telemetry: Telemetry,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            listen: "127.0.0.1:0".to_string(),
            http: None,
            lease_ms: 60_000,
            retry: RetryPolicy::default(),
            max_inflight: 4,
            quiet: false,
            telemetry: Telemetry::off(),
        }
    }
}

/// Per-phase outcome.
#[derive(Debug)]
pub struct PhaseSummary {
    /// Phase label.
    pub label: String,
    /// Total units in the phase.
    pub total_units: u64,
    /// Units persisted as done (including resumed ones).
    pub done_units: u64,
    /// Units persisted as permanently failed.
    pub failed_units: u64,
    /// Units skipped because the store already held them.
    pub resumed_units: u64,
}

impl PhaseSummary {
    /// Whether every unit completed successfully.
    pub fn complete(&self) -> bool {
        self.done_units == self.total_units
    }
}

/// Outcome of a coordinator run.
#[derive(Debug)]
pub struct CoordinatorSummary {
    /// One entry per phase, in plan order.
    pub phases: Vec<PhaseSummary>,
    /// Service counters summed over all phases.
    pub stats: ServeStats,
    /// Whether the run was stopped early (stop flag / SIGINT drain).
    pub stopped: bool,
}

impl CoordinatorSummary {
    /// Whether every phase completed every unit.
    pub fn complete(&self) -> bool {
        !self.stopped && self.phases.iter().all(PhaseSummary::complete)
    }
}

/// Shared write half of a worker connection.
#[derive(Clone)]
struct Writer(Arc<Mutex<TcpStream>>);

impl Writer {
    fn send(&self, v: &Json) -> Result<(), String> {
        write_frame(&mut *self.0.lock().expect("writer poisoned"), v)
    }

    fn close(&self) {
        let _ = self.0.lock().expect("writer poisoned").shutdown(std::net::Shutdown::Both);
    }
}

enum CoordMsg {
    /// A connection appeared; the writer half is registered eagerly so
    /// the scheduler can answer its `hello`.
    Connected { conn: usize, writer: Writer },
    /// A frame arrived from a connection.
    Frame { conn: usize, frame: Json },
    /// The connection closed or its reader failed.
    Gone { conn: usize },
}

struct WorkerConn {
    writer: Writer,
    name: String,
    slots: usize,
    /// Keys of units currently leased to this worker.
    inflight: Vec<String>,
    /// Expired leases; at [`MAX_STRIKES`] the worker is quarantined.
    strikes: u32,
    alive: bool,
    hello: bool,
    /// Last cumulative event-drop count reported by the worker.
    dropped_seen: u64,
}

struct Unit {
    task: ShardTask,
    key: String,
    /// Not leased before this instant (retry backoff).
    ready_at: Instant,
}

struct Lease {
    conn: usize,
    deadline: Instant,
}

/// A bound coordinator: listeners are open (so the address is known and
/// workers may already connect) but no campaign runs until
/// [`Coordinator::run`].
pub struct Coordinator {
    listener: TcpListener,
    addr: String,
    http_addr: Option<String>,
    http_handle: Option<std::thread::JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    live: Arc<LiveView>,
    options: CoordinatorOptions,
}

impl Coordinator {
    /// Binds the worker listener (and the HTTP listener, when configured).
    ///
    /// # Errors
    ///
    /// Returns a message when an address cannot be bound.
    pub fn bind(options: CoordinatorOptions) -> Result<Coordinator, String> {
        let listener = TcpListener::bind(&options.listen)
            .map_err(|e| format!("binding {}: {e}", options.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("resolving listen address: {e}"))?
            .to_string();
        let live = Arc::new(LiveView::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (http_addr, http_handle) = match &options.http {
            Some(http) => {
                let http_listener =
                    TcpListener::bind(http).map_err(|e| format!("binding http {http}: {e}"))?;
                let bound = http_listener
                    .local_addr()
                    .map_err(|e| format!("resolving http address: {e}"))?
                    .to_string();
                let handle =
                    crate::http::spawn(http_listener, Arc::clone(&live), Arc::clone(&shutdown));
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };
        Ok(Coordinator { listener, addr, http_addr, http_handle, shutdown, live, options })
    }

    /// The bound worker address (resolves `:0` to the actual port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The bound HTTP address, when HTTP is enabled.
    pub fn http_addr(&self) -> Option<&str> {
        self.http_addr.as_deref()
    }

    /// The live state the HTTP endpoints render.
    pub fn live(&self) -> Arc<LiveView> {
        Arc::clone(&self.live)
    }

    /// Runs the campaign phases to completion (or until `stop` is set:
    /// leasing halts, in-flight units drain, and the stores are left
    /// checkpointed for a later resume).
    ///
    /// # Errors
    ///
    /// Returns a message on store I/O errors; worker failures are handled
    /// by the retry machinery, not surfaced here.
    pub fn run(
        mut self,
        run_id: &str,
        phases: &[PhasePlan],
        stop: Option<Arc<AtomicBool>>,
    ) -> Result<CoordinatorSummary, String> {
        let (tx, rx) = mpsc::channel::<CoordMsg>();
        let accept_handle = spawn_acceptor(
            self.listener.try_clone().map_err(|e| format!("cloning listener: {e}"))?,
            tx.clone(),
            Arc::clone(&self.shutdown),
        );

        let mut state = SchedulerState {
            workers: HashMap::new(),
            run_id: run_id.to_string(),
            options: self.options.clone(),
            live: Arc::clone(&self.live),
            stats_total: ServeStats::default(),
            stopped: false,
            flight: Ledger::recorder(&self.options.telemetry),
        };
        let stop_flag = stop.unwrap_or_else(|| Arc::new(AtomicBool::new(false)));

        let mut summaries = Vec::with_capacity(phases.len());
        for (index, plan) in phases.iter().enumerate() {
            let summary = state.run_phase(index, plan, &rx, &stop_flag)?;
            summaries.push(summary);
            if state.stopped {
                break;
            }
        }

        // Campaign over: tell every worker to drain and exit, then tear
        // down the listener threads and reader sockets.
        for worker in state.workers.values() {
            if worker.hello && worker.alive {
                let _ = worker.writer.send(&obj(vec![("t", Json::Str("bye".to_string()))]));
            }
        }
        self.live.finish();
        self.shutdown.store(true, Ordering::Relaxed);
        for worker in state.workers.values() {
            worker.writer.close();
        }
        drop(tx);
        let _ = accept_handle.join();
        if let Some(handle) = self.http_handle.take() {
            let _ = handle.join();
        }
        Ok(CoordinatorSummary {
            phases: summaries,
            stats: state.stats_total.clone(),
            stopped: state.stopped,
        })
    }
}

fn spawn_acceptor(
    listener: TcpListener,
    tx: Sender<CoordMsg>,
    shutdown: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let _ = listener.set_nonblocking(true);
    std::thread::spawn(move || {
        let mut next_conn = 0usize;
        loop {
            if shutdown.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let conn = next_conn;
                    next_conn += 1;
                    let Ok(read_half) = stream.try_clone() else { continue };
                    let writer = Writer(Arc::new(Mutex::new(stream)));
                    if tx.send(CoordMsg::Connected { conn, writer }).is_err() {
                        break;
                    }
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let mut read_half = read_half;
                        while let Ok(Some(frame)) = read_frame(&mut read_half) {
                            if tx.send(CoordMsg::Frame { conn, frame }).is_err() {
                                break;
                            }
                        }
                        let _ = tx.send(CoordMsg::Gone { conn });
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(_) => break,
            }
        }
    })
}

struct SchedulerState {
    workers: HashMap<usize, WorkerConn>,
    run_id: String,
    options: CoordinatorOptions,
    live: Arc<LiveView>,
    stats_total: ServeStats,
    stopped: bool,
    /// One flight recorder across every phase's ledger, dumped (straight to
    /// the configured sink, so windows never nest) on SIGINT drain, worker
    /// loss mid-unit, and quarantine.
    flight: Arc<FlightRecorder>,
}

/// Everything one phase needs while its scheduler loop runs.
struct PhaseRun {
    index: usize,
    /// The `phase` frame announced to present and future workers.
    announce: Json,
    ledger: Ledger,
    pending: VecDeque<Unit>,
    leases: HashMap<String, Lease>,
    attempts: HashMap<String, u32>,
    /// Units not yet resolved (done or permanently failed) this phase.
    remaining: u64,
    stats: ServeStats,
}

impl SchedulerState {
    fn run_phase(
        &mut self,
        index: usize,
        plan: &PhasePlan,
        rx: &Receiver<CoordMsg>,
        stop: &AtomicBool,
    ) -> Result<PhaseSummary, String> {
        let ledger =
            Ledger::open(&self.run_id, &plan.matrix, Some(&plan.store), Arc::clone(&self.flight))?;
        let pending: VecDeque<Unit> = ledger
            .pending()
            .into_iter()
            .map(|(task, key)| Unit { task, key, ready_at: Instant::now() })
            .collect();
        let total = ledger.header.total_shards;
        let resumed_units = total - pending.len() as u64;
        let remaining = pending.len() as u64;
        self.live.begin_phase(
            &self.run_id,
            &plan.label,
            ledger.header.clone(),
            ledger.store().done.clone(),
            ledger.store().failed.clone(),
        );
        if !self.options.quiet {
            eprintln!(
                "cfed-serve: phase {} — {} units ({} resumed), store {}",
                plan.label,
                total,
                resumed_units,
                plan.store.display()
            );
        }

        let mut phase = PhaseRun {
            index,
            announce: obj(vec![
                ("t", Json::Str("phase".to_string())),
                ("phase", Json::UInt(index as u64)),
                ("label", Json::Str(plan.label.clone())),
                ("matrix", matrix_to_json(&plan.matrix)),
            ]),
            ledger,
            pending,
            leases: HashMap::new(),
            attempts: HashMap::new(),
            remaining,
            stats: ServeStats::default(),
        };

        // A phase only ends once nothing is leased or pending, so leases
        // never carry across phases — but clear the per-worker in-flight
        // bookkeeping in case an expired-then-resolved unit left a stale
        // entry eating lease capacity.
        for worker in self.workers.values_mut() {
            worker.inflight.clear();
            if worker.hello && worker.alive && worker.writer.send(&phase.announce).is_err() {
                worker.alive = false;
            }
        }

        while phase.remaining > 0 {
            if stop.load(Ordering::Relaxed) && !self.stopped {
                self.stopped = true;
                // Straight to the configured sink (not through the ring):
                // the window must never contain earlier windows.
                self.options.telemetry.emit_with(|| self.flight.dump_event("sigint"));
                if !self.options.quiet {
                    eprintln!(
                        "cfed-serve: stop requested — draining {} in-flight unit(s)",
                        phase.leases.len()
                    );
                }
            }
            if self.stopped && phase.leases.is_empty() {
                break;
            }
            if !self.stopped {
                self.assign(&mut phase);
            }
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(msg) => self.handle(msg, &mut phase)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.expire(&mut phase)?;
            // Keep `/progress` and `/metrics` current mid-phase: publish
            // run-so-far counters (prior phases + this one) and the
            // per-worker in-flight lease counts every loop tick.
            let mut live_stats = self.stats_total.clone();
            live_stats.absorb(&phase.stats);
            self.live.set_stats(live_stats);
            self.publish_inflight();
        }

        // Phase accounting: persist the service counters as a meta record
        // (invisible to the report) and emit the serve_stats event.
        let stats = phase.stats.clone();
        phase.ledger.append_meta("serve_stats", stats.to_meta_fields())?;
        phase.ledger.telemetry.emit_with(|| stats.to_event());
        self.stats_total.absorb(&stats);
        self.live.set_stats(self.stats_total.clone());
        let done_units = phase.ledger.store().done.len() as u64;
        let failed_units = phase.ledger.store().failed.len() as u64;
        if !self.options.quiet {
            eprintln!(
                "cfed-serve: phase {} {} — {}/{} units done ({} failed, {} retried attempt(s))",
                plan.label,
                if self.stopped { "checkpointed" } else { "complete" },
                done_units,
                total,
                failed_units,
                stats.retried,
            );
        }
        Ok(PhaseSummary {
            label: plan.label.clone(),
            total_units: total,
            done_units,
            failed_units,
            resumed_units,
        })
    }

    /// Leases ready units to live workers with spare capacity.
    fn assign(&mut self, phase: &mut PhaseRun) {
        let now = Instant::now();
        let cap = self.options.max_inflight.max(1);
        loop {
            // Next ready unit, respecting retry backoff.
            let Some(pos) = phase.pending.iter().position(|u| u.ready_at <= now) else {
                return;
            };
            // Least-loaded live worker with a free lease slot.
            let Some((&conn, worker)) = self
                .workers
                .iter_mut()
                .filter(|(_, w)| {
                    w.hello
                        && w.alive
                        && w.strikes < MAX_STRIKES
                        && w.inflight.len() < cap.min(w.slots.max(1))
                })
                .min_by_key(|(_, w)| w.inflight.len())
            else {
                return;
            };
            let unit = phase.pending.remove(pos).expect("position valid");
            let lease = obj(vec![
                ("t", Json::Str("lease".to_string())),
                ("phase", Json::UInt(phase.index as u64)),
                ("cell", Json::UInt(unit.task.cell as u64)),
                ("shard", Json::UInt(unit.task.shard_index)),
                ("key", Json::Str(unit.key.clone())),
            ]);
            if worker.writer.send(&lease).is_err() {
                worker.alive = false;
                phase.pending.push_front(unit);
                continue;
            }
            worker.inflight.push(unit.key.clone());
            phase.stats.leased += 1;
            phase.leases.insert(
                unit.key,
                Lease { conn, deadline: now + Duration::from_millis(self.options.lease_ms.max(1)) },
            );
        }
    }

    fn handle(&mut self, msg: CoordMsg, phase: &mut PhaseRun) -> Result<(), String> {
        match msg {
            CoordMsg::Connected { conn, writer } => {
                self.workers.insert(
                    conn,
                    WorkerConn {
                        writer,
                        name: format!("w{conn}"),
                        slots: 1,
                        inflight: Vec::new(),
                        strikes: 0,
                        alive: true,
                        hello: false,
                        dropped_seen: 0,
                    },
                );
                Ok(())
            }
            CoordMsg::Gone { conn } => self.worker_gone(conn, phase),
            CoordMsg::Frame { conn, frame } => self.handle_frame(conn, &frame, phase),
        }
    }

    fn handle_frame(
        &mut self,
        conn: usize,
        frame: &Json,
        phase: &mut PhaseRun,
    ) -> Result<(), String> {
        let Ok(kind) = tag(frame) else {
            return Ok(()); // tolerate junk frames rather than dying on them
        };
        match kind {
            "hello" => {
                let declared = frame.get("name").and_then(Json::as_str).unwrap_or("").to_string();
                let taken = !declared.is_empty()
                    && self.workers.values().any(|w| w.hello && w.name == declared);
                let slots =
                    frame.get("slots").and_then(Json::as_u64).unwrap_or(1).clamp(1, 256) as usize;
                let Some(worker) = self.workers.get_mut(&conn) else { return Ok(()) };
                worker.hello = true;
                worker.slots = slots;
                if !declared.is_empty() {
                    worker.name = if taken { format!("{declared}-{conn}") } else { declared };
                }
                let welcome = obj(vec![
                    ("t", Json::Str("welcome".to_string())),
                    ("run_id", Json::Str(self.run_id.clone())),
                    ("worker", Json::Str(worker.name.clone())),
                ]);
                if worker.writer.send(&welcome).is_err()
                    || worker.writer.send(&phase.announce).is_err()
                {
                    worker.alive = false;
                }
                self.publish_worker_count();
                Ok(())
            }
            "result" => self.handle_result(conn, frame, phase),
            "fail" => {
                let key = frame.get("key").and_then(Json::as_str).unwrap_or("").to_string();
                let error = frame
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("worker reported failure")
                    .to_string();
                if let Some(worker) = self.workers.get_mut(&conn) {
                    worker.inflight.retain(|k| k != &key);
                }
                if phase.leases.remove(&key).is_some() {
                    self.retry_or_fail(phase, &key, &error)?;
                }
                Ok(())
            }
            "event" => {
                phase.stats.events_forwarded += 1;
                let worker = self.workers.get(&conn).map_or("?", |w| w.name.as_str()).to_string();
                let payload = frame.get("ev").cloned().unwrap_or(Json::Null);
                self.live.record_event(&worker, payload.clone());
                phase.ledger.telemetry.emit_with(|| {
                    Event::new("worker_event").str("worker", &worker).json("event", payload)
                });
                Ok(())
            }
            "profile" => {
                // First worker to finish a unit of a cell ships the cell's
                // execution profile; the store append is idempotent, so
                // duplicates from other workers (profiles are deterministic
                // functions of the cell) change nothing.
                let cell = frame.get("cell").and_then(Json::as_str).unwrap_or("").to_string();
                if !phase.ledger.cells.iter().any(|c| c.key() == cell) {
                    return Ok(()); // unknown cell: stale or corrupt frame
                }
                let Some(payload) = frame.get("profile") else { return Ok(()) };
                match Profile::from_json(payload) {
                    Ok(profile) => {
                        if phase.ledger.record_profile(&cell, &profile)? {
                            self.live.record_profile(&profile.totals());
                        }
                        Ok(())
                    }
                    Err(e) => {
                        if !self.options.quiet {
                            eprintln!("cfed-serve: bad profile frame for {cell}: {e}");
                        }
                        Ok(())
                    }
                }
            }
            "bye" => {
                if let Some(worker) = self.workers.get_mut(&conn) {
                    worker.alive = false;
                }
                self.publish_worker_count();
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn handle_result(
        &mut self,
        conn: usize,
        frame: &Json,
        phase: &mut PhaseRun,
    ) -> Result<(), String> {
        let key = frame.get("key").and_then(Json::as_str).unwrap_or("").to_string();
        let frame_phase = frame.get("phase").and_then(Json::as_u64);
        let ms = frame.get("ms").and_then(Json::as_u64).unwrap_or(0);
        if let Some(worker) = self.workers.get_mut(&conn) {
            worker.inflight.retain(|k| k != &key);
            // Cumulative drop counter from the worker's bounded event queue.
            let dropped = frame.get("dropped").and_then(Json::as_u64).unwrap_or(0);
            if dropped > worker.dropped_seen {
                phase.stats.events_dropped += dropped - worker.dropped_seen;
                worker.dropped_seen = dropped;
            }
        }
        if frame_phase != Some(phase.index as u64) || phase.ledger.store().done.contains_key(&key) {
            // Late delivery from a previous phase, or a duplicate of a unit
            // another worker already completed: idempotent drop.
            phase.stats.duplicates += 1;
            return Ok(());
        }
        // The unit must be tracked (leased, or back in the queue after an
        // expiry) — anything else is a duplicate of an attempt we already
        // resolved.
        let was_leased = phase.leases.remove(&key).is_some();
        let was_pending = {
            let before = phase.pending.len();
            phase.pending.retain(|u| u.key != key);
            phase.pending.len() != before
        };
        if !was_leased && !was_pending {
            phase.stats.duplicates += 1;
            return Ok(());
        }
        let record = frame.get("record").ok_or("result frame missing record")?;
        let tallies = match shard_from_json(record) {
            Ok(t) => t,
            Err(e) => {
                // A malformed record counts as a failed attempt.
                return self.retry_or_fail(phase, &key, &format!("malformed result: {e}"));
            }
        };
        phase.ledger.record_ok(&key, tallies.clone())?;
        phase.remaining -= 1;
        let worker_name = self.workers.get(&conn).map_or("?", |w| w.name.as_str()).to_string();
        phase.stats.record_unit(&worker_name, ms);
        self.live.record_done(&key, tallies);
        Ok(())
    }

    /// A unit's attempt failed (fail frame, expiry, disconnect, malformed
    /// result): re-queue with backoff while the retry budget lasts, else
    /// record it permanently failed.
    fn retry_or_fail(
        &mut self,
        phase: &mut PhaseRun,
        key: &str,
        error: &str,
    ) -> Result<(), String> {
        let slot = phase.attempts.entry(key.to_string()).or_insert(0);
        *slot += 1;
        let attempts = *slot;
        let Some(task) = phase.ledger.task(key) else {
            return Ok(()); // unknown key: nothing to re-queue
        };
        let retrying = self.options.retry.allows(attempts);
        phase.ledger.record_failure(key, error, attempts, retrying)?;
        if retrying {
            phase.stats.retried += 1;
            if !self.options.quiet {
                eprintln!("cfed-serve: unit {key} attempt {attempts} failed, retrying: {error}");
            }
            phase.pending.push_back(Unit {
                task,
                key: key.to_string(),
                ready_at: Instant::now() + self.options.retry.backoff(attempts),
            });
        } else {
            phase.stats.failed += 1;
            phase.remaining -= 1;
            self.live.record_failed(key, error);
            eprintln!("cfed-serve: unit {key} FAILED after {attempts} attempt(s): {error}");
        }
        Ok(())
    }

    /// Re-queues every unit leased to a disconnected worker.
    fn worker_gone(&mut self, conn: usize, phase: &mut PhaseRun) -> Result<(), String> {
        let Some(worker) = self.workers.get_mut(&conn) else { return Ok(()) };
        worker.alive = false;
        let name = worker.name.clone();
        let lost: Vec<String> = std::mem::take(&mut worker.inflight);
        self.publish_worker_count();
        if !lost.is_empty() {
            // A worker died mid-unit (killed, crashed, or cut off): dump
            // the recent-event window past the recorder so the forensics
            // trail survives even though the worker itself cannot report.
            self.options.telemetry.emit_with(|| {
                self.flight
                    .dump_event("worker_lost")
                    .str("worker", &name)
                    .u64("lost_leases", lost.len() as u64)
            });
        }
        for key in lost {
            if phase.leases.remove(&key).is_some() {
                phase.stats.expired += 1;
                self.retry_or_fail(phase, &key, "worker disconnected mid-unit")?;
            }
        }
        Ok(())
    }

    /// Fails leases past their deadline (striking the worker) and
    /// re-queues them under the retry policy.
    fn expire(&mut self, phase: &mut PhaseRun) -> Result<(), String> {
        let now = Instant::now();
        let expired: Vec<String> = phase
            .leases
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(k, _)| k.clone())
            .collect();
        for key in expired {
            let Some(lease) = phase.leases.remove(&key) else { continue };
            phase.stats.expired += 1;
            if let Some(worker) = self.workers.get_mut(&lease.conn) {
                worker.inflight.retain(|k| k != &key);
                worker.strikes += 1;
                if worker.strikes == MAX_STRIKES {
                    phase.stats.quarantined += 1;
                    self.options.telemetry.emit_with(|| {
                        self.flight.dump_event("quarantine").str("worker", &worker.name)
                    });
                    if !self.options.quiet {
                        eprintln!(
                            "cfed-serve: worker {} quarantined after {} expired leases",
                            worker.name, worker.strikes
                        );
                    }
                }
            }
            self.retry_or_fail(phase, &key, "lease expired")?;
        }
        Ok(())
    }

    fn publish_worker_count(&self) {
        self.live.set_workers(self.workers.values().filter(|w| w.hello && w.alive).count());
    }

    /// Mirrors per-worker outstanding-lease counts into the live view
    /// (`/progress` and the `cfed_worker_inflight` gauge).
    fn publish_inflight(&self) {
        let inflight = self
            .workers
            .values()
            .filter(|w| w.hello && w.alive)
            .map(|w| (w.name.clone(), w.inflight.len() as u64))
            .collect();
        self.live.set_inflight(inflight);
    }
}
