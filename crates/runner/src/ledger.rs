//! The shard ledger: how a campaign run records its shards, whichever
//! scheduler ran them — the in-process pool ([`crate::pool::run_matrix`])
//! retrying in its threads, or the `cfed-serve` coordinator re-queueing
//! leases. One [`Ledger`] per matrix opens (or resumes) the store, lists
//! the pending shards, persists finished shards, final failures and cell
//! profiles, emits their events through the always-on flight recorder, and
//! assembles per-cell results. `shard_done` carries `done` = shards the
//! store holds (resumed ones included) and `of` = shards in the matrix.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use cfed_core::Category;
use cfed_fault::CampaignReport;
use cfed_telemetry::{Event, EventSink, FlightRecorder, Profile, Telemetry};

use crate::json::Json;
use crate::matrix::{CampaignMatrix, CellSpec, ShardTask};
use crate::store::{CampaignStore, StoreHeader};

/// Flight-recorder window: the recent events a forensics bundle or a
/// `flight_dump` carries (enough context to see the shards and retries
/// leading up to an anomaly without unbounded history).
const FLIGHT_WINDOW: usize = 64;

/// Result of one cell after the run.
#[derive(Debug)]
pub struct CellResult {
    /// Index into the matrix's cell list.
    pub cell: usize,
    /// The cell's identity key.
    pub key: String,
    /// Merged report over the cell's completed shards, `None` if none
    /// completed (e.g. the workload traps under this configuration).
    pub report: Option<CampaignReport>,
    /// Completed shards.
    pub done_shards: u64,
    /// Total shards in the cell.
    pub total_shards: u64,
    /// Error messages of failed shards (panics, golden failures).
    pub failures: Vec<String>,
}

impl CellResult {
    /// Whether every shard of the cell completed.
    pub fn complete(&self) -> bool {
        self.done_shards == self.total_shards
    }
}

/// One matrix's store plus the event plane its shard records go to.
pub struct Ledger {
    /// The store's header, derived from the run id and the matrix.
    pub header: StoreHeader,
    /// The matrix's cells, shareable with worker threads.
    pub cells: Arc<[CellSpec]>,
    /// Events routed through the flight recorder.
    pub telemetry: Telemetry,
    store: CampaignStore,
    /// Cell key → index into `cells`.
    cell_index: HashMap<String, usize>,
}

impl Ledger {
    /// The always-on flight recorder: tees in front of `telemetry`'s sink
    /// (or stands alone when telemetry is off), so anomaly paths can attach
    /// the recent-event window without changing what downstream sees. The
    /// caller keeps it for those windows (emitted straight to the configured
    /// sink, so windows never nest); one recorder may serve the ledgers of
    /// several consecutive matrices.
    pub fn recorder(telemetry: &Telemetry) -> Arc<FlightRecorder> {
        Arc::new(match telemetry.sink() {
            Some(inner) => FlightRecorder::tee(FLIGHT_WINDOW, inner),
            None => FlightRecorder::new(FLIGHT_WINDOW),
        })
    }

    /// Opens the ledger of `matrix`: its store at `path` (created, or
    /// validated and resumed), or an in-memory store when `path` is `None`.
    ///
    /// # Errors
    ///
    /// Returns the store's message on I/O errors, corruption, or a store
    /// that belongs to a different campaign.
    pub fn open(
        run_id: &str,
        matrix: &CampaignMatrix,
        path: Option<&Path>,
        flight: Arc<FlightRecorder>,
    ) -> Result<Ledger, String> {
        let cells: Arc<[CellSpec]> = matrix.cells().into();
        let header = StoreHeader {
            run_id: run_id.to_string(),
            seed: matrix.seed,
            trials: matrix.trials,
            shard_trials: CampaignMatrix::shard_trials(),
            digest: CampaignMatrix::digest(&cells),
            total_shards: cells.iter().map(CellSpec::num_shards).sum(),
        };
        let store = match path {
            Some(path) => CampaignStore::open(path, &header)?,
            None => CampaignStore::in_memory(),
        };
        let cell_index = cells.iter().enumerate().map(|(i, c)| (c.key(), i)).collect();
        let telemetry = Telemetry::to(flight as Arc<dyn EventSink>);
        Ok(Ledger { header, cells, telemetry, store, cell_index })
    }

    /// The shards the store does not hold as done, with their keys, in
    /// matrix order: everything a (resumed) run still has to execute.
    pub fn pending(&self) -> Vec<(ShardTask, String)> {
        CampaignMatrix::shards(&self.cells)
            .into_iter()
            .map(|t| (t, t.key(&self.cells)))
            .filter(|(_, key)| !self.store.done.contains_key(key))
            .collect()
    }

    /// The shard task a store key names, when it belongs to this matrix.
    pub fn task(&self, shard_key: &str) -> Option<ShardTask> {
        let (cell_key, shard_index) = ShardTask::split_key(shard_key)?;
        Some(ShardTask { cell: *self.cell_index.get(cell_key)?, shard_index })
    }

    /// The open store (done/failed shards, persisted profiles).
    pub fn store(&self) -> &CampaignStore {
        &self.store
    }

    /// Persists a run-level meta record (see [`CampaignStore::append_meta`]).
    pub fn append_meta(
        &mut self,
        kind: &str,
        fields: Vec<(&'static str, Json)>,
    ) -> Result<(), String> {
        self.store.append_meta(kind, fields)
    }

    /// Persists a finished shard and emits its events: `attack_outcomes`
    /// for attack cells (the raw material of the detection frontier,
    /// queryable live from the event plane), then `shard_done`.
    pub fn record_ok(&mut self, key: &str, tallies: CampaignReport) -> Result<(), String> {
        if let Some(kind) = self.task(key).and_then(|t| self.cells[t.cell].attack) {
            let sums = tallies.total_over(&Category::ALL);
            self.telemetry.emit_with(|| {
                Event::new("attack_outcomes")
                    .str("shard", key)
                    .str("attack", kind.name())
                    .u64("detected_check", sums.detected_check)
                    .u64("detected_hw", sums.detected_hw)
                    .u64("other_fault", sums.other_fault)
                    .u64("benign", sums.benign)
                    .u64("sdc", sums.sdc)
                    .u64("timeout", sums.timeout)
                    .u64("unplaced", tallies.skipped)
            });
        }
        self.store.append_ok(key, tallies)?;
        let (done, of) = (self.store.done.len() as u64, self.header.total_shards);
        self.telemetry.emit_with(|| {
            Event::new("shard_done").str("shard", key).u64("done", done).u64("of", of)
        });
        Ok(())
    }

    /// Records failed attempt number `attempt` of a shard. A `retrying`
    /// attempt is visible in telemetry only (`shard_failed` with
    /// `retried:1`); a final one is also persisted as a failed shard, which
    /// a later resume retries. The caller decides which under its
    /// [`crate::retry::RetryPolicy`].
    pub fn record_failure(
        &mut self,
        key: &str,
        error: &str,
        attempt: u32,
        retrying: bool,
    ) -> Result<(), String> {
        if !retrying {
            self.store.append_failed(key, error)?;
        }
        self.telemetry.emit_with(|| {
            let event = Event::new("shard_failed")
                .str("shard", key)
                .str("error", error)
                .u64("attempt", u64::from(attempt));
            if retrying {
                event.u64("retried", 1)
            } else {
                event
            }
        });
        Ok(())
    }

    /// Persists a cell's execution profile and emits its `profile` event,
    /// once per cell: a repeat (another shard of the cell, another worker,
    /// or a resumed store) changes nothing. Returns whether it was written.
    pub fn record_profile(&mut self, cell_key: &str, profile: &Profile) -> Result<bool, String> {
        let written = self.store.append_profile(cell_key, profile)?;
        if written {
            self.telemetry.emit_with(|| {
                let t = profile.totals();
                Event::new("profile")
                    .str("cell", cell_key)
                    .u64("blocks", profile.num_blocks() as u64)
                    .u64("payload_cycles", t.payload)
                    .u64("instr_cycles", t.instr())
                    .u64("other_cycles", t.other)
            });
        }
        Ok(written)
    }

    /// Every cell's persisted shard tallies merged into one report, in
    /// matrix cell order (merging is order-independent), with the cell's
    /// failed shards.
    pub fn cell_results(&self) -> Vec<CellResult> {
        let mut results: Vec<CellResult> = (self.cells.iter().enumerate())
            .map(|(cell, spec)| CellResult {
                cell,
                key: spec.key(),
                report: None,
                done_shards: 0,
                total_shards: spec.num_shards(),
                failures: Vec::new(),
            })
            .collect();
        for (key, tallies) in &self.store.done {
            if let Some(task) = self.task(key) {
                let result = &mut results[task.cell];
                result.report.get_or_insert_with(CampaignReport::default).merge(tallies);
                result.done_shards += 1;
            }
        }
        for (key, error) in &self.store.failed {
            if let Some(task) = self.task(key) {
                results[task.cell].failures.push(format!("{key}: {error}"));
            }
        }
        results
    }
}
