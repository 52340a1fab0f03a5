//! The traced campaign: the same phases `run_matrix` executes, decomposed
//! from outside into calls to each layer's public functions, with a span
//! around every call. The program itself carries no timers; every span
//! here is recorded by the benchmark.
//!
//! The decomposition mirrors the pool: worker threads drain a cell-major
//! shard queue, each with its own image cache, sharing one golden/snapshot
//! cache per phase, while the main thread is the single store writer.
//!
//! | span                 | call                                         |
//! |----------------------|----------------------------------------------|
//! | `campaign`           | the whole traced campaign (main thread)      |
//! | `runner.phase`       | one phase (main thread: appends and waiting) |
//! | `runner.worker`      | one worker thread's share of a phase         |
//! | `workloads.build`    | `WorkloadSpec::image`                        |
//! | `fault.capture`      | `SnapshotSet::capture`                       |
//! | `runner.shard`       | one shard: `run_shard_with` + tallies        |
//! | `fault.trial`        | gap between two observer calls (fault cell)  |
//! | `fault.attack_trial` | gap between two observer calls (attack cell) |
//! | `runner.append`      | `CampaignStore::append_ok`                   |
//! | `runner.report`      | rendering every phase's report               |

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use cfed_asm::Image;
use cfed_fault::{Golden, SnapshotSet, SnapshotStats};
use cfed_perfbench::span::{ThreadSpans, Trace};
use cfed_runner::matrix::{CampaignMatrix, CellSpec, ShardTask};
use cfed_runner::store::{CampaignStore, ShardTallies, StoreHeader};
use cfed_serve::PhasePlan;

use crate::campaign::{remove_stores, render, THREADS};
use crate::workload::{distinct_goldens, total_trials, total_units};

/// Counters of one traced campaign that are not spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Wall seconds of the traced campaign.
    pub wall_s: f64,
    /// Trials executed.
    pub trials: u64,
    /// Work units executed.
    pub units: u64,
    /// Work units that failed.
    pub failed_units: u64,
    /// Distinct golden runs captured (summed over phases).
    pub goldens: u64,
    /// Snapshot shape and usage, summed over every captured set.
    pub snapshots: SnapshotStats,
    /// `latency_insts` of every placed trial: instructions retired between
    /// the injection and the end of the run.
    pub suffix_insts: Vec<u64>,
    /// Thread-nanoseconds worker threads spent on shard tasks.
    pub busy_ns: u64,
    /// Thread-nanoseconds worker threads were available (threads × phase
    /// wall).
    pub capacity_ns: u64,
    /// The rendered reports.
    pub report: String,
}

struct Prepared {
    golden: Golden,
    snapshots: SnapshotSet,
}

/// The phase-wide golden cache: one capture per golden key, failures
/// included, as in the pool.
type Goldens = Mutex<HashMap<String, Arc<Result<Prepared, String>>>>;

struct Done {
    key: String,
    tallies: Result<ShardTallies, String>,
    suffix: Vec<u64>,
}

/// What the worker threads of one phase share.
struct Shared<'a> {
    trace: &'a Trace,
    phase_span: u64,
    cells: &'a [CellSpec],
    queue: Mutex<VecDeque<ShardTask>>,
    goldens: Goldens,
    busy_ns: AtomicU64,
}

/// Runs the phases once, traced, from fresh stores.
pub fn run(trace: &Trace, run_id: &str, phases: &[PhasePlan]) -> Result<Counts, String> {
    remove_stores(phases)?;
    let mut counts = Counts::default();
    let mut main = trace.thread();
    let started = main.now();
    main.open("campaign");
    for plan in phases {
        run_phase(trace, &mut main, run_id, plan, &mut counts)?;
    }
    counts.report = main.time("runner.report", || render(phases))?;
    main.close();
    counts.wall_s = (main.now() - started) as f64 / 1e9;
    counts.trials = total_trials(phases);
    counts.units = total_units(phases);
    Ok(counts)
}

fn run_phase(
    trace: &Trace,
    main: &mut ThreadSpans<'_>,
    run_id: &str,
    plan: &PhasePlan,
    counts: &mut Counts,
) -> Result<(), String> {
    let phase_span = main.open("runner.phase");
    let phase_start = main.now();
    let cells = plan.matrix.cells();
    let tasks = CampaignMatrix::shards(&cells);
    let header = StoreHeader {
        run_id: run_id.to_string(),
        seed: plan.matrix.seed,
        trials: plan.matrix.trials,
        shard_trials: CampaignMatrix::shard_trials(),
        digest: CampaignMatrix::digest(&cells),
        total_shards: tasks.len() as u64,
    };
    let mut store = CampaignStore::open(&plan.store, &header)?;
    counts.goldens += distinct_goldens(&cells).len() as u64;

    let shared = Shared {
        trace,
        phase_span,
        cells: &cells,
        queue: Mutex::new(tasks.into_iter().collect()),
        goldens: Mutex::new(HashMap::new()),
        busy_ns: AtomicU64::new(0),
    };
    let (tx, rx) = mpsc::channel::<Done>();
    let threads = THREADS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    std::thread::scope(|scope| -> Result<(), String> {
        for _ in 0..threads {
            let (tx, shared) = (tx.clone(), &shared);
            scope.spawn(move || worker(shared, &tx));
        }
        drop(tx);
        for done in rx {
            counts.suffix_insts.extend(done.suffix);
            match done.tallies {
                Ok(t) => main.time("runner.append", || store.append_ok(&done.key, t))?,
                Err(e) => {
                    counts.failed_units += 1;
                    main.time("runner.append", || store.append_failed(&done.key, &e))?;
                }
            }
        }
        Ok(())
    })?;
    main.close();
    counts.busy_ns += shared.busy_ns.load(Ordering::Relaxed);
    counts.capacity_ns += threads as u64 * (main.now() - phase_start);
    for p in shared.goldens.into_inner().expect("golden map poisoned").values() {
        if let Ok(p) = &**p {
            counts.snapshots.absorb(&p.snapshots.stats());
        }
    }
    Ok(())
}

/// One worker thread: drains the shard queue, sending each shard's result
/// to the store writer.
fn worker(shared: &Shared<'_>, tx: &mpsc::Sender<Done>) {
    let mut spans = shared.trace.thread();
    spans.open_under("runner.worker", Some(shared.phase_span));
    let mut images: HashMap<String, Arc<Image>> = HashMap::new();
    loop {
        let Some(task) = shared.queue.lock().expect("queue poisoned").pop_front() else {
            break;
        };
        let started = spans.now();
        let cell = &shared.cells[task.cell];
        let key = task.key(shared.cells);
        let (tallies, suffix) = match image(&mut spans, &mut images, cell) {
            Ok(image) => match &*golden(&mut spans, &shared.goldens, cell, &image) {
                Ok(prepared) => shard(&mut spans, cell, &image, prepared, task.shard_index),
                Err(e) => (Err(e.clone()), Vec::new()),
            },
            Err(e) => (Err(e), Vec::new()),
        };
        shared.busy_ns.fetch_add(spans.now() - started, Ordering::Relaxed);
        if tx.send(Done { key, tallies, suffix }).is_err() {
            break;
        }
    }
    spans.close();
}

/// The cell's image from this worker's cache, built on first use.
fn image(
    spans: &mut ThreadSpans<'_>,
    images: &mut HashMap<String, Arc<Image>>,
    cell: &CellSpec,
) -> Result<Arc<Image>, String> {
    let key = cell.workload.key();
    if let Some(image) = images.get(&key) {
        return Ok(Arc::clone(image));
    }
    let image = Arc::new(spans.time("workloads.build", || cell.workload.image())?);
    images.insert(key, Arc::clone(&image));
    Ok(image)
}

/// The cell's golden run and snapshot set from the phase cache, captured on
/// first use. Two workers may race on a fresh key; the first insert wins.
fn golden(
    spans: &mut ThreadSpans<'_>,
    goldens: &Goldens,
    cell: &CellSpec,
    image: &Image,
) -> Arc<Result<Prepared, String>> {
    let key = cell.golden_key();
    if let Some(hit) = goldens.lock().expect("golden map poisoned").get(&key) {
        return Arc::clone(hit);
    }
    let captured = spans
        .time("fault.capture", || SnapshotSet::capture(image, &cell.config))
        .map(|(golden, snapshots)| Prepared { golden, snapshots })
        .map_err(|e| format!("golden run failed: {e}"));
    let mut map = goldens.lock().expect("golden map poisoned");
    Arc::clone(map.entry(key).or_insert(Arc::new(captured)))
}

/// Runs one shard through the snapshot path, recording one span per trial
/// (the gap since the previous observer call). Returns the tallies and the
/// trials' suffix lengths.
fn shard(
    spans: &mut ThreadSpans<'_>,
    cell: &CellSpec,
    image: &Image,
    prepared: &Prepared,
    index: u64,
) -> (Result<ShardTallies, String>, Vec<u64>) {
    let name = if cell.attack.is_some() { "fault.attack_trial" } else { "fault.trial" };
    let mut suffix = Vec::new();
    spans.open("runner.shard");
    let mut last = spans.now();
    let mut observe = |latency: u64| {
        let now = spans.now();
        spans.record(name, last, now);
        last = now;
        suffix.push(latency);
    };
    let (g, s) = (&prepared.golden, Some(&prepared.snapshots));
    let report = match cell.attack_campaign() {
        Some(c) => c.run_shard_with(image, g, s, index, |_, r| observe(r.latency_insts)),
        None => cell.campaign().run_shard_with(image, g, s, index, |_, r| observe(r.latency_insts)),
    };
    let tallies =
        report.map(|r| ShardTallies::from_report(&r)).map_err(|e| format!("shard failed: {e}"));
    spans.close();
    (tallies, suffix)
}
