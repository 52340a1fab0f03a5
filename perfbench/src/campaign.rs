//! Untraced campaign runs through the real entry points, and the set-up
//! pass `setup_s` times.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use cfed_fault::{AttackModel, SnapshotSet};
use cfed_runner::pool::{run_matrix, RunnerOptions};
use cfed_runner::report::{render_attack_frontier, render_report};
use cfed_serve::{work, Coordinator, CoordinatorOptions, PhasePlan, ServeStats, WorkerOptions};

use crate::workload::{distinct_goldens, distinct_workloads, total_trials, total_units};

/// Worker threads of every campaign, in-process or served.
pub const THREADS: usize = 2;

/// One finished campaign.
pub struct CampaignRun {
    /// Host seconds from the entry-point call until the reports are rendered.
    pub wall_s: f64,
    /// Trials executed.
    pub trials: u64,
    /// Work units (shards) attempted.
    pub units: u64,
    /// Work units that ended failed.
    pub failed_units: u64,
    /// The rendered reports of every phase.
    pub report: String,
    /// Service counters, for a served campaign.
    pub serve: Option<ServeStats>,
}

fn runner_options() -> RunnerOptions {
    RunnerOptions { threads: THREADS, quiet: true, profile: false, ..RunnerOptions::default() }
}

/// Deletes the phases' stores, so the next campaign starts fresh rather
/// than resuming.
pub fn remove_stores(phases: &[PhasePlan]) -> Result<(), String> {
    for plan in phases {
        match std::fs::remove_file(&plan.store) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("removing {}: {e}", plan.store.display())),
        }
    }
    Ok(())
}

/// Renders every phase's store: the coverage/latency report, plus the
/// detection frontier for attack phases.
pub fn render(phases: &[PhasePlan]) -> Result<String, String> {
    let mut out = String::new();
    for plan in phases {
        out.push_str(&format!("### phase {}\n", plan.label));
        out.push_str(&render_report(&plan.store)?);
        if plan.matrix.attacks.iter().any(Option::is_some) {
            out.push_str(&render_attack_frontier(&plan.store)?);
        }
    }
    Ok(out)
}

/// Runs the phases in-process through `run_matrix`, from fresh stores.
pub fn run_in_process(run_id: &str, phases: &[PhasePlan]) -> Result<CampaignRun, String> {
    remove_stores(phases)?;
    let options = runner_options();
    let started = Instant::now();
    let mut failed_units = 0;
    for plan in phases {
        let summary = run_matrix(&plan.matrix, run_id, Some(&plan.store), &options)?;
        failed_units += summary.cells.iter().map(|c| c.total_shards - c.done_shards).sum::<u64>();
    }
    let report = render(phases)?;
    Ok(CampaignRun {
        wall_s: started.elapsed().as_secs_f64(),
        trials: total_trials(phases),
        units: total_units(phases),
        failed_units,
        report,
        serve: None,
    })
}

/// Runs the phases through an in-process coordinator on 127.0.0.1 and one
/// in-process worker over one TCP connection, from fresh stores.
pub fn run_served(run_id: &str, phases: &[PhasePlan]) -> Result<CampaignRun, String> {
    remove_stores(phases)?;
    let started = Instant::now();
    let coordinator = Coordinator::bind(CoordinatorOptions {
        listen: "127.0.0.1:0".to_string(),
        quiet: true,
        ..CoordinatorOptions::default()
    })?;
    let worker_options = WorkerOptions {
        connect: coordinator.addr().to_string(),
        name: "bench-worker".to_string(),
        threads: THREADS,
        snapshots: true,
        profile: false,
        quiet: true,
        ..WorkerOptions::default()
    };
    let (summary, worker) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| work(&worker_options, None));
        let summary = coordinator.run(run_id, phases, None);
        (summary, worker.join())
    });
    let summary = summary?;
    worker.map_err(|_| "worker thread panicked".to_string())??;
    let report = render(phases)?;
    let failed_units = summary.phases.iter().map(|p| p.total_units - p.done_units).sum();
    Ok(CampaignRun {
        wall_s: started.elapsed().as_secs_f64(),
        trials: total_trials(phases),
        units: total_units(phases),
        failed_units,
        report,
        serve: Some(summary.stats),
    })
}

/// Runs the workload's campaign once through its entry point.
pub fn run(served: bool, run_id: &str, phases: &[PhasePlan]) -> Result<CampaignRun, String> {
    if served {
        run_served(run_id, phases)
    } else {
        run_in_process(run_id, phases)
    }
}

/// One set-up pass, in host seconds: compile every guest image, then
/// capture every distinct golden run and snapshot set of each phase (and,
/// for attack cells, analyze the attack surface) — the work a campaign
/// does before its first trial can run. Runs on the calling thread.
pub fn setup_pass(phases: &[PhasePlan]) -> Result<f64, String> {
    let started = Instant::now();
    for plan in phases {
        let cells = plan.matrix.cells();
        let mut images = BTreeMap::new();
        for spec in distinct_workloads(&cells) {
            images.insert(spec.key(), spec.image()?);
        }
        for cell in distinct_goldens(&cells) {
            let image = &images[&cell.workload.key()];
            let captured = SnapshotSet::capture(image, &cell.config).map_err(|e| e.to_string())?;
            std::hint::black_box(captured);
            if cell.attack.is_some() {
                let surface =
                    AttackModel::new(cell.config).analyze(image).map_err(|e| e.to_string())?;
                std::hint::black_box(surface);
            }
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Creates `dir` (and parents) when missing.
pub fn ensure_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Peak resident set size of this process so far, in MiB, as the kernel
/// measured it (`getrusage(RUSAGE_SELF).ru_maxrss`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> Result<f64, String> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage { times: [0; 4], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable value laid out exactly like the
    // kernel's `struct rusage` on 64-bit Linux, which is all `getrusage`
    // writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage failed: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

/// Peak resident set size is only measured on 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> Result<f64, String> {
    Err("peak_rss_mb needs 64-bit Linux".to_string())
}
