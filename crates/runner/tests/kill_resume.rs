//! Integration test for the checkpoint/resume path: a campaign killed
//! midway (and even mid-write) must, after resuming from its JSONL store,
//! produce tallies bit-identical to an uninterrupted run.

use std::io::Write as _;
use std::path::PathBuf;

use cfed_core::{Category, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::Outcome;
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec};
use cfed_runner::pool::{run_matrix, RunSummary, RunnerOptions};

const PROGRAM: &str = r#"
    fn main() {
        let i = 0;
        let acc = 11;
        while (i < 40) {
            if (i % 5 == 2) { acc = acc * 2 - i; } else { acc = acc + 3; }
            i = i + 1;
        }
        out(acc);
    }
"#;

fn matrix() -> CampaignMatrix {
    CampaignMatrix {
        workloads: vec![WorkloadSpec::inline("kr", PROGRAM)],
        techniques: vec![None, Some(TechniqueKind::EdgCf), Some(TechniqueKind::Rcf)],
        styles: vec![UpdateStyle::CMov],
        policies: vec![CheckPolicy::AllBb],
        trials: 256,
        seed: 0xDECAF,
        attacks: vec![None],
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfed-kr-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("run.jsonl")
}

fn assert_summaries_equal(a: &RunSummary, b: &RunSummary) {
    assert_eq!(a.cells.len(), b.cells.len());
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.key, y.key);
        let (rx, ry) = (x.report.as_ref().unwrap(), y.report.as_ref().unwrap());
        for c in Category::ALL {
            assert_eq!(rx.category(c), ry.category(c), "cell {} category {c}", x.key);
            for o in Outcome::ALL {
                assert_eq!(
                    rx.latency_hist(c, o),
                    ry.latency_hist(c, o),
                    "cell {} hist {c}/{o:?}",
                    x.key
                );
            }
        }
        assert_eq!(rx.skipped, ry.skipped, "cell {}", x.key);
        assert_eq!(rx.latency_totals(), ry.latency_totals(), "cell {}", x.key);
    }
}

#[test]
fn killed_then_resumed_matches_uninterrupted() {
    let m = matrix();
    // Reference: one uninterrupted run (ephemeral store).
    let uninterrupted =
        run_matrix(&m, "kr", None, &RunnerOptions { threads: 4, ..Default::default() }).unwrap();
    assert!(uninterrupted.complete());

    // "Kill" the run partway through: execute only 5 of the 12 shards.
    let path = tmp("mid");
    let killed = run_matrix(
        &m,
        "kr",
        Some(&path),
        &RunnerOptions { threads: 2, max_shards: Some(5), ..Default::default() },
    )
    .unwrap();
    assert!(!killed.complete());
    assert_eq!(killed.executed_shards, 5);

    // Simulate dying mid-write on top of that: append half a record.
    {
        let mut raw = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        write!(raw, "{{\"shard\":\"inline:kr").unwrap();
    }

    // Resume: only the remaining shards run; the half-written record is
    // discarded, persisted shards are loaded, and the merged tallies are
    // bit-identical to the uninterrupted run.
    let resumed =
        run_matrix(&m, "kr", Some(&path), &RunnerOptions { threads: 4, ..Default::default() })
            .unwrap();
    assert!(resumed.complete());
    assert_eq!(resumed.resumed_shards, 5);
    assert_eq!(resumed.executed_shards + resumed.resumed_shards, 12);
    assert_summaries_equal(&uninterrupted, &resumed);

    // A third invocation is a pure resume: nothing left to execute.
    let noop =
        run_matrix(&m, "kr", Some(&path), &RunnerOptions { threads: 1, ..Default::default() })
            .unwrap();
    assert!(noop.complete());
    assert_eq!(noop.executed_shards, 0);
    assert_eq!(noop.resumed_shards, 12);
    assert_summaries_equal(&uninterrupted, &noop);
}

/// Fast-forward snapshots (the default) are purely an optimization: a
/// full run with them disabled — and a killed-then-resumed run with them
/// enabled — produce byte-identical reports.
#[test]
fn snapshot_fast_forward_preserves_kill_resume_identity() {
    let m = matrix();
    let scratch = run_matrix(
        &m,
        "kr",
        None,
        &RunnerOptions { threads: 4, snapshots: false, ..Default::default() },
    )
    .unwrap();
    assert!(scratch.complete());
    assert!(!scratch.perf.snapshots_enabled);
    assert_eq!(scratch.perf.snapshots.restores, 0);

    // Kill a snapshots-enabled run midway, then resume it.
    let path = tmp("ff");
    let killed = run_matrix(
        &m,
        "kr",
        Some(&path),
        &RunnerOptions { threads: 2, max_shards: Some(7), ..Default::default() },
    )
    .unwrap();
    assert!(!killed.complete());
    let resumed =
        run_matrix(&m, "kr", Some(&path), &RunnerOptions { threads: 4, ..Default::default() })
            .unwrap();
    assert!(resumed.complete());
    assert_eq!(resumed.resumed_shards, 7);
    assert!(resumed.perf.snapshots_enabled);
    assert!(resumed.perf.snapshots.restores > 0, "fast-forward path actually exercised");
    assert_summaries_equal(&scratch, &resumed);
}

#[test]
fn resume_under_different_thread_count_is_identical() {
    let m = matrix();
    let path_a = tmp("threads-a");
    let path_b = tmp("threads-b");
    let a =
        run_matrix(&m, "kr", Some(&path_a), &RunnerOptions { threads: 1, ..Default::default() })
            .unwrap();
    let b =
        run_matrix(&m, "kr", Some(&path_b), &RunnerOptions { threads: 8, ..Default::default() })
            .unwrap();
    assert_summaries_equal(&a, &b);
}

/// Renders every persisted profile to its canonical JSON line, cell key
/// first — the byte-level identity the profiler promises.
fn profile_bytes(path: &std::path::Path) -> String {
    cfed_runner::read_profiles(path)
        .unwrap()
        .iter()
        .map(|(cell, p)| format!("{cell} {}\n", p.to_json().render()))
        .collect()
}

/// The sampling profiler rides the same determinism contract as the
/// tallies: per-cell profiles persisted by a single-threaded run, a
/// many-threaded run, and a killed-then-resumed run are byte-identical.
#[test]
fn profiles_are_byte_identical_across_threads_and_kill_resume() {
    let m = matrix();
    let opts = |threads, max_shards| RunnerOptions {
        threads,
        max_shards,
        profile: true,
        ..Default::default()
    };

    let path_a = tmp("prof-a");
    let a = run_matrix(&m, "kr", Some(&path_a), &opts(1, None)).unwrap();
    assert!(a.complete());
    let reference = profile_bytes(&path_a);
    // One profile per cell (3 techniques × 1 style × 1 policy), none empty.
    assert_eq!(reference.lines().count(), m.cells().len());
    for p in cfed_runner::read_profiles(&path_a).unwrap().values() {
        assert!(!p.is_empty());
        assert!(p.totals().total() > 0);
    }

    let path_b = tmp("prof-b");
    let b = run_matrix(&m, "kr", Some(&path_b), &opts(8, None)).unwrap();
    assert!(b.complete());
    assert_eq!(profile_bytes(&path_b), reference, "threads must not change profile bytes");

    // Kill partway, resume: the resumed run re-appends nothing for cells
    // whose profile already landed, and the final bytes still match.
    let path_c = tmp("prof-c");
    let killed = run_matrix(&m, "kr", Some(&path_c), &opts(2, Some(5))).unwrap();
    assert!(!killed.complete());
    let resumed = run_matrix(&m, "kr", Some(&path_c), &opts(4, None)).unwrap();
    assert!(resumed.complete());
    assert_eq!(profile_bytes(&path_c), reference, "kill/resume must not change profile bytes");
}

/// Profiling changes what is *recorded*, never what is *measured*: the
/// campaign tallies with profiling on are bit-identical to a run with it
/// off, and a store written without profiling holds no profile records.
#[test]
fn profiling_does_not_perturb_tallies() {
    let m = matrix();
    let path_off = tmp("prof-off");
    let off =
        run_matrix(&m, "kr", Some(&path_off), &RunnerOptions { threads: 4, ..Default::default() })
            .unwrap();
    let on = run_matrix(
        &m,
        "kr",
        None,
        &RunnerOptions { threads: 4, profile: true, ..Default::default() },
    )
    .unwrap();
    assert_summaries_equal(&off, &on);
    assert!(cfed_runner::read_profiles(&path_off).unwrap().is_empty());
}
