//! Event-kind schema conformance.
//!
//! `schemas/event_kinds.txt` at the repository root is the single source of
//! truth for telemetry event kinds: the CI event-stream validator and this
//! test both consume it, so a new kind that is emitted but not declared (or
//! declared but misformatted) fails in exactly one obvious place.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use cfed_core::TechniqueKind;
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::AttackKind;
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec};
use cfed_runner::pool::{run_matrix, RunnerOptions};
use cfed_serve::{work, Coordinator, CoordinatorOptions, PhasePlan, WorkerOptions};
use cfed_telemetry::json::Json;
use cfed_telemetry::{MemorySink, Telemetry};

const PROGRAM: &str = r#"
    fn main() {
        let i = 0;
        let acc = 1;
        while (i < 20) { acc = acc + i * 2; i = i + 1; }
        out(acc);
    }
"#;

/// Baseline and EdgCF over one inline workload, `trials` per cell.
fn fault_matrix(trials: u64) -> CampaignMatrix {
    CampaignMatrix {
        workloads: vec![WorkloadSpec::inline("ev", PROGRAM)],
        techniques: vec![None, Some(TechniqueKind::EdgCf)],
        styles: vec![UpdateStyle::CMov],
        policies: vec![CheckPolicy::AllBb],
        trials,
        seed: 0xC0FFEE,
        attacks: vec![None],
    }
}

fn schema_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/event_kinds.txt")
}

/// Parses the checked-in whitelist, ignoring comments and blank lines.
fn schema_kinds() -> Vec<String> {
    let text = std::fs::read_to_string(schema_path())
        .unwrap_or_else(|e| panic!("schemas/event_kinds.txt must exist: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn schema_file_is_sorted_unique_snake_case() {
    let kinds = schema_kinds();
    assert!(!kinds.is_empty(), "whitelist must not be empty");
    let mut sorted = kinds.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(kinds, sorted, "kinds must be sorted and unique");
    for k in &kinds {
        assert!(
            k.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
            "kind {k:?} must be lowercase snake_case"
        );
    }
}

/// Asserts every event in `sink` uses a kind the schema declares; returns
/// the kinds in emission order.
fn declared_kinds(sink: &MemorySink) -> Vec<String> {
    let kinds = schema_kinds();
    let seen: Vec<String> = sink.events().iter().map(|e| e.kind().to_string()).collect();
    for kind in &seen {
        assert!(
            kinds.contains(kind),
            "event kind {kind:?} is not declared in schemas/event_kinds.txt"
        );
    }
    seen
}

/// The sorted `field` strings of every `kind` event in `sink`.
fn sorted_field(sink: &MemorySink, kind: &str, field: &str) -> Vec<String> {
    let mut out: Vec<String> = sink
        .of_kind(kind)
        .iter()
        .map(|e| e.get(field).and_then(Json::as_str).expect("string field").to_string())
        .collect();
    out.sort();
    out
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfed-evschema-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serves `matrix` as one phase stored at `store` to a single two-thread
/// worker; returns the coordinator's events (worker-side events forward
/// through it).
fn serve_one_phase(matrix: CampaignMatrix, store: PathBuf) -> Arc<MemorySink> {
    let sink = Arc::new(MemorySink::new());
    let coord = Coordinator::bind(CoordinatorOptions {
        quiet: true,
        telemetry: Telemetry::to(sink.clone()),
        ..Default::default()
    })
    .unwrap();
    let options = WorkerOptions {
        connect: coord.addr().to_string(),
        name: "ev-worker".to_string(),
        threads: 2,
        quiet: true,
        ..Default::default()
    };
    let plans = vec![PhasePlan { label: "phase".to_string(), matrix, store }];
    let coord_thread = thread::spawn(move || coord.run("ev", &plans, None));
    let worker = thread::spawn(move || work(&options, None));
    worker.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();
    assert!(summary.complete(), "{summary:?}");
    sink
}

/// Runs a small coordinator + worker campaign and checks every emitted
/// event kind against the schema.
#[test]
fn campaign_event_stream_stays_inside_the_schema() {
    let dir = tmp_dir("campaign");
    let seen = declared_kinds(&serve_one_phase(fault_matrix(64), dir.join("ev.jsonl")));
    // The campaign must actually have exercised the stream: core kinds
    // from both the coordinator side (`shard_done`, `serve_stats`) and the
    // forwarded worker side (`worker_event`, `profile`) appear.
    for expect in ["shard_done", "serve_stats", "worker_event", "profile"] {
        assert!(seen.iter().any(|k| k == expect), "missing {expect:?} in {seen:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Three attack archetypes against baseline and EdgCF: six one-shard cells.
fn attack_matrix() -> CampaignMatrix {
    CampaignMatrix {
        workloads: vec![WorkloadSpec::inline("ev-atk", PROGRAM)],
        attacks: vec![
            Some(AttackKind::RetGadget),
            Some(AttackKind::EdgeSplice),
            Some(AttackKind::JumpCorrupt),
        ],
        ..fault_matrix(64)
    }
}

/// Attack cells emit their own event kinds from the in-process pool
/// (`attack_outcomes` per shard, `attack_forensics` for undetected
/// trials); both must be declared and must actually flow.
#[test]
fn attack_event_stream_stays_inside_the_schema() {
    let sink = Arc::new(MemorySink::new());
    let options = RunnerOptions {
        threads: 2,
        quiet: true,
        forensics: true,
        telemetry: Telemetry::to(sink.clone()),
        ..Default::default()
    };
    let summary = run_matrix(&attack_matrix(), "ev-atk", None, &options).unwrap();
    assert!(summary.executed_shards > 0, "attack campaign ran no shards");
    let seen = declared_kinds(&sink);
    for expect in ["attack_outcomes", "attack_forensics", "shard_done", "run_done"] {
        assert!(seen.iter().any(|k| k == expect), "missing {expect:?} in {seen:?}");
    }
}

/// The served attack study records through the same ledger as the
/// in-process one: exactly one `attack_outcomes` per unit reaches the
/// coordinator's sink.
#[test]
fn served_attack_event_stream_stays_inside_the_schema() {
    let dir = tmp_dir("served-atk");
    let units = CampaignMatrix::shards(&attack_matrix().cells()).len();
    let sink = serve_one_phase(attack_matrix(), dir.join("atk.jsonl"));
    declared_kinds(&sink);
    let outcomes = sorted_field(&sink, "attack_outcomes", "shard");
    assert_eq!(outcomes.len(), units, "{outcomes:?}");
    assert_eq!(outcomes, sorted_field(&sink, "shard_done", "shard"), "one per finished unit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One matrix, run in-process (killed after two shards, then resumed) and
/// served: both modes record the same shards once each, count `shard_done`
/// progress against the store and the whole matrix, and persist the same
/// cell profiles.
#[test]
fn in_process_and_served_runs_record_the_same_ledger() {
    let dir = tmp_dir("parity");
    let matrix = fault_matrix(130);
    let cells = matrix.cells();
    let mut units: Vec<String> =
        CampaignMatrix::shards(&cells).iter().map(|t| t.key(&cells)).collect();
    units.sort();
    let mut cell_keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
    cell_keys.sort();

    let local = Arc::new(MemorySink::new());
    for max_shards in [Some(2), None] {
        let options = RunnerOptions {
            threads: 2,
            quiet: true,
            profile: true,
            max_shards,
            telemetry: Telemetry::to(local.clone()),
            ..Default::default()
        };
        run_matrix(&matrix, "ev", Some(&dir.join("local.jsonl")), &options).unwrap();
    }
    let served = serve_one_phase(matrix, dir.join("served.jsonl"));

    let total = units.len() as u64;
    for sink in [&local, &served] {
        assert_eq!(sorted_field(sink, "shard_done", "shard"), units, "one shard_done per unit");
        assert_eq!(sorted_field(sink, "profile", "cell"), cell_keys);
        let progress: Vec<(u64, u64)> = sink
            .of_kind("shard_done")
            .iter()
            .map(|e| {
                let num = |f| e.get(f).and_then(Json::as_u64).expect("numeric field");
                (num("done"), num("of"))
            })
            .collect();
        assert_eq!(progress.last(), Some(&(total, total)), "{progress:?}");
        assert!(progress.iter().all(|&(_, of)| of == total), "{progress:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
