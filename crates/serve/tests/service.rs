//! End-to-end tests of the coordinator/worker campaign service.
//!
//! The contract under test is the one the whole crate exists for: a
//! campaign distributed over worker processes — including workers that
//! die mid-unit, deliver results twice, or silently sit on leases until
//! they expire — produces a store whose rendered report is **byte-
//! identical** to a single-process `run_matrix` over the same matrix.
//!
//! Workers here run in threads rather than separate processes (same
//! binary, same TCP protocol); the CI soak job covers the true
//! multi-process + `kill -9` variant.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cfed_core::TechniqueKind;
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::AttackKind;
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec};
use cfed_runner::pool::{run_matrix, GoldenCache, RunnerOptions, UnitExecutor};
use cfed_runner::report::{render_attack_frontier, render_report};
use cfed_runner::retry::RetryPolicy;
use cfed_runner::store::{read_meta, shard_to_json};
use cfed_serve::proto::{read_frame, tag, write_frame};
use cfed_serve::{work, Coordinator, CoordinatorOptions, PhasePlan, ServeStats, WorkerOptions};
use cfed_telemetry::json::{obj, Json};
use cfed_telemetry::{MemorySink, Telemetry};

const PROGRAM: &str = r#"
    fn main() {
        let i = 0;
        let acc = 7;
        while (i < 30) {
            if (i % 4 == 1) { acc = acc * 3 - i; } else { acc = acc + 2; }
            i = i + 1;
        }
        out(acc);
    }
"#;

/// Two cells × four shards = eight work units.
fn matrix() -> CampaignMatrix {
    CampaignMatrix {
        workloads: vec![WorkloadSpec::inline("svc", PROGRAM)],
        techniques: vec![None, Some(TechniqueKind::EdgCf)],
        styles: vec![UpdateStyle::CMov],
        policies: vec![CheckPolicy::AllBb],
        trials: 256,
        seed: 0xC0FFEE,
        attacks: vec![None],
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfed-svc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The reference: an uninterrupted single-process run's rendered report.
fn single_process_report(dir: &std::path::Path) -> String {
    let path = dir.join("single.jsonl");
    let summary = run_matrix(
        &matrix(),
        "svc",
        Some(&path),
        &RunnerOptions { threads: 4, quiet: true, ..Default::default() },
    )
    .unwrap();
    assert!(summary.complete());
    render_report(&path).unwrap()
}

fn quiet_coordinator(options: CoordinatorOptions) -> (Coordinator, String) {
    let coord = Coordinator::bind(CoordinatorOptions { quiet: true, ..options }).unwrap();
    let addr = coord.addr().to_string();
    (coord, addr)
}

fn spawn_worker(
    addr: &str,
    name: &str,
) -> thread::JoinHandle<Result<cfed_serve::WorkerSummary, String>> {
    let options = WorkerOptions {
        connect: addr.to_string(),
        name: name.to_string(),
        threads: 2,
        quiet: true,
        ..Default::default()
    };
    thread::spawn(move || work(&options, None))
}

/// Reads frames until one with tag `want` arrives (fake-worker helper).
fn recv_tagged(stream: &mut TcpStream, want: &str) -> Json {
    loop {
        let frame = read_frame(stream).unwrap().expect("coordinator closed early");
        if tag(&frame).unwrap() == want {
            return frame;
        }
    }
}

fn send_hello(stream: &mut TcpStream, name: &str, slots: u64) {
    let hello = obj(vec![
        ("t", Json::Str("hello".to_string())),
        ("name", Json::Str(name.to_string())),
        ("slots", Json::UInt(slots)),
    ]);
    write_frame(stream, &hello).unwrap();
}

#[test]
fn two_workers_match_single_process_byte_for_byte() {
    let dir = tmp_dir("two");
    let reference = single_process_report(&dir);

    let store = dir.join("served.jsonl");
    let (coord, addr) = quiet_coordinator(CoordinatorOptions::default());
    let plans =
        vec![PhasePlan { label: "coverage".to_string(), matrix: matrix(), store: store.clone() }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));
    let w1 = spawn_worker(&addr, "alpha");
    let w2 = spawn_worker(&addr, "beta");

    let s1 = w1.join().unwrap().unwrap();
    let s2 = w2.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();

    assert!(summary.complete(), "{summary:?}");
    assert_eq!(s1.units_done + s2.units_done, 8, "every unit ran exactly once");
    assert_eq!(render_report(&store).unwrap(), reference);

    // The serve_stats meta record rides in the store (invisible to the
    // report above) and round-trips through the `--serve-stats` path.
    let metas = read_meta(&store, "serve_stats").unwrap();
    assert_eq!(metas.len(), 1);
    let stats = ServeStats::from_meta(&metas[0]).unwrap();
    assert_eq!(stats.completed, 8);
    assert!(stats.leased >= 8);
    assert_eq!(stats.workers.values().map(|w| w.units).sum::<u64>(), 8);
    assert_eq!(summary.stats.completed, 8);
}

#[test]
fn worker_death_mid_unit_is_re_leased_and_report_matches() {
    let dir = tmp_dir("death");
    let reference = single_process_report(&dir);

    let store = dir.join("served.jsonl");
    let (coord, addr) = quiet_coordinator(CoordinatorOptions::default());
    let plans =
        vec![PhasePlan { label: "coverage".to_string(), matrix: matrix(), store: store.clone() }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));

    // A worker that takes one lease and dies without answering it.
    {
        let mut fake = TcpStream::connect(&addr).unwrap();
        send_hello(&mut fake, "doomed", 1);
        recv_tagged(&mut fake, "lease");
        let _ = fake.shutdown(std::net::Shutdown::Both);
    }

    let real = spawn_worker(&addr, "survivor");
    real.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();

    assert!(summary.complete(), "{summary:?}");
    assert!(summary.stats.expired >= 1, "lost lease detected: {:?}", summary.stats);
    assert!(summary.stats.retried >= 1, "lost unit re-queued: {:?}", summary.stats);
    assert_eq!(summary.stats.failed, 0);
    assert_eq!(render_report(&store).unwrap(), reference);
}

#[test]
fn duplicate_result_delivery_is_idempotent() {
    let dir = tmp_dir("dup");
    let reference = single_process_report(&dir);

    let store = dir.join("served.jsonl");
    let (coord, addr) = quiet_coordinator(CoordinatorOptions::default());
    let plans =
        vec![PhasePlan { label: "coverage".to_string(), matrix: matrix(), store: store.clone() }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));

    // A protocol-level worker that executes one unit correctly but
    // delivers its result frame twice before leaving.
    {
        let cells = matrix().cells();
        let mut fake = TcpStream::connect(&addr).unwrap();
        send_hello(&mut fake, "stutter", 1);
        let lease = recv_tagged(&mut fake, "lease");
        let cell = lease.get("cell").and_then(Json::as_u64).unwrap() as usize;
        let shard = lease.get("shard").and_then(Json::as_u64).unwrap();
        let key = lease.get("key").and_then(Json::as_str).unwrap().to_string();
        let mut executor = UnitExecutor::new(Arc::new(GoldenCache::new(true, false)), false);
        let tallies = executor.run(&cells[cell], shard).tallies.unwrap();
        let result = obj(vec![
            ("t", Json::Str("result".to_string())),
            ("phase", lease.get("phase").cloned().unwrap()),
            ("key", Json::Str(key)),
            ("ms", Json::UInt(1)),
            ("dropped", Json::UInt(0)),
            ("record", shard_to_json(lease.get("key").and_then(Json::as_str).unwrap(), &tallies)),
        ]);
        write_frame(&mut fake, &result).unwrap();
        write_frame(&mut fake, &obj(vec![("t", Json::Str("bye".to_string()))])).unwrap();
        write_frame(&mut fake, &result).unwrap();
        let _ = fake.shutdown(std::net::Shutdown::Both);
    }

    let real = spawn_worker(&addr, "normal");
    real.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();

    assert!(summary.complete(), "{summary:?}");
    assert!(summary.stats.duplicates >= 1, "duplicate dropped: {:?}", summary.stats);
    assert_eq!(summary.stats.failed, 0);
    assert_eq!(render_report(&store).unwrap(), reference);
}

#[test]
fn serve_resumes_a_partial_single_process_store() {
    let dir = tmp_dir("resume");
    let reference = single_process_report(&dir);

    // A single-process run killed after three of the eight units.
    let store = dir.join("served.jsonl");
    let killed = run_matrix(
        &matrix(),
        "svc",
        Some(&store),
        &RunnerOptions { threads: 2, quiet: true, max_shards: Some(3), ..Default::default() },
    )
    .unwrap();
    assert!(!killed.complete());

    // The service picks up the same store file and finishes the rest.
    let (coord, addr) = quiet_coordinator(CoordinatorOptions::default());
    let plans =
        vec![PhasePlan { label: "coverage".to_string(), matrix: matrix(), store: store.clone() }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));
    let worker = spawn_worker(&addr, "finisher");
    worker.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();

    assert!(summary.complete(), "{summary:?}");
    assert_eq!(summary.phases[0].resumed_units, 3);
    assert_eq!(summary.stats.completed, 5);
    assert_eq!(render_report(&store).unwrap(), reference);
}

#[test]
fn silent_worker_is_struck_out_and_units_recover() {
    let dir = tmp_dir("silent");
    let reference = single_process_report(&dir);

    let store = dir.join("served.jsonl");
    let (coord, addr) = quiet_coordinator(CoordinatorOptions {
        lease_ms: 100,
        retry: RetryPolicy { max_attempts: 5, backoff_ms: 10, max_backoff_ms: 50 },
        ..Default::default()
    });
    let plans =
        vec![PhasePlan { label: "coverage".to_string(), matrix: matrix(), store: store.clone() }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));

    // Takes two leases, never answers, never disconnects. Both leases
    // expire (two strikes — quarantine); the units are re-queued.
    let mut silent = TcpStream::connect(&addr).unwrap();
    send_hello(&mut silent, "silent", 2);
    recv_tagged(&mut silent, "lease");
    recv_tagged(&mut silent, "lease");

    let real = spawn_worker(&addr, "workhorse");
    real.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();

    assert!(summary.complete(), "{summary:?}");
    assert!(summary.stats.expired >= 2, "both leases expired: {:?}", summary.stats);
    assert_eq!(summary.stats.failed, 0);
    assert_eq!(render_report(&store).unwrap(), reference);

    // The coordinator tears the quarantined connection down at the end.
    drop(silent);
}

/// Canonical byte rendering of every profile record in a store.
fn profile_bytes(path: &std::path::Path) -> String {
    cfed_runner::read_profiles(path)
        .unwrap()
        .iter()
        .map(|(cell, p)| format!("{cell} {}\n", p.to_json().render()))
        .collect()
}

/// Execution profiles persisted by the service — first worker to finish a
/// unit of a cell wins the send, the coordinator appends first-delivery-
/// wins — are byte-identical to a profiled single-process run's, because
/// profiles are deterministic in `(workload, configuration)`.
#[test]
fn service_profiles_match_single_process_byte_for_byte() {
    let dir = tmp_dir("profiles");
    let single = dir.join("single-prof.jsonl");
    let summary = run_matrix(
        &matrix(),
        "svc",
        Some(&single),
        &RunnerOptions { threads: 4, quiet: true, profile: true, ..Default::default() },
    )
    .unwrap();
    assert!(summary.complete());
    let reference = profile_bytes(&single);
    assert_eq!(reference.lines().count(), matrix().cells().len(), "one profile per cell");

    let store = dir.join("served.jsonl");
    let (coord, addr) = quiet_coordinator(CoordinatorOptions::default());
    let plans =
        vec![PhasePlan { label: "coverage".to_string(), matrix: matrix(), store: store.clone() }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));
    let w1 = spawn_worker(&addr, "alpha");
    let w2 = spawn_worker(&addr, "beta");
    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();
    assert!(summary.complete(), "{summary:?}");

    assert_eq!(profile_bytes(&store), reference, "service profiles must match single-process");
    // Profile records are meta records: the rendered report is untouched.
    assert_eq!(render_report(&store).unwrap(), single_process_report(&dir));
}

/// A worker that dies holding leases cannot dump its own window, so the
/// coordinator dumps *its* flight recorder: the telemetry stream gains a
/// `flight_dump` event naming the lost worker, with the recent-event
/// window attached.
#[test]
fn lost_worker_triggers_a_coordinator_flight_dump() {
    let dir = tmp_dir("flight");
    let store = dir.join("served.jsonl");
    let sink = Arc::new(MemorySink::new());
    let (coord, addr) = quiet_coordinator(CoordinatorOptions {
        telemetry: Telemetry::to(sink.clone()),
        ..Default::default()
    });
    let plans =
        vec![PhasePlan { label: "coverage".to_string(), matrix: matrix(), store: store.clone() }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));

    // Takes a lease and vanishes mid-unit.
    {
        let mut doomed = TcpStream::connect(&addr).unwrap();
        send_hello(&mut doomed, "doomed", 1);
        recv_tagged(&mut doomed, "lease");
        let _ = doomed.shutdown(std::net::Shutdown::Both);
    }
    let real = spawn_worker(&addr, "survivor");
    real.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();
    assert!(summary.complete(), "{summary:?}");

    let events = sink.events();
    let dump = events
        .iter()
        .find(|e| {
            e.kind() == "flight_dump"
                && e.get("reason").and_then(Json::as_str) == Some("worker_lost")
        })
        .unwrap_or_else(|| panic!("no worker_lost flight dump in {events:?}"));
    assert_eq!(dump.get("worker").and_then(Json::as_str), Some("doomed"));
    assert!(dump.get("lost_leases").and_then(Json::as_u64).unwrap_or(0) >= 1, "{dump:?}");
    assert!(
        dump.get("window").and_then(Json::as_arr).is_some(),
        "dump must carry the recent-event window: {dump:?}"
    );
    // The profiled cells also emit `profile` events through the same
    // stream (workers profile by default).
    assert!(events.iter().any(|e| e.kind() == "profile"), "{events:?}");
}

/// Three attack archetypes × (baseline + EdgCF) = six cells, twelve units.
/// Same inline workload as [`matrix`], so golden runs are shared.
fn attack_matrix() -> CampaignMatrix {
    CampaignMatrix {
        workloads: vec![WorkloadSpec::inline("svc", PROGRAM)],
        techniques: vec![None, Some(TechniqueKind::EdgCf)],
        styles: vec![UpdateStyle::CMov],
        policies: vec![CheckPolicy::AllBb],
        trials: 128,
        seed: 0xC0FFEE,
        attacks: vec![
            Some(AttackKind::RetGadget),
            Some(AttackKind::EdgeSplice),
            Some(AttackKind::DataPivot),
        ],
    }
}

/// Attack campaigns ride the identical store/merge/serve machinery as
/// fault campaigns: a two-worker service run must reproduce the
/// single-process store byte-for-byte at the rendered-report level — both
/// the classic per-cell report and the `--attacks` detection frontier.
#[test]
fn served_attack_campaign_matches_single_process_byte_for_byte() {
    let dir = tmp_dir("attacks");

    // Reference: uninterrupted single-process run, and a second run on a
    // different thread count to pin scheduling-independence first.
    let single = dir.join("single.jsonl");
    let summary = run_matrix(
        &attack_matrix(),
        "svc",
        Some(&single),
        &RunnerOptions { threads: 1, quiet: true, ..Default::default() },
    )
    .unwrap();
    assert!(summary.complete());
    let reference = render_report(&single).unwrap();
    let frontier = render_attack_frontier(&single).unwrap();

    let threaded = dir.join("threaded.jsonl");
    let summary = run_matrix(
        &attack_matrix(),
        "svc",
        Some(&threaded),
        &RunnerOptions { threads: 4, quiet: true, ..Default::default() },
    )
    .unwrap();
    assert!(summary.complete());
    assert_eq!(render_report(&threaded).unwrap(), reference, "thread count leaked into tallies");
    assert_eq!(render_attack_frontier(&threaded).unwrap(), frontier);

    let store = dir.join("served.jsonl");
    let (coord, addr) = quiet_coordinator(CoordinatorOptions::default());
    let plans = vec![PhasePlan {
        label: "attacks".to_string(),
        matrix: attack_matrix(),
        store: store.clone(),
    }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));
    let w1 = spawn_worker(&addr, "alpha");
    let w2 = spawn_worker(&addr, "beta");
    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();

    assert!(summary.complete(), "{summary:?}");
    assert_eq!(render_report(&store).unwrap(), reference);
    assert_eq!(render_attack_frontier(&store).unwrap(), frontier);
}

/// Kill/resume over an attack store: a single-process run killed mid-
/// campaign is picked up by the service, and the finished store renders
/// byte-identically to the uninterrupted reference.
#[test]
fn serve_resumes_a_killed_attack_campaign() {
    let dir = tmp_dir("attacks-resume");

    let single = dir.join("single.jsonl");
    let summary = run_matrix(
        &attack_matrix(),
        "svc",
        Some(&single),
        &RunnerOptions { threads: 2, quiet: true, ..Default::default() },
    )
    .unwrap();
    assert!(summary.complete());
    let reference = render_report(&single).unwrap();
    let frontier = render_attack_frontier(&single).unwrap();

    let store = dir.join("served.jsonl");
    let killed = run_matrix(
        &attack_matrix(),
        "svc",
        Some(&store),
        &RunnerOptions { threads: 2, quiet: true, max_shards: Some(5), ..Default::default() },
    )
    .unwrap();
    assert!(!killed.complete());

    let (coord, addr) = quiet_coordinator(CoordinatorOptions::default());
    let plans = vec![PhasePlan {
        label: "attacks".to_string(),
        matrix: attack_matrix(),
        store: store.clone(),
    }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));
    let worker = spawn_worker(&addr, "finisher");
    worker.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();

    assert!(summary.complete(), "{summary:?}");
    assert_eq!(summary.phases[0].resumed_units, 5);
    assert_eq!(render_report(&store).unwrap(), reference);
    assert_eq!(render_attack_frontier(&store).unwrap(), frontier);
}

fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").unwrap();
    (head.split("\r\n").next().unwrap().to_string(), body.to_string())
}

#[test]
fn http_endpoints_serve_the_live_campaign() {
    let dir = tmp_dir("http");
    let store = dir.join("served.jsonl");
    let coord = Coordinator::bind(CoordinatorOptions {
        http: Some("127.0.0.1:0".to_string()),
        quiet: true,
        ..Default::default()
    })
    .unwrap();
    let addr = coord.addr().to_string();
    let http = coord.http_addr().unwrap().to_string();

    // Live from bind time, before any campaign runs.
    let (status, body) = http_get(&http, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    let plans = vec![PhasePlan { label: "coverage".to_string(), matrix: matrix(), store }];
    let coord_thread = thread::spawn(move || coord.run("svc", &plans, None));

    // With no workers attached the campaign idles; poll until the phase
    // is announced, then check the mid-run views.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, progress) = http_get(&http, "/progress");
        if progress.contains("\"total_units\":8") {
            assert!(progress.contains("\"phase\":\"coverage\""), "{progress}");
            break;
        }
        assert!(Instant::now() < deadline, "phase never announced: {progress}");
        thread::sleep(Duration::from_millis(20));
    }
    let (status, report) = http_get(&http, "/report");
    assert!(status.contains("200"), "{status}");
    assert!(report.starts_with("run svc | seed 12648430"), "{report}");

    // /metrics renders Prometheus text format: every series is preceded
    // by its HELP/TYPE header, and no family is declared twice.
    let (status, metrics) = http_get(&http, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert_prometheus_text_format(&metrics);
    assert!(metrics.contains("cfed_workers 0"), "{metrics}");
    assert!(metrics.contains("cfed_units_completed_total 0"), "{metrics}");
    assert!(metrics.contains("cfed_metrics_scrapes_total 1"), "{metrics}");

    // The scrape itself lands in the queryable event store.
    let (status, events) = http_get(&http, "/events?kind=metrics_scrape");
    assert!(status.contains("200"), "{status}");
    assert!(events.contains("\"kind\":\"metrics_scrape\""), "{events}");
    assert!(events.contains("\"worker\":\"http\""), "{events}");
    let (_, none) = http_get(&http, "/events?kind=metrics_scrape&worker=nobody");
    assert!(none.contains("\"events\":[]"), "{none}");

    let worker = spawn_worker(&addr, "probe");
    worker.join().unwrap().unwrap();
    let summary = coord_thread.join().unwrap().unwrap();
    assert!(summary.complete(), "{summary:?}");
}

/// Structural Prometheus text-format validation: `# HELP` then `# TYPE`
/// for every family, samples only under a declared family, each family
/// declared at most once.
fn assert_prometheus_text_format(body: &str) {
    let mut declared: Vec<String> = Vec::new();
    let mut pending_help: Option<String> = None;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            assert!(!declared.contains(&name), "family {name} declared twice:\n{body}");
            pending_help = Some(name);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap().to_string();
            let kind = parts.next().unwrap();
            assert_eq!(pending_help.take().as_deref(), Some(name.as_str()), "TYPE without HELP");
            assert!(["counter", "gauge", "summary"].contains(&kind), "unknown metric type {kind}");
            declared.push(name);
        } else {
            assert!(!line.starts_with('#'), "unexpected comment {line}");
            let series = line.split([' ', '{']).next().unwrap();
            let family = declared.iter().any(|f| {
                series == *f
                    || series
                        .strip_prefix(f.as_str())
                        .is_some_and(|s| ["_sum", "_count"].contains(&s) || s.is_empty())
            });
            assert!(family, "sample {series} has no declared family:\n{body}");
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample value in {line:?}");
        }
    }
    assert!(!declared.is_empty(), "no metric families rendered:\n{body}");
}
