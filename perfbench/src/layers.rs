//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Each round runs one campaign seed three ways, alternating which of the
//! first two goes first: through `run_matrix` untraced (the reference), as
//! the traced decomposition of `traced.rs`, and — for the served workload —
//! through the coordinator and worker. Both other runs must render reports
//! identical to the reference. After the rounds, the engine lap and the
//! attack-surface lap of `engines.rs` run once. Spans are kept in memory
//! and written to `perfbench/work/<workload>/trace.jsonl` at the end.
//!
//! Metrics of a layer the workload does not exercise (attack trials on the
//! fault studies, fault trials and the service on `attack-serve`) read 0
//! and are listed as `n/a` in the output.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use cfed_perfbench::catalog::{PER_LAYER, SELF_SPANS};
use cfed_perfbench::metrics::MetricSet;
use cfed_perfbench::span::{self, Span, Trace};
use cfed_perfbench::stats::{mean, median, percentile};
use cfed_serve::proto::{read_frame, write_frame};
use cfed_serve::PhasePlan;
use cfed_telemetry::json::{obj, parse, Json};
use cfed_telemetry::Histogram;

use crate::campaign::{self, CampaignRun};
use crate::engines::{self, mips};
use crate::traced::{self, Counts};
use crate::workload::{campaign_seed, Workload};
use crate::{check_campaign, Outcome};

/// Largest share by which the summed self times of the traced spans may
/// differ from the traced wall (thread-seconds of every thread-root span).
pub const RECONCILE_SHARE: f64 = 0.01;

/// Durations of the spans named `name`, divided by `per` nanoseconds.
fn durations(spans: &[Span], name: &str, per: f64) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration() as f64 / per).collect()
}

/// Times a write and read of one `result` frame per shard record in the
/// served campaign's stores — the frames the worker sent — checking each
/// round trip. Returns microseconds per round trip.
fn frame_round_trips(phases: &[PhasePlan]) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (index, plan) in phases.iter().enumerate() {
        let text = std::fs::read_to_string(&plan.store)
            .map_err(|e| format!("reading {}: {e}", plan.store.display()))?;
        for line in text.lines() {
            let record = parse(line)?;
            let Some(key) = record.get("shard").and_then(Json::as_str).map(str::to_string) else {
                continue;
            };
            let frame = obj(vec![
                ("t", Json::Str("result".to_string())),
                ("phase", Json::UInt(index as u64)),
                ("key", Json::Str(key)),
                ("ms", Json::UInt(0)),
                ("dropped", Json::UInt(0)),
                ("record", record),
            ]);
            let mut buf = Vec::new();
            let started = Instant::now();
            write_frame(&mut buf, &frame)?;
            let back = read_frame(&mut buf.as_slice())?;
            out.push(started.elapsed().as_nanos() as f64 / 1e3);
            if back.as_ref() != Some(&frame) {
                return Err("a frame did not survive its round trip".to_string());
            }
        }
    }
    Ok(out)
}

/// One untraced in-process campaign, checked.
fn reference(
    w: Workload,
    seed: u64,
    rep: u64,
    phases: &[PhasePlan],
    problems: &mut Vec<String>,
) -> Result<CampaignRun, String> {
    let run = campaign::run_in_process(w.name(), phases)?;
    check_campaign(w, seed, rep, phases, &run.report, problems)?;
    Ok(run)
}

fn write_spans(path: &Path, spans: &[&[Span]]) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans.iter().flat_map(|set| set.iter()) {
        writeln!(out, "{}", span::to_json_line(s)).map_err(|e| format!("writing spans: {e}"))?;
    }
    out.flush().map_err(|e| format!("writing spans: {e}"))
}

/// Runs the traced rounds for about `seconds` of campaign wall, then the
/// engine lap, and derives every per-layer metric.
pub fn measure(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let trace = Trace::new();
    let mut problems = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let (mut ref_wall, mut ref_trials, mut served_ref_wall) = (0.0, 0, 0.0);
    let (mut served_wall, mut retried) = (0.0, 0);
    let mut unit_ms = Histogram::new();
    let mut frames_us = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut elapsed = 0.0;
    let mut rep = 0;
    while rep == 0 || elapsed < seconds {
        let phases = w.phases(campaign_seed(seed, rep), dir);
        let (reference, traced) = if rep % 2 == 0 {
            let r = reference(w, seed, rep, &phases, &mut problems)?;
            (r, traced::run(&trace, w.name(), &phases)?)
        } else {
            let t = traced::run(&trace, w.name(), &phases)?;
            (reference(w, seed, rep, &phases, &mut problems)?, t)
        };
        if traced.report != reference.report {
            problems.push(format!("traced campaign {rep}: reports differ from run_matrix"));
        }
        elapsed += reference.wall_s + traced.wall_s;
        ref_wall += reference.wall_s;
        ref_trials += reference.trials;
        attempted += reference.units + traced.units;
        failed += reference.failed_units + traced.failed_units;
        if w.served() {
            let served = campaign::run_served(w.name(), &phases)?;
            if served.report != reference.report {
                problems.push(format!("served campaign {rep}: reports differ from run_matrix"));
            }
            frames_us.extend(frame_round_trips(&phases)?);
            let stats = served.serve.as_ref().expect("served runs carry stats");
            for worker in stats.workers.values() {
                unit_ms.merge(&worker.latency_ms);
            }
            retried += stats.retried;
            elapsed += served.wall_s;
            served_wall += served.wall_s;
            served_ref_wall += reference.wall_s;
            attempted += served.units;
            failed += served.failed_units;
        }
        counts.push(traced);
        rep += 1;
    }

    let engine_trace = Trace::new();
    let lap_phases = w.phases(seed, dir);
    let lap = engines::run(&engine_trace, &lap_phases).unwrap_or_else(|e| {
        problems.push(e);
        engines::Lap::default()
    });
    if let Err(e) = engines::surface_lap(&engine_trace, &lap_phases) {
        problems.push(e);
    }

    let spans = trace.spans();
    let engine_spans = engine_trace.spans();
    write_spans(&dir.join("trace.jsonl"), &[&spans, &engine_spans])?;
    let reconcile =
        span::reconciliation_error(&spans).max(span::reconciliation_error(&engine_spans));
    if reconcile > RECONCILE_SHARE {
        problems.push(format!(
            "span self times stray {:.3}% from the traced wall (allowed {:.1}%)",
            reconcile * 100.0,
            RECONCILE_SHARE * 100.0
        ));
    }

    let mut values: BTreeMap<&str, Option<f64>> = BTreeMap::new();
    let ms = |name: &str| durations(&spans, name, 1e6);
    let us = |name: &str| durations(&spans, name, 1e3);
    values.insert("workloads.build_ms", median(&ms("workloads.build")));
    values.insert("fault.capture_ms", median(&ms("fault.capture")));
    values.insert("fault.capture_ms_p99", percentile(&ms("fault.capture"), 99.0));
    let held: Vec<f64> = counts.iter().map(|c| c.snapshots.snapshots as f64).collect();
    let bytes: Vec<f64> = counts.iter().map(|c| c.snapshots.bytes as f64).collect();
    values.insert("fault.snapshots_held", median(&held));
    values.insert("fault.snapshot_bytes", median(&bytes));
    values.insert("fault.step_mips", Some(mips(lap.step)));
    values.insert("fault.trial_us_p50", percentile(&us("fault.trial"), 50.0));
    values.insert("fault.trial_us_p99", percentile(&us("fault.trial"), 99.0));
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let trials_seen = sum(|c| c.snapshots.restores + c.snapshots.misses);
    let ratio = |n: f64| (trials_seen > 0.0).then(|| n / trials_seen);
    values.insert("fault.stepped_branches_per_trial", ratio(sum(|c| c.snapshots.branches_stepped)));
    values.insert("fault.restore_hit_ratio", ratio(sum(|c| c.snapshots.restores)));
    values.insert("fault.prune_ratio", ratio(sum(|c| c.snapshots.benign_pruned)));
    let suffix: Vec<f64> =
        counts.iter().flat_map(|c| c.suffix_insts.iter().map(|&n| n as f64)).collect();
    values.insert("fault.suffix_insts_per_trial", mean(&suffix));
    values.insert("fault.attack_trial_us_p50", percentile(&us("fault.attack_trial"), 50.0));
    values.insert("fault.attack_trial_us_p99", percentile(&us("fault.attack_trial"), 99.0));
    values.insert(
        "fault.attack_surface_ms",
        median(&durations(&engine_spans, "fault.attack_surface", 1e6)),
    );
    values.insert("dbt.fused_mips", Some(mips(lap.fused)));
    values.insert("dbt.native_mips", Some(mips(lap.native)));
    values.insert("dbt.trace_mips", Some(mips(lap.trace)));
    values.insert("runner.shard_ms_p50", percentile(&ms("runner.shard"), 50.0));
    values.insert("runner.shard_ms_p99", percentile(&ms("runner.shard"), 99.0));
    let capacity = sum(|c| c.capacity_ns);
    values
        .insert("runner.idle_frac", (capacity > 0.0).then(|| 1.0 - sum(|c| c.busy_ns) / capacity));
    values.insert("runner.append_us_p50", percentile(&us("runner.append"), 50.0));
    values.insert("runner.report_ms", median(&ms("runner.report")));
    values.insert("runner.golden_reuse", Some(sum(|c| c.units) / sum(|c| c.goldens)));
    if w.served() {
        values.insert("serve.unit_ms_p50", unit_ms.percentile(0.5).map(|v| v as f64));
        values.insert("serve.unit_ms_p99", unit_ms.percentile(0.99).map(|v| v as f64));
        values.insert("serve.overhead_frac", Some(served_wall / served_ref_wall - 1.0));
        values.insert("serve.frame_us_p50", median(&frames_us));
        values.insert("serve.units_retried", Some(retried as f64));
    }
    let traced_wall: f64 = counts.iter().map(|c| c.wall_s).sum();
    let traced_tps = sum(|c| c.trials) / traced_wall;
    let ref_tps = ref_trials as f64 / ref_wall;
    values.insert("trace.overhead_pct", Some((1.0 - traced_tps / ref_tps) * 100.0));
    values.insert("trace.reconcile_err_pct", Some(reconcile * 100.0));
    let selfs = span::self_time_by_name(&spans);
    let wall = span::thread_wall(&spans) as f64;
    for name in SELF_SPANS {
        let share = selfs.get(name).map(|&ns| ns as f64 / wall * 100.0);
        let metric = format!("trace.self_pct.{name}");
        let spec = PER_LAYER.iter().find(|s| s.name == metric).expect("every self span is listed");
        values.insert(spec.name, share);
    }

    for name in values.keys() {
        assert!(PER_LAYER.iter().any(|s| s.name == *name), "{name} is not in the catalogue");
    }
    let mut metrics = MetricSet::per_layer();
    let mut missing = Vec::new();
    for spec in PER_LAYER {
        let value = values.get(spec.name).copied().flatten();
        if value.is_none() {
            missing.push(spec.name);
        }
        metrics.push(spec.name, spec.unit, value.unwrap_or(0.0))?;
    }
    let notes = vec![
        format!(
            "rounds {rep}: reference {ref_wall:.3} s, traced {traced_wall:.3} s, served \
             {served_wall:.3} s"
        ),
        format!(
            "samples: {} trials, {} attack trials, {} shards, {} captures, {} frames",
            us("fault.trial").len(),
            us("fault.attack_trial").len(),
            ms("runner.shard").len(),
            ms("fault.capture").len(),
            frames_us.len()
        ),
        format!("spans {} campaign + {} engine lap", spans.len(), engine_spans.len()),
        format!("n/a (layer not exercised by {}): {}", w.name(), missing.join(", ")),
    ];
    Ok(Outcome { metrics, attempted, failed, problems, notes })
}
