//! Every metric the benchmark reports, in the order `BENCHMARK.json` lists
//! them. `perfbench/README.md` records, for each per-layer metric, the
//! end-to-end metric and workload it should move.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Spec; 3] = [
    spec("trials_per_s", "1/s", "higher"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
];

/// Spans whose self time is reported as a share of the traced wall, as
/// `trace.self_pct.<span>`: the spans of the traced campaign.
pub const SELF_SPANS: [&str; 10] = [
    "campaign",
    "runner.phase",
    "runner.worker",
    "workloads.build",
    "fault.capture",
    "runner.shard",
    "fault.trial",
    "fault.attack_trial",
    "runner.append",
    "runner.report",
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: [Spec; 41] = [
    spec("workloads.build_ms", "ms", "lower"),
    spec("fault.capture_ms", "ms", "lower"),
    spec("fault.capture_ms_p99", "ms", "lower"),
    spec("fault.snapshots_held", "count", "lower"),
    spec("fault.snapshot_bytes", "B", "lower"),
    spec("fault.step_mips", "MIPS", "higher"),
    spec("fault.trial_us_p50", "us", "lower"),
    spec("fault.trial_us_p99", "us", "lower"),
    spec("fault.stepped_branches_per_trial", "count", "lower"),
    spec("fault.restore_hit_ratio", "ratio", "higher"),
    spec("fault.prune_ratio", "ratio", "higher"),
    spec("fault.suffix_insts_per_trial", "count", "lower"),
    spec("fault.attack_trial_us_p50", "us", "lower"),
    spec("fault.attack_trial_us_p99", "us", "lower"),
    spec("fault.attack_surface_ms", "ms", "lower"),
    spec("dbt.fused_mips", "MIPS", "higher"),
    spec("dbt.native_mips", "MIPS", "higher"),
    spec("dbt.trace_mips", "MIPS", "higher"),
    spec("runner.shard_ms_p50", "ms", "lower"),
    spec("runner.shard_ms_p99", "ms", "lower"),
    spec("runner.idle_frac", "ratio", "lower"),
    spec("runner.append_us_p50", "us", "lower"),
    spec("runner.report_ms", "ms", "lower"),
    spec("runner.golden_reuse", "ratio", "higher"),
    spec("serve.unit_ms_p50", "ms", "lower"),
    spec("serve.unit_ms_p99", "ms", "lower"),
    spec("serve.overhead_frac", "ratio", "lower"),
    spec("serve.frame_us_p50", "us", "lower"),
    spec("serve.units_retried", "count", "lower"),
    spec("trace.overhead_pct", "%", "lower"),
    spec("trace.reconcile_err_pct", "%", "lower"),
    spec("trace.self_pct.campaign", "%", "lower"),
    spec("trace.self_pct.runner.phase", "%", "lower"),
    spec("trace.self_pct.runner.worker", "%", "lower"),
    spec("trace.self_pct.workloads.build", "%", "lower"),
    spec("trace.self_pct.fault.capture", "%", "lower"),
    spec("trace.self_pct.runner.shard", "%", "lower"),
    spec("trace.self_pct.fault.trial", "%", "lower"),
    spec("trace.self_pct.fault.attack_trial", "%", "lower"),
    spec("trace.self_pct.runner.append", "%", "lower"),
    spec("trace.self_pct.runner.report", "%", "lower"),
];
