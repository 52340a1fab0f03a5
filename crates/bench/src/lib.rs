//! # cfed-bench — experiment harnesses
//!
//! Functions that regenerate every table and figure of the paper's
//! evaluation, shared by the `fig*` binaries and the integration tests:
//!
//! | paper artifact | function | binary |
//! |---|---|---|
//! | Figure 2 (error-model table) | [`fig2`] | `fig2_error_model` |
//! | Figure 3 (SDC-prone categories) | [`fig2`] (derived) | `fig2_error_model` |
//! | Figure 12 (per-benchmark slowdown) | [`fig12`] | `fig12_slowdown` |
//! | Figure 14 (Jcc vs CMOVcc) | [`fig14`] | `fig14_update_style` |
//! | Figure 15 (checking policies) | [`fig15`] | `fig15_policies` |
//! | §3/§4 coverage claims | [`coverage`] | `coverage_matrix` |

use cfed_core::{geomean, run_dbt, run_engine, run_native, Category, RunConfig, TechniqueKind};
use cfed_dbt::{CheckPolicy, EngineSpec, UpdateStyle};
use cfed_fault::{analyze_image, CampaignReport, CategoryStats, ErrorModelTable};
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec};
use cfed_runner::pool::{parallel_map, run_matrix, RunSummary, RunnerOptions};
use cfed_telemetry::Telemetry;
use cfed_workloads::{Scale, Suite, Workload, ALL};

/// Default campaign seed of the injection harnesses (the historical
/// [`cfed_fault::Campaign::new`] default, kept so published tallies stay
/// reproducible).
pub const DEFAULT_CAMPAIGN_SEED: u64 = 0xCFED_2006;

fn image(w: &Workload, scale: Scale) -> cfed_asm::Image {
    w.image(scale).unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name))
}

// ----------------------------------------------------------------------
// Figure 2 / Figure 3
// ----------------------------------------------------------------------

/// Error-model results for both suites.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Aggregated SPEC-Int analog table.
    pub int: ErrorModelTable,
    /// Aggregated SPEC-Fp analog table.
    pub fp: ErrorModelTable,
}

/// Runs the §2 single-bit error model over both suites (Figures 2 and 3),
/// one workload per pool task over `threads` worker threads (`0` = all
/// cores). Per-workload tables are merged in workload order, so the result
/// — integer tallies throughout — is bit-identical to a serial run.
pub fn fig2_with(scale: Scale, threads: usize) -> Fig2 {
    let tables = parallel_map(ALL.len(), threads, |i| {
        let w = &ALL[i];
        (w.suite, analyze_image(&image(w, scale), 500_000_000).table)
    });
    let mut int = ErrorModelTable::default();
    let mut fp = ErrorModelTable::default();
    for (suite, table) in &tables {
        match suite {
            Suite::Int => int.merge(table),
            Suite::Fp => fp.merge(table),
        }
    }
    Fig2 { int, fp }
}

/// [`fig2_with`] on all cores.
pub fn fig2(scale: Scale) -> Fig2 {
    fig2_with(scale, 0)
}

/// Renders the Figure 3 view (probabilities over categories A–E only).
pub fn render_fig3(fig: &Fig2) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3 — branch-error probabilities over categories A–E");
    let _ = writeln!(out, "{:>9} | {:>9} | {:>9}", "Category", "SPEC-Int", "SPEC-Fp");
    let _ = writeln!(out, "{}", "-".repeat(35));
    let ints = fig.int.sdc_restricted();
    let fps = fig.fp.sdc_restricted();
    for i in 0..5 {
        let _ = writeln!(
            out,
            "{:>9} | {:>8.2}% | {:>8.2}%",
            ints[i].0.to_string(),
            100.0 * ints[i].1,
            100.0 * fps[i].1
        );
    }
    out
}

// ----------------------------------------------------------------------
// Figure 12
// ----------------------------------------------------------------------

/// One benchmark row of Figure 12.
#[derive(Debug, Clone)]
pub struct SlowdownRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Slowdown of RCF / EdgCF / ECF over the uninstrumented DBT.
    pub rcf: f64,
    /// EdgCF slowdown.
    pub edgcf: f64,
    /// ECF slowdown.
    pub ecf: f64,
    /// DBT baseline over native execution (§6's ~12% statistic).
    pub dbt_over_native: f64,
}

/// Figure 12 data: per-benchmark technique slowdowns (Jcc update, ALLBB).
pub fn fig12(scale: Scale) -> Vec<SlowdownRow> {
    fig12_telemetry(scale, &Telemetry::off())
}

/// As [`fig12`], with each DBT run attached to a telemetry handle: every
/// run end emits a `dbt_stats` event (translation-time histogram, block
/// and chain counters) to the handle's sink. The disabled handle costs
/// one untaken branch per emit site, which is what the `< 3%` telemetry
/// overhead bound on this figure is measured against.
pub fn fig12_telemetry(scale: Scale, telemetry: &Telemetry) -> Vec<SlowdownRow> {
    fig12_telemetry_with(scale, telemetry, 0)
}

/// As [`fig12_telemetry`], one workload per pool task over `threads`
/// worker threads. Every row is computed from that workload's runs alone
/// and rows come back in workload order, so the figure is byte-identical
/// to a serial run (telemetry events may interleave across workloads).
pub fn fig12_telemetry_with(
    scale: Scale,
    telemetry: &Telemetry,
    threads: usize,
) -> Vec<SlowdownRow> {
    parallel_map(ALL.len(), threads, |i| {
        let w = &ALL[i];
        let img = image(w, scale);
        let native = run_native(&img, u64::MAX);
        let run = |cfg| run_engine(&img, &cfg, EngineSpec::DbtFused, telemetry);
        let base = run(RunConfig::baseline());
        let cycles = |kind| run(RunConfig::technique(kind)).cycles as f64;
        SlowdownRow {
            name: w.name,
            suite: w.suite,
            rcf: cycles(TechniqueKind::Rcf) / base.cycles as f64,
            edgcf: cycles(TechniqueKind::EdgCf) / base.cycles as f64,
            ecf: cycles(TechniqueKind::Ecf) / base.cycles as f64,
            dbt_over_native: base.cycles as f64 / native.cycles as f64,
        }
    })
}

/// Geometric means over a suite filter (`None` = all benchmarks).
pub fn fig12_geomean(rows: &[SlowdownRow], suite: Option<Suite>) -> (f64, f64, f64) {
    let sel: Vec<&SlowdownRow> =
        rows.iter().filter(|r| suite.is_none_or(|s| r.suite == s)).collect();
    (
        geomean(&sel.iter().map(|r| r.rcf).collect::<Vec<_>>()),
        geomean(&sel.iter().map(|r| r.edgcf).collect::<Vec<_>>()),
        geomean(&sel.iter().map(|r| r.ecf).collect::<Vec<_>>()),
    )
}

/// Renders Figure 12 as a table.
pub fn render_fig12(rows: &[SlowdownRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ =
        writeln!(out, "Figure 12 — slowdown over uninstrumented DBT (Jcc update, ALLBB policy)");
    let _ = writeln!(
        out,
        "{:>14} {:>6} | {:>7} {:>7} {:>7} | {:>10}",
        "benchmark", "suite", "RCF", "EdgCF", "ECF", "DBT/native"
    );
    let _ = writeln!(out, "{}", "-".repeat(62));
    let print_suite = |suite: Suite, out: &mut String| {
        for r in rows.iter().filter(|r| r.suite == suite) {
            let _ = writeln!(
                out,
                "{:>14} {:>6} | {:>7.3} {:>7.3} {:>7.3} | {:>10.3}",
                r.name,
                if suite == Suite::Int { "int" } else { "fp" },
                r.rcf,
                r.edgcf,
                r.ecf,
                r.dbt_over_native
            );
        }
        let (rcf, edg, ecf) = fig12_geomean(rows, Some(suite));
        let label = if suite == Suite::Int { "geomean-int" } else { "geomean-fp" };
        let _ = writeln!(out, "{label:>21} | {rcf:>7.3} {edg:>7.3} {ecf:>7.3} |");
    };
    print_suite(Suite::Fp, &mut out);
    print_suite(Suite::Int, &mut out);
    let (rcf, edg, ecf) = fig12_geomean(rows, None);
    let _ = writeln!(out, "{:>21} | {:>7.3} {:>7.3} {:>7.3} |", "geomean-all", rcf, edg, ecf);
    let dbt: Vec<f64> = rows.iter().map(|r| r.dbt_over_native).collect();
    let _ = writeln!(out, "DBT baseline over native (geomean): {:.3}", geomean(&dbt));
    out
}

// ----------------------------------------------------------------------
// Figure 14
// ----------------------------------------------------------------------

/// Figure 14 data: geomean slowdown for update style × technique.
pub fn fig14(scale: Scale) -> [[f64; 3]; 2] {
    fig14_with(scale, 0)
}

/// As [`fig14`], one workload per pool task over `threads` worker threads.
/// Each task computes its workload's six style×technique ratios; the main
/// thread then accumulates them in workload order before taking geomeans,
/// so every float operation happens in the same sequence as a serial run
/// and the figure is byte-identical.
pub fn fig14_with(scale: Scale, threads: usize) -> [[f64; 3]; 2] {
    let kinds = [TechniqueKind::Rcf, TechniqueKind::EdgCf, TechniqueKind::Ecf];
    let styles = [UpdateStyle::Jcc, UpdateStyle::CMov];
    let ratios = parallel_map(ALL.len(), threads, |i| {
        let img = image(&ALL[i], scale);
        let base = run_dbt(&img, &RunConfig::baseline()).cycles as f64;
        let mut r = [[0.0f64; 3]; 2];
        for (si, &style) in styles.iter().enumerate() {
            for (ki, &kind) in kinds.iter().enumerate() {
                let cfg = RunConfig { technique: Some(kind), style, ..RunConfig::default() };
                r[si][ki] = run_dbt(&img, &cfg).cycles as f64 / base;
            }
        }
        r
    });
    let mut acc = [[Vec::new(), Vec::new(), Vec::new()], [Vec::new(), Vec::new(), Vec::new()]];
    for r in &ratios {
        for s in 0..2 {
            for k in 0..3 {
                acc[s][k].push(r[s][k]);
            }
        }
    }
    let mut out = [[0.0; 3]; 2];
    for s in 0..2 {
        for k in 0..3 {
            out[s][k] = geomean(&acc[s][k]);
        }
    }
    out
}

/// Renders the Figure 14 table.
pub fn render_fig14(m: &[[f64; 3]; 2]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 14 — geomean slowdown by signature-update instruction");
    let _ = writeln!(out, "{:>10} | {:>7} {:>7} {:>7}", "update", "RCF", "EdgCF", "ECF");
    let _ = writeln!(out, "{}", "-".repeat(36));
    let _ = writeln!(
        out,
        "{:>10} | {:>7.3} {:>7.3} {:>7.3}   (EdgCF/ECF unsafe)",
        "Jcc", m[0][0], m[0][1], m[0][2]
    );
    let _ = writeln!(out, "{:>10} | {:>7.3} {:>7.3} {:>7.3}", "CMOVcc", m[1][0], m[1][1], m[1][2]);
    out
}

// ----------------------------------------------------------------------
// Figure 15
// ----------------------------------------------------------------------

/// One benchmark row of Figure 15 (RCF under the four checking policies).
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Slowdown under ALLBB / RET-BE / RET / END.
    pub slowdowns: [f64; 4],
}

/// Figure 15 data: RCF slowdown under each checking policy.
pub fn fig15(scale: Scale) -> Vec<PolicyRow> {
    fig15_with(scale, 0)
}

/// As [`fig15`], one workload per pool task over `threads` worker threads;
/// rows come back in workload order, byte-identical to a serial run.
pub fn fig15_with(scale: Scale, threads: usize) -> Vec<PolicyRow> {
    parallel_map(ALL.len(), threads, |i| {
        let w = &ALL[i];
        let img = image(w, scale);
        let base = run_dbt(&img, &RunConfig::baseline()).cycles as f64;
        let mut slowdowns = [0.0; 4];
        for (pi, policy) in CheckPolicy::ALL.into_iter().enumerate() {
            let cfg =
                RunConfig { technique: Some(TechniqueKind::Rcf), policy, ..RunConfig::default() };
            slowdowns[pi] = run_dbt(&img, &cfg).cycles as f64 / base;
        }
        PolicyRow { name: w.name, suite: w.suite, slowdowns }
    })
}

/// Geomean of a policy column over a suite filter.
pub fn fig15_geomean(rows: &[PolicyRow], suite: Option<Suite>, policy: usize) -> f64 {
    let vals: Vec<f64> = rows
        .iter()
        .filter(|r| suite.is_none_or(|s| r.suite == s))
        .map(|r| r.slowdowns[policy])
        .collect();
    geomean(&vals)
}

/// Renders Figure 15 as a table.
pub fn render_fig15(rows: &[PolicyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 15 — RCF slowdown under the signature checking policies");
    let _ = writeln!(
        out,
        "{:>14} {:>6} | {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "suite", "ALLBB", "RET-BE", "RET", "END"
    );
    let _ = writeln!(out, "{}", "-".repeat(58));
    for suite in [Suite::Fp, Suite::Int] {
        for r in rows.iter().filter(|r| r.suite == suite) {
            let _ = writeln!(
                out,
                "{:>14} {:>6} | {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
                r.name,
                if suite == Suite::Int { "int" } else { "fp" },
                r.slowdowns[0],
                r.slowdowns[1],
                r.slowdowns[2],
                r.slowdowns[3]
            );
        }
        let label = if suite == Suite::Int { "geomean-int" } else { "geomean-fp" };
        let _ = write!(out, "{label:>21} |");
        for p in 0..4 {
            let _ = write!(out, " {:>7.3}", fig15_geomean(rows, Some(suite), p));
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:>21} |", "geomean-all");
    for p in 0..4 {
        let _ = write!(out, " {:>7.3}", fig15_geomean(rows, None, p));
    }
    let _ = writeln!(out);
    out
}

// ----------------------------------------------------------------------
// Coverage matrix (fault injection)
// ----------------------------------------------------------------------

/// Per-technique injection results, per category.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// `None` is the uninstrumented baseline.
    pub technique: Option<TechniqueKind>,
    /// Outcome tallies for categories A–E plus F and NoError.
    pub per_category: Vec<(Category, CategoryStats)>,
}

/// Workloads used for injection campaigns (kept small — every injection is
/// a whole program run).
pub const COVERAGE_WORKLOADS: [&str; 6] = cfed_runner::matrix::CAMPAIGN_WORKLOADS;

/// The six coverage configurations: uninstrumented baseline plus the five
/// techniques (the two CFG-dependent prior-work techniques included, via
/// the hybrid static-CFG path).
fn coverage_techniques() -> Vec<Option<TechniqueKind>> {
    vec![
        None,
        Some(TechniqueKind::Cfcss),
        Some(TechniqueKind::Ecca),
        Some(TechniqueKind::Ecf),
        Some(TechniqueKind::EdgCf),
        Some(TechniqueKind::Rcf),
    ]
}

/// Runs a matrix through the `cfed-runner` worker pool (ephemeral store)
/// and hands back the per-cell reports paired with their specs, panicking
/// with the shard errors if any cell failed — the harnesses run known-good
/// workloads, so a failure is a bug, not data.
fn pooled_reports(matrix: &CampaignMatrix, run_id: &str, threads: usize) -> RunSummary {
    let options = RunnerOptions { threads, ..Default::default() };
    let summary = run_matrix(matrix, run_id, None, &options).expect("in-memory run cannot fail");
    for cell in &summary.cells {
        assert!(
            cell.report.is_some() && cell.complete(),
            "campaign cell {} failed: {:?}",
            cell.key,
            cell.failures
        );
    }
    summary
}

/// Runs fault-injection campaigns for the baseline and each of the five
/// techniques under the given conditional-update style, distributing the
/// shards over `threads` worker threads (`0` = all cores). Tallies are
/// bit-identical for any thread count.
pub fn coverage_with(
    trials_per_workload: u64,
    style: UpdateStyle,
    seed: u64,
    threads: usize,
) -> Vec<CoverageRow> {
    let matrix = CampaignMatrix {
        workloads: COVERAGE_WORKLOADS
            .iter()
            .map(|name| WorkloadSpec::named(name, Scale::Test))
            .collect(),
        techniques: coverage_techniques(),
        styles: vec![style],
        policies: vec![CheckPolicy::AllBb],
        trials: trials_per_workload,
        seed,
        attacks: vec![None],
    };
    let summary = pooled_reports(&matrix, "coverage", threads);
    let cells = matrix.cells();
    coverage_techniques()
        .into_iter()
        .map(|technique| {
            let mut totals: Vec<(Category, CategoryStats)> =
                Category::ALL.iter().map(|&c| (c, CategoryStats::default())).collect();
            for (cell, result) in cells.iter().zip(&summary.cells) {
                if cell.config.technique != technique {
                    continue;
                }
                let report = result.report.as_ref().expect("checked by pooled_reports");
                for (c, slot) in &mut totals {
                    let s = report.category(*c);
                    slot.detected_check += s.detected_check;
                    slot.detected_hw += s.detected_hw;
                    slot.other_fault += s.other_fault;
                    slot.benign += s.benign;
                    slot.sdc += s.sdc;
                    slot.timeout += s.timeout;
                }
            }
            CoverageRow { technique, per_category: totals }
        })
        .collect()
}

/// [`coverage_with`] at the default seed, using all cores.
pub fn coverage(trials_per_workload: u64, style: UpdateStyle) -> Vec<CoverageRow> {
    coverage_with(trials_per_workload, style, DEFAULT_CAMPAIGN_SEED, 0)
}

/// Renders the coverage matrix.
pub fn render_coverage(rows: &[CoverageRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Coverage matrix — fault injection into translated code (per config trials/workload/technique)"
    );
    for row in rows {
        let name = row.technique.map_or("baseline".to_string(), |k| k.to_string());
        let _ = writeln!(out, "\n== {name} ==");
        let _ = writeln!(
            out,
            "{:>9} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>8}",
            "Category", "chk", "hw", "fault", "benign", "SDC", "timeout", "coverage"
        );
        let _ = writeln!(out, "{}", "-".repeat(72));
        for (c, s) in &row.per_category {
            if s.total() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>9} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>7.1}%",
                c.to_string(),
                s.detected_check,
                s.detected_hw,
                s.other_fault,
                s.benign,
                s.sdc,
                s.timeout,
                100.0 * s.coverage()
            );
        }
    }
    out
}

// ----------------------------------------------------------------------
// Detection latency (extension: quantifies §6's delay-to-report tradeoff)
// ----------------------------------------------------------------------

/// Mean detection latency per checking policy.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// The checking policy.
    pub policy: CheckPolicy,
    /// Mean instructions from injection to the check report.
    pub mean_latency: f64,
    /// Fraction of harmful faults detected by checks (vs hardware).
    pub check_share: f64,
}

/// Measures mean detection latency of the EdgCF technique under each
/// checking policy — the quantitative version of §6's qualitative
/// "the less frequently we check, the more delay it can take to report" —
/// with the campaigns distributed over `threads` worker threads.
pub fn latency_by_policy_with(
    trials_per_workload: u64,
    seed: u64,
    threads: usize,
) -> Vec<LatencyRow> {
    let matrix = CampaignMatrix {
        workloads: COVERAGE_WORKLOADS
            .iter()
            .map(|name| WorkloadSpec::named(name, Scale::Test))
            .collect(),
        techniques: vec![Some(TechniqueKind::EdgCf)],
        styles: vec![UpdateStyle::CMov],
        policies: CheckPolicy::ALL.to_vec(),
        trials: trials_per_workload,
        seed,
        attacks: vec![None],
    };
    let summary = pooled_reports(&matrix, "latency", threads);
    let cells = matrix.cells();
    CheckPolicy::ALL
        .into_iter()
        .map(|policy| {
            let reports: Vec<&CampaignReport> = cells
                .iter()
                .zip(&summary.cells)
                .filter(|(cell, _)| cell.config.policy == policy)
                .map(|(_, r)| r.report.as_ref().expect("checked by pooled_reports"))
                .collect();
            latency_row(policy, &reports)
        })
        .collect()
}

/// Aggregates one policy's per-workload reports into a [`LatencyRow`].
fn latency_row(policy: CheckPolicy, reports: &[&CampaignReport]) -> LatencyRow {
    let mut lat_sum = 0.0;
    let mut lat_n = 0u64;
    let mut chk = 0u64;
    let mut hw = 0u64;
    for report in reports {
        if let Some(l) = report.mean_detection_latency() {
            lat_sum += l;
            lat_n += 1;
        }
        let t = report.sdc_prone_total();
        chk += t.detected_check;
        hw += t.detected_hw + t.other_fault;
    }
    LatencyRow {
        policy,
        mean_latency: if lat_n > 0 { lat_sum / lat_n as f64 } else { f64::NAN },
        check_share: if chk + hw > 0 { chk as f64 / (chk + hw) as f64 } else { 0.0 },
    }
}

/// [`latency_by_policy_with`] at the default seed, using all cores.
pub fn latency_by_policy(trials_per_workload: u64) -> Vec<LatencyRow> {
    latency_by_policy_with(trials_per_workload, DEFAULT_CAMPAIGN_SEED, 0)
}

/// Renders the latency table.
pub fn render_latency(rows: &[LatencyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Detection latency by checking policy (EdgCF, CMOVcc)");
    let _ = writeln!(out, "{:>8} | {:>16} | {:>12}", "policy", "mean latency", "check share");
    let _ = writeln!(out, "{}", "-".repeat(44));
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8} | {:>11.0} insts | {:>11.1}%",
            r.policy.to_string(),
            r.mean_latency,
            100.0 * r.check_share
        );
    }
    out
}
