//! # cfed-bench — experiment harnesses
//!
//! Functions that regenerate every table and figure of the paper's
//! evaluation, shared by the `fig*` binaries and the integration tests:
//!
//! | paper artifact | function | binary |
//! |---|---|---|
//! | Figure 2 (error-model table) | [`fig2_with`] | `fig2_error_model` |
//! | Figure 3 (SDC-prone categories) | [`fig2_with`] (derived) | `fig2_error_model` |
//! | Figure 12 (per-benchmark slowdown) | [`fig12_telemetry_with`] | `fig12_slowdown` |
//! | Figure 14 (Jcc vs CMOVcc) | [`fig14_with`] | `fig14_update_style` |
//! | Figure 15 (checking policies) | [`fig15_with`] | `fig15_policies` |
//! | §3/§4 coverage claims | [`coverage_with`] | `coverage_matrix` |
//! | §6 detection latency (extension) | [`latency_by_policy_with`] | `latency_policies` |

use cfed_core::{geomean, run_dbt, run_engine, run_native, RunConfig, TechniqueKind};
use cfed_dbt::{CheckPolicy, EngineSpec, UpdateStyle};
use cfed_fault::{analyze_image, ErrorModelTable};
use cfed_runner::matrix::{campaign_workloads, CampaignMatrix};
use cfed_runner::pool::{parallel_map, run_matrix, RunSummary, RunnerOptions};
use cfed_runner::report;
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

/// Figure 12 data: per-benchmark technique slowdowns (Jcc update, ALLBB),
/// one workload per pool task over `threads` worker threads (`0` = all
/// cores). Each DBT run is attached to `telemetry`: every run end emits a
/// `dbt_stats` event (translation-time histogram, block and chain
/// counters) to the handle's sink. The disabled handle costs one untaken
/// branch per emit site, which is what the `< 3%` telemetry overhead bound
/// on this figure is measured against. Every row is computed from that
/// workload's runs alone and rows come back in workload order, so the
/// figure is byte-identical to a serial run (telemetry events may
/// interleave across workloads).
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

/// Figure 14 data: geomean slowdown for update style × technique, one
/// workload per pool task over `threads` worker threads (`0` = all cores).
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

/// Figure 15 data: RCF slowdown under each checking policy, one workload
/// per pool task over `threads` worker threads (`0` = all cores); rows
/// come back in workload order, byte-identical to a serial run.
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

/// A finished study matrix: its cells and their merged reports.
#[derive(Debug)]
pub struct Study {
    /// The matrix that ran.
    pub matrix: CampaignMatrix,
    /// Its per-cell reports, in matrix cell order.
    pub summary: RunSummary,
}

/// Runs a matrix through the `cfed-runner` worker pool (ephemeral store),
/// panicking with the shard errors if any cell failed — the harnesses run
/// known-good workloads, so a failure is a bug, not data.
fn run_study(matrix: CampaignMatrix, run_id: &str, threads: usize) -> Study {
    let options = RunnerOptions { threads, ..Default::default() };
    let summary = run_matrix(&matrix, run_id, None, &options).expect("in-memory run cannot fail");
    for cell in &summary.cells {
        assert!(
            cell.report.is_some() && cell.complete(),
            "campaign cell {} failed: {:?}",
            cell.key,
            cell.failures
        );
    }
    Study { matrix, summary }
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
) -> Study {
    let matrix =
        CampaignMatrix::coverage(campaign_workloads(), &[style], trials_per_workload, seed);
    run_study(matrix, "coverage", threads)
}

/// Renders the coverage matrix of a [`coverage_with`] study: the baseline,
/// then the techniques in declaration order (prior work first).
pub fn render_coverage(study: &Study) -> String {
    let mut techniques = study.matrix.techniques.clone();
    techniques.sort();
    format!(
        "Coverage matrix — fault injection into translated code (per config trials/workload/technique)\n{}",
        report::render_coverage(&study.matrix, &study.summary, study.matrix.styles[0], &techniques)
    )
}

// ----------------------------------------------------------------------
// Detection latency (extension: quantifies §6's delay-to-report tradeoff)
// ----------------------------------------------------------------------

/// Measures mean detection latency of the EdgCF technique under each
/// checking policy — the quantitative version of §6's qualitative
/// "the less frequently we check, the more delay it can take to report" —
/// with the campaigns distributed over `threads` worker threads.
pub fn latency_by_policy_with(trials_per_workload: u64, seed: u64, threads: usize) -> Study {
    let matrix = CampaignMatrix::latency(campaign_workloads(), trials_per_workload, seed);
    run_study(matrix, "latency", threads)
}

/// Renders the latency table of a [`latency_by_policy_with`] study.
pub fn render_latency(study: &Study) -> String {
    format!(
        "Detection latency by checking policy (EdgCF, CMOVcc)\n{}",
        report::render_latency(&study.matrix, &study.summary)
    )
}
