//! `cfed-campaign report` — renders a persisted campaign store — and the
//! coverage/latency study tables `cfed-campaign` and `cfed-bench` print.
//!
//! Reads a v2 JSONL store, merges each cell's shard tallies with the same
//! associative algebra the pool uses, and renders the per-category outcome
//! table plus detection-latency histograms and p50/p90/p99 percentiles for
//! every cell. Everything derives from the shard records alone — meta
//! records (wall-clock, thread count) are ignored — and percentiles are
//! integer bucket bounds, so a killed-and-resumed store renders
//! byte-identically to an uninterrupted one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use cfed_core::{Category, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::{AttackKind, CampaignReport, CategoryStats, Outcome};
use cfed_telemetry::{bucket_high, Histogram};

use crate::matrix::{CampaignMatrix, CellKey, ShardTask};
use crate::pool::RunSummary;
use crate::store::{read_store, StoreHeader};

/// Width of the widest histogram bar, in characters.
const BAR_WIDTH: u64 = 40;

/// A cell's merged view over its completed shards.
#[derive(Debug)]
pub struct CellSummary {
    /// The cell key (shard key minus the trailing `#<index>`).
    pub key: String,
    /// Shards merged into `tallies`.
    pub shards_done: u64,
    /// Merged tallies.
    pub tallies: CampaignReport,
}

/// Groups a store's shard records by cell key (the part before the final
/// `#`) and merges each group. `BTreeMap` input and output keep the order
/// deterministic.
pub fn summarize(done: &BTreeMap<String, CampaignReport>) -> Vec<CellSummary> {
    let mut cells: BTreeMap<String, CellSummary> = BTreeMap::new();
    for (shard_key, tallies) in done {
        let cell_key = ShardTask::split_key(shard_key).map_or(shard_key.as_str(), |(c, _)| c);
        let entry = cells.entry(cell_key.to_string()).or_insert_with(|| CellSummary {
            key: cell_key.to_string(),
            shards_done: 0,
            tallies: CampaignReport::default(),
        });
        entry.shards_done += 1;
        entry.tallies.merge(tallies);
    }
    cells.into_values().collect()
}

/// Renders the report for the store at `path`.
///
/// # Errors
///
/// Returns a message when the store cannot be read or fails to parse.
pub fn render_report(path: &Path) -> Result<String, String> {
    let (header, done, failed) = read_store(path)?;
    Ok(render_parts(&header, &summarize(&done), &failed))
}

/// Renders a report from already-loaded parts — the entry point the
/// `cfed-serve` coordinator uses to serve `/report` over HTTP from its
/// in-memory mirror while a campaign runs. Byte-identical to
/// [`render_report`] over the persisted store holding the same shards.
pub fn render_parts(
    header: &StoreHeader,
    cells: &[CellSummary],
    failed: &BTreeMap<String, String>,
) -> String {
    let mut out = String::new();
    let done: u64 = cells.iter().map(|c| c.shards_done).sum();
    let _ = writeln!(
        out,
        "run {} | seed {} | {} trials/cell | shards {done}/{}",
        header.run_id, header.seed, header.trials, header.total_shards
    );
    if !failed.is_empty() {
        let _ = writeln!(out, "failed shards: {}", failed.len());
        for (key, err) in failed {
            let _ = writeln!(out, "  {key}: {err}");
        }
    }
    if cells.is_empty() {
        let _ = writeln!(out, "no completed shards");
        return out;
    }
    for cell in cells {
        render_cell(&mut out, cell);
    }
    out
}

fn render_cell(out: &mut String, cell: &CellSummary) {
    let _ = writeln!(out, "\n== {} ==", cell.key);
    let _ = writeln!(out, "shards merged: {}", cell.shards_done);
    if cell.tallies.skipped > 0 {
        let _ = writeln!(out, "skipped injections: {}", cell.tallies.skipped);
    }

    write_outcome_table(out, "category", &cell.tallies);

    let all = cell.tallies.detection_latency_hist();
    if all.is_empty() {
        let _ = writeln!(out, "no check-detected faults");
        return;
    }
    let _ = writeln!(
        out,
        "detection latency (instructions): n={} sum={} min={} max={} p50<={} p90<={} p99<={}",
        all.count(),
        all.sum(),
        all.min().unwrap_or(0),
        all.max().unwrap_or(0),
        all.percentile(0.50).unwrap_or(0),
        all.percentile(0.90).unwrap_or(0),
        all.percentile(0.99).unwrap_or(0),
    );
    render_bars(out, &all);

    // Per-category percentile rows (check-detected faults only).
    let _ = writeln!(
        out,
        "{:>9} | {:>6} | {:>8} {:>8} {:>8} | {:>8}",
        "category", "n", "p50<=", "p90<=", "p99<=", "max"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    for (c, row) in Category::ALL.iter().zip(cell.tallies.lat.iter()) {
        let h = &row[Outcome::DetectedByCheck.idx()];
        if h.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "{:>9} | {:>6} | {:>8} {:>8} {:>8} | {:>8}",
            c.to_string(),
            h.count(),
            h.percentile(0.50).unwrap_or(0),
            h.percentile(0.90).unwrap_or(0),
            h.percentile(0.99).unwrap_or(0),
            h.max().unwrap_or(0),
        );
    }
}

/// Renders the attack detection frontier for the store at `path`: one row
/// per attack archetype, one column per technique, aggregated over every
/// workload in the store. The rendering derives exclusively from shard
/// tallies, so it is byte-identical across thread counts, kill/resume, and
/// single-process vs service runs.
///
/// # Errors
///
/// Returns a message when the store cannot be read, fails to parse, or
/// holds no attack cells.
pub fn render_attack_frontier(path: &Path) -> Result<String, String> {
    let (header, done, failed) = read_store(path)?;
    render_attack_parts(&header, &summarize(&done), &failed)
}

/// [`render_attack_frontier`] over already-loaded parts (the in-memory
/// mirror path, mirroring [`render_parts`]).
///
/// # Errors
///
/// Returns a message when the store holds no attack cells.
pub fn render_attack_parts(
    header: &StoreHeader,
    cells: &[CellSummary],
    failed: &BTreeMap<String, String>,
) -> Result<String, String> {
    // (archetype, technique) -> (outcome tallies over every category, unplaced)
    type Tally = (CategoryStats, u64);
    let mut grid: BTreeMap<(usize, String), Tally> = BTreeMap::new();
    let mut workloads: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for cell in cells {
        let Some(key) = CellKey::parse(&cell.key) else { continue };
        let Some(kind) = key.attack else { continue };
        workloads.insert(key.workload.to_string());
        let slot = grid.entry((kind.idx(), key.technique.to_string())).or_default();
        slot.0 += cell.tallies.total_over(&Category::ALL);
        slot.1 += cell.tallies.skipped;
    }
    if grid.is_empty() {
        return Err("store holds no attack cells (run `cfed-campaign attack` first)".to_string());
    }

    // Canonical column order: baseline, then the paper's five techniques;
    // only columns present in the store are rendered.
    let canonical: Vec<String> = std::iter::once("baseline".to_string())
        .chain(TechniqueKind::ALL_FIVE.iter().map(ToString::to_string))
        .collect();
    let columns: Vec<&String> =
        canonical.iter().filter(|t| grid.keys().any(|(_, tech)| tech == *t)).collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "run {} | seed {} | {} trials/cell | attack detection frontier over {} workload(s)",
        header.run_id,
        header.seed,
        header.trials,
        workloads.len()
    );
    if !failed.is_empty() {
        let _ = writeln!(out, "failed shards: {}", failed.len());
        for (key, err) in failed {
            let _ = writeln!(out, "  {key}: {err}");
        }
    }
    let _ = writeln!(out, "detected = signature check + hardware trap; SDC in parentheses");
    let _ = write!(out, "{:>14}", "archetype");
    for t in &columns {
        let _ = write!(out, " | {t:>14}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(14 + columns.len() * 17));
    for kind in AttackKind::ALL {
        if !grid.keys().any(|(k, _)| *k == kind.idx()) {
            continue;
        }
        let _ = write!(out, "{:>14}", kind.name());
        for t in &columns {
            match grid.get(&(kind.idx(), (*t).clone())) {
                Some((s, _)) if s.total() > 0 => {
                    let pct = 100.0 * (s.detected_check + s.detected_hw) as f64 / s.total() as f64;
                    let _ = write!(out, " | {:>8.1}% ({:>3})", pct, s.sdc);
                }
                _ => {
                    let _ = write!(out, " | {:>14}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }

    // Check-only view: the frontier with hardware traps excluded, which is
    // what separates instrumentation coverage from machine luck.
    let _ = writeln!(out, "\nsignature-check detection only");
    let _ = write!(out, "{:>14}", "archetype");
    for t in &columns {
        let _ = write!(out, " | {t:>14}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(14 + columns.len() * 17));
    for kind in AttackKind::ALL {
        if !grid.keys().any(|(k, _)| *k == kind.idx()) {
            continue;
        }
        let _ = write!(out, "{:>14}", kind.name());
        for t in &columns {
            match grid.get(&(kind.idx(), (*t).clone())) {
                Some((s, _)) if s.total() > 0 => {
                    let pct = 100.0 * s.detected_check as f64 / s.total() as f64;
                    let _ = write!(out, " | {:>13.1}%", pct);
                }
                _ => {
                    let _ = write!(out, " | {:>14}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }

    let unplaced: u64 = grid.values().map(|v| v.1).sum();
    if unplaced > 0 {
        let _ = writeln!(out, "\nunplaceable attack trials (no viable target): {unplaced}");
    }
    Ok(out)
}

/// Writes the per-category outcome table of `report`: a header whose first
/// cell reads `label`, then one row per category with injections.
pub fn write_outcome_table(out: &mut String, label: &str, report: &CampaignReport) {
    let _ = writeln!(
        out,
        "{:>9} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>8}",
        label, "chk", "hw", "fault", "benign", "SDC", "timeout", "coverage"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for (c, s) in Category::ALL.iter().zip(&report.stats) {
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

/// One coverage configuration's tallies summed over its workload cells in
/// `summary` (a run of `matrix`), and the number of those cells that have
/// no report.
pub fn coverage_total(
    matrix: &CampaignMatrix,
    summary: &RunSummary,
    technique: Option<TechniqueKind>,
    style: UpdateStyle,
) -> (CampaignReport, u64) {
    let mut total = CampaignReport::default();
    let mut missing = 0u64;
    for (cell, result) in matrix.cells().iter().zip(&summary.cells) {
        if cell.config.technique != technique || cell.config.style != style {
            continue;
        }
        match &result.report {
            Some(report) => total.merge(report),
            None => missing += 1,
        }
    }
    (total, missing)
}

/// The coverage study table for one update style: per technique, in the
/// order given, a `== name ==` block with the summed outcome table (see
/// [`coverage_total`]), noting missing workload cells.
pub fn render_coverage(
    matrix: &CampaignMatrix,
    summary: &RunSummary,
    style: UpdateStyle,
    techniques: &[Option<TechniqueKind>],
) -> String {
    let mut out = String::new();
    for &technique in techniques {
        let (total, missing) = coverage_total(matrix, summary, technique, style);
        let name = technique.map_or("baseline".to_string(), |k| k.to_string());
        let _ = writeln!(out, "\n== {name} ==");
        if missing > 0 {
            let _ = writeln!(out, "   ({missing} workload cells missing — run incomplete)");
        }
        write_outcome_table(&mut out, "Category", &total);
    }
    out
}

/// One row of the detection-latency study.
#[derive(Debug, Clone, Copy)]
pub struct LatencyRow {
    /// Mean over workload cells of each cell's mean instructions from
    /// injection to the check report (`NaN` when no cell detected any).
    pub mean_latency: f64,
    /// Share of detected SDC-prone faults caught by a signature check
    /// rather than by hardware or another fault.
    pub check_share: f64,
}

/// The latency row of `policy` over its workload cells in `summary` (a
/// run of `matrix`); cells without a report are skipped.
pub fn latency_row(
    matrix: &CampaignMatrix,
    summary: &RunSummary,
    policy: CheckPolicy,
) -> LatencyRow {
    let mut lat_sum = 0.0;
    let mut lat_n = 0u64;
    let mut chk = 0u64;
    let mut hw = 0u64;
    for (cell, result) in matrix.cells().iter().zip(&summary.cells) {
        if cell.config.policy != policy {
            continue;
        }
        let Some(report) = result.report.as_ref() else { continue };
        if let Some(l) = report.mean_detection_latency() {
            lat_sum += l;
            lat_n += 1;
        }
        let t = report.sdc_prone_total();
        chk += t.detected_check;
        hw += t.detected_hw + t.other_fault;
    }
    LatencyRow {
        mean_latency: if lat_n > 0 { lat_sum / lat_n as f64 } else { f64::NAN },
        check_share: if chk + hw > 0 { chk as f64 / (chk + hw) as f64 } else { 0.0 },
    }
}

/// The detection-latency study table: one [`latency_row`] per checking
/// policy.
pub fn render_latency(matrix: &CampaignMatrix, summary: &RunSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>8} | {:>16} | {:>12}", "policy", "mean latency", "check share");
    let _ = writeln!(out, "{}", "-".repeat(44));
    for policy in CheckPolicy::ALL {
        let row = latency_row(matrix, summary, policy);
        let _ = writeln!(
            out,
            "{:>8} | {:>11.0} insts | {:>11.1}%",
            policy.to_string(),
            row.mean_latency,
            100.0 * row.check_share
        );
    }
    out
}

/// One bar per non-empty bucket, scaled to the fullest bucket.
fn render_bars(out: &mut String, h: &Histogram) {
    let peak = h.nonzero_buckets().map(|(_, c)| c).max().unwrap_or(1);
    for (i, count) in h.nonzero_buckets() {
        let low = if i == 0 { 0 } else { bucket_high(i - 1) + 1 };
        let width = ((count * BAR_WIDTH) / peak).max(1) as usize;
        let _ = writeln!(
            out,
            "  [{:>8}..{:>8}] {:>6} |{}",
            low,
            bucket_high(i),
            count,
            "#".repeat(width)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(latencies: &[(Category, Outcome, u64)]) -> CampaignReport {
        let mut report = CampaignReport::default();
        for &(c, o, l) in latencies {
            report.record(c, o, l);
        }
        report
    }

    #[test]
    fn summarize_groups_and_merges_by_cell() {
        let mut done = BTreeMap::new();
        done.insert("cellA#0".to_string(), shard(&[(Category::A, Outcome::DetectedByCheck, 10)]));
        done.insert("cellA#1".to_string(), shard(&[(Category::A, Outcome::DetectedByCheck, 20)]));
        done.insert("cellB#0".to_string(), shard(&[(Category::B, Outcome::Sdc, 0)]));
        let cells = summarize(&done);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].key, "cellA");
        assert_eq!(cells[0].shards_done, 2);
        let lat = cells[0].tallies.detection_latency_hist();
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.sum(), 30);
        assert_eq!(cells[1].key, "cellB");
        assert_eq!(cells[1].tallies.stats[1].sdc, 1);
    }

    #[test]
    fn attack_frontier_renders_archetype_by_technique() {
        let header = StoreHeader {
            run_id: "atk".into(),
            seed: 3,
            trials: 64,
            shard_trials: 64,
            digest: 1,
            total_shards: 3,
        };
        let mut done = BTreeMap::new();
        done.insert(
            "w@test|baseline|CMOVcc|ALLBB|100000|s3|t64|atk:ret-gadget#0".to_string(),
            shard(&[(Category::D, Outcome::Sdc, 0), (Category::D, Outcome::DetectedByHw, 4)]),
        );
        done.insert(
            "w@test|EdgCF|CMOVcc|ALLBB|100000|s3|t64|atk:ret-gadget#0".to_string(),
            shard(&[(Category::D, Outcome::DetectedByCheck, 9)]),
        );
        // Fault cells in the same store are ignored by the frontier.
        done.insert(
            "w@test|EdgCF|CMOVcc|ALLBB|100000|s3|t64#0".to_string(),
            shard(&[(Category::A, Outcome::Benign, 0)]),
        );
        let empty = BTreeMap::new();
        let text = render_attack_parts(&header, &summarize(&done), &empty).unwrap();
        assert!(text.contains("ret-gadget"), "{text}");
        assert!(text.contains("baseline"), "{text}");
        assert!(text.contains("EdgCF"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
        assert!(text.contains("50.0%"), "{text}");

        let faults_only: BTreeMap<String, CampaignReport> = done
            .iter()
            .filter(|(k, _)| !k.contains("|atk:"))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert!(render_attack_parts(&header, &summarize(&faults_only), &empty).is_err());
    }

    #[test]
    fn render_is_deterministic_over_merge_order() {
        let header = StoreHeader {
            run_id: "r".into(),
            seed: 1,
            trials: 128,
            shard_trials: 64,
            digest: 9,
            total_shards: 2,
        };
        let a =
            shard(&[(Category::A, Outcome::DetectedByCheck, 5), (Category::F, Outcome::Sdc, 0)]);
        let b = shard(&[(Category::A, Outcome::DetectedByCheck, 90)]);
        let mut forward = BTreeMap::new();
        forward.insert("c#0".to_string(), a.clone());
        forward.insert("c#1".to_string(), b.clone());
        // Same shards, merged from a different insertion order.
        let mut backward = BTreeMap::new();
        backward.insert("c#1".to_string(), b);
        backward.insert("c#0".to_string(), a);
        let empty = BTreeMap::new();
        assert_eq!(
            render_parts(&header, &summarize(&forward), &empty),
            render_parts(&header, &summarize(&backward), &empty)
        );
        let text = render_parts(&header, &summarize(&forward), &empty);
        assert!(text.contains("== c =="), "{text}");
        assert!(text.contains("p50<="), "{text}");
    }

    /// A run of `matrix` in which every cell detected one category-A fault
    /// with latency 10, except cell `missing`, which has no report.
    fn summary_missing(matrix: &CampaignMatrix, missing: usize) -> RunSummary {
        use crate::pool::{CellResult, RunPerf};
        let cells = matrix
            .cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| CellResult {
                cell: i,
                key: cell.key(),
                report: (i != missing)
                    .then(|| shard(&[(Category::A, Outcome::DetectedByCheck, 10)])),
                done_shards: u64::from(i != missing),
                total_shards: 1,
                failures: Vec::new(),
            })
            .collect();
        let perf = RunPerf {
            wall_ms: 0,
            executed_trials: 0,
            trials_per_sec: 0.0,
            snapshots_enabled: false,
            snapshots: Default::default(),
        };
        RunSummary { cells, executed_shards: 0, resumed_shards: 0, retried_attempts: 0, perf }
    }

    #[test]
    fn coverage_counts_missing_cells_of_an_incomplete_run() {
        use crate::matrix::WorkloadSpec;
        use cfed_workloads::Scale;
        let workloads = ["164.gzip", "181.mcf"].map(|n| WorkloadSpec::named(n, Scale::Test));
        let matrix = CampaignMatrix::coverage(workloads.to_vec(), &[UpdateStyle::CMov], 64, 1);
        // Cell 0 is the baseline on the first workload.
        let summary = summary_missing(&matrix, 0);
        let (baseline, missing) = coverage_total(&matrix, &summary, None, UpdateStyle::CMov);
        assert_eq!((baseline.category(Category::A).detected_check, missing), (1, 1));
        let rcf = Some(TechniqueKind::Rcf);
        let (total, missing) = coverage_total(&matrix, &summary, rcf, UpdateStyle::CMov);
        assert_eq!((total.category(Category::A).detected_check, missing), (2, 0));

        let text = render_coverage(&matrix, &summary, UpdateStyle::CMov, &[None, rcf]);
        let note = "   (1 workload cells missing — run incomplete)\n";
        assert!(text.starts_with(&format!("\n== baseline ==\n{note} Category |")), "{text}");
        assert_eq!(text.matches(note).count(), 1, "{text}");
    }

    #[test]
    fn latency_rows_skip_missing_cells() {
        let workloads = vec![crate::matrix::WorkloadSpec::inline("w", "fn main() { out(1); }")];
        let matrix = CampaignMatrix::latency(workloads, 64, 1);
        let summary = summary_missing(&matrix, 0);
        let missing = latency_row(&matrix, &summary, CheckPolicy::ALL[0]);
        assert!(missing.mean_latency.is_nan());
        assert_eq!(missing.check_share, 0.0);
        let present = latency_row(&matrix, &summary, CheckPolicy::ALL[1]);
        assert_eq!((present.mean_latency, present.check_share), (10.0, 1.0));
    }
}
