//! # cfed-serve — coordinator/worker campaign service
//!
//! Distributes a fault-injection campaign across worker *processes* over
//! TCP, extending the in-process `cfed-runner` pool to multiple hosts
//! while preserving its core guarantee: the merged report is **byte-
//! identical** to a single-process run, whatever the worker count,
//! schedule, crashes, or retries.
//!
//! The pieces:
//!
//! * [`proto`] — length-prefixed JSON frames and the matrix wire format;
//! * [`coordinator`] — splits the campaign matrix into idempotent work
//!   units (one shard of one cell, keyed exactly like the checkpointed
//!   JSONL store), leases them with deadlines, retries failures/expiries
//!   under the shared [`cfed_runner::retry::RetryPolicy`], and is the
//!   single store writer;
//! * [`worker`] — runs leased units on the runner pool's
//!   [`cfed_runner::pool::UnitExecutor`] (golden-run cache + snapshot
//!   fast-forward) and streams results and telemetry back;
//! * [`http`] — live `/report`, `/progress`, `/healthz` endpoints reusing
//!   the offline report renderer;
//! * [`stats`] — `serve_stats` counters persisted as store meta records
//!   and emitted as telemetry.
//!
//! The `cfed-campaign` binary (this crate) fronts all of it: the classic
//! single-process study plus `serve coordinate` / `serve work`
//! subcommands. See DESIGN.md § "Campaign service".

pub mod coordinator;
pub mod http;
pub mod proto;
pub mod stats;
pub mod worker;

use std::path::Path;

use cfed_dbt::UpdateStyle;
use cfed_runner::matrix::{campaign_workloads, CampaignMatrix, WorkloadSpec};
use cfed_workloads::Scale;

pub use coordinator::{
    Coordinator, CoordinatorOptions, CoordinatorSummary, PhasePlan, PhaseSummary,
};
pub use stats::{ServeStats, WorkerStats};
pub use worker::{work, WorkerOptions, WorkerSummary};

/// The standard two-phase campaign study — **the** phase list both the
/// single-process `cfed-campaign` run and `serve coordinate` execute, so
/// their stores (and therefore reports) are interchangeable:
///
/// 1. `coverage` — baseline + five techniques × both update styles over
///    the six campaign workloads (ALLBB policy), stored at
///    `{out}/{run_id}-coverage.jsonl`;
/// 2. `latency` — EdgCF/CMOVcc under the four checking policies, stored
///    at `{out}/{run_id}-latency.jsonl`.
pub fn campaign_phases(trials: u64, seed: u64, out: &Path, run_id: &str) -> Vec<PhasePlan> {
    let styles = [UpdateStyle::CMov, UpdateStyle::Jcc];
    vec![
        PhasePlan {
            label: "coverage".to_string(),
            matrix: CampaignMatrix::coverage(campaign_workloads(), &styles, trials, seed),
            store: out.join(format!("{run_id}-coverage.jsonl")),
        },
        PhasePlan {
            label: "latency".to_string(),
            matrix: CampaignMatrix::latency(campaign_workloads(), trials, seed),
            store: out.join(format!("{run_id}-latency.jsonl")),
        },
    ]
}

/// The adversarial campaign study: one phase, every attack archetype
/// against baseline + the five techniques over `workloads` (defaults to
/// the six campaign workloads when empty), stored at
/// `{out}/{run_id}-attacks.jsonl`. Single-process `cfed-campaign attack`
/// and `serve coordinate --attacks` both execute exactly this plan, so
/// their stores — and the `report --attacks` frontier — are
/// interchangeable.
pub fn attack_phases(
    workloads: &[String],
    trials: u64,
    seed: u64,
    out: &Path,
    run_id: &str,
) -> Vec<PhasePlan> {
    let specs: Vec<WorkloadSpec> = if workloads.is_empty() {
        campaign_workloads()
    } else {
        workloads.iter().map(|name| WorkloadSpec::named(name, Scale::Test)).collect()
    };
    vec![PhasePlan {
        label: "attacks".to_string(),
        matrix: CampaignMatrix::attacks(specs, trials, seed),
        store: out.join(format!("{run_id}-attacks.jsonl")),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_runner::matrix::{CellKey, ShardTask};

    #[test]
    fn attack_phases_cover_every_archetype_and_technique() {
        let phases = attack_phases(&[], 128, 7, Path::new("results/campaigns"), "r2");
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].label, "attacks");
        // 7 archetypes x 6 configurations x 6 workloads.
        assert_eq!(phases[0].matrix.cells().len(), 7 * 6 * 6);
        assert!(phases[0].store.ends_with("r2-attacks.jsonl"));

        let narrowed = attack_phases(&["164.gzip".to_string()], 128, 7, Path::new("out"), "r3");
        assert_eq!(narrowed[0].matrix.cells().len(), 7 * 6);
    }

    #[test]
    fn campaign_phases_match_the_classic_stores() {
        let phases = campaign_phases(500, 42, Path::new("results/campaigns"), "r1");
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].label, "coverage");
        assert_eq!(phases[0].matrix.cells().len(), 6 * 6 * 2);
        assert!(phases[0].store.ends_with("r1-coverage.jsonl"));
        assert_eq!(phases[1].label, "latency");
        assert_eq!(phases[1].matrix.cells().len(), 6 * 4);
        assert!(phases[1].store.ends_with("r1-latency.jsonl"));
    }

    #[test]
    fn every_study_key_parses_back() {
        let out = Path::new("out");
        let mut plans = campaign_phases(130, 7, out, "r");
        plans.extend(attack_phases(&[], 130, 7, out, "r"));
        for plan in &plans {
            let cells = plan.matrix.cells();
            for cell in &cells {
                let key = cell.key();
                let parsed = CellKey::parse(&key).unwrap_or_else(|| panic!("unparsed {key}"));
                let technique = cell.config.technique.map_or("baseline".into(), |k| k.to_string());
                assert_eq!(parsed.workload, cell.workload.key(), "{key}");
                assert_eq!(parsed.technique, technique, "{key}");
                assert_eq!(parsed.style, cell.config.style.to_string(), "{key}");
                assert_eq!(parsed.policy, cell.config.policy.to_string(), "{key}");
                assert_eq!(parsed.attack, cell.attack, "{key}");
            }
            for task in CampaignMatrix::shards(&cells) {
                let key = task.key(&cells);
                let cell_key = cells[task.cell].key();
                assert_eq!(ShardTask::split_key(&key), Some((cell_key.as_str(), task.shard_index)));
            }
        }
    }
}
