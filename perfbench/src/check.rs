//! Correctness checks on a finished campaign, run outside the timed window.
//!
//! A sampled shard is re-run through the snapshot fast-forward path and its
//! tallies compared with the record the campaign stored; a sample of that
//! shard's trials is then re-run from scratch (no snapshots) through
//! `inject` / `attack`, and every trial's outcome, category and latency
//! must match.

use cfed_fault::{
    attack, inject, AttackSpec, FaultSpec, Golden, InjectionResult, SnapshotSet, WorkloadError,
};
use cfed_runner::matrix::CellSpec;
use cfed_runner::store::{read_store, ShardTallies};
use cfed_serve::PhasePlan;

use crate::workload::mix;

/// One placed trial of a shard, as its observer saw it.
pub enum Trial {
    /// A soft-error injection.
    Fault(FaultSpec),
    /// An attack.
    Attack(AttackSpec),
}

fn fault_err(e: WorkloadError) -> String {
    e.to_string()
}

/// Runs shard `shard` of `cell` through the snapshot path, returning its
/// tallies and every placed trial with its result.
pub fn observed_shard(
    cell: &CellSpec,
    image: &cfed_asm::Image,
    golden: &Golden,
    snapshots: &SnapshotSet,
    shard: u64,
) -> Result<(ShardTallies, Vec<(Trial, InjectionResult)>), String> {
    let mut trials = Vec::new();
    let report = match cell.attack_campaign() {
        Some(campaign) => campaign
            .run_shard_with(image, golden, Some(snapshots), shard, |spec, r| {
                trials.push((Trial::Attack(spec), r.clone()));
            })
            .map_err(fault_err)?,
        None => cell
            .campaign()
            .run_shard_with(image, golden, Some(snapshots), shard, |spec, r| {
                trials.push((Trial::Fault(spec), r.clone()));
            })
            .map_err(fault_err)?,
    };
    Ok((ShardTallies::from_report(&report), trials))
}

/// Re-runs one trial from scratch.
fn from_scratch(
    cell: &CellSpec,
    image: &cfed_asm::Image,
    golden: &Golden,
    trial: &Trial,
) -> Result<Option<InjectionResult>, String> {
    match *trial {
        Trial::Fault(spec) => inject(image, &cell.config, spec, golden),
        Trial::Attack(spec) => attack(image, &cell.config, spec, golden),
    }
    .map_err(fault_err)
}

/// Checks one shard of a finished campaign, chosen by `pick`, re-running
/// `sample` of its trials from scratch. Returns the number of trials
/// compared.
///
/// # Errors
///
/// A message naming the shard and the first mismatch.
pub fn verify_sample(phases: &[PhasePlan], pick: u64, sample: usize) -> Result<u64, String> {
    let plan = &phases[(pick % phases.len() as u64) as usize];
    let cells = plan.matrix.cells();
    let h = mix(pick);
    let cell = &cells[(h % cells.len() as u64) as usize];
    let shard = mix(h) % cell.num_shards();
    let key = format!("{}#{shard}", cell.key());

    let (_, done, failed) = read_store(&plan.store)?;
    if let Some(error) = failed.get(&key) {
        return Err(format!("shard {key} failed in the campaign: {error}"));
    }
    let stored = done.get(&key).ok_or_else(|| format!("shard {key} missing from the store"))?;

    let image = cell.workload.image()?;
    let (golden, snapshots) = SnapshotSet::capture(&image, &cell.config).map_err(fault_err)?;
    let (tallies, trials) = observed_shard(cell, &image, &golden, &snapshots, shard)?;
    if tallies != *stored {
        return Err(format!("shard {key}: re-run tallies differ from the stored record"));
    }

    let step = (trials.len() / sample.max(1)).max(1);
    let mut compared = 0;
    for (trial, fast) in trials.iter().step_by(step).take(sample) {
        let slow = from_scratch(cell, &image, &golden, trial)?
            .ok_or_else(|| format!("shard {key}: a placed trial is unplaceable from scratch"))?;
        if (slow.outcome, slow.category, slow.latency_insts)
            != (fast.outcome, fast.category, fast.latency_insts)
        {
            return Err(format!(
                "shard {key}: trial at site {:#x} differs from scratch: snapshot path \
                 {:?}/{:?}/{} vs scratch {:?}/{:?}/{}",
                fast.site,
                fast.outcome,
                fast.category,
                fast.latency_insts,
                slow.outcome,
                slow.category,
                slow.latency_insts
            ));
        }
        compared += 1;
    }
    Ok(compared)
}
