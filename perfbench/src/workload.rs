//! The three benchmark workloads, built from the same phase plans the
//! `cfed-campaign` entry points execute.

use std::collections::BTreeSet;
use std::path::Path;

use cfed_core::TechniqueKind;
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_runner::matrix::{CampaignMatrix, CellSpec, WorkloadSpec, CAMPAIGN_WORKLOADS};
use cfed_serve::{attack_phases, campaign_phases, PhasePlan};
use cfed_workloads::Scale;

/// The campaign workloads `attack-serve` narrows the attack study to: two
/// integer and one floating-point program.
pub const ATTACK_WORKLOADS: [&str; 3] = ["164.gzip", "181.mcf", "171.swim"];

/// Trials per cell: one shard. One campaign then takes about 2 s
/// (study-test), 3 s (attack-serve) and 5 s (study-full) on a 2-vCPU host,
/// so a run holds several campaigns with distinct seeds.
pub const TRIALS_PER_CELL: u64 = 64;

/// The seed whose first campaign's reports are committed under
/// `perfbench/expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// The splitmix64 finalizer: a cheap, well-mixed hash of one word.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The campaign seed of campaign `rep` in a run seeded with `seed`. Every
/// campaign of a run draws new trials, so one run averages over many more
/// distinct trials than one campaign holds.
pub fn campaign_seed(seed: u64, rep: u64) -> u64 {
    if rep == 0 {
        seed
    } else {
        mix(seed ^ mix(rep))
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The coverage + latency study at `Scale::Test`, in-process.
    StudyTest,
    /// Baseline, EdgCF and RCF (CMOVcc, ALLBB) at `Scale::Full`, in-process.
    StudyFull,
    /// The attack study on three workloads, through a coordinator and one
    /// worker over loopback TCP.
    AttackServe,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] =
        [Workload::StudyTest, Workload::StudyFull, Workload::AttackServe];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyTest => "study-test",
            Workload::StudyFull => "study-full",
            Workload::AttackServe => "attack-serve",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trials of the sampled shard re-run from scratch after each campaign.
    pub fn check_trials(self) -> usize {
        match self {
            Workload::StudyTest => 8,
            Workload::StudyFull => 3,
            Workload::AttackServe => 8,
        }
    }

    /// Whether the campaign runs through the coordinator/worker service.
    pub fn served(self) -> bool {
        self == Workload::AttackServe
    }

    /// The campaign phases, with stores under `dir`.
    pub fn phases(self, seed: u64, dir: &Path) -> Vec<PhasePlan> {
        let run_id = self.name();
        let trials = TRIALS_PER_CELL;
        match self {
            Workload::StudyTest => campaign_phases(trials, seed, dir, run_id),
            Workload::StudyFull => {
                let workloads = CAMPAIGN_WORKLOADS
                    .iter()
                    .map(|n| WorkloadSpec::named(n, Scale::Full))
                    .collect();
                vec![PhasePlan {
                    label: "full".to_string(),
                    matrix: CampaignMatrix {
                        workloads,
                        techniques: vec![
                            None,
                            Some(TechniqueKind::EdgCf),
                            Some(TechniqueKind::Rcf),
                        ],
                        styles: vec![UpdateStyle::CMov],
                        policies: vec![CheckPolicy::AllBb],
                        trials,
                        seed,
                        attacks: vec![None],
                    },
                    store: dir.join(format!("{run_id}-full.jsonl")),
                }]
            }
            Workload::AttackServe => {
                let names: Vec<String> = ATTACK_WORKLOADS.iter().map(|s| s.to_string()).collect();
                attack_phases(&names, trials, seed, dir, run_id)
            }
        }
    }
}

/// The cells of one phase whose golden key is seen first, in cell order —
/// the golden runs (and snapshot sets) a campaign over the phase captures.
pub fn distinct_goldens(cells: &[CellSpec]) -> Vec<&CellSpec> {
    let mut seen = BTreeSet::new();
    cells.iter().filter(|c| seen.insert(c.golden_key())).collect()
}

/// The distinct workload specs of one phase, in first-use order.
pub fn distinct_workloads(cells: &[CellSpec]) -> Vec<&WorkloadSpec> {
    let mut seen = BTreeSet::new();
    cells.iter().map(|c| &c.workload).filter(|w| seen.insert(w.key())).collect()
}

/// Executed trials over every phase.
pub fn total_trials(phases: &[PhasePlan]) -> u64 {
    phases
        .iter()
        .flat_map(|p| p.matrix.cells())
        .map(|c| (0..c.num_shards()).map(|s| c.campaign().shard_trials(s)).sum::<u64>())
        .sum()
}

/// Work units (shards) over every phase.
pub fn total_units(phases: &[PhasePlan]) -> u64 {
    phases.iter().map(|p| CampaignMatrix::shards(&p.matrix.cells()).len() as u64).sum()
}
