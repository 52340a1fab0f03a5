//! The campaign job model: a matrix of `(workload × technique × update
//! style × policy)` cells, each a [`Campaign`], exploded into independent
//! [`ShardTask`]s of [`SHARD_TRIALS`] trials for the worker pool.
//!
//! Determinism contract: a shard's fault stream depends only on the cell's
//! campaign seed and the shard index (see [`Campaign::shard_seed`]), and
//! tallies merge associatively, so any schedule over any worker count
//! reproduces the serial [`Campaign::run`] tallies bit for bit.

use cfed_asm::Image;
use cfed_core::RunConfig;
use cfed_core::TechniqueKind;
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::{AttackCampaign, AttackKind, Campaign, SHARD_TRIALS};
use cfed_workloads::Scale;

/// Workloads used for injection campaigns (kept small — every injection is
/// a whole program run). Shared by `cfed-bench` and `cfed-campaign`.
pub const CAMPAIGN_WORKLOADS: [&str; 6] =
    ["164.gzip", "176.gcc", "181.mcf", "171.swim", "183.equake", "191.fma3d"];

/// The [`CAMPAIGN_WORKLOADS`] at `Scale::Test`: the study's workload set.
pub fn campaign_workloads() -> Vec<WorkloadSpec> {
    CAMPAIGN_WORKLOADS.iter().map(|name| WorkloadSpec::named(name, Scale::Test)).collect()
}

/// A guest program a campaign runs against.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// One of the 26 SPEC2000-analog workloads, by name.
    Named {
        /// Workload name, e.g. `"164.gzip"`.
        name: String,
        /// Workload size preset.
        scale: Scale,
    },
    /// An inline MiniC program (tests and ad-hoc campaigns).
    Inline {
        /// Display name for keys and reports.
        name: String,
        /// MiniC source text.
        source: String,
    },
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

fn scale_key(scale: Scale) -> String {
    match scale {
        Scale::Test => "test".to_string(),
        Scale::Full => "full".to_string(),
        Scale::Custom(n) => n.to_string(),
    }
}

impl WorkloadSpec {
    /// A named workload at the given scale.
    pub fn named(name: &str, scale: Scale) -> WorkloadSpec {
        WorkloadSpec::Named { name: name.to_string(), scale }
    }

    /// An inline MiniC program.
    pub fn inline(name: &str, source: &str) -> WorkloadSpec {
        WorkloadSpec::Inline { name: name.to_string(), source: source.to_string() }
    }

    /// Stable identity string (part of shard keys; for inline programs the
    /// source is hashed in so a changed program never matches old records).
    pub fn key(&self) -> String {
        match self {
            WorkloadSpec::Named { name, scale } => format!("{name}@{}", scale_key(*scale)),
            WorkloadSpec::Inline { name, source } => {
                format!("inline:{name}@{:016x}", fnv1a(source))
            }
        }
    }

    /// Compiles the workload to an image.
    pub fn image(&self) -> Result<Image, String> {
        match self {
            WorkloadSpec::Named { name, scale } => cfed_workloads::by_name(name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?
                .image(*scale)
                .map_err(|e| format!("{name} failed to compile: {e}")),
            WorkloadSpec::Inline { name, source } => cfed_lang::compile(source)
                .map_err(|e| format!("inline workload {name} failed to compile: {e}")),
        }
    }
}

/// One campaign cell: a workload under one DBT configuration.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The guest program.
    pub workload: WorkloadSpec,
    /// DBT configuration under test.
    pub config: RunConfig,
    /// Total fault injections for this cell.
    pub trials: u64,
    /// Campaign RNG seed.
    pub seed: u64,
    /// When set, the cell mounts this attack archetype instead of sampling
    /// random soft errors — the second cell-space dimension. Attack cells
    /// share shard geometry, seed derivation and tally shape with fault
    /// cells, so everything downstream of the report is unchanged.
    pub attack: Option<AttackKind>,
}

impl CellSpec {
    /// The equivalent serial campaign.
    pub fn campaign(&self) -> Campaign {
        Campaign { config: self.config, trials: self.trials, seed: self.seed }
    }

    /// The equivalent attack campaign, for attack cells. Shard counts and
    /// seeds agree with [`CellSpec::campaign`], which is why the scheduling
    /// and accounting code never needs to distinguish the two.
    pub fn attack_campaign(&self) -> Option<AttackCampaign> {
        self.attack.map(|kind| AttackCampaign {
            config: self.config,
            kind,
            trials: self.trials,
            seed: self.seed,
        })
    }

    /// The golden-run cache key: workload identity + everything of the
    /// configuration that affects execution.
    pub fn golden_key(&self) -> String {
        let t = self.config.technique.map_or("baseline".to_string(), |k| k.to_string());
        format!(
            "{}|{t}|{}|{}|{}",
            self.workload.key(),
            self.config.style,
            self.config.policy,
            self.config.max_insts
        )
    }

    /// The cell's identity in the result store. Attack cells carry an
    /// `|atk:<archetype>` suffix; fault cells keep the historical 7-part
    /// key, so existing stores resume unchanged. The golden key is shared
    /// either way — golden runs are attack-independent.
    pub fn key(&self) -> String {
        let base = format!("{}|s{}|t{}", self.golden_key(), self.seed, self.trials);
        match self.attack {
            Some(kind) => format!("{base}|atk:{}", kind.name()),
            None => base,
        }
    }

    /// Shards in this cell.
    pub fn num_shards(&self) -> u64 {
        self.campaign().num_shards()
    }
}

/// The labelled fields of a cell key, as [`CellSpec::key`] writes them:
/// `{workload}|{technique}|{style}|{policy}|{max_insts}|s{seed}|t{trials}`,
/// plus a trailing `|atk:{archetype}` on attack cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellKey<'a> {
    /// The workload key ([`WorkloadSpec::key`]).
    pub workload: &'a str,
    /// The technique name, or `baseline`.
    pub technique: &'a str,
    /// The update style name.
    pub style: &'a str,
    /// The checking policy name.
    pub policy: &'a str,
    /// The attack archetype of an attack cell.
    pub attack: Option<AttackKind>,
}

impl<'a> CellKey<'a> {
    /// Parses a cell key; `None` when it has another shape or names an
    /// unknown archetype.
    pub fn parse(key: &'a str) -> Option<CellKey<'a>> {
        let parts: Vec<&str> = key.split('|').collect();
        let attack = match parts.len() {
            7 => None,
            8 => Some(AttackKind::from_name(parts[7].strip_prefix("atk:")?)?),
            _ => return None,
        };
        Some(CellKey {
            workload: parts[0],
            technique: parts[1],
            style: parts[2],
            policy: parts[3],
            attack,
        })
    }
}

/// One unit of worker-pool work: a shard of a cell.
#[derive(Debug, Clone, Copy)]
pub struct ShardTask {
    /// Index into the matrix's cell list.
    pub cell: usize,
    /// Shard index within the cell's campaign.
    pub shard_index: u64,
}

impl ShardTask {
    /// The shard's identity in the result store.
    pub fn key(&self, cells: &[CellSpec]) -> String {
        format!("{}#{}", cells[self.cell].key(), self.shard_index)
    }

    /// Splits a shard key back into its cell key and shard index; `None`
    /// when it has another shape.
    pub fn split_key(key: &str) -> Option<(&str, u64)> {
        let (cell_key, shard) = key.rsplit_once('#')?;
        Some((cell_key, shard.parse().ok()?))
    }
}

/// A campaign matrix: the cross product of workloads, techniques, update
/// styles and checking policies, each cell running `trials` injections.
#[derive(Debug, Clone)]
pub struct CampaignMatrix {
    /// Guest programs.
    pub workloads: Vec<WorkloadSpec>,
    /// Techniques (`None` = uninstrumented baseline).
    pub techniques: Vec<Option<TechniqueKind>>,
    /// Conditional-update styles.
    pub styles: Vec<UpdateStyle>,
    /// Checking policies.
    pub policies: Vec<CheckPolicy>,
    /// Trials per cell.
    pub trials: u64,
    /// Campaign seed, used by every cell (cells differ in configuration,
    /// so equal seeds give independent fault streams over different golden
    /// runs — and keep cells comparable across techniques).
    pub seed: u64,
    /// Attack archetypes (`None` = random soft errors). The default
    /// `[None]` reproduces the historical fault-only cell space — same
    /// keys, same digest.
    pub attacks: Vec<Option<AttackKind>>,
}

impl CampaignMatrix {
    /// A matrix over the paper's six coverage configurations (baseline +
    /// five techniques) for each of `styles`, ALLBB policy.
    pub fn coverage(
        workloads: Vec<WorkloadSpec>,
        styles: &[UpdateStyle],
        trials: u64,
        seed: u64,
    ) -> CampaignMatrix {
        let mut techniques: Vec<Option<TechniqueKind>> = vec![None];
        techniques.extend(TechniqueKind::ALL_FIVE.into_iter().map(Some));
        CampaignMatrix {
            workloads,
            techniques,
            styles: styles.to_vec(),
            policies: vec![CheckPolicy::AllBb],
            trials,
            seed,
            attacks: vec![None],
        }
    }

    /// The detection-latency matrix: EdgCF/CMOVcc under every checking
    /// policy.
    pub fn latency(workloads: Vec<WorkloadSpec>, trials: u64, seed: u64) -> CampaignMatrix {
        CampaignMatrix {
            workloads,
            techniques: vec![Some(TechniqueKind::EdgCf)],
            styles: vec![UpdateStyle::CMov],
            policies: CheckPolicy::ALL.to_vec(),
            trials,
            seed,
            attacks: vec![None],
        }
    }

    /// The adversarial matrix: every attack archetype against the coverage
    /// configurations, CMOVcc style — the detection-frontier experiment
    /// behind `cfed-campaign report --attacks`.
    pub fn attacks(workloads: Vec<WorkloadSpec>, trials: u64, seed: u64) -> CampaignMatrix {
        CampaignMatrix {
            attacks: AttackKind::ALL.into_iter().map(Some).collect(),
            ..CampaignMatrix::coverage(workloads, &[UpdateStyle::CMov], trials, seed)
        }
    }

    /// The exploded cell list, in deterministic iteration order
    /// (attack-major, then technique, style, policy, workload). With the
    /// default `attacks: [None]` the order and keys are identical to the
    /// historical fault-only matrix.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for &attack in &self.attacks {
            for &technique in &self.techniques {
                for &style in &self.styles {
                    for &policy in &self.policies {
                        for workload in &self.workloads {
                            let config =
                                RunConfig { technique, style, policy, ..RunConfig::default() };
                            out.push(CellSpec {
                                workload: workload.clone(),
                                config,
                                trials: self.trials,
                                seed: self.seed,
                                attack,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// All shard tasks, cell-major (maximizes per-worker golden-cache
    /// hits: a worker draining the queue sees one cell's shards together).
    pub fn shards(cells: &[CellSpec]) -> Vec<ShardTask> {
        let mut out = Vec::new();
        for (cell, spec) in cells.iter().enumerate() {
            for shard_index in 0..spec.num_shards() {
                out.push(ShardTask { cell, shard_index });
            }
        }
        out
    }

    /// Digest of the full cell list, stored in the JSONL header so a
    /// resume against a different matrix is rejected.
    pub fn digest(cells: &[CellSpec]) -> u64 {
        let all: String = cells.iter().map(|c| c.key()).collect::<Vec<_>>().join("\n");
        fnv1a(&all)
    }

    /// Trials per shard (the unit of checkpointing).
    pub fn shard_trials() -> u64 {
        SHARD_TRIALS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_keys_are_unique_and_stable() {
        let m = CampaignMatrix::coverage(
            vec![
                WorkloadSpec::named("164.gzip", Scale::Test),
                WorkloadSpec::named("181.mcf", Scale::Test),
            ],
            &[UpdateStyle::CMov],
            100,
            7,
        );
        let cells = m.cells();
        assert_eq!(cells.len(), 12);
        let keys: std::collections::BTreeSet<String> = cells.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), cells.len(), "duplicate cell keys");
        assert_eq!(CampaignMatrix::digest(&cells), CampaignMatrix::digest(&m.cells()));
    }

    #[test]
    fn attack_matrix_suffixes_keys_and_keeps_fault_keys_stable() {
        let workloads = vec![WorkloadSpec::named("164.gzip", Scale::Test)];
        let faults = CampaignMatrix::coverage(workloads.clone(), &[UpdateStyle::CMov], 100, 7);
        for cell in faults.cells() {
            assert!(!cell.key().contains("|atk:"), "fault cell key grew a suffix");
            assert!(cell.attack_campaign().is_none());
        }

        let m = CampaignMatrix::attacks(workloads, 100, 7);
        let cells = m.cells();
        // 7 archetypes x (baseline + 5 techniques) x 1 workload.
        assert_eq!(cells.len(), 42);
        let keys: std::collections::BTreeSet<String> = cells.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), cells.len(), "duplicate attack cell keys");
        for cell in &cells {
            let kind = cell.attack.expect("attack matrix cell without archetype");
            assert!(cell.key().ends_with(&format!("|atk:{}", kind.name())));
            assert!(!cell.golden_key().contains("atk:"), "golden key must stay attack-free");
            let campaign = cell.attack_campaign().expect("attack campaign");
            assert_eq!(campaign.num_shards(), cell.num_shards());
        }
    }

    #[test]
    fn inline_key_tracks_source() {
        let a = WorkloadSpec::inline("t", "fn main() { out(1); }");
        let b = WorkloadSpec::inline("t", "fn main() { out(2); }");
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn shards_cover_every_cell() {
        let m = CampaignMatrix::coverage(
            vec![WorkloadSpec::named("164.gzip", Scale::Test)],
            &[UpdateStyle::Jcc],
            150,
            0,
        );
        let cells = m.cells();
        let shards = CampaignMatrix::shards(&cells);
        // 150 trials -> 3 shards per cell, 6 cells.
        assert_eq!(shards.len(), 18);
        let total: u64 =
            shards.iter().map(|s| cells[s.cell].campaign().shard_trials(s.shard_index)).sum();
        assert_eq!(total, 150 * 6);
    }
}
