//! Adversarial attack oracle: attack schedules in the differential matrix.
//!
//! `cfed-fault`'s pause-style attacks seize the program counter from the
//! *live translated-code geometry*, so they exercise exactly the state the
//! execution backends must agree on: block layout, instrumentation
//! placement, and resume-from-architectural-PC semantics. This module
//! mutates a deterministic schedule of such attacks (a pure function of
//! the case seed) into the fuzzer's differential matrix: every scheduled
//! attack is mounted on the block-fused engine and on the native backend —
//! and, for trace-capable configs, on both tiered engines — and the runs
//! must be *bit-identical* per pair: same placement decision, same exit,
//! same output stream, same retired-instruction count.
//!
//! A mismatch is an engine bug by construction (the attack itself is the
//! same on both sides), and is shrunk with the generic image shrinker
//! against [`finding_reproduces`] — the cheap two-run predicate — then
//! archived as a [`RegressionMode::Attack`] reproducer replayable by
//! `cfed-fuzz replay` and the `regressions` integration test.
//!
//! Tiered runs are compared only against each other (tier-fused vs
//! tier-native): trace formation legitimately changes the translated-code
//! geometry the attack selects its target from, so a tiered run is a
//! *different experiment* from an untiered one, not a comparable pair.
//!
//! [`RegressionMode::Attack`]: crate::corpus::RegressionMode::Attack

use crate::oracle::TIER_THRESHOLD;
use cfed_asm::Image;
use cfed_core::{RunConfig, TechniqueKind};
use cfed_dbt::{EngineSpec, UpdateStyle};
use cfed_fault::{pause_attack, AttackKind, PauseAttack};
use rand::{Rng, SeedableRng as _, StdRng};

/// Attack trials mounted per case (one per `CONFIGS` row) — shared by
/// `cfed-fuzz run --attacks`, `cfed-fuzz replay` and the regressions test
/// so an archived reproducer replays the exact schedule that found it.
pub const ATTACK_TRIALS: u64 = 6;

/// The configurations attacks are scheduled against: the uninstrumented
/// baseline, the paper techniques under both styles, and one prior-work
/// scheme for placement diversity. Trial `t` uses row `t % CONFIGS.len()`.
const CONFIGS: [(Option<TechniqueKind>, UpdateStyle); 6] = [
    (None, UpdateStyle::Jcc),
    (Some(TechniqueKind::EdgCf), UpdateStyle::CMov),
    (Some(TechniqueKind::EdgCf), UpdateStyle::Jcc),
    (Some(TechniqueKind::Rcf), UpdateStyle::CMov),
    (Some(TechniqueKind::Ecf), UpdateStyle::CMov),
    (Some(TechniqueKind::Cfcss), UpdateStyle::Jcc),
];

/// The archetypes a pause-style mount can place. `flip-branch` perturbs a
/// branch in flight rather than seizing the program counter, so the pause
/// engine never places it (see `cfed_fault::pause_attack`).
const PAUSE_KINDS: [AttackKind; 6] = [
    AttackKind::ReenterBlock,
    AttackKind::GadgetEntry,
    AttackKind::RetGadget,
    AttackKind::EdgeSplice,
    AttackKind::JumpCorrupt,
    AttackKind::DataPivot,
];

/// One cross-engine mismatch under an attack: everything needed to re-run
/// the diverging pair (the shrinker's and replayer's contract).
#[derive(Debug, Clone)]
pub struct AttackFinding {
    /// Technique the attacked run was instrumented with.
    pub technique: Option<TechniqueKind>,
    /// Conditional-update style.
    pub style: UpdateStyle,
    /// Attack archetype.
    pub kind: AttackKind,
    /// Archetype parameter (target selector).
    pub param: u64,
    /// Instructions executed before the seizure.
    pub pause: u64,
    /// Whether the diverging pair was the tiered one.
    pub tiered: bool,
    /// Which comparison failed (`placed`, `exit`, `output`, `insts`).
    pub field: String,
    /// Human-readable detail of both sides.
    pub detail: String,
}

impl AttackFinding {
    /// Stable pair labels for report lines, mirroring the differential
    /// oracle's `left|right` convention.
    pub fn pair(&self) -> (&'static str, &'static str) {
        if self.tiered {
            ("tier-fused", "tier-native")
        } else {
            ("fused", "native")
        }
    }
}

/// Aggregate result of one program's attack schedule.
#[derive(Debug, Clone, Default)]
pub struct AttackOutcome {
    /// Trials mounted.
    pub trials: u64,
    /// Trials whose fused run actually placed the attack.
    pub placed: u64,
    /// Cross-engine mismatches (empty = engines agree under attack).
    pub findings: Vec<AttackFinding>,
}

/// The run configuration for one scheduled trial.
fn trial_config(technique: Option<TechniqueKind>, style: UpdateStyle, max_insts: u64) -> RunConfig {
    RunConfig { technique, style, max_insts, ..RunConfig::default() }
}

/// First differing field of a backend pair, in fixed comparison order.
fn diff_pause(a: &PauseAttack, b: &PauseAttack) -> Option<(String, String)> {
    if a.placed != b.placed {
        return Some(("placed".into(), format!("{} vs {}", a.placed, b.placed)));
    }
    if a.exit != b.exit {
        return Some(("exit".into(), format!("{:?} vs {:?}", a.exit, b.exit)));
    }
    if a.output != b.output {
        let n = a.output.iter().zip(&b.output).take_while(|(x, y)| x == y).count();
        return Some((
            "output".into(),
            format!(
                "streams differ at index {n} (lengths {} vs {}): {:?} vs {:?}",
                a.output.len(),
                b.output.len(),
                a.output.get(n),
                b.output.get(n)
            ),
        ));
    }
    if a.insts != b.insts {
        return Some(("insts".into(), format!("{} vs {}", a.insts, b.insts)));
    }
    None
}

/// Whether the trace tier survives this host's kill switches.
fn tier_runs() -> bool {
    EngineSpec::DbtTierFused(TIER_THRESHOLD).resolve().is_tiered()
}

/// Mounts one trial's engine pairs and returns the first mismatch.
/// `(placed, finding)` — `placed` reflects the untiered fused run.
fn run_trial(
    image: &Image,
    technique: Option<TechniqueKind>,
    style: UpdateStyle,
    kind: AttackKind,
    param: u64,
    pause: u64,
    max_insts: u64,
) -> (bool, Option<AttackFinding>) {
    let cfg = trial_config(technique, style, max_insts);
    let mount = |spec: EngineSpec| pause_attack(image, &cfg, kind, param, pause, spec.resolve());
    let fused = mount(EngineSpec::DbtFused);
    let native_run = mount(EngineSpec::DbtNative);
    let finding = |tiered: bool, (field, detail): (String, String)| AttackFinding {
        technique,
        style,
        kind,
        param,
        pause,
        tiered,
        field,
        detail,
    };
    if let Some(d) = diff_pause(&fused, &native_run) {
        return (fused.placed, Some(finding(false, d)));
    }
    // Tiered pair: only for configs the trace verifier can promote, and
    // only when the tier runs on this host at all.
    let tier_capable = technique.is_none_or(TechniqueKind::supports_trace_tier);
    if tier_capable && tier_runs() {
        let tf = mount(EngineSpec::DbtTierFused(TIER_THRESHOLD));
        let tn = mount(EngineSpec::DbtTierNative(TIER_THRESHOLD));
        if let Some(d) = diff_pause(&tf, &tn) {
            return (fused.placed, Some(finding(true, d)));
        }
    }
    (fused.placed, None)
}

/// Derives trial `t`'s attack parameters from the schedule RNG. Separate
/// from [`run_trial`] so the schedule stays a pure function of the seed
/// regardless of what each trial observes.
fn schedule(
    rng: &mut StdRng,
    t: u64,
) -> (Option<TechniqueKind>, UpdateStyle, AttackKind, u64, u64) {
    let (technique, style) = CONFIGS[(t % CONFIGS.len() as u64) as usize];
    let kind = PAUSE_KINDS[rng.gen_range(0usize..PAUSE_KINDS.len())];
    let param = rng.gen::<u64>();
    // Pauses span the warm-up and steady-state of generated loops; short
    // programs simply finish before the pause, exercising the
    // attack-never-placed path on both engines.
    let pause = rng.gen_range(40u64..2_500);
    (technique, style, kind, param, pause)
}

/// Mounts the deterministic attack schedule of `seed` on `image` and diffs
/// every engine pair. The schedule depends only on `(seed, trials)`, never
/// on the image or on prior trial outcomes, so a shrunk image replays the
/// exact schedule that exposed its finding.
pub fn attack_sweep(image: &Image, seed: u64, trials: u64, max_insts: u64) -> AttackOutcome {
    let mut out = AttackOutcome::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA77A_C4ED_2006_0000);
    for t in 0..trials {
        let (technique, style, kind, param, pause) = schedule(&mut rng, t);
        out.trials += 1;
        let (placed, finding) = run_trial(image, technique, style, kind, param, pause, max_insts);
        if placed {
            out.placed += 1;
        }
        out.findings.extend(finding);
    }
    out
}

/// Re-checks whether a specific finding's engine pair still disagrees on
/// `image` — the shrinker's predicate (2–4 runs instead of the schedule).
pub fn finding_reproduces(image: &Image, finding: &AttackFinding, max_insts: u64) -> bool {
    let cfg = trial_config(finding.technique, finding.style, max_insts);
    let (left, right) = if finding.tiered {
        if !tier_runs() {
            return false; // the tiered pair degenerated; nothing to compare
        }
        (EngineSpec::DbtTierFused(TIER_THRESHOLD), EngineSpec::DbtTierNative(TIER_THRESHOLD))
    } else {
        (EngineSpec::DbtFused, EngineSpec::DbtNative)
    };
    let mount = |spec: EngineSpec| {
        pause_attack(image, &cfg, finding.kind, finding.param, finding.pause, spec.resolve())
    };
    let (left, right) = (mount(left), mount(right));
    diff_pause(&left, &right).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, schedule_seed, Tier};

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let mut a = StdRng::seed_from_u64(9 ^ 0xA77A_C4ED_2006_0000);
        let mut b = StdRng::seed_from_u64(9 ^ 0xA77A_C4ED_2006_0000);
        for t in 0..ATTACK_TRIALS {
            assert_eq!(format!("{:?}", schedule(&mut a, t)), format!("{:?}", schedule(&mut b, t)));
        }
    }

    #[test]
    fn engines_agree_under_attack_on_generated_programs() {
        let mut placed = 0;
        for (seed, tier) in [(11u64, Tier::MiniC), (5, Tier::Visa)] {
            let prog = generate(schedule_seed(seed, 0), tier);
            let out = attack_sweep(&prog.image, seed, ATTACK_TRIALS, 300_000);
            assert_eq!(out.trials, ATTACK_TRIALS);
            assert!(out.findings.is_empty(), "engines disagree: {:?}", out.findings);
            placed += out.placed;
        }
        // The schedule must actually mount attacks somewhere, or the
        // oracle is silently inert.
        assert!(placed > 0, "no scheduled attack ever placed");
    }

    #[test]
    fn a_clean_pair_does_not_reproduce() {
        let prog = generate(3, Tier::MiniC);
        let finding = AttackFinding {
            technique: Some(TechniqueKind::EdgCf),
            style: UpdateStyle::CMov,
            kind: AttackKind::RetGadget,
            param: 7,
            pause: 900,
            tiered: false,
            field: "exit".into(),
            detail: String::new(),
        };
        assert!(!finding_reproduces(&prog.image, &finding, 300_000));
    }
}
