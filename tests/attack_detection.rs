//! Detected-or-Benign for adversarial control-flow attacks.
//!
//! The campaign suites (`tier_detection.rs`, `native_detection.rs`) pin the
//! paper's guarantee against the §2 single-bit error model. This suite pins
//! it against the `cfed-fault` attack generator: deliberate corruptions —
//! return-address overwrites, cross-block edge splices past the signature
//! head, mid-instruction gadget entries, jump-table slides, stack pivots —
//! that a bit flip cannot express.
//!
//! Adversarial reach is exactly what splits the paper's two techniques.
//! The DESIGN.md coverage table has one row the SEU campaigns barely
//! exercise: *errors on inserted check branches* — EdgCF ✗, RCF ✓. Under
//! the SEU model a fault at an inserted `jrnz` is benign (the check branch
//! is flag-free and not-taken on a correct run, so offset flips never act);
//! an attacker, however, seizes the program counter *at* the check, where
//! EdgCF's in-body signature is the shared zero. A body landing then finds
//! a consistent signature and escapes — EdgCF's documented gap, visible in
//! the frontier as edge-splice/jump-corrupt SDC. RCF's per-block region
//! values close it. The sweep therefore asserts:
//!
//! - **RCF**: every placed attack of every archetype ends Detected (a
//!   CFE-report trap or the hardware path), Benign, or fail-stop — with
//!   only the fuzz sweeper's exemptions (sub-block landings:
//!   `instrumentation_landing` or `latency_insts <= 1`; category A under
//!   Jcc, where the inserted selector consumes corrupted flags).
//! - **EdgCF**: the same for every archetype except the body-landing pair
//!   (`edge-splice`, `jump-corrupt`); for those, any surviving SDC must be
//!   a category C/E body landing — the one documented escape shape.
//!
//! On top of the outcome guarantee, every placed attack must classify
//! inside its archetype's pinned A–F set, and the pause-style engine
//! attacks must be bit-identical between the fused interpreter and the
//! native backend, with and without the trace tier (the suite degrades to
//! interpreter-only under `CFED_NO_NATIVE=1`, like the rest of the matrix).

use cfed::core::{Category, RunConfig, TechniqueKind};
use cfed::dbt::{DbtExit, EngineSpec, UpdateStyle};
use cfed::fault::{attack_with, pause_attack, AttackKind, AttackSpec, Outcome, SnapshotSet};
use cfed::lang::compile;

const PROGRAM: &str = r#"
    fn leaf(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
    fn main() {
        let i = 0;
        let acc = 3;
        while (i < 40) {
            if (i % 3 == 1) { acc = acc * 2 - i; } else { acc = acc + leaf(i); }
            i = i + 1;
        }
        out(acc);
    }
"#;

/// The techniques whose detection guarantee the sweep enforces — the same
/// pair the fuzz sweeper guards for the SEU model.
const GUARANTEED: [TechniqueKind; 2] = [TechniqueKind::EdgCf, TechniqueKind::Rcf];

/// Strike points per (archetype, technique, style): strided across the full
/// dynamic branch range so early setup, the hot loop and the epilogue are
/// all attacked.
const SITES: u64 = 48;

/// Whether this archetype lands on block *bodies* — the target shape of
/// EdgCF's inserted-branch gap (see the module doc). Head-targeting,
/// misaligned and out-of-cache archetypes are guaranteed by both
/// techniques.
fn body_landing(archetype: AttackKind) -> bool {
    matches!(archetype, AttackKind::EdgeSplice | AttackKind::JumpCorrupt)
}

/// The fuzz sweeper's exemptions, verbatim: sub-block landings are below
/// the paper's block-granular model for both styles; under Jcc a
/// category-A corruption mis-selects the inserted update branch
/// consistently with the wrong arm, outside any signature scheme's reach.
fn exempt(
    style: UpdateStyle,
    category: Category,
    instrumentation_landing: bool,
    latency_insts: u64,
) -> bool {
    instrumentation_landing
        || latency_insts <= 1
        || (style == UpdateStyle::Jcc && category == Category::A)
}

#[test]
fn attacks_under_guaranteed_techniques_end_detected_or_benign() {
    let image = compile(PROGRAM).expect("valid program");
    for kind in GUARANTEED {
        for style in [UpdateStyle::CMov, UpdateStyle::Jcc] {
            let cfg = RunConfig { style, max_insts: 2_000_000, ..RunConfig::technique(kind) };
            let (golden, snapshots) =
                SnapshotSet::capture(&image, &cfg).expect("attack-free run halts");
            assert!(golden.branches > SITES, "program too small to sweep");

            let mut placed = [0u64; 7];
            let mut detections = [0u64; 7];
            for archetype in AttackKind::ALL {
                for i in 0..SITES {
                    let nth = i * golden.branches / SITES;
                    for param in [i, i * 31 + 7] {
                        let spec = AttackSpec { kind: archetype, nth, param };
                        let Some(r) = attack_with(&image, &cfg, spec, &golden, Some(&snapshots))
                            .expect("prefix replay is attack-free")
                        else {
                            continue; // unplaceable at this strike point
                        };
                        placed[archetype.idx()] += 1;

                        // Taxonomy: placed attacks classify inside the
                        // archetype's pinned set — never NoError.
                        assert!(
                            archetype.expected_categories().contains(&r.category),
                            "{kind}/{style:?} {archetype} nth={nth}: \
                             classified {} outside the pinned set",
                            r.category
                        );

                        match r.outcome {
                            Outcome::DetectedByCheck | Outcome::DetectedByHw => {
                                detections[archetype.idx()] += 1;
                            }
                            // Benign is only recorded after the run halted
                            // with golden-identical output and exit code.
                            Outcome::Benign => {}
                            // Fail-stop endings: the corrupted suffix
                            // crashed on an unrelated guest trap or hung
                            // into the watchdog. Loud, not silent — the
                            // guarantee (like the fuzz sweeper's) only
                            // forbids *silent* corruption.
                            Outcome::OtherFault | Outcome::Timeout => {}
                            Outcome::Sdc => {
                                if exempt(
                                    style,
                                    r.category,
                                    r.instrumentation_landing,
                                    r.latency_insts,
                                ) {
                                    continue;
                                }
                                if kind == TechniqueKind::Rcf || !body_landing(archetype) {
                                    panic!(
                                        "{kind}/{style:?} {archetype} nth={nth} param={param}: \
                                         silent corruption escaped detection \
                                         (category {}, latency {}, landing {})",
                                        r.category, r.latency_insts, r.instrumentation_landing
                                    );
                                }
                                // EdgCF's documented gap: a strike at an
                                // inserted branch (where the in-body
                                // signature is the shared zero) landing in
                                // a block body finds a consistent
                                // signature. Only that shape may survive.
                                assert!(
                                    matches!(r.category, Category::C | Category::E),
                                    "{kind}/{style:?} {archetype} nth={nth} param={param}: \
                                     SDC outside the inserted-branch escape shape \
                                     (category {}, latency {})",
                                    r.category,
                                    r.latency_insts
                                );
                            }
                        }
                    }
                }
            }

            for archetype in AttackKind::ALL {
                assert!(
                    placed[archetype.idx()] > 0,
                    "{kind}/{style:?}: {archetype} never placed across the sweep"
                );
            }
            // The guarantee is only meaningful if the checks actually fire:
            // the pure-redirect archetypes must each see real detections.
            for archetype in [
                AttackKind::ReenterBlock,
                AttackKind::GadgetEntry,
                AttackKind::RetGadget,
                AttackKind::EdgeSplice,
                AttackKind::DataPivot,
            ] {
                assert!(
                    detections[archetype.idx()] > 0,
                    "{kind}/{style:?}: {archetype} was never detected \
                     ({} placed)",
                    placed[archetype.idx()]
                );
            }
            // flip-branch is the style-splitting archetype: CMov's update
            // consumed the true flags before the corruption, so the very
            // next check fires.
            if style == UpdateStyle::CMov {
                assert!(
                    detections[AttackKind::FlipBranch.idx()] > 0,
                    "{kind}/CMov: flip-branch must trip the target check"
                );
            }
        }
    }
}

#[test]
fn pause_attacks_are_bit_identical_across_engines() {
    // The engine-level attack path: pause mid-run, seize the program
    // counter with the archetype's target, resume. Fused interpreter and
    // native backend must agree byte-for-byte on every field — exit (trap
    // payloads included), output, retired counts — with and without the
    // trace tier. The Detected-or-Benign assertion is scoped like the
    // campaign sweep's: RCF carries it for every seizure archetype except
    // `jump-corrupt` (a mid-body slide crosses no edge — an
    // instruction-skip *data* fault, outside the branch-error model);
    // EdgCF carries it for the head-targeting and hardware-trapped
    // archetypes. Under `CFED_NO_NATIVE=1` the native comparisons degrade
    // to self-comparison, keeping the sweep's verdict identical.
    let image = compile(PROGRAM).expect("valid program");
    let golden = {
        let cfg = RunConfig { max_insts: 2_000_000, ..RunConfig::baseline() };
        cfed::fault::golden_run(&image, &cfg).expect("golden run halts")
    };

    for kind in GUARANTEED {
        let cfg = RunConfig { max_insts: 2_000_000, ..RunConfig::technique(kind) };
        let mut placed = 0usize;
        let mut detected = 0usize;
        for archetype in AttackKind::ALL {
            if archetype == AttackKind::FlipBranch {
                continue; // not a program-counter seizure; no pause form
            }
            let guaranteed = match kind {
                TechniqueKind::Rcf => archetype != AttackKind::JumpCorrupt,
                _ => !body_landing(archetype),
            };
            for pause in [900u64, 2400, 5200] {
                for param in [3u64, 11] {
                    let mount = |spec| pause_attack(&image, &cfg, archetype, param, pause, spec);
                    let fused = mount(EngineSpec::DbtFused);
                    let tiered = mount(EngineSpec::DbtTierFused(8));
                    if EngineSpec::DbtNative.resolve().is_native() {
                        let native = mount(EngineSpec::DbtNative);
                        assert_eq!(
                            fused, native,
                            "{kind} {archetype} pause={pause} param={param}: \
                             fused and native disagree"
                        );
                        let tiered_native = mount(EngineSpec::DbtTierNative(8));
                        assert_eq!(
                            tiered, tiered_native,
                            "{kind} {archetype} pause={pause} param={param}: \
                             tiered fused and tiered native disagree"
                        );
                    }
                    if !fused.placed {
                        continue;
                    }
                    placed += 1;
                    if fused.detected() {
                        detected += 1;
                        continue;
                    }
                    if !guaranteed {
                        continue;
                    }
                    match &fused.exit {
                        DbtExit::Halted { .. } => assert_eq!(
                            fused.output, golden.output,
                            "{kind} {archetype} pause={pause} param={param}: \
                             silent corruption escaped detection"
                        ),
                        other => panic!(
                            "{kind} {archetype} pause={pause} param={param}: \
                             unexpected exit {other:?}"
                        ),
                    }
                }
            }
        }
        assert!(placed >= 8, "{kind}: only {placed} pause attacks placed");
        assert!(detected > 0, "{kind}: no pause attack was ever detected ({placed} placed)");
    }
}

#[test]
fn uninstrumented_runs_set_the_hardware_only_floor() {
    // Baseline (no technique) catches only what the hardware model traps:
    // misaligned gadget entries and non-executable pivots. The archetypes
    // that stay inside translated code — ret-gadget, edge-splice — must
    // sail through undetected on at least one strike, which is precisely
    // the coverage gap the frontier report quantifies.
    let image = compile(PROGRAM).expect("valid program");
    let cfg = RunConfig { max_insts: 2_000_000, ..RunConfig::baseline() };

    for archetype in [AttackKind::GadgetEntry, AttackKind::DataPivot] {
        let run = pause_attack(&image, &cfg, archetype, 2, 900, EngineSpec::DbtFused);
        assert!(run.placed, "{archetype} must place at the pause point");
        assert!(run.detected(), "{archetype} must trip the hardware path");
    }

    let mut undetected = 0;
    for archetype in [AttackKind::RetGadget, AttackKind::EdgeSplice] {
        for pause in [900u64, 2400] {
            for param in [3u64, 11] {
                let run = pause_attack(&image, &cfg, archetype, param, pause, EngineSpec::DbtFused);
                if run.placed && !run.detected() {
                    undetected += 1;
                }
            }
        }
    }
    assert!(undetected > 0, "software attacks must evade the uninstrumented baseline");
}
