//! Detection-guarantee oracle.
//!
//! The paper's claim for its own techniques (EdgCF, RCF) is that every
//! branch error is either detected or benign — never silent data
//! corruption. This module checks that claim *in vivo* on generated
//! programs: for each of the first `branch_cap` dynamic branch sites, every
//! single-bit flip of the 32-bit branch offset and every flip of the 6-bit
//! flags register is injected through the `cfed-fault` snapshot engine,
//! under both conditional-update styles.
//!
//! The guarantee is style-scoped, matching the paper's Figure 14 and the
//! campaign-level tests in `cfed-fault`:
//!
//! - **CMov** (the safe configuration): *any* SDC is a violation. The
//!   flag-conditional update consumes the true flags before the branch
//!   executes, so even a mistaken branch direction trips the target check.
//! - **Jcc** (the fast configuration): the inserted selector branch is
//!   itself flag-dependent, so a flag fault there mis-selects the update
//!   consistently with the wrong arm — equivalent to a data fault in the
//!   flag-producing instruction, outside any signature scheme's reach.
//!   Those injections classify as [`Category::A`] (mistaken branch) and are
//!   exempt; an SDC in any *other* category is a violation.
//!
//! One exemption applies to both styles: a fault whose target lands
//! *inside a translated block's instrumentation* — the head check sequence
//! or the terminator glue — rather than on a copied guest instruction.
//! The paper's §2/§4 model is block-granular: checks guard block *arrival*,
//! and the update/check/branch sequences are atomic nodes in it. A landing
//! past a block's signature updates is indistinguishable from taking that
//! edge legitimately (the extreme case: landing directly on the terminal
//! `Halt`, where zero instructions separate the fault from program end), so
//! no software-only signature scheme can see it. [`InjectionResult`] flags
//! these landings; `latency_insts <= 1` is kept as a backstop for
//! tier-2 traces whose body layout is unknown to the classifier.
//!
//! [`InjectionResult`]: cfed_fault::InjectionResult
//!
//! Finally, an SDC classified [`Category::NoError`] is exempt: the fault
//! never altered control flow at all, so the corruption propagated through
//! *data* — e.g. a flag flip that changes no branch direction but is
//! consumed by a guest `CMov`'s value selection. Control-flow checking
//! schemes do not claim data faults (paper §2); the fuzz generator's guest
//! `CMov`s surface this class where curated workloads never did.

use cfed_asm::Image;
use cfed_core::{Category, RunConfig, TechniqueKind};
use cfed_dbt::UpdateStyle;
use cfed_fault::{inject_with, FaultSpec, Outcome, SnapshotSet};

/// The techniques whose detection guarantee the sweep enforces.
pub const GUARANTEED: [TechniqueKind; 2] = [TechniqueKind::EdgCf, TechniqueKind::Rcf];

/// Both conditional-update styles are swept; the guarantee differs per
/// style (see the module doc).
pub const STYLES: [UpdateStyle; 2] = [UpdateStyle::CMov, UpdateStyle::Jcc];

/// One detection-guarantee violation.
#[derive(Debug, Clone)]
pub struct SdcViolation {
    /// The technique that let the fault through.
    pub technique: TechniqueKind,
    /// The update style it was configured with.
    pub style: UpdateStyle,
    /// The fault that produced silent corruption.
    pub spec: FaultSpec,
    /// How the fault classified (never [`Category::A`] under Jcc — that
    /// class is exempt there).
    pub category: Category,
}

/// Aggregate result of one program's sweep.
#[derive(Debug, Clone, Default)]
pub struct DetectOutcome {
    /// Injections performed.
    pub injections: u64,
    /// Per-[`Outcome::ALL`] tally.
    pub tally: [u64; 6],
    /// Branch sites actually swept (after capping).
    pub sites: u64,
    /// Dynamic branch sites the program had (before capping).
    pub total_sites: u64,
    /// Silent-data-corruption violations (empty = guarantee held).
    pub violations: Vec<SdcViolation>,
    /// Programs whose golden run did not halt are skipped; this records it.
    pub skipped: bool,
}

/// Whether an SDC with this `category`, landing kind and detection latency
/// violates the guarantee under `style`.
fn is_violation(
    style: UpdateStyle,
    category: Category,
    instrumentation_landing: bool,
    latency_insts: u64,
) -> bool {
    if instrumentation_landing || latency_insts <= 1 {
        // Landed inside instrumentation glue (or directly on the terminal
        // Halt): below the block-granular model — see the module doc.
        return false;
    }
    if category == Category::NoError {
        // Control flow never deviated: the corruption propagated through
        // data (e.g. a guest CMov consuming a flipped flag), which no
        // control-flow scheme claims.
        return false;
    }
    match style {
        UpdateStyle::CMov => true,
        UpdateStyle::Jcc => category != Category::A,
    }
}

/// Sweeps every single-bit branch fault at the first `branch_cap` sites of
/// `image` under both guaranteed techniques and both update styles.
/// Returns `skipped: true` when the fault-free run does not halt under some
/// configuration (step-limit or a genuine guest trap — those configurations
/// have no golden reference to compare against).
pub fn detection_sweep(image: &Image, branch_cap: u64, max_insts: u64) -> DetectOutcome {
    let mut out = DetectOutcome::default();
    for kind in GUARANTEED {
        for style in STYLES {
            let cfg = RunConfig { max_insts, style, ..RunConfig::technique(kind) };
            let Ok((golden, snapshots)) = SnapshotSet::capture(image, &cfg) else {
                out.skipped = true;
                continue;
            };
            out.total_sites = out.total_sites.max(golden.branches);
            let sites = golden.branches.min(branch_cap);
            out.sites = out.sites.max(sites);
            for nth in 0..sites {
                for spec in site_specs(nth) {
                    let res = inject_with(image, &cfg, spec, &golden, Some(&snapshots));
                    let Ok(Some(r)) = res else { continue };
                    out.injections += 1;
                    out.tally[r.outcome.idx()] += 1;
                    let violates = r.outcome == Outcome::Sdc
                        && is_violation(
                            style,
                            r.category,
                            r.instrumentation_landing,
                            r.latency_insts,
                        );
                    if violates {
                        out.violations.push(SdcViolation {
                            technique: kind,
                            style,
                            spec,
                            category: r.category,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The 38 single-bit faults at one dynamic branch site: 32 address-offset
/// bits plus 6 flag bits.
pub fn site_specs(nth: u64) -> impl Iterator<Item = FaultSpec> {
    (0u8..32)
        .map(move |bit| FaultSpec::AddrBit { nth, bit })
        .chain((0u8..6).map(move |bit| FaultSpec::FlagBit { nth, bit }))
}

/// Re-checks whether a specific violation still reproduces on `image` —
/// the shrinker's predicate for detect-mode reproducers.
pub fn violation_reproduces(image: &Image, violation: &SdcViolation, max_insts: u64) -> bool {
    let cfg = RunConfig {
        max_insts,
        style: violation.style,
        ..RunConfig::technique(violation.technique)
    };
    let Ok((golden, snapshots)) = SnapshotSet::capture(image, &cfg) else { return false };
    matches!(
        inject_with(image, &cfg, violation.spec, &golden, Some(&snapshots)),
        Ok(Some(r)) if r.outcome == Outcome::Sdc
            && is_violation(violation.style, r.category, r.instrumentation_landing, r.latency_insts)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Tier};

    #[test]
    fn site_specs_cover_38_bits() {
        let specs: Vec<_> = site_specs(2).collect();
        assert_eq!(specs.len(), 38);
        assert!(specs.iter().all(|s| matches!(
            s,
            FaultSpec::AddrBit { nth: 2, .. } | FaultSpec::FlagBit { nth: 2, .. }
        )));
    }

    #[test]
    fn category_a_is_exempt_only_under_jcc() {
        assert!(!is_violation(UpdateStyle::Jcc, Category::A, false, 100));
        assert!(is_violation(UpdateStyle::CMov, Category::A, false, 100));
        assert!(is_violation(UpdateStyle::Jcc, Category::E, false, 100));
        assert!(is_violation(UpdateStyle::CMov, Category::E, false, 100));
    }

    #[test]
    fn sub_block_landings_are_exempt() {
        // Inside instrumentation glue: below the model for both styles.
        assert!(!is_violation(UpdateStyle::CMov, Category::E, true, 100));
        assert!(!is_violation(UpdateStyle::Jcc, Category::D, true, 100));
        // Terminal-Halt backstop for traces with unknown body layout.
        assert!(!is_violation(UpdateStyle::CMov, Category::E, false, 1));
        assert!(is_violation(UpdateStyle::CMov, Category::E, false, 2));
        // NoError SDCs flowed through data, not control.
        assert!(!is_violation(UpdateStyle::CMov, Category::NoError, false, 100));
        assert!(!is_violation(UpdateStyle::Jcc, Category::NoError, false, 100));
    }

    #[test]
    fn guarantee_holds_on_a_generated_program() {
        let prog = generate(11, Tier::MiniC);
        let out = detection_sweep(&prog.image, 2, 2_000_000);
        assert!(!out.skipped, "golden run should halt");
        assert!(out.injections > 0);
        assert!(out.violations.is_empty(), "EdgCF/RCF leaked SDC: {:?}", out.violations);
    }
}
