//! The `cfed-profile` collection harness: one profiled DBT run, folded
//! into a mergeable per-static-block [`Profile`].
//!
//! The fused execution engine tallies raw `(cache address, hits, cycles)`
//! samples ([`cfed_sim::ExecProfiler`]); this module maps each sample onto
//! the translated-block layout ([`CacheLayout::attribute`]) to produce
//! per-guest-block payload / head / tail cycle attribution, with every
//! unattributed cycle — dispatcher charges, pre-translation interpretation,
//! translations discarded by evictions or SMC flushes — accounted in the
//! profile's `other` bucket. The fold is exhaustive by construction:
//! `profile.totals().total()` equals the run's total cycle count exactly,
//! which is what lets `cfed-campaign profile` reconstruct the Figure 12
//! slowdowns from profiles alone.
//!
//! Profiled runs are deterministic (the profiler observes, never
//! influences), so the profile of a `(workload, configuration)` pair is a
//! pure function of that pair — the basis for the store's idempotent
//! per-cell profile records.

use crate::classify::{CacheLayout, CachePart};
use crate::run::{Engine, RunConfig, RunOutcome};
use cfed_asm::Image;
use cfed_dbt::EngineSpec;
use cfed_telemetry::{BlockProfile, Profile, Telemetry};

/// Runs `image` under the DBT as [`crate::run_dbt`] would, with the
/// execution profiler attached, and returns the outcome together with the
/// attributed profile. The outcome (exit, output, cycles, instructions) is
/// identical to the unprofiled run's.
pub fn profile_dbt(image: &Image, cfg: &RunConfig) -> (RunOutcome, Profile) {
    profile_dbt_telemetry(image, cfg, &Telemetry::off())
}

/// As [`profile_dbt`], with a telemetry handle attached to the translator.
pub fn profile_dbt_telemetry(
    image: &Image,
    cfg: &RunConfig,
    telemetry: &Telemetry,
) -> (RunOutcome, Profile) {
    let mut engine = Engine::new(image, cfg, EngineSpec::DbtFused);
    let m = &mut engine.machine;
    m.enable_profiler();
    let dbt = engine.dbt.as_mut().expect("dbt-fused has a translator");
    dbt.dbt_mut().set_telemetry(telemetry.clone());
    let exit = dbt.run(m, cfg.max_insts);

    let layout = CacheLayout::snapshot(dbt.dbt(), m.code_range());
    let profiler = m.take_profiler().expect("profiler attached above");
    let mut profile = Profile::new();
    let mut attributed = 0u64;
    for (addr, hits, cycles) in profiler.samples() {
        let Some((guest_start, part)) = layout.attribute(addr) else { continue };
        let mut sample = BlockProfile { hits, ..BlockProfile::default() };
        match part {
            CachePart::Head => sample.head_cycles = cycles,
            CachePart::Payload => sample.payload_cycles = cycles,
            CachePart::Tail => sample.tail_cycles = cycles,
        }
        profile.record_block(guest_start, sample);
        attributed += cycles;
    }
    let outcome = engine.outcome(exit);
    profile.record_other(outcome.cycles - attributed);
    (outcome, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_dbt;
    use crate::techniques::TechniqueKind;
    use cfed_lang::compile;

    fn image() -> Image {
        compile(
            r#"
            fn main() {
                let i = 0;
                let acc = 1;
                while (i < 40) {
                    if (i % 3 == 0) { acc = acc * 2 + 1; } else { acc = acc + i; }
                    i = i + 1;
                }
                out(acc);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn profiled_outcome_matches_plain_run_and_accounts_every_cycle() {
        let img = image();
        for cfg in [RunConfig::baseline(), RunConfig::technique(TechniqueKind::EdgCf)] {
            let plain = run_dbt(&img, &cfg);
            let (out, profile) = profile_dbt(&img, &cfg);
            assert_eq!(out, plain, "profiling must not change the run");
            assert_eq!(
                profile.totals().total(),
                plain.cycles,
                "every cycle attributed or counted as other"
            );
            assert!(profile.num_blocks() > 0);
        }
    }

    #[test]
    fn instrumented_profile_shows_instrumentation_overhead() {
        let img = image();
        let (_, base) = profile_dbt(&img, &RunConfig::baseline());
        let (_, edg) = profile_dbt(&img, &RunConfig::technique(TechniqueKind::EdgCf));
        let (bt, et) = (base.totals(), edg.totals());
        assert!(et.head > bt.head, "EdgCF emits head checks the baseline lacks: {et:?} vs {bt:?}");
        assert!(et.total() > bt.total(), "instrumentation costs cycles");
        // Payload work is the same program; totals differ only via glue
        // scheduling, so payload stays in the same ballpark.
        let ratio = et.payload as f64 / bt.payload as f64;
        assert!((0.5..2.0).contains(&ratio), "payload ratio {ratio}");
    }

    #[test]
    fn profile_is_deterministic() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::Rcf);
        let (_, a) = profile_dbt(&img, &cfg);
        let (_, b) = profile_dbt(&img, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn reconstructed_slowdown_matches_measured_cycles() {
        // The fig12 reconstruction invariant: profile totals are exact, so
        // slowdown(technique)/slowdown(baseline) computed from profiles
        // equals the cycle-count ratio exactly (well within the 2% gate).
        let img = image();
        let base = run_dbt(&img, &RunConfig::baseline());
        let (_, bp) = profile_dbt(&img, &RunConfig::baseline());
        for kind in [TechniqueKind::Rcf, TechniqueKind::EdgCf, TechniqueKind::Ecf] {
            let cfg = RunConfig::technique(kind);
            let measured = run_dbt(&img, &cfg).cycles as f64 / base.cycles as f64;
            let (_, tp) = profile_dbt(&img, &cfg);
            let reconstructed = tp.totals().total() as f64 / bp.totals().total() as f64;
            let err = (reconstructed / measured - 1.0).abs();
            assert!(err < 0.02, "{kind:?}: reconstructed {reconstructed} vs {measured}");
        }
    }
}
