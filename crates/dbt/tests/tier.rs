//! Tier-2 engine tests: promotion, rejection, demotion, and equivalence
//! against never-tiered runs. The placement verifier proper lives in
//! cfed-core; here test verifiers (accept-all / reject-all) isolate the
//! engine mechanics.

use cfed_dbt::ir::{TracePlan, TraceVerifier};
use cfed_dbt::{Dbt, DbtExit, EngineSpec, NativeDbt, NullInstrumenter, TierConfig, UpdateStyle};
use cfed_lang::compile;
use cfed_sim::Machine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct AcceptAll {
    seen: AtomicUsize,
}

impl TraceVerifier for AcceptAll {
    fn verify(&self, _plan: &TracePlan) -> Result<(), String> {
        self.seen.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[derive(Debug)]
struct RejectAll;

impl TraceVerifier for RejectAll {
    fn verify(&self, _plan: &TracePlan) -> Result<(), String> {
        Err("rejected by test verifier".into())
    }
}

const HOT_LOOP: &str = r#"
    fn main() {
        let i = 0;
        let acc = 0;
        while (i < 2000) {
            acc = acc + i;
            i = i + 1;
        }
        out(acc);
    }
"#;

fn run_tiered(
    src: &str,
    config: Option<TierConfig>,
    max_insts: u64,
) -> (DbtExit, Vec<u64>, cfed_dbt::DbtStats) {
    let image = compile(src).unwrap();
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = match config {
        Some(c) => Dbt::new_tiered(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m, c),
        None => Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m),
    };
    let exit = dbt.run(&mut m, max_insts);
    (exit, m.cpu.take_output(), dbt.stats())
}

#[test]
fn hot_loop_promotes_to_trace() {
    let verifier = Arc::new(AcceptAll::default());
    let config = TierConfig::new(verifier.clone()).with_threshold(16);
    let (exit, out, stats) = run_tiered(HOT_LOOP, Some(config), 1_000_000);
    assert_eq!(exit, DbtExit::Halted { code: 0 });
    assert_eq!(out, vec![1_999_000]);
    assert!(stats.traces >= 1, "hot loop must promote: {stats:?}");
    assert!(verifier.seen.load(Ordering::Relaxed) >= 1, "verifier must be consulted");
}

#[test]
fn rejected_plans_stay_on_tier_1() {
    let config = TierConfig::new(Arc::new(RejectAll)).with_threshold(16);
    let (exit, out, stats) = run_tiered(HOT_LOOP, Some(config), 1_000_000);
    assert_eq!(exit, DbtExit::Halted { code: 0 });
    assert_eq!(out, vec![1_999_000]);
    assert_eq!(stats.traces, 0);
    assert!(stats.trace_rejected >= 1, "rejections must be counted: {stats:?}");
}

#[test]
fn tiered_run_is_guest_equivalent_to_plain() {
    let config = TierConfig::new(Arc::new(AcceptAll::default())).with_threshold(8);
    let (exit_t, out_t, stats_t) = run_tiered(HOT_LOOP, Some(config), 1_000_000);
    let (exit_p, out_p, stats_p) = run_tiered(HOT_LOOP, None, 1_000_000);
    assert_eq!(exit_t, exit_p);
    assert_eq!(out_t, out_p);
    assert!(stats_t.traces >= 1);
    assert_eq!(stats_p.traces, 0, "plain engine must never trace");
}

const MULTI_BLOCK_LOOP: &str = r#"
    fn main() {
        let i = 0;
        let acc = 0;
        while (i < 2000) {
            // Always-taken branch: the loop is several blocks, and the
            // trace follows the hot path straight through them.
            if (i >= 0) { acc = acc + i; } else { acc = 0 - acc; }
            i = i + 1;
        }
        out(acc);
    }
"#;

#[test]
fn trace_reduces_retired_instructions() {
    // A multi-block loop trace runs straight-line where tier-1 pays a
    // chain jump per merged block edge (plus, in a tiered engine, the
    // countdown prologue per block entry).
    let image = compile(MULTI_BLOCK_LOOP).unwrap();
    let count = |config: Option<TierConfig>| {
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let mut dbt = match config {
            Some(c) => Dbt::new_tiered(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m, c),
            None => Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m),
        };
        assert_eq!(dbt.run(&mut m, 1_000_000), DbtExit::Halted { code: 0 });
        m.cpu.stats().insts
    };
    let tiered = count(Some(TierConfig::new(Arc::new(AcceptAll::default())).with_threshold(8)));
    let plain = count(None);
    assert!(tiered < plain, "trace tier must retire fewer instructions ({tiered} vs {plain})");
}

#[test]
fn tiered_fused_and_native_agree_exactly() {
    let image = compile(HOT_LOOP).unwrap();
    let run = |native: bool| {
        let config = TierConfig::new(Arc::new(AcceptAll::default())).with_threshold(8);
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let mut dbt = NativeDbt::new(
            Box::new(NullInstrumenter),
            UpdateStyle::Jcc,
            &mut m,
            native,
            Some(config),
        );
        let exit = dbt.run(&mut m, 1_000_000);
        (exit, m.cpu.take_output(), m.cpu.stats().cycles, m.cpu.stats().insts, dbt.stats())
    };
    let fused = run(false);
    if !EngineSpec::DbtNative.resolve().is_native() {
        assert!(fused.4.traces >= 1);
        return; // native unavailable: nothing to compare against
    }
    let native = run(true);
    assert_eq!(fused, native, "tiered fused and native runs must be bit-identical");
    assert!(fused.4.traces >= 1);
}

#[test]
fn tier_counters_do_not_leak_into_plain_engines() {
    // A plain engine and the seed layout must match: the counter region is
    // only carved out when the engine is constructed tiered.
    let image = compile("fn main() { out(7); }").unwrap();
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    assert!(!dbt.is_tiered());
    assert_eq!(dbt.run(&mut m, 10_000), DbtExit::Halted { code: 0 });
    assert_eq!(m.cpu.take_output(), vec![7]);
}

#[test]
fn threshold_one_promotes_immediately() {
    let config = TierConfig::new(Arc::new(AcceptAll::default())).with_threshold(1);
    let (exit, out, stats) = run_tiered(HOT_LOOP, Some(config), 1_000_000);
    assert_eq!(exit, DbtExit::Halted { code: 0 });
    assert_eq!(out, vec![1_999_000]);
    assert!(stats.traces >= 1);
}
