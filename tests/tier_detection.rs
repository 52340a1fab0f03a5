//! Tier-2 (trace) behaviour across the engine matrix, and the paper's
//! Detected-or-Benign guarantee with the trace tier enabled.
//!
//! The optimizing tier moves signature code: interior update pairs cancel
//! and per-block checks hoist to the trace head (legal per §6's policy
//! spectrum, and mechanically re-verified by `cfed-core`'s
//! `PlacementVerifier` before every install). These tests pin what the
//! optimization must preserve:
//!
//! 1. guest-observable behaviour (exit + output) is identical across
//!    {fused, native} × {tier off, tier on};
//! 2. a live single-bit corruption of the shadow signature register while
//!    hot traces are installed still ends Detected (a CFE-report trap from
//!    a check the *trace* emitted) or Benign — never silent corruption;
//! 3. the engine's in-guest hot counters agree with the independent
//!    `ExecProfiler` tally of the same execution.

use cfed::core::{run_engine, Engine, RunConfig, RunOutcome, TechniqueKind};
use cfed::dbt::{regs, DbtExit, EngineSpec, UpdateStyle};
use cfed::lang::compile;
use cfed::sim::Machine;
use cfed::telemetry::Telemetry;

const PROGRAM: &str = r#"
    fn leaf(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
    fn main() {
        let i = 0;
        let acc = 3;
        while (i < 400) {
            if (i % 3 == 1) { acc = acc * 2 - i; } else { acc = acc + leaf(i); }
            i = i + 1;
        }
        out(acc);
    }
"#;

const THRESHOLD: u32 = 8;

/// Whether the native backend runs on this host (it stands in for the
/// fused engine under `CFED_NO_NATIVE=1`, like the rest of the matrix).
fn native_runs() -> bool {
    EngineSpec::DbtNative.resolve().is_native()
}

/// `image` under the DBT engine with the given layers; the tier is
/// requested explicitly, so it runs even under `CFED_NO_TIER=1`.
fn run(image: &cfed::asm::Image, cfg: &RunConfig, native: bool, tier: bool) -> RunOutcome {
    let spec = EngineSpec::dbt(native, tier.then_some(THRESHOLD));
    run_engine(image, cfg, spec, &Telemetry::off())
}

#[test]
fn tier_matrix_is_guest_equivalent() {
    let image = compile(PROGRAM).expect("valid program");
    for kind in [None, Some(TechniqueKind::EdgCf)] {
        for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
            let cfg =
                RunConfig { technique: kind, style, max_insts: 10_000_000, ..RunConfig::default() };
            let reference = run(&image, &cfg, false, false);
            assert!(matches!(reference.exit, DbtExit::Halted { .. }));
            let mut tiered_traces = 0;
            for native in [false, native_runs()] {
                for tier in [false, true] {
                    let run = run(&image, &cfg, native, tier);
                    assert_eq!(run.exit, reference.exit, "{kind:?}/{style:?} n={native} t={tier}");
                    assert_eq!(
                        run.output, reference.output,
                        "{kind:?}/{style:?} n={native} t={tier}"
                    );
                    if tier {
                        tiered_traces = tiered_traces.max(run.dbt.traces);
                    } else {
                        assert_eq!(run.dbt.traces, 0);
                    }
                }
            }
            assert!(tiered_traces >= 1, "{kind:?}/{style:?}: the hot loop must promote to a trace");
        }
    }
}

#[test]
fn tiered_runs_beat_tier_1_on_retired_instructions_for_edgcf() {
    // EdgCF is where the IR passes earn their keep: interior +S/−S pairs
    // cancel and per-block checks hoist to the trace head.
    let image = compile(PROGRAM).expect("valid program");
    let cfg = RunConfig { max_insts: 10_000_000, ..RunConfig::technique(TechniqueKind::EdgCf) };
    let plain = run(&image, &cfg, false, false);
    let tiered = run(&image, &cfg, false, true);
    assert_eq!(plain.output, tiered.output);
    assert!(tiered.dbt.traces >= 1);
    assert!(
        tiered.insts < plain.insts,
        "optimized traces must retire fewer instructions ({} vs {})",
        tiered.insts,
        plain.insts
    );
}

/// One pause/corrupt/resume run under the tiered engine: everything the
/// equivalence suite pins.
fn run_corrupted_tiered(
    image: &cfed::asm::Image,
    style: UpdateStyle,
    native: bool,
    pause: u64,
    bit: u32,
) -> RunOutcome {
    let cfg = RunConfig { style, ..RunConfig::technique(TechniqueKind::EdgCf) };
    let mut engine = Engine::new(image, &cfg, EngineSpec::dbt(native, Some(THRESHOLD)));
    let exit = match engine.run(pause) {
        DbtExit::StepLimit => {
            let cpu = &mut engine.machine.cpu;
            cpu.set_reg(regs::PC_PRIME, cpu.reg(regs::PC_PRIME) ^ (1u64 << bit));
            engine.run(2_000_000)
        }
        other => other,
    };
    engine.outcome(exit)
}

#[test]
fn live_signature_faults_detected_or_benign_with_tier_enabled() {
    let image = compile(PROGRAM).expect("valid program");
    let golden_cfg = RunConfig { max_insts: 10_000_000, ..RunConfig::baseline() };
    let golden = run(&image, &golden_cfg, false, false);
    let DbtExit::Halted { .. } = golden.exit else {
        panic!("golden run must halt, got {:?}", golden.exit)
    };

    for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
        let mut detections = 0usize;
        // Pause points chosen past the promotion threshold so corruption
        // lands while hot traces are installed; the resumed check that
        // fires is then the hoisted trace-head check.
        for pause in [6000u64, 9001, 14000] {
            for bit in 0..64 {
                let fused = run_corrupted_tiered(&image, style, false, pause, bit);
                assert!(
                    fused.dbt.traces >= 1,
                    "{style:?} pause={pause}: corruption must land on a tiered run"
                );
                if native_runs() {
                    let native = run_corrupted_tiered(&image, style, true, pause, bit);
                    assert_eq!(
                        fused, native,
                        "{style:?} pause={pause} bit={bit}: tiered fused and native \
                         disagree after signature corruption"
                    );
                }
                match &fused.exit {
                    DbtExit::Trapped(t) if t.is_cfe_report() => detections += 1,
                    DbtExit::Halted { .. } => assert_eq!(
                        fused.output, golden.output,
                        "{style:?} pause={pause} bit={bit}: silent data corruption \
                         escaped detection with the trace tier enabled"
                    ),
                    other => panic!("{style:?} pause={pause} bit={bit}: unexpected exit {other:?}"),
                }
            }
        }
        assert!(
            detections >= 64,
            "{style:?}: only {detections} CFE detections across the tiered sweep"
        );
    }
}

#[test]
fn engine_hot_counters_agree_with_exec_profiler() {
    // Independent cross-check of the tier-up profile: the hottest guest
    // block's execution count measured by the engine's in-guest countdown
    // counters must equal the hottest line of the interpreter's
    // `ExecProfiler` for the same program.
    let image = compile(PROGRAM).expect("valid program");

    // Interpreter run with the sampling profiler: per-guest-address hits.
    let mut mi = Machine::load(image.code(), image.data(), image.entry_offset());
    mi.enable_profiler();
    assert!(matches!(mi.run(10_000_000), cfed::sim::ExitReason::Halted { .. }));
    let profiler = mi.take_profiler().expect("profiler was enabled");
    let max_hits = profiler.samples().map(|(_, hits, _)| hits).max().expect("samples");

    // Tiered run with a threshold no block can reach: every counter's
    // residual encodes that block's entry count exactly.
    let huge = 1 << 20;
    let cfg = RunConfig { max_insts: 10_000_000, ..RunConfig::default() };
    let mut tiered = Engine::new(&image, &cfg, EngineSpec::DbtTierFused(huge));
    assert!(matches!(tiered.run(10_000_000), DbtExit::Halted { .. }));
    let stats = tiered.dbt.as_ref().expect("a DBT engine").stats();
    assert_eq!(stats.traces, 0, "threshold must be unreachable");
    let mt = &tiered.machine;
    let counters = mt.layout().cache_region.start;
    let max_entries = (0..stats.blocks)
        .map(|slot| {
            let bytes: [u8; 8] =
                mt.mem.peek(counters + slot * 8, 8).try_into().expect("counter slot");
            u64::from(huge) - u64::from_le_bytes(bytes)
        })
        .max()
        .expect("at least one block");
    assert_eq!(
        max_entries, max_hits,
        "engine hot counters and ExecProfiler disagree on the hottest block"
    );
}
