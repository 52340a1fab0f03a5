//! Detection-guarantee behaviour on natively-emitted code.
//!
//! The `cfed-fuzz` detection sweeper enforces the paper's Detected-or-
//! Benign guarantee for EdgCF/RCF on the stepping engine (it must single-
//! step to reach the nth dynamic branch and to measure detection latency),
//! so it cannot run on the JIT directly. This suite transfers the guarantee
//! to the native x86-64 backend two ways:
//!
//! 1. **Static sweep, identity.** For every single-bit corruption of a
//!    static branch offset, the natively-compiled instrumented program must
//!    behave bit-identically to the fused-interpreter run of the same
//!    corrupted image — same exit (trap payloads included), same output,
//!    same retired counts, same translator counters. Since the sweeper pins
//!    the interpreter side, identity pins the JIT. (Static image faults are
//!    re-instrumented as the legitimate program, so they exercise the trap
//!    and re-landing paths, not the signature checks.)
//!
//! 2. **Dynamic sweep, detection.** Pausing a native run mid-program on a
//!    step budget, flipping one bit of the live signature register
//!    (`regs::PC_PRIME`, the shadow program counter both techniques
//!    maintain), and resuming models the paper's transient control-flow
//!    error directly: every such flip must end Detected (a CFE-report trap
//!    raised by a check sequence the JIT emitted) or Benign (golden output),
//!    never silent corruption — and the whole run must stay bit-identical
//!    to the fallback engine under the same pause/corrupt/resume schedule.

use cfed::asm::Image;
use cfed::core::{run_engine, Engine, RunConfig, RunOutcome, TechniqueKind};
use cfed::dbt::{regs, DbtExit, EngineSpec, UpdateStyle};
use cfed::fuzz::shrink::rebuild_image;
use cfed::lang::compile;
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

/// Every single-bit flip of each of the first `site_cap` static branch
/// offsets, as rebuilt images. Bits are capped below 24 so that faulted
/// branch targets stay within the signature domain (signatures derive from
/// guest addresses and must fit in an x86 imm32).
fn faulted_images(image: &Image, site_cap: usize) -> Vec<Image> {
    let entry_index = (image.entry_offset() / cfed::isa::INST_SIZE_U64) as usize;
    let mut out = Vec::new();
    let mut sites = 0;
    for (idx, inst) in image.insts().iter().enumerate() {
        let Some(offset) = inst.branch_offset() else { continue };
        sites += 1;
        if sites > site_cap {
            break;
        }
        for bit in 0..24 {
            let mut insts = image.insts().to_vec();
            insts[idx] = inst.with_branch_offset(offset ^ (1 << bit));
            if let Some(img) = rebuild_image(&insts, image.data(), entry_index) {
                out.push(img);
            }
        }
    }
    out
}

/// Whether the native backend runs on this host (not under
/// `CFED_NO_NATIVE=1`, where the fallback engine IS the reference).
fn native_runs() -> bool {
    EngineSpec::DbtNative.resolve().is_native()
}

#[test]
fn static_branch_faults_behave_identically_under_native() {
    if !native_runs() {
        return; // fallback engine IS the reference; nothing to compare
    }
    let image = compile(PROGRAM).expect("valid program");
    let faulted = faulted_images(&image, 4);
    assert!(faulted.len() >= 64, "expected several branch sites to sweep");

    for kind in [TechniqueKind::EdgCf, TechniqueKind::Rcf] {
        for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
            let cfg = RunConfig { style, max_insts: 2_000_000, ..RunConfig::technique(kind) };
            for img in &faulted {
                let native = run_engine(img, &cfg, EngineSpec::DbtNative, &Telemetry::off());
                let interp = run_engine(img, &cfg, EngineSpec::DbtFused, &Telemetry::off());
                assert_eq!(
                    native, interp,
                    "{kind}/{style:?}: native and interpreter disagree on a faulted image"
                );
            }
        }
    }
}

/// Run `image` under `kind`/`style`, pause after roughly `pause` retired
/// instructions, XOR `bit` into the live signature register, and resume to
/// completion. The outcome is in full — exit, output, retired counts, and
/// translator counters — everything the equivalence suite pins.
fn run_corrupted(
    image: &Image,
    kind: TechniqueKind,
    style: UpdateStyle,
    native: bool,
    pause: u64,
    bit: u32,
) -> RunOutcome {
    let cfg = RunConfig { style, ..RunConfig::technique(kind) };
    let mut engine = Engine::new(image, &cfg, EngineSpec::dbt(native, None));
    let exit = match engine.run(pause) {
        DbtExit::StepLimit => {
            let cpu = &mut engine.machine.cpu;
            cpu.set_reg(regs::PC_PRIME, cpu.reg(regs::PC_PRIME) ^ (1u64 << bit));
            engine.run(2_000_000)
        }
        // Program finished before the pause point; the flip never happened.
        other => other,
    };
    engine.outcome(exit)
}

#[test]
fn live_signature_faults_are_detected_or_benign_under_native() {
    if !native_runs() {
        return;
    }
    let image = compile(PROGRAM).expect("valid program");
    let golden =
        run_engine(&image, &RunConfig::baseline(), EngineSpec::DbtNative, &Telemetry::off());
    let DbtExit::Halted { .. } = golden.exit else {
        panic!("golden run must halt, got {:?}", golden.exit)
    };

    for kind in [TechniqueKind::EdgCf, TechniqueKind::Rcf] {
        for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
            let mut detections = 0usize;
            // Pause points past the 4096-instruction native session floor,
            // so corruption lands between natively-executed sessions and
            // the resumed check sequences run from JIT-emitted code. A
            // pause can land right before an unconditional signature
            // regeneration, where every flip is benign — hence several.
            for pause in [4500u64, 6500, 9001] {
                for bit in 0..64 {
                    let native = run_corrupted(&image, kind, style, true, pause, bit);
                    let interp = run_corrupted(&image, kind, style, false, pause, bit);
                    assert_eq!(
                        native, interp,
                        "{kind}/{style:?} pause={pause} bit={bit}: \
                         native and fallback disagree after signature corruption"
                    );
                    match &native.exit {
                        DbtExit::Trapped(t) if t.is_cfe_report() => detections += 1,
                        DbtExit::Halted { .. } => assert_eq!(
                            native.output, golden.output,
                            "{kind}/{style:?} pause={pause} bit={bit}: \
                             silent data corruption escaped detection"
                        ),
                        other => panic!(
                            "{kind}/{style:?} pause={pause} bit={bit}: \
                             unexpected exit {other:?} after signature corruption"
                        ),
                    }
                }
            }
            // The guarantee is only meaningful if the check sequences
            // actually fired inside natively-emitted code: at least one
            // pause point must have every bit flip detected.
            assert!(
                detections >= 64,
                "{kind}/{style:?}: only {detections} CFE detections across the sweep"
            );
        }
    }
}
