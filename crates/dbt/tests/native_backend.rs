//! Native-backend equivalence: `NativeDbt` must be bit-identical to the
//! fused-interpreter `Dbt` — same exit, same output stream, same `ExecStats`
//! (instructions, cycles, branches, taken, traps) and same `DbtStats`
//! (blocks, chains, dispatches, IC hits, SMC flushes). These tests are the
//! backend's detection-guarantee anchor: if the native tier drifted in any
//! observable way, signature checks running on top of it would too.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use cfed_dbt::{Dbt, DbtExit, EngineSpec, NativeDbt, NullInstrumenter, UpdateStyle};
use cfed_isa::{encode_all, AluOp, Cond, Inst, Reg};
use cfed_lang::compile;
use cfed_sim::Machine;

/// Whether the native backend runs on this host (not under
/// `CFED_NO_NATIVE=1`, where the suite pins the fallback path instead).
fn native_runs() -> bool {
    EngineSpec::DbtNative.resolve().is_native()
}

struct Outcome {
    exit: DbtExit,
    output: Vec<u64>,
    insts: u64,
    cycles: u64,
    branches: u64,
    branches_taken: u64,
    traps: u64,
    stats: cfed_dbt::DbtStats,
}

fn run_interp(code: &[u8], data: &[u8], entry: u64, budget: u64) -> Outcome {
    let mut m = Machine::load(code, data, entry);
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    let exit = dbt.run(&mut m, budget);
    let s = m.cpu.stats();
    Outcome {
        exit,
        output: m.cpu.take_output(),
        insts: s.insts,
        cycles: s.cycles,
        branches: s.branches,
        branches_taken: s.branches_taken,
        traps: s.traps,
        stats: dbt.stats(),
    }
}

fn run_native(code: &[u8], data: &[u8], entry: u64, budget: u64) -> Outcome {
    let mut m = Machine::load(code, data, entry);
    let native = native_runs();
    let mut dbt =
        NativeDbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m, native, None);
    // On this platform the native tier must engage unless the environment
    // opts out; under CFED_NO_NATIVE=1 the suite still runs, pinning the
    // fallback path against the plain engine.
    assert_eq!(dbt.is_native(), native, "native tier gating");
    let exit = dbt.run(&mut m, budget);
    let s = m.cpu.stats();
    Outcome {
        exit,
        output: m.cpu.take_output(),
        insts: s.insts,
        cycles: s.cycles,
        branches: s.branches,
        branches_taken: s.branches_taken,
        traps: s.traps,
        stats: dbt.stats(),
    }
}

fn check_identical(code: &[u8], data: &[u8], entry: u64, budget: u64) {
    let i = run_interp(code, data, entry, budget);
    let n = run_native(code, data, entry, budget);
    assert_eq!(i.exit, n.exit, "exit");
    assert_eq!(i.output, n.output, "output stream");
    assert_eq!(i.insts, n.insts, "retired instructions");
    assert_eq!(i.cycles, n.cycles, "cycles");
    assert_eq!(i.branches, n.branches, "branches");
    assert_eq!(i.branches_taken, n.branches_taken, "branches taken");
    assert_eq!(i.traps, n.traps, "traps");
    assert_eq!(i.stats.blocks, n.stats.blocks, "blocks");
    assert_eq!(i.stats.guest_insts, n.stats.guest_insts, "guest insts");
    assert_eq!(i.stats.cache_insts, n.stats.cache_insts, "cache insts");
    assert_eq!(i.stats.chains, n.stats.chains, "chains");
    assert_eq!(i.stats.dispatches, n.stats.dispatches, "dispatches");
    assert_eq!(i.stats.dispatch_ic_hits, n.stats.dispatch_ic_hits, "IC hits");
    assert_eq!(i.stats.smc_flushes, n.stats.smc_flushes, "SMC flushes");
    assert_eq!(i.stats.cache_evictions, n.stats.cache_evictions, "evictions");
}

fn check_src(src: &str) {
    let image = compile(src).expect("compile");
    check_identical(image.code(), image.data(), image.entry_offset(), 20_000_000);
}

#[test]
fn straight_line_and_alu_flags() {
    check_src(
        r#"
        fn main() {
            out(1 + 2);
            out(3 * 4);
            out(100 / 7);
            out(100 % 7);
            out(5 - 9);
            out((1 << 40) >> 3);
            out(12345 & 777);
            out(12345 | 777);
            out(12345 ^ 777);
            return 7;
        }
        "#,
    );
}

#[test]
fn loops_and_branches() {
    check_src(
        r#"
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 500) {
                if (i % 3 == 0) { acc = acc + i; } else { acc = acc - 1; }
                if (i % 7 == 0) { acc = acc * 2; }
                i = i + 1;
            }
            out(acc);
        }
        "#,
    );
}

#[test]
fn calls_recursion_and_dispatch() {
    // Every `ret` exercises the indirect dispatcher and its inline cache.
    check_src(
        r#"
        fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        fn main() { out(fib(15)); }
        "#,
    );
}

#[test]
fn globals_arrays_and_memory() {
    check_src(
        r#"
        global a[128];
        fn main() {
            let i = 0;
            while (i < 128) { a[i] = i * i + 3; i = i + 1; }
            let s = 0;
            i = 0;
            while (i < 128) { s = s + a[i]; i = i + 2; }
            out(s);
        }
        "#,
    );
}

#[test]
fn shift_edge_cases() {
    // Shift counts of 0, 63 and 64+ hit the ISA's masked-count semantics,
    // whose flag behavior the native backend special-cases.
    check_src(
        r#"
        fn sh(v, n) { return ((v << n) > 0) + ((v >> n) == 0); }
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 70) { acc = acc + sh(12345, i) + sh(0 - 7, i); i = i + 1; }
            out(acc);
        }
        "#,
    );
}

#[test]
fn div_by_zero_trap_identical() {
    let image = compile("fn main() { let z = 0; out(1 / z); }").unwrap();
    check_identical(image.code(), image.data(), image.entry_offset(), 1_000_000);
}

#[test]
fn guest_assert_trap_identical() {
    let image = compile("fn main() { out(3); assert(0); }").unwrap();
    check_identical(image.code(), image.data(), image.entry_offset(), 1_000_000);
}

#[test]
fn wild_store_fault_identical() {
    // A store far outside the mapped guest space faults mid-block; the
    // native helper must surface the same trap without committing state.
    let code = encode_all(&[
        Inst::MovRI { dst: Reg::R0, imm: 0x7F00_0000 },
        Inst::St { base: Reg::R0, src: Reg::R0, disp: 0 },
        Inst::Halt,
    ]);
    check_identical(&code, &[], 0, 1000);
}

#[test]
fn step_limit_exactness() {
    // Budgets around and below the native session threshold must stop on
    // exactly the same instruction as the interpreter.
    let image = compile(
        r#"
        fn main() {
            let i = 0;
            while (1) { i = i + 3; if (i > 1000000000) { return i; } }
        }
        "#,
    )
    .unwrap();
    for budget in [0u64, 1, 100, 4095, 4096, 5000, 100_000, 1_000_000] {
        let i = run_interp(image.code(), image.data(), image.entry_offset(), budget);
        let n = run_native(image.code(), image.data(), image.entry_offset(), budget);
        assert_eq!(i.exit, n.exit, "budget {budget}");
        assert_eq!(i.insts, n.insts, "budget {budget}");
        assert_eq!(i.cycles, n.cycles, "budget {budget}");
        assert_eq!(i.traps, n.traps, "budget {budget}");
    }
}

#[test]
fn resume_after_step_limit_identical() {
    // Chopping one run into many small budgets must retire the same stream:
    // the native loop hands mid-block tails to the interpreter and re-enters
    // native code at block heads.
    let image = compile(
        r#"
        fn leaf(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 2000) { acc = acc + leaf(i); i = i + 1; }
            out(acc);
        }
        "#,
    )
    .unwrap();
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt =
        NativeDbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m, native_runs(), None);
    let mut slices = 0u64;
    let exit = loop {
        match dbt.run(&mut m, 4500) {
            DbtExit::StepLimit => slices += 1,
            other => break other,
        }
        assert!(slices < 100_000, "diverged");
    };
    assert!(matches!(exit, DbtExit::Halted { .. }));
    let whole = run_interp(image.code(), image.data(), image.entry_offset(), 20_000_000);
    assert_eq!(whole.exit, exit);
    assert_eq!(whole.output, m.cpu.take_output());
    assert_eq!(whole.insts, m.cpu.stats().insts);
    assert_eq!(whole.cycles, m.cpu.stats().cycles);
    assert_eq!(whole.traps, m.cpu.stats().traps);
    assert_eq!(whole.stats.chains, dbt.stats().chains);
    assert_eq!(whole.stats.dispatches, dbt.stats().dispatches);
    assert_eq!(whole.stats.dispatch_ic_hits, dbt.stats().dispatch_ic_hits);
}

#[test]
fn self_modifying_code_identical() {
    // SMC invalidation nukes native code; results must still match the
    // interpreter's flush-and-retranslate path exactly.
    let target_patch = Inst::Out { src: Reg::R1 };
    let patch_words = i64::from_le_bytes(target_patch.encode());
    let mut asm = cfed_asm::Asm::new();
    let pool = asm.data_u64(&[patch_words as u64]);
    asm.label("start");
    asm.movri(Reg::R0, 1);
    asm.movri(Reg::R1, 2);
    asm.call("victim");
    asm.mov_addr(Reg::R2, pool);
    asm.ld(Reg::R3, Reg::R2, 0);
    asm.mov_label(Reg::R4, "victim");
    asm.st(Reg::R4, Reg::R3, 0);
    asm.call("victim");
    asm.halt();
    asm.label("victim");
    asm.out(Reg::R0);
    asm.ret();
    let image = asm.assemble("start").unwrap();
    let n = run_native(image.code(), image.data(), image.entry_offset(), 1_000_000);
    assert_eq!(n.output, vec![1, 2]);
    assert!(n.stats.smc_flushes >= 1, "SMC must trigger a flush");
    check_identical(image.code(), image.data(), image.entry_offset(), 1_000_000);
}

#[test]
fn smc_store_demotes_installed_trace() {
    // Tier-demotion path: a hot self-loop promotes to a trace, then an SMC
    // store lands inside the guest range the trace covers. The flush must
    // demote the trace (tier-1 fallback + retranslation), the re-armed
    // counter may re-promote the patched loop, and the whole run must stay
    // guest-identical to a never-tiered interpreter run of the same image.
    #[derive(Debug)]
    struct AcceptAll;
    impl cfed_dbt::TraceVerifier for AcceptAll {
        fn verify(&self, _plan: &cfed_dbt::TracePlan) -> Result<(), String> {
            Ok(())
        }
    }

    // Replacement for the patch site: `acc += 2` instead of `acc += i`.
    let patch = Inst::AluI { op: AluOp::Add, dst: Reg::R5, imm: 2 };
    let mut asm = cfed_asm::Asm::new();
    let pool = asm.data_u64(&[u64::from_le_bytes(patch.encode())]);
    asm.label("start");
    asm.call("hotfn");
    asm.mov_addr(Reg::R2, pool);
    asm.ld(Reg::R3, Reg::R2, 0);
    asm.mov_label(Reg::R4, "patchsite");
    asm.st(Reg::R4, Reg::R3, 0); // SMC store into the traced page
    asm.call("hotfn");
    asm.halt();
    asm.label("hotfn");
    asm.movri(Reg::R0, 0);
    asm.movri(Reg::R5, 0);
    asm.label("body");
    asm.label("patchsite");
    asm.alu(AluOp::Add, Reg::R5, Reg::R0);
    asm.alui(AluOp::Add, Reg::R0, 1);
    asm.cmpi(Reg::R0, 200);
    asm.jcc(Cond::L, "body");
    asm.out(Reg::R5);
    asm.ret();
    let image = asm.assemble("start").unwrap();

    let run_tiered = |native: bool| {
        let config = cfed_dbt::TierConfig::new(std::sync::Arc::new(AcceptAll)).with_threshold(16);
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let mut dbt = NativeDbt::new(
            Box::new(NullInstrumenter),
            UpdateStyle::Jcc,
            &mut m,
            native,
            Some(config),
        );
        let exit = dbt.run(&mut m, 1_000_000);
        (exit, m.cpu.take_output(), m.cpu.stats().insts, m.cpu.stats().cycles, dbt.stats())
    };

    let fused = run_tiered(false);
    let (exit, output, _, _, stats) = &fused;
    // First call sums 0..200 = 19900; patched second call adds 2 per
    // iteration = 400 — proof the retranslation picked up the new bytes.
    assert!(matches!(exit, DbtExit::Halted { .. }));
    assert_eq!(*output, vec![19_900, 400]);
    assert!(stats.traces >= 1, "hot loop must promote before the patch: {stats:?}");
    assert!(stats.smc_flushes >= 1, "the patch store must flush: {stats:?}");
    assert!(stats.trace_demotions >= 1, "the flush must demote the trace: {stats:?}");

    if native_runs() {
        let native = run_tiered(true);
        assert_eq!(fused, native, "tiered fused and native must agree through demotion");
    }

    // Guest-observable equivalence against a never-tiered run.
    let plain = run_interp(image.code(), image.data(), image.entry_offset(), 1_000_000);
    assert_eq!(plain.exit, fused.0);
    assert_eq!(plain.output, fused.1);
}

#[test]
fn spin_loop_budget_sweep() {
    let code = encode_all(&[Inst::Jmp { offset: -8 }]);
    for budget in [0u64, 1, 7, 4096, 9999, 50_000] {
        check_identical(&code, &[], 0, budget);
    }
}

#[test]
fn misaligned_indirect_target_identical() {
    let code =
        encode_all(&[Inst::MovRI { dst: Reg::R1, imm: 0x1_0004 }, Inst::JmpR { target: Reg::R1 }]);
    check_identical(&code, &[], 0, 1000);
}

#[test]
fn wild_jump_to_data_identical() {
    // Category F coverage survives native execution: the jump's target is
    // vetted by the translator either way.
    let code = encode_all(&[Inst::Jmp { offset: 0x1F_0000 }]);
    check_identical(&code, &[], 0, 1000);
}

#[test]
fn cond_branch_matrix_identical() {
    // Signed/unsigned comparisons in both directions stress every flag the
    // native ALU capture sequences produce.
    check_src(
        r#"
        fn main() {
            let a = 0 - 5;
            let b = 3;
            out(a < b);
            out(a > b);
            out(a <= a);
            out(b >= b);
            out(a == a);
            out(a != b);
            let i = 0;
            let acc = 0;
            while (i < 64) {
                if ((1 << i) > (1 << (63 - i))) { acc = acc + 1; }
                i = i + 1;
            }
            out(acc);
        }
        "#,
    );
}

#[test]
fn no_native_fallback_is_equivalent() {
    // A `NativeDbt` built without native execution must behave exactly
    // like the plain engine (the CFED_NO_NATIVE path without the
    // environment dependency).
    let image = compile("fn main() { let i = 0; while (i < 100) { i = i + 1; } out(i); }").unwrap();
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = NativeDbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m, false, None);
    assert!(!dbt.is_native());
    let exit = dbt.run(&mut m, 1_000_000);
    let i = run_interp(image.code(), image.data(), image.entry_offset(), 1_000_000);
    assert_eq!(exit, i.exit);
    assert_eq!(m.cpu.take_output(), i.output);
    assert_eq!(m.cpu.stats().insts, i.insts);
    assert_eq!(m.cpu.stats().cycles, i.cycles);
}

#[test]
fn cmov_parity() {
    let code = encode_all(&[
        Inst::MovRI { dst: Reg::R0, imm: 10 },
        Inst::MovRI { dst: Reg::R1, imm: 20 },
        Inst::AluI { op: AluOp::Cmp, dst: Reg::R0, imm: 10 },
        Inst::CMov { cc: Cond::E, dst: Reg::R2, src: Reg::R1 },
        Inst::CMov { cc: Cond::Ne, dst: Reg::R3, src: Reg::R0 },
        Inst::Out { src: Reg::R2 },
        Inst::Out { src: Reg::R3 },
        Inst::Jcc { cc: Cond::E, offset: 8 },
        Inst::Out { src: Reg::R0 },
        Inst::Halt,
    ]);
    check_identical(&code, &[], 0, 1000);
}
