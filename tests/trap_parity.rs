//! Table-driven trap parity: every trap kind the machine can raise must
//! surface identically across all four execution paths — raw interpreter,
//! block-fused interpreter, per-step DBT and block-fused DBT — under the
//! uninstrumented baseline and under every technique. Each row is a small
//! VISA program provoking one trap kind; the `cfed-fuzz` oracle runs the
//! full backend matrix and applies its normalization rules (memory and
//! fetch faults exact, in-cache traps by variant and code).
//!
//! Two rows pin behaviour the fuzzer originally caught as real DBT bugs:
//! running off the end of the code image must trap `InvalidInst` inside
//! the last mapped code page (execute permission is page-granular, so the
//! zero padding is fetchable), and a store into the program's own
//! translated code page must stay invisible (the DBT services its internal
//! `PermWrite` and resumes from the patched bytes).

use cfed::asm::parse_asm;
use cfed::fuzz::{run_oracle, GeneratedProgram, Tier};
use cfed::sim::Trap;
use cfed_dbt::{DbtExit, EngineSpec};

/// One row: a named program and the trap (or halt) it must produce.
struct Row {
    name: &'static str,
    asm: &'static str,
    expect: fn(&DbtExit) -> bool,
}

const ROWS: &[Row] = &[
    Row {
        name: "halt-clean",
        asm: "entry:\n mov r0, 7\n halt\n",
        expect: |e| matches!(e, DbtExit::Halted { code: 7 }),
    },
    Row {
        name: "div-by-zero",
        asm: "entry:\n mov r0, 5\n mov r1, 0\n div r0, r1\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::DivByZero { .. })),
    },
    Row {
        name: "software-guest-assert",
        asm: "entry:\n trap 0xC0DE0002\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::Software { code: 0xC0DE_0002, .. })),
    },
    Row {
        name: "software-custom-code",
        asm: "entry:\n trap 0x42\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::Software { code: 0x42, .. })),
    },
    Row {
        // Page 0 is inside the address space but mapped with no
        // permissions.
        name: "perm-read-unmapped-low",
        asm: "entry:\n mov r1, 0\n ld r0, [r1+0]\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::PermRead { addr: 0 })),
    },
    Row {
        name: "out-of-range-load",
        asm: "entry:\n mov r1, 0x40000000\n ld r0, [r1+0]\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::OutOfRange { addr: 0x4000_0000 })),
    },
    Row {
        // The data region is mapped RW without execute; an indirect jump
        // into it must hit the execute-disable bit (category-F backstop).
        name: "perm-exec-jump-to-data",
        asm: "entry:\n mov r1, 0x200000\n jmp r1\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::PermExec { addr: 0x20_0000 })),
    },
    Row {
        name: "unaligned-indirect-target",
        asm: "entry:\n mov r1, &lab\n lea r1, [r1+4]\n jmp r1\nlab:\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::UnalignedFetch { .. })),
    },
    Row {
        name: "unaligned-direct-offset",
        asm: "entry:\n jmp +4\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::UnalignedFetch { .. })),
    },
    Row {
        // Jumps past the last instruction but inside the last mapped code
        // page: the zero padding is fetchable (execute permission is
        // page-granular) and must decode-fault, on every path.
        name: "invalid-inst-off-the-end",
        asm: "entry:\n jmp +256\n halt\n",
        expect: |e| matches!(e, DbtExit::Trapped(Trap::InvalidInst { .. })),
    },
    Row {
        // Store into the program's own code page (rewriting an
        // instruction with its own bytes). Natively the page is writable;
        // under the DBT the internal PermWrite/SMC machinery must service
        // the fault invisibly and still halt cleanly.
        name: "smc-store-to-own-code",
        asm: "entry:\n mov r1, &patch\n ld r2, [r1+0]\n st [r1+0], r2\npatch:\n nop\n mov r0, 3\n halt\n",
        expect: |e| matches!(e, DbtExit::Halted { code: 3 }),
    },
];

#[test]
fn trap_kinds_surface_identically_across_all_paths() {
    for row in ROWS {
        let image = parse_asm(row.asm)
            .unwrap_or_else(|e| panic!("{}: {e}", row.name))
            .assemble("entry")
            .unwrap_or_else(|e| panic!("{}: {e}", row.name));
        let prog = GeneratedProgram { tier: Tier::Visa, seed: 0, source: None, image };
        let report = run_oracle(&prog, 100_000);
        let raw = report
            .runs
            .iter()
            .find(|r| r.id.engine == EngineSpec::InterpRaw)
            .expect("oracle always runs the raw interpreter");
        assert!(
            (row.expect)(&raw.exit),
            "{}: raw interpreter produced {:?}, not the expected trap kind",
            row.name,
            raw.exit
        );
        assert!(
            report.divergence.is_none(),
            "{}: backends disagree: {:?}",
            row.name,
            report.divergence
        );
    }
}
