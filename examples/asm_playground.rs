//! Hand-written assembly under the microscope: write a guest program in
//! VISA assembly text, assemble it, run it natively and under each
//! technique, and exhaustively sweep every single-bit fault in its first
//! branches to see exactly which bits each technique catches.
//!
//! Run with: `cargo run --release --example asm_playground`

use cfed::asm::parse_asm;
use cfed::core::{run_dbt, run_native, Category, RunConfig, TechniqueKind};
use cfed::dbt::UpdateStyle;
use cfed::fault::ExhaustiveSweep;

const PROGRAM: &str = r#"
; Collatz length of 27, written by hand.
start:
    mov   r0, 27        ; n
    mov   r1, 0         ; steps
loop:
    cmp   r0, 1
    je    done
    mov   r2, r0
    and   r2, 1
    jrz   r2, even
    ; odd: n = 3n + 1
    mov   r3, r0
    shl   r3, 1
    add   r0, r3
    add   r0, 1
    jmp   next
even:
    shr   r0, 1
next:
    add   r1, 1
    jmp   loop
done:
    out   r1
    halt
"#;

fn main() {
    let asm = parse_asm(PROGRAM).expect("assembles");
    let image = asm.assemble("start").expect("links");
    println!("assembled {} instructions:\n{}", image.len(), image.listing());

    let native = run_native(&image, 1_000_000);
    println!("native: {:?}, output {:?} (Collatz(27) = 111 steps)", native.exit, native.output);
    assert_eq!(native.output, vec![111]);

    // Same behaviour under every technique.
    for kind in TechniqueKind::ALL_FIVE {
        let cfg = RunConfig {
            technique: Some(kind),
            style: UpdateStyle::CMov,
            max_insts: 10_000_000,
            ..RunConfig::default()
        };
        let got = run_dbt(&image, &cfg);
        println!("{:>6}: output {:?}, cycles {} ", kind.to_string(), got.output, got.cycles);
        assert_eq!(got.output, native.output, "{kind} must be transparent");
    }

    // Exhaustive single-bit sweep over the first 40 dynamic branches:
    // every (branch, bit) pair, for the baseline vs RCF.
    println!("\nexhaustive fault sweep (40 branches x 38 bits = 1520 injections each):");
    for technique in [None, Some(TechniqueKind::Rcf)] {
        let cfg = RunConfig { technique, style: UpdateStyle::CMov, ..RunConfig::default() };
        let report = ExhaustiveSweep::new(cfg, 40).run(&image).expect("workload is well-behaved");
        let name = technique.map_or("baseline".to_string(), |k| k.to_string());
        let s = report.sdc_prone_total();
        println!(
            "  {name:>8}: harmful faults detected {} | benign {} | SDC {} | timeouts {}",
            s.detected_check + s.detected_hw + s.other_fault,
            s.benign,
            s.sdc,
            s.timeout
        );
        let _ = Category::ALL;
    }
}
