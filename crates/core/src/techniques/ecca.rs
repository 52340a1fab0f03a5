//! ECCA — enhanced control-flow checking using assertions (Alkhalifa, Nair,
//! Krishnamurthy & Abraham [1]), as a CFG-dependent DBT instrumenter.
//!
//! ECCA gives every block a prime identifier. The end of a block *assigns*
//! the signature register the product of the legal successors' primes; the
//! entry assertion divides by the block's own prime, arranged so that a
//! mismatch raises a **divide-by-zero exception** — the technique's
//! reporting channel ("the divide by zero exception handler is modified to
//! detect if the exception is a control-flow error", §3.1). The paper
//! dismisses ECCA's checks as prohibitively expensive precisely because of
//! the `div`s; this implementation reproduces that cost honestly.
//!
//! Known misses (all reproduced here and in [`crate::formal`]):
//! category A (both legal successors divide the product), category C
//! (re-executing the assignment is absorbed), plus aliasing from the
//! capped, reused prime set (the original assigns unbounded unique primes;
//! we cap at [`PRIME_SET`] so products fit an `imm32`, trading some
//! aliasing — documented, and immaterial next to A/C).

use super::simm;
use crate::cfg::Cfg;
use cfed_asm::Image;
use cfed_dbt::{regs, BlockView, CacheAsm, CheckPolicy, Instrumenter};
use cfed_isa::{AluOp, Cond, Inst, Reg};
use std::collections::{HashMap, HashSet};

/// Number of distinct primes assigned round-robin to blocks.
pub const PRIME_SET: usize = 256;

/// ECCA: prime-product signatures checked with division assertions.
///
/// Register use: the signature (`id`) lives in [`regs::RTS`] (free under
/// this technique), checks scratch through [`regs::CHK`] / [`regs::AUX`] /
/// [`regs::GRET`].
#[derive(Debug, Clone)]
pub struct EccaInstrumenter {
    policy: CheckPolicy,
    /// Block start → assigned prime.
    primes: HashMap<u64, i32>,
    /// Block start → product of successor primes (1 for exits/indirects).
    products: HashMap<u64, i32>,
    /// Interprocedural entries: reseed `id` to the block's own prime.
    reseed: HashSet<u64>,
    entry_prime: i32,
}

fn first_primes(n: usize) -> Vec<i32> {
    let mut primes = Vec::with_capacity(n);
    let mut cand = 2i32;
    while primes.len() < n {
        if primes.iter().all(|p| cand % p != 0) {
            primes.push(cand);
        }
        cand += 1;
    }
    primes
}

impl EccaInstrumenter {
    /// Assigns primes and successor products from the image's CFG.
    pub fn from_image(image: &Image, policy: CheckPolicy) -> EccaInstrumenter {
        let cfg = Cfg::recover(image);
        let table = first_primes(PRIME_SET);
        let mut primes = HashMap::new();
        for (i, blk) in cfg.blocks().iter().enumerate() {
            primes.insert(blk.start, table[i % PRIME_SET]);
        }

        let mut reseed = HashSet::new();
        reseed.insert(image.entry());
        for blk in cfg.blocks() {
            if let Some(term @ (Inst::Call { .. } | Inst::CallR { .. })) = blk.terminator {
                let term_addr = blk.end - cfed_isa::INST_SIZE_U64;
                if let Some(target) = term.direct_target(term_addr) {
                    reseed.insert(target);
                }
                reseed.insert(blk.end);
            }
        }

        // The DBT fuses straight through static leader splits (blocks with
        // no terminator), so a translated block's exit is the terminator of
        // its fall-through *chain*; products must cover the chain end's
        // successors.
        let chain_end = |mut b: usize| -> usize {
            let mut hops = 0;
            while cfg.blocks()[b].terminator.is_none() && hops < cfg.blocks().len() {
                match cfg.blocks()[b].successors.first() {
                    Some(&s) => b = s,
                    None => break,
                }
                hops += 1;
            }
            b
        };
        let mut products = HashMap::new();
        for (b, blk) in cfg.blocks().iter().enumerate() {
            let end = chain_end(b);
            let mut product = 1i64;
            for &s in &cfg.blocks()[end].successors {
                product *= primes[&cfg.blocks()[s].start] as i64;
            }
            // Two successors of ≤1619 each: always fits imm32.
            products.insert(blk.start, simm(product.max(1)));
        }

        let entry_prime = *primes.get(&image.entry()).unwrap_or(&2);
        EccaInstrumenter { policy, primes, products, reseed, entry_prime }
    }

    /// The prime assigned to a block (tests / diagnostics).
    pub fn prime_of(&self, guest_start: u64) -> Option<i32> {
        self.primes.get(&guest_start).copied()
    }
}

impl Instrumenter for EccaInstrumenter {
    fn name(&self) -> &'static str {
        "ECCA"
    }

    fn emit_head(&self, a: &mut CacheAsm<'_>, sig: u64, check: bool, err_stub: u64) {
        let _ = err_stub; // ECCA reports through the divide-by-zero trap.
        let (prime, reseed) = match self.primes.get(&sig) {
            Some(&p) => (p, self.reseed.contains(&sig)),
            None => (2, true),
        };
        if reseed {
            a.emit(Inst::MovRI { dst: regs::RTS, imm: prime });
            return;
        }
        if check {
            // r = id mod prime(B); divisor = (r == 0); CHK / divisor.
            // A mismatch makes the divisor zero and the final `div` trap —
            // the ECCA assertion, expensive by construction (two `div`s,
            // one `mul`, one `cmov`).
            a.emit(Inst::MovRR { dst: regs::CHK, src: regs::RTS });
            a.emit(Inst::MovRI { dst: regs::AUX, imm: prime });
            a.emit(Inst::Alu { op: AluOp::Div, dst: regs::CHK, src: regs::AUX });
            a.emit(Inst::Alu { op: AluOp::Mul, dst: regs::CHK, src: regs::AUX });
            a.emit(Inst::LeaSub { dst: regs::CHK, base: regs::RTS, index: regs::CHK, disp: 0 });
            a.emit(Inst::AluI { op: AluOp::Cmp, dst: regs::CHK, imm: 0 });
            a.emit(Inst::MovRI { dst: regs::AUX, imm: 0 });
            a.emit(Inst::MovRI { dst: regs::GRET, imm: 1 });
            a.emit(Inst::CMov { cc: Cond::E, dst: regs::AUX, src: regs::GRET });
            a.emit(Inst::Alu { op: AluOp::Div, dst: regs::GRET, src: regs::AUX });
        }
    }

    fn emit_update_direct(&self, a: &mut CacheAsm<'_>, cur: u64, _next: u64) {
        // id = product of cur's legal successors — an assignment independent
        // of which successor is taken: why category A is invisible to ECCA.
        let product = self.products.get(&cur).copied().unwrap_or(1);
        a.emit(Inst::MovRI { dst: regs::RTS, imm: product });
    }

    fn emit_update_indirect(&self, a: &mut CacheAsm<'_>, _cur: u64, _target: Reg) {
        // Indirect edges land on reseed blocks; neutral value in between.
        a.emit(Inst::MovRI { dst: regs::RTS, imm: 1 });
    }

    fn emit_update_cond_cmov(
        &self,
        a: &mut CacheAsm<'_>,
        cur: u64,
        _taken: u64,
        _fall: u64,
        _cc: Cond,
    ) -> bool {
        // The product covers both successors; no conditional select needed.
        let product = self.products.get(&cur).copied().unwrap_or(1);
        a.emit(Inst::MovRI { dst: regs::RTS, imm: product });
        true
    }

    fn emit_end_check(&self, a: &mut CacheAsm<'_>, cur: u64, err_stub: u64) {
        self.emit_head(a, cur, true, err_stub);
    }

    fn wants_check(&self, block: &BlockView) -> bool {
        self.policy.wants_check(block)
    }

    fn initial_state(&self, _entry_sig: u64) -> Vec<(Reg, u64)> {
        vec![(regs::RTS, self.entry_prime as u64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_dbt, run_native, RunConfig};
    use crate::TechniqueKind;
    use cfed_dbt::UpdateStyle;
    use cfed_lang::compile;

    fn ecca_config() -> RunConfig {
        RunConfig { max_insts: 100_000_000, ..RunConfig::technique(TechniqueKind::Ecca) }
    }

    fn image() -> Image {
        compile(
            r#"
            fn f(x) { if (x % 2 == 0) { return x / 2; } return 3 * x + 1; }
            fn main() {
                let i = 1;
                let acc = 0;
                while (i < 25) { acc = acc + f(i); i = i + 1; }
                out(acc);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn first_primes_correct() {
        assert_eq!(first_primes(8), vec![2, 3, 5, 7, 11, 13, 17, 19]);
        assert_eq!(first_primes(PRIME_SET).len(), PRIME_SET);
        assert!(first_primes(PRIME_SET).last().copied().unwrap() < 2000);
    }

    #[test]
    fn transparent_execution() {
        let img = image();
        let native = run_native(&img, u64::MAX);
        for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
            let got = run_dbt(&img, &RunConfig { style, ..ecca_config() });
            assert_eq!(got.exit, native.exit, "{style}");
            assert_eq!(got.output, native.output, "{style}");
        }
    }

    #[test]
    fn div_checks_make_ecca_expensive() {
        // The paper dismisses ECCA's div-based checks as prohibitive: it
        // must cost far more than EdgCF.
        let img = image();
        let base = run_dbt(&img, &RunConfig::baseline()).cycles as f64;
        let ecca = run_dbt(&img, &ecca_config()).cycles as f64;
        let edg = run_dbt(&img, &RunConfig::technique(TechniqueKind::EdgCf)).cycles as f64;
        assert!(
            (ecca / base) > 1.5 * (edg / base) - 0.5,
            "ECCA ({:.3}) should dwarf EdgCF ({:.3})",
            ecca / base,
            edg / base
        );
        assert!(ecca > edg);
    }

    #[test]
    fn primes_assigned_to_every_static_block() {
        let img = image();
        let cfg = Cfg::recover(&img);
        let instr = EccaInstrumenter::from_image(&img, CheckPolicy::AllBb);
        for blk in cfg.blocks() {
            assert!(instr.prime_of(blk.start).is_some());
        }
    }
}
