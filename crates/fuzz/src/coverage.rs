//! Behavioural coverage feedback.
//!
//! Each program is condensed into a [`Fingerprint`] — a bitset over the
//! behaviours the stack's counters can distinguish: which opcode classes
//! executed, how the run ended, whether the decode cache hit / missed /
//! invalidated, which DBT mechanisms fired (SMC flushes, retranslations,
//! evictions, chaining, dispatch inline-cache hits) and log-bucketed
//! magnitudes (blocks translated, output length, retired instructions). A
//! program is retained in the corpus iff its fingerprint sets a bit no
//! earlier program set — cheap, deterministic, and directly tied to the
//! counters `cfed-telemetry` exports.

use crate::gen::GeneratedProgram;
use crate::oracle::OracleReport;
use cfed_dbt::{DbtExit, EngineSpec};
use cfed_isa::Inst;
use cfed_sim::{Machine, Step, Trap};

/// A program's behaviour bitset. Bit layout:
///
/// * 0–27: opcode class executed (one bit per [`Inst`] variant)
/// * 32–41: exit kind (halt, step-limit, one bit per trap variant)
/// * 44–46: decode cache hits / misses / invalidations observed
/// * 48–54: DBT counters nonzero (smc_flushes, retranslations,
///   cache_evictions, 51 unused, chains, dispatch_ic_hits, dispatches)
/// * 56–59: log₂ bucket of blocks translated
/// * 60–63: log₂ bucket of output length
/// * 64–69: log₂ bucket of retired instructions
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Bits set here and not in `seen`.
    pub fn novel_vs(self, seen: u128) -> u128 {
        self.0 & !seen
    }
}

fn opcode_class(inst: &Inst) -> u32 {
    match inst {
        Inst::Nop => 0,
        Inst::Halt => 1,
        Inst::Out { .. } => 2,
        Inst::Trap { .. } => 3,
        Inst::MovRR { .. } => 4,
        Inst::MovRI { .. } => 5,
        Inst::Ld { .. } => 6,
        Inst::St { .. } => 7,
        Inst::Ld8 { .. } => 8,
        Inst::St8 { .. } => 9,
        Inst::Push { .. } => 10,
        Inst::Pop { .. } => 11,
        Inst::CMov { .. } => 12,
        Inst::Alu { .. } => 13,
        Inst::AluI { .. } => 14,
        Inst::Neg { .. } => 15,
        Inst::Not { .. } => 16,
        Inst::Lea { .. } => 17,
        Inst::Lea2 { .. } => 18,
        Inst::LeaSub { .. } => 19,
        Inst::Jmp { .. } => 20,
        Inst::Jcc { .. } => 21,
        Inst::JRz { .. } => 22,
        Inst::JRnz { .. } => 23,
        Inst::Call { .. } => 24,
        Inst::CallR { .. } => 25,
        Inst::JmpR { .. } => 26,
        Inst::Ret => 27,
    }
}

fn exit_bit(exit: &DbtExit) -> u32 {
    match exit {
        DbtExit::Halted { .. } => 32,
        DbtExit::StepLimit => 33,
        DbtExit::Trapped(t) => match t {
            Trap::OutOfRange { .. } => 34,
            Trap::PermRead { .. } => 35,
            Trap::PermWrite { .. } => 36,
            Trap::PermExec { .. } => 37,
            Trap::UnalignedFetch { .. } => 38,
            Trap::InvalidInst { .. } => 39,
            Trap::DivByZero { .. } => 40,
            Trap::Software { .. } => 41,
        },
    }
}

fn log2_bucket(v: u64) -> u32 {
    (64 - v.leading_zeros()).min(15) / 4
}

/// Profiles which opcode classes a program actually executes: a bounded
/// interpreter walk (decode cache on, so invalidation behaviour also
/// registers) peeking each instruction before retiring it. Deliberately
/// decoupled from the oracle's runs — it only needs class bits, not exact
/// exit semantics.
pub fn profile_classes(prog: &GeneratedProgram, max_insts: u64) -> u128 {
    let image = &prog.image;
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut bits = 0u128;
    for _ in 0..max_insts {
        match m.peek_inst() {
            Ok(inst) => bits |= 1u128 << opcode_class(&inst),
            Err(_) => break,
        }
        match m.step_cpu() {
            Ok(Step::Continue) => {}
            Ok(Step::Halt) | Err(_) => break,
        }
    }
    if let Some(ic) = m.decode_cache_stats() {
        if ic.hits > 0 {
            bits |= 1 << 44;
        }
        if ic.misses > 0 {
            bits |= 1 << 45;
        }
        if ic.invalidations > 0 {
            bits |= 1 << 46;
        }
    }
    bits
}

/// Condenses one oracle report (plus the class profile) into a fingerprint.
pub fn fingerprint(prog: &GeneratedProgram, report: &OracleReport, max_insts: u64) -> Fingerprint {
    let mut bits = profile_classes(prog, max_insts);
    for run in &report.runs {
        // Trace-tier runs shift where instruction budgets bite, and they
        // degrade to plain runs under CFED_NO_TIER=1. Excluding them keeps
        // a fixed-seed campaign byte-identical across tier on/off.
        if run.id.engine.is_tiered() {
            continue;
        }
        bits |= 1u128 << exit_bit(&run.exit);
    }
    // DBT mechanism bits and magnitude buckets from the uninstrumented
    // block-fused run — the canonical translator behaviour of the program.
    if let Some(base) =
        report.runs.iter().find(|r| r.id.engine == EngineSpec::DbtFused && r.id.technique.is_none())
    {
        if let Some(s) = &base.dbt {
            // Bit 51 stays unused: it belonged to a retired counter, and
            // keeping the others in place keeps fixed-seed reports stable.
            for (bit, v) in [
                (48, s.smc_flushes),
                (49, s.retranslations),
                (50, s.cache_evictions),
                (52, s.chains),
                (53, s.dispatch_ic_hits),
                (54, s.dispatches),
            ] {
                if v > 0 {
                    bits |= 1u128 << bit;
                }
            }
            bits |= 1u128 << (56 + log2_bucket(s.blocks));
        }
        bits |= 1u128 << (60 + log2_bucket(base.output.len() as u64));
        bits |= 1u128 << (64 + log2_bucket(base.insts));
    }
    Fingerprint(bits)
}

/// The campaign's accumulated coverage.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverageMap {
    /// Union of every retained program's fingerprint.
    pub seen: u128,
}

impl CoverageMap {
    /// Empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Merges `fp`; returns `true` (retain) iff it set a new bit.
    pub fn record(&mut self, fp: Fingerprint) -> bool {
        let novel = fp.novel_vs(self.seen);
        self.seen |= fp.0;
        novel != 0
    }

    /// Number of distinct behaviour bits observed so far.
    pub fn bits(&self) -> u32 {
        self.seen.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Tier};
    use crate::oracle::run_oracle;

    #[test]
    fn retention_is_novelty_driven() {
        let mut map = CoverageMap::new();
        assert!(map.record(Fingerprint(0b101)));
        assert!(!map.record(Fingerprint(0b001)));
        assert!(map.record(Fingerprint(0b010)));
        assert_eq!(map.bits(), 3);
    }

    #[test]
    fn fingerprints_reflect_program_behaviour() {
        let prog = generate(5, Tier::MiniC);
        let report = run_oracle(&prog, 2_000_000);
        let fp = fingerprint(&prog, &report, 2_000_000);
        assert_ne!(fp.0, 0);
        // A MiniC program always retires ALU ops and calls.
        assert_ne!(fp.0 & (1 << 13 | 1 << 24), 0);
        // Deterministic.
        assert_eq!(fp, fingerprint(&prog, &run_oracle(&prog, 2_000_000), 2_000_000));
    }
}
