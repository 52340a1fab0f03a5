//! Tier-2 trace formation: walking hot guest code into a superblock plan.
//!
//! The engine's per-block countdown counters (the `num_hit` /
//! `compile_threshold` shape of classic tiered DBTs) fire a tier-up exit when
//! a block has executed `compile_threshold` times. The walker here then
//! follows chained *direct* branches from that block, choosing the hotter
//! successor at two-way branches (colder remaining countdown = executed more
//! often), and produces a [`TracePlan`] through the [`crate::ir`] pass
//! pipeline. The plan is verified by the technique's placement verifier
//! before anything is emitted; rejection leaves tier-1 untouched.

use crate::instrument::BlockView;
use crate::ir::{self, SideBranch, TraceOp, TracePlan, TraceSig, TraceVerifier};
use cfed_isa::{Inst, INST_SIZE_U64};
use cfed_sim::Memory;
use std::ops::Range;
use std::sync::Arc;

/// Ceiling on merged blocks per trace.
pub const TRACE_MAX_BLOCKS: usize = 8;

/// Ceiling on guest instructions per trace (kept far below the native
/// backend's per-block compile limit so traces always remain compilable).
pub const TRACE_MAX_INSTS: usize = 256;

/// Default per-block execution count before tier-up is attempted.
pub const DEFAULT_COMPILE_THRESHOLD: u32 = 64;

/// Tier-2 configuration, passed at construction to a tiered engine.
#[derive(Clone)]
pub struct TierConfig {
    /// Block executions before trace formation is attempted.
    pub compile_threshold: u32,
    /// Placement verifier consulted before every trace install.
    pub verifier: Arc<dyn TraceVerifier>,
}

impl std::fmt::Debug for TierConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierConfig")
            .field("compile_threshold", &self.compile_threshold)
            .finish_non_exhaustive()
    }
}

impl TierConfig {
    /// A config with the default threshold and the given verifier.
    pub fn new(verifier: Arc<dyn TraceVerifier>) -> TierConfig {
        TierConfig { compile_threshold: DEFAULT_COMPILE_THRESHOLD, verifier }
    }

    /// Overrides the compile threshold (tests and fuzzing use small values
    /// to force tier-up mid-run).
    pub fn with_threshold(mut self, threshold: u32) -> TierConfig {
        self.compile_threshold = threshold.max(1);
        self
    }
}

/// A walked trace: the verified-plan input plus the guest ranges it covers
/// (for page protection and SMC demotion).
#[derive(Debug, Clone)]
pub(crate) struct TraceCandidate {
    pub(crate) plan: TracePlan,
    /// Guest address ranges of the merged blocks (one per block).
    pub(crate) ranges: Vec<Range<u64>>,
}

/// One decoded block during the walk.
struct WalkBlock {
    start: u64,
    insts: Vec<(u64, Inst)>,
    /// `(side-exit branch, exit target)` for two-way terminators whose other
    /// direction the trace follows; `None` for unconditional terminators.
    side: Option<(SideBranch, u64)>,
    /// Whether the terminator is a loop back edge (check-policy input).
    has_back_edge: bool,
    /// One past the terminator (guest bytes covered by this block).
    end: u64,
}

/// How the final trace transfers control.
enum Closure {
    /// Back edge to the trace entry.
    Loop,
    /// Exit to a guest target outside the trace.
    Exit(u64),
}

/// Walks a trace from `entry`, builds the naive signature-faithful IR,
/// optimizes it, and returns the candidate — or `None` when no profitable
/// trace exists (fewer than two merged blocks, or the entry block does not
/// end in a direct branch).
///
/// `hotness` reports the remaining countdown of a block's tier-up counter
/// (lower = executed more often); `None` for blocks without counters. It is
/// derived from guest-memory counter slots, so fused-interpreter and native
/// runs observe identical values and form identical traces.
pub(crate) fn plan_trace(
    mem: &Memory,
    guest_code: &Range<u64>,
    entry: u64,
    sig: TraceSig,
    wants_check: impl Fn(&BlockView) -> bool,
    hotness: impl Fn(u64) -> Option<u64>,
) -> Option<TraceCandidate> {
    let valid = |addr: u64| addr.is_multiple_of(INST_SIZE_U64) && guest_code.contains(&addr);
    if !valid(entry) {
        return None;
    }

    // ---- phase A: walk and decode ----
    let mut blocks: Vec<WalkBlock> = Vec::new();
    let mut visited: Vec<u64> = Vec::new();
    let mut total_insts = 0usize;
    let mut cur = entry;
    let closure = loop {
        if blocks.len() == TRACE_MAX_BLOCKS {
            break Closure::Exit(cur);
        }
        let Some(DecodedBlock { body: insts, term, term_addr: taddr }) =
            decode_block(mem, guest_code, cur)
        else {
            if blocks.is_empty() {
                return None;
            }
            break Closure::Exit(cur);
        };
        if total_insts + insts.len() + 1 > TRACE_MAX_INSTS {
            if blocks.is_empty() {
                return None;
            }
            break Closure::Exit(cur);
        }
        // Only direct-branch terminators extend a trace; anything else
        // (indirect, call, ret, halt, trap) ends it before this block.
        let (followed, side, back_edge) = match term {
            Inst::Jmp { .. } => {
                let t = term.direct_target(taddr).expect("direct");
                (t, None, t <= taddr)
            }
            Inst::Jcc { .. } | Inst::JRz { .. } | Inst::JRnz { .. } => {
                let taken = term.direct_target(taddr).expect("direct");
                let fall = taddr + INST_SIZE_U64;
                if taken == fall {
                    (fall, None, false)
                } else {
                    let follow_taken = if taken == entry {
                        true
                    } else if fall == entry {
                        false
                    } else {
                        match (hotness(taken), hotness(fall)) {
                            (Some(a), Some(b)) if a != b => a < b,
                            _ => taken <= taddr, // static heuristic: follow back edges
                        }
                    };
                    let (followed, exit_to) =
                        if follow_taken { (taken, fall) } else { (fall, taken) };
                    // The side branch exits the trace, so its sense is
                    // "leave": inverted when the trace follows the taken arm.
                    let branch = match (term, follow_taken) {
                        (Inst::Jcc { .. }, false) => SideBranch::Cc(cc_of(&term)),
                        (Inst::Jcc { .. }, true) => SideBranch::Cc(cc_of(&term).negated()),
                        (Inst::JRz { src, .. }, false) => SideBranch::Rz(src),
                        (Inst::JRz { src, .. }, true) => SideBranch::Rnz(src),
                        (Inst::JRnz { src, .. }, false) => SideBranch::Rnz(src),
                        (Inst::JRnz { src, .. }, true) => SideBranch::Rz(src),
                        _ => unreachable!(),
                    };
                    (followed, Some((branch, exit_to)), taken <= taddr)
                }
            }
            _ => {
                if blocks.is_empty() {
                    return None;
                }
                break Closure::Exit(cur);
            }
        };
        visited.push(cur);
        total_insts += insts.len() + 1;
        blocks.push(WalkBlock {
            start: cur,
            insts,
            side,
            has_back_edge: back_edge,
            end: taddr + INST_SIZE_U64,
        });
        if followed == entry {
            break Closure::Loop;
        }
        if !valid(followed) || visited.contains(&followed) {
            break Closure::Exit(followed);
        }
        cur = followed;
    };
    // Profitability: a loop-closing trace always pays for itself (the back
    // edge elides the per-entry countdown prologue and chain dispatch every
    // iteration — including the common single-block self-loop); a trace that
    // merely exits must merge at least two blocks to beat tier-1 chaining.
    match closure {
        Closure::Loop => {}
        Closure::Exit(_) if blocks.len() < 2 => return None,
        Closure::Exit(_) => {}
    }

    // ---- phase B: naive IR, faithful to tier-1 placement ----
    let additive = sig == TraceSig::PcPrimeAdditive;
    let adj = |target: u64| if additive { target as i64 } else { 0 };
    let mut ops: Vec<TraceOp> = Vec::new();
    let mut any_check_wanted = false;
    let last = blocks.len() - 1;
    for (i, b) in blocks.iter().enumerate() {
        if additive {
            ops.push(TraceOp::SigAdd { delta: -(b.start as i64) });
        }
        let view = BlockView {
            guest_start: b.start,
            ends_with_ret: false,
            ends_with_halt: false,
            has_back_edge: b.has_back_edge,
        };
        if wants_check(&view) {
            any_check_wanted = true;
            if additive {
                ops.push(TraceOp::Check);
            }
        }
        for &(addr, inst) in &b.insts {
            ops.push(TraceOp::Guest { guest_addr: addr, inst });
        }
        if let Some((branch, exit_to)) = b.side {
            ops.push(TraceOp::SideExit { branch, target: exit_to, adjust: adj(exit_to) });
        }
        if i < last {
            if additive {
                ops.push(TraceOp::SigAdd { delta: blocks[i + 1].start as i64 });
            }
        } else {
            match closure {
                Closure::Loop => ops.push(TraceOp::Loop { adjust: adj(entry) }),
                Closure::Exit(target) => ops.push(TraceOp::Exit { target, adjust: adj(target) }),
            }
        }
    }

    let ops = ir::optimize(ops);
    let ranges = blocks.iter().map(|b| b.start..b.end).collect();
    Some(TraceCandidate {
        plan: TracePlan { entry_sig: entry, sig, any_check_wanted, ops },
        ranges,
    })
}

fn cc_of(inst: &Inst) -> cfed_isa::Cond {
    match inst {
        Inst::Jcc { cc, .. } => *cc,
        _ => unreachable!(),
    }
}

/// A decoded guest block: body instructions, terminator, terminator address.
struct DecodedBlock {
    body: Vec<(u64, Inst)>,
    term: Inst,
    term_addr: u64,
}

/// Decodes the block starting at `addr`: body instructions plus terminator.
/// `None` when decoding runs off the code region, hits an invalid
/// instruction, or finds no terminator within the trace instruction budget
/// (such blocks stay tier-1, where the cases surface as aborts or splits).
fn decode_block(mem: &Memory, guest_code: &Range<u64>, start: u64) -> Option<DecodedBlock> {
    let mut body = Vec::new();
    let mut addr = start;
    loop {
        if !guest_code.contains(&addr) {
            return None;
        }
        let bytes: [u8; 8] = mem.peek(addr, 8).try_into().expect("guest code in range");
        let inst = Inst::decode(&bytes).ok()?;
        if inst.is_terminator() {
            return Some(DecodedBlock { body, term: inst, term_addr: addr });
        }
        body.push((addr, inst));
        addr += INST_SIZE_U64;
        if body.len() > TRACE_MAX_INSTS {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_isa::{encode_all, AluOp, Cond, Reg};
    use cfed_sim::Perms;

    const BASE: u64 = 0x1_0000;

    fn memory_with(code: &[Inst]) -> (Memory, Range<u64>) {
        let mut mem = Memory::new(1 << 20);
        mem.map(0..0x4_0000, Perms::R | Perms::X);
        let bytes = encode_all(code);
        mem.install(BASE, &bytes);
        (mem, BASE..BASE + bytes.len() as u64)
    }

    fn plan(code: &[Inst], sig: TraceSig) -> Option<TraceCandidate> {
        let (mem, range) = memory_with(code);
        plan_trace(&mem, &range, BASE, sig, |_| true, |_| None)
    }

    #[test]
    fn two_block_loop_closes() {
        // S0: r0 -= 1; je EXIT (fall to S1); S1: nop; jmp S0.
        let code = [
            Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 }, // S0 @ +0
            Inst::Jcc { cc: Cond::E, offset: 16 },               // @ +8, taken → EXIT @ +32
            Inst::Nop,                                           // S1 @ +16
            Inst::Jmp { offset: -32 },                           // @ +24, back to S0
            Inst::Halt,                                          // EXIT @ +32
        ];
        let cand = plan(&code, TraceSig::PcPrimeAdditive).expect("trace forms");
        assert_eq!(cand.ranges.len(), 2);
        assert!(matches!(cand.plan.ops.last(), Some(TraceOp::Loop { .. })));
        // The fall-through arm is followed; the taken arm (EXIT) becomes a
        // side exit in the branch's original sense.
        assert!(cand.plan.ops.iter().any(|op| matches!(
            op,
            TraceOp::SideExit { branch: SideBranch::Cc(Cond::E), target, .. }
                if *target == BASE + 32
        )));
    }

    #[test]
    fn single_block_self_loop_forms() {
        // The hot-loop shape `while` lowers to: body+test ending in a
        // taken back edge to itself. One block, but loop-closing — the
        // highest-value trace there is.
        let code = [
            Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
            Inst::Jcc { cc: Cond::Ne, offset: -16 }, // self loop
            Inst::Halt,
        ];
        let cand = plan(&code, TraceSig::PcPrimeAdditive).expect("self-loop trace forms");
        assert_eq!(cand.ranges.len(), 1);
        assert!(matches!(cand.plan.ops.last(), Some(TraceOp::Loop { .. })));
        // The not-taken arm (fall to Halt) is the side exit, sense inverted.
        assert!(cand.plan.ops.iter().any(|op| matches!(
            op,
            TraceOp::SideExit { branch: SideBranch::Cc(Cond::E), target, .. }
                if *target == BASE + 16
        )));
    }

    #[test]
    fn single_block_straight_line_rejected() {
        // One block ending in a forward jump that leaves immediately: no
        // loop, nothing merged — stays tier-1.
        let code = [Inst::Nop, Inst::Jmp { offset: 8 }, Inst::Nop, Inst::Ret];
        assert!(plan(&code, TraceSig::PcPrimeAdditive).is_none());
    }

    #[test]
    fn indirect_entry_terminator_rejected() {
        let code = [Inst::Nop, Inst::Ret];
        assert!(plan(&code, TraceSig::PcPrimeAdditive).is_none());
    }

    #[test]
    fn trace_stops_before_indirect_block() {
        // S0 -jmp-> S1 -ret: trace = [S0], too short → rejected.
        let code = [
            Inst::Nop,
            Inst::Jmp { offset: 0 }, // to next inst
            Inst::Ret,
        ];
        assert!(plan(&code, TraceSig::PcPrimeAdditive).is_none());
        // With one more chained block it forms and exits before the ret.
        let code = [
            Inst::Nop,               //
            Inst::Jmp { offset: 0 }, // S0 -> S1
            Inst::Nop,               // S1
            Inst::Jmp { offset: 0 }, // S1 -> S2
            Inst::Ret,               // S2: not merged
        ];
        let cand = plan(&code, TraceSig::PcPrimeAdditive).expect("trace forms");
        assert_eq!(cand.ranges.len(), 2);
        assert!(matches!(
            cand.plan.ops.last(),
            Some(TraceOp::Exit { target, .. }) if *target == BASE + 32
        ));
    }

    #[test]
    fn untracked_sig_has_no_sig_ops() {
        let code = [
            Inst::Nop,
            Inst::Jmp { offset: 0 },
            Inst::Nop,
            Inst::Jmp { offset: -32 }, // back to entry
        ];
        let cand = plan(&code, TraceSig::Untracked).expect("trace forms");
        assert!(cand
            .plan
            .ops
            .iter()
            .all(|op| !matches!(op, TraceOp::SigAdd { .. } | TraceOp::Check)));
        assert!(matches!(cand.plan.ops.last(), Some(TraceOp::Loop { adjust: 0 })));
    }

    #[test]
    fn hotness_steers_two_way_branches() {
        // Conditional where neither arm is the entry: the hotter (lower
        // remaining countdown) arm is followed.
        let code = [
            Inst::Nop,                             // entry @ +0
            Inst::Jcc { cc: Cond::E, offset: 16 }, // @ +8, taken → C @ +32, fall → B
            Inst::Nop,                             // B @ +16
            Inst::Jmp { offset: 16 },              // @ +24, B -> D @ +48
            Inst::Nop,                             // C @ +32
            Inst::Jmp { offset: 0 },               // @ +40, C -> D
            Inst::Halt,                            // D @ +48
        ];
        let (mem, range) = memory_with(&code);
        let taken = BASE + 32;
        let hot = |addr: u64| Some(if addr == taken { 1 } else { 50 });
        let cand = plan_trace(&mem, &range, BASE, TraceSig::PcPrimeAdditive, |_| true, hot)
            .expect("trace forms");
        // Followed the taken arm C; side exit goes to the fall block B.
        assert!(cand.plan.ops.iter().any(|op| matches!(
            op,
            TraceOp::SideExit { target, .. } if *target == BASE + 16
        )));
        assert!(cand.ranges.iter().any(|r| r.start == taken));
    }

    #[test]
    fn head_check_retained_and_interior_dropped() {
        let code = [Inst::Nop, Inst::Jmp { offset: 0 }, Inst::Nop, Inst::Jmp { offset: -32 }];
        let cand = plan(&code, TraceSig::PcPrimeAdditive).expect("trace forms");
        let checks = cand.plan.ops.iter().filter(|op| matches!(op, TraceOp::Check)).count();
        assert_eq!(checks, 1, "ALLBB policy hoists to exactly one head check");
        assert!(cand.plan.any_check_wanted);
        assert_eq!(cand.plan.ops[0], TraceOp::SigAdd { delta: -(BASE as i64) });
        assert_eq!(cand.plan.ops[1], TraceOp::Check);
    }
}
