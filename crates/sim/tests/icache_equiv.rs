//! Equivalence of the decoded execution paths with raw fetch+decode.
//!
//! The decoded i-cache is only admissible because it is invisible: for any
//! program — including self-modifying code and external writes landing in
//! executed pages — stepping through the cache, running fused bursts and
//! raw per-instruction decode must produce bit-identical CPU state (regs,
//! flags, ip, halted, stats, output), traps, dirty-page logs and memory
//! contents. These properties drive random programs (valid and invalid
//! encodings) interleaved with random code-page writes through all three
//! paths and demand exact agreement. A branch ceiling must stop the fused
//! paths exactly where stepping with `peek_inst().is_branch()` stops.

use cfed_isa::{AluOp, Cond, Inst, Reg, INST_SIZE_U64};
use cfed_sim::{Cpu, DecodedCache, ExecProfiler, Memory, Perms, Step, Trap, PAGE_SIZE};
use proptest::prelude::*;

const CODE_PAGES: u64 = 2;
const DATA_BASE: u64 = CODE_PAGES * PAGE_SIZE;
const MEM_SIZE: u64 = 4 * PAGE_SIZE;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0usize..Reg::COUNT).prop_map(|i| Reg::all().nth(i).expect("in range"))
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (0usize..4).prop_map(|i| [Cond::E, Cond::Ne, Cond::L, Cond::Ae][i])
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    (0usize..6)
        .prop_map(|i| [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Cmp, AluOp::Mul, AluOp::And][i])
}

/// A word of guest code: valid instructions (short loops, stores into the
/// code region, ALU traffic), with an occasional arm of raw bytes that may
/// not decode at all.
/// Branch offsets stay aligned and small so loops actually form.
fn arb_joff() -> impl Strategy<Value = i32> {
    (-24i32..24).prop_map(|w| w * 8)
}

fn arb_word() -> impl Strategy<Value = [u8; 8]> {
    let inst = prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Halt),
        (arb_reg(), -100i32..100).prop_map(|(dst, imm)| Inst::MovRI { dst, imm }),
        (arb_alu_op(), arb_reg(), 1i32..50).prop_map(|(op, dst, imm)| Inst::AluI { op, dst, imm }),
        (arb_alu_op(), arb_reg(), arb_reg()).prop_map(|(op, dst, src)| Inst::Alu { op, dst, src }),
        (arb_cond(), arb_joff()).prop_map(|(cc, offset)| Inst::Jcc { cc, offset }),
        (arb_reg(), arb_joff()).prop_map(|(src, offset)| Inst::JRnz { src, offset }),
        // Stores through R1 land in the code pages (self-modifying code);
        // through R2 in the data page.
        (arb_reg(), 0i32..64).prop_map(|(src, disp)| Inst::St {
            base: Reg::R1,
            src,
            disp: disp * 8
        }),
        (arb_reg(), 0i32..256).prop_map(|(src, disp)| Inst::St8 { base: Reg::R2, src, disp }),
        (arb_reg(), 0i32..64).prop_map(|(dst, disp)| Inst::Ld {
            dst,
            base: Reg::R2,
            disp: disp * 8
        }),
        arb_reg().prop_map(|src| Inst::Out { src }),
        arb_reg().prop_map(|src| Inst::Push { src }),
        arb_reg().prop_map(|dst| Inst::Pop { dst }),
    ];
    (inst, any::<u64>(), 0usize..8).prop_map(|(inst, raw, sel)| {
        // One word in eight is raw bytes (usually an invalid encoding), so
        // the InvalidInst path gets the same equivalence scrutiny.
        if sel == 0 {
            raw.to_le_bytes()
        } else {
            inst.encode()
        }
    })
}

/// One external event: run up to `steps` instructions, stopping early
/// before a branch once `branches` more have retired (when set), then
/// (maybe) write `word` into the code region at `slot` — the
/// SMC-from-outside case (DBT chain patching, fault injection) the cache
/// must observe.
#[derive(Debug, Clone)]
struct Op {
    steps: u64,
    branches: Option<u64>,
    write: Option<(u64, [u8; 8])>,
}

fn arb_op(ceilings: bool) -> impl Strategy<Value = Op> {
    let write = prop_oneof![
        Just(None),
        (0u64..(CODE_PAGES * PAGE_SIZE / INST_SIZE_U64), arb_word())
            .prop_map(|(slot, word)| Some((slot * INST_SIZE_U64, word))),
    ];
    let branches = if ceilings {
        prop_oneof![Just(None), (0u64..6).prop_map(Some)].boxed()
    } else {
        Just(None).boxed()
    };
    (0u64..40, branches, write).prop_map(|(steps, branches, write)| Op { steps, branches, write })
}

fn build(words: &[[u8; 8]]) -> (Cpu, Memory) {
    let mut mem = Memory::new(MEM_SIZE);
    mem.map(0..DATA_BASE, Perms::RWX);
    mem.map(DATA_BASE..MEM_SIZE, Perms::RW);
    for (i, w) in words.iter().enumerate() {
        mem.install(i as u64 * INST_SIZE_U64, w);
    }
    let mut cpu = Cpu::new();
    cpu.set_ip(0);
    cpu.set_reg(Reg::SP, MEM_SIZE);
    cpu.set_reg(Reg::R1, 0x40); // store base inside the code page
    cpu.set_reg(Reg::R2, DATA_BASE);
    (cpu, mem)
}

/// What a run segment ended with, for exact cross-path comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SegEnd {
    Budget,
    Ceiling,
    Halt,
    Trap(Trap),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Raw,
    Stepped,
    Fused,
    Profiled,
}

/// Everything observable after an op sequence: per-segment outcomes,
/// final CPU, dirty log and code bytes.
type Observed = (Vec<SegEnd>, Cpu, Vec<u64>, Vec<u8>);

/// Runs the op sequence down one execution path, returning what it
/// observably did and the number of fetches its decode cache classified
/// (hits plus misses).
fn execute(words: &[[u8; 8]], ops: &[Op], path: Path) -> (Observed, u64) {
    let (mut cpu, mut mem) = build(words);
    let mut icache = DecodedCache::new();
    let mut prof = ExecProfiler::new();
    let mut log = Vec::new();
    let mut live = true;
    for op in ops {
        if live {
            let ceiling = op.branches.map_or(u64::MAX, |b| cpu.stats().branches + b);
            let end = match path {
                Path::Fused | Path::Profiled => {
                    let start = cpu.stats().insts;
                    let run = match path {
                        Path::Fused => cpu.run_fused(&mut mem, &mut icache, op.steps, ceiling),
                        _ => cpu.run_fused_profiled(
                            &mut mem,
                            &mut icache,
                            op.steps,
                            ceiling,
                            &mut prof,
                        ),
                    };
                    match run {
                        Ok(Step::Continue) if cpu.stats().insts - start < op.steps => {
                            SegEnd::Ceiling
                        }
                        Ok(Step::Continue) => SegEnd::Budget,
                        Ok(Step::Halt) => SegEnd::Halt,
                        Err(t) => SegEnd::Trap(t),
                    }
                }
                Path::Raw | Path::Stepped => {
                    let mut end = SegEnd::Budget;
                    for _ in 0..op.steps {
                        if cpu.stats().branches >= ceiling
                            && cpu.peek_inst(&mem).is_ok_and(|i| i.is_branch())
                        {
                            end = SegEnd::Ceiling;
                            break;
                        }
                        let step = match path {
                            Path::Raw => cpu.step(&mut mem),
                            _ => cpu.step_decoded(&mut mem, &mut icache),
                        };
                        match step {
                            Ok(Step::Continue) => {}
                            Ok(Step::Halt) => {
                                end = SegEnd::Halt;
                                break;
                            }
                            Err(t) => {
                                end = SegEnd::Trap(t);
                                break;
                            }
                        }
                    }
                    end
                }
            };
            live = matches!(end, SegEnd::Budget | SegEnd::Ceiling);
            log.push(end);
        }
        if let Some((addr, word)) = op.write {
            mem.install(addr, &word);
        }
    }
    let code = mem.peek(0, (CODE_PAGES * PAGE_SIZE) as usize).to_vec();
    let stats = icache.stats();
    ((log, cpu, mem.dirty_pages(), code), stats.hits + stats.misses)
}

/// Runs `ops` down all four paths and demands identical observations. The
/// stepped path classifies one fetch per executed or trapping instruction;
/// the fused paths classify the same plus the branch each ceiling stop
/// fetched without executing.
fn assert_paths_agree(words: &[[u8; 8]], ops: &[Op]) {
    let (raw, _) = execute(words, ops, Path::Raw);
    let (stepped, stepped_fetches) = execute(words, ops, Path::Stepped);
    let stops = stepped.0.iter().filter(|e| **e == SegEnd::Ceiling).count() as u64;
    prop_assert_eq!(&raw, &stepped);
    for path in [Path::Fused, Path::Profiled] {
        let (fused, fused_fetches) = execute(words, ops, path);
        prop_assert_eq!(&raw, &fused, "{:?}", path);
        prop_assert_eq!(fused_fetches, stepped_fetches + stops, "{:?}", path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random code-page writes interleaved with execution: the decoded
    /// stepping path and the fused burst paths are bit-identical to raw
    /// decode in results, traps, stats, dirty log and memory.
    #[test]
    fn decoded_paths_bit_identical_to_raw(
        words in prop::collection::vec(arb_word(), 1..96),
        ops in prop::collection::vec(arb_op(false), 1..24),
    ) {
        assert_paths_agree(&words, &ops);
    }

    /// The guest's own stores into its code page (classic SMC, no external
    /// writer involved) behave identically down all paths.
    #[test]
    fn guest_smc_bit_identical(
        words in prop::collection::vec(arb_word(), 1..96),
        budget in 1u64..600,
    ) {
        assert_paths_agree(&words, &[Op { steps: budget, branches: None, write: None }]);
    }

    /// Segments with a branch ceiling (including one already reached on
    /// entry) stop the fused paths before the same branch, with the same
    /// CPU and statistics, as stepping that peeks each instruction.
    #[test]
    fn branch_ceiling_stops_where_stepping_stops(
        words in prop::collection::vec(arb_word(), 1..96),
        ops in prop::collection::vec(arb_op(true), 1..24),
    ) {
        assert_paths_agree(&words, &ops);
    }
}
