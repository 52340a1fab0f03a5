//! Single-fault injection into DBT-translated code, and the trial loop
//! that runs faults and attacks alike.
//!
//! Realizes the experiment the paper leaves as future work ("we will also
//! work on soft-error injection to measure the actual effectiveness of our
//! techniques"): flip one bit — in a branch's address offset as fetched, or
//! in the flags register at a branch — at a chosen dynamic branch execution
//! inside the code cache, then observe the outcome. Faults strike the
//! *translated* code, so the instrumentation's own inserted branches are
//! fault sites too — exactly the surface RCF exists to protect (§3.2).
//!
//! Every run here — the golden run, the trial prefix to the strike branch
//! and the suffix to an outcome — is one [`Dbt::run_until`] loop on the
//! block-fused DBT. A dynamic branch's index is the number of branches the
//! CPU has retired before it (`ExecStats.branches`), and the loop's branch
//! ceiling stops just before branch `n` executes: where a trial strikes,
//! where a checkpoint is captured, and where the suffix compares against
//! the next checkpoint for pruning. Traced trials, and the
//! [`EngineSpec::DbtStep`] reference of [`run_trial_on`], step one
//! instruction at a time inside the same loop.

use crate::attack::{attack_now, AttackProvenance, AttackSpec};
use crate::snapshot::SnapshotSet;
use cfed_asm::Image;
use cfed_core::{
    classify_addr_fault, classify_flag_fault, BlockLayout, BranchFault, CacheLayout, Category,
    RunConfig,
};
use cfed_dbt::{Dbt, DbtExit, DbtStep, DbtStop, EngineSpec};
use cfed_isa::{Flags, INST_SIZE_U64};
use cfed_sim::{Machine, Tracer, Trap};

/// The *fault-free* execution misbehaved: the workload itself is unsound
/// under the given configuration. Distinct from an unplaceable fault
/// (`Ok(None)` from [`inject`]) — an error here means every trial against
/// this `(image, config)` is meaningless, so campaign runners fail the
/// owning shard/cell rather than the whole process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// The fault-free program did not halt within the instruction budget.
    BudgetExhausted {
        /// Instructions retired when the budget cut the run off.
        insts: u64,
    },
    /// The fault-free program trapped.
    Trapped(Trap),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::BudgetExhausted { insts } => {
                write!(f, "fault-free run exceeded instruction budget ({insts} insts)")
            }
            WorkloadError::Trapped(t) => write!(f, "fault-free run trapped: {t}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A single-bit fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Flip bit `bit` (0–31) of the address offset of the `nth` dynamic
    /// branch execution (0-based) in translated code. Transient: the
    /// encoding is restored after the branch executes once.
    AddrBit { nth: u64, bit: u8 },
    /// Flip bit `bit` (0–5) of the flags register immediately before the
    /// `nth` dynamic branch execution.
    FlagBit { nth: u64, bit: u8 },
}

/// How an injected run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The control-flow checking instrumentation reported the error.
    DetectedByCheck,
    /// Hardware memory protection caught it (execute permission, alignment,
    /// invalid instruction — the paper's category-F detection path).
    DetectedByHw,
    /// The program raised a visible fault (guest assert, division by zero,
    /// data access fault) — fail-stop, but not via control-flow checking.
    OtherFault,
    /// The program completed with output identical to the golden run.
    Benign,
    /// The program completed with wrong output or exit code — silent data
    /// corruption, the outcome the techniques exist to prevent.
    Sdc,
    /// The program exceeded its instruction budget (e.g. a fault-induced
    /// infinite loop).
    Timeout,
}

impl Outcome {
    /// All outcomes, in the order campaign reports index them.
    pub const ALL: [Outcome; 6] = [
        Outcome::DetectedByCheck,
        Outcome::DetectedByHw,
        Outcome::OtherFault,
        Outcome::Benign,
        Outcome::Sdc,
        Outcome::Timeout,
    ];

    /// This outcome's position in [`Outcome::ALL`].
    pub fn idx(self) -> usize {
        match self {
            Outcome::DetectedByCheck => 0,
            Outcome::DetectedByHw => 1,
            Outcome::OtherFault => 2,
            Outcome::Benign => 3,
            Outcome::Sdc => 4,
            Outcome::Timeout => 5,
        }
    }

    /// Whether the error was detected (by software or hardware) before
    /// producing silent data corruption.
    pub fn is_detected(self) -> bool {
        matches!(self, Outcome::DetectedByCheck | Outcome::DetectedByHw | Outcome::OtherFault)
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Outcome::DetectedByCheck => "detected(check)",
            Outcome::DetectedByHw => "detected(hw)",
            Outcome::OtherFault => "fault",
            Outcome::Benign => "benign",
            Outcome::Sdc => "SDC",
            Outcome::Timeout => "timeout",
        };
        f.write_str(s)
    }
}

/// Result of one injection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionResult {
    /// What happened.
    pub outcome: Outcome,
    /// The §2 category of the injected fault (NoError when the flipped bit
    /// could not change control flow).
    pub category: Category,
    /// Cache address of the faulted branch.
    pub site: u64,
    /// Instructions retired between injection and the end of the run.
    pub latency_insts: u64,
    /// Whether the faulty target landed on a translated block's
    /// *instrumentation* (head check sequence or terminator glue) rather
    /// than on a 1:1-copied guest instruction. Such sub-block landings sit
    /// below the paper's §2 block-granular error model: one past the
    /// signature updates is indistinguishable from taking the edge
    /// legitimately. Always `false` for flag faults.
    pub instrumentation_landing: bool,
}

/// The golden (fault-free) reference for SDC comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// Observable output stream.
    pub output: Vec<u64>,
    /// Exit code.
    pub exit_code: u64,
    /// Instructions retired.
    pub insts: u64,
    /// Dynamic branch executions in translated code (the fault-site count).
    pub branches: u64,
}

/// Runs `image` under the DBT configuration without faults, collecting the
/// golden output and the number of dynamic branch fault sites.
///
/// # Errors
///
/// [`WorkloadError`] when the fault-free program traps or does not halt
/// within the budget — the workload itself is unsound under this
/// configuration.
pub fn golden_run(image: &Image, cfg: &RunConfig) -> Result<Golden, WorkloadError> {
    golden_inner(image, cfg, |_, _, _| None)
}

/// The fault-free run behind [`golden_run`], snapshot capture and the
/// attack-surface walk. The run stops just before dynamic branch 0
/// executes and hands the machine to `at_branch` with that branch's index;
/// `at_branch` returns the next (greater) index it wants to see, or `None`
/// to run on to the end. Each stop is the branch ceiling of
/// [`Dbt::run_until`], the instant a trial striking at that index stops
/// at, so a checkpoint captured there is exactly the trial's state.
/// `at_branch` only observes, so the returned golden is the same whatever
/// it does.
pub(crate) fn golden_inner(
    image: &Image,
    cfg: &RunConfig,
    mut at_branch: impl FnMut(&mut Machine, &Dbt, u64) -> Option<u64>,
) -> Result<Golden, WorkloadError> {
    let (mut m, mut dbt) = build(image, cfg);
    let mut ceiling = Some(0);
    loop {
        match dbt.run_until(&mut m, cfg.max_insts, ceiling.unwrap_or(u64::MAX)) {
            DbtStop::BranchCeiling => {
                let index = m.cpu.stats().branches;
                ceiling = at_branch(&mut m, &dbt, index);
                debug_assert!(ceiling.is_none_or(|next| next > index), "observer must advance");
            }
            DbtStop::Exit(DbtExit::Halted { code }) => {
                let stats = m.cpu.stats();
                return Ok(Golden {
                    output: m.cpu.take_output(),
                    exit_code: code,
                    insts: stats.insts,
                    branches: stats.branches,
                });
            }
            DbtStop::Exit(DbtExit::StepLimit) => {
                return Err(WorkloadError::BudgetExhausted { insts: m.cpu.stats().insts })
            }
            DbtStop::Exit(DbtExit::Trapped(t)) => return Err(WorkloadError::Trapped(t)),
        }
    }
}

pub(crate) fn build(image: &Image, cfg: &RunConfig) -> (Machine, Dbt) {
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = Dbt::new(cfg.instrumenter(image), cfg.style, &mut m);
    // Attach eagerly: branch counting and fault placement must happen on
    // translated code, never on raw guest bytes (a fault applied to guest
    // memory would be baked into the translation permanently).
    dbt.attach(&mut m).expect("entry point translates");
    (m, dbt)
}

/// One experiment at a dynamic branch: a single-bit soft error or an
/// attack. Both kinds run through [`run_trial`] to the same
/// [`InjectionResult`], so campaigns, stores and reports treat them alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trial {
    /// A single-bit soft error.
    Fault(FaultSpec),
    /// An attacker-chosen control-flow corruption.
    Attack(AttackSpec),
}

impl Trial {
    /// The dynamic branch execution the trial strikes at (0-based).
    fn nth(&self) -> u64 {
        match self {
            Trial::Fault(FaultSpec::AddrBit { nth, .. } | FaultSpec::FlagBit { nth, .. }) => *nth,
            Trial::Attack(spec) => spec.nth,
        }
    }
}

/// A corruption applied at the strike branch, as the trial loop needs it.
pub(crate) struct Strike {
    pub(crate) category: Category,
    /// Cache address of the struck branch.
    pub(crate) site: u64,
    /// See [`InjectionResult::instrumentation_landing`].
    pub(crate) landing: bool,
    /// Where an attack went; `None` for faults.
    pub(crate) provenance: Option<AttackProvenance>,
    /// The step result of the corrupted instruction.
    pub(crate) step: DbtStep,
}

/// Runs one trial to an outcome on the block-fused DBT, fast-forwarding
/// through `snapshots` when provided: the nearest checkpoint at-or-below
/// the strike branch is restored and only the residual prefix runs,
/// reusing the checkpoint's translated code cache. Falls back to
/// from-scratch when the set was captured under a different configuration
/// or holds no usable checkpoint. The outcome is bit-identical to the
/// from-scratch path either way, and to the per-step reference
/// ([`run_trial_on`] with [`EngineSpec::DbtStep`]).
///
/// Returns `Ok(None)` when the trial is unplaceable: it names a dynamic
/// branch beyond the program's execution (use [`golden_run`]'s branch
/// count to stay in range), or an attack archetype has no candidate target
/// there.
///
/// # Errors
///
/// [`WorkloadError`] when the fault-free prefix itself misbehaves — only
/// possible when `golden` does not actually describe this
/// `(image, config)`.
pub fn run_trial(
    image: &Image,
    cfg: &RunConfig,
    trial: Trial,
    golden: &Golden,
    snapshots: Option<&SnapshotSet>,
) -> Result<Option<InjectionResult>, WorkloadError> {
    run_trial_on(EngineSpec::DbtFused, image, cfg, trial, golden, snapshots)
}

/// [`run_trial`] on `engine`: [`EngineSpec::DbtFused`] is what
/// [`run_trial`] runs, [`EngineSpec::DbtStep`] the per-instruction
/// [`Dbt::step`] reference (the machine runs without a decode cache) that
/// engine-differential tests compare it against. Campaigns only run the
/// fused engine.
///
/// # Panics
///
/// On any other engine: native engines cannot be cloned into snapshots,
/// and tiered ones are not trial engines.
///
/// # Errors
///
/// As [`run_trial`].
pub fn run_trial_on(
    engine: EngineSpec,
    image: &Image,
    cfg: &RunConfig,
    trial: Trial,
    golden: &Golden,
    snapshots: Option<&SnapshotSet>,
) -> Result<Option<InjectionResult>, WorkloadError> {
    assert!(
        matches!(engine, EngineSpec::DbtFused | EngineSpec::DbtStep),
        "trials run on dbt-fused or dbt-step, not {}",
        engine.label()
    );
    Ok(run_trial_inner(engine, image, cfg, trial, golden, None, snapshots)?.map(|(r, _, _)| r))
}

/// [`run_trial`] for a fault from scratch. Kept as a one-line delegation
/// because `perfbench/` calls it.
///
/// # Errors
///
/// As [`run_trial`].
pub fn inject(
    image: &Image,
    cfg: &RunConfig,
    spec: FaultSpec,
    golden: &Golden,
) -> Result<Option<InjectionResult>, WorkloadError> {
    run_trial(image, cfg, Trial::Fault(spec), golden, None)
}

/// As [`run_trial`], with an execution tracer of `capacity` instructions
/// attached, returning the result alongside the tracer at its final state
/// — the last-N window ends at the detection point (the trapping
/// instruction itself never commits, hence never appears) — and, for
/// attacks, where the attack went. Trials are deterministic, so re-running
/// a plain trial through here reproduces the identical outcome with
/// forensics attached.
///
/// With `snapshots`, the trace stays bit-identical to the from-scratch
/// path: only checkpoints at least `capacity` branches before the strike
/// point are used (every branch is an instruction, so at least `capacity`
/// instructions and `capacity` branches retire between restore and strike,
/// filling both tracer rings with exactly the entries the from-scratch run
/// would hold), and the tracer's retired counter resumes from the
/// checkpoint's instruction count.
///
/// # Errors
///
/// As [`run_trial`].
pub fn run_trial_traced(
    image: &Image,
    cfg: &RunConfig,
    trial: Trial,
    golden: &Golden,
    capacity: usize,
    snapshots: Option<&SnapshotSet>,
) -> Result<Option<(InjectionResult, Tracer, Option<AttackProvenance>)>, WorkloadError> {
    Ok(run_trial_inner(EngineSpec::DbtFused, image, cfg, trial, golden, Some(capacity), snapshots)?
        .map(|(r, t, p)| (r, t.expect("tracer attached"), p)))
}

/// A finished trial: its result, the tracer when one was attached, and
/// where an attack went.
type Finished = (InjectionResult, Option<Tracer>, Option<AttackProvenance>);

/// The trial loop: replay (or fast-forward) the fault-free prefix to the
/// strike branch, corrupt the machine there as `trial` says, then run to an
/// outcome. A tracer, or `engine` without a decode cache, makes
/// [`Dbt::run_until`] step one instruction at a time.
fn run_trial_inner(
    engine: EngineSpec,
    image: &Image,
    cfg: &RunConfig,
    trial: Trial,
    golden: &Golden,
    trace_capacity: Option<usize>,
    snapshots: Option<&SnapshotSet>,
) -> Result<Option<Finished>, WorkloadError> {
    let nth = trial.nth();
    // Fast-forward: restore the nearest checkpoint at-or-below the target
    // branch instead of replaying the prefix. Traced runs additionally
    // require `capacity` branches of margin before the injection point so
    // the last-N windows fill identically to the from-scratch stream.
    let usable = snapshots.filter(|s| s.matches(cfg));
    let target = match trace_capacity {
        None => Some(nth),
        Some(cap) => nth.checked_sub(cap as u64),
    };
    let restored = usable.and_then(|s| target.and_then(|t| s.nearest(t)));
    if let Some(s) = usable {
        match restored {
            Some(snap) => s.note_restore(snap.branch_index, nth - snap.branch_index),
            None => s.note_miss(nth),
        }
    }
    let (mut m, mut dbt) = match restored {
        Some(snap) => (snap.machine.restore(), snap.dbt.clone()),
        None => build(image, cfg),
    };
    if !engine.decode_cache() {
        m.set_decode_cache(false);
    }
    if let Some(capacity) = trace_capacity {
        // From scratch this is a plain fresh tracer (zero retired); from a
        // checkpoint it resumes the count at the instructions already
        // executed before the restore point.
        m.attach_tracer_resumed(capacity, m.cpu.stats().insts);
    }
    let budget = golden.insts * 3 + 100_000;

    // Phase 1: run to the strike point — the branch ceiling `nth` — and
    // corrupt the machine there.
    match dbt.run_until(&mut m, budget, nth) {
        DbtStop::BranchCeiling => {}
        // Out of budget, or the program ended before the nth branch.
        DbtStop::Exit(DbtExit::StepLimit | DbtExit::Halted { .. }) => return Ok(None),
        DbtStop::Exit(DbtExit::Trapped(t)) => return Err(WorkloadError::Trapped(t)),
    }
    let strike = match trial {
        Trial::Fault(spec) => Some(inject_now(&mut m, &mut dbt, image, spec)),
        Trial::Attack(spec) => attack_now(&mut m, &mut dbt, image, spec),
    };
    let Some(strike) = strike else {
        return Ok(None);
    };
    let insts_at_injection = m.cpu.stats().insts;

    // Phase 2: run to an outcome (the faulted step itself may already have
    // produced one). With snapshots available and no tracer attached, the
    // run additionally performs convergence pruning: each golden checkpoint
    // after the strike is a branch ceiling, and when the trial's
    // architectural state there is bit-identical to the checkpoint (CPU
    // including counters and the output stream, every written page — the
    // code cache among them — and page permissions), the deterministic
    // remainder *is* the golden remainder. The outcome is then provably
    // Benign with exactly the latency the full run would report, so the
    // suffix is skipped. Traced runs never prune: the tracer window must
    // hold the genuinely executed final instructions.
    let prune = match trace_capacity {
        None => usable,
        Some(_) => None,
    };
    let mut boundaries = prune.map_or(&[][..], |s| s.after(nth)).iter();
    let end = match strike.step {
        DbtStep::Continue => loop {
            let ceiling = boundaries.as_slice().first().map_or(u64::MAX, |s| s.branch_index);
            match dbt.run_until(&mut m, budget, ceiling) {
                DbtStop::Exit(exit) => break Some(exit),
                DbtStop::BranchCeiling => {
                    let snap = boundaries.next().expect("a checkpoint set the ceiling");
                    if snap.machine.matches(&m) {
                        prune.expect("pruning implies a snapshot set").note_pruned();
                        break None;
                    }
                }
            }
        },
        DbtStep::Halted => Some(DbtExit::Halted { code: m.cpu.reg(cfed_isa::Reg::R0) }),
        DbtStep::Exit(t) => Some(DbtExit::Trapped(t)),
    };
    let outcome = match end {
        // Pruned: converged onto the golden run.
        None => Outcome::Benign,
        Some(DbtExit::Halted { code }) => {
            let ok = m.cpu.output() == golden.output.as_slice() && code == golden.exit_code;
            if ok {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
        Some(DbtExit::Trapped(t)) => outcome_of_trap(t),
        Some(DbtExit::StepLimit) => Outcome::Timeout,
    };
    let insts_at_end = if end.is_some() { m.cpu.stats().insts } else { golden.insts };

    let result = InjectionResult {
        outcome,
        category: strike.category,
        site: strike.site,
        latency_insts: insts_at_end - insts_at_injection,
        instrumentation_landing: strike.landing,
    };
    Ok(Some((result, m.tracer.take(), strike.provenance)))
}

/// Scans straight-line code from `from` for the next flag-reading branch
/// (stopping at flag writers, non-flag branches, or after a small window)
/// and reports whether `flipped` changes its direction relative to the
/// current flags.
fn stale_flags_flip_downstream(m: &Machine, from: u64, flipped: Flags) -> bool {
    let mut addr = from;
    for _ in 0..8 {
        let Ok(bytes) = m.mem.fetch(addr) else { return false };
        let Ok(inst) = cfed_isa::Inst::decode(&bytes) else { return false };
        if inst.reads_flags_for_direction() {
            return m.cpu.would_take_with_flags(&inst, flipped)
                != m.cpu.would_take_with_flags(&inst, m.cpu.flags());
        }
        if inst.writes_flags() || inst.is_branch() || inst.is_terminator() {
            return false;
        }
        addr += INST_SIZE_U64;
    }
    false
}

/// Classifies a surfaced trap as a detection outcome.
fn outcome_of_trap(t: Trap) -> Outcome {
    if t.is_cfe_report() {
        Outcome::DetectedByCheck
    } else if t.is_hardware_cfe_detection() {
        Outcome::DetectedByHw
    } else {
        Outcome::OtherFault
    }
}

/// Applies the fault at the current instruction (a branch), executes that
/// one instruction, and restores any transient state.
fn inject_now(m: &mut Machine, dbt: &mut Dbt, image: &Image, spec: FaultSpec) -> Strike {
    let site = m.cpu.ip();
    let inst = m.peek_inst().expect("branch decodes");
    debug_assert!(inst.is_branch());
    let layout = CacheLayout::snapshot(dbt, image.base()..image.base() + image.code().len() as u64);
    let taken = m.cpu.would_take(&inst);
    let fall = site + INST_SIZE_U64;

    match spec {
        FaultSpec::AddrBit { bit, .. } => {
            let offset = inst
                .branch_offset()
                .expect("all cache branches are direct (indirects become dispatcher exits)");
            let faulty_off = offset ^ (1i32 << (bit % 32));
            let correct = if taken { inst.direct_target(site).expect("direct") } else { fall };
            let faulty_target =
                site.wrapping_add(INST_SIZE_U64).wrapping_add(faulty_off as i64 as u64);
            let category = if !taken {
                Category::NoError
            } else {
                let block = layout.block_of(site).unwrap_or(site..site + INST_SIZE_U64);
                classify_addr_fault(
                    &BranchFault {
                        branch_block: block,
                        fall_through: fall,
                        correct_target: correct,
                        faulty_target,
                    },
                    &layout,
                )
            };
            let glue = category != Category::NoError && layout.is_instrumentation(faulty_target);
            // Transient corruption of the fetched encoding.
            let original: [u8; 8] = m.mem.peek(site, 8).try_into().expect("slot");
            let faulted = inst.with_branch_offset(faulty_off).encode();
            m.mem.install(site, &faulted);
            let step = dbt.step(m);
            m.mem.install(site, &original);
            Strike { category, site, landing: glue, provenance: None, step }
        }
        FaultSpec::FlagBit { bit, .. } => {
            let flipped = m.cpu.flags().with_bit_flipped(bit % Flags::BITS as u8);
            let mut direction_changed = m.cpu.would_take_with_flags(&inst, flipped) != taken;
            if !direction_changed && !inst.reads_flags_for_direction() {
                // The faulted branch ignores the flags, but the corruption
                // persists: if the next flag-reading branch downstream (with
                // no flag write in between) flips, this is still a mistaken
                // branch — the paper's "caused by instructions executed
                // earlier than the branch" case of category A.
                let from = if taken {
                    inst.direct_target(site).unwrap_or(site + INST_SIZE_U64)
                } else {
                    site + INST_SIZE_U64
                };
                direction_changed = stale_flags_flip_downstream(m, from, flipped);
            }
            let category = classify_flag_fault(direction_changed);
            m.cpu.set_flags(flipped);
            let step = dbt.step(m);
            Strike { category, site, landing: false, provenance: None, step }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_core::TechniqueKind;
    use cfed_lang::compile;

    fn image() -> Image {
        compile(
            r#"
            fn main() {
                let i = 0;
                let acc = 0;
                while (i < 40) {
                    if (i % 3 == 0) { acc = acc + i; } else { acc = acc + 1; }
                    i = i + 1;
                }
                out(acc);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn golden_run_counts_branches() {
        let img = image();
        let g = golden_run(&img, &RunConfig::technique(TechniqueKind::EdgCf)).unwrap();
        assert!(g.branches > 100);
        assert_eq!(g.output.len(), 1);
    }

    #[test]
    fn golden_run_budget_exhaustion_is_typed() {
        let img = compile("fn main() { let i = 0; while (i < 10) { i = i * 1; } }").unwrap();
        let cfg = RunConfig { max_insts: 5_000, ..RunConfig::baseline() };
        match golden_run(&img, &cfg) {
            Err(WorkloadError::BudgetExhausted { insts }) => assert!(insts >= 5_000),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_nth_returns_none() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let g = golden_run(&img, &cfg).unwrap();
        let r = run_trial(
            &img,
            &cfg,
            Trial::Fault(FaultSpec::AddrBit { nth: g.branches + 100, bit: 3 }),
            &g,
            None,
        )
        .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn flag_fault_without_direction_change_is_benign() {
        let img = image();
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let g = golden_run(&img, &cfg).unwrap();
        // Find an injection whose classification is NoError; it must end
        // benign (single-fault model, no other corruption).
        let mut found = false;
        for nth in 0..40 {
            let r =
                run_trial(&img, &cfg, Trial::Fault(FaultSpec::FlagBit { nth, bit: 1 }), &g, None)
                    .unwrap();
            if let Some(r) = r {
                if r.category == Category::NoError {
                    assert_eq!(r.outcome, Outcome::Benign, "NoError fault at {nth} not benign");
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "expected at least one direction-preserving flag fault");
    }

    #[test]
    fn high_offset_bits_detected_by_hardware() {
        // Flipping bit 30 of an offset flings control far outside code:
        // hardware (category F path) must catch it under any technique.
        let img = image();
        let cfg = RunConfig::baseline();
        let g = golden_run(&img, &cfg).unwrap();
        let mut hw = 0;
        let mut tried = 0;
        for nth in (0..g.branches.min(60)).step_by(7) {
            if let Some(r) =
                run_trial(&img, &cfg, Trial::Fault(FaultSpec::AddrBit { nth, bit: 30 }), &g, None)
                    .unwrap()
            {
                tried += 1;
                if r.category == Category::F {
                    assert!(
                        matches!(r.outcome, Outcome::DetectedByHw | Outcome::OtherFault),
                        "F fault at branch {nth} ended as {:?}",
                        r.outcome
                    );
                    hw += 1;
                }
            }
        }
        assert!(tried > 0);
        assert!(hw > 0, "no category-F faults produced");
    }

    #[test]
    fn techniques_catch_what_baseline_misses() {
        // Low offset bits keep the target inside code: without checking,
        // some SDC or silent weirdness; with RCF, detection.
        let img = image();
        let base_cfg = RunConfig::baseline();
        let rcf_cfg = RunConfig::technique(TechniqueKind::Rcf);
        let g_base = golden_run(&img, &base_cfg).unwrap();
        let g_rcf = golden_run(&img, &rcf_cfg).unwrap();

        let mut baseline_undetected = 0;
        let mut rcf_detected = 0;
        let mut rcf_sdc = 0;
        for nth in 0..60 {
            for bit in [3u8, 4, 5] {
                let spec_b = FaultSpec::AddrBit { nth, bit };
                if let Some(r) =
                    run_trial(&img, &base_cfg, Trial::Fault(spec_b), &g_base, None).unwrap()
                {
                    if r.category != Category::NoError && !r.outcome.is_detected() {
                        baseline_undetected += 1;
                    }
                }
                if let Some(r) =
                    run_trial(&img, &rcf_cfg, Trial::Fault(spec_b), &g_rcf, None).unwrap()
                {
                    if r.category != Category::NoError {
                        match r.outcome {
                            Outcome::DetectedByCheck => rcf_detected += 1,
                            Outcome::Sdc => rcf_sdc += 1,
                            _ => {}
                        }
                    }
                }
            }
        }
        assert!(baseline_undetected > 0, "baseline should let some errors through");
        assert!(rcf_detected > 0, "RCF must detect in-code control-flow errors");
        assert_eq!(rcf_sdc, 0, "RCF must not allow SDC from single branch faults");
    }
}
