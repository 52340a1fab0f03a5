//! The N-way differential oracle.
//!
//! Runs one image on every execution backend the stack provides — raw
//! interpreter, fused interpreter, DBT per-step, DBT block-fused, DBT
//! native x86-64, plus the profile-guided trace tier (fused and native) on
//! the configs whose check placement it can verify — crossed with every
//! control-flow-checking technique and both conditional-update styles, then
//! diffs the runs pairwise. The first divergent pair (in a fixed,
//! deterministic order) is the verdict.
//!
//! Three comparison strengths, matching the invariants the stack pins in
//! its own test suites:
//!
//! * **Interpreter pair** (raw vs fused): the decode cache is pure
//!   mechanism, so *full architectural state* must match — registers,
//!   flags, IP, retired-instruction/cycle counts and the output stream.
//! * **DBT dispatch group** (per-step vs block-fused vs native, same
//!   config): exit, output, cycles, retired instructions and the translator
//!   counters `blocks`/`chains`/`dispatches`/`smc_flushes`/
//!   `dispatch_ic_hits` must match (neither block fusion nor native code
//!   generation may change what was translated or executed). The native
//!   engine transparently falls back to the fused cache on hosts where the
//!   backend is unavailable, so this comparison is meaningful everywhere.
//! * **Cross-engine** (interpreter vs DBT): instrumentation legitimately
//!   changes cost, so only the observable contract is compared — output
//!   stream and normalized exit (see [`exits_compatible`]).

use crate::gen::{GeneratedProgram, Tier};
use cfed_asm::Image;
use cfed_core::{Engine, RunConfig, RunOutcome, TechniqueKind};
use cfed_dbt::{DbtExit, DbtStats, EngineSpec, NativeDbt, UpdateStyle};
use cfed_sim::{Cpu, Trap};

/// Promotion threshold for the trace-tier backends: low enough that even
/// small generated loops tier up mid-run, exercising trace formation, side
/// exits and demotion under fuzz (the `perf`-motivated defaults would never
/// fire inside the oracle's instruction budgets).
pub const TIER_THRESHOLD: u32 = 4;

/// Identifies one backend in the oracle matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendId {
    /// Execution engine, as requested: the oracle runs its
    /// [`EngineSpec::resolve`]d form, so under `CFED_NO_NATIVE=1` or
    /// `CFED_NO_TIER=1` a backend degrades to an engine it must still agree
    /// with. Tiered engines are instantiated only for configs whose check
    /// placement the trace verifier understands (uninstrumented and EdgCF).
    pub engine: EngineSpec,
    /// Technique, or `None` for uninstrumented (always `None` for the
    /// interpreter engines, which cannot carry instrumentation).
    pub technique: Option<TechniqueKind>,
    /// Conditional-update style (meaningful only with a technique).
    pub style: UpdateStyle,
}

impl BackendId {
    /// Stable human-readable label used in reports and divergence records.
    pub fn label(&self) -> String {
        let engine = self.engine.label();
        match self.technique {
            None => engine.to_string(),
            Some(t) => {
                let style = match self.style {
                    UpdateStyle::Jcc => "jcc",
                    UpdateStyle::CMov => "cmov",
                };
                format!("{engine}/{t}/{style}")
            }
        }
    }
}

/// What one backend produced for one program.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Which backend.
    pub id: BackendId,
    /// How it ended.
    pub exit: DbtExit,
    /// Observable output stream.
    pub output: Vec<u64>,
    /// Cost-model cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub insts: u64,
    /// Final architectural state (output already drained).
    pub cpu: Cpu,
    /// Translator counters (DBT engines only).
    pub dbt: Option<DbtStats>,
}

/// A recorded mismatch between two backends.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Label of the first backend of the pair.
    pub left: String,
    /// Label of the second backend of the pair.
    pub right: String,
    /// Which comparison failed (`exit`, `output`, `state`, `cost`,
    /// `dbt-stats`).
    pub field: String,
    /// Human-readable detail of both sides.
    pub detail: String,
}

/// Everything the oracle learned about one program.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Every backend run, in matrix order.
    pub runs: Vec<BackendRun>,
    /// The first divergent pair, if any.
    pub divergence: Option<Divergence>,
}

/// The configurations the DBT engines are crossed with: the uninstrumented
/// baseline plus all five techniques under both update styles.
pub fn technique_matrix() -> Vec<(Option<TechniqueKind>, UpdateStyle)> {
    let mut m = vec![(None, UpdateStyle::Jcc)];
    for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
        for kind in TechniqueKind::ALL_FIVE {
            m.push((Some(kind), style));
        }
    }
    m
}

/// Whether a config additionally gets the two trace-tier backends: the
/// placement verifier only understands uninstrumented and EdgCF signature
/// shapes, so only those configs can promote.
fn config_supports_tier(technique: Option<TechniqueKind>) -> bool {
    technique.is_none_or(TechniqueKind::supports_trace_tier)
}

fn run_backend(image: &Image, id: BackendId, max_insts: u64) -> BackendRun {
    let cfg =
        RunConfig { technique: id.technique, style: id.style, max_insts, ..RunConfig::default() };
    let mut engine = Engine::new(image, &cfg, id.engine.resolve());
    let exit = engine.run(max_insts);
    let dbt = engine.dbt.as_ref().map(NativeDbt::stats);
    let RunOutcome { output, cycles, insts, .. } = engine.outcome(exit);
    BackendRun { id, exit, output, cycles, insts, cpu: engine.machine.cpu, dbt }
}

/// Exit compatibility across engines, where instrumentation shifts
/// addresses and costs.
///
/// * `Halted`: codes must match exactly.
/// * Traps executing *inside cache code* under the DBT (`DivByZero`,
///   `Software`) report cache addresses, so only the variant (and software
///   trap code) must match.
/// * Memory faults carry *data* addresses, which instrumentation never
///   changes: exact equality.
/// * Fetch faults carry *guest* addresses (the DBT reconstructs them):
///   exact equality.
/// * `StepLimit` on either side makes the pair incomparable (budgets bite
///   at different guest points once instrumentation changes cost), so it is
///   compatible with anything.
pub fn exits_compatible(a: &DbtExit, b: &DbtExit) -> bool {
    match (a, b) {
        (DbtExit::StepLimit, _) | (_, DbtExit::StepLimit) => true,
        (DbtExit::Halted { code: ca }, DbtExit::Halted { code: cb }) => ca == cb,
        (DbtExit::Trapped(ta), DbtExit::Trapped(tb)) => traps_compatible(ta, tb),
        _ => false,
    }
}

fn traps_compatible(a: &Trap, b: &Trap) -> bool {
    match (a, b) {
        (Trap::DivByZero { .. }, Trap::DivByZero { .. }) => true,
        (Trap::Software { code: ca, .. }, Trap::Software { code: cb, .. }) => ca == cb,
        _ => a == b,
    }
}

/// Whether a technique run is allowed to diverge from the uninstrumented
/// behaviour on this program tier.
///
/// The CFG-dependent prior-work techniques (CFCSS, ECCA) instrument from a
/// *static* CFG of the initial image. The raw-VISA tier deliberately
/// generates what static analysis cannot see — data-driven indirect jumps
/// and self-modifying stores — so on that tier those two techniques may
/// legitimately report a (false-positive) control-flow error. The report
/// itself must still be a *detection* (CFE trap), never silent corruption,
/// and the per-step/fused pair must still agree exactly.
fn may_false_positive(tier: Tier, technique: Option<TechniqueKind>) -> bool {
    tier == Tier::Visa
        && matches!(technique, Some(TechniqueKind::Cfcss) | Some(TechniqueKind::Ecca))
}

fn is_cfe_detection_exit(exit: &DbtExit) -> bool {
    match exit {
        DbtExit::Trapped(t) => t.is_cfe_report() || matches!(t, Trap::DivByZero { .. }),
        _ => false,
    }
}

fn diff_exact_cpu(a: &BackendRun, b: &BackendRun) -> Option<Divergence> {
    if a.exit != b.exit {
        return Some(divergence(a, b, "exit", format!("{:?} vs {:?}", a.exit, b.exit)));
    }
    if a.cpu != b.cpu {
        return Some(divergence(
            a,
            b,
            "state",
            format!(
                "architectural state differs (ip {:#x} vs {:#x}, insts {} vs {})",
                a.cpu.ip(),
                b.cpu.ip(),
                a.insts,
                b.insts
            ),
        ));
    }
    diff_output(a, b)
}

fn diff_output(a: &BackendRun, b: &BackendRun) -> Option<Divergence> {
    if a.output != b.output {
        let n = a.output.iter().zip(&b.output).take_while(|(x, y)| x == y).count();
        return Some(divergence(
            a,
            b,
            "output",
            format!(
                "streams differ at index {n} (lengths {} vs {}): {:?} vs {:?}",
                a.output.len(),
                b.output.len(),
                a.output.get(n),
                b.output.get(n)
            ),
        ));
    }
    None
}

fn diff_dispatch_pair(step: &BackendRun, fused: &BackendRun) -> Option<Divergence> {
    if step.exit != fused.exit {
        return Some(divergence(
            step,
            fused,
            "exit",
            format!("{:?} vs {:?}", step.exit, fused.exit),
        ));
    }
    if let Some(d) = diff_output(step, fused) {
        return Some(d);
    }
    if (step.cycles, step.insts) != (fused.cycles, fused.insts) {
        return Some(divergence(
            step,
            fused,
            "cost",
            format!(
                "cycles {} vs {}, insts {} vs {}",
                step.cycles, fused.cycles, step.insts, fused.insts
            ),
        ));
    }
    let (a, b) = (step.dbt.as_ref()?, fused.dbt.as_ref()?);
    let key = |s: &DbtStats| (s.blocks, s.chains, s.dispatches, s.smc_flushes, s.dispatch_ic_hits);
    if key(a) != key(b) {
        return Some(divergence(step, fused, "dbt-stats", format!("{:?} vs {:?}", key(a), key(b))));
    }
    None
}

/// Untiered vs tiered run of the *same* config: trace formation changes
/// cost (that is its purpose) and cache-code trap addresses, so only the
/// guest-observable contract is compared. `StepLimit` on either side makes
/// the pair incomparable — the budget bites at different guest points once
/// traces retire fewer instructions.
fn diff_tier_pair(base: &BackendRun, tiered: &BackendRun) -> Option<Divergence> {
    if matches!(base.exit, DbtExit::StepLimit) || matches!(tiered.exit, DbtExit::StepLimit) {
        return None;
    }
    if !exits_compatible(&base.exit, &tiered.exit) {
        return Some(divergence(
            base,
            tiered,
            "exit",
            format!("{:?} vs {:?}", base.exit, tiered.exit),
        ));
    }
    diff_output(base, tiered)
}

fn diff_cross_engine(native: &BackendRun, dbt: &BackendRun, tier: Tier) -> Option<Divergence> {
    if matches!(native.exit, DbtExit::StepLimit) || matches!(dbt.exit, DbtExit::StepLimit) {
        return None; // budgets bite at different points; nothing comparable
    }
    if may_false_positive(tier, dbt.id.technique) && is_cfe_detection_exit(&dbt.exit) {
        // A static-CFG technique tripping on dynamic code is a detection,
        // not a divergence. Output up to the trap must still be a prefix.
        return (!native.output.starts_with(&dbt.output)).then(|| {
            divergence(
                native,
                dbt,
                "output",
                format!(
                    "false-positive detection but output is not a prefix: {:?} vs {:?}",
                    native.output, dbt.output
                ),
            )
        });
    }
    if !exits_compatible(&native.exit, &dbt.exit) {
        return Some(divergence(
            native,
            dbt,
            "exit",
            format!("{:?} vs {:?}", native.exit, dbt.exit),
        ));
    }
    diff_output(native, dbt)
}

fn divergence(a: &BackendRun, b: &BackendRun, field: &str, detail: String) -> Divergence {
    Divergence { left: a.id.label(), right: b.id.label(), field: field.into(), detail }
}

/// Runs the full backend matrix on one program and reports the first
/// divergent pair.
pub fn run_oracle(prog: &GeneratedProgram, max_insts: u64) -> OracleReport {
    let image = &prog.image;
    let run = |engine, technique, style| {
        run_backend(image, BackendId { engine, technique, style }, max_insts)
    };
    let raw = run(EngineSpec::InterpRaw, None, UpdateStyle::Jcc);
    let fused = run(EngineSpec::InterpFused, None, UpdateStyle::Jcc);
    let mut divergence = diff_exact_cpu(&raw, &fused);
    let mut runs = vec![raw, fused];

    for (technique, style) in technique_matrix() {
        let step = run(EngineSpec::DbtStep, technique, style);
        let fused_dbt = run(EngineSpec::DbtFused, technique, style);
        let native_dbt = run(EngineSpec::DbtNative, technique, style);
        if divergence.is_none() {
            divergence = diff_dispatch_pair(&step, &fused_dbt)
                .or_else(|| diff_dispatch_pair(&fused_dbt, &native_dbt))
                .or_else(|| diff_cross_engine(&runs[0], &fused_dbt, prog.tier));
        }
        let tiered = config_supports_tier(technique).then(|| {
            let tf = run(EngineSpec::DbtTierFused(TIER_THRESHOLD), technique, style);
            let tn = run(EngineSpec::DbtTierNative(TIER_THRESHOLD), technique, style);
            (tf, tn)
        });
        if let Some((tf, tn)) = &tiered {
            if divergence.is_none() {
                // Tiered fused vs tiered native is a dispatch pair (exactly
                // equal, traces included); tiered vs untiered compares the
                // guest-observable contract only.
                divergence = diff_dispatch_pair(tf, tn).or_else(|| diff_tier_pair(&fused_dbt, tf));
            }
        }
        runs.push(step);
        runs.push(fused_dbt);
        runs.push(native_dbt);
        if let Some((tf, tn)) = tiered {
            runs.push(tf);
            runs.push(tn);
        }
    }

    OracleReport { runs, divergence }
}

/// Re-runs only the recorded diverging backend pair — the cheap predicate
/// the shrinker uses (2 runs instead of the full matrix).
pub fn pair_diverges(image: &Image, left: &str, right: &str, tier: Tier, max_insts: u64) -> bool {
    let all = backend_ids();
    let Some(a) = all.iter().find(|b| b.label() == left) else { return false };
    let Some(b) = all.iter().find(|b| b.label() == right) else { return false };
    let (ra, rb) = (run_backend(image, *a, max_insts), run_backend(image, *b, max_insts));
    diff_for_pair(&ra, &rb, tier).is_some()
}

/// Every backend id of the matrix, in matrix order.
pub fn backend_ids() -> Vec<BackendId> {
    let [raw, fused, dbt @ ..] = EngineSpec::all(TIER_THRESHOLD);
    let mut ids = vec![
        BackendId { engine: raw, technique: None, style: UpdateStyle::Jcc },
        BackendId { engine: fused, technique: None, style: UpdateStyle::Jcc },
    ];
    for (technique, style) in technique_matrix() {
        for engine in dbt {
            if !engine.is_tiered() || config_supports_tier(technique) {
                ids.push(BackendId { engine, technique, style });
            }
        }
    }
    ids
}

/// The comparison the oracle would apply to this specific pair.
fn diff_for_pair(a: &BackendRun, b: &BackendRun, tier: Tier) -> Option<Divergence> {
    let (ea, eb) = (a.id.engine, b.id.engine);
    match (ea.is_dbt(), eb.is_dbt()) {
        (false, false) => diff_exact_cpu(a, b),
        (false, true) => diff_cross_engine(a, b, tier),
        (true, false) => diff_cross_engine(b, a, tier),
        (true, true) => match (ea.is_tiered(), eb.is_tiered()) {
            (false, true) => diff_tier_pair(a, b),
            (true, false) => diff_tier_pair(b, a),
            _ => diff_dispatch_pair(a, b),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Tier};

    #[test]
    fn matrix_covers_all_paths_and_techniques() {
        let ids = backend_ids();
        // 2 interpreters + 3 DBT flavours per config + 2 tier flavours on
        // the 3 trace-capable configs (baseline, EdgCF × both styles).
        assert_eq!(ids.len(), 2 + 3 * (1 + 2 * 5) + 2 * 3);
        for engine in EngineSpec::all(TIER_THRESHOLD) {
            assert!(ids.iter().any(|b| b.engine == engine));
        }
        for kind in TechniqueKind::ALL_FIVE {
            for style in [UpdateStyle::Jcc, UpdateStyle::CMov] {
                assert!(ids.iter().any(|b| b.technique == Some(kind) && b.style == style));
            }
        }
        // Labels are unique (they key divergence records).
        let mut labels: Vec<_> = ids.iter().map(|b| b.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ids.len());
    }

    #[test]
    fn clean_programs_produce_no_divergence() {
        for seed in [3u64, 17] {
            for tier in [Tier::MiniC, Tier::Visa] {
                let prog = generate(seed, tier);
                let report = run_oracle(&prog, 2_000_000);
                assert!(
                    report.divergence.is_none(),
                    "seed {seed} {tier:?}: {:?}",
                    report.divergence
                );
            }
        }
    }

    #[test]
    fn tier_backends_promote_mid_run() {
        if !EngineSpec::DbtTierFused(TIER_THRESHOLD).resolve().is_tiered() {
            return; // CFED_NO_TIER=1: tier backends degrade by design
        }
        // MiniC programs are loop-heavy: at threshold 4 the tiered backends
        // must actually form traces mid-run, or the new matrix rows would be
        // silently inert.
        let mut traces = 0u64;
        for seed in [3u64, 17] {
            let prog = generate(seed, Tier::MiniC);
            let report = run_oracle(&prog, 2_000_000);
            assert!(report.divergence.is_none(), "seed {seed}: {:?}", report.divergence);
            for run in &report.runs {
                if run.id.engine.is_tiered() {
                    traces += run.dbt.as_ref().expect("dbt stats").traces;
                }
            }
        }
        assert!(traces >= 1, "no tiered backend promoted on loop-heavy programs");
    }

    #[test]
    fn trace_flush_scenario_survives_the_full_matrix() {
        // Tier-up followed by an SMC store into the traced page: the
        // demotion/retranslation path must stay coherent across all 41
        // backends (generated programs rarely hit this combination, so the
        // scenario is pinned by hand).
        use cfed_isa::{AluOp, Inst, Reg};
        let patch = Inst::AluI { op: AluOp::Add, dst: Reg::R5, imm: 2 };
        let mut asm = cfed_asm::Asm::new();
        let pool = asm.data_u64(&[u64::from_le_bytes(patch.encode())]);
        asm.label("start");
        asm.call("hotfn");
        asm.mov_addr(Reg::R2, pool);
        asm.ld(Reg::R3, Reg::R2, 0);
        asm.mov_label(Reg::R4, "patchsite");
        asm.st(Reg::R4, Reg::R3, 0);
        asm.call("hotfn");
        asm.halt();
        asm.label("hotfn");
        asm.movri(Reg::R0, 0);
        asm.movri(Reg::R5, 0);
        asm.label("body");
        asm.label("patchsite");
        asm.alu(AluOp::Add, Reg::R5, Reg::R0);
        asm.alui(AluOp::Add, Reg::R0, 1);
        asm.cmpi(Reg::R0, 50);
        asm.jcc(cfed_isa::Cond::L, "body");
        asm.out(Reg::R5);
        asm.ret();
        let image = asm.assemble("start").unwrap();
        let prog = GeneratedProgram { tier: Tier::Visa, seed: 0, source: None, image };
        let report = run_oracle(&prog, 2_000_000);
        assert!(report.divergence.is_none(), "{:?}", report.divergence);
        if EngineSpec::DbtTierFused(TIER_THRESHOLD).resolve().is_tiered() {
            let demoted = report.runs.iter().any(|r| {
                r.id.engine.is_tiered()
                    && r.dbt.as_ref().is_some_and(|s| s.traces >= 1 && s.trace_demotions >= 1)
            });
            assert!(demoted, "the SMC store must flush an installed trace");
        }
    }

    #[test]
    fn exit_normalization() {
        use cfed_sim::Trap;
        let a = DbtExit::Trapped(Trap::DivByZero { addr: 0x100 });
        let b = DbtExit::Trapped(Trap::DivByZero { addr: 0x9000 });
        assert!(exits_compatible(&a, &b));
        let c = DbtExit::Trapped(Trap::PermRead { addr: 8 });
        let d = DbtExit::Trapped(Trap::PermRead { addr: 16 });
        assert!(!exits_compatible(&c, &d));
        assert!(exits_compatible(&DbtExit::StepLimit, &c));
        assert!(!exits_compatible(&DbtExit::Halted { code: 0 }, &c));
    }
}
