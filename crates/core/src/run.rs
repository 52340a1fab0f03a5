//! Convenience harness: run an image natively or under the DBT with a
//! chosen technique, policy and update style, collecting the numbers the
//! experiments need.

use crate::techniques::TechniqueKind;
use cfed_asm::Image;
use cfed_dbt::{
    CheckPolicy, DbtExit, DbtStats, EngineSpec, Instrumenter, NativeDbt, NullInstrumenter,
    TierConfig, UpdateStyle,
};
use cfed_sim::Machine;
use cfed_telemetry::Telemetry;

/// Default instruction budget for experiment runs.
pub const DEFAULT_MAX_INSTS: u64 = 200_000_000;

/// Configuration for one DBT run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// The technique, or `None` for the uninstrumented DBT baseline.
    pub technique: Option<TechniqueKind>,
    /// Signature checking policy.
    pub policy: CheckPolicy,
    /// Conditional-update style.
    pub style: UpdateStyle,
    /// Instruction budget.
    pub max_insts: u64,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            technique: None,
            policy: CheckPolicy::AllBb,
            style: UpdateStyle::Jcc,
            max_insts: DEFAULT_MAX_INSTS,
        }
    }
}

impl RunConfig {
    /// Baseline (uninstrumented DBT) configuration.
    pub fn baseline() -> RunConfig {
        RunConfig::default()
    }

    /// A technique under ALLBB/Jcc defaults.
    pub fn technique(kind: TechniqueKind) -> RunConfig {
        RunConfig { technique: Some(kind), ..RunConfig::default() }
    }

    /// The configured technique's instrumenter for `image` under the
    /// configured policy; the null instrumenter for the baseline.
    pub fn instrumenter(&self, image: &Image) -> Box<dyn Instrumenter> {
        match self.technique {
            Some(kind) => kind.instrumenter_for(image, self.policy),
            None => Box::new(NullInstrumenter),
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// How execution ended.
    pub exit: DbtExit,
    /// The observable output stream.
    pub output: Vec<u64>,
    /// Cycles consumed (cost-model time).
    pub cycles: u64,
    /// Instructions retired.
    pub insts: u64,
    /// Translator statistics.
    pub dbt: DbtStats,
}

/// An image loaded into a fresh machine under one engine — the single
/// place an [`EngineSpec`] becomes something that runs. Resumable: pause
/// with a small [`Engine::run`] budget, inspect or perturb `machine`, then
/// run on.
pub struct Engine {
    /// The guest machine.
    pub machine: Machine,
    /// The translator; `None` for the interpreter engines.
    pub dbt: Option<NativeDbt>,
}

impl Engine {
    /// Loads `image` and builds `spec` exactly as named; harnesses that
    /// honor the host's kill switches pass [`EngineSpec::resolve`]d specs.
    /// The interpreter engines carry no instrumentation and ignore `cfg`'s
    /// technique; tiered engines stay on tier-1 for techniques the trace
    /// tier cannot verify (see [`TechniqueKind::supports_trace_tier`]).
    pub fn new(image: &Image, cfg: &RunConfig, spec: EngineSpec) -> Engine {
        let mut machine = Machine::load(image.code(), image.data(), image.entry_offset());
        machine.set_decode_cache(spec.decode_cache());
        let dbt = spec.is_dbt().then(|| {
            let tier = spec.tier_threshold().and_then(|t| trace_tier_config(cfg, t));
            NativeDbt::new(cfg.instrumenter(image), cfg.style, &mut machine, spec.is_native(), tier)
        });
        Engine { machine, dbt }
    }

    /// Runs until halt, a surfaced trap, or `max_insts` more retired
    /// instructions.
    pub fn run(&mut self, max_insts: u64) -> DbtExit {
        match &mut self.dbt {
            Some(dbt) => dbt.run(&mut self.machine, max_insts),
            None => self.machine.run(max_insts).into(),
        }
    }

    /// The run's result for `exit`, draining the machine's output stream.
    pub fn outcome(&mut self, exit: DbtExit) -> RunOutcome {
        let stats = self.machine.cpu.stats();
        RunOutcome {
            exit,
            output: self.machine.cpu.take_output(),
            cycles: stats.cycles,
            insts: stats.insts,
            dbt: self.dbt.as_ref().map_or_else(DbtStats::default, NativeDbt::stats),
        }
    }
}

/// Runs `image` to completion under `spec` (exactly as named, see
/// [`Engine::new`]) with the given configuration. A DBT engine reports
/// through `telemetry`: the run end emits a `dbt_stats` event
/// (block/chain/eviction counters and the translation-time histogram).
///
/// # Examples
///
/// ```
/// use cfed_core::{run_engine, run_native, RunConfig, TechniqueKind};
/// use cfed_dbt::{DbtExit, EngineSpec};
/// use cfed_telemetry::Telemetry;
///
/// let image = cfed_lang::compile(
///     "fn main() { let i = 0; while (i < 999) { i = i + 1; } out(i); }",
/// )?;
/// let cfg = RunConfig::technique(TechniqueKind::EdgCf);
/// let spec = EngineSpec::DbtTierNative(8).resolve();
/// let out = run_engine(&image, &cfg, spec, &Telemetry::off());
/// assert_eq!(out.exit, DbtExit::Halted { code: 0 });
/// assert_eq!(out.output, run_native(&image, cfg.max_insts).output);
/// # Ok::<(), cfed_lang::CompileError>(())
/// ```
pub fn run_engine(
    image: &Image,
    cfg: &RunConfig,
    spec: EngineSpec,
    telemetry: &Telemetry,
) -> RunOutcome {
    let mut engine = Engine::new(image, cfg, spec);
    if let Some(dbt) = engine.dbt.as_mut() {
        dbt.dbt_mut().set_telemetry(telemetry.clone());
    }
    let exit = engine.run(cfg.max_insts);
    engine.outcome(exit)
}

/// Runs `image` under the block-fused DBT ([`EngineSpec::DbtFused`]) — the
/// engine the paper's figures are measured on.
///
/// # Examples
///
/// ```
/// use cfed_core::{run_dbt, RunConfig, TechniqueKind};
/// use cfed_dbt::DbtExit;
/// use cfed_lang::compile;
///
/// let image = compile("fn main() { out(6 * 7); }")?;
/// let out = run_dbt(&image, &RunConfig::technique(TechniqueKind::EdgCf));
/// assert_eq!(out.exit, DbtExit::Halted { code: 0 });
/// assert_eq!(out.output, vec![42]);
/// # Ok::<(), cfed_lang::CompileError>(())
/// ```
pub fn run_dbt(image: &Image, cfg: &RunConfig) -> RunOutcome {
    run_engine(image, cfg, EngineSpec::DbtFused, &Telemetry::off())
}

/// [`run_engine`] on `dbt-native` (or `dbt-fused`), untraced. Kept for the
/// `perfbench` benchmark, its only caller; everything else names an
/// [`EngineSpec`].
pub fn run_dbt_native_enabled(image: &Image, cfg: &RunConfig, native: bool) -> RunOutcome {
    run_engine(image, cfg, EngineSpec::dbt(native, None), &Telemetry::off())
}

/// [`run_engine`] on the DBT engine with the given native and trace-tier
/// switches, untraced. Kept for the `perfbench` benchmark, its only
/// caller; everything else names an [`EngineSpec`].
pub fn run_dbt_tiered_enabled(
    image: &Image,
    cfg: &RunConfig,
    compile_threshold: u32,
    native: bool,
    tier: bool,
) -> RunOutcome {
    run_engine(
        image,
        cfg,
        EngineSpec::dbt(native, tier.then_some(compile_threshold)),
        &Telemetry::off(),
    )
}

/// Builds the tier-2 configuration for a run: the crate's
/// [`crate::placement::PlacementVerifier`] at the given compile threshold.
/// `None` when the configured technique's updates cannot be modeled by the
/// trace IR (see [`TechniqueKind::supports_trace_tier`]) — such runs stay
/// on tier-1 even when asked for the trace tier.
fn trace_tier_config(cfg: &RunConfig, compile_threshold: u32) -> Option<TierConfig> {
    let supported = match cfg.technique {
        None => true,
        Some(kind) => kind.supports_trace_tier(),
    };
    supported.then(|| {
        TierConfig::new(std::sync::Arc::new(crate::placement::PlacementVerifier))
            .with_threshold(compile_threshold)
    })
}

/// Runs `image` directly on the interpreter (no DBT).
pub fn run_native(image: &Image, max_insts: u64) -> RunOutcome {
    let cfg = RunConfig { max_insts, ..RunConfig::default() };
    run_engine(image, &cfg, EngineSpec::InterpFused, &Telemetry::off())
}

/// Slowdown of `cycles` relative to a baseline.
pub fn slowdown(instrumented_cycles: u64, baseline_cycles: u64) -> f64 {
    instrumented_cycles as f64 / baseline_cycles as f64
}

/// Geometric mean of a slice of ratios.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }

    #[test]
    fn run_engine_matches_the_named_harnesses() {
        let image =
            cfed_lang::compile("fn main() { let i = 0; while (i < 50) { i = i + 1; } out(i); }")
                .expect("valid program");
        let cfg = RunConfig::technique(TechniqueKind::EdgCf);
        let off = Telemetry::off();
        let native = run_native(&image, cfg.max_insts);
        for spec in [EngineSpec::InterpRaw, EngineSpec::InterpFused] {
            assert_eq!(run_engine(&image, &cfg, spec, &off), native, "{}", spec.label());
        }
        assert_eq!(run_engine(&image, &cfg, EngineSpec::DbtFused, &off), run_dbt(&image, &cfg));
    }

    #[test]
    fn slowdown_ratio() {
        assert!((slowdown(150, 100) - 1.5).abs() < 1e-12);
    }
}
