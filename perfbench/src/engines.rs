//! The engine lap: every distinct `(image, config)` of a workload run once
//! on each execution engine, timed from outside, with the engines' results
//! cross-checked.
//!
//! | span               | call                                              |
//! |--------------------|---------------------------------------------------|
//! | `engine_lap`       | the whole lap                                     |
//! | `fault.golden_run` | `golden_run` — the per-step engine campaigns use  |
//! | `dbt.fused`        | `run_dbt` — the fused interpreter                 |
//! | `dbt.native`       | `run_dbt_native_enabled(.., true)` — tier-1 JIT   |
//! | `dbt.trace`        | `run_dbt_tiered_enabled(.., true, true)` — traces |
//!
//! The attack-surface lap times `AttackModel::analyze` (span
//! `fault.attack_surface`, under `surface_lap`) once per distinct golden
//! key of the attack cells; campaigns themselves never call it.
//!
//! Output and exit code must agree across all four. Cycle counts must agree
//! between the fused and native engines; the trace tier optimizes the
//! guest's instrumentation, so its cycles are compared with the trace tier
//! run on the fused interpreter instead (untimed).

use std::collections::{BTreeMap, BTreeSet};

use cfed_core::{run_dbt, run_dbt_native_enabled, run_dbt_tiered_enabled, RunOutcome};
use cfed_dbt::{DbtExit, DEFAULT_COMPILE_THRESHOLD};
use cfed_fault::{golden_run, AttackModel};
use cfed_perfbench::span::{ThreadSpans, Trace};
use cfed_serve::PhasePlan;

use crate::workload::distinct_goldens;

/// Guest instructions and host nanoseconds per engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lap {
    /// Per-step engine (`golden_run`): instructions, nanoseconds.
    pub step: (u64, u64),
    /// Fused interpreter.
    pub fused: (u64, u64),
    /// Tier-1 native.
    pub native: (u64, u64),
    /// Trace tier, counted in tier-1 instructions (the same guest work).
    pub trace: (u64, u64),
}

/// Million instructions per host second.
pub fn mips((insts, ns): (u64, u64)) -> f64 {
    if ns == 0 {
        0.0
    } else {
        insts as f64 / ns as f64 * 1e3
    }
}

fn same_guest(what: &str, a: &RunOutcome, b: &RunOutcome, cycles: bool) -> Result<(), String> {
    if a.exit != b.exit || a.output != b.output || (cycles && a.cycles != b.cycles) {
        return Err(format!(
            "{what}: engines disagree (exit {:?} vs {:?}, {} vs {} outputs, {} vs {} cycles)",
            a.exit,
            b.exit,
            a.output.len(),
            b.output.len(),
            a.cycles,
            b.cycles
        ));
    }
    Ok(())
}

/// Runs `f` inside a span named `name`, returning its result and duration.
fn timed<T>(spans: &mut ThreadSpans<'_>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = spans.now();
    let out = spans.time(name, f);
    (out, spans.now() - t0)
}

/// Runs the lap over every distinct golden key of `phases`.
///
/// # Errors
///
/// When an image fails to build, a golden run fails, or two engines
/// disagree.
pub fn run(trace: &Trace, phases: &[PhasePlan]) -> Result<Lap, String> {
    let mut images = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let mut configs = Vec::new();
    for plan in phases {
        for cell in distinct_goldens(&plan.matrix.cells()) {
            if !seen.insert(cell.golden_key()) {
                continue;
            }
            let key = cell.workload.key();
            if !images.contains_key(&key) {
                images.insert(key.clone(), cell.workload.image()?);
            }
            configs.push((key, cell.config, cell.golden_key()));
        }
    }

    let mut lap = Lap::default();
    let mut spans = trace.thread();
    spans.open("engine_lap");
    for (key, config, what) in &configs {
        let image = &images[key];
        let (golden, step_ns) = timed(&mut spans, "fault.golden_run", || golden_run(image, config));
        let golden = golden.map_err(|e| format!("{what}: golden run failed: {e}"))?;
        let (fused, fused_ns) = timed(&mut spans, "dbt.fused", || run_dbt(image, config));
        let (native, native_ns) =
            timed(&mut spans, "dbt.native", || run_dbt_native_enabled(image, config, true));
        let (traced, trace_ns) = timed(&mut spans, "dbt.trace", || {
            run_dbt_tiered_enabled(image, config, DEFAULT_COMPILE_THRESHOLD, true, true)
        });

        if fused.exit != (DbtExit::Halted { code: golden.exit_code })
            || fused.output != golden.output
        {
            return Err(format!("{what}: fused interpreter disagrees with the golden run"));
        }
        same_guest(&format!("{what} fused/native"), &fused, &native, true)?;
        same_guest(&format!("{what} fused/trace"), &fused, &traced, false)?;
        let tier_reference =
            run_dbt_tiered_enabled(image, config, DEFAULT_COMPILE_THRESHOLD, false, true);
        same_guest(&format!("{what} trace tier native/fused"), &tier_reference, &traced, true)?;

        lap.step.0 += golden.insts;
        lap.step.1 += step_ns;
        lap.fused.0 += fused.insts;
        lap.fused.1 += fused_ns;
        lap.native.0 += native.insts;
        lap.native.1 += native_ns;
        lap.trace.0 += native.insts;
        lap.trace.1 += trace_ns;
    }
    spans.close();
    Ok(lap)
}

/// Times `AttackModel::analyze` once per distinct golden key of the attack
/// cells of `phases`.
///
/// # Errors
///
/// When an image fails to build or the attack-free run misbehaves.
pub fn surface_lap(trace: &Trace, phases: &[PhasePlan]) -> Result<(), String> {
    let mut spans = trace.thread();
    let mut images = BTreeMap::new();
    spans.open("surface_lap");
    for plan in phases {
        for cell in
            distinct_goldens(&plan.matrix.cells()).into_iter().filter(|c| c.attack.is_some())
        {
            let key = cell.workload.key();
            if !images.contains_key(&key) {
                images.insert(key.clone(), cell.workload.image()?);
            }
            let image = &images[&key];
            spans
                .time("fault.attack_surface", || AttackModel::new(cell.config).analyze(image))
                .map_err(|e| format!("{}: attack surface failed: {e}", cell.golden_key()))?;
        }
    }
    spans.close();
    Ok(())
}
