//! The trial-level engine-differential oracle. Campaign trials run on the
//! block-fused DBT, which stops at branch ceilings instead of peeking every
//! instruction; the per-step `Dbt::step` loop (`EngineSpec::DbtStep`, a
//! machine without a decode cache) stays the reference. Every seeded fault
//! and attack `Trial`, on small programs and on campaign workloads, under
//! every technique and both update styles, must end bit-identically —
//! outcome, category, site, latency and landing — on both engines, with
//! snapshots and convergence pruning on and off, and on the traced
//! (forensics) path.

use cfed_core::{RunConfig, TechniqueKind};
use cfed_dbt::{EngineSpec, UpdateStyle};
use cfed_fault::{
    run_trial_on, run_trial_traced, AttackKind, AttackSpec, FaultSpec, Golden, SnapshotSet, Trial,
    DEFAULT_TRACE_WINDOW,
};
use cfed_workloads::Scale;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The `ff_equivalence` programs: a counted loop, a data-dependent branchy
/// loop, and nested loops.
const PROGRAMS: [&str; 3] = [
    r#"
        fn main() {
            let i = 0;
            let acc = 7;
            while (i < 60) { acc = acc + i * 2; i = i + 1; }
            out(acc);
        }
    "#,
    r#"
        fn main() {
            let i = 0;
            let acc = 11;
            while (i < 45) {
                if (i % 5 == 2) { acc = acc * 2 - i; } else { acc = acc + 3; }
                if (acc > 900) { acc = acc - 700; }
                i = i + 1;
            }
            out(acc);
        }
    "#,
    r#"
        fn main() {
            let i = 0;
            let total = 0;
            while (i < 12) {
                let j = 0;
                while (j < 8) { total = total + i * j; j = j + 1; }
                i = i + 1;
            }
            out(total);
        }
    "#,
];

/// Campaign workloads, at `Scale::Test`, after the programs.
const WORKLOADS: [&str; 2] = ["164.gzip", "181.mcf"];

const TECHNIQUES: [Option<TechniqueKind>; 6] = [
    None,
    Some(TechniqueKind::Cfcss),
    Some(TechniqueKind::Ecca),
    Some(TechniqueKind::Ecf),
    Some(TechniqueKind::EdgCf),
    Some(TechniqueKind::Rcf),
];

/// One `(image, config)` with its golden and checkpoints, captured once per
/// test process.
struct Subject {
    image: cfed_asm::Image,
    golden: Golden,
    snapshots: SnapshotSet,
}

fn subject(program: usize, cfg: &RunConfig) -> Arc<Subject> {
    type Cache = Mutex<HashMap<(usize, String), Arc<Subject>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let key = (program, format!("{cfg:?}"));
    let cache = CACHE.get_or_init(Cache::default);
    if let Some(s) = cache.lock().unwrap().get(&key) {
        return Arc::clone(s);
    }
    let image = match PROGRAMS.get(program) {
        Some(src) => cfed_lang::compile(src).expect("programs compile"),
        None => cfed_workloads::by_name(WORKLOADS[program - PROGRAMS.len()])
            .expect("campaign workload")
            .image(Scale::Test)
            .expect("workloads compile"),
    };
    let (golden, snapshots) = SnapshotSet::capture(&image, cfg).expect("well-behaved");
    let s = Arc::new(Subject { image, golden, snapshots });
    cache.lock().unwrap().insert(key, Arc::clone(&s));
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// A trial ends identically on the fused path and on the per-step
    /// reference, from scratch and fast-forwarded (with pruning), and the
    /// traced run's result equals the fused result.
    #[test]
    fn fused_trials_match_the_step_reference(
        program in 0usize..PROGRAMS.len() + WORKLOADS.len(),
        technique in 0usize..TECHNIQUES.len(),
        style in 0usize..2,
        kind in 0usize..AttackKind::ALL.len() + 2,
        nth_seed in any::<u64>(),
        param in any::<u64>(),
    ) {
        let cfg = RunConfig {
            technique: TECHNIQUES[technique],
            style: [UpdateStyle::CMov, UpdateStyle::Jcc][style],
            ..RunConfig::default()
        };
        let s = subject(program, &cfg);
        prop_assert!(s.golden.branches > 0, "looped programs execute branches");
        let nth = nth_seed % s.golden.branches;
        let trial = match kind {
            0 => Trial::Fault(FaultSpec::AddrBit { nth, bit: (param % 32) as u8 }),
            1 => Trial::Fault(FaultSpec::FlagBit { nth, bit: (param % 6) as u8 }),
            k => Trial::Attack(AttackSpec { kind: AttackKind::ALL[k - 2], nth, param }),
        };
        let run = |engine, snapshots| {
            run_trial_on(engine, &s.image, &cfg, trial, &s.golden, snapshots)
                .expect("well-behaved prefix")
        };
        let reference = run(EngineSpec::DbtStep, None);
        for (engine, snapshots) in [
            (EngineSpec::DbtStep, Some(&s.snapshots)),
            (EngineSpec::DbtFused, None),
            (EngineSpec::DbtFused, Some(&s.snapshots)),
        ] {
            let got = run(engine, snapshots);
            prop_assert_eq!(
                &got, &reference,
                "{} (snapshots {}) diverged from dbt-step on {:?} under {:?}",
                engine.label(), snapshots.is_some(), trial, cfg
            );
        }
        let traced = run_trial_traced(
            &s.image, &cfg, trial, &s.golden, DEFAULT_TRACE_WINDOW, Some(&s.snapshots),
        )
        .expect("well-behaved prefix")
        .map(|(r, _, _)| r);
        prop_assert_eq!(&traced, &reference, "traced run diverged on {:?} under {:?}", trial, cfg);
    }
}
