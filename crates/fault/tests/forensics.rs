//! Forensics-bundle coverage: a known single-bit branch-offset fault must
//! yield a bundle naming the faulted instruction, the flipped bit, and a
//! non-empty trace window ending at the detection point; an attack bundle
//! carries its target and attribution in a pinned key layout.

use cfed_core::{RunConfig, TechniqueKind};
use cfed_fault::{golden_run, run_trial, FaultSpec, Forensics, Outcome, Trial};
use cfed_lang::compile;
use cfed_telemetry::json::Json;

fn image() -> cfed_asm::Image {
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

/// A bundle's top-level keys, in emission order.
fn keys(bundle: &Json) -> Vec<&str> {
    let Json::Obj(pairs) = bundle else { panic!("bundle is an object") };
    pairs.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn bundle_names_fault_site_bit_and_trace_window() {
    let img = image();
    let cfg = RunConfig::technique(TechniqueKind::Rcf);
    let g = golden_run(&img, &cfg).unwrap();

    // Scan the low offset bits for a check-detected fault: a known
    // single-bit branch-offset flip with a real detection point.
    let mut found = None;
    'scan: for nth in 0..g.branches.min(80) {
        for bit in [3u8, 4, 5] {
            let spec = FaultSpec::AddrBit { nth, bit };
            if let Some(r) = run_trial(&img, &cfg, Trial::Fault(spec), &g, None).unwrap() {
                if r.outcome == Outcome::DetectedByCheck {
                    found = Some((spec, r));
                    break 'scan;
                }
            }
        }
    }
    let (spec, plain) = found.expect("RCF detects some low-bit offset fault");
    let FaultSpec::AddrBit { bit, .. } = spec else { unreachable!() };

    // Re-injection with a window large enough to retain the whole
    // injection-to-detection stretch.
    let window = (plain.latency_insts + 16) as usize;
    let bundle = Forensics::capture(&img, &cfg, Trial::Fault(spec), &g, window, None)
        .expect("previously placed fault re-injects");

    // Deterministic reproduction: identical result.
    assert_eq!(bundle.result, plain);

    let j = bundle.to_json();
    assert_eq!(
        keys(&j),
        [
            "fault",
            "nth_branch",
            "flipped_bit",
            "site",
            "category",
            "outcome",
            "latency_insts",
            "trace"
        ]
    );
    assert_eq!(j.get("fault").and_then(Json::as_str), Some("addr_bit"));
    assert_eq!(j.get("site").and_then(Json::as_u64), Some(plain.site));
    assert_eq!(j.get("flipped_bit").and_then(Json::as_u64), Some(bit as u64));
    assert_eq!(j.get("outcome").and_then(Json::as_str), Some("detected(check)"));

    let trace = j.get("trace").expect("bundle carries a trace");
    let entries = trace.get("window").and_then(Json::as_arr).expect("window array");
    assert!(!entries.is_empty(), "trace window must be non-empty");

    // The faulted branch itself retired (its corrupted offset stayed in
    // code), so the window contains the fault site...
    let addrs: Vec<u64> =
        entries.iter().filter_map(|e| e.get("addr").and_then(Json::as_u64)).collect();
    assert!(addrs.contains(&plain.site), "window must contain the faulted site {:#x}", plain.site);

    // ...and ends at the detection point: the last retired instruction is
    // the taken check branch into the error stub (the detecting trap never
    // commits, so nothing can follow it).
    let last = entries.last().unwrap();
    assert_eq!(last.get("taken"), Some(&Json::Bool(true)), "trace must end at the detection");

    // The branch history rides along, non-empty as well.
    let branches = trace.get("branches").and_then(Json::as_arr).expect("branches array");
    assert!(!branches.is_empty());
}

#[test]
fn wanted_selects_bad_endings() {
    use cfed_core::Category;
    use cfed_fault::InjectionResult;
    let r = |category, outcome| InjectionResult {
        outcome,
        category,
        site: 0,
        latency_insts: 0,
        instrumentation_landing: false,
    };
    assert!(Forensics::wanted(&r(Category::A, Outcome::Sdc)));
    assert!(Forensics::wanted(&r(Category::B, Outcome::Timeout)));
    // Misdetection: supposedly harmless, yet not benign.
    assert!(Forensics::wanted(&r(Category::NoError, Outcome::DetectedByCheck)));
    assert!(!Forensics::wanted(&r(Category::NoError, Outcome::Benign)));
    assert!(!Forensics::wanted(&r(Category::A, Outcome::DetectedByCheck)));
}

#[test]
fn attack_bundle_carries_provenance_in_pinned_layout() {
    use cfed_fault::{AttackKind, AttackSpec};
    let img = image();
    let cfg = RunConfig::technique(TechniqueKind::EdgCf);
    let g = golden_run(&img, &cfg).unwrap();

    let (spec, plain) = (0..g.branches.min(80))
        .find_map(|nth| {
            let spec = AttackSpec { kind: AttackKind::EdgeSplice, nth, param: nth };
            run_trial(&img, &cfg, Trial::Attack(spec), &g, None).unwrap().map(|r| (spec, r))
        })
        .expect("an edge splice places");
    let bundle = Forensics::capture(&img, &cfg, Trial::Attack(spec), &g, 64, None)
        .expect("previously placed attack re-mounts");
    assert_eq!(bundle.result, plain);
    let provenance = bundle.provenance.expect("attack bundles carry provenance");

    let j = bundle.to_json();
    assert_eq!(
        keys(&j),
        [
            "attack",
            "nth_branch",
            "param",
            "site",
            "target",
            "attribution",
            "category",
            "outcome",
            "latency_insts",
            "trace"
        ]
    );
    assert_eq!(j.get("attack").and_then(Json::as_str), Some("edge-splice"));
    assert_eq!(j.get("nth_branch").and_then(Json::as_u64), Some(spec.nth));
    assert_eq!(j.get("param").and_then(Json::as_u64), Some(spec.param));
    assert_eq!(j.get("site").and_then(Json::as_u64), Some(plain.site));
    assert_eq!(j.get("target").and_then(Json::as_u64), Some(provenance.target));
    let attribution = j.get("attribution").expect("attribution key");
    assert_ne!(attribution, &Json::Null, "a splice lands inside a translated block");
    assert!(attribution.get("guest_block").and_then(Json::as_u64).is_some());
}
