//! The campaign is a pure function of its seed: the same configuration
//! must produce a byte-identical report at any thread count. This is what
//! makes `cfed-fuzz run --seed N` a reproducible CI artifact and a corpus
//! entry a permanent one.

use cfed_fuzz::{run_fuzz, FuzzConfig, Mode, Tier};

fn config(threads: usize) -> FuzzConfig {
    FuzzConfig {
        seed: 0xC0FFEE,
        iters: 8,
        threads,
        mode: Mode::Both,
        tiers: vec![Tier::MiniC, Tier::Visa],
        detect_branches: 2,
        corpus_dir: None,
        ..FuzzConfig::default()
    }
}

#[test]
fn report_is_identical_across_thread_counts() {
    let one = run_fuzz(&config(1));
    let three = run_fuzz(&config(3));
    assert_eq!(one.text, three.text, "thread count leaked into the report");
    assert_eq!(one.cases, 8);
    assert_eq!(one.divergences, three.divergences);
    assert_eq!(one.sdc_violations, three.sdc_violations);
}

#[test]
fn campaign_smoke_is_clean() {
    let report = run_fuzz(&config(2));
    assert!(report.clean(), "fixed-seed smoke campaign found a real failure:\n{}", report.text);
}

#[test]
fn report_is_identical_across_tier_on_off() {
    // The trace tier must be behaviour-preserving, so enabling it cannot
    // change what a clean campaign reports: coverage fingerprints exclude
    // the tiered runs' budget-shifted exits, and a divergence introduced by
    // tiering would be a real engine bug. Combined with the thread-count
    // test above this pins byte-identity across `--threads` × tier on/off.
    // The tier-off side runs as a child process so the kill switch never
    // touches this process's environment, which sibling tests read.
    let with_tier = run_fuzz(&config(2));
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_cfed-fuzz"))
        .args(["run", "--seed", "0xC0FFEE", "--iters", "8", "--threads", "2", "--mode", "both"])
        .args(["--tier", "all", "--detect-branches", "2"])
        .env("CFED_NO_TIER", "1")
        .output()
        .expect("cfed-fuzz runs");
    assert!(child.status.success(), "{}", String::from_utf8_lossy(&child.stderr));
    let without_tier = String::from_utf8(child.stdout).expect("UTF-8 report");
    assert_eq!(with_tier.text, without_tier, "trace tier leaked into the report");
}
