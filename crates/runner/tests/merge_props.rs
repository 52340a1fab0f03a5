//! Property tests for the algebraic law the runner rests on:
//! [`CampaignReport::merge`] is associative and commutative, so any
//! shard → worker → merge schedule reduces to the same campaign tallies —
//! plus the store-level corollary the `cfed-serve` coordinator leans on:
//! however a delivery schedule duplicates, reorders, or interleaves
//! failures with shard records, the persisted store renders the same
//! report as a clean in-order run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use cfed_core::Category;
use cfed_fault::{CampaignReport, CategoryStats, Outcome};
use cfed_runner::report::{render_parts, summarize};
use cfed_runner::store::{read_profiles, read_store, CampaignStore, StoreHeader};
use cfed_telemetry::{BlockProfile, Profile};
use proptest::prelude::*;

/// Builds a report from 43 raw tallies (7 categories × 6 outcomes, plus
/// skipped) and a latency-sample list of `(category, outcome, latency)`
/// triples recorded into the per-cell histograms.
fn report_from(values: &[u64], samples: &[(usize, usize, u64)]) -> CampaignReport {
    assert_eq!(values.len(), 43);
    let mut report = CampaignReport { skipped: values[42], ..CampaignReport::default() };
    for (i, slot) in report.stats.iter_mut().enumerate() {
        *slot = CategoryStats {
            detected_check: values[i * 6],
            detected_hw: values[i * 6 + 1],
            other_fault: values[i * 6 + 2],
            benign: values[i * 6 + 3],
            sdc: values[i * 6 + 4],
            timeout: values[i * 6 + 5],
        };
    }
    for &(c, o, l) in samples {
        report.lat[c][o].record(l);
    }
    report
}

fn arb_report() -> impl Strategy<Value = CampaignReport> {
    (
        proptest::collection::vec(0u64..1_000_000, 43),
        proptest::collection::vec((0usize..7, 0usize..6, 0u64..1_000_000), 0..32),
    )
        .prop_map(|(v, samples)| report_from(&v, &samples))
}

fn assert_reports_equal(a: &CampaignReport, b: &CampaignReport) {
    for c in Category::ALL {
        assert_eq!(a.category(c), b.category(c), "category {c}");
        for o in Outcome::ALL {
            assert_eq!(a.latency_hist(c, o), b.latency_hist(c, o), "hist {c}/{o:?}");
        }
    }
    assert_eq!(a.skipped, b.skipped);
    assert_eq!(a.latency_totals(), b.latency_totals());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(a in arb_report(), b in arb_report()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_reports_equal(&ab, &ba);
    }

    #[test]
    fn merge_is_associative(a in arb_report(), b in arb_report(), c in arb_report()) {
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_reports_equal(&left, &right);
    }

    #[test]
    fn empty_report_is_identity(a in arb_report()) {
        let mut merged = a.clone();
        merged.merge(&CampaignReport::default());
        assert_reports_equal(&merged, &a);
    }
}

// ---- store-level idempotency (the coordinator's merge contract) --------

static STORE_SEQ: AtomicUsize = AtomicUsize::new(0);

fn store_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "cfed-mp-{}-{}.jsonl",
        std::process::id(),
        STORE_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn header(total_shards: u64) -> StoreHeader {
    StoreHeader {
        run_id: "mp".to_string(),
        seed: 7,
        trials: 256,
        shard_trials: 64,
        digest: 0xFACE,
        total_shards,
    }
}

fn arb_tallies() -> impl Strategy<Value = CampaignReport> {
    (
        proptest::collection::vec(0u64..1_000_000, 43),
        proptest::collection::vec((0usize..7, 0usize..6, 0u64..1_000_000), 0..16),
    )
        .prop_map(|(v, samples)| report_from(&v, &samples))
}

/// Distinct shard keys over two cells, so `summarize` exercises grouping.
fn unit_key(i: usize) -> String {
    format!("cell{}#{}", i % 2, i)
}

/// Renders the report exactly as `cfed-campaign report` would.
fn rendered(path: &Path) -> String {
    let (h, done, failed) = read_store(path).unwrap();
    render_parts(&h, &summarize(&done), &failed)
}

/// The reference: every unit appended exactly once, in key order.
fn clean_render(units: &[CampaignReport]) -> String {
    let path = store_path();
    let mut store = CampaignStore::open(&path, &header(units.len() as u64)).unwrap();
    for (i, tallies) in units.iter().enumerate() {
        store.append_ok(&unit_key(i), tallies.clone()).unwrap();
    }
    drop(store);
    let out = rendered(&path);
    let _ = std::fs::remove_file(&path);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Duplicate deliveries and arbitrary completion order — the store a
    /// coordinator writes under re-leases and worker races — render the
    /// same report as a clean one-shot run.
    #[test]
    fn store_ignores_duplicate_and_out_of_order_delivery(
        units in proptest::collection::vec(arb_tallies(), 1..6),
        schedule in proptest::collection::vec(0usize..1024, 0..24),
    ) {
        let reference = clean_render(&units);
        let path = store_path();
        let mut store = CampaignStore::open(&path, &header(units.len() as u64)).unwrap();
        // Random subset, random order, with duplicates...
        let mut seen = vec![false; units.len()];
        for idx in &schedule {
            let i = idx % units.len();
            store.append_ok(&unit_key(i), units[i].clone()).unwrap();
            seen[i] = true;
        }
        // ...then whatever the schedule missed lands late.
        for i in (0..units.len()).rev() {
            if !seen[i] {
                store.append_ok(&unit_key(i), units[i].clone()).unwrap();
            }
        }
        drop(store);
        assert_eq!(rendered(&path), reference);
        let _ = std::fs::remove_file(&path);
    }

    /// Profile merging obeys the same algebra as report merging: any
    /// partition of the recordings, folded in any order, accumulates to
    /// bit-identical counters — and therefore byte-identical JSON.
    #[test]
    fn profile_merge_is_order_and_partition_invariant(
        rows in proptest::collection::vec(
            (0u64..64, 0u64..100, 0u64..10_000, 0u64..1_000, 0u64..1_000),
            1..24,
        ),
        split in 0usize..24,
        others in proptest::collection::vec(0u64..10_000, 2usize),
    ) {
        let block = |&(addr, hits, payload, head, tail): &(u64, u64, u64, u64, u64)| {
            (addr, BlockProfile {
                hits,
                payload_cycles: payload,
                head_cycles: head,
                tail_cycles: tail,
            })
        };
        let mut serial = Profile::new();
        for r in &rows {
            let (addr, sample) = block(r);
            serial.record_block(addr, sample);
        }
        serial.record_other(others[0] + others[1]);

        let cut = split % rows.len();
        let (mut a, mut b) = (Profile::new(), Profile::new());
        for (i, r) in rows.iter().enumerate() {
            let (addr, sample) = block(r);
            if i < cut { a.record_block(addr, sample) } else { b.record_block(addr, sample) }
        }
        a.record_other(others[0]);
        b.record_other(others[1]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(&ab, &serial);
        prop_assert_eq!(&ba, &serial);
        prop_assert_eq!(ab.to_json().render(), serial.to_json().render());
        prop_assert_eq!(ba.to_json().render(), serial.to_json().render());
    }

    /// Profile persistence is first-wins idempotent: however a delivery
    /// schedule repeats and reorders per-cell profile records (worker
    /// races, re-leases, resumed stores), the persisted set reloads
    /// byte-identical to a clean one-append-per-cell run.
    #[test]
    fn store_profiles_survive_duplicate_and_out_of_order_delivery(
        cells in proptest::collection::vec(
            proptest::collection::vec(
                (0u64..64, 1u64..100, 0u64..10_000, 0u64..1_000, 0u64..1_000),
                1..8,
            ),
            1..5,
        ),
        schedule in proptest::collection::vec(0usize..1024, 0..16),
    ) {
        let profiles: Vec<Profile> = cells
            .iter()
            .map(|rows| {
                let mut p = Profile::new();
                for &(addr, hits, payload, head, tail) in rows {
                    p.record_block(addr, BlockProfile {
                        hits,
                        payload_cycles: payload,
                        head_cycles: head,
                        tail_cycles: tail,
                    });
                }
                p
            })
            .collect();
        let cell_key = |i: usize| format!("cell{i}");

        // Reference: each cell's profile appended exactly once, in order.
        let clean = store_path();
        let mut store = CampaignStore::open(&clean, &header(4)).unwrap();
        for (i, p) in profiles.iter().enumerate() {
            prop_assert!(store.append_profile(&cell_key(i), p).unwrap());
        }
        drop(store);
        let reference = read_profiles(&clean).unwrap();
        let _ = std::fs::remove_file(&clean);

        // Scrambled: duplicates and arbitrary order, stragglers last. A
        // repeat append must report "not written".
        let path = store_path();
        let mut store = CampaignStore::open(&path, &header(4)).unwrap();
        let mut seen = vec![false; profiles.len()];
        for idx in &schedule {
            let i = idx % profiles.len();
            let written = store.append_profile(&cell_key(i), &profiles[i]).unwrap();
            prop_assert_eq!(written, !seen[i]);
            seen[i] = true;
        }
        for i in (0..profiles.len()).rev() {
            if !seen[i] {
                prop_assert!(store.append_profile(&cell_key(i), &profiles[i]).unwrap());
            }
        }
        drop(store);
        let reloaded = read_profiles(&path).unwrap();
        prop_assert_eq!(reloaded.len(), reference.len());
        for (key, p) in &reference {
            prop_assert_eq!(
                reloaded[key].to_json().render(),
                p.to_json().render(),
                "cell {}", key
            );
        }
        // Reloading must not perturb the tallies path either.
        let (_, done, failed) = read_store(&path).unwrap();
        prop_assert!(done.is_empty());
        prop_assert!(failed.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// A unit that fails (worker death, expired lease) and is later
    /// re-delivered successfully leaves no trace: the failure record is
    /// superseded and the report equals a clean run's.
    #[test]
    fn store_resolves_interleaved_failures_to_the_final_result(
        units in proptest::collection::vec(arb_tallies(), 1..6),
        fails in proptest::collection::vec(any::<bool>(), 5usize),
    ) {
        let reference = clean_render(&units);
        let path = store_path();
        let mut store = CampaignStore::open(&path, &header(units.len() as u64)).unwrap();
        for (i, tallies) in units.iter().enumerate() {
            if fails[i % fails.len()] {
                store.append_failed(&unit_key(i), "worker died mid-unit").unwrap();
            }
            store.append_ok(&unit_key(i), tallies.clone()).unwrap();
        }
        prop_assert!(store.failed.is_empty(), "successes supersede failures");
        drop(store);
        // The reload path agrees with the in-memory view.
        let (_, done, failed) = read_store(&path).unwrap();
        prop_assert!(failed.is_empty());
        prop_assert_eq!(done.len(), units.len());
        assert_eq!(rendered(&path), reference);
        let _ = std::fs::remove_file(&path);
    }
}
