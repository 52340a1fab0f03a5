//! Unit tests of the benchmark harness: order statistics, metric names and
//! caps, span self times, and the catalogue's agreement with BENCHMARK.json.

use cfed_perfbench::catalog::{END_TO_END, PER_LAYER, SELF_SPANS};
use cfed_perfbench::metrics::{result_line, valid_name, MetricSet, MAX_END_TO_END, MAX_PER_LAYER};
use cfed_perfbench::span::{
    reconciliation_error, self_time_by_name, self_times, thread_wall, Span, Trace,
};
use cfed_perfbench::stats::{iqr_share, mean, median, percentile, quantiles};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[4.0]), Some(4.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quantiles(&ten, 4).unwrap();
    assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    let q = quantiles(&[5.0, 1.0, 4.0, 2.0, 3.0], 4).unwrap();
    assert!(close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5), "{q:?}");
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let q = quantiles(&[1.0, 2.0], 4).unwrap();
    assert!(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25), "{q:?}");
    assert_eq!(quantiles(&[1.0], 4), None);
    // IQR share of 1..10: (8.25 - 2.75) / 5.5 == 1.0
    assert!(close(iqr_share(&ten).unwrap(), 1.0));
    assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn nearest_rank_percentiles() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 50.0), Some(50.0));
    assert_eq!(percentile(&hundred, 99.0), Some(99.0));
    assert_eq!(percentile(&hundred, 100.0), Some(100.0));
    assert_eq!(percentile(&[7.0, 3.0, 5.0], 50.0), Some(5.0));
    assert_eq!(percentile(&[7.0, 3.0, 5.0], 1.0), Some(3.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    assert_eq!(mean(&[]), None);
}

#[test]
fn metric_names_follow_the_pattern() {
    for ok in ["trials_per_s", "fault.capture_ms_p99", "a", "9lives", "x-y.z_1"] {
        assert!(valid_name(ok), "{ok} should be valid");
    }
    for bad in ["", "has space", "slash/name", "ünïcode", "_leading", ".dot", "-dash", "a+b"] {
        assert!(!valid_name(bad), "{bad:?} should be invalid");
    }
    assert!(valid_name(&"a".repeat(64)));
    assert!(!valid_name(&"a".repeat(65)));

    let mut set = MetricSet::end_to_end();
    assert!(set.push("bad name", "s", 1.0).is_err());
    assert!(set.push("ok", "not a unit!", 1.0).is_err());
    assert!(set.push("ok", "s", f64::NAN).is_err());
    set.push("ok", "s", 1.5).unwrap();
    assert!(set.push("ok", "s", 2.0).is_err(), "duplicate names are refused");
    assert_eq!(set.metrics().len(), 1);
    assert_eq!(set.metrics()[0].value, 1.5);
}

#[test]
fn metric_sets_are_capped() {
    let mut e2e = MetricSet::end_to_end();
    for i in 0..MAX_END_TO_END {
        e2e.push(&format!("m{i}"), "s", 1.0).unwrap();
    }
    assert!(e2e.push("one_more", "s", 1.0).is_err());
    assert_eq!(MAX_END_TO_END, 16);

    let mut layers = MetricSet::per_layer();
    for i in 0..MAX_PER_LAYER {
        layers.push(&format!("layer.m{i}"), "ms", 1.0).unwrap();
    }
    assert!(layers.push("layer.one_more", "ms", 1.0).is_err());
    assert_eq!(MAX_PER_LAYER, 128);
}

#[test]
fn result_line_has_the_contract_shape() {
    let mut set = MetricSet::end_to_end();
    set.push("latency_ms", "ms", 1.2034).unwrap();
    set.push("setup_s", "s", 0.5).unwrap();
    assert_eq!(
        result_line(true, 10, 0, &set),
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": \
         {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
}

fn span(
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u32,
    start: u64,
    end: u64,
) -> Span {
    Span { id, parent, name, thread, start, end }
}

#[test]
fn self_time_subtracts_children_on_the_same_thread() {
    // root [0, 100) on thread 0 with children [10, 30) and [20, 50)
    // (overlapping: union 40) and grandchild [12, 18) under the first.
    // A cross-thread child [0, 90) on thread 1 is not subtracted.
    let spans = vec![
        span(1, None, "root", 0, 0, 100),
        span(2, Some(1), "a", 0, 10, 30),
        span(3, Some(1), "b", 0, 20, 50),
        span(4, Some(2), "c", 0, 12, 18),
        span(5, Some(1), "worker", 1, 0, 90),
        span(6, Some(5), "c", 1, 5, 25),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 60);
    assert_eq!(selfs[&2], 14);
    assert_eq!(selfs[&3], 30);
    assert_eq!(selfs[&4], 6);
    assert_eq!(selfs[&5], 70);
    assert_eq!(selfs[&6], 20);
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["c"], 26);
    // Thread roots: root (100) and worker (90).
    assert_eq!(thread_wall(&spans), 190);
    // Overlapping siblings a and b count [20, 30) twice: 10 of 190.
    assert!(close(reconciliation_error(&spans), 10.0 / 190.0));
}

#[test]
fn properly_nested_spans_reconcile_exactly() {
    let trace = Trace::new();
    {
        let mut main = trace.thread();
        let root = main.open("root");
        main.time("child", || std::hint::black_box((0..1000).sum::<u64>()));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut worker = trace.thread();
                worker.open_under("worker", Some(root));
                worker.time("inner", || std::hint::black_box(1));
                let start = worker.now();
                std::hint::black_box((0..100).sum::<u64>());
                worker.record("gap", start, worker.now());
                worker.close();
            });
        });
        main.close();
    }
    let spans = trace.spans();
    assert_eq!(spans.len(), 5);
    let worker = spans.iter().find(|s| s.name == "worker").unwrap();
    let root = spans.iter().find(|s| s.name == "root").unwrap();
    assert_eq!(worker.parent, Some(root.id));
    assert_ne!(worker.thread, root.thread);
    assert_eq!(reconciliation_error(&spans), 0.0);
}

#[test]
fn catalogue_is_valid_and_matches_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut names = std::collections::BTreeSet::new();
    for spec in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(spec.name), "{}", spec.name);
        assert!(names.insert(spec.name), "{} listed twice", spec.name);
        assert!(matches!(spec.better, "higher" | "lower"));
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            spec.name, spec.unit, spec.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert!(END_TO_END.len() <= MAX_END_TO_END && PER_LAYER.len() <= MAX_PER_LAYER);
    assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
    for span in SELF_SPANS {
        let name = format!("trace.self_pct.{span}");
        assert!(PER_LAYER.iter().any(|s| s.name == name), "{name} missing");
    }
}
