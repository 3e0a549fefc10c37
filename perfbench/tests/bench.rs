//! The benchmark's own tests: every workload at a tiny size, the metric
//! names against `BENCHMARK.json`, and injected faults counted as failed
//! cells.

use hbdc_perfbench::{run, Inject, Options, Outcome, Size, Workload, END_TO_END, PER_LAYER};

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn tiny(workload: Workload, trace: bool, inject: Option<Inject>) -> Outcome {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        inject,
    })
    .expect("the thread CPU clock is readable")
}

/// The `"name"` values of the objects in the top-level array `key`.
fn names_in(key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &BENCHMARK_JSON[start..];
    let array = &rest[..rest.find(']').expect("the array is closed")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let listed = |metrics: &[(&str, &str)]| -> Vec<String> {
        metrics.iter().map(|(n, _)| n.to_string()).collect()
    };
    assert_eq!(names_in("end_to_end"), listed(&END_TO_END));
    assert_eq!(names_in("per_layer"), listed(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(names_in("workloads"), workloads);
}

#[test]
fn every_workload_runs_at_tiny_size() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(w, trace, None);
            assert!(out.correct, "{} failed: {:?}", w.name(), out.failures);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{} {}: {}", w.name(), m.name, m.value);
                }
            }
            let json = out.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert!(json.ends_with("}}"), "{json}");
        }
    }
}

#[test]
fn corrupted_expectation_fails_a_cell() {
    for w in [Workload::StencilBacklog, Workload::CheckpointResume] {
        let out = tiny(w, false, Some(Inject::Expectation));
        assert!(!out.correct, "{}", w.name());
        assert_eq!(out.failed, 1, "{}: {:?}", w.name(), out.failures);
    }
}

#[test]
fn snapshot_mismatch_fails_a_cell() {
    let out = tiny(Workload::CheckpointResume, false, Some(Inject::Snapshot));
    assert!(!out.correct);
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(
        out.failures[0].contains("differs from the straight run"),
        "{:?}",
        out.failures
    );
}
