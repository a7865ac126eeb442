//! The benchmark's own checks, on reduced sizes: every run emits exactly
//! the metrics `BENCHMARK.json` names, with their units; every answer
//! passes its reference; and every count repeats exactly at one seed.

use jsonio::Value;
use perfbench::gen::Sizes;
use perfbench::report::Outcome;

const SECONDS: f64 = 0.3;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let mut out: Vec<(String, String)> = json
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .keys()
        .map(|name| {
            let unit = perfbench::report::unit_of(name).expect("catalogued");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn run(workload: &str, seed: u64, traced: bool) -> Outcome {
    perfbench::run(workload, seed, SECONDS, traced, &Sizes::smoke()).expect("known workload")
}

#[test]
fn benchmark_json_names_the_workloads() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, perfbench::WORKLOADS);
}

#[test]
fn smoke_runs_emit_every_declared_metric_and_pass_their_references() {
    for workload in perfbench::WORKLOADS {
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(workload, 3, traced);
            assert_eq!(emitted(&out), declared(list), "{workload} trace={traced}");
            assert!(out.correct, "{workload} trace={traced}: {:?}", out.record);
            assert_eq!(out.failed, 0, "{workload} trace={traced}: {:?}", out.record);
            assert!(out.attempted > 0);
            let line = Value::parse(&out.result_line()).expect("result line is JSON");
            let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            if !traced {
                for (name, v) in &out.metrics {
                    assert!(*v > 0.0, "{workload}: end-to-end {name} must not read 0");
                }
            }
        }
    }
}

/// Record fields that count work (not time) for the in-process runs.
const COUNTS: &[&str] = &[
    "rule_applications",
    "nodes_created",
    "branches",
    "backjumps",
    "horn_queries",
    "horn_fallbacks",
    "horn_clauses",
    "saturation_rounds",
    "entailment_cache_hits",
    "entailment_cache_misses",
    "horn_cache_hits",
    "horn_cache_misses",
    "session_invalidated_modules",
    "session_invalidated_entailments",
    "count_unstable_passes",
    "oracle_mismatches",
];

/// Per-layer metrics that count work rather than time it.
const LAYER_COUNTS: &[&str] = &[
    "transform.image_ratio",
    "dataflow.module_axioms_mean",
    "told.answer_ratio",
    "horn.queries",
    "horn.fallbacks",
    "horn.fallback_ratio",
    "horn.saturation_rounds",
    "horn.clauses",
    "tableau.rule_applications",
    "tableau.peak_graph_size",
    "tableau.nodes_created",
    "tableau.branches",
    "tableau.backjumps",
    "cache.entailment_hit_ratio",
    "cache.engine_hit_ratio",
    "cache.horn_hit_ratio",
    "incremental.invalidated_modules_per_mutation",
    "incremental.invalidated_entailments_per_mutation",
];

#[test]
fn in_process_counts_repeat_exactly_at_one_seed() {
    for workload in ["horn_read", "residue_search"] {
        let (a, b) = (run(workload, 5, false), run(workload, 5, false));
        for key in COUNTS {
            assert_eq!(a.record.get(*key), b.record.get(*key), "{workload}: {key}");
            assert!(a.record.contains_key(*key), "{workload}: {key} recorded");
        }
        assert_eq!(a.record.get("count_unstable_passes"), Some(&Value::Int(0)));
        let (a, b) = (run(workload, 5, true), run(workload, 5, true));
        for key in LAYER_COUNTS {
            assert_eq!(
                a.metrics.get(*key),
                b.metrics.get(*key),
                "{workload}: {key}"
            );
        }
    }
}

#[test]
fn horn_read_never_reaches_the_tableau() {
    let out = run("horn_read", 2, true);
    assert_eq!(out.metrics["tableau.rule_applications"], 0.0);
    assert_eq!(out.metrics["horn.fallbacks"], 0.0);
    assert!(out.metrics["horn.queries"] > 0.0);
}

#[test]
fn residue_search_falls_back_to_the_tableau() {
    let out = run("residue_search", 2, true);
    assert!(out.metrics["horn.fallbacks"] > 0.0);
    assert!(out.metrics["tableau.rule_applications"] > 0.0);
}
