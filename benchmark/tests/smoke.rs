//! Smoke tier: every workload at 1/50 scale with two repetitions, plus the
//! contract `BENCHMARK.json` must keep with the code. Runs in well under a
//! minute in a debug build.

use c4h_benchmark::alloc::CountingAlloc;
use c4h_benchmark::json::{parse, Json};
use c4h_benchmark::layers::{HIGHER_IS_BETTER, PER_LAYER};
use c4h_benchmark::metrics::END_TO_END;
use c4h_benchmark::run::{result_line, run, RunOpts};
use c4h_benchmark::workloads::{build, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn smoke(workload: Workload, trace: bool) -> RunOpts {
    RunOpts {
        workload,
        seed: 2011,
        seconds: 0.0,
        trace,
        reps: Some(2),
        scale_div: 50,
        out_dir: None,
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_runs_correct_and_repeats_exactly() {
    for workload in Workload::ALL {
        let outcome = run(&smoke(workload, false)).expect("smoke inputs are not pinned");
        assert!(outcome.correct, "{}:\n{}", workload.name(), outcome.notes);
        assert_eq!(outcome.failed, 0, "{}:\n{}", workload.name(), outcome.notes);
        assert!(outcome.attempted >= 1);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        for (name, value, _) in &outcome.metrics {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        // The result line is one JSON object with exactly the four keys.
        let line = parse(&result_line(&outcome)).expect("result line is JSON");
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}

#[test]
fn traced_run_reports_every_layer_metric() {
    let outcome = run(&smoke(Workload::PlanesGray, true)).expect("smoke inputs are not pinned");
    assert!(outcome.correct, "{}", outcome.notes);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0.as_str()).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    assert!(outcome.metrics.iter().all(|m| m.1.is_finite()));
}

#[test]
fn inputs_depend_on_the_seed_and_only_on_it() {
    for workload in Workload::ALL {
        let a = build(workload, 7, 50);
        assert_eq!(a.digest, build(workload, 7, 50).digest);
        assert_ne!(a.digest, build(workload, 8, 50).digest);
    }
}

#[test]
fn benchmark_json_matches_the_code_and_the_limits() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();
    let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).expect(key).to_owned();

    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<String> = workloads.iter().map(|w| text_of(w, "name")).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for w in &workloads {
        let why = text_of(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }

    let end_to_end = list("end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (json, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text_of(json, "name"), def.name);
        assert_eq!(text_of(json, "unit"), def.unit);
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text_of(json, "better"), better);
        let bound = json.get("bound").and_then(Json::as_f64).expect("bound");
        assert_eq!(bound, def.bound);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));

    let per_layer = list("per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (json, (name, unit)) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text_of(json, "name"), *name);
        assert_eq!(text_of(json, "unit"), *unit);
        let better = if HIGHER_IS_BETTER.contains(name) {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text_of(json, "better"), better);
    }

    let mut all: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    all.extend(PER_LAYER.iter().map(|m| m.0));
    all.extend(expected);
    for name in &all {
        assert!(well_formed(name), "bad name {name}");
    }
    let unique: std::collections::BTreeSet<&&str> = all.iter().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
}
