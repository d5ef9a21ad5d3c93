//! Every workload at the test-only smoke size, in this process: the
//! output schema, the metric names, and agreement with `BENCHMARK.json`.

use mdd_benchmark::cli::result_line;
use mdd_benchmark::json::{self, Value};
use mdd_benchmark::metrics::{self, Metric, END_TO_END, PER_LAYER};
use mdd_benchmark::workloads::{self, Options, Size};

fn smoke(trace: bool) -> Options {
    Options {
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        threads: 2,
    }
}

fn name_ok(s: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_workload_emits_every_declared_metric_exactly_once() {
    for w in workloads::ALL {
        for (trace, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
            let o = workloads::run(w, smoke(trace));
            assert!(o.correct(), "{} trace={trace}: {:?}", w.name, o.failures);
            assert!(o.attempted >= 1 && o.failed == 0);
            let got: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{} trace={trace}", w.name);
            for (name, value, unit) in &o.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", w.name);
                assert_eq!(*unit, metrics::find(name).unwrap().unit);
                if !trace {
                    assert!(*value > 0.0, "{} {name} must never be 0", w.name);
                }
            }
            if trace {
                let traced = o
                    .metrics
                    .iter()
                    .find(|m| m.0 == "bench.ops_traced")
                    .unwrap()
                    .1;
                assert!(traced >= 1.0, "{}: no operation was traced", w.name);
                let spans = o.trace.get("spans").and_then(Value::as_array).unwrap();
                assert!(spans
                    .iter()
                    .any(|s| s.get("name").and_then(Value::as_str) == Some("op")));
            }

            // The result line: exactly the four contract keys, and it
            // survives a round trip through the parser.
            let line = result_line(&o);
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let parsed = json::parse(&line.render()).unwrap();
            assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
            for (name, m) in parsed.get("metrics").unwrap().as_object().unwrap() {
                let fields: Vec<&str> = m
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(fields, ["value", "unit"], "{name}");
            }
        }
    }
}

#[test]
fn the_same_seed_repeats_the_exact_metrics() {
    for w in workloads::ALL {
        for trace in [false, true] {
            let (a, b) = (
                workloads::run(w, smoke(trace)),
                workloads::run(w, smoke(trace)),
            );
            for ((name, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
                if metrics::find(name).unwrap().exact {
                    assert_eq!(va, vb, "{} {name} is declared exact", w.name);
                }
            }
        }
    }
}

#[test]
fn declared_names_units_and_limits_meet_the_contract() {
    let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
    for m in &all {
        assert!(name_ok(m.name, 64), "metric name {:?}", m.name);
        assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
    names.extend(workloads::ALL.iter().map(|w| w.name));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    assert!((2..=8).contains(&workloads::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for w in workloads::ALL {
        assert!(name_ok(w.name, 64));
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
    }
    for m in END_TO_END {
        assert!(
            m.bound >= 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s gets the largest bound"
    );
    assert!((1..=60).contains(&metrics::RUN_SECONDS));
}

#[test]
fn benchmark_json_is_the_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let file = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        file,
        metrics::manifest(),
        "BENCHMARK.json is out of date: regenerate it with `-- manifest`"
    );
    let keys: Vec<&str> = file
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for part in file.get("command").unwrap().as_array().unwrap() {
        let s = part.as_str().unwrap();
        assert!(s.len() <= 200 && !s.starts_with('/') && !s.contains(".."));
    }
}
