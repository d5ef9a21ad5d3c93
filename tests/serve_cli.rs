//! End-to-end checks of the `repro` binary's CLI surface: the help
//! text, the self-check, the unknown-experiment path, and a reduced
//! `serve-sim` run producing the latency-vs-offered-QPS artifact —
//! exactly what the CI smoke job executes.

use std::path::PathBuf;
use std::process::Command;

use seismic_bench::cli;
use tlr_mvm::json::Json;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn help_lists_every_subcommand_and_exits_zero() {
    let out = repro().arg("--help").output().expect("run repro --help");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for s in cli::SUBCOMMANDS {
        assert!(text.contains(s.name), "--help must mention '{}'", s.name);
    }
    assert!(text.contains("all"));
    assert!(text.contains("--self-check"));
}

#[test]
fn self_check_passes() {
    let out = repro()
        .arg("--self-check")
        .output()
        .expect("run repro --self-check");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("self-check ok"));
}

#[test]
fn unknown_experiment_exits_2_and_lists_choices() {
    let out = repro().arg("fig99").output().expect("run repro fig99");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment 'fig99'"));
    // The choices come from the same table as --help.
    for s in cli::SUBCOMMANDS {
        assert!(err.contains(s.name), "error must offer '{}'", s.name);
    }
}

/// The CI smoke shape: a tiny ladder, JSON artifact out, monotone
/// offered load, all three stages populated.
#[test]
fn serve_sim_smoke_writes_monotone_latency_curve() {
    let dir = std::env::temp_dir().join(format!("serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = repro()
        .args(["serve-sim", "--json"])
        .env("SERVE_SIM_JOBS", "6")
        .env("SERVE_SIM_RUNGS", "2")
        .current_dir(&dir)
        .output()
        .expect("run repro serve-sim");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let path: PathBuf = dir.join("target/repro/serve_sim.json");
    let text = std::fs::read_to_string(&path).expect("serve_sim.json written");
    let tree = Json::parse(&text).expect("artifact parses");
    let rungs = tree.get("rungs").and_then(Json::as_arr).expect("rungs");
    assert_eq!(rungs.len(), 2);
    let mut last = 0.0;
    for rung in rungs {
        let offered = rung.get("offered_qps").and_then(Json::as_f64).unwrap();
        assert!(offered > last, "offered load must be monotone");
        last = offered;
        let stages = rung.get("stages").and_then(Json::as_arr).expect("stages");
        assert_eq!(stages.len(), 3);
        for s in stages {
            assert_eq!(s.get("count").and_then(Json::as_u64), Some(6));
        }
        // The per-rung scheduler counters ride along in the artifact.
        assert_eq!(rung.get("submitted").and_then(Json::as_u64), Some(6));
        assert_eq!(rung.get("completed").and_then(Json::as_u64), Some(6));
    }

    // The run also scraped one OpenMetrics exposition per rung.
    for r in 0..2 {
        let prom = dir.join(format!("target/repro/metrics_{r}.prom"));
        let text = std::fs::read_to_string(&prom)
            .unwrap_or_else(|e| panic!("metrics_{r}.prom written: {e}"));
        let n = tlr_mvm::telemetry::check_openmetrics(&text)
            .unwrap_or_else(|e| panic!("metrics_{r}.prom passes the checker: {e}"));
        assert!(n > 0, "rung {r} scrape carries samples");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro serve-sim --timeline` exports the flight recorder as Perfetto
/// tracks: per-worker exec slices plus submit→steal→exec flow events
/// ("s"/"f", optional "t") for every completed job of the final rung.
#[test]
fn serve_sim_timeline_carries_engine_flow_events() {
    let dir = std::env::temp_dir().join(format!("serve-cli-tl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let jobs = 5u64;
    let out = repro()
        .args(["serve-sim", "--timeline"])
        .env("SERVE_SIM_JOBS", jobs.to_string())
        .env("SERVE_SIM_RUNGS", "2")
        .current_dir(&dir)
        .output()
        .expect("run repro serve-sim --timeline");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let path = dir.join("target/trace/serve-sim.timeline.json");
    let text = std::fs::read_to_string(&path).expect("timeline written");
    let tree = Json::parse(&text).expect("timeline parses");
    let events = tree
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let ph_count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count() as u64
    };
    // One flow start per submitted job of the final rung, one flow end
    // per executed job; each end binds to the enclosing exec slice.
    assert_eq!(ph_count("s"), jobs, "one flow start per final-rung job");
    assert_eq!(ph_count("f"), jobs, "one flow end per final-rung job");
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("f") {
            assert_eq!(e.get("bp").and_then(Json::as_str), Some("e"));
        }
    }
    let exec_slices = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("job ") && n.ends_with(" exec"))
        })
        .count() as u64;
    assert_eq!(exec_slices, jobs, "one exec slice per final-rung job");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro metrics` writes a one-shot exposition that passes the
/// OpenMetrics checker — the CI smoke job re-validates the same file.
#[test]
fn metrics_command_writes_valid_exposition() {
    let dir = std::env::temp_dir().join(format!("metrics-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = repro()
        .arg("metrics")
        .current_dir(&dir)
        .output()
        .expect("run repro metrics");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = dir.join("target/repro/metrics.prom");
    let text = std::fs::read_to_string(&path).expect("metrics.prom written");
    let n = tlr_mvm::telemetry::check_openmetrics(&text).expect("exposition passes the checker");
    assert!(n > 0);
    assert!(text.contains("# TYPE engine_jobs counter"));
    assert!(text.ends_with("# EOF\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
