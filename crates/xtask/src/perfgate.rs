//! `cargo run -p xtask -- perfgate` — the perf-regression gate.
//!
//! Compares a fresh (or pre-existing, with `--compare-only`) `repro
//! perfbench --json` run against the committed `BENCH_table2.json`
//! baseline at the workspace root, using
//! [`seismic_bench::perf::compare_reports`]: median regressions beyond
//! the fail threshold (default 15 %) exit nonzero and name the offending
//! kernel; 8–15 % warns; trace-checksum mismatches fail as accounting
//! drift regardless of timing.
//!
//! `--bless` re-baselines: it runs a fresh `repro perfbench --json`
//! (honoring `--compare-only` to reuse an existing run), prints the
//! delta against the old baseline, and copies the run over the committed
//! `BENCH_table2.json` byte-for-byte — the one sanctioned way to move
//! the baseline, so a re-bless is always a reviewable diff of the same
//! deterministic writer.
//!
//! One check needs no baseline: within the current run,
//! `gemv.vbatch.fast ÷ gemv.ubatch.fast` — same matrix, same bytes —
//! above 2.0 fails, which is what a compiler that stops vectorising the
//! conjugated dot looks like (3.4 scalar, ≈1.1 vectorised).
//!
//! `--self-test` proves the gate can actually fail: it loads the
//! baseline, doubles every median in memory, and exits 0 **iff** the
//! gate rejects that synthetic 2× slowdown with at least one named
//! kernel, and rejects a run whose V-batch takes 2.5× its U-batch while
//! passing one at 1.5×. `PERFGATE_INJECT_SLOWDOWN=<mult>` does the same to a real
//! current run, for end-to-end rehearsals of the failure path.
//!
//! `--trend` additionally scans the append-only `BENCH_history.jsonl`
//! ledger (`repro perfbench --json` appends one line per run) and warns
//! on kernels whose cumulative first→last median drift reaches 5 % —
//! the slow creep each individual gate run is too coarse to see.
//! Advisory only; trend warnings never flip the exit code.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use seismic_bench::perf::{
    compare_reports, read_bench_json, BenchReport, GateLevel, GateThresholds, VBATCH_OVER_UBATCH,
};

/// Parsed command line + environment for one gate run.
struct GateConfig {
    baseline: PathBuf,
    current: PathBuf,
    thresholds: GateThresholds,
    compare_only: bool,
    self_test: bool,
    bless: bool,
    trend: bool,
    inject_slowdown: Option<f64>,
}

fn parse_config(root: &Path, args: &[String]) -> Result<GateConfig, String> {
    let mut cfg = GateConfig {
        baseline: root.join("BENCH_table2.json"),
        current: root.join("target/perf/BENCH_table2.json"),
        thresholds: GateThresholds::default(),
        compare_only: false,
        self_test: false,
        bless: false,
        trend: false,
        inject_slowdown: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--compare-only" => cfg.compare_only = true,
            "--self-test" => cfg.self_test = true,
            "--bless" => cfg.bless = true,
            "--trend" => cfg.trend = true,
            "--baseline" => cfg.baseline = PathBuf::from(value("--baseline")?),
            "--current" => cfg.current = PathBuf::from(value("--current")?),
            "--fail-pct" => {
                cfg.thresholds.fail_pct = value("--fail-pct")?
                    .parse()
                    .map_err(|e| format!("--fail-pct: {e}"))?
            }
            "--warn-pct" => {
                cfg.thresholds.warn_pct = value("--warn-pct")?
                    .parse()
                    .map_err(|e| format!("--warn-pct: {e}"))?
            }
            other => return Err(format!("unknown perfgate flag: {other}")),
        }
    }
    let env_f64 = |key: &str| -> Result<Option<f64>, String> {
        match std::env::var(key) {
            Ok(v) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|e| format!("{key}={v}: {e}")),
            Err(_) => Ok(None),
        }
    };
    if let Some(p) = env_f64("PERFGATE_FAIL_PCT")? {
        cfg.thresholds.fail_pct = p;
    }
    if let Some(p) = env_f64("PERFGATE_WARN_PCT")? {
        cfg.thresholds.warn_pct = p;
    }
    cfg.inject_slowdown = env_f64("PERFGATE_INJECT_SLOWDOWN")?;
    Ok(cfg)
}

fn slow_down(report: &mut BenchReport, mult: f64) {
    for k in &mut report.kernels {
        k.median_ns = (k.median_ns as f64 * mult) as u64;
        k.min_ns = (k.min_ns as f64 * mult) as u64;
    }
}

fn print_outcome(
    outcome: &seismic_bench::perf::GateOutcome,
    thresholds: GateThresholds,
) -> ExitCode {
    for f in &outcome.findings {
        let tag = match f.level {
            GateLevel::Fail => "FAIL",
            GateLevel::Warn => "warn",
            GateLevel::Info => "info",
        };
        println!("perfgate [{tag}] {}: {}", f.kernel, f.message);
    }
    if outcome.failed() {
        println!(
            "perfgate: FAILED (> {:.0}% median regression or accounting drift) — \
             kernels: {}",
            thresholds.fail_pct,
            outcome.failing_kernels().join(", ")
        );
        ExitCode::FAILURE
    } else {
        println!(
            "perfgate: ok ({} kernels compared, fail > {:.0}%, warn > {:.0}%)",
            outcome.findings.len(),
            thresholds.fail_pct,
            thresholds.warn_pct
        );
        ExitCode::SUCCESS
    }
}

/// Spawn `repro perfbench --json` (release) in `root`; the run writes
/// `target/perf/BENCH_table2.json`.
fn spawn_perfbench(root: &Path) -> Result<(), ExitCode> {
    println!("perfgate: running `repro perfbench --json` (release)...");
    let status = Command::new("cargo")
        .args([
            "run",
            "--release",
            "-p",
            "seismic-bench",
            "--bin",
            "repro",
            "--",
            "perfbench",
            "--json",
        ])
        .current_dir(root)
        .status();
    match status {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => {
            eprintln!("perfgate: perfbench run failed with {s}");
            Err(ExitCode::FAILURE)
        }
        Err(e) => {
            eprintln!("perfgate: could not spawn cargo: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `--bless`: measure (or reuse) a current run, show the delta against
/// the old baseline, and install the run as the new committed baseline.
fn bless(cfg: &GateConfig, root: &Path) -> ExitCode {
    if !cfg.compare_only {
        if let Err(code) = spawn_perfbench(root) {
            return code;
        }
    }
    let current = match read_bench_json(&cfg.current) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfgate --bless: no current run ({e})");
            return ExitCode::FAILURE;
        }
    };
    match read_bench_json(&cfg.baseline) {
        Ok(old) => {
            // Informational: what the re-baseline changes.
            print_outcome(
                &compare_reports(&old, &current, cfg.thresholds),
                cfg.thresholds,
            );
        }
        Err(e) => println!("perfgate --bless: no prior baseline ({e}) — first bless"),
    }
    // Byte-for-byte copy of the deterministic writer's output, so the
    // committed file never depends on a second serialization pass.
    if let Err(e) = std::fs::copy(&cfg.current, &cfg.baseline) {
        eprintln!(
            "perfgate --bless: copying {} -> {} failed: {e}",
            cfg.current.display(),
            cfg.baseline.display()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "perfgate --bless: {} kernels written to {}",
        current.kernels.len(),
        cfg.baseline.display()
    );
    ExitCode::SUCCESS
}

/// Entry point for `cargo run -p xtask -- perfgate [flags]`.
pub fn run(root: &Path, args: &[String]) -> ExitCode {
    let cfg = match parse_config(root, args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfgate: {e}");
            return ExitCode::FAILURE;
        }
    };

    if cfg.bless {
        return bless(&cfg, root);
    }

    let baseline = match read_bench_json(&cfg.baseline) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "perfgate: no usable baseline ({e})\n\
                 generate one with `cargo run --release -p seismic-bench --bin repro -- \
                 perfbench --json`, review it, and commit it as BENCH_table2.json"
            );
            return ExitCode::FAILURE;
        }
    };

    if cfg.self_test {
        // Prove the gate can fail: a synthetic 2× slowdown of the
        // baseline itself must be rejected with named kernels.
        let mut doubled = baseline.clone();
        slow_down(&mut doubled, 2.0);
        let outcome = compare_reports(&baseline, &doubled, cfg.thresholds);
        let named = outcome.failing_kernels();
        if !outcome.failed() || named.is_empty() {
            eprintln!("perfgate --self-test: BROKEN — a 2x slowdown passed the gate");
            return ExitCode::FAILURE;
        }
        println!(
            "perfgate --self-test: ok — synthetic 2x slowdown correctly fails \
             the gate, naming: {}",
            named.join(", ")
        );
        // The within-run quotient must fail on its own: a release run
        // compared with itself (no median moved) whose V-batch takes
        // 2.5x its U-batch is rejected by that name, and 1.5x passes.
        let quotient_fails = |v_over_u: f64| {
            let mut run = baseline.clone();
            run.host.profile = "release".to_string();
            let u = run.kernel("gemv.ubatch.fast").map_or(0, |k| k.median_ns);
            if let Some(v) = run
                .kernels
                .iter_mut()
                .find(|k| k.name == "gemv.vbatch.fast")
            {
                v.median_ns = (u as f64 * v_over_u) as u64;
            }
            compare_reports(&run, &run, cfg.thresholds)
                .failing_kernels()
                .contains(&VBATCH_OVER_UBATCH)
        };
        if quotient_fails(2.5) && !quotient_fails(1.5) {
            println!(
                "perfgate --self-test: ok — V-batch at 2.5x U-batch within one run \
                 fails as {VBATCH_OVER_UBATCH}, 1.5x passes"
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("perfgate --self-test: BROKEN — the {VBATCH_OVER_UBATCH} ceiling does not gate");
        return ExitCode::FAILURE;
    }

    if !cfg.compare_only {
        if let Err(code) = spawn_perfbench(root) {
            return code;
        }
    }

    let mut current = match read_bench_json(&cfg.current) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "perfgate: no current run ({e})\n\
                 run `repro perfbench --json` first or drop --compare-only"
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(mult) = cfg.inject_slowdown {
        println!("perfgate: PERFGATE_INJECT_SLOWDOWN={mult} — scaling current medians");
        slow_down(&mut current, mult);
    }

    println!(
        "perfgate: baseline {} vs current {}",
        cfg.baseline.display(),
        cfg.current.display()
    );
    if cfg.trend {
        print_trend(root);
    }
    print_outcome(
        &compare_reports(&baseline, &current, cfg.thresholds),
        cfg.thresholds,
    )
}

/// `--trend`: scan the append-only `BENCH_history.jsonl` ledger for
/// slow creep — kernels whose first→last median drift across recorded
/// same-profile runs reaches [`TREND_WARN_PCT`], each step of which was
/// too small for the single-run gate to flag. Advisory only: trend
/// warnings never fail the gate (the committed baseline does that), so
/// a missing or short ledger is fine.
fn print_trend(root: &Path) {
    let path = root.join("BENCH_history.jsonl");
    if !path.exists() {
        println!(
            "perfgate --trend: no {} yet (repro perfbench --json appends one line per run)",
            path.display()
        );
        return;
    }
    match seismic_bench::perf::history_trend(&path, TREND_WARN_PCT) {
        Ok(warnings) if warnings.is_empty() => {
            println!("perfgate --trend: no kernel drifted >= {TREND_WARN_PCT:.0}% cumulatively");
        }
        Ok(warnings) => {
            for w in &warnings {
                println!("perfgate --trend [warn] {w}");
            }
        }
        Err(e) => println!("perfgate --trend: {e}"),
    }
}

/// Cumulative first→last median drift that `--trend` reports.
const TREND_WARN_PCT: f64 = 5.0;
