//! `cargo run -p xtask -- perfgate | accgate` — one driver, two specs.
//!
//! Both gates compare a `repro <subcommand> --json` artifact against a
//! baseline committed at the workspace root and judge only what is
//! exact or measured within one run; absolute timings are evidence only
//! in `benchmark/`.
//!
//! * [`PERFGATE`]: `repro perfbench --json` vs `BENCH_table2.json`
//!   through [`seismic_bench::perf::compare_reports`] — the 16
//!   trace-counter checksums must reproduce, and each gated row of
//!   [`RATIO_ROWS`] (a quotient of two kernels of the *current* run) must
//!   stay under its ceiling.
//! * [`ACCGATE`]: `repro acc-report --json` vs `BENCH_accuracy.json`
//!   through [`seismic_bench::acc_experiments::compare_acc`] — rank
//!   checksums exact, NMSE / compression-ratio drift inside fixed bands,
//!   no compression ratio below 1, no SRAM plan that stops fitting, no
//!   baseline point missing from the run.
//!
//! Flags, the same five for both: `--compare-only` reuses the artifact
//! already on disk, `--baseline P` / `--current P` move the two files,
//! `--bless` rewrites the baseline from the current run (for perfgate
//! its exact projection: no host, no timings — so it can be blessed from
//! any machine) after printing the delta, and `--self-test` proves the
//! gate can fail, one `ok` line per proof.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use seismic_bench::acc_experiments::{acc_doc, compare_acc, read_acc_json, AccRow};
use seismic_bench::perf::{
    compare_reports, read_bench_json, BenchReport, GateLevel, GateOutcome, RATIO_ROWS,
};

/// One `--self-test` proof: what it shows, and whether it held.
type Proof = (String, bool);

/// What distinguishes one gate from the other; `R` is a loaded artifact.
pub struct GateSpec<R> {
    name: &'static str,
    /// The `repro` subcommand whose `--json` run writes `current`.
    subcommand: &'static str,
    /// Default baseline, relative to the workspace root.
    baseline: &'static str,
    /// Default current-run artifact, relative to the workspace root.
    current: &'static str,
    /// What an artifact holds entries of.
    unit: &'static str,
    load: fn(&Path) -> Result<R, String>,
    entries: fn(&R) -> usize,
    compare: fn(&R, &R) -> GateOutcome,
    /// The document `--bless` commits for a current run.
    baseline_text: fn(&R) -> String,
    self_test: fn(&R) -> Vec<Proof>,
}

/// A loaded accuracy artifact: its rows and the `REPRO_SCALE` they were
/// measured at.
type AccRun = (Vec<AccRow>, u64);

/// The perf gate: checksums against the committed exact projection,
/// within-run ratios against their ceilings.
pub const PERFGATE: GateSpec<BenchReport> = GateSpec {
    name: "perfgate",
    subcommand: "perfbench",
    baseline: "BENCH_table2.json",
    current: "target/perf/BENCH_table2.json",
    unit: "kernels",
    load: read_bench_json,
    entries: |r| r.kernels.len(),
    compare: compare_reports,
    baseline_text: |r| r.exact_projection().to_json().to_pretty(),
    self_test: perf_self_test,
};

/// The accuracy gate: rank checksums and NMSE / ratio bands.
pub const ACCGATE: GateSpec<AccRun> = GateSpec {
    name: "accgate",
    subcommand: "acc-report",
    baseline: "BENCH_accuracy.json",
    current: "target/repro/acc_report.json",
    unit: "sweep points",
    load: read_acc_json,
    entries: |r| r.0.len(),
    compare: |b, c| compare_acc(&b.0, b.1, &c.0, c.1),
    baseline_text: |r| acc_doc(&r.0, r.1).to_pretty(),
    self_test: acc_self_test,
};

fn perf_self_test(baseline: &BenchReport) -> Vec<Proof> {
    let first = baseline.kernels[0].name.as_str();
    let mut flipped = baseline.clone();
    flipped.kernels[0].trace_checksum ^= 1;
    let mut dropped = baseline.clone();
    dropped.kernels.remove(0);
    let mut proofs: Vec<Proof> = [
        ("flipped trace checksum", flipped),
        ("dropped kernel", dropped),
    ]
    .iter()
    .map(|(what, run)| {
        let failing = compare_reports(baseline, run);
        let what = format!("a {what} fails, naming: {}", failing.failing().join(", "));
        (what, failing.failing() == [first])
    })
    .collect();
    for row in RATIO_ROWS {
        let Some(ceiling) = row.ceiling else { continue };
        let verdict = |ratio: f64| {
            let run = row.synthetic_run(ratio);
            compare_reports(&run.exact_projection(), &run)
        };
        let (over, under) = (verdict(1.01 * ceiling), verdict(0.99 * ceiling));
        let name = row.name();
        proofs.push((
            format!("{name} at 1.01x its {ceiling:.1} ceiling fails by that name, at 0.99x passes"),
            over.failing() == [name] && !under.failed(),
        ));
    }
    let identity = !compare_reports(baseline, baseline).failed();
    proofs.push(("the baseline passes against itself".to_string(), identity));
    proofs
}

fn acc_self_test((rows, scale): &AccRun) -> Vec<Proof> {
    let failing = |edit: &dyn Fn(&mut Vec<AccRow>)| {
        let mut cur = rows.clone();
        edit(&mut cur);
        compare_acc(rows, *scale, &cur, *scale).failing().len()
    };
    let nmse = failing(&|cur| {
        for r in cur {
            r.nmse_inverse *= 2.0;
            r.operator_nmse *= 2.0;
        }
    });
    let ratio = failing(&|cur| cur.iter_mut().for_each(|r| r.compression_ratio *= 1.5));
    let forged = failing(&|cur| cur[0].rank_checksum ^= 1);
    let dropped = failing(&|cur| {
        cur.pop();
    });
    // Baseline and current both below 1: no drift, only the floor fails.
    let mut bloated = rows.clone();
    bloated[0].compression_ratio = 0.82;
    let floor = compare_acc(&bloated, *scale, &bloated, *scale)
        .failing()
        .len();
    vec![
        (
            format!("2x NMSE fails at {nmse} points"),
            nmse == rows.len(),
        ),
        (
            format!("1.5x compression ratio fails at {ratio} points"),
            ratio == rows.len(),
        ),
        (
            format!("one flipped rank checksum fails at {forged} point"),
            forged == 1,
        ),
        (
            format!("one baseline point the run did not measure fails at {dropped} point"),
            dropped == 1,
        ),
        (
            format!("one stored operator larger than the dense one fails at {floor} point"),
            floor == 1,
        ),
        (
            "the baseline passes against itself".to_string(),
            failing(&|_| ()) == 0,
        ),
    ]
}

/// What one invocation does with the two files.
#[derive(Debug, PartialEq)]
enum Mode {
    Compare,
    Bless,
    SelfTest,
}

/// Parsed command line for one gate run.
struct GateConfig {
    baseline: PathBuf,
    current: PathBuf,
    compare_only: bool,
    mode: Mode,
}

fn parse_config<R>(spec: &GateSpec<R>, root: &Path, args: &[String]) -> Result<GateConfig, String> {
    let mut cfg = GateConfig {
        baseline: root.join(spec.baseline),
        current: root.join(spec.current),
        compare_only: false,
        mode: Mode::Compare,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut path = || {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--compare-only" => cfg.compare_only = true,
            "--self-test" => cfg.mode = Mode::SelfTest,
            "--bless" => cfg.mode = Mode::Bless,
            "--baseline" => cfg.baseline = path()?,
            "--current" => cfg.current = path()?,
            other => return Err(format!("unknown {} flag: {other}", spec.name)),
        }
    }
    Ok(cfg)
}

fn print_outcome(name: &str, unit: &str, outcome: &GateOutcome) {
    for f in &outcome.findings {
        let tag = match f.level {
            GateLevel::Fail => "FAIL",
            GateLevel::Warn => "warn",
            GateLevel::Info => "info",
        };
        println!("{name} [{tag}] {}: {}", f.subject, f.message);
    }
    if outcome.failed() {
        println!("{name}: FAILED — {unit}: {}", outcome.failing().join(", "));
    } else {
        println!("{name}: ok ({} findings)", outcome.findings.len());
    }
}

/// Spawn `repro <subcommand> --json` (release) in `root`.
fn spawn_repro(name: &str, subcommand: &str, root: &Path) -> Result<(), String> {
    println!("{name}: running `repro {subcommand} --json` (release)...");
    let status = Command::new("cargo")
        .args(["run", "--release", "-p", "seismic-bench", "--bin", "repro"])
        .args(["--", subcommand, "--json"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("could not spawn cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`repro {subcommand}` failed with {status}"))
    }
}

/// Run one gate; `Ok(passed)`, or `Err` when there was nothing to judge.
fn drive<R>(spec: &GateSpec<R>, root: &Path, args: &[String]) -> Result<bool, String> {
    let name = spec.name;
    let cfg = parse_config(spec, root, args)?;
    let load = |path: &Path, role: &str| {
        let run = (spec.load)(path).map_err(|e| {
            format!(
                "no usable {role} ({e})\nproduce one with `cargo run --release -p \
                 seismic-bench --bin repro -- {} --json`; `cargo run -p xtask -- {name} \
                 --compare-only --bless` commits it as {}",
                spec.subcommand, spec.baseline
            )
        })?;
        if (spec.entries)(&run) == 0 {
            return Err(format!("{role} {} holds no {}", path.display(), spec.unit));
        }
        Ok(run)
    };
    // Only a first `--bless` may go on without a usable baseline.
    let baseline = load(&cfg.baseline, "baseline");
    if cfg.mode != Mode::Bless {
        baseline.as_ref().map_err(String::clone)?;
    }

    if cfg.mode == Mode::SelfTest {
        let proofs = (spec.self_test)(&baseline?);
        for (what, held) in &proofs {
            let tag = if *held { "ok" } else { "BROKEN" };
            println!("{name} --self-test: {tag} — {what}");
        }
        return Ok(proofs.iter().all(|(_, held)| *held));
    }

    // Canonical paths where both exist: `a/../a/x.json` is `a/x.json`.
    let canonical = |p: &Path| p.canonicalize().unwrap_or_else(|_| p.to_path_buf());
    if cfg.mode == Mode::Bless && canonical(&cfg.baseline) == canonical(&cfg.current) {
        return Err(format!(
            "--bless: baseline and current are the same file ({})",
            cfg.baseline.display()
        ));
    }
    if !cfg.compare_only {
        spawn_repro(name, spec.subcommand, root)?;
    }
    let current = load(&cfg.current, "current run")?;
    println!(
        "{name}: baseline {} vs current {}",
        cfg.baseline.display(),
        cfg.current.display()
    );
    let outcome = baseline.map(|old| (spec.compare)(&old, &current));
    match &outcome {
        Ok(outcome) => print_outcome(name, spec.unit, outcome),
        Err(e) => println!("{name} --bless: first bless — {e}"),
    }
    if cfg.mode == Mode::Bless {
        std::fs::write(&cfg.baseline, (spec.baseline_text)(&current))
            .map_err(|e| format!("--bless: writing {}: {e}", cfg.baseline.display()))?;
        println!(
            "{name} --bless: {} {} written to {}",
            (spec.entries)(&current),
            spec.unit,
            cfg.baseline.display()
        );
        return Ok(true);
    }
    Ok(outcome.is_ok_and(|o| !o.failed()))
}

/// Entry point for `cargo run -p xtask -- <gate> [flags]`.
pub fn run<R>(spec: &GateSpec<R>, root: &Path, args: &[String]) -> ExitCode {
    match drive(spec, root, args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        crate::workspace_root()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A scratch directory holding a copy of `spec`'s committed baseline
    /// as `name`.
    fn scratch_copy<R>(spec: &GateSpec<R>, tag: &str, name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtask_gate_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        std::fs::copy(root().join(spec.baseline), &path).expect("copy baseline");
        path
    }

    /// The committed baseline passes against itself and its self-test,
    /// and re-blessing it writes the same bytes back.
    fn committed_baseline_is_clean_against_itself<R>(spec: &GateSpec<R>) {
        let path = root().join(spec.baseline);
        let committed = (spec.load)(&path).expect("committed baseline loads");
        assert_eq!(
            (spec.baseline_text)(&committed),
            std::fs::read_to_string(&path).expect("committed baseline reads")
        );
        let base = path.display().to_string();
        let verdict = drive(
            spec,
            &root(),
            &args(&["--baseline", &base, "--current", &base, "--compare-only"]),
        );
        assert_eq!(verdict, Ok(true), "{}", spec.name);
        assert_eq!(drive(spec, &root(), &args(&["--self-test"])), Ok(true));
    }

    #[test]
    fn perfgate_committed_baseline_is_clean_against_itself() {
        committed_baseline_is_clean_against_itself(&PERFGATE);
    }

    #[test]
    fn accgate_committed_baseline_is_clean_against_itself() {
        committed_baseline_is_clean_against_itself(&ACCGATE);
    }

    /// Every knob this driver no longer has is an error that names it,
    /// for both gates.
    #[test]
    fn unknown_and_deleted_flags_are_errors_naming_the_flag() {
        fn refused<R>(spec: &GateSpec<R>, flag: &str) {
            let err = drive(spec, &root(), &args(&[flag, "1"])).expect_err(flag);
            assert!(err.contains(flag) && err.contains(spec.name), "{err}");
        }
        let deleted = [
            "fail-pct",
            "warn-pct",
            "trend",
            "nmse-fail-pct",
            "ratio-fail-pct",
        ];
        for stem in deleted.iter().chain(&["no-such-flag"]) {
            let flag = format!("--{stem}");
            refused(&PERFGATE, &flag);
            refused(&ACCGATE, &flag);
        }
    }

    /// `--bless` onto the file it reads from would destroy the run (and
    /// used to truncate the baseline): refused, file untouched.
    #[test]
    fn bless_refuses_when_baseline_and_current_are_one_file() {
        let path = scratch_copy(&PERFGATE, "same", "BENCH_table2.json");
        let before = std::fs::read(&path).expect("read");
        let p = path.display().to_string();
        let err = drive(
            &PERFGATE,
            &root(),
            &args(&[
                "--bless",
                "--compare-only",
                "--baseline",
                &p,
                "--current",
                &p,
            ]),
        )
        .expect_err("same file");
        assert!(err.contains("same file"), "{err}");
        assert_eq!(std::fs::read(&path).expect("read"), before);
        let _ = std::fs::remove_dir_all(path.parent().expect("temp dir"));
    }

    /// A baseline that parses but holds nothing is an error, not a
    /// vacuous pass.
    #[test]
    fn empty_baseline_is_an_error_for_both_gates() {
        fn refused<R>(spec: &GateSpec<R>, empty: &str) {
            let current = scratch_copy(spec, spec.name, "current.json");
            let baseline = current.with_file_name("empty.json");
            std::fs::write(&baseline, empty).expect("write");
            let (b, c) = (
                baseline.display().to_string(),
                current.display().to_string(),
            );
            let err = drive(
                spec,
                &root(),
                &args(&["--compare-only", "--baseline", &b, "--current", &c]),
            )
            .expect_err("empty baseline");
            assert!(err.contains("holds no"), "{err}");
            let _ = std::fs::remove_dir_all(current.parent().expect("temp dir"));
        }
        refused(
            &PERFGATE,
            r#"{"schema_version": 2, "experiment": "table2", "kernels": []}"#,
        );
        refused(
            &ACCGATE,
            r#"{"schema_version": 1, "experiment": "acc-report", "repro_scale": 12, "rows": []}"#,
        );
    }
}
