//! `cargo run -p xtask -- accgate` — the accuracy gate.
//!
//! Compares a `repro acc-report --json` artifact against the committed
//! `BENCH_accuracy.json` through
//! [`seismic_bench::acc_experiments::compare_acc`] — rank checksums exact,
//! NMSE / compression-ratio drift inside fixed bands, no compression ratio
//! below 1, no SRAM plan that stops fitting, no baseline point missing
//! from the run. It judges only what is exact or deterministic; absolute
//! timings are evidence only in `benchmark/`.
//!
//! Flags: `--compare-only` reuses the artifact already on disk,
//! `--baseline P` / `--current P` move the two files, `--bless` rewrites
//! the baseline from the current run after printing the delta, and
//! `--self-test` proves the gate can fail, one `ok` line per proof.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use seismic_bench::acc_experiments::{
    acc_doc, compare_acc, read_acc_json, AccRow, GateLevel, GateOutcome,
};

const NAME: &str = "accgate";

/// The committed baseline, relative to the workspace root.
const BASELINE: &str = "BENCH_accuracy.json";

/// Where `repro acc-report --json` writes its run, relative to the
/// workspace root.
const CURRENT: &str = "target/repro/acc_report.json";

/// One `--self-test` proof: what it shows, and whether it held.
type Proof = (String, bool);

/// A loaded accuracy artifact: its rows and the `REPRO_SCALE` they were
/// measured at.
type AccRun = (Vec<AccRow>, u64);

fn self_test((rows, scale): &AccRun) -> Vec<Proof> {
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

fn parse_config(root: &Path, args: &[String]) -> Result<GateConfig, String> {
    let mut cfg = GateConfig {
        baseline: root.join(BASELINE),
        current: root.join(CURRENT),
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
            other => return Err(format!("unknown {NAME} flag: {other}")),
        }
    }
    Ok(cfg)
}

fn print_outcome(outcome: &GateOutcome) {
    for f in &outcome.findings {
        let tag = match f.level {
            GateLevel::Fail => "FAIL",
            GateLevel::Warn => "warn",
            GateLevel::Info => "info",
        };
        println!("{NAME} [{tag}] {}: {}", f.subject, f.message);
    }
    if outcome.failed() {
        println!(
            "{NAME}: FAILED — sweep points: {}",
            outcome.failing().join(", ")
        );
    } else {
        println!("{NAME}: ok ({} findings)", outcome.findings.len());
    }
}

/// Spawn `repro acc-report --json` (release) in `root`.
fn spawn_repro(root: &Path) -> Result<(), String> {
    println!("{NAME}: running `repro acc-report --json` (release)...");
    let status = Command::new("cargo")
        .args(["run", "--release", "-p", "seismic-bench", "--bin", "repro"])
        .args(["--", "acc-report", "--json"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("could not spawn cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`repro acc-report` failed with {status}"))
    }
}

/// Load an artifact that holds at least one sweep point.
fn load(path: &Path, role: &str) -> Result<AccRun, String> {
    let run = read_acc_json(path).map_err(|e| {
        format!(
            "no usable {role} ({e})\nproduce one with `cargo run --release -p \
             seismic-bench --bin repro -- acc-report --json`; `cargo run -p xtask -- \
             {NAME} --compare-only --bless` commits it as {BASELINE}"
        )
    })?;
    if run.0.is_empty() {
        return Err(format!("{role} {} holds no sweep points", path.display()));
    }
    Ok(run)
}

/// Run the gate; `Ok(passed)`, or `Err` when there was nothing to judge.
fn drive(root: &Path, args: &[String]) -> Result<bool, String> {
    let cfg = parse_config(root, args)?;
    // Only a first `--bless` may go on without a usable baseline.
    let baseline = load(&cfg.baseline, "baseline");
    if cfg.mode != Mode::Bless {
        baseline.as_ref().map_err(String::clone)?;
    }

    if cfg.mode == Mode::SelfTest {
        let proofs = self_test(&baseline?);
        for (what, held) in &proofs {
            let tag = if *held { "ok" } else { "BROKEN" };
            println!("{NAME} --self-test: {tag} — {what}");
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
        spawn_repro(root)?;
    }
    let current = load(&cfg.current, "current run")?;
    println!(
        "{NAME}: baseline {} vs current {}",
        cfg.baseline.display(),
        cfg.current.display()
    );
    let outcome = baseline.map(|(rows, scale)| compare_acc(&rows, scale, &current.0, current.1));
    match &outcome {
        Ok(outcome) => print_outcome(outcome),
        Err(e) => println!("{NAME} --bless: first bless — {e}"),
    }
    if cfg.mode == Mode::Bless {
        std::fs::write(&cfg.baseline, acc_doc(&current.0, current.1).to_pretty())
            .map_err(|e| format!("--bless: writing {}: {e}", cfg.baseline.display()))?;
        println!(
            "{NAME} --bless: {} sweep points written to {}",
            current.0.len(),
            cfg.baseline.display()
        );
        return Ok(true);
    }
    Ok(outcome.is_ok_and(|o| !o.failed()))
}

/// Entry point for `cargo run -p xtask -- accgate [flags]`.
pub fn run(root: &Path, args: &[String]) -> ExitCode {
    match drive(root, args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{NAME}: {e}");
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

    /// A scratch directory holding a copy of the committed baseline as
    /// `name`.
    fn scratch_copy(tag: &str, name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtask_gate_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        std::fs::copy(root().join(BASELINE), &path).expect("copy baseline");
        path
    }

    /// The committed baseline passes against itself and its self-test,
    /// and re-blessing it writes the same bytes back.
    #[test]
    fn accgate_committed_baseline_is_clean_against_itself() {
        let path = root().join(BASELINE);
        let (rows, scale) = load(&path, "baseline").expect("committed baseline loads");
        assert_eq!(
            acc_doc(&rows, scale).to_pretty(),
            std::fs::read_to_string(&path).expect("committed baseline reads")
        );
        let base = path.display().to_string();
        let verdict = drive(
            &root(),
            &args(&["--baseline", &base, "--current", &base, "--compare-only"]),
        );
        assert_eq!(verdict, Ok(true));
        assert_eq!(drive(&root(), &args(&["--self-test"])), Ok(true));
    }

    /// Every knob this gate no longer has is an error that names it, and
    /// so are the deleted `perfgate` and `analyze` commands.
    #[test]
    fn unknown_and_deleted_flags_are_errors_naming_the_flag() {
        let deleted = [
            "fail-pct",
            "warn-pct",
            "trend",
            "nmse-fail-pct",
            "ratio-fail-pct",
        ];
        for stem in deleted.iter().chain(&["no-such-flag"]) {
            let flag = format!("--{stem}");
            let err = drive(&root(), &args(&[&flag, "1"])).expect_err(&flag);
            assert!(err.contains(&flag) && err.contains(NAME), "{err}");
        }
        for command in ["perfgate", "analyze"] {
            let err = crate::dispatch(&args(&[command])).expect_err(command);
            assert_eq!(err, format!("unknown xtask command: {command}"));
        }
    }

    /// `--bless` onto the file it reads from would destroy the run (and
    /// used to truncate the baseline): refused, file untouched.
    #[test]
    fn bless_refuses_when_baseline_and_current_are_one_file() {
        let path = scratch_copy("same", BASELINE);
        let before = std::fs::read(&path).expect("read");
        let p = path.display().to_string();
        let err = drive(
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
    fn empty_baseline_is_an_error() {
        let current = scratch_copy("empty", "current.json");
        let baseline = current.with_file_name("empty.json");
        let empty =
            r#"{"schema_version": 1, "experiment": "acc-report", "repro_scale": 12, "rows": []}"#;
        std::fs::write(&baseline, empty).expect("write");
        let (b, c) = (
            baseline.display().to_string(),
            current.display().to_string(),
        );
        let err = drive(
            &root(),
            &args(&["--compare-only", "--baseline", &b, "--current", &c]),
        )
        .expect_err("empty baseline");
        assert!(err.contains("holds no"), "{err}");
        let _ = std::fs::remove_dir_all(current.parent().expect("temp dir"));
    }
}
