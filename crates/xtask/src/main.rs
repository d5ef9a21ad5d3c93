//! `cargo run -p xtask -- analyze` — the workspace static-analysis
//! driver, token-level engine (v2).
//!
//! Passes, all reporting through the shared
//! [`wse_sim::verify::Diagnostic`] type:
//!
//! 1. **Token and attribute lints** ([`lint`] on the [`lexer`] stream):
//!    `NA01` (no raw integer `as` casts in `core`/`la`/`wse`), `HP01`
//!    (no heap allocation inside `trace::span` regions in `core`/`wse`),
//!    `AT01`/`AT02`/`AT03` (crate-root attributes — AT03 is the
//!    `deny(clippy::…)` line under which `cargo clippy` rejects the
//!    panic family, float `==` and reason-less `#[allow]`, so those
//!    rules and their `#[expect(…, reason)]` exceptions are the
//!    compiler's). A finding here is fixed, not excused.
//! 2. **Static plan verification** ([`plan`]): the paper's Table 1
//!    configurations must pass the `WV..` rules of
//!    [`wse_sim::verify::verify_plan`] without being placed or run.
//!
//! Flags: `--sarif <path>` writes a SARIF 2.1.0 report ([`sarif`]),
//! `--json` prints a machine-readable summary to stdout instead of the
//! human lines, `--self-test` ([`selftest`]) proves every rule fires on
//! embedded fixtures (exit 0 iff all of them do).
//!
//! Exit status: `0` when there is no error-severity diagnostic, `1`
//! otherwise — suitable as a blocking CI step.
//!
//! `cargo run -p xtask -- accgate` ([`gate`]) holds a `repro acc-report`
//! run to the rank checksums and NMSE / ratio bands of
//! `BENCH_accuracy.json` (DESIGN.md §9, §16).

#![forbid(unsafe_code)]

mod gate;
mod lexer;
mod lint;
mod plan;
mod sarif;
mod scan;
mod selftest;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tlr_mvm::json::Json;
use wse_sim::verify::{Diagnostic, Severity};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n");
        print_usage();
        ExitCode::FAILURE
    })
}

/// Run the command `args` names; an unknown name is an error naming it.
fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    Ok(match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("accgate") => gate::run(&workspace_root(), &args[1..]),
        Some("help") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => return Err(format!("unknown xtask command: {other}")),
    })
}

fn print_usage() {
    eprintln!(
        "usage: cargo run -p xtask -- <command>\n\n\
         commands:\n  \
         analyze   run the static-analysis suite: token lints (NA01/HP01), crate-root\n            \
         attributes (AT01/AT02/AT03), static WSE plan verification\n            \
         (WV01..WV07)\n            \
         [--sarif <path>  write a SARIF 2.1.0 report]\n            \
         [--json          machine-readable output on stdout]\n            \
         [--self-test     prove every rule fires on embedded fixtures]\n  \
         accgate   compare a `repro acc-report --json` run against the committed\n            \
         BENCH_accuracy.json; fails (NMSE/ratio drift beyond the fixed\n            \
         bands, any rank-structure checksum change, or an SRAM plan\n            \
         regression) with the sweep point named\n            \
         [--compare-only --self-test --bless --baseline P --current P]\n  \
         help      show this message"
    );
}

/// Workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

struct AnalyzeConfig {
    sarif: Option<PathBuf>,
    json: bool,
    self_test: bool,
}

fn parse_analyze_args(args: &[String]) -> Result<AnalyzeConfig, String> {
    let mut cfg = AnalyzeConfig {
        sarif: None,
        json: false,
        self_test: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => cfg.json = true,
            "--self-test" => cfg.self_test = true,
            "--sarif" => {
                cfg.sarif = Some(PathBuf::from(
                    it.next().ok_or("--sarif needs a path")?.clone(),
                ));
            }
            other => return Err(format!("unknown analyze flag: {other}")),
        }
    }
    Ok(cfg)
}

fn analyze(args: &[String]) -> ExitCode {
    let cfg = match parse_analyze_args(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cfg.self_test {
        return selftest::run();
    }

    let root = workspace_root();
    let mut all: Vec<Diagnostic> = Vec::new();

    // Pass 1: token and attribute lints.
    let outcome = lint::run_lints(&root, &lint::load_workspace(&root));
    let n_files = outcome.files;
    all.extend(outcome.diagnostics);

    // Pass 2: static plan verification of the paper configurations.
    let (plan_diags, plans_checked) = plan::verify_paper_plans();
    all.extend(plan_diags);

    let errors = all.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = all.len() - errors;

    if let Some(path) = &cfg.sarif {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let doc = sarif::sarif_report(&all);
        match std::fs::write(path, doc.to_pretty()) {
            Ok(()) => {
                if !cfg.json {
                    println!("analyze: SARIF written to {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("analyze: cannot write SARIF to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if cfg.json {
        let diags = all.iter().map(|d| {
            Json::obj([
                ("rule", d.rule.into()),
                ("severity", d.severity.to_string().into()),
                ("location", d.location.as_str().into()),
                ("message", d.message.as_str().into()),
            ])
        });
        let doc = Json::obj([
            ("files", n_files.into()),
            ("plans_verified", plans_checked.into()),
            ("errors", errors.into()),
            ("warnings", warnings.into()),
            ("diagnostics", Json::arr(diags)),
        ]);
        print!("{}", doc.to_pretty());
    } else {
        for d in &all {
            println!("{d}");
        }
        println!(
            "analyze: {n_files} files linted, {plans_checked} plans verified, \
             {errors} errors, {warnings} warnings"
        );
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
