//! End-to-end checks of the `repro` binary's CLI surface: the help
//! text, the self-check, and the refusals of an unknown experiment, an
//! unknown flag and a malformed `REPRO_SCALE` — exactly what the CI
//! `repro-cli` job executes.

use std::process::Command;

use seismic_bench::cli;

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

/// A name never listed and a retired one (`precision`, the bf16 ablation)
/// are both unknown.
#[test]
fn unknown_experiment_exits_2_and_lists_choices() {
    for name in ["fig99", "precision"] {
        let out = repro().arg(name).output().expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown experiment '{name}'")),
            "{err}"
        );
        // The choices come from the same table as --help.
        for s in cli::SUBCOMMANDS {
            assert!(err.contains(s.name), "error must offer '{}'", s.name);
        }
        assert!(out.stdout.is_empty(), "{name}: nothing may run");
    }
}

#[test]
fn retired_flag_exits_2_and_names_it() {
    let out = repro()
        .args(["table1", "--atlas"])
        .output()
        .expect("run repro table1 --atlas");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag '--atlas'"), "{err}");
    // The choices come from the same table as --help.
    for f in cli::FLAGS {
        assert!(err.contains(f.name), "error must offer '{}'", f.name);
    }
    assert!(out.stdout.is_empty(), "table1 must not run");
}

#[test]
fn mistyped_flag_runs_nothing() {
    let out = repro().arg("--jsno").output().expect("run repro --jsno");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("'--jsno'"));
    assert!(out.stdout.is_empty(), "no experiment may run");
}

#[test]
fn second_experiment_exits_2_and_names_both() {
    let out = repro()
        .args(["table1", "fig14"])
        .output()
        .expect("run repro table1 fig14");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("'table1'") && err.contains("'fig14'"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn malformed_repro_scale_exits_2_and_names_it() {
    let out = repro()
        .arg("table1")
        .env("REPRO_SCALE", "6x")
        .output()
        .expect("run repro table1");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("REPRO_SCALE='6x'"));
    assert!(out.stdout.is_empty());
}
