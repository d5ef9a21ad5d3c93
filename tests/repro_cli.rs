//! End-to-end checks of the `repro` binary's CLI surface: the help
//! text, the self-check and the unknown-experiment path — exactly what
//! the CI `repro-cli` job executes.

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
