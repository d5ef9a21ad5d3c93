//! `cargo run -p xtask -- accgate` ([`gate`]) holds a `repro acc-report`
//! run to the rank checksums and NMSE / ratio bands of
//! `BENCH_accuracy.json` (DESIGN.md §9, §16).
//!
//! The workspace's source rules are the compiler's (`cargo clippy`, under
//! each crate root's `deny` lines) and Tier-1 tests': this crate's
//! `tests/` check the crate-root lines and that no traced region
//! allocates (DESIGN.md §8).

#![forbid(unsafe_code)]

mod gate;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
