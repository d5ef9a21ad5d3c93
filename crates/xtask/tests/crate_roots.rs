//! Every crate root keeps the lint lines the compiler enforces: a root
//! that loses one still compiles, without the check the line carried.
//!
//! * `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` in every
//!   library crate root (rules AT01 and AT02);
//! * the `cfg_attr(not(test), deny(clippy::…))` line of the panic family,
//!   float `==` and reason-less `#[allow]` in those roots and the `repro`
//!   binary's (AT03), under which `cargo clippy` rejects them;
//! * `cfg_attr(not(test), deny(clippy::as_conversions))` in `core`, `la`
//!   and `wse`, the line that holds their casts to `From`, the checked
//!   integer casts and the float helpers of `tlr_mvm::cast` (NA01).

use std::path::Path;

const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";
const DENY_MISSING_DOCS: &str = "#![deny(missing_docs)]";
/// AT03 with its whitespace removed (rustfmt spreads it over 13 lines).
const DENY_PANICS: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
    clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented,clippy::float_cmp,\
    clippy::allow_attributes_without_reason))]";
const DENY_AS: &str = "#![cfg_attr(not(test),deny(clippy::as_conversions))]";

/// What every library crate root keeps.
const LIB: &[&str] = &[FORBID_UNSAFE, DENY_MISSING_DOCS, DENY_PANICS];
/// What `core`, `la` and `wse` keep.
const LIB_NO_AS: &[&str] = &[FORBID_UNSAFE, DENY_MISSING_DOCS, DENY_PANICS, DENY_AS];

/// Each crate root, relative to `crates/`, and the lines it must keep.
const ROOTS: &[(&str, &[&str])] = &[
    ("core/src/lib.rs", LIB_NO_AS),
    ("la/src/lib.rs", LIB_NO_AS),
    ("wse/src/lib.rs", LIB_NO_AS),
    ("fft/src/lib.rs", LIB),
    ("geom/src/lib.rs", LIB),
    ("wave/src/lib.rs", LIB),
    ("mdd/src/lib.rs", LIB),
    ("bench/src/lib.rs", LIB),
    ("bench/src/main.rs", &[DENY_PANICS]),
];

/// The lines of `required` that `root` lacks, compared with whitespace
/// removed and line comments dropped.
fn missing<'a>(root: &str, required: &[&'a str]) -> Vec<&'a str> {
    let code: String = root
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(str::split_whitespace)
        .collect();
    required
        .iter()
        .copied()
        .filter(|line| !code.contains(line))
        .collect()
}

#[test]
fn every_crate_root_keeps_its_lint_lines() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for &(root, required) in ROOTS {
        let text = std::fs::read_to_string(crates.join(root)).expect("crate root reads");
        assert_eq!(missing(&text, required), [] as [&str; 0], "crates/{root}");
    }
}

/// A root carrying every line, spread over lines as rustfmt writes it.
fn good_root() -> String {
    format!(
        "//! docs\n{FORBID_UNSAFE}\n{DENY_MISSING_DOCS}\n{}\n{DENY_AS}\n",
        DENY_PANICS.replace(",", ",\n    ")
    )
}

#[test]
fn crate_attributes_checked() {
    let all = LIB_NO_AS;
    let good = good_root();
    assert!(missing(&good, all).is_empty());
    assert_eq!(missing("//! docs\n", all), all);
    let cases = [
        (
            good.replace(DENY_MISSING_DOCS, "#![warn(missing_docs)]"),
            DENY_MISSING_DOCS,
        ),
        (good.replace(DENY_AS, &format!("// {DENY_AS}")), DENY_AS),
    ];
    for (root, lost) in cases {
        assert_eq!(missing(&root, all), [lost], "{root}");
    }
}

#[test]
fn at03_needs_every_lint_of_the_line() {
    let good = good_root();
    for root in [
        good.replace("clippy::float_cmp,", ""),
        good.replace("not(test),\n", "test,\n"),
    ] {
        assert_eq!(missing(&root, LIB_NO_AS), [DENY_PANICS], "{root}");
    }
}

#[test]
fn deny_unsafe_is_not_enough_for_any_crate() {
    let root = good_root().replace("forbid(unsafe_code)", "deny(unsafe_code)");
    assert_eq!(missing(&root, LIB), [FORBID_UNSAFE]);
    assert_eq!(missing(&root, LIB_NO_AS), [FORBID_UNSAFE]);
}
