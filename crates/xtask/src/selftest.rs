//! `analyze --self-test` — prove every rule can actually fire.
//!
//! Mirrors `accgate --self-test`: each rule is run against an embedded
//! fixture that violates it, and the command exits 0 **iff** every rule
//! of this crate (NA01, HP01, AT01, AT02, AT03) produces the expected
//! diagnostic — the WV01–WV07 plan rules are `wse_sim::verify`'s and are
//! fixture-tested there. A lint engine that silently stops matching is
//! a worse failure mode than a noisy one; this is the regression gate
//! for the engine itself, runnable in CI without touching the workspace
//! sources.

use std::process::ExitCode;

use crate::lint::{lint_crate_attributes, lint_file, LoadedFile, RuleSet};

/// A fixture that plants one violation per token rule. The `#[cfg(test)]`
/// block plants the same violations again — if test-region exemption
/// breaks, extra findings fail the count checks below.
const TOKEN_RULE_FIXTURE: &str = r#"
pub fn na01_site(x: f64) -> u64 {
    x as u64
}
pub fn hp01_site(n: usize) -> Vec<f32> {
    let _span = trace::span("fixture.phase");
    let y = vec![0.0f32; n];
    y
}
#[cfg(test)]
mod tests {
    fn exempt(x: f64, n: usize) {
        let _ = x as u64;
        let _span = trace::span("fixture.phase");
        let _ = vec![0.0f32; n];
    }
}
"#;

struct Check {
    rule: &'static str,
    ok: bool,
    detail: String,
}

fn token_rule_checks() -> Vec<Check> {
    let f = LoadedFile::new(
        "crates/core/src/selftest_fixture.rs",
        TOKEN_RULE_FIXTURE.to_string(),
    );
    let findings = lint_file(&f, RuleSet::all());
    let count = |rule: &str| findings.iter().filter(|x| x.rule == rule).count();
    let one = |rule: &'static str, what: &str| Check {
        rule,
        ok: count(rule) == 1,
        detail: format!(
            "{what}: {} finding(s), expected 1 (test region exempt)",
            count(rule)
        ),
    };
    vec![
        one("NA01", "raw `as u64` cast fixture"),
        one("HP01", "`vec![]` inside trace::span fixture"),
    ]
}

/// A crate root with the first two attributes and no clippy line: AT03
/// alone must fire on it; a root with nothing trips all three.
const ROOT_WITHOUT_CLIPPY_LINE: &str =
    "//! fixture\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";

fn attr_rule_checks() -> Vec<Check> {
    let rules_on = |text: &str| -> Vec<&'static str> {
        lint_crate_attributes("crates/core/src/lib.rs", text)
            .iter()
            .map(|d| d.rule)
            .collect()
    };
    let bare = rules_on("//! fixture with no attributes\n");
    vec![
        Check {
            rule: "AT01",
            ok: bare.contains(&"AT01"),
            detail: "missing #![forbid(unsafe_code)] detected".to_string(),
        },
        Check {
            rule: "AT02",
            ok: bare.contains(&"AT02"),
            detail: "missing #![deny(missing_docs)] detected".to_string(),
        },
        Check {
            rule: "AT03",
            ok: bare.contains(&"AT03") && rules_on(ROOT_WITHOUT_CLIPPY_LINE) == ["AT03"],
            detail: "crate root missing the clippy deny line detected".to_string(),
        },
    ]
}

fn all_checks() -> Vec<Check> {
    let mut checks = token_rule_checks();
    checks.extend(attr_rule_checks());
    checks
}

/// Run all fixture checks; exit 0 iff every rule fired as expected.
pub fn run() -> ExitCode {
    let checks = all_checks();
    let mut failed = 0usize;
    for c in &checks {
        let tag = if c.ok { "ok" } else { "BROKEN" };
        println!("analyze --self-test: [{tag}] {} — {}", c.rule, c.detail);
        if !c.ok {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "analyze --self-test: BROKEN — {failed}/{} rules did not fire on their fixture",
            checks.len()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "analyze --self-test: ok — all {} rules fire on their fixtures",
            checks.len()
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_check_passes() {
        let checks = all_checks();
        for c in &checks {
            assert!(c.ok, "rule {} fixture broken: {}", c.rule, c.detail);
        }
        assert_eq!(
            checks.len(),
            5,
            "all analyze rules covered: 2 token + 3 attr"
        );
    }
}
