//! `analyze --self-test` — prove every rule can actually fire.
//!
//! Mirrors `perfgate --self-test`: each rule is run against an embedded
//! fixture that violates it, and the command exits 0 **iff** every rule
//! (NA01, NP01, AT01, AT02, CC01, CC02, CC03, HP01, FE01)
//! produces the expected diagnostic. A lint engine that silently stops
//! matching is a worse failure mode than a noisy one; this is the
//! regression gate for the engine itself, runnable in CI without
//! touching the workspace sources.

use std::process::ExitCode;

use crate::concurrency;
use crate::lint::{lint_crate_attributes, lint_file, LoadedFile, RuleSet};

/// A fixture that plants one violation per token rule. The `#[cfg(test)]`
/// block plants the same violations again — if test-region exemption
/// breaks, extra findings fail the count checks below.
const TOKEN_RULE_FIXTURE: &str = r#"
pub fn na01_site(x: f64) -> u64 {
    x as u64
}
pub fn np01_site(v: Option<u32>) -> u32 {
    v.unwrap()
}
pub fn hp01_site(n: usize) -> Vec<f32> {
    let _span = trace::span("fixture.phase");
    let y = vec![0.0f32; n];
    y
}
pub fn fe01_site(alpha: f32) -> bool {
    alpha == 0.0
}
#[cfg(test)]
mod tests {
    fn exempt(x: f64, v: Option<u32>, alpha: f32) {
        let _ = x as u64;
        let _ = v.unwrap();
        let _ = alpha == 0.0;
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
        one("NP01", "`.unwrap()` fixture"),
        one("HP01", "`vec![]` inside trace::span fixture"),
        one("FE01", "`alpha == 0.0` fixture"),
    ]
}

fn attr_rule_checks() -> Vec<Check> {
    let diags = lint_crate_attributes("crates/core/src/lib.rs", "//! fixture with no attributes\n");
    let has = |rule: &str| diags.iter().any(|d| d.rule == rule);
    vec![
        Check {
            rule: "AT01",
            ok: has("AT01"),
            detail: "missing #![forbid(unsafe_code)] detected".to_string(),
        },
        Check {
            rule: "AT02",
            ok: has("AT02"),
            detail: "missing #![deny(missing_docs)] detected".to_string(),
        },
    ]
}

/// CC01 proof-path fixture: a pure counter — the fetch_add/load results
/// never feed a branch or index, so the ledger must discharge both
/// sites without a sanction.
const CC01_COUNTER_FIXTURE: &str = "\
impl Counter {
    pub fn bump(&self) -> u64 {
        self.n.fetch_add(1, Ordering::Relaxed)
    }
    pub fn total(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}
";

/// CC02/CC03 seqlock + lock-order fixtures are derived from this
/// minimal, protocol-correct pair by perturbing one edge at a time.
const CC02_SEQLOCK_FIXTURE: &str = "\
// CC-PROTOCOL(fixture-seqlock): seqlock writer=Cell::write reader=Cell::read
impl Cell {
    pub fn write(&self, t: u64, v: u64) {
        self.seq.store(t * 2 + 1, Ordering::Release);
        self.val.store(v, Ordering::Relaxed);
        self.seq.store(t * 2 + 2, Ordering::Release);
    }
    pub fn read(&self) -> Option<u64> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let v = self.val.load(Ordering::Relaxed);
        let s2 = self.seq.load(Ordering::Acquire);
        if s1 != s2 {
            return None;
        }
        Some(v)
    }
}
";

const CC03_ORDER_FIXTURE: &str = "\
impl Two {
    pub fn sum(&self) -> u64 {
        let ga = lock_recover(&self.a);
        let gb = lock_recover(&self.b);
        *ga + *gb
    }
    pub fn diff(&self) -> u64 {
        let ga = lock_recover(&self.a);
        let gb = lock_recover(&self.b);
        *ga - *gb
    }
}
";

fn cc_run(src: &str) -> concurrency::ConcurrencyReport {
    let f = LoadedFile::new("crates/core/src/selftest_cc.rs", src.to_string());
    concurrency::check(std::slice::from_ref(&f))
}

fn cc_checks() -> Vec<Check> {
    // Prove path: both counter sites discharge with zero sanctions.
    let counter = cc_run(CC01_COUNTER_FIXTURE);
    let benign = Check {
        rule: "CC01",
        ok: counter.diagnostics.is_empty() && counter.benign == 2 && counter.atomic_sites == 2,
        detail: format!(
            "counter-only fetch_add/load proven benign ({} diag(s), {}/{} benign)",
            counter.diagnostics.len(),
            counter.benign,
            counter.atomic_sites
        ),
    };

    // Fail path: the loaded value picks a slot — must demand a sanction.
    let indexed = cc_run(
        "impl Counter {\n    pub fn pick(&self, xs: &[u64]) -> u64 {\n        \
         let i = self.n.load(Ordering::Relaxed);\n        xs[i]\n    }\n}\n",
    );
    let unsanctioned = Check {
        rule: "CC01",
        ok: indexed.diagnostics.len() == 1 && indexed.diagnostics[0].message.contains("index"),
        detail: format!(
            "relaxed load feeding an index rejected ({} diag(s))",
            indexed.diagnostics.len()
        ),
    };

    // Stale: a sanction on a site the proof discharges anyway.
    let stale = cc_run(
        "impl Counter {\n    pub fn total(&self) -> u64 {\n        \
         // SANCTION(CC01: fixture-proto): not needed\n        \
         self.n.load(Ordering::Relaxed)\n    }\n}\n",
    );
    let stale_check = Check {
        rule: "CC01",
        ok: stale
            .diagnostics
            .iter()
            .any(|d| d.message.contains("stale sanction")),
        detail: "sanction on a proven-benign site rejected as stale".to_string(),
    };

    // Forged: a real violation sanctioned by an undeclared protocol.
    let forged = cc_run(
        "impl Counter {\n    pub fn spin(&self) {\n        \
         // SANCTION(CC01: ghost-protocol): fixture\n        \
         while self.n.load(Ordering::Relaxed) == 0 {\n        }\n    }\n}\n",
    );
    let forged_check = Check {
        rule: "CC01",
        ok: forged
            .diagnostics
            .iter()
            .any(|d| d.message.contains("forged")),
        detail: "sanction naming an undeclared protocol rejected as forged".to_string(),
    };

    // CC02 prove path, then break the publish fence: the closing even
    // store demoted to Relaxed must be named as the missing edge.
    let seq_ok = cc_run(CC02_SEQLOCK_FIXTURE);
    let torn = cc_run(&CC02_SEQLOCK_FIXTURE.replace(
        "self.seq.store(t * 2 + 2, Ordering::Release);",
        "self.seq.store(t * 2 + 2, Ordering::Relaxed);",
    ));
    let cc02 = Check {
        rule: "CC02",
        ok: seq_ok.diagnostics.is_empty()
            && seq_ok.seqlocks_verified == 1
            && torn.seqlocks_verified == 0
            && torn
                .diagnostics
                .iter()
                .any(|d| d.rule == "CC02" && d.message.contains("Release")),
        detail: format!(
            "odd/even Release discipline verified; demoted publish fence named \
             ({} diag(s) on the torn variant)",
            torn.diagnostics.len()
        ),
    };

    // CC03 prove path (consistent a-then-b order), then reverse one fn:
    // the a->b->a cycle must be reported.
    let order_ok = cc_run(CC03_ORDER_FIXTURE);
    let cyclic = cc_run(&CC03_ORDER_FIXTURE.replace(
        "    pub fn diff(&self) -> u64 {\n        let ga = lock_recover(&self.a);\n        \
         let gb = lock_recover(&self.b);\n",
        "    pub fn diff(&self) -> u64 {\n        let gb = lock_recover(&self.b);\n        \
         let ga = lock_recover(&self.a);\n",
    ));
    let cc03 = Check {
        rule: "CC03",
        ok: order_ok.diagnostics.is_empty()
            && order_ok.lock_edges == 1
            && cyclic
                .diagnostics
                .iter()
                .any(|d| d.rule == "CC03" && d.message.contains("cycle")),
        detail: format!(
            "consistent order accepted ({} edge(s)); reversed order reported as a cycle \
             ({} diag(s))",
            order_ok.lock_edges,
            cyclic.diagnostics.len()
        ),
    };

    vec![benign, unsanctioned, stale_check, forged_check, cc02, cc03]
}

fn all_checks() -> Vec<Check> {
    let mut checks = token_rule_checks();
    checks.extend(attr_rule_checks());
    checks.extend(cc_checks());
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
            12,
            "all analyze rules covered: 4 token + 2 attr + 6 CC"
        );
    }
}
