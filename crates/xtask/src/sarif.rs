//! SARIF 2.1.0 output for `analyze` — built on [`tlr_mvm::json::Json`],
//! the same dependency-free writer every other artifact uses, so CI can
//! upload `target/analyze.sarif` to any SARIF consumer (GitHub code
//! scanning included).
//!
//! Only the fields the format requires for useful results are emitted:
//! `version`, `runs[].tool.driver.{name,rules}`, and per-result
//! `ruleId` / `level` / `message.text` / `locations[].physicalLocation`.
//! Diagnostic locations of the form `path:line` map to an
//! `artifactLocation.uri` plus `region.startLine`; locations without a
//! numeric suffix (the plan verifier's `paper(nb=…, acc=…)` pseudo
//! locations) become a bare uri at line 1.

use tlr_mvm::json::Json;
use wse_sim::verify::{Diagnostic, Severity};

/// The static rule inventory: id → short description. WV rules come
/// from the plan verifier; the rest are the token and attribute rules.
pub const RULES: &[(&str, &str)] = &[
    (
        "NA01",
        "no raw `as` integer casts in core/la/wse library code",
    ),
    ("AT01", "crates keep #![forbid(unsafe_code)]"),
    ("AT02", "crates keep #![deny(missing_docs)]"),
    (
        "AT03",
        "crate roots keep the #![cfg_attr(not(test), deny(clippy::…))] panic / float-equality line",
    ),
    (
        "HP01",
        "no heap allocation inside traced phase spans in core/wse",
    ),
    ("WV01..WV07", "static WSE plan verification"),
];

/// Split a diagnostic location into `(uri, startLine)`.
fn split_location(location: &str) -> (&str, u64) {
    if let Some((path, line)) = location.rsplit_once(':') {
        if let Ok(n) = line.parse::<u64>() {
            return (path, n.max(1));
        }
    }
    (location, 1)
}

fn severity_level(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

/// Build the complete SARIF document for one `analyze` run.
pub fn sarif_report(diags: &[Diagnostic]) -> Json {
    let text = |t: &str| Json::obj([("text", t.into())]);
    let rules = RULES
        .iter()
        .map(|&(id, desc)| Json::obj([("id", id.into()), ("shortDescription", text(desc))]));
    let results = diags.iter().map(|d| {
        let (uri, line) = split_location(&d.location);
        let physical = Json::obj([
            ("artifactLocation", Json::obj([("uri", uri.into())])),
            ("region", Json::obj([("startLine", line.into())])),
        ]);
        Json::obj([
            ("ruleId", d.rule.into()),
            ("level", severity_level(d.severity).into()),
            ("message", text(&d.message)),
            (
                "locations",
                Json::arr([Json::obj([("physicalLocation", physical)])]),
            ),
        ])
    });
    let driver = Json::obj([
        ("name", "xtask-analyze".into()),
        ("rules", Json::arr(rules)),
    ]);
    let run = Json::obj([
        ("tool", Json::obj([("driver", driver)])),
        ("results", Json::arr(results)),
    ]);
    Json::obj([
        (
            "$schema",
            "https://json.schemastore.org/sarif-2.1.0.json".into(),
        ),
        ("version", "2.1.0".into()),
        ("runs", Json::arr([run])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                rule: "NA01",
                severity: Severity::Error,
                location: "crates/core/src/precision.rs:42".to_string(),
                message: "raw `as u64` cast".to_string(),
            },
            Diagnostic {
                rule: "WV03",
                severity: Severity::Warning,
                location: "paper(nb=256, acc=0.001)".to_string(),
                message: "plan warning".to_string(),
            },
        ]
    }

    /// The acceptance-criteria fields of SARIF 2.1.0, checked after a
    /// serialize → parse round trip so the emitted text itself is
    /// validated, not the in-memory tree.
    #[test]
    fn required_sarif_fields_present() {
        let doc = sarif_report(&sample());
        let parsed = Json::parse(&doc.to_pretty()).expect("own SARIF output parses");

        assert_eq!(parsed.get("version").and_then(Json::as_str), Some("2.1.0"));

        let runs = parsed.get("runs").and_then(Json::as_arr).expect("runs[]");
        assert_eq!(runs.len(), 1);
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .expect("runs[].tool.driver.rules");
        assert!(!rules.is_empty());
        assert!(rules
            .iter()
            .any(|r| r.get("id").and_then(Json::as_str) == Some("HP01")));

        let results = runs[0]
            .get("results")
            .and_then(Json::as_arr)
            .expect("results[]");
        assert_eq!(results.len(), 2);
        for r in results {
            let locs = r
                .get("locations")
                .and_then(Json::as_arr)
                .expect("locations");
            assert_eq!(locs.len(), 1);
            assert!(locs[0]
                .get("physicalLocation")
                .and_then(|p| p.get("artifactLocation"))
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str)
                .is_some());
        }
    }

    #[test]
    fn file_line_locations_split_and_pseudo_locations_survive() {
        let doc = sarif_report(&sample());
        let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(Json::as_arr)
            .expect("results");
        let loc = |i: usize| {
            results[i]
                .get("locations")
                .and_then(Json::as_arr)
                .expect("locations")[0]
                .get("physicalLocation")
                .expect("physicalLocation")
                .clone()
        };
        let first = loc(0);
        assert_eq!(
            first
                .get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str),
            Some("crates/core/src/precision.rs")
        );
        assert_eq!(
            first
                .get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_u64),
            Some(42)
        );
        let second = loc(1);
        assert_eq!(
            second
                .get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str),
            Some("paper(nb=256, acc=0.001)"),
            "pseudo locations keep their text and default to line 1"
        );
        assert_eq!(
            second
                .get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn levels_map_from_severity() {
        let doc = sarif_report(&sample());
        let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
        let results = runs[0]
            .get("results")
            .and_then(Json::as_arr)
            .expect("results");
        assert_eq!(
            results[0].get("level").and_then(Json::as_str),
            Some("error")
        );
        assert_eq!(
            results[1].get("level").and_then(Json::as_str),
            Some("warning")
        );
    }
}
