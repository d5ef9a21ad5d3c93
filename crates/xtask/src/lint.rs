//! The token-level source lint rules and the crate-root attribute
//! checks.
//!
//! Rule inventory (the token rules run on [`crate::lexer`] token streams
//! — no rule ever matches inside a string, char literal, or comment):
//!
//! * `NA01` — no `as` casts to integer types in `core`/`la`/`wse`
//!   library code; use the `tlr_mvm::precision` checked helpers.
//! * `AT01` — every library crate keeps `#![forbid(unsafe_code)]`.
//! * `AT02` — every library crate keeps `#![deny(missing_docs)]`.
//! * `AT03` — every library crate root, and the `repro` binary's, keeps
//!   the `#![cfg_attr(not(test), deny(clippy::…))]` line that makes the
//!   panic family, float `==` and reason-less `#[allow]` compile errors
//!   under `cargo clippy` ([`CLIPPY_DENY_LINE`]).
//! * `HP01` — no heap allocation (`Vec::new`, `vec![`, `.to_vec()`,
//!   `.clone()`, `.collect()`, `Box::new`) inside the lexical region of
//!   a `trace::span` phase guard or a `telemetry::hot_path` marker in
//!   `core`/`wse` kernels: a traced phase measures the memory-wall
//!   traffic of the paper's §6.6 cost model, and an allocator call
//!   inside it both pollutes the timing and stalls the kernel; the
//!   flight-recorder record path (DESIGN.md §14) carries the same
//!   contract so telemetry can stay on in production serving.
//!
//! A finding is fixed, not excused: there is no allowlist and no
//! suppression comment. The rules clippy implements (panic family, float
//! equality) live in the compiler, where an exception is an
//! `#[expect(lint, reason = "…")]` that must carry its reason and must
//! still be needed.

use std::fs;
use std::path::{Path, PathBuf};

use wse_sim::verify::{Diagnostic, Severity};

use crate::lexer::{lex, Tok, TokKind};
use crate::scan::test_region_lines;

/// Crates whose hot paths must not use raw integer `as` casts.
pub const NA01_CRATES: &[&str] = &["core", "la", "wse"];
/// Crates whose `lib.rs` must carry the three crate-level attributes
/// (every library crate plus the `bench` harness).
pub const ATTR_CRATES: &[&str] = &["core", "la", "fft", "geom", "wave", "mdd", "wse", "bench"];
/// Crates whose traced kernels must be allocation-free inside spans.
pub const HP01_CRATES: &[&str] = &["core", "wse"];
/// The one crate root outside [`ATTR_CRATES`]' `lib.rs` files that
/// carries the clippy line (AT03 only): the `repro` binary.
pub const REPRO_MAIN: &str = "crates/bench/src/main.rs";

/// The AT03 line with its whitespace removed (rustfmt spreads it over
/// thirteen lines): outside test builds, the panic family, float
/// equality and `#[allow]` without a reason are denied.
pub const CLIPPY_DENY_LINE: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,\
    clippy::expect_used,clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented,\
    clippy::float_cmp,clippy::allow_attributes_without_reason))]";

/// Integer destination types of a forbidden cast.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// One source file, lexed once and shared by every pass.
pub struct LoadedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Crate directory name (`core`, `la`, …).
    pub krate: String,
    /// File contents.
    pub src: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Per-line `#[cfg(test)]` region flags (1-based line − 1).
    pub in_test: Vec<bool>,
}

impl LoadedFile {
    /// Lex and region-scan one source text.
    pub fn new(rel: &str, src: String) -> Self {
        let toks = lex(&src);
        let in_test = test_region_lines(&src, &toks);
        let krate = rel.split('/').nth(1).unwrap_or("").to_string();
        Self {
            rel: rel.to_string(),
            krate,
            src,
            toks,
            in_test,
        }
    }

    /// Whether a 1-based line sits inside a `#[cfg(test)]` region.
    pub fn line_is_test(&self, line: usize) -> bool {
        self.in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// Load every `.rs` file under `crates/*/src` (library code only).
pub fn load_workspace(root: &Path) -> Vec<LoadedFile> {
    workspace_lib_sources(root)
        .into_iter()
        .filter_map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            fs::read_to_string(&path)
                .ok()
                .map(|src| LoadedFile::new(&rel, src))
        })
        .collect()
}

/// One finding from a token rule.
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Which token rules to run on a file (derived from its crate).
#[derive(Clone, Copy, Default)]
pub struct RuleSet {
    /// Run the integer-cast rule.
    pub na01: bool,
    /// Run the allocation-in-span rule.
    pub hp01: bool,
}

impl RuleSet {
    /// The rule set for a crate directory name.
    pub fn for_crate(krate: &str) -> Self {
        Self {
            na01: NA01_CRATES.contains(&krate),
            hp01: HP01_CRATES.contains(&krate),
        }
    }

    /// Every rule on (used by the self-test fixtures).
    pub fn all() -> Self {
        Self {
            na01: true,
            hp01: true,
        }
    }
}

/// Run the enabled token rules over one file.
pub fn lint_file(f: &LoadedFile, rules: RuleSet) -> Vec<Finding> {
    // Comments carry no rule-relevant tokens; work on the code view.
    let code: Vec<&Tok> = f
        .toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut out = Vec::new();
    let text = |i: usize| code[i].text(&f.src);
    let is = |i: usize, kind: TokKind, s: &str| -> bool {
        code.get(i)
            .is_some_and(|t| t.kind == kind && t.text(&f.src) == s)
    };

    // Pointwise pattern (NA01).
    for i in 0..code.len() {
        let t = code[i];
        if f.line_is_test(t.line) {
            continue;
        }
        if rules.na01 && t.kind == TokKind::Ident && text(i) == "as" {
            if let Some(ty) = code
                .get(i + 1)
                .and_then(|n| (n.kind == TokKind::Ident).then(|| n.text(&f.src)))
            {
                if INT_TYPES.contains(&ty) && !is(i + 2, TokKind::Punct, "::") {
                    out.push(Finding {
                        rule: "NA01",
                        line: t.line,
                        message: format!(
                            "raw `as {ty}` cast — use tlr_mvm::precision::checked_cast / to_u64 / to_usize"
                        ),
                    });
                }
            }
        }
    }

    if rules.hp01 {
        hp01_alloc_in_span(f, &code, &mut out);
    }
    out
}

/// HP01: flag allocation tokens inside the lexical region of a
/// `trace::span("…")` guard or a `telemetry::hot_path("…")` marker —
/// from the call to the end of its enclosing block (the guard's drop
/// point; for the zero-cost marker, the block it promises about).
fn hp01_alloc_in_span(f: &LoadedFile, code: &[&Tok], out: &mut Vec<Finding>) {
    let text = |i: usize| code[i].text(&f.src);
    let is = |i: usize, s: &str| code.get(i).is_some_and(|t| t.text(&f.src) == s);
    let mut depth = 0usize;
    // Active span regions: (min brace depth, span name). A region dies
    // when depth drops below its recorded depth.
    let mut regions: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        match (t.kind, text(i)) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                regions.retain(|(d, _)| depth >= *d);
            }
            (TokKind::Ident, "trace") if is(i + 1, "::") && is(i + 2, "span") && is(i + 3, "(") => {
                let name = code
                    .get(i + 4)
                    .filter(|n| n.kind == TokKind::Str)
                    .map(|n| n.text(&f.src).trim_matches('"').to_string())
                    .unwrap_or_else(|| "?".to_string());
                regions.push((depth, name));
                i += 4;
            }
            (TokKind::Ident, "telemetry")
                if is(i + 1, "::") && is(i + 2, "hot_path") && is(i + 3, "(") =>
            {
                let name = code
                    .get(i + 4)
                    .filter(|n| n.kind == TokKind::Str)
                    .map(|n| n.text(&f.src).trim_matches('"').to_string())
                    .unwrap_or_else(|| "?".to_string());
                regions.push((depth, name));
                i += 4;
            }
            _ => {}
        }
        if !regions.is_empty() && !f.line_is_test(t.line) {
            let alloc: Option<&str> = if t.kind == TokKind::Ident
                && text(i) == "Vec"
                && is(i + 1, "::")
                && is(i + 2, "new")
            {
                Some("Vec::new")
            } else if t.kind == TokKind::Ident && text(i) == "vec" && is(i + 1, "!") {
                Some("vec![")
            } else if t.kind == TokKind::Ident
                && text(i) == "Box"
                && is(i + 1, "::")
                && is(i + 2, "new")
            {
                Some("Box::new")
            } else if t.kind == TokKind::Punct && text(i) == "." {
                match code.get(i + 1).map(|n| n.text(&f.src)) {
                    Some(m @ ("to_vec" | "clone" | "collect")) if is(i + 2, "(") => Some(match m {
                        "to_vec" => ".to_vec()",
                        "clone" => ".clone()",
                        _ => ".collect()",
                    }),
                    _ => None,
                }
            } else {
                None
            };
            if let Some(what) = alloc {
                let span = &regions.last().expect("regions is non-empty").1;
                out.push(Finding {
                    rule: "HP01",
                    line: t.line,
                    message: format!(
                        "heap allocation `{what}` inside traced phase span `{span}` — \
                         hoist the allocation above the span guard so the phase measures \
                         kernel traffic, not the allocator"
                    ),
                });
            }
        }
        i += 1;
    }
}

/// Outcome of the lint pass: the diagnostics plus the file count for
/// the summary line.
pub struct LintOutcome {
    /// Every finding, as an error.
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files: usize,
}

/// Run every token rule plus the crate-attribute checks over the
/// pre-loaded workspace.
pub fn run_lints(root: &Path, files: &[LoadedFile]) -> LintOutcome {
    let mut diagnostics = Vec::new();

    // AT01–AT03 — crate-level attributes.
    for krate in ATTR_CRATES {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        let rel = format!("crates/{krate}/src/lib.rs");
        let Ok(text) = fs::read_to_string(&lib) else {
            diagnostics.push(Diagnostic {
                rule: "AT01",
                severity: Severity::Error,
                location: rel,
                message: "missing lib.rs for attribute check".to_string(),
            });
            continue;
        };
        diagnostics.extend(lint_crate_attributes(&rel, &text));
    }
    let main = fs::read_to_string(root.join(REPRO_MAIN)).unwrap_or_default();
    diagnostics.extend(
        lint_crate_attributes(REPRO_MAIN, &main)
            .into_iter()
            .filter(|d| d.rule == "AT03"),
    );

    // Token rules.
    for f in files {
        for finding in lint_file(f, RuleSet::for_crate(&f.krate)) {
            diagnostics.push(Diagnostic {
                rule: finding.rule,
                severity: Severity::Error,
                location: format!("{}:{}", f.rel, finding.line),
                message: finding.message,
            });
        }
    }

    LintOutcome {
        diagnostics,
        files: files.len(),
    }
}

/// AT01–AT03 over one crate root's text (fixture-friendly).
pub fn lint_crate_attributes(rel: &str, text: &str) -> Vec<Diagnostic> {
    let squeezed: String = text.split_whitespace().collect();
    let checks = [
        (
            "AT01",
            text.contains("#![forbid(unsafe_code)]"),
            "crate must keep #![forbid(unsafe_code)]".to_string(),
        ),
        (
            "AT02",
            text.contains("#![deny(missing_docs)]"),
            "crate must keep #![deny(missing_docs)]".to_string(),
        ),
        (
            "AT03",
            squeezed.contains(CLIPPY_DENY_LINE),
            format!("crate root must keep {CLIPPY_DENY_LINE}"),
        ),
    ];
    checks
        .into_iter()
        .filter(|(_, present, _)| !present)
        .map(|(rule, _, message)| Diagnostic {
            rule,
            severity: Severity::Error,
            location: rel.to_string(),
            message,
        })
        .collect()
}

/// Every `.rs` file under `crates/*/src` except `xtask` itself
/// (library code only — `tests/` and `benches/` directories are exempt
/// by construction; xtask is the analyzer, not analysis input).
fn workspace_lib_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return out;
    };
    let mut crate_dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "xtask"))
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rel: &str, src: &str, rules: RuleSet) -> Vec<(String, usize)> {
        let f = LoadedFile::new(rel, src.to_string());
        lint_file(&f, rules)
            .into_iter()
            .map(|x| (x.rule.to_string(), x.line))
            .collect()
    }

    #[test]
    fn int_casts_found_with_word_boundaries() {
        let rules = RuleSet {
            na01: true,
            ..Default::default()
        };
        let hits = findings(
            "crates/core/src/x.rs",
            "fn f() {\n let x = y as u64;\n let z = (a + b) as usize;\n let f = y as f64;\n \
             let alias = basic;\n let m = usize::MAX;\n let w = usize::MAX as u64;\n}",
            rules,
        );
        assert_eq!(
            hits,
            vec![("NA01".into(), 2), ("NA01".into(), 3), ("NA01".into(), 7)]
        );
    }

    #[test]
    fn test_regions_are_exempt() {
        let rules = RuleSet {
            na01: true,
            ..Default::default()
        };
        let hits = findings(
            "crates/core/src/x.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { let _ = x as u64; }\n}\n",
            rules,
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn hp01_fires_inside_span_region_only() {
        let rules = RuleSet {
            hp01: true,
            ..Default::default()
        };
        let src = "fn kernel() {\n\
                   let pre = vec![0.0; 8];\n\
                   let _span = trace::span(\"phase.x\");\n\
                   let bad = vec![0.0; 8];\n\
                   let also = Vec::new();\n\
                   let b = data.to_vec();\n\
                   let c = data.clone();\n\
                   let d: Vec<_> = it.collect();\n\
                   let e = Box::new(1);\n\
                   }\n\
                   fn after() { let ok = vec![1]; }\n";
        let hits = findings("crates/core/src/k.rs", src, rules);
        assert_eq!(
            hits.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![4, 5, 6, 7, 8, 9],
            "pre-span and post-fn allocations are fine; all six alloc forms fire"
        );
    }

    #[test]
    fn hp01_covers_wse_exec_path() {
        // The functional executor lives in crates/wse/src/exec.rs under
        // the "wse.exec" span; an allocation slipped into it must fire,
        // and the real file must be in an HP01-scanned crate.
        assert!(HP01_CRATES.contains(&"wse"));
        let rules = RuleSet {
            hp01: true,
            ..Default::default()
        };
        let src = "fn execute() {\n\
                   let chunks = vec![0u64; 8];\n\
                   let _span = trace::span(\"wse.exec\");\n\
                   let bad = Vec::new();\n\
                   }\n";
        let hits = findings("crates/wse/src/exec.rs", src, rules);
        assert_eq!(hits.iter().map(|(_, l)| *l).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn hp01_region_ends_with_enclosing_block() {
        let rules = RuleSet {
            hp01: true,
            ..Default::default()
        };
        let src = "fn kernel() {\n\
                   {\n\
                   let _span = trace::span(\"inner\");\n\
                   work();\n\
                   }\n\
                   let ok = vec![0.0; 8];\n\
                   }\n";
        let hits = findings("crates/wse/src/k.rs", src, rules);
        assert!(hits.is_empty(), "span died with its block: {hits:?}");
    }

    /// A crate root with all three lines (the layout rustfmt gives the
    /// third is what `workspace_roots_carry_all_three_lines` reads).
    fn good_root() -> String {
        format!("#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n{CLIPPY_DENY_LINE}\n")
    }

    #[test]
    fn crate_attributes_checked() {
        let missing = lint_crate_attributes("crates/x/src/lib.rs", "//! docs\n");
        let rules: Vec<&str> = missing.iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["AT01", "AT02", "AT03"]);
        assert!(lint_crate_attributes("crates/x/src/lib.rs", &good_root()).is_empty());
    }

    #[test]
    fn at03_needs_every_lint_of_the_line() {
        let weaker = good_root().replace("clippy::float_cmp,", "");
        let diags = lint_crate_attributes("crates/x/src/lib.rs", &weaker);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "AT03");
        let test_too = good_root().replace("not(test)", "test");
        assert_eq!(
            lint_crate_attributes("crates/x/src/lib.rs", &test_too).len(),
            1
        );
    }

    #[test]
    fn workspace_roots_carry_all_three_lines() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let out = run_lints(&root, &[]);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn deny_unsafe_is_not_enough_for_any_crate() {
        let text = good_root().replace("forbid(unsafe_code)", "deny(unsafe_code)");
        for rel in ["crates/core/src/lib.rs", "crates/la/src/lib.rs"] {
            let diags = lint_crate_attributes(rel, &text);
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].rule, "AT01");
            assert!(diags[0].message.contains("forbid"));
        }
    }
}
