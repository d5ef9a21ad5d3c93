//! The token-level source lint rules and their inline sanctions.
//!
//! Rule inventory (all rebuilt on [`crate::lexer`] token streams — no
//! rule ever matches inside a string, char literal, or comment):
//!
//! * `NA01` — no `as` casts to integer types in `core`/`la`/`wse`
//!   library code; use the `tlr_mvm::precision` checked helpers.
//! * `NP01` — no `unwrap()`/`expect()`/`panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!` in library-crate code, `bench` included (only
//!   test regions are exempt).
//! * `AT01` — every library crate keeps `#![forbid(unsafe_code)]`.
//! * `AT02` — every library crate keeps `#![deny(missing_docs)]`.
//! * `HP01` — no heap allocation (`Vec::new`, `vec![`, `.to_vec()`,
//!   `.clone()`, `.collect()`, `Box::new`) inside the lexical region of
//!   a `trace::span` phase guard or a `telemetry::hot_path` marker in
//!   `core`/`wse` kernels: a traced phase measures the memory-wall
//!   traffic of the paper's §6.6 cost model, and an allocator call
//!   inside it both pollutes the timing and stalls the kernel; the
//!   flight-recorder record path (DESIGN.md §14) carries the same
//!   contract so telemetry can stay on in production serving.
//! * `FE01` — no `==`/`!=` between float-typed operands in lib code
//!   (a float literal, or a binding known to be `f32`/`f64`, on either
//!   side); use the `seismic_la::scalar` exact-zero helpers or an
//!   explicit tolerance.
//! * `LT01` — an inline `// SANCTION(RULE): reason` comment must carry
//!   a reason.
//! * `LT02` — an inline sanction must be *live*: a
//!   `// SANCTION(RULE): …` comment that suppresses zero findings is an
//!   error, so exceptions can only shrink.
//!
//! ### Inline sanctions
//!
//! A token-rule finding is suppressed at the site itself: a line comment
//! `// SANCTION(RULE): reason` on the offending line or the line
//! directly above covers findings of that rule on that line only, so
//! the justification lives next to the code it excuses and moves with
//! it. There is no path-scoped allowlist.

use std::fs;
use std::path::{Path, PathBuf};

use wse_sim::verify::{Diagnostic, Severity};

use crate::lexer::{is_float_literal, lex, Tok, TokKind};
use crate::scan::test_region_lines;

/// Crates whose hot paths must not use raw integer `as` casts.
pub const NA01_CRATES: &[&str] = &["core", "la", "wse"];
/// Crates covered by the panic lint — every library crate plus the
/// `bench` harness (xtask itself is the only exempt binary).
pub const NP01_CRATES: &[&str] = &["core", "la", "fft", "geom", "wave", "mdd", "wse", "bench"];
/// Crates whose `lib.rs` must carry the two crate-level attributes.
pub const ATTR_CRATES: &[&str] = &["core", "la", "fft", "geom", "wave", "mdd", "wse", "bench"];
/// Crates whose traced kernels must be allocation-free inside spans.
pub const HP01_CRATES: &[&str] = &["core", "wse"];
/// Crates covered by the float-equality lint.
pub const FE01_CRATES: &[&str] = NP01_CRATES;

/// Integer destination types of a forbidden cast.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Panic-family macro names (checked as `name` followed by `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Panic-family method names (checked as `.name(`).
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

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

/// One raw (pre-sanction) finding from a token rule.
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
    /// Run the panic-token rule.
    pub np01: bool,
    /// Run the allocation-in-span rule.
    pub hp01: bool,
    /// Run the float-equality rule.
    pub fe01: bool,
}

impl RuleSet {
    /// The rule set for a crate directory name.
    pub fn for_crate(krate: &str) -> Self {
        Self {
            na01: NA01_CRATES.contains(&krate),
            np01: NP01_CRATES.contains(&krate),
            hp01: HP01_CRATES.contains(&krate),
            fe01: FE01_CRATES.contains(&krate),
        }
    }

    /// Every rule on (used by the self-test fixtures).
    pub fn all() -> Self {
        Self {
            na01: true,
            np01: true,
            hp01: true,
            fe01: true,
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

    // Pass 1 — pointwise patterns (NA01 / NP01).
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
        if rules.np01 {
            if t.kind == TokKind::Punct
                && text(i) == "."
                && code.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && PANIC_METHODS.contains(&n.text(&f.src))
                })
                && is(i + 2, TokKind::Punct, "(")
            {
                out.push(Finding {
                    rule: "NP01",
                    line: t.line,
                    message: format!(
                        "`{}` in library code — return a Result or sanction the site",
                        text(i + 1)
                    ),
                });
            }
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&text(i))
                && is(i + 1, TokKind::Punct, "!")
            {
                out.push(Finding {
                    rule: "NP01",
                    line: t.line,
                    message: format!(
                        "`{}!` in library code — return a Result or sanction the site",
                        text(i)
                    ),
                });
            }
        }
    }

    if rules.hp01 {
        hp01_alloc_in_span(f, &code, &mut out);
    }
    if rules.fe01 {
        fe01_float_equality(f, &code, &mut out);
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

/// FE01: flag `==`/`!=` where either adjacent operand token is a float
/// literal or an identifier known to be `f32`/`f64`-typed (from a
/// `name: f32` annotation anywhere in the file, or `let name = <float>`).
fn fe01_float_equality(f: &LoadedFile, code: &[&Tok], out: &mut Vec<Finding>) {
    let text = |i: usize| code[i].text(&f.src);
    // Pass 1: collect known float bindings.
    let mut known: Vec<&str> = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name : f32|f64` (let annotations, params, fields, consts).
        if code.get(i + 1).is_some_and(|n| n.text(&f.src) == ":")
            && code
                .get(i + 2)
                .is_some_and(|n| matches!(n.text(&f.src), "f32" | "f64"))
        {
            known.push(text(i));
        }
        // `let [mut] name = <float literal>`.
        if text(i) == "let" {
            let mut j = i + 1;
            if code.get(j).is_some_and(|n| n.text(&f.src) == "mut") {
                j += 1;
            }
            if code.get(j).is_some_and(|n| n.kind == TokKind::Ident)
                && code.get(j + 1).is_some_and(|n| n.text(&f.src) == "=")
                && code
                    .get(j + 2)
                    .is_some_and(|n| n.kind == TokKind::Num && is_float_literal(n.text(&f.src)))
            {
                known.push(code[j].text(&f.src));
            }
        }
    }

    // Pass 2: the comparisons.
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Punct || !matches!(text(i), "==" | "!=") || f.line_is_test(t.line) {
            continue;
        }
        let floaty = |idx: Option<usize>| -> bool {
            let Some(idx) = idx.and_then(|x| code.get(x).map(|_| x)) else {
                return false;
            };
            let n = code[idx];
            match n.kind {
                TokKind::Num => is_float_literal(n.text(&f.src)),
                TokKind::Ident => known.contains(&n.text(&f.src)),
                _ => false,
            }
        };
        if floaty(i.checked_sub(1)) || floaty(Some(i + 1)) {
            out.push(Finding {
                rule: "FE01",
                line: t.line,
                message: format!(
                    "float `{}` comparison in library code — use \
                     seismic_la::scalar::{{exactly_zero_f32, exactly_zero_f64}} for exact \
                     zero tests or compare against an explicit tolerance",
                    text(i)
                ),
            });
        }
    }
}

/// One inline `// SANCTION(RULE): reason` comment: a line-scoped
/// exception that lives next to the code it excuses.
#[derive(Clone, Debug)]
pub struct InlineSanction {
    /// Rule id the sanction applies to.
    pub rule: String,
    /// 1-based line of the comment. The sanction covers findings of
    /// `rule` on this line or the line directly below.
    pub line: usize,
    /// Mandatory justification (everything after the `:`).
    pub reason: String,
}

impl InlineSanction {
    /// Whether this sanction covers a finding of `rule` at `line`.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

/// Scan one file's comment tokens for inline sanctions. Malformed
/// sanctions (missing reason) come back as LT01 diagnostics.
pub fn collect_sanctions(f: &LoadedFile) -> (Vec<InlineSanction>, Vec<Diagnostic>) {
    let mut sanctions = Vec::new();
    let mut problems = Vec::new();
    for t in &f.toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let text = t.text(&f.src);
        let Some(rest) = text.split("SANCTION(").nth(1) else {
            continue;
        };
        let Some((rule, after)) = rest.split_once(')') else {
            continue;
        };
        let reason = after
            .strip_prefix(':')
            .map(str::trim)
            .unwrap_or("")
            .to_string();
        if reason.is_empty() {
            problems.push(Diagnostic {
                rule: "LT01",
                severity: Severity::Error,
                location: format!("{}:{}", f.rel, t.line),
                message: format!(
                    "inline sanction `// SANCTION({}): …` needs a non-empty reason",
                    rule.trim()
                ),
            });
            continue;
        }
        sanctions.push(InlineSanction {
            rule: rule.trim().to_string(),
            line: t.line,
            reason,
        });
    }
    (sanctions, problems)
}

/// Outcome of the lint pass: surviving diagnostics plus counts for the
/// summary line.
pub struct LintOutcome {
    /// Diagnostics that no sanction covers.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations that were covered by inline sanctions.
    pub allowed: usize,
    /// Files scanned.
    pub files: usize,
}

/// Run every token rule plus the crate-attribute checks over the
/// pre-loaded workspace.
pub fn run_lints(root: &Path, files: &[LoadedFile]) -> LintOutcome {
    let mut diagnostics = Vec::new();
    let mut allowed = 0usize;

    // AT01/AT02 — crate-level attributes.
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

    // Token rules, minus what an inline sanction covers.
    for f in files {
        let rules = RuleSet::for_crate(&f.krate);
        let (sanctions, mut problems) = collect_sanctions(f);
        diagnostics.append(&mut problems);
        let mut sanction_hits = vec![0usize; sanctions.len()];
        for finding in lint_file(f, rules) {
            if let Some(i) = sanctions
                .iter()
                .position(|s| s.covers(finding.rule, finding.line))
            {
                sanction_hits[i] += 1;
                allowed += 1;
                continue;
            }
            diagnostics.push(Diagnostic {
                rule: finding.rule,
                severity: Severity::Error,
                location: format!("{}:{}", f.rel, finding.line),
                message: finding.message,
            });
        }
        for (s, h) in sanctions.iter().zip(&sanction_hits) {
            // CC01 sanctions cover atomic-ordering sites, not token
            // findings — their liveness is checked by the concurrency
            // pass, not here.
            if *h == 0 && !s.rule.starts_with("CC01") {
                diagnostics.push(Diagnostic {
                    rule: "LT02",
                    severity: Severity::Error,
                    location: format!("{}:{}", f.rel, s.line),
                    message: format!(
                        "stale inline sanction `// SANCTION({}): {}` suppresses zero \
                         findings — delete the comment",
                        s.rule, s.reason
                    ),
                });
            }
        }
    }

    LintOutcome {
        diagnostics,
        allowed,
        files: files.len(),
    }
}

/// AT01/AT02 over one crate root's text (fixture-friendly).
pub fn lint_crate_attributes(rel: &str, text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !text.contains("#![forbid(unsafe_code)]") {
        out.push(Diagnostic {
            rule: "AT01",
            severity: Severity::Error,
            location: rel.to_string(),
            message: "crate must keep #![forbid(unsafe_code)]".to_string(),
        });
    }
    if !text.contains("#![deny(missing_docs)]") {
        out.push(Diagnostic {
            rule: "AT02",
            severity: Severity::Error,
            location: rel.to_string(),
            message: "crate must keep #![deny(missing_docs)]".to_string(),
        });
    }
    out
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
    fn panic_tokens_found_outside_strings_only() {
        let rules = RuleSet {
            np01: true,
            ..Default::default()
        };
        let hits = findings(
            "crates/mdd/src/x.rs",
            "fn f() {\n let s = \"panic!(no)\"; // unwrap()\n x.unwrap();\n y.expect(\"m\");\n \
             panic!(\"boom\");\n unreachable!();\n let ok = x.unwrap_or(0);\n}",
            rules,
        );
        assert_eq!(
            hits.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
    }

    #[test]
    fn test_regions_are_exempt() {
        let rules = RuleSet {
            np01: true,
            ..Default::default()
        };
        let hits = findings(
            "crates/mdd/src/x.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n",
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
    fn hp01_covers_atlas_collect_path() {
        // The atlas hot loop lives in crates/wse/src/atlas.rs under the
        // "wse.atlas.collect" span; an allocation slipped into it must
        // fire, and the real file must be in an HP01-scanned crate.
        assert!(HP01_CRATES.contains(&"wse"));
        let rules = RuleSet {
            hp01: true,
            ..Default::default()
        };
        let src = "fn collect() {\n\
                   let grids = vec![0u64; 8];\n\
                   let _span = trace::span(\"wse.atlas.collect\");\n\
                   let bad = Vec::new();\n\
                   }\n";
        let hits = findings("crates/wse/src/atlas.rs", src, rules);
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

    #[test]
    fn fe01_literal_and_known_binding() {
        let rules = RuleSet {
            fe01: true,
            ..Default::default()
        };
        let src = "fn f(alpha: f32, n: usize) {\n\
                   if beta == 0.0 { }\n\
                   if alpha != other { }\n\
                   let t: f64 = g();\n\
                   if t == u { }\n\
                   if n == 0 { }\n\
                   if name == \"x\" { }\n\
                   }\n";
        let hits = findings("crates/mdd/src/x.rs", src, rules);
        assert_eq!(
            hits.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![2, 3, 5],
            "literal, param-typed, and let-annotated operands fire; ints and strings do not"
        );
    }

    #[test]
    fn crate_attributes_checked() {
        let missing = lint_crate_attributes("crates/x/src/lib.rs", "//! docs\n");
        assert_eq!(missing.len(), 2);
        assert_eq!(missing[0].rule, "AT01");
        assert_eq!(missing[1].rule, "AT02");
        let ok = lint_crate_attributes(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn deny_unsafe_is_not_enough_for_any_crate() {
        let text = "#![deny(unsafe_code)]\n#![deny(missing_docs)]\n";
        for rel in ["crates/core/src/lib.rs", "crates/la/src/lib.rs"] {
            let diags = lint_crate_attributes(rel, text);
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].rule, "AT01");
            assert!(diags[0].message.contains("forbid"));
        }
    }

    #[test]
    fn inline_sanction_parses_and_covers_its_line_pair() {
        let src = "fn f() {\n\
                   // SANCTION(NP01): the Err arm is statically unreachable here\n\
                   x.unwrap();\n\
                   }\n";
        let f = LoadedFile::new("crates/core/src/x.rs", src.to_string());
        let (sanctions, problems) = collect_sanctions(&f);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(sanctions.len(), 1);
        assert_eq!(sanctions[0].rule, "NP01");
        assert!(sanctions[0].covers("NP01", 2), "same line");
        assert!(sanctions[0].covers("NP01", 3), "line below");
        assert!(!sanctions[0].covers("NP01", 4));
        assert!(!sanctions[0].covers("NA01", 3), "other rules unaffected");
    }

    #[test]
    fn inline_sanction_without_reason_is_lt01() {
        let src = "// SANCTION(NP01):\nfn f() {}\n";
        let f = LoadedFile::new("crates/core/src/x.rs", src.to_string());
        let (sanctions, problems) = collect_sanctions(&f);
        assert!(sanctions.is_empty());
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].rule, "LT01");
        assert!(problems[0].message.contains("reason"));
    }

    #[test]
    fn sanctioned_finding_suppressed_and_stale_sanction_fails() {
        use std::path::Path;
        // A file with one sanctioned unwrap and one stale sanction.
        let src = "fn f() {\n\
                   // SANCTION(NP01): fixture — checked by the caller\n\
                   x.unwrap();\n\
                   // SANCTION(NA01): nothing on the next line casts\n\
                   let y = 1;\n\
                   }\n";
        let files = vec![LoadedFile::new("crates/mdd/src/x.rs", src.to_string())];
        let out = run_lints(Path::new("/nonexistent"), &files);
        assert_eq!(out.allowed, 1, "the unwrap was sanctioned");
        // Expect: one LT02 for the stale NA01 sanction; the NP01 finding
        // itself is gone. (AT01/AT02 diagnostics for the fake root are
        // filtered out by rule id below.)
        let lt02: Vec<_> = out
            .diagnostics
            .iter()
            .filter(|d| d.rule == "LT02")
            .collect();
        assert_eq!(lt02.len(), 1, "{:?}", out.diagnostics);
        assert!(lt02[0].message.contains("stale inline sanction"));
        assert!(!out.diagnostics.iter().any(|d| d.rule == "NP01"));
    }
}
