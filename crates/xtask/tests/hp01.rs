//! HP01: no heap allocation inside a traced region of `core` or `wse`.
//!
//! A region opens at a `trace::span("…")` guard or a
//! `telemetry::hot_path("…")` marker and ends with its enclosing block
//! (the guard's drop point). Inside it, `Vec::new`, `vec![`, `Box::new`,
//! `.to_vec()`, `.clone()` and `.collect()` are findings: a traced phase
//! measures the kernel's memory traffic (§6.6), and an allocator call
//! both pollutes that timing and stalls the kernel. Items under
//! `#[cfg(test)]` are exempt. The check is lexical: it does not follow
//! calls, so a kernel hoists its buffers above the span it opens.
//!
//! Comments, strings and char literals are blanked before the scan, so
//! nothing inside them opens a region, closes a block or counts as an
//! allocation.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose traced kernels must not allocate.
const CRATES: &[&str] = &["core", "wse"];

/// Replace every comment, string and char literal with spaces, keeping
/// newlines so each byte stays on its line.
fn mask(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut i = 0;
    while i < b.len() {
        let at = |k: usize| b.get(k).copied().unwrap_or(0);
        let end = match b[i] {
            b'/' if at(i + 1) == b'/' => (i..b.len()).find(|&k| b[k] == b'\n'),
            b'/' if at(i + 1) == b'*' => {
                let (mut depth, mut k) = (1, i + 2);
                while k < b.len() && depth > 0 {
                    match (b[k], at(k + 1)) {
                        (b'/', b'*') => (depth, k) = (depth + 1, k + 2),
                        (b'*', b'/') => (depth, k) = (depth - 1, k + 2),
                        _ => k += 1,
                    }
                }
                Some(k)
            }
            // A raw string `r"…"`, `r#"…"#`, `br##"…"##`: closed only by
            // a quote followed by as many hashes as opened it.
            b'r' if i == 0
                || !ident(b[i - 1])
                || (b[i - 1] == b'b' && (i < 2 || !ident(b[i - 2]))) =>
            {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let close = format!("\"{}", "#".repeat(hashes));
                (at(i + 1 + hashes) == b'"').then(|| {
                    src[i + 2 + hashes..]
                        .find(&close)
                        .map_or(b.len(), |k| i + 2 + hashes + k + close.len())
                })
            }
            b'"' => {
                let mut k = i + 1;
                while k < b.len() && b[k] != b'"' {
                    k += if b[k] == b'\\' { 2 } else { 1 };
                }
                Some(k + 1)
            }
            // A char literal, not a lifetime: `'x'`, `'"'`, `'\''`, `'é'`.
            b'\'' => match at(i + 1) {
                b'\\' => (i + 3..b.len()).find(|&k| b[k] == b'\'').map(|k| k - i - 1),
                _ => src[i + 1..].chars().next().map(char::len_utf8),
            }
            .filter(|&n| at(i + 1 + n) == b'\'')
            .map(|n| i + n + 2),
            _ => None,
        };
        let Some(end) = end else {
            i += 1;
            continue;
        };
        let end = end.min(b.len());
        for c in &mut out[i..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = end;
    }
    String::from_utf8(out).expect("masking writes ASCII spaces over whole literals")
}

/// The masked text's tokens with their 1-based lines: words, `::`, and
/// every other character alone.
fn tokens(masked: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (n, line) in masked.lines().enumerate() {
        let mut rest = line.trim_start();
        while let Some(c) = rest.chars().next() {
            let len = if c.is_alphanumeric() || c == '_' {
                rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len())
            } else if rest.starts_with("::") {
                2
            } else {
                c.len_utf8()
            };
            out.push((n + 1, &rest[..len]));
            rest = rest[len..].trim_start();
        }
    }
    out
}

/// Index one past the token that closes the group opened at `open`.
fn close_of(toks: &[(usize, &str)], open: usize, (l, r): (&str, &str)) -> usize {
    let mut depth = 0;
    for (k, &(_, t)) in toks.iter().enumerate().skip(open) {
        if t == l {
            depth += 1;
        } else if t == r {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

/// The tokens outside items under `#[cfg(test)]`, the one test gate the
/// scanned crates use: an item under any other `cfg`, `cfg(all(test, …))`
/// or an inner `#![cfg(test)]` included, is scanned (a stricter check).
fn non_test<'a>(toks: &[(usize, &'a str)]) -> Vec<(usize, &'a str)> {
    let mut kept = Vec::new();
    let mut test_chain = false;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].1 == "#" && toks.get(i + 1).is_some_and(|&(_, t)| t == "[") {
            let end = close_of(toks, i + 1, ("[", "]"));
            let attr = toks[i + 1..end].iter().map(|&(_, t)| t);
            test_chain |= attr.eq(["[", "cfg", "(", "test", ")", "]"]);
            i = end;
            continue;
        }
        if std::mem::take(&mut test_chain) {
            // Skip the item: through its body's `}`, or its `;`.
            let body = (i..toks.len()).find(|&k| matches!(toks[k].1, "{" | ";"));
            i = match body {
                Some(k) if toks[k].1 == "{" => close_of(toks, k, ("{", "}")),
                Some(k) => k + 1,
                None => toks.len(),
            };
            continue;
        }
        kept.push(toks[i]);
        i += 1;
    }
    kept
}

/// HP01 over one source text: `(line, allocation)` per finding.
fn findings(src: &str) -> Vec<(usize, &'static str)> {
    let masked = mask(src);
    let toks = non_test(&tokens(&masked));
    let t = |k: usize| toks.get(k).map_or("", |&(_, t)| t);
    let mut depth = 0usize;
    // The brace depth each open region was opened at.
    let mut regions: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    for (k, &(line, tok)) in toks.iter().enumerate() {
        match tok {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                regions.retain(|&d| depth >= d);
            }
            _ => {}
        }
        let guard = (tok, t(k + 1), t(k + 2), t(k + 3));
        if matches!(
            guard,
            ("trace", "::", "span", "(") | ("telemetry", "::", "hot_path", "(")
        ) {
            regions.push(depth);
        }
        let alloc = match (tok, t(k + 1), t(k + 2)) {
            ("Vec", "::", "new") => "Vec::new",
            ("vec", "!", _) => "vec![",
            ("Box", "::", "new") => "Box::new",
            (".", "to_vec", "(") => ".to_vec()",
            (".", "clone", "(") => ".clone()",
            (".", "collect", "(" | "::") => ".collect()",
            _ => continue,
        };
        if !regions.is_empty() {
            out.push((line, alloc));
        }
    }
    out
}

fn lines(src: &str) -> Vec<usize> {
    findings(src).into_iter().map(|(line, _)| line).collect()
}

/// The findings' lines in `body`, the rest of a block whose line 1 opens
/// a span.
fn in_span(body: &str) -> Vec<usize> {
    lines(&format!(
        "fn k() {{ let _span = trace::span(\"s\");\n{body}\n}}\n"
    ))
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory reads").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_traced_region_in_core_or_wse_allocates() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in CRATES {
        rs_files(&crates.join(krate).join("src"), &mut files);
    }
    let mut spans = 0;
    let mut bad = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).expect("source reads");
        spans += src.matches("trace::span(").count();
        for (line, alloc) in findings(&src) {
            let rel = path.strip_prefix(&crates).unwrap_or(path);
            bad.push(format!(
                "crates/{}:{line}: `{alloc}` inside a traced region",
                rel.display()
            ));
        }
    }
    assert!(spans > 0, "no `trace::span(` in {} files", files.len());
    assert!(
        bad.is_empty(),
        "hoist these above the span:\n{}",
        bad.join("\n")
    );
}

#[test]
fn hp01_fires_inside_span_region_only() {
    let forms =
        "vec![0.0; 8];\nVec::new();\nd.to_vec();\nd.clone();\nit.collect();\nBox::new(1);\n\
                 it\n    .collect::<Vec<_>>();";
    assert_eq!(in_span(forms), [2, 3, 4, 5, 6, 7, 9]);
    let marker = "fn record() {\n    telemetry::hot_path(\"ring\");\n    v.clone();\n}\n";
    assert_eq!(lines(marker), [3]);
}

/// The shape of `wse::exec`'s traced phase: buffers hoisted above the
/// span are fine, an allocation after it is not, and the next function
/// is outside the region.
#[test]
fn hp01_covers_wse_exec_path() {
    let around = "fn execute() {\n    let pre = vec![0u64; 8];\n    let _span = trace::span(\"wse.exec\");\n    \
                  let bad = Vec::new();\n}\nfn after() { let ok = vec![1]; }\n";
    assert_eq!(lines(around), [4]);
}

#[test]
fn a_region_ends_with_its_enclosing_block() {
    assert!(in_span("{ let _inner = trace::span(\"t\"); }\n}\nfn f() { vec![1];").is_empty());
    let src = "fn k() {\n    {\n        let _span = trace::span(\"inner\");\n    }\n    let ok = vec![0.0; 8];\n}\n";
    assert!(lines(src).is_empty());
}

/// The deleted analyzer self-test's fixture: one finding, and the same
/// code again in a test module, exempt.
#[test]
fn the_fixture_fires_once_outside_its_test_module() {
    let src = r#"
pub fn hp01_site(n: usize) -> Vec<f32> {
    let _span = trace::span("fixture.phase");
    let y = vec![0.0f32; n];
    y
}
#[cfg(test)]
mod tests {
    fn exempt(n: usize) {
        let _span = trace::span("fixture.phase");
        let _ = vec![0.0f32; n];
    }
}
"#;
    assert_eq!(findings(src), [(4, "vec![")]);
}

#[test]
fn strings_and_comments_are_blanked() {
    assert!(in_span("let s = \"vec![1] Box::new(2)\"; // Vec::new()\n/* d.clone() */").is_empty());
    // An escaped quote does not close the string; code after it is code.
    assert_eq!(in_span("let s = \"\\\" vec![\";\nVec::new();"), [3]);
}

#[test]
fn raw_strings_are_blanked() {
    assert_eq!(
        in_span("let s = r\"vec![1]\"; let t = br#\"Vec::new()\"#;\nx.to_vec();"),
        [3]
    );
}

#[test]
fn raw_string_with_interior_hash_quote() {
    assert_eq!(in_span("let s = r##\"a \"# vec![1]\"##;\nv.clone();"), [3]);
}

#[test]
fn raw_strings_any_hash_count() {
    let src = r####"let a = r"vec![1]"; let b = r#"Box::new("{}")"#; let c = br##"x "# d.clone()"##; v.to_vec();"####;
    assert_eq!(in_span(src), [2]);
}

#[test]
fn raw_identifier_is_ident() {
    assert_eq!(in_span("let r#type = 1; let v = vec![1];"), [2]);
}

#[test]
fn byte_char_with_quote() {
    assert_eq!(
        in_span("let q = b'\"';\nlet e = b'\\'';\nlet s = b\"vec![\";\nVec::new();"),
        [5]
    );
}

#[test]
fn idents_lifetimes_chars() {
    // Neither a lifetime nor a char literal opens a string; a multi-byte
    // char and an escape are one literal each.
    let src = "fn f<'a>(x: &'a str) -> &'static str {\n    let _s = trace::span(\"s\");\n    \
               let q = '\"'; let n = '\\n'; let e = 'é';\n    let v = vec![1];\n    x\n}\n";
    assert_eq!(lines(src), [4]);
}

#[test]
fn line_numbers_track_multiline_tokens() {
    let src = "let s = \"a\nb\";\n/* two\nlines */ vec![1];\nlet t = \"x\nacross\"; d.clone();";
    assert_eq!(in_span(src), [5, 7]);
}

#[test]
fn unterminated_tokens_do_not_panic() {
    for src in [
        "\"abc", "r#\"abc", "/* abc", "'", "b'", "r#", "'\\", "\"\\é",
    ] {
        assert_eq!(mask(src).len(), src.len(), "{src}");
        assert!(in_span(src).is_empty(), "{src}");
    }
}

#[test]
fn nested_block_comment_fully_masked() {
    assert_eq!(in_span("/* a /* b */ vec![1] */ v.clone();"), [2]);
}

#[test]
fn char_literal_with_quote_does_not_open_string() {
    // `'"'` opens no string that would swallow the `vec![` after it, and
    // an escaped quote closes no char early.
    assert_eq!(
        in_span("let q = '\"';\nlet e = '\\'';\nlet v = vec![1];"),
        [4]
    );
    // `'{'` and `'}'` are no braces: the region still ends with its
    // block, and a lifetime is no char literal.
    let brace = "fn k<'a>(x: &'a str) {\n    {\n        let _span = trace::span(\"s\");\n        \
                 let c = '{';\n    }\n    let ok = vec![1];\n    let d = '}';\n    let ok2 = x.to_vec();\n}\n";
    assert!(lines(brace).is_empty(), "{:?}", lines(brace));
}

/// A traced function inside a module, under the head given.
const MOD_BODY: &str =
    "{\n    fn t() {\n        let _span = trace::span(\"s\");\n        let v = vec![1];\n    }\n}\n";

fn exempt(head: &str) -> bool {
    lines(&format!("{head}{MOD_BODY}")).is_empty()
}

#[test]
fn cfg_test_region_is_flagged() {
    assert!(exempt("#[cfg(test)]\nmod tests "));
    assert!(!exempt("mod m "));
}

#[test]
fn cfg_test_preceded_by_doc_comment_and_attrs() {
    let head = "/// Doc.\n#[allow(dead_code)]\n#[cfg(test)]\n#[rustfmt::skip]\nmod tests ";
    assert!(exempt(head));
}

#[test]
fn doc_comment_between_cfg_and_item() {
    assert!(exempt(
        "#[cfg(test)]\n/// doc between attribute and item\nmod tests "
    ));
}

#[test]
fn attr_with_brackets_inside_strings_handled() {
    assert!(exempt("#[cfg(test)]\n#[doc = \"a ] bracket\"]\nmod tests "));
    assert!(!exempt("#[doc = \"#[cfg(test)]\"]\nmod m "));
}

#[test]
fn non_test_cfg_not_flagged() {
    assert!(!exempt("#[cfg(feature = \"test\")]\nmod m "));
    assert!(!exempt("#[cfg(not(test))]\nmod m "));
}

/// Only a plain `#[cfg(test)]` on an item exempts it: a combined
/// predicate or an inner attribute leaves the code scanned.
#[test]
fn only_a_plain_outer_cfg_test_exempts() {
    assert!(!exempt("#[cfg(all(test, feature = \"x\"))]\nmod m "));
    assert!(!exempt("#![cfg(test)]\nmod m "));
}

#[test]
fn bodiless_item_under_cfg_test() {
    let bodiless = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {\n    \
                    let _s = trace::span(\"s\");\n    v.clone();\n}\n";
    assert_eq!(lines(bodiless), [5]);
}
