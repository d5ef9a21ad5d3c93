//! Lexical preprocessing shims over [`crate::lexer`]: source masking
//! (comments/strings/chars blanked with line structure preserved) and
//! `#[cfg(test)]` region detection — both token-based.
//!
//! The PR-1 implementations worked on regex-masked text and had blind
//! spots this rewrite closes (and regression-tests below): raw strings
//! `r#"…"#` with interior `"#` sequences, nested `/* /* */ */` comments,
//! char literals containing `"`, and `#[cfg(test)]` items preceded by
//! doc comments or further attributes.

use crate::lexer::{lex, Tok, TokKind};

/// Replace the contents of comments, string literals, and char literals
/// with spaces, keeping newlines so byte offsets map to the same lines.
/// A thin shim over the lexer: everything the lexer classifies as a
/// comment/string/char token is blanked; all other bytes pass through.
///
/// The token rules no longer consume masked text (they filter the token
/// stream directly); this shim is kept as the regression surface for
/// the former masking blind spots and for ad-hoc tooling.
#[cfg_attr(not(test), allow(dead_code))]
pub fn mask_source(src: &str) -> String {
    let mut out = src.as_bytes().to_vec();
    for t in lex(src) {
        if matches!(
            t.kind,
            TokKind::Str | TokKind::Char | TokKind::LineComment | TokKind::BlockComment
        ) {
            for b in &mut out[t.start..t.end] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        }
    }
    String::from_utf8(out).expect("masking preserves UTF-8: only ASCII is replaced")
}

/// Per-line flags: `true` where the line belongs to a `#[cfg(test)]`
/// item (module or function) and is therefore exempt from the source
/// lints.
///
/// Token-based: an outer-attribute chain (`#[…]` groups with any
/// interleaved doc comments) whose `cfg(…)` argument list mentions the
/// bare configuration predicate `test` flags every line from the first
/// attribute of the chain through the end of the item that follows
/// (balanced `{…}` body, or the `;` of a bodiless item). An inner
/// `#![cfg(test)]` flags the rest of its enclosing block.
pub fn test_region_lines(src: &str, toks: &[Tok]) -> Vec<bool> {
    let n_lines = src.lines().count();
    let mut flags = vec![false; n_lines];
    let mut mark = |from_line: usize, to_line: usize| {
        // Lines are 1-based on tokens.
        for f in flags
            .iter_mut()
            .take(to_line.min(n_lines))
            .skip(from_line.saturating_sub(1))
        {
            *f = true;
        }
    };

    let code = |t: &Tok| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment);
    let mut depth = 0usize;
    let mut i = 0;
    // Pending attribute chain state: first-attr line + test-ness.
    let mut chain_start: Option<usize> = None;
    let mut chain_is_test = false;

    while i < toks.len() {
        let t = &toks[i];
        if !code(t) {
            i += 1;
            continue;
        }
        let txt = t.text(src);
        if t.kind == TokKind::Punct && txt == "#" {
            // `#[attr]` (outer) or `#![attr]` (inner).
            let mut j = i + 1;
            let inner = toks.get(j).is_some_and(|n| n.text(src) == "!");
            if inner {
                j += 1;
            }
            if toks.get(j).is_some_and(|n| n.text(src) == "[") {
                let (attr_end, is_test) = scan_attr(src, toks, j);
                if inner {
                    if is_test {
                        // Rest of the enclosing block (or file at depth 0).
                        let end_line = block_end_line(src, toks, attr_end, depth);
                        mark(t.line, end_line);
                    }
                } else {
                    chain_start.get_or_insert(t.line);
                    chain_is_test |= is_test;
                }
                i = attr_end;
                continue;
            }
        }
        // A code token that is not an attribute head: if an attribute
        // chain is pending, this token starts the attributed item.
        if let Some(start_line) = chain_start.take() {
            let was_test = chain_is_test;
            chain_is_test = false;
            if was_test {
                let (item_end, end_line) = scan_item(src, toks, i);
                mark(start_line, end_line);
                i = item_end;
                continue;
            }
        }
        match (t.kind, txt) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => depth = depth.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    flags
}

/// Scan a bracketed attribute starting at the `[` token index; returns
/// (index one past the closing `]`, whether the attribute is a
/// `cfg(… test …)` attribute). `test` must appear as a bare identifier
/// inside the `cfg(…)` argument list — `cfg(test)`, `cfg(all(test, x))`
/// count; `cfg(feature = "testing")` does not (a string, not an ident).
fn scan_attr(src: &str, toks: &[Tok], open: usize) -> (usize, bool) {
    let mut bracket = 0usize;
    let mut i = open;
    let mut is_cfg = false;
    let mut mentions_test = false;
    let mut prev_ident_cfg = false;
    let mut in_cfg_parens = false;
    let mut paren = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let txt = t.text(src);
        match (t.kind, txt) {
            (TokKind::Punct, "[") => bracket += 1,
            (TokKind::Punct, "]") => {
                bracket -= 1;
                if bracket == 0 {
                    return (i + 1, is_cfg && mentions_test);
                }
            }
            (TokKind::Ident, "cfg") => prev_ident_cfg = true,
            (TokKind::Punct, "(") => {
                if prev_ident_cfg {
                    is_cfg = true;
                    in_cfg_parens = true;
                }
                if in_cfg_parens {
                    paren += 1;
                }
                prev_ident_cfg = false;
            }
            (TokKind::Punct, ")") => {
                if in_cfg_parens {
                    paren -= 1;
                    if paren == 0 {
                        in_cfg_parens = false;
                    }
                }
                prev_ident_cfg = false;
            }
            (TokKind::Ident, "test") if in_cfg_parens => {
                mentions_test = true;
                prev_ident_cfg = false;
            }
            _ => prev_ident_cfg = false,
        }
        i += 1;
    }
    (i, is_cfg && mentions_test)
}

/// Skip one item starting at token `i`: through the matching close brace
/// of its first `{`, or through a `;` reached before any brace. Returns
/// (index one past the item, last line of the item).
fn scan_item(src: &str, toks: &[Tok], start: usize) -> (usize, usize) {
    let mut depth = 0usize;
    let mut entered = false;
    let mut i = start;
    let mut last_line = toks.get(start).map_or(1, |t| t.line);
    while i < toks.len() {
        let t = &toks[i];
        last_line = t.line;
        match (t.kind, t.text(src)) {
            (TokKind::Punct, "{") => {
                depth += 1;
                entered = true;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                if entered && depth == 0 {
                    return (i + 1, end_line_of(src, t));
                }
            }
            (TokKind::Punct, ";") if !entered => return (i + 1, t.line),
            _ => {}
        }
        i += 1;
    }
    (i, last_line)
}

/// Last line the rest of the enclosing block occupies: from token `from`
/// until brace depth drops below `depth` (or end of file).
fn block_end_line(src: &str, toks: &[Tok], from: usize, depth: usize) -> usize {
    let mut d = depth;
    for t in &toks[from..] {
        match (t.kind, t.text(src)) {
            (TokKind::Punct, "{") => d += 1,
            (TokKind::Punct, "}")
                if (d == 0 || {
                    d -= 1;
                    d < depth
                }) =>
            {
                return t.line;
            }
            _ => {}
        }
    }
    src.lines().count()
}

/// A token's last line (multi-line tokens span several).
fn end_line_of(src: &str, t: &Tok) -> usize {
    t.line + src[t.start..t.end].bytes().filter(|&b| b == b'\n').count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions(src: &str) -> Vec<bool> {
        test_region_lines(src, &lex(src))
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let src =
            "let s = \"panic!(\"; // unwrap()\nlet c = 'x'; /* as u64 */ let l: &'static str;";
        let m = mask_source(src);
        assert!(!m.contains("panic!"));
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("as u64"));
        assert!(m.contains("'static"), "{m}");
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let s = r#\"x.unwrap()\"#; let t = r\"as u32\";";
        let m = mask_source(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("as u32"));
    }

    // Former blind spot: a raw string whose body contains `"#`-like
    // sequences only closed by the full hash count.
    #[test]
    fn raw_string_with_interior_hash_quote() {
        let src = "let s = r##\"body \"# x.unwrap() still inside\"##; y.expect(\"m\");";
        let m = mask_source(src);
        assert!(!m.contains("unwrap"), "{m}");
        assert!(
            m.contains(".expect("),
            "code after the raw string must survive: {m}"
        );
    }

    // Former blind spot: nested block comments.
    #[test]
    fn nested_block_comment_fully_masked() {
        let src = "a; /* outer /* x.unwrap() */ panic!(\"no\") */ b;";
        let m = mask_source(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("panic!"));
        assert!(m.contains("a;") && m.contains("b;"), "{m}");
    }

    // Former blind spot: char literals containing a double quote must not
    // open a string region that swallows following code.
    #[test]
    fn char_literal_with_quote_does_not_open_string() {
        let src = "let q = '\"'; let p = b'\"'; real_code.unwrap();";
        let m = mask_source(src);
        assert!(
            m.contains(".unwrap()"),
            "code after '\\\"' must stay visible: {m}"
        );
        assert!(!m.contains('\''), "char literals are blanked: {m}");
    }

    #[test]
    fn cfg_test_region_is_flagged() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let flags = regions(src);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    // Satellite regression: the attribute chain may start with doc
    // comments and other attributes before (or after) the `#[cfg(test)]`.
    #[test]
    fn cfg_test_preceded_by_doc_comment_and_attrs() {
        let src = "fn lib() {}\n\
                   /// Doc comment on the test module.\n\
                   #[allow(dead_code)]\n\
                   #[cfg(test)]\n\
                   #[rustfmt::skip]\n\
                   mod tests {\n\
                       fn t() { x.unwrap(); }\n\
                   }\n\
                   fn lib2() {}\n";
        let flags = regions(src);
        assert!(!flags[0], "lib code before stays unflagged");
        for (idx, f) in flags.iter().enumerate().take(8).skip(2) {
            assert!(*f, "line {} must be in the test region: {flags:?}", idx + 1);
        }
        assert!(!flags[8], "lib code after stays unflagged");
    }

    #[test]
    fn doc_comment_between_cfg_and_item() {
        let src = "#[cfg(test)]\n/// doc between attr and mod\nmod tests {\n    fn t() {}\n}\nfn lib() {}\n";
        let flags = regions(src);
        assert_eq!(flags, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn non_test_cfg_not_flagged() {
        let src = "#[cfg(feature = \"std\")]\nfn a() { x.unwrap(); }\n";
        let flags = regions(src);
        assert!(flags.iter().all(|f| !f), "{flags:?}");
    }

    #[test]
    fn cfg_all_test_counts_and_feature_testing_does_not() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { }\n#[cfg(feature = \"testing\")]\nfn f() {}\n";
        let flags = regions(src);
        assert!(flags[0] && flags[1]);
        assert!(!flags[2] && !flags[3]);
    }

    #[test]
    fn bodiless_item_under_cfg_test() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() {}\n";
        let flags = regions(src);
        assert_eq!(flags, vec![true, true, false]);
    }

    #[test]
    fn inner_cfg_test_flags_rest_of_block() {
        let src = "mod m {\n    #![cfg(test)]\n    fn t() { x.unwrap(); }\n}\nfn lib() {}\n";
        let flags = regions(src);
        assert!(flags[1] && flags[2] && flags[3], "{flags:?}");
        assert!(!flags[4]);
    }

    #[test]
    fn attr_with_brackets_inside_strings_handled() {
        // The `]` inside the string is a Str token, not punctuation, so
        // the attribute scan cannot end early.
        let src = "#[cfg(test)]\n#[doc = \"weird ] bracket\"]\nmod tests {\n    fn t() {}\n}\n";
        let flags = regions(src);
        assert!(
            flags[0] && flags[1] && flags[2] && flags[3] && flags[4],
            "{flags:?}"
        );
    }
}
