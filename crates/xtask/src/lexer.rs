//! A small hand-rolled Rust lexer — the token layer every `analyze`
//! rule is built on.
//!
//! The PR-1 engine matched substrings against regex-masked lines, which
//! left known blind spots (raw strings, nested block comments, char
//! literals containing `"`) and, more fundamentally, could not see
//! *structure*: call sites, brace depth, attribute groups. This lexer
//! produces a flat token stream with byte ranges and line numbers so the
//! rules ([`crate::lint`]) can reason about real tokens instead of text.
//!
//! Scope: enough of the Rust lexical grammar to be *sound for analysis*
//! of this workspace — identifiers (incl. raw `r#ident`), lifetimes,
//! char literals (incl. escapes and `'"'`), all string literal forms
//! (`"…"`, `b"…"`, `r"…"`, `r#"…"#` with any hash count, `br#"…"#`,
//! `c"…"`), line and *nested* block comments, numeric literals
//! (including float forms like `0.0`, `1e-4`, `2.5f32`), and punctuation
//! with maximal munch for the few multi-byte operators the rules care
//! about (`==`, `!=`, `::`, `->`, `=>`). Std-only; no `syn`.

/// Classification of one lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `as`, `Vec`, `r#type`, …).
    Ident,
    /// Lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Char or byte-char literal (`'x'`, `'\n'`, `b'"'`).
    Char,
    /// Any string literal form (plain, byte, raw, C; any hash count).
    Str,
    /// `// …` to end of line (doc comments `///`/`//!` included).
    LineComment,
    /// `/* … */`, nested to arbitrary depth (doc form `/** */` included).
    BlockComment,
    /// Numeric literal (integer or float, with suffix if present).
    Num,
    /// Punctuation; multi-byte for `==`, `!=`, `::`, `->`, `=>`.
    Punct,
}

/// One token: classification plus byte range and 1-based line number.
#[derive(Clone, Copy, Debug)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the token's first byte.
    pub line: usize,
}

impl Tok {
    /// The token's text within its source.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

/// Lex `src` into a token stream. Whitespace is skipped (line numbers on
/// the tokens preserve layout); everything else — comments included — is
/// emitted, so callers choose what to ignore. The lexer never fails: an
/// unterminated literal or comment simply extends to end of input.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        src,
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    b: &'a [u8],
    i: usize,
    line: usize,
    out: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'\'' => self.char_or_lifetime(),
                b'"' => self.string_plain(),
                _ if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ if c.is_ascii_digit() => self.number(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, line: usize) {
        self.out.push(Tok {
            kind,
            start,
            end: self.i,
            line,
        });
    }

    /// Advance one byte, tracking newlines (for multi-line tokens).
    fn bump(&mut self) {
        if self.b[self.i] == b'\n' {
            self.line += 1;
        }
        self.i += 1;
    }

    fn line_comment(&mut self) {
        let (start, line) = (self.i, self.line);
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        self.push(TokKind::LineComment, start, line);
    }

    fn block_comment(&mut self) {
        let (start, line) = (self.i, self.line);
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            if self.b[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.i += 2;
            } else if self.b[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.i += 2;
            } else {
                self.bump();
            }
        }
        self.push(TokKind::BlockComment, start, line);
    }

    /// `'` starts either a char literal (`'x'`, `'\n'`, `'"'`) or a
    /// lifetime (`'a`, `'static`). A char literal closes with `'` after
    /// one (possibly escaped, possibly multi-byte) character; a lifetime
    /// never closes.
    fn char_or_lifetime(&mut self) {
        let (start, line) = (self.i, self.line);
        self.i += 1; // consume '
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char: skip the backslash and escape body up to
                // the closing quote (handles '\n', '\'', '\\', '\u{..}').
                self.i += 1;
                if self.i < self.b.len() {
                    self.i += 1; // the escape head ('n', '\'', 'u', …)
                }
                while self.i < self.b.len() && self.b[self.i] != b'\'' && self.b[self.i] != b'\n' {
                    self.i += 1;
                }
                if self.peek(0) == Some(b'\'') {
                    self.i += 1;
                }
                self.push(TokKind::Char, start, line);
            }
            Some(c) => {
                // One source character (multi-byte UTF-8 allowed), then a
                // closing quote → char literal; otherwise a lifetime.
                let ch_len = self.src[self.i..].chars().next().map_or(1, char::len_utf8);
                if c != b'\'' && self.b.get(self.i + ch_len).copied() == Some(b'\'') {
                    self.i += ch_len + 1;
                    self.push(TokKind::Char, start, line);
                } else {
                    while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                        self.i += 1;
                    }
                    self.push(TokKind::Lifetime, start, line);
                }
            }
            None => self.push(TokKind::Lifetime, start, line),
        }
    }

    /// An identifier, or a literal introduced by a prefix identifier:
    /// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, `c"…"`, `r#ident`.
    fn ident_or_prefixed_literal(&mut self) {
        let (start, line) = (self.i, self.line);
        // Raw-string / raw-ident prefixes must be checked before the
        // generic ident scan so the quote is not orphaned.
        let rest = &self.b[self.i..];
        let raw_after = |skip: usize| -> Option<usize> {
            // After `skip` prefix bytes: zero or more '#' then '"'.
            let mut j = skip;
            while rest.get(j) == Some(&b'#') {
                j += 1;
            }
            (rest.get(j) == Some(&b'"')).then_some(j - skip)
        };
        match rest[0] {
            b'r' | b'R'
                if rest.get(1) == Some(&b'#')
                    && rest.get(2).is_some_and(|&c| is_ident_start(c)) =>
            {
                // Raw identifier r#type.
                self.i += 2;
                while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                    self.i += 1;
                }
                self.push(TokKind::Ident, start, line);
                return;
            }
            b'r' => {
                if let Some(hashes) = raw_after(1) {
                    self.raw_string(1, hashes, start, line);
                    return;
                }
            }
            b'b' => {
                if rest.get(1) == Some(&b'r') {
                    if let Some(hashes) = raw_after(2) {
                        self.raw_string(2, hashes, start, line);
                        return;
                    }
                }
                if rest.get(1) == Some(&b'"') {
                    self.i += 1;
                    self.string_plain_from(start, line);
                    return;
                }
                if rest.get(1) == Some(&b'\'') {
                    // Byte-char literal b'x' / b'"' / b'\n'.
                    self.i += 1;
                    self.char_or_lifetime();
                    // Re-label with the correct start (include the `b`).
                    if let Some(last) = self.out.last_mut() {
                        last.start = start;
                        last.kind = TokKind::Char;
                    }
                    return;
                }
            }
            b'c' => {
                if let Some(hashes) = rest
                    .get(1)
                    .and_then(|&c| (c == b'r').then(|| raw_after(2)).flatten())
                {
                    self.raw_string(2, hashes, start, line);
                    return;
                }
                if rest.get(1) == Some(&b'"') {
                    self.i += 1;
                    self.string_plain_from(start, line);
                    return;
                }
            }
            _ => {}
        }
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.push(TokKind::Ident, start, line);
    }

    /// Raw string body: after `prefix_len` prefix bytes and `hashes`
    /// hash marks and the opening quote, runs to `"` followed by exactly
    /// `hashes` hash marks.
    fn raw_string(&mut self, prefix_len: usize, hashes: usize, start: usize, line: usize) {
        self.i += prefix_len + hashes + 1; // prefix + ## + "
        while self.i < self.b.len() {
            if self.b[self.i] == b'"' {
                let mut k = 0;
                while k < hashes && self.peek(1 + k) == Some(b'#') {
                    k += 1;
                }
                if k == hashes {
                    self.i += 1 + hashes;
                    self.push(TokKind::Str, start, line);
                    return;
                }
            }
            self.bump();
        }
        self.push(TokKind::Str, start, line);
    }

    fn string_plain(&mut self) {
        let (start, line) = (self.i, self.line);
        self.string_plain_from(start, line);
    }

    /// Body of a `"…"` string; `self.i` points at the opening quote.
    fn string_plain_from(&mut self, start: usize, line: usize) {
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => {
                    self.i += 1;
                    if self.i < self.b.len() {
                        self.bump();
                    }
                }
                b'"' => {
                    self.i += 1;
                    self.push(TokKind::Str, start, line);
                    return;
                }
                _ => self.bump(),
            }
        }
        self.push(TokKind::Str, start, line);
    }

    fn number(&mut self) {
        let (start, line) = (self.i, self.line);
        // Integer part (covers 0x/0b/0o via the alnum+underscore scan).
        while self.i < self.b.len()
            && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
        {
            self.i += 1;
        }
        // Fraction: a '.' followed by a digit (not `1..2` or `1.method()`).
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
        }
        // Exponent sign, if the alnum scan stopped at `e+`/`e-`.
        if (self.b.get(self.i.wrapping_sub(1)) == Some(&b'e')
            || self.b.get(self.i.wrapping_sub(1)) == Some(&b'E'))
            && matches!(self.peek(0), Some(b'+') | Some(b'-'))
            && self.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            self.i += 1;
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
        }
        self.push(TokKind::Num, start, line);
    }

    fn punct(&mut self) {
        let (start, line) = (self.i, self.line);
        let two = (self.b[self.i], self.peek(1).unwrap_or(0));
        let munch = matches!(
            two,
            (b'=', b'=') | (b'!', b'=') | (b':', b':') | (b'-', b'>') | (b'=', b'>')
        );
        self.i += if munch { 2 } else { 1 };
        self.push(TokKind::Punct, start, line);
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).iter().map(|t| (t.kind, t.text(src))).collect()
    }

    #[test]
    fn idents_lifetimes_chars() {
        let src = "let c: &'static str = x; let q = '\"'; let n = '\\n'; let e = 'é';";
        let ks = kinds(src);
        assert!(ks.contains(&(TokKind::Lifetime, "'static")));
        assert!(ks.contains(&(TokKind::Char, "'\"'")));
        assert!(ks.contains(&(TokKind::Char, "'\\n'")));
        assert!(ks.contains(&(TokKind::Char, "'é'")));
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains('"') && t.len() > 3));
    }

    #[test]
    fn raw_strings_any_hash_count() {
        let src = r####"let a = r"x.unwrap()"; let b = r#"panic!("{}")"#; let c = br##"as u64 "# more"##;"####;
        let ks = kinds(src);
        let strs: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Str)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(strs.len(), 3, "{ks:?}");
        assert!(strs[1].contains("panic!"));
        assert!(
            strs[2].contains("\"#"),
            "inner hash-quote stays inside: {:?}",
            strs[2]
        );
        // Nothing outside string tokens mentions the panic token.
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && *t == "unwrap"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let ks = kinds(src);
        assert_eq!(ks.len(), 3);
        assert_eq!(ks[0], (TokKind::Ident, "a"));
        assert_eq!(ks[1].0, TokKind::BlockComment);
        assert_eq!(ks[2], (TokKind::Ident, "b"));
    }

    #[test]
    fn numbers_and_floats() {
        let src =
            "let a = 0.0; let b = 1e-4; let c = 2.5f32; let d = 42; let e = 0xFFu64; let r = 1..2;";
        let ks = kinds(src);
        let nums: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(
            nums,
            vec!["0.0", "1e-4", "2.5f32", "42", "0xFFu64", "1", "2"]
        );
    }

    #[test]
    fn multibyte_punct_munch() {
        let src = "a == b; c != d; e::f; g -> h; i => j; k <= l;";
        let texts: Vec<&str> = lex(src)
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text(src))
            .collect();
        assert!(texts.contains(&"=="));
        assert!(texts.contains(&"!="));
        assert!(texts.contains(&"::"));
        assert!(texts.contains(&"->"));
        assert!(texts.contains(&"=>"));
        // `<=` is two single-byte tokens — the rules don't need it.
        assert!(texts.contains(&"<"));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb \"str\nacross\" c";
        let toks = lex(src);
        let find = |txt: &str| toks.iter().find(|t| t.text(src) == txt).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(
            find("c"),
            5,
            "line counting resumes after multi-line string"
        );
    }

    #[test]
    fn raw_identifier_is_ident() {
        let src = "let r#type = 1;";
        let ks = kinds(src);
        assert!(ks.contains(&(TokKind::Ident, "r#type")));
    }

    #[test]
    fn byte_char_with_quote() {
        let src = "let q = b'\"'; let s = b\"bytes\";";
        let ks = kinds(src);
        assert!(ks.contains(&(TokKind::Char, "b'\"'")));
        assert!(ks.contains(&(TokKind::Str, "b\"bytes\"")));
    }

    #[test]
    fn unterminated_tokens_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "b'"] {
            let _ = lex(src);
        }
    }
}
