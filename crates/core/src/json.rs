//! The workspace's one JSON tree: constructors, writer and
//! recursive-descent parser, with no dependency.
//!
//! Every artifact the workspace emits — `BENCH_*.json` baselines, trace
//! and `repro --json` reports, `*.timeline.json` Perfetto exports,
//! SARIF — is built as a [`Json`] value and so is
//! *round-trippable by the repo itself*: `tests/perf.rs` and `xtask
//! accgate` parse the committed baselines, and the schema tests parse
//! what was written. u64 counters are kept as verbatim numeric lexemes,
//! so checksums survive bit for bit.
//!
//! The dialect is plain RFC 8259 JSON. The parser accepts anything this
//! module's writer produces plus ordinary hand-edited files; it is not a
//! hardened parser for adversarial input (depth is capped, not fuzzed).

use std::fmt;

use crate::precision::f64_to_u64;

/// Maximum container nesting the parser accepts; our artifacts use < 8.
const MAX_DEPTH: usize = 64;

/// A parsed or under-construction JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its verbatim lexeme so integer counters never
    /// pass through `f64` (checksums stay exact).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list (insertion order is
    /// preserved when writing).
    Obj(Vec<(String, Json)>),
}

/// A parse failure with a byte offset into the input.
#[derive(Clone, Debug)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// `impl From<T> for Json`, one `types => |v| value;` line per family.
macro_rules! json_from {
    ($($($t:ty),+ => |$v:ident| $json:expr;)*) => {$($(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )+)*};
}
json_from! {
    // Integers keep every digit.
    u64, usize, &u32, &u64, &usize => |v| Json::Num(v.to_string());
    // Floats print their shortest round-trip form (an `f32` as an `f32`); a
    // non-finite one becomes `null`, which JSON cannot represent as a number.
    f32, f64, &f32, &f64 => |v| if v.is_finite() { Json::Num(v.to_string()) } else { Json::Null };
    // `None` is `null`.
    &Option<f64> => |v| v.map_or(Json::Null, Json::from);
    bool => |v| Json::Bool(v);
    &bool => |v| Json::Bool(*v);
    &str, &&str, &String => |v| Json::Str(v.to_string());
    String => |v| Json::Str(v);
}

/// `json_fields!(row; a, b, c => expr)`: the object whose keys are the
/// listed fields of `row`, in that order — a key cannot drift from the
/// field it names. A value is `Json::from(&row.field)` (nothing is
/// cloned) unless `=> expr` supplies it.
#[macro_export]
macro_rules! json_fields {
    ($row:expr; $($field:ident $(=> $value:expr)?),+ $(,)?) => {
        $crate::json::Json::obj([
            $((stringify!($field), $crate::json_fields!(@value $row, $field $(, $value)?))),+
        ])
    };
    (@value $row:expr, $field:ident) => {
        $crate::json::Json::from(&$row.$field)
    };
    (@value $row:expr, $field:ident, $value:expr) => {
        $value
    };
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array from its elements.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`: an integer lexeme in range, or an
    /// exponent/decimal form whose value is integral and below 2⁵³ (so
    /// the `f64` it passed through held it exactly). Anything larger
    /// must arrive as an integer lexeme — it is rejected, not saturated.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(lex) => lex.parse::<u64>().ok().or_else(|| {
                let f = lex.parse::<f64>().ok()?;
                // The fract test is bitwise (±0.0 only): no float `==`.
                let integral = f.fract().to_bits() << 1 == 0;
                (integral && (0.0..9_007_199_254_740_992.0).contains(&f)).then(|| f64_to_u64(f))
            }),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(lex) => lex.parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(lex) => out.push_str(lex),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let lex = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .map(str::to_string)
            .ok_or_else(|| self.err("invalid utf-8 in number"))?;
        // Validate by parsing as f64; the lexeme itself is what we keep.
        if lex.parse::<f64>().is_err() {
            return Err(self.err(&format!("malformed number '{lex}'")));
        }
        Ok(Json::Num(lex))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Re-decode the multi-byte UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let Some(ch) = rest.chars().next() else {
                        return Err(self.err("invalid utf-8 in string"));
                    };
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::obj([
            ("name", "three_phase.apply \"q\"".into()),
            ("median_ns", u64::MAX.into()),
            ("gbps", 12.25.into()),
            ("acc", 1e-4f32.into()),
            ("kernels", Json::arr([Json::Null, true.into(), 0u64.into()])),
            ("empty", Json::obj([])),
        ]);
        let text = doc.to_pretty();
        assert!(
            text.contains("\"acc\": 0.0001,"),
            "an f32 prints its own shortest form"
        );
        let back = Json::parse(&text).expect("parse own output");
        assert_eq!(doc, back);
        // u64::MAX survives exactly (would be lossy through f64).
        assert_eq!(back.get("median_ns").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn as_u64_rejects_what_an_f64_cannot_hold_exactly() {
        let read = |lex: &str| Json::parse(lex).expect("a number").as_u64();
        assert_eq!(read("18446744073709551615"), Some(u64::MAX));
        for too_big in [
            "18446744073709551616",
            "18446744073709551617",
            "1.8446744073709552e19",
            "9007199254740993.0",
            "2e19",
        ] {
            assert_eq!(read(too_big), None, "{too_big} must not saturate or round");
        }
        assert_eq!(read("1e3"), Some(1000));
        assert_eq!(read("9007199254740991.0"), Some((1 << 53) - 1));
        assert_eq!(read("-0.0"), Some(0));
        assert_eq!(read("-1"), None);
        assert_eq!(read("1.5"), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#"{"s": "a\nbé😀c", "n": -1.5e3}"#).expect("parse");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\nbé😀c"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-1500.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::from(f32::INFINITY), Json::Null);
    }
}
