//! # lvp-json — deterministic JSON for experiment results
//!
//! The experiment runner persists every `SchemeOutcome`-style record to
//! `results/matrix.json` and diffs re-runs against committed golden
//! snapshots. That workflow needs three guarantees an external serializer
//! would also give us, but which we implement here to keep the workspace
//! dependency-free (the build environment is offline):
//!
//! 1. **Byte-determinism** — object keys keep insertion order, floats print
//!    via Rust's shortest-roundtrip formatter, and the writer has no
//!    configuration. The same value always serializes to the same bytes, so
//!    `--jobs 1` and `--jobs 8` runs produce identical files.
//! 2. **Lossless integers** — counters are `u64`; they are never routed
//!    through `f64` on the write path.
//! 3. **Self-contained parsing** — golden diffing needs to read snapshots
//!    back; [`Json::parse`] is a small recursive-descent parser for the
//!    subset the writer emits (i.e. standard JSON).
//!
//! ```
//! use lvp_json::{Json, ToJson};
//! let v = Json::obj([("cycles", 123u64.to_json()), ("ipc", 1.5.to_json())]);
//! let text = v.pretty();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so serialization is
/// deterministic and diffs stay readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64 if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(x) => Some(x as f64),
            Json::I64(x) => Some(x as f64),
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as an unsigned integer: a `U64`, or a non-negative `I64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(x) => Some(x),
            Json::I64(x) if x >= 0 => Some(x as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the one canonical form used for all result and golden files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes without any whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Canonical serialization: compact, with object keys recursively
    /// sorted byte-lexicographically. Two structurally equal values
    /// produce identical bytes regardless of insertion order, so this is
    /// the form content-addressed store keys hash over. Duplicate keys
    /// keep their relative order (the writer never emits any). Floats use
    /// the same shortest-roundtrip formatter as [`Json::compact`], so
    /// `parse(canonical(v))` re-canonicalizes to the same bytes.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0));
                out.push('{');
                for (i, &idx) in order.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, &pairs[idx].0);
                    out.push(':');
                    pairs[idx].1.write_canonical(out);
                }
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(x) => {
                let _ = write!(out, "{x}");
            }
            Json::I64(x) => {
                let _ = write!(out, "{x}");
            }
            Json::F64(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Integral numbers without `.`/`e` become
    /// [`Json::U64`]/[`Json::I64`], everything else [`Json::F64`].
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Flattens every numeric leaf to a `(dotted.path, value)` pair, in
    /// document order. Array elements use their index as the path segment.
    /// Used by golden diffing to report per-counter deltas.
    pub fn flatten_numbers(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        self.flatten_into("", &mut out);
        out
    }

    fn flatten_into(&self, prefix: &str, out: &mut Vec<(String, f64)>) {
        let join = |seg: &str| {
            if prefix.is_empty() {
                seg.to_string()
            } else {
                format!("{prefix}.{seg}")
            }
        };
        match self {
            Json::Object(pairs) => {
                for (k, v) in pairs {
                    v.flatten_into(&join(k), out);
                }
            }
            Json::Array(items) => {
                for (i, v) in items.iter().enumerate() {
                    v.flatten_into(&join(&i.to_string()), out);
                }
            }
            _ => {
                if let Some(x) = self.as_f64() {
                    out.push((prefix.to_string(), x));
                }
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Floats print with Rust's shortest-roundtrip `Display`; an explicit `.0`
/// is appended to integral values so they re-parse as floats, and
/// non-finite values (invalid JSON) map to `null`.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{x}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // on char boundaries is safe via char_indices logic).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("truncated input"))?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        if !is_float {
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Json::U64(x));
            }
            if let Ok(x) = text.parse::<i64>() {
                return Ok(Json::I64(x));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| ParseError {
            offset: start,
            message: format!("bad number '{text}'"),
        })
    }
}

/// Conversion into a [`Json`] value — the crate's stand-in for
/// `serde::Serialize`.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::I64(*self as i64)
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(*self as f64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structures() {
        let v = Json::obj([
            ("name", "aifirf".to_json()),
            ("cycles", 123456789u64.to_json()),
            ("neg", (-17i64).to_json()),
            ("ipc", 1.25.to_json()),
            ("flags", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("k", 0u64.to_json())])),
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(vec![])),
        ]);
        for text in [v.pretty(), v.compact()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn u64_counters_are_lossless() {
        let big = u64::MAX - 3;
        let text = Json::U64(big).pretty();
        assert_eq!(Json::parse(&text).unwrap(), Json::U64(big));
    }

    #[test]
    fn floats_reparse_as_floats() {
        let text = Json::F64(2.0).pretty();
        assert_eq!(text.trim(), "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::F64(2.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(Json::F64(f64::NAN).compact(), "null");
    }

    #[test]
    fn serialization_is_deterministic() {
        let build = || {
            Json::obj([
                ("b", 1u64.to_json()),
                ("a", 2u64.to_json()),
                ("list", vec![1.5f64, 2.5].to_json()),
            ])
        };
        assert_eq!(build().pretty(), build().pretty());
        // Key order is insertion order, not sorted: stable diffs.
        assert!(build().pretty().find("\"b\"").unwrap() < build().pretty().find("\"a\"").unwrap());
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let a = Json::obj([
            ("b", 1u64.to_json()),
            ("a", Json::obj([("z", 1.5.to_json()), ("y", Json::Null)])),
        ]);
        let b = Json::obj([
            ("a", Json::obj([("y", Json::Null), ("z", 1.5.to_json())])),
            ("b", 1u64.to_json()),
        ]);
        assert_ne!(a.compact(), b.compact());
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), "{\"a\":{\"y\":null,\"z\":1.5},\"b\":1}");
        // Canonical form is a fixpoint: reparsing and re-canonicalizing
        // reproduces the same bytes (floats are shortest-roundtrip).
        let reparsed = Json::parse(&a.canonical()).unwrap();
        assert_eq!(reparsed.canonical(), a.canonical());
    }

    #[test]
    fn canonical_preserves_arrays_and_scalars() {
        let v = Json::obj([
            ("list", Json::Array(vec![Json::U64(2), Json::U64(1)])),
            ("neg", (-3i64).to_json()),
            ("f", 2.0.to_json()),
        ]);
        // Array element order is semantic and must NOT be sorted.
        assert_eq!(v.canonical(), "{\"f\":2.0,\"list\":[2,1],\"neg\":-3}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote\" slash\\ newline\n tab\t unicode\u{1}ok";
        let text = Json::Str(s.to_string()).pretty();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.to_string()));
    }

    #[test]
    fn get_and_flatten() {
        let v = Json::obj([
            ("meta", Json::obj([("budget", 200u64.to_json())])),
            (
                "rows",
                Json::Array(vec![
                    Json::obj([("cycles", 10u64.to_json()), ("name", "x".to_json())]),
                    Json::obj([("cycles", 20u64.to_json())]),
                ]),
            ),
        ]);
        assert_eq!(
            v.get("meta").and_then(|m| m.get("budget")),
            Some(&Json::U64(200))
        );
        let flat = v.flatten_numbers();
        assert_eq!(
            flat,
            vec![
                ("meta.budget".to_string(), 200.0),
                ("rows.0.cycles".to_string(), 10.0),
                ("rows.1.cycles".to_string(), 20.0),
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
