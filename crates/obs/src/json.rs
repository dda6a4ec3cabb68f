//! A hand-rolled JSON value model, writer and parser.
//!
//! Replaces `serde`/`serde_json` for the exact shapes this workspace
//! emits (result tables, boxplot stats, bench records, run manifests).
//! Design points:
//!
//! - **f64 round-trip safety**: numbers are written with Rust's
//!   shortest-round-trip `Display` formatting and parsed with
//!   `str::parse::<f64>`, which is correctly rounded — so
//!   `parse(write(x)) == x` bit-for-bit for every finite `f64`,
//!   including `-0.0` and subnormals.
//! - **Stable output**: objects keep insertion order, pretty output
//!   uses two-space indentation (the same layout `serde_json` produced
//!   for the committed `results/*.json` records), so byte-identical
//!   output is a meaningful determinism guarantee.
//! - **Descriptive errors**: the parser reports line and column.
//!
//! Writing non-finite numbers panics (JSON cannot represent them, and
//! every metric in this workspace is expected to be finite — a NaN
//! reaching serialization is a bug upstream).

use std::fmt;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the failure.
    pub line: usize,
    /// 1-based column of the failure.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Formats a finite `f64` as a JSON number that parses back to the
/// identical bit pattern (`-0.0` keeps its sign; subnormals survive).
///
/// # Panics
/// Panics on NaN or infinity.
#[must_use]
pub fn write_f64(v: f64) -> String {
    assert!(
        v.is_finite(),
        "cannot serialise non-finite number {v} as JSON"
    );
    // Rust's `Display` for f64 is the shortest string that round-trips.
    let s = v.to_string();
    debug_assert_eq!(s.parse::<f64>().map(f64::to_bits), Ok(v.to_bits()));
    s
}

impl Json {
    /// Convenience constructor for an object literal.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a member of an object by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A member that must exist, as a typed error instead of `None`.
    ///
    /// # Errors
    /// Returns a [`JsonError`] naming the missing key.
    pub fn require(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError {
            line: 0,
            col: 0,
            msg: format!("missing object member {key:?}"),
        })
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as a usize, if this is a non-negative integer.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Typed accessor errors for the decode paths.
    fn type_err(&self, wanted: &str) -> JsonError {
        JsonError {
            line: 0,
            col: 0,
            msg: format!("expected {wanted}, found {}", self.kind()),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// `as_f64` with a typed error.
    ///
    /// # Errors
    /// Returns a [`JsonError`] when the value is not a number.
    pub fn to_f64(&self) -> Result<f64, JsonError> {
        self.as_f64().ok_or_else(|| self.type_err("number"))
    }

    /// `as_usize` with a typed error.
    ///
    /// # Errors
    /// Returns a [`JsonError`] when the value is not a small
    /// non-negative integer.
    pub fn to_usize(&self) -> Result<usize, JsonError> {
        self.as_usize()
            .ok_or_else(|| self.type_err("non-negative integer"))
    }

    /// `as_str` with a typed error.
    ///
    /// # Errors
    /// Returns a [`JsonError`] when the value is not a string.
    pub fn to_str(&self) -> Result<&str, JsonError> {
        self.as_str().ok_or_else(|| self.type_err("string"))
    }

    /// `as_arr` with a typed error.
    ///
    /// # Errors
    /// Returns a [`JsonError`] when the value is not an array.
    pub fn to_arr(&self) -> Result<&[Json], JsonError> {
        self.as_arr().ok_or_else(|| self.type_err("array"))
    }

    /// Serialises compactly (no whitespace).
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation, `serde_json`-pretty style.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&write_f64(*v)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace).
    ///
    /// # Errors
    /// Returns a [`JsonError`] with line/column on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Infallible conversions used by the tracing field macros
/// (`span!` / `point!`): every field value becomes a [`Json`] leaf.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
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
    fn error(&self, msg: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {:?}, found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("invalid literal, expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.error(format!(
                "expected a JSON value, found {:?}",
                other.map(|c| c as char)
            ))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(self.error(format!(
                        "expected ',' or ']' in array, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(self.error(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
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
                            let cp = self.hex4()?;
                            // Handle surrogate pairs for completeness.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let cp =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape digits"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone '0', or a nonzero digit then more digits
        // (JSON forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.error("number has no integer digits")),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("number has a leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("number has no fraction digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("number has no exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| self.error(format!("invalid number {text:?}: {e}")))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        assert_eq!(&Json::parse(&v.pretty()).unwrap(), v);
        assert_eq!(&Json::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn scalar_round_trips() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::Num(0.0));
        roundtrip(&Json::Str("hello \"world\"\n\t\\ λ∂".into()));
    }

    #[test]
    fn f64_edge_cases_round_trip_bit_exactly() {
        for v in [
            -0.0,
            0.0,
            1.0,
            -1.0,
            0.1,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,        // smallest normal
            f64::MIN_POSITIVE / 1e10, // subnormal
            5e-324,                   // smallest subnormal
            f64::MAX,
            f64::MIN,
            1e308,
            -1e-308,
            1.797_693_134_862_315_7e308,
            2f64.powi(53) - 1.0,
            1.000_000_000_000_000_2,
        ] {
            let written = write_f64(v);
            let parsed = Json::parse(&written).unwrap().as_f64().unwrap();
            assert_eq!(
                parsed.to_bits(),
                v.to_bits(),
                "{v:e} -> {written} -> {parsed:e} lost bits"
            );
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        assert_eq!(write_f64(-0.0), "-0");
        let parsed = Json::parse("-0").unwrap().as_f64().unwrap();
        assert!(parsed == 0.0 && parsed.is_sign_negative());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writer_rejects_nan() {
        let _ = write_f64(f64::NAN);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj(vec![
            ("title", Json::Str("Table II".into())),
            (
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Str("LSTM".into()), Json::Num(1.022), Json::Null]),
                    Json::Obj(vec![]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("ok", Json::Bool(true)),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn pretty_layout_matches_serde_json_style() {
        let v = Json::obj(vec![("mean", Json::Num(0.85)), ("std", Json::Num(0.43))]);
        assert_eq!(v.pretty(), "{\n  \"mean\": 0.85,\n  \"std\": 0.43\n}");
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn parser_accepts_standard_json() {
        let parsed = Json::parse(
            r#" { "a": [1, -2.5, 3e2, 4E-2, true, false, null],
                  "b": "u\u0041\u00e9\ud83d\ude00", "c": {} } "#,
        )
        .unwrap();
        let a = parsed.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(300.0));
        assert_eq!(a[3].as_f64(), Some(0.04));
        assert_eq!(parsed.get("b").unwrap().as_str(), Some("uAé😀"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nulla",
            "1 2",
            "[1",
            "\"abc",
            "{\"a\": 01}",
            "+1",
            "1.",
            ".5",
            "1e",
            "tru",
            "\"\\x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn parser_reports_line_and_column() {
        let err = Json::parse("{\n  \"a\": oops\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.col > 1);
        assert!(err.to_string().contains("JSON error at 2:"));
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse(r#"{"n": 3, "s": "x", "a": [1], "f": 1.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().to_usize().unwrap(), 3);
        assert!(v.get("f").unwrap().to_usize().is_err());
        assert_eq!(v.get("s").unwrap().to_str().unwrap(), "x");
        assert!(v.get("s").unwrap().to_f64().is_err());
        assert_eq!(v.get("a").unwrap().to_arr().unwrap().len(), 1);
        assert!(v.require("missing").is_err());
    }
}
