//! # ljqo-json — dependency-free JSON for the LJQO workspace
//!
//! The build environment is fully offline, so instead of `serde` +
//! `serde_json` this workspace carries its own small JSON layer: a
//! [`Value`] tree, a strict parser ([`parse`]), compact and pretty
//! printers, and a [`json!`] constructor macro. It covers exactly what
//! the CLI input format and the experiment reports need — objects keep
//! insertion order so emitted reports are stable across runs.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; integral values print without a
    /// fractional part). Non-finite values print as `null`, mirroring the
    /// robustness rule that NaN must never leak into output.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Compact one-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation (the `serde_json`
    /// convention the checked-in `results/*.json` files follow).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(v as f64)
            }
        }
    )*};
}

from_number!(f64, f32, u64, u32, u16, u8, usize, i64, i32, i16, i8, isize);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

/// Build a [`Value`] from a literal: `json!(null)`, `json!(3.5)`,
/// `json!([a, b])`, or `json!({ "key": expr, ... })`. Values inside
/// objects and arrays are arbitrary expressions converted via
/// `Into<Value>`; nest objects by nesting `json!` calls.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($elem) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::Value::from($value)) ),*
        ])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

// `fmt::Write` into a `String` cannot fail, so its results are ignored.
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; emit null rather than invalid output.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else if n.abs() >= 1e16 || n.abs() < 1e-5 {
        // Rust's `{}` never uses scientific notation; huge magnitudes
        // would print hundreds of digits.
        let _ = write!(out, "{n:e}");
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    let (newline, pad, pad_close, colon) = match indent {
        Some(w) => (
            "\n",
            " ".repeat(w * (depth + 1)),
            " ".repeat(w * depth),
            ": ",
        ),
        None => ("", String::new(), String::new(), ":"),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(newline);
                out.push_str(&pad);
                write_value(out, item, indent, depth + 1);
            }
            out.push_str(newline);
            out.push_str(&pad_close);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(newline);
                out.push_str(&pad);
                write_escaped(out, k);
                out.push_str(colon);
                write_value(out, val, indent, depth + 1);
            }
            out.push_str(newline);
            out.push_str(&pad_close);
            out.push('}');
        }
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so without a cap a few hundred kilobytes of `[` would overflow
/// the stack of whichever thread parses them.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Trailing non-whitespace is an error, and so is
/// nesting arrays and objects more than 128 levels deep.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parse one array or object with `container`, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("arrays and objects nest too deeply"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Runs start and end next to ASCII bytes, so on char
            // boundaries, and the input is already valid UTF-8.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: decode one escape.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are not combined; out of scope here.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_sample_document() {
        let text = r#"{
            "relations": [
                { "name": "a", "cardinality": 1000, "selections": [0.5, 0.2] },
                { "name": "b", "cardinality": 200 }
            ],
            "joins": [
                { "left": "a", "right": "b", "selectivity": 0.01 }
            ]
        }"#;
        let v = parse(text).unwrap();
        let rels = v.get("relations").unwrap().as_array().unwrap();
        assert_eq!(rels.len(), 2);
        assert_eq!(rels[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(rels[0].get("cardinality").unwrap().as_u64(), Some(1000));
        let again = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(v, again);
        let again = parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn numbers_print_like_serde_json() {
        assert_eq!(json!(3.0).to_string_compact(), "3");
        assert_eq!(json!(3.25).to_string_compact(), "3.25");
        assert_eq!(json!(-7).to_string_compact(), "-7");
        assert_eq!(json!(1e300).to_string_compact(), "1e300");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(json!(f64::NAN).to_string_compact(), "null");
        assert_eq!(json!(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn json_macro_builds_objects_and_arrays() {
        let rows = vec![json!({ "n": 10, "cost": 1.5 })];
        let v = json!({
            "experiment": "unit",
            "rows": rows,
            "ok": true,
            "nothing": json!(null),
        });
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("unit"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("nothing"), Some(&Value::Null));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("n").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn escapes_round_trip() {
        let v = json!("line\nbreak \"quoted\" back\\slash");
        let parsed = parse(&v.to_string_compact()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse("{ \"a\": }").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] x").is_err());
    }

    #[test]
    fn multibyte_runs_next_to_escapes_decode_exactly() {
        let text = r#""héllo\n日本\u00e9語\"𝄞\\é\t""#;
        assert_eq!(
            parse(text).unwrap(),
            Value::String("héllo\n日本é語\"𝄞\\é\t".to_string())
        );
        // Escapes at both ends and back to back, and runs of one char.
        assert_eq!(
            parse(r#""\u65e5a\u00e9\/ü""#).unwrap(),
            Value::String("日aé/ü".to_string())
        );
        assert_eq!(parse(r#""""#).unwrap(), Value::String(String::new()));
        // Keys go through the same scanner.
        let v = parse(r#"{"ключ\u0021": "значение"}"#).unwrap();
        assert_eq!(v.get("ключ!").unwrap().as_str(), Some("значение"));
        // Control characters round-trip through the \u00XX writer.
        let v = json!("a\u{1}日\u{1f}");
        assert_eq!(v.to_string_compact(), r#""a\u0001日\u001f""#);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn string_errors_carry_offsets() {
        let err = |text: &str| {
            let e = parse(text).unwrap_err();
            (e.message, e.offset)
        };
        // Unterminated: reported at the end of the input.
        assert_eq!(err(r#""abc"#), ("unterminated string".to_string(), 4));
        assert_eq!(err(r#""日本"#), ("unterminated string".to_string(), 7));
        assert_eq!(
            err(r#"["ok", "é\n"#),
            ("unterminated string".to_string(), 12)
        );
        // Bad escapes: reported at the byte after the backslash.
        assert_eq!(err(r#""a\x""#), ("invalid escape".to_string(), 3));
        assert_eq!(err(r#""日\q""#), ("invalid escape".to_string(), 5));
        assert_eq!(err(r#""ab\"#), ("invalid escape".to_string(), 4));
        assert_eq!(err(r#""\u12""#), ("truncated \\u escape".to_string(), 2));
        assert_eq!(err(r#""é\uzzzz""#), ("invalid \\u escape".to_string(), 4));
        assert_eq!(
            err(r#""\ud800""#),
            ("invalid \\u code point".to_string(), 2)
        );
        assert_eq!(err(r#"{"k\z": 1}"#), ("invalid escape".to_string(), 4));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // The server's frame cap (`DEFAULT_MAX_FRAME_BYTES` in
        // ljqo-server): the largest request payload it ever decodes.
        const FRAME_CAP: usize = 4 << 20;
        let chunk = "relation_日本_é_".repeat(1 << 12);
        let mut text = String::from("[");
        while text.len() + chunk.len() + 16 < FRAME_CAP {
            text.push('"');
            text.push_str(&chunk);
            text.push_str("\\n\",");
        }
        text.push_str("\"end\"]");
        let started = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let elapsed = started.elapsed();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str().unwrap().len(), chunk.len() + 1);
        assert_eq!(items.last().unwrap().as_str(), Some("end"));
        // A linear scan takes milliseconds even unoptimized; re-checking
        // the remaining input per character would take hours.
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "{} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn write_number_matches_literal_strings() {
        let cases: &[(f64, &str)] = &[
            (0.0, "0"),
            (-0.0, "0"),
            (42.0, "42"),
            (-7.0, "-7"),
            (1e15, "1000000000000000"),
            (9_007_199_254_740_991.0, "9007199254740991"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (9_999_999_999_999_998.0, "9999999999999998"),
            (1e16, "1e16"),
            (-1.5e16, "-1.5e16"),
            (1e300, "1e300"),
            (f64::MAX, "1.7976931348623157e308"),
            (3.25, "3.25"),
            (-0.5, "-0.5"),
            (0.1 + 0.2, "0.30000000000000004"),
            (123_456.789, "123456.789"),
            (1e-5, "0.00001"),
            (9.99e-6, "9.99e-6"),
            (-2.5e-7, "-2.5e-7"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (5e-324, "5e-324"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for &(n, expected) in cases {
            let mut out = String::from("x");
            write_number(&mut out, n);
            assert_eq!(&out[1..], expected, "{n:?}");
        }
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = json!({ "a": 1, "b": vec![json!(2)] });
        let s = v.to_string_pretty();
        assert!(s.contains("\n  \"a\": 1"));
        assert!(s.contains("\n  \"b\": [\n    2\n  ]"));
    }
}
