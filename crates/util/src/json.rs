//! The workspace's one JSON writer and reader.
//!
//! Every document the workspace emits — `oll.telemetry`, `oll.obs`, the
//! Chrome trace, `oll.fig5`, `oll.trace`, `oll.fig5_async` and the
//! benchmark's result line — is built as a
//! [`Value`] tree and written by [`Value::render`], the only place that
//! escapes a string or formats a number. [`parse`] reads any of them
//! back: the round-trip tests and the `fig5check` validator use it. The
//! workspace carries no serialization dependency.
//!
//! Numbers are `f64` both ways, which is why 64-bit causality tokens
//! travel as `"0x…"` strings. A non-finite number renders as `null`,
//! since no JSON reader accepts `NaN` or `inf`.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Serializes this value as JSON text (compact, key order preserved).
    /// Finite numbers render via Rust's shortest-round-trip `f64`
    /// formatting, so a parse → render → parse cycle is lossless;
    /// non-finite ones render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup.
    pub fn idx(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Writes `s` as a quoted JSON string literal.
fn escape_into(out: &mut String, s: &str) {
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

/// An object of `members`, in the order given.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `n` rounded to `decimals` places, as `format!("{n:.decimals$}")`
/// writes it: the number a reader gets back from that text.
pub fn rounded(n: f64, decimals: usize) -> Value {
    let text = format!("{n:.decimals$}");
    Value::Num(text.parse().expect("a formatted f64 parses back"))
}

/// A string value.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            /// Exact up to 2^53, like every JSON number a reader parses
            /// as `f64`.
            fn from(n: $t) -> Self {
                Value::Num(n as f64)
            }
        }
    )*};
}

from_integer!(u8, u32, u64, usize);

/// An array of the items, in order.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// A syntax error, with the byte offset it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
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
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u16::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00)
                            } else {
                                u32::from(hi)
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                first => {
                    // Copy one UTF-8 scalar (the input is a &str, so
                    // the sequence is valid).
                    let len = match first {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push_str(chunk);
                    self.pos += len;
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_numbers_and_nesting() {
        let v =
            parse(r#"{"a":[1,-2.5,1e3],"s":"q\" \\ \n A 😀","t":true,"n":null,"o":{}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.idx(0)).and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("a").and_then(|a| a.idx(1)).and_then(Value::as_f64),
            Some(-2.5)
        );
        assert_eq!(
            v.get("a").and_then(|a| a.idx(2)).and_then(Value::as_f64),
            Some(1000.0)
        );
        assert_eq!(v.get("s").and_then(Value::as_str), Some("q\" \\ \n A 😀"));
        assert_eq!(v.get("t").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("o"), Some(&Value::Obj(Vec::new())));
        assert!(parse("{\"unterminated\":").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn render_is_parse_inverse() {
        let doc = r#"{"a":[1,-2.5,1e3,true,null],"s":"q\" \\ A 😀","o":{"k":0.000087}}"#;
        let v = parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        // Idempotent: rendering the re-parse reproduces the same text.
        assert_eq!(parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn escape_handles_controls() {
        for s in ["a\"b", "a\\b", "a\nb", "a\u{1}b", "a\"b\\c\n\u{1}"] {
            let rendered = Value::Str(s.to_string()).render();
            assert_eq!(
                parse(&rendered),
                Ok(Value::Str(s.to_string())),
                "{rendered}"
            );
        }
        assert_eq!(text("a\"b\\c\n\u{1}").render(), r#""a\"b\\c\n\u0001""#);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rendered = Value::Num(x).render();
            assert_eq!(parse(&rendered), Ok(Value::Null), "{x}");
        }
        // Finite numbers keep their shortest round-trip text.
        for x in [900.0, 0.1, -2.5, 0.000087, 1e21] {
            let got = Value::Num(x).render();
            assert_eq!(got, format!("{x}"));
            assert_eq!(parse(&got).unwrap().as_f64(), Some(x), "{got}");
        }
    }

    #[test]
    fn builders_keep_order_and_decimals() {
        let doc = obj([
            ("b", true.into()),
            ("n", 7u32.into()),
            ("r", rounded(900.0, 3)),
            ("f", rounded(2.0 / 3.0, 6)),
            ("s", "x".into()),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"b":true,"n":7,"r":900,"f":0.666667,"s":"x"}"#
        );
        assert_eq!(rounded(f64::NAN, 3).render(), "null");
    }
}
