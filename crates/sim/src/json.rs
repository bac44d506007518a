//! A minimal, dependency-free JSON reader/writer for sweep checkpoints.
//!
//! The container has no registry access, so `serde` is unavailable; this
//! module implements exactly the surface the checkpointed sweeps need:
//! a [`Value`] tree, a recursive-descent parser, and a compact writer.
//!
//! Two representation choices make the round trip *exact* — a resumed
//! sweep must reproduce bit-identical reports:
//!
//! * Numbers are stored as their **raw source token** (`Value::Num` holds
//!   a `String`). `u64` counters round-trip without passing through `f64`
//!   (which would corrupt values above 2⁵³), and `f64` stats are written
//!   with Rust's shortest-round-trip formatting, which parses back to the
//!   identical bit pattern.
//! * Non-finite floats (illegal in JSON) are encoded as the strings
//!   `"NaN"`, `"inf"`, `"-inf"` and recovered by [`Value::as_f64`].

use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token for lossless round-tripping.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Encode a `u64` exactly (decimal token, no float detour).
    pub fn u64(v: u64) -> Value {
        Value::Num(v.to_string())
    }

    /// Encode an `f64`; finite values use shortest-round-trip formatting,
    /// non-finite values become the strings `"NaN"` / `"inf"` / `"-inf"`.
    pub fn f64(v: f64) -> Value {
        if v.is_finite() {
            Value::Num(format!("{v:?}"))
        } else if v.is_nan() {
            Value::Str("NaN".into())
        } else if v > 0.0 {
            Value::Str("inf".into())
        } else {
            Value::Str("-inf".into())
        }
    }

    /// Encode a string.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Decode a `u64` (exact; fails on floats and out-of-range tokens).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// Decode a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Decode an `f64`, recovering the non-finite string encodings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// Decode a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow the string contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow the array items.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Look up an object field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(tok) => out.push_str(tok),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume the whole input). Arrays and
    /// objects nested more than 128 deep are an error.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`Value::parse`] accepts. The
/// parser recurses once per level, so without a bound a hostile line of
/// `[`s would overflow the stack. The documents this workspace writes
/// nest a few levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object a level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                _ => break,
            }
        }
        if !saw_digit {
            return Err(self.err("malformed number"));
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        // Validate the token parses as a float so garbage like `1.2.3`
        // is rejected at load time, not at field-decode time.
        tok.parse::<f64>()
            .map_err(|_| self.err("malformed number"))?;
        Ok(Value::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("unterminated"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'[', "expected array")?;
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

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'{', "expected object")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Value::Obj(vec![
            ("version".into(), Value::u64(1)),
            (
                "items".into(),
                Value::Arr(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::str("a\"b\\c\n"),
                ]),
            ),
        ]);
        let text = doc.encode();
        let back = Value::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn u64_round_trips_above_2_pow_53() {
        let v = u64::MAX - 12345;
        let back = Value::parse(&Value::u64(v).encode()).unwrap();
        assert_eq!(back.as_u64(), Some(v));
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -2.2250738585072014e-308,
            6.02214076e23,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let back = Value::parse(&Value::f64(x).encode()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
        let nan = Value::parse(&Value::f64(f64::NAN).encode()).unwrap();
        assert!(nan.as_f64().unwrap().is_nan());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(Value::parse("[1] trailing").is_err());
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let err = Value::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!((err.pos, err.msg), (MAX_DEPTH, "nesting too deep"));
        let deepest = format!(
            "{}0{}",
            "[{\"k\":".repeat(MAX_DEPTH / 2),
            "}]".repeat(MAX_DEPTH / 2)
        );
        assert!(Value::parse(&deepest).is_ok());
        let one_more = format!("[{deepest}]");
        assert!(Value::parse(&one_more).is_err());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Value::parse(" { \"k\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().items().unwrap().len(), 2);
        assert_eq!(
            v.get("k").unwrap().items().unwrap()[1].as_str(),
            Some("A\n")
        );
    }
}
