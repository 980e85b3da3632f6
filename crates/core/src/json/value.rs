//! The JSON *format*: the generic [`Json`] value, a strict
//! recursive-descent parser (string escapes incl. `\uXXXX` surrogate
//! pairs, scientific-notation numbers, a nesting-depth limit), a
//! compact canonical encoder (insertion-ordered fields, no
//! whitespace), the typed accessors the codecs decode through, and the
//! strict object reader behind every field table.
//!
//! # Numbers
//!
//! Integers round-trip exactly across the full `u64`/`i64` range (the
//! parser keeps integer text out of `f64`), and finite floats
//! round-trip exactly via Rust's shortest-representation formatting.
//! JSON has no non-finite literals, so in *float-valued positions* the
//! strings `"Infinity"`, `"-Infinity"`, and `"NaN"` stand in (and are
//! accepted back; a NaN with a non-canonical bit pattern travels as
//! `"NaN:0x<16 hex digits>"` so even NaN payloads round-trip
//! bit-exactly). Non-finite values cannot occur in mined output —
//! observed value ranges are finite — but the stand-ins keep spec
//! round-trips total. Number literals that overflow `f64` (`1e999`)
//! are rejected outright rather than saturated.

use std::fmt;

/// Maximum nesting depth the parser accepts — far deeper than any
/// protocol message, shallow enough that hostile input cannot blow the
/// stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map), so
/// encoding is stable; duplicate keys are rejected by the typed
/// decoders.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Num`] for the integer/float split).
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A JSON number, kept out of `f64` when it is integer text so `u64`
/// seeds and counts survive round trips exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// Non-negative integer text that fits `u64`.
    UInt(u64),
    /// Negative integer text that fits `i64`.
    Int(i64),
    /// Everything else (fraction, exponent, or out of integer range).
    Float(f64),
}

/// A parse or decode error, with the byte offset for parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input (0 for semantic decode errors).
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl JsonError {
    fn at(pos: usize, msg: impl Into<String>) -> Self {
        Self {
            pos,
            msg: msg.into(),
        }
    }

    /// A semantic (schema) error: no byte offset.
    pub(crate) fn decode(msg: impl Into<String>) -> Self {
        Self::at(0, msg)
    }

    /// The error for a required key absent from `what`.
    pub(crate) fn missing(what: &str, key: &str) -> Self {
        Self::decode(format!("{what} is missing {key:?}"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pos > 0 {
            write!(f, "{} at byte {}", self.msg, self.pos)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for JsonError {}

/// Result alias for this module.
pub type JsonResult<T> = std::result::Result<T, JsonError>;

// ---------------------------------------------------------------------
// Generic value: parsing and encoding
// ---------------------------------------------------------------------

impl Json {
    /// Parses one JSON value from `text`, rejecting trailing content.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its byte offset.
    pub fn parse(text: &str) -> JsonResult<Json> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing content after JSON value"));
        }
        Ok(value)
    }

    /// Encodes compactly (no whitespace), with object fields in
    /// insertion order.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(Num::UInt(u)) => {
                let _ = fmt::write(out, format_args!("{u}"));
            }
            Json::Num(Num::Int(i)) => {
                let _ = fmt::write(out, format_args!("{i}"));
            }
            Json::Num(Num::Float(x)) => {
                debug_assert!(x.is_finite(), "encode non-finite floats via enc_f64");
                // Rust's float Display is the shortest string that
                // parses back to the same value, so this round-trips.
                let _ = fmt::write(out, format_args!("{x}"));
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::write(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> JsonResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> JsonResult<Json> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected {text:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> JsonResult<Json> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::at(
                self.pos,
                format!("unexpected character {:?}", other as char),
            )),
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> JsonResult<Json> {
        self.expect(b'[')?;
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
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> JsonResult<Json> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
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
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> JsonResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| JsonError::at(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a \uXXXX low
                                // surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(JsonError::at(start, "invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(c)
                                        .ok_or_else(|| JsonError::at(start, "invalid code point"))?
                                } else {
                                    return Err(JsonError::at(start, "unpaired surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&unit) {
                                return Err(JsonError::at(start, "unpaired surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| JsonError::at(start, "invalid code point"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(JsonError::at(
                                start,
                                format!("invalid escape \\{}", other as char),
                            ))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(self.pos, "raw control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str and
                    // pos only ever advances by whole scalars, so this
                    // slice is at a char boundary — O(1), no
                    // re-validation of the remaining input.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> JsonResult<u32> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| JsonError::at(self.pos, "truncated \\u escape"))?;
        let text = std::str::from_utf8(slice)
            .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
        let unit = u32::from_str_radix(text, 16)
            .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> JsonResult<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(JsonError::at(start, "invalid number"));
        }
        // JSON forbids leading zeros ("01"), which integer parsing
        // would otherwise accept.
        if self.bytes[digits_start] == b'0' && self.pos - digits_start > 1 {
            return Err(JsonError::at(start, "leading zero in number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError::at(start, "invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError::at(start, "invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        // "-0" must stay a float: Int(0) would drop the sign bit that
        // bit-exact Real round-trips preserve.
        if integral && text != "-0" {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Num(Num::UInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Num(Num::Int(i)));
            }
        }
        match text.parse::<f64>() {
            // Rust's parse saturates overflowing literals ("1e999") to
            // ±∞; admitting them would break the finite-only encoder
            // invariant (non-finite values travel as strings instead).
            Ok(x) if x.is_finite() => Ok(Json::Num(Num::Float(x))),
            Ok(_) => Err(JsonError::at(start, "number out of f64 range")),
            Err(_) => Err(JsonError::at(start, "invalid number")),
        }
    }
}

// ---------------------------------------------------------------------
// Generic value: typed accessors
// ---------------------------------------------------------------------

impl Json {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The decode error every accessor raises on a type mismatch.
    fn expected(&self, what: &str) -> JsonError {
        JsonError::decode(format!("expected {what}, got {}", self.type_name()))
    }

    pub(crate) fn as_obj(&self) -> JsonResult<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(other.expected("an object")),
        }
    }

    pub(crate) fn as_arr(&self) -> JsonResult<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(other.expected("an array")),
        }
    }

    pub(crate) fn as_str(&self) -> JsonResult<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(other.expected("a string")),
        }
    }

    pub(crate) fn as_bool(&self) -> JsonResult<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(other.expected("a bool")),
        }
    }

    pub(crate) fn as_u64(&self) -> JsonResult<u64> {
        match self {
            Json::Num(Num::UInt(u)) => Ok(*u),
            other => Err(other.expected("a non-negative integer")),
        }
    }

    pub(crate) fn as_f64(&self) -> JsonResult<f64> {
        match self {
            Json::Num(Num::UInt(u)) => Ok(*u as f64),
            Json::Num(Num::Int(i)) => Ok(*i as f64),
            Json::Num(Num::Float(x)) => Ok(*x),
            Json::Str(s) => match s.as_str() {
                "Infinity" => Ok(f64::INFINITY),
                "-Infinity" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                other => match other.strip_prefix("NaN:0x") {
                    Some(hex) => u64::from_str_radix(hex, 16)
                        .ok()
                        .map(f64::from_bits)
                        // Only genuine NaN bit patterns may ride the
                        // NaN channel — "NaN:0x0" must not decode.
                        .filter(|x| x.is_nan())
                        .ok_or_else(|| JsonError::decode(format!("invalid NaN bit pattern {s:?}"))),
                    None => Err(JsonError::decode(format!("expected a number, got {s:?}"))),
                },
            },
            other => Err(other.expected("a number")),
        }
    }
}

/// Encodes an `f64`, representing non-finite values as the strings the
/// decoder accepts back (JSON has no non-finite number literals). NaNs
/// with a non-canonical bit pattern (payloads, negative NaN) carry
/// their bits explicitly, so the bit-exact round trip
/// [`Real`](crate::spec::Real) equality relies on stays total.
pub(crate) fn enc_f64(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(Num::Float(x))
    } else if x.is_nan() {
        if x.to_bits() == f64::NAN.to_bits() {
            Json::Str("NaN".into())
        } else {
            Json::Str(format!("NaN:0x{:016x}", x.to_bits()))
        }
    } else if x > 0.0 {
        Json::Str("Infinity".into())
    } else {
        Json::Str("-Infinity".into())
    }
}

/// A strict object reader: every key must be consumed exactly once;
/// duplicates and leftovers are errors. Both checks are linear in the
/// object: a duplicate is caught when its (known) key is looked up,
/// and an unknown key — duplicated or not — by [`finish`](Self::finish).
pub(crate) struct ObjReader<'a> {
    what: &'static str,
    fields: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    pub(crate) fn new(what: &'static str, value: &'a Json) -> JsonResult<Self> {
        let fields = value.as_obj()?;
        Ok(Self {
            what,
            fields,
            used: vec![false; fields.len()],
        })
    }

    pub(crate) fn optional(&mut self, key: &str) -> JsonResult<Option<&'a Json>> {
        let mut found = None;
        for (i, (k, value)) in self.fields.iter().enumerate() {
            if k == key {
                if found.is_some() {
                    return Err(JsonError::decode(format!(
                        "duplicate key {key:?} in {}",
                        self.what
                    )));
                }
                self.used[i] = true;
                found = Some(value);
            }
        }
        Ok(found)
    }

    pub(crate) fn required(&mut self, key: &str) -> JsonResult<&'a Json> {
        self.optional(key)?.ok_or_else(|| self.missing(key))
    }

    /// The error for an absent required key.
    pub(crate) fn missing(&self, key: &str) -> JsonError {
        JsonError::missing(self.what, key)
    }

    /// Whether `key` is present (consumes nothing).
    pub(crate) fn has(&self, key: &str) -> bool {
        self.fields.iter().any(|(k, _)| k == key)
    }

    pub(crate) fn finish(self) -> JsonResult<()> {
        match self.fields.iter().zip(&self.used).find(|(_, used)| !**used) {
            Some(((key, _), _)) => Err(JsonError::decode(format!(
                "unknown key {key:?} in {}",
                self.what
            ))),
            None => Ok(()),
        }
    }
}
