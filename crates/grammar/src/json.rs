//! The workspace's one JSON module: every document `costar` writes or
//! reads goes through it.
//!
//! The workspace carries no serialization dependency, so this module is
//! the whole JSON format, in three parts:
//!
//! - **Writer.** [`object`] builds a document through a [`JsonWriter`],
//!   which alone places separators, escapes strings, spells `null`, and
//!   renders fixed-precision floats ([`Fixed`]). Documents are compact
//!   (no whitespace) and deterministic.
//! - **Reader.** [`parse`] turns text into a [`JsonValue`], or reports
//!   the byte offset of the first error. It decodes every standard escape
//!   including surrogate pairs, rejects lone surrogates and raw control
//!   bytes, and is integer-only: floats and negative numbers are errors,
//!   because the analysis cache must reject anything its writer never
//!   emits. It is total — no input makes it panic — and caps nesting.
//! - **Certificate header.** One crate-internal pair, `JsonWriter::header`
//!   and `check_header`, writes and checks the `"schema"` /
//!   `"fingerprint"` pair that opens the analysis cache and the audit and
//!   cost certificates; [`fingerprint_hex`] is the one place a
//!   fingerprint is formatted.
//!
//! ```
//! use costar_grammar::json::{self, Fixed, JsonValue};
//!
//! let doc = json::object(|w| {
//!     w.field("name", "a\"b").field("n", 3u64).field("none", None::<u64>);
//!     w.field("ratio", Fixed(0.5, 4));
//!     w.key("xs").values([1u64, 2]);
//! });
//! assert_eq!(doc, r#"{"name":"a\"b","n":3,"none":null,"ratio":0.5000,"xs":[1,2]}"#);
//! let v = json::parse(r#"{"n":3,"s":"\ud83d\ude00"}"#).unwrap();
//! assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("😀"));
//! assert_eq!(json::parse("1.5").unwrap_err().offset, 1);
//! ```

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Builds one compact JSON document. Call [`object`] to get one; every
/// method returns the writer so fields chain.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next item needs a `,` before it.
    comma: bool,
}

/// Renders the JSON object that `body` writes into.
pub fn object(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    w.object(body);
    w.out
}

impl JsonWriter {
    fn item(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        push_string(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a scalar value (an object value after [`key`](Self::key),
    /// or an array element).
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.item();
        v.write(&mut self.out);
        self
    }

    /// Writes `"key":value`.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes an array of scalars.
    pub fn values<T: Scalar>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Self {
        self.array(|w| {
            for v in items {
                w.value(v);
            }
        })
    }

    /// Writes a nested object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('{', '}', body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('[', ']', body)
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.item();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Embeds a complete document that this module wrote (e.g. a
    /// certificate inside the analysis cache) as a value, verbatim.
    pub fn raw(&mut self, document: &str) -> &mut Self {
        self.item();
        self.out.push_str(document);
        self
    }

    /// Writes the certificate header `"schema":schema,"fingerprint":"%016x"`.
    pub(crate) fn header(&mut self, schema: &str, fingerprint: u64) -> &mut Self {
        self.field("schema", schema)
            .field("fingerprint", fingerprint_hex(fingerprint).as_str())
    }
}

/// A grammar fingerprint as the 16 lowercase hex digits that certificate
/// headers and cache file names carry.
pub fn fingerprint_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// Checks a certificate header written by `JsonWriter::header`: `Some`
/// exactly when `v` carries this schema tag and fingerprint.
pub(crate) fn check_header(v: &JsonValue, schema: &str, fingerprint: u64) -> Option<()> {
    let ok = v.get("schema")?.as_str()? == schema
        && v.get("fingerprint")?.as_str()? == fingerprint_hex(fingerprint);
    ok.then_some(())
}

/// A value the writer can render: numbers, booleans, strings, [`Fixed`]
/// floats, and `Option`s of these (`None` is `null`).
pub trait Scalar {
    /// Appends the JSON rendering of `self`.
    fn write(&self, out: &mut String);
}

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalar!(bool, u8, u32, u64, usize, i32);

impl Scalar for &str {
    fn write(&self, out: &mut String) {
        push_string(out, self);
    }
}

impl Scalar for &String {
    fn write(&self, out: &mut String) {
        push_string(out, self);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// A float rendered with a fixed number of decimal places (`Fixed(x, 4)`
/// is `format!("{x:.4}")`).
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Scalar for Fixed {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` escaped, `\n`, `\t`,
/// `\r` by name, other control characters as `\u00XX`, everything else
/// (non-ASCII included) verbatim.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers are unsigned integers only: nothing the
/// workspace reads carries any other kind.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, members in source order (duplicate keys kept).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer inside, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer as a usize, if this is a number that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The integer, if this is a number below `bound` (a dense index).
    pub(crate) fn as_index(&self, bound: usize) -> Option<usize> {
        self.as_usize().filter(|&i| i < bound)
    }

    /// The elements, if this is an array of indices all below `bound`.
    pub(crate) fn as_indices(&self, bound: usize) -> Option<Vec<usize>> {
        self.as_arr()?.iter().map(|v| v.as_index(bound)).collect()
    }

    /// `Some(None)` for `null`, otherwise `read`'s result wrapped in
    /// `Some` (`None` when `read` fails).
    pub(crate) fn nullable<T>(&self, read: impl FnOnce(&Self) -> Option<T>) -> Option<Option<T>> {
        match self {
            JsonValue::Null => Some(None),
            v => read(v).map(Some),
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// Why [`parse`] rejected its input, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the first offending byte.
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; whitespace may surround it,
/// nothing else may follow it.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == input.len() {
        Ok(v)
    } else {
        Err(p.err("trailing characters after the document"))
    }
}

/// Nesting cap: every document the workspace reads is shallow, and the
/// reader recurses once per level.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self
                .nested(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':', "expected `:`")?;
                    p.skip_ws();
                    Ok((key, p.value()?))
                })
                .map(JsonValue::Obj),
            Some(b'[') => self.nested(b']', Self::value).map(JsonValue::Arr),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-') => Err(self.err("negative numbers are not supported")),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// An object or array: the opening byte, then `item`s separated by
    /// commas up to `close`.
    fn nested<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected `,` or a closing bracket")),
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go; all three are ASCII, so the run ends on a
            // char boundary.
            let rest = &self.src.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// The escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let at = self.pos;
                let mut code = self.hex4()?;
                // A high surrogate combines with an immediately following
                // low one; any surrogate left over is not a char.
                if (0xd800..0xdc00).contains(&code) && self.src[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                }
                return char::from_u32(code).ok_or(JsonError {
                    offset: at,
                    message: "lone surrogate in \\u escape",
                });
            }
            _ => return Err(self.err("unsupported escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("expected four hex digits in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("only integers are supported"));
        }
        self.src[start..self.pos]
            .parse()
            .map(JsonValue::Num)
            .map_err(|_| JsonError {
                offset: start,
                message: "integer out of range",
            })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    fn ok(text: &str) -> JsonValue {
        parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"))
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(ok("null"), JsonValue::Null);
        assert_eq!(ok("true"), JsonValue::Bool(true));
        assert_eq!(ok("false"), JsonValue::Bool(false));
        assert_eq!(ok("42"), JsonValue::Num(42));
        assert_eq!(
            ok("\"hi\\n\\\"x\\\"\""),
            JsonValue::Str("hi\n\"x\"".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = ok(r#"{"a":[1,2,{"b":null}],"c":"d"}"#);
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("d"));
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "1.5",
            "-3",
            "1e9",
            "nul",
            "\"\\q\"",
            "[1] extra",
            "{\"a\":}",
            "18446744073709551616",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn errors_name_the_offending_byte() {
        let at = |text: &str| parse(text).unwrap_err().offset;
        assert_eq!(at("[1, 2.5]"), 5);
        assert_eq!(at("{\"a\" 1}"), 5);
        assert_eq!(at("[1] x"), 4);
        assert_eq!(at("\"ab"), 3);
        assert_eq!(at("\"\\ud83d\""), 3);
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn unicode_strings_round_trip() {
        assert_eq!(ok("\"héllo → ∀\"").as_str(), Some("héllo → ∀"));
        assert_eq!(ok("\"\\u0041\"").as_str(), Some("A"));
        assert_eq!(ok("\"\\ud83d\\ude00\"").as_str(), Some("😀"));
        assert_eq!(ok("\"\\b\\f\\/\"").as_str(), Some("\u{8}\u{c}/"));
    }

    #[test]
    fn rejects_lone_surrogates_and_raw_control_bytes() {
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\ud83dx\"",
            "\"a\u{1}b\"",
            "\"a\nb\"",
            "\"\\u12\"",
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn whitespace_tolerated_everywhere() {
        let v = ok(" { \"a\" : [ 1 , 2 ] } ");
        assert_eq!(v.get("a").and_then(JsonValue::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn writer_and_reader_round_trip_every_string() {
        let mut s: String = (0u8..=0x7f).map(char::from).collect();
        s.push_str("é→😀");
        let doc = object(|w| {
            w.field("s", s.as_str());
        });
        assert!(doc.contains("\\u0000") && doc.contains("\\n") && doc.contains("\\\\"));
        assert_eq!(ok(&doc).get("s").and_then(JsonValue::as_str), Some(&*s));
    }

    #[test]
    fn writer_places_separators_and_nulls() {
        let doc = object(|w| {
            w.header("demo-v1", 0xab);
            w.key("rows").array(|w| {
                for i in 0..2u64 {
                    w.object(|w| {
                        w.field("i", i).field("o", (i == 1).then_some(i));
                    });
                }
            });
            w.key("empty").values(Vec::<u64>::new());
            w.key("inner").raw("{\"x\":1}");
        });
        assert_eq!(
            doc,
            "{\"schema\":\"demo-v1\",\"fingerprint\":\"00000000000000ab\",\
             \"rows\":[{\"i\":0,\"o\":null},{\"i\":1,\"o\":1}],\"empty\":[],\
             \"inner\":{\"x\":1}}"
        );
        let v = ok(&doc);
        assert!(check_header(&v, "demo-v1", 0xab).is_some());
        assert!(check_header(&v, "demo-v2", 0xab).is_none());
        assert!(check_header(&v, "demo-v1", 0xac).is_none());
        let floats = object(|w| {
            w.field("a", Fixed(2.0, 1)).field("b", Fixed(1.0 / 3.0, 4));
        });
        assert_eq!(floats, "{\"a\":2.0,\"b\":0.3333}");
    }

    #[test]
    fn index_helpers_bound_check() {
        let v = ok("[0,3,null]");
        let items = v.as_arr().unwrap();
        assert_eq!(items[1].as_index(4), Some(3));
        assert_eq!(items[1].as_index(3), None);
        assert_eq!(items[2].nullable(|x| x.as_index(4)), Some(None));
        assert_eq!(items[0].nullable(|x| x.as_index(4)), Some(Some(0)));
        assert_eq!(ok("[0,1]").as_indices(2), Some(vec![0, 1]));
        assert_eq!(ok("[0,2]").as_indices(2), None);
    }
}
