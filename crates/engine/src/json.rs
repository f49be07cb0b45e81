//! Minimal JSON document model: compact emit and a recursive-descent
//! parser.
//!
//! The workspace builds offline (no serde/serde_json), but a handful of
//! places exchange structured data — captured traces, report dumps, bench
//! result tables. This module covers exactly that: a [`Json`] value tree,
//! [`Json::parse`], and [`Json::render`]. Numbers are kept as their raw
//! token text so `u64` counters round-trip without `f64` precision loss.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, stored as its raw token text (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Escapes a string for embedding inside JSON quotes.
pub fn escape(s: &str) -> String {
    Escaped(s).to_string()
}

/// A string escaped for embedding inside JSON quotes, written straight
/// into whatever formats it, so escaping needs no `String` of its own.
pub(crate) struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        // Every byte that needs an escape is ASCII, so each one sits on a
        // char boundary and the runs between them are written unchanged.
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            f.write_str(&s[run..i])?;
            if esc.is_empty() {
                write!(f, "\\u{b:04x}")?;
            } else {
                f.write_str(esc)?;
            }
            run = i + 1;
        }
        f.write_str(&s[run..])
    }
}

impl Json {
    /// Builds a number value from any displayable numeric.
    pub fn num(v: impl fmt::Display) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Reads integer field `field` of an object exactly as written. A
    /// sign (on an unsigned type), a fraction, an exponent or a value out
    /// of `T`'s range is an error naming the field, never a rounded or
    /// clamped number; `what` names the expected type in that error.
    pub fn exact_int<T: std::str::FromStr>(&self, field: &str, what: &str) -> Result<T, String> {
        match self.get(field) {
            None => Err(format!("missing field '{field}'")),
            Some(Json::Num(tok)) => tok
                .parse()
                .map_err(|_| format!("field '{field}' is not {what}: {tok}")),
            Some(_) => Err(format!("field '{field}' is not a number")),
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must be a single value plus whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
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
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if tok.parse::<f64>().is_err() {
            self.pos = start;
            return Err(self.err(format!("bad number '{tok}'")));
        }
        Ok(Json::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go:
            // both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                // the run stopped at a backslash
                _ => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
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
                            // Surrogate pair support for completeness.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
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
                _ => return Err(self.err("expected ',' or ']'")),
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let src = r#"{"a":[1,2.5,-3e2],"b":{"s":"hi\n\"there\"","t":true,"n":null}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("b").unwrap().get("s").unwrap().as_str(),
            Some("hi\n\"there\"")
        );
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn big_u64_counters_do_not_lose_precision() {
        let n = u64::MAX - 1;
        let v = Json::parse(&Json::num(n).render()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn unicode_escapes() {
        // Raw multi-byte UTF-8 passes through.
        let v = Json::parse("\"caf\u{e9}\"").unwrap();
        assert_eq!(v.as_str(), Some("café"));
        // \u escapes, including a surrogate pair (U+1F600).
        let v = Json::parse("\"\\u0041\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{1f600}"));
    }

    #[test]
    fn one_mebibyte_string_round_trips() {
        // ASCII, 2-, 3- and 4-byte characters, escapes the renderer
        // writes and a surrogate pair it never writes. Decoding each
        // character by re-checking the rest of the input would take
        // minutes at this size.
        let unit_json = r#"ab\"c\\d\n\t\u0001\/\uD83D\uDE00x\u00e9é€😀"#;
        let unit = "ab\"c\\d\n\t\u{1}/\u{1f600}x\u{e9}é€😀";
        let k = (1 << 20) / unit.len() + 1;
        let text = format!("[\"{}\",1]", unit_json.repeat(k));
        let expected = Json::Arr(vec![Json::str(unit.repeat(k)), Json::num(1)]);
        assert!(unit.len() * k >= 1 << 20);
        assert_eq!(Json::parse(&text).unwrap(), expected);
        assert_eq!(Json::parse(&expected.render()).unwrap(), expected);
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_control_characters() {
        let raw = "a\"b\\c\nd\re\tf\u{1}g\u{1f}caf\u{e9}";
        let escaped = r#"a\"b\\c\nd\re\tf\u0001g\u001fcafé"#;
        assert_eq!(escape(raw), escaped);
        let doc = Json::Obj(vec![(raw.to_string(), Json::str(raw))]);
        assert_eq!(doc.render(), format!("{{\"{escaped}\":\"{escaped}\"}}"));
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 2);
    }
}
