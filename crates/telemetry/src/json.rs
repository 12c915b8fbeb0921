//! The workspace's one JSON reader, next to its one escaper
//! ([`crate::escape_json`]).
//!
//! The build environment cannot fetch `serde_json`, so every JSON document
//! the workspace reads back goes through this hand-rolled tokenizer. The
//! cache snapshot (`isdc_cache::DelayCache::merge_json`) and batch job-spec
//! (`isdc-batch`) readers walk the [`Parser`] cursor key by key; JSONL
//! traces ([`crate::parse_jsonl`]), run reports and `BENCH_*.json`
//! documents are read whole with [`parse`] into a [`Value`], and
//! [`flatten`] turns one into the `path -> number` map [`crate::attribute`]
//! diffs. It covers the subset those formats need — objects, arrays,
//! strings with every RFC 8259 escape, numbers, `true`/`false`/`null` —
//! accepts any whitespace, and lets cursor readers
//! skip unknown keys (whose values must still be well formed) so the
//! formats can grow. Every error names its byte offset.
//!
//! # Examples
//!
//! ```
//! use isdc_telemetry::json::{self, Parser, Value};
//!
//! let mut p = Parser::new(r#"{"name": "crc32", "points": 10}"#);
//! p.expect(b'{').unwrap();
//! assert_eq!(p.string().unwrap(), "name");
//! p.expect(b':').unwrap();
//! assert_eq!(p.string().unwrap(), "crc32");
//! assert!(p.comma_or_close(b'}').unwrap());
//!
//! let doc = json::parse(r#"{"runs": [{"name": "crc32", "ns": 7}]}"#).unwrap();
//! assert_eq!(doc.get("runs").and_then(Value::as_array).map(<[Value]>::len), Some(1));
//! assert_eq!(json::flatten(&doc).get("runs/crc32/ns"), Some(&7.0));
//! assert!(json::parse("{} {}").unwrap_err().contains("at byte 3"));
//! ```

use std::collections::BTreeMap;

/// Deepest array/object nesting [`Parser::value`] reads: deeper input is
/// an error, not a stack overflow. The workspace's documents nest a few
/// levels.
const MAX_DEPTH: usize = 128;

/// One JSON value, as [`Parser::value`] reads it.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its source text, so `18446744073709551615`
    /// re-reads as that `u64` and `10000.0` stays a float.
    Number(String),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member named `key` (the last one if the key repeats), when
    /// `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number, when `self` is one written as an integer in `u64`'s
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The items, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Reads `text` as one JSON value with nothing after it but whitespace.
///
/// # Errors
///
/// Reports the first malformed construct, or the trailing content, with
/// its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    p.finish()?;
    Ok(value)
}

/// Flattens a document into the `path -> number` map
/// [`crate::attribute`] diffs: objects and arrays become `/`-joined paths;
/// strings, booleans and nulls are dropped. An array item that is an
/// object with a string `"name"` uses the name, not its index, as its
/// path segment, so rows like a report's `stages` or a bench's `designs`
/// stay aligned when their order changes between documents.
pub fn flatten(value: &Value) -> BTreeMap<String, f64> {
    fn walk(value: &Value, path: &str, out: &mut BTreeMap<String, f64>) {
        let join = |segment: &str| {
            if path.is_empty() {
                segment.to_string()
            } else {
                format!("{path}/{segment}")
            }
        };
        match value {
            Value::Number(_) => {
                if let Some(x) = value.as_f64() {
                    out.insert(path.to_string(), x);
                }
            }
            Value::Object(fields) => {
                for (key, child) in fields {
                    walk(child, &join(key), out);
                }
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    let segment = match item.get("name").and_then(Value::as_str) {
                        Some(name) => name.to_string(),
                        None => i.to_string(),
                    };
                    walk(item, &join(&segment), out);
                }
            }
            Value::Null | Value::Bool(_) | Value::String(_) => {}
        }
    }
    let mut out = BTreeMap::new();
    walk(value, "", &mut out);
    out
}

/// A cursor over JSON text. All methods skip leading whitespace.
pub struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    /// A parser positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), at: 0 }
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    /// Consumes exactly the byte `b`.
    ///
    /// # Errors
    ///
    /// Reports the byte offset when anything else is found.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    /// True (and consumes) if the next non-space byte is `close` — for
    /// detecting empty arrays/objects right after the opening bracket.
    pub fn peek_close(&mut self, close: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&close) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    /// After a value: `,` continues (true), `close` ends (false).
    ///
    /// # Errors
    ///
    /// Reports the byte offset when neither is found.
    pub fn comma_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b',') => {
                self.at += 1;
                Ok(true)
            }
            Some(&b) if b == close => {
                self.at += 1;
                Ok(false)
            }
            _ => Err(format!("expected `,` or `{}` at byte {}", close as char, self.at)),
        }
    }

    /// Parses a quoted string, reading every RFC 8259 escape: `\"`, `\\`,
    /// `\/`, `\b`, `\f`, `\n`, `\r`, `\t` and `\uXXXX`, where a high
    /// surrogate followed by a low one (`\ud83d\ude00`) is one char.
    ///
    /// # Errors
    ///
    /// Unterminated strings, unknown escapes and lone surrogates are
    /// rejected.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at - 1;
        let mut out: Vec<u8> = Vec::new();
        while let Some(&b) = self.bytes.get(self.at) {
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.at).ok_or_else(|| {
                        format!("unterminated escape sequence at byte {}", self.at)
                    })?;
                    self.at += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let c = self.unicode_escape()?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => {
                            return Err(format!(
                                "unsupported escape `\\{}` at byte {}",
                                other as char, self.at
                            ));
                        }
                    }
                }
                other => out.push(other),
            }
        }
        Err(format!("unterminated string at byte {start}"))
    }

    /// Reads the rest of a `\u` escape whose `\u` is behind the cursor,
    /// joining a surrogate pair into one char.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.at - 2;
        let unit = self.hex4()?;
        let c = if (0xd800..0xdc00).contains(&unit) && self.bytes[self.at..].starts_with(b"\\u") {
            self.at += 2;
            let low = self.hex4()?;
            (0xdc00..0xe000)
                .contains(&low)
                .then(|| 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00))
                .and_then(char::from_u32)
        } else {
            char::from_u32(unit)
        };
        c.ok_or_else(|| format!("lone surrogate `\\u{unit:04x}` at byte {at}"))
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let unit = self
            .bytes
            .get(self.at..self.at + 4)
            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
            .and_then(|hex| u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok())
            .ok_or_else(|| format!("bad `\\u` escape at byte {}", self.at))?;
        self.at += 4;
        Ok(unit)
    }

    /// Scans a number, returning its source text and value.
    fn scan_number(&mut self) -> Result<(&'a str, f64), String> {
        self.skip_ws();
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let bytes = self.bytes;
        std::str::from_utf8(&bytes[start..self.at])
            .ok()
            .and_then(|text| Some((text, text.parse().ok()?)))
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// Parses a number.
    ///
    /// # Errors
    ///
    /// Anything `f64::from_str` rejects is reported with its byte offset.
    pub fn number(&mut self) -> Result<f64, String> {
        self.scan_number().map(|(_, x)| x)
    }

    /// Consumes the literal `word` (`true`, `false` or `null`).
    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(())
        } else {
            Err(format!("expected `{word}` at byte {}", self.at))
        }
    }

    /// Reads one whole value.
    ///
    /// # Errors
    ///
    /// Reports the first malformed construct with its byte offset.
    pub fn value(&mut self) -> Result<Value, String> {
        self.value_at_depth(0)
    }

    fn value_at_depth(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        let next = self.bytes.get(self.at).copied();
        if matches!(next, Some(b'{' | b'[')) && depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.at));
        }
        match next {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                if !self.peek_close(b'}') {
                    loop {
                        let key = self.string()?;
                        self.expect(b':')?;
                        fields.push((key, self.value_at_depth(depth + 1)?));
                        if !self.comma_or_close(b'}')? {
                            break;
                        }
                    }
                }
                Ok(Value::Object(fields))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.peek_close(b']') {
                    loop {
                        items.push(self.value_at_depth(depth + 1)?);
                        if !self.comma_or_close(b']')? {
                            break;
                        }
                    }
                }
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(_) => self.scan_number().map(|(text, _)| Value::Number(text.to_string())),
            None => Err(format!("unexpected end of input at byte {}", self.at)),
        }
    }

    /// Skips one value (used for unknown keys), which must be well formed.
    ///
    /// # Errors
    ///
    /// See [`Parser::value`].
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.value().map(drop)
    }

    /// Checks that nothing but whitespace follows: the end of a document.
    ///
    /// # Errors
    ///
    /// Reports the byte offset of the trailing content.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.at < self.bytes.len() {
            Err(format!("trailing content at byte {}", self.at))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booleans_parse() {
        let mut p = Parser::new(" true , false ,x");
        assert_eq!(p.value().unwrap(), Value::Bool(true));
        p.expect(b',').unwrap();
        assert_eq!(p.value().unwrap(), Value::Bool(false));
        p.expect(b',').unwrap();
        assert!(p.value().is_err());
    }

    #[test]
    fn skip_value_covers_booleans_and_null() {
        let mut p = Parser::new(r#"{"flag": true, "hole": null, "keep": 7}"#);
        p.expect(b'{').unwrap();
        for expected in ["flag", "hole"] {
            assert_eq!(p.string().unwrap(), expected);
            p.expect(b':').unwrap();
            p.skip_value().unwrap();
            assert!(p.comma_or_close(b'}').unwrap());
        }
        assert_eq!(p.string().unwrap(), "keep");
        p.expect(b':').unwrap();
        assert_eq!(p.number().unwrap(), 7.0);
    }

    #[test]
    fn skip_value_rejects_malformed_nesting() {
        for (text, at) in [("[1,}]", 3), (r#"{"a":[}}"#, 6)] {
            let err = Parser::new(text).skip_value().unwrap_err();
            assert_eq!(err, format!("bad number at byte {at}"), "{text}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        let err = Parser::new(&deep).skip_value().unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn strings_decode_every_rfc8259_escape() {
        let text = r#""\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00\uFFFF""#;
        assert_eq!(Parser::new(text).string().unwrap(), "\"\\/\u{8}\u{c}\n\r\tAé😀\u{ffff}");
        for s in ["a\u{8}b\u{c}", "😀 \u{1f}", "\u{10ffff}"] {
            let quoted = format!("\"{}\"", crate::escape_json(s));
            assert_eq!(parse(&quoted).unwrap(), Value::String(s.to_string()), "{quoted}");
        }
    }

    #[test]
    fn lone_surrogates_and_bad_escapes_name_their_offset() {
        for (text, err) in [
            (r#""ab\ud83d""#, "lone surrogate `\\ud83d` at byte 3"),
            (r#""\ude00""#, "lone surrogate `\\ude00` at byte 1"),
            (r#""\ud83d\u0041""#, "lone surrogate `\\ud83d` at byte 1"),
            (r#""\ud83d\n""#, "lone surrogate `\\ud83d` at byte 1"),
            (r#""\ud83d\ud83d""#, "lone surrogate `\\ud83d` at byte 1"),
            (r#""\ud83d\u12""#, "bad `\\u` escape at byte 9"),
            (r#""\u+041""#, "bad `\\u` escape at byte 3"),
            (r#""\x""#, "unsupported escape `\\x` at byte 3"),
        ] {
            assert_eq!(Parser::new(text).string().unwrap_err(), err, "{text}");
        }
    }

    #[test]
    fn objects_keep_document_order() {
        let doc = parse(r#"{"zeta": 1, "alpha": [], "mid": {"b": 2, "a": 3}}"#).unwrap();
        let Value::Object(fields) = &doc else { panic!("an object: {doc:?}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["zeta", "alpha", "mid"]);
        let Some(Value::Object(inner)) = doc.get("mid") else { panic!("a nested object") };
        assert_eq!(inner[0].0, "b");
    }

    #[test]
    fn numbers_keep_their_source_text() {
        let doc = parse(r#"[18446744073709551615, 10000.0, -3]"#).unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0], Value::Number("18446744073709551615".into()));
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1], Value::Number("10000.0".into()));
        assert_eq!(items[1].as_u64(), None, "a float is not an integer");
        assert_eq!(items[1].as_f64(), Some(10000.0));
        assert_eq!(items[2].as_u64(), None);
        assert_eq!(items[2].as_f64(), Some(-3.0));
    }

    #[test]
    fn parse_rejects_trailing_content() {
        assert_eq!(parse(" {}\n\t").unwrap(), Value::Object(Vec::new()));
        assert_eq!(parse(r#"{"a":1} trailing"#).unwrap_err(), "trailing content at byte 8");
        assert_eq!(parse("{}{}").unwrap_err(), "trailing content at byte 2");
        assert!(parse("").unwrap_err().contains("end of input at byte 0"));
    }

    /// A minimal solver document as `bench_gate` reads it.
    fn solver_doc() -> Value {
        parse(
            r#"{"mode": "quick", "ok": true, "note": null,
                "designs": [
                  {"name": "crc32", "speedup": 4.0, "warm_ns": 500},
                  {"name": "sha256", "speedup": 3.0, "warm_ns": 1000.0}
                ],
                "drain": [{"n": 64, "dijkstras": 9, "paths": 9}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn flatten_keys_arrays_by_row_name() {
        let flat = flatten(&solver_doc());
        assert_eq!(flat.get("designs/crc32/warm_ns"), Some(&500.0));
        assert_eq!(flat.get("designs/sha256/speedup"), Some(&3.0));
        assert_eq!(flat.get("drain/0/paths"), Some(&9.0), "unnamed rows fall back to indices");
    }

    #[test]
    fn flatten_drops_strings_booleans_and_nulls() {
        let flat = flatten(&solver_doc());
        for key in ["mode", "ok", "note", "designs/crc32/name", "designs/crc32"] {
            assert!(!flat.contains_key(key), "{key} in {flat:?}");
        }
        assert_eq!(flat.len(), 7, "{flat:?}");
    }
}
