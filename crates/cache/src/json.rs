//! A minimal hand-rolled JSON reader for the workspace's on-disk formats.
//!
//! The build environment cannot fetch `serde_json`, so every JSON codec in
//! the workspace is hand-written against this reader: the cache snapshot
//! format ([`crate::DelayCache::merge_json`]) and the batch job-spec format
//! (`isdc-batch`). It covers the subset those formats need — objects,
//! arrays, strings with every escape [`isdc_telemetry::escape_json`]
//! writes, finite numbers — accepts any whitespace, and lets callers skip
//! unknown keys so the formats can grow.
//!
//! # Examples
//!
//! ```
//! use isdc_cache::json::Parser;
//!
//! let mut p = Parser::new(r#"{"name": "crc32", "points": 10}"#);
//! p.expect(b'{').unwrap();
//! assert_eq!(p.string().unwrap(), "name");
//! p.expect(b':').unwrap();
//! assert_eq!(p.string().unwrap(), "crc32");
//! assert!(p.comma_or_close(b'}').unwrap());
//! ```

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

    /// The next non-whitespace byte, without consuming it — lets callers
    /// dispatch on a value's type (`{`, `[`, `"`, `t`/`f`, digit).
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
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

    /// Parses a quoted string, reading every escape
    /// [`isdc_telemetry::escape_json`] writes: `\"`, `\\`, `\/`, `\n`,
    /// `\r`, `\t` and `\uXXXX`.
    ///
    /// # Errors
    ///
    /// Unterminated strings and unsupported escapes are rejected.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        while let Some(&b) = self.bytes.get(self.at) {
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.at).ok_or("unterminated escape sequence")?;
                    self.at += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let c = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad `\\u` escape at byte {}", self.at))?;
                            self.at += 4;
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
        Err("unterminated string".to_string())
    }

    /// Parses a finite number.
    ///
    /// # Errors
    ///
    /// Anything `f64::from_str` rejects is reported with its byte offset.
    pub fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// Parses a `true`/`false` literal.
    ///
    /// # Errors
    ///
    /// Anything else is reported with its byte offset.
    pub fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        for (literal, value) in [("true", true), ("false", false)] {
            if self.bytes[self.at..].starts_with(literal.as_bytes()) {
                self.at += literal.len();
                return Ok(value);
            }
        }
        Err(format!("expected `true` or `false` at byte {}", self.at))
    }

    /// Consumes a `null` literal.
    ///
    /// # Errors
    ///
    /// Anything else is reported with its byte offset.
    pub fn null(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.bytes[self.at..].starts_with(b"null") {
            self.at += 4;
            Ok(())
        } else {
            Err(format!("expected `null` at byte {}", self.at))
        }
    }

    /// Skips any value (used for unknown keys).
    ///
    /// # Errors
    ///
    /// Propagates malformed nested constructs.
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'"') => self.string().map(|_| ()),
            Some(b'{') => self.skip_nested(b'{', b'}'),
            Some(b'[') => self.skip_nested(b'[', b']'),
            Some(b't') | Some(b'f') => self.boolean().map(|_| ()),
            Some(b'n') => self.null(),
            Some(_) => self.number().map(|_| ()),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn skip_nested(&mut self, open: u8, close: u8) -> Result<(), String> {
        let mut depth = 0usize;
        while let Some(&b) = self.bytes.get(self.at) {
            if b == b'"' {
                // Brackets inside string values must not affect nesting.
                self.string()?;
                continue;
            }
            self.at += 1;
            if b == open {
                depth += 1;
            } else if b == close {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
        }
        Err("unterminated nesting".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booleans_parse() {
        let mut p = Parser::new(" true , false ,x");
        assert!(p.boolean().unwrap());
        p.expect(b',').unwrap();
        assert!(!p.boolean().unwrap());
        p.expect(b',').unwrap();
        assert!(p.boolean().is_err());
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
}
