//! Offline stand-in for `serde_json`: renders and parses the stand-in
//! serde's `Content` tree as JSON.  Covers the API the workspace uses —
//! `to_string`, `to_string_pretty`, `to_writer_pretty`, `from_str` —
//! with `f64` emitted via `{:?}` (shortest round-trip form).

use serde::{Content, Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;

/// JSON encode/decode error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.0)
    }
}

/// Convenience alias matching upstream.
pub type Result<T> = std::result::Result<T, Error>;

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest string that round-trips, and always
        // includes a `.0` for integral values so the type survives.
        let _ = write!(out, "{v:?}");
    } else {
        // Upstream errors here; a null keeps the output well-formed and
        // non-finite values never appear in this workspace's results.
        out.push_str("null");
    }
}

fn render(out: &mut String, c: &Content, indent: Option<usize>) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Content::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Content::F64(v) => write_f64(out, *v),
        Content::Str(s) => escape_into(out, s),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match indent {
                    Some(level) => {
                        out.push('\n');
                        out.push_str(&"  ".repeat(level + 1));
                        render(out, item, Some(level + 1));
                    }
                    None => render(out, item, None),
                }
            }
            if let Some(level) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match indent {
                    Some(level) => {
                        out.push('\n');
                        out.push_str(&"  ".repeat(level + 1));
                        escape_into(out, k);
                        out.push_str(": ");
                        render(out, v, Some(level + 1));
                    }
                    None => {
                        escape_into(out, k);
                        out.push(':');
                        render(out, v, None);
                    }
                }
            }
            if let Some(level) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push('}');
        }
    }
}

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&mut out, &value.as_content(), None);
    Ok(out)
}

/// Serialize `value` to pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&mut out, &value.as_content(), Some(0));
    Ok(out)
}

/// Serialize `value` as pretty JSON into `writer`.
pub fn to_writer_pretty<W: io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    let s = to_string_pretty(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error(e.to_string()))
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let c = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_owned_content(c).map_err(|e| Error(e.0))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{lit}` at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Content> {
        match self.peek() {
            Some(b'n') => self.expect_literal("null").map(|_| Content::Null),
            Some(b't') => self.expect_literal("true").map(|_| Content::Bool(true)),
            Some(b'f') => self.expect_literal("false").map(|_| Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Content> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            // Combine surrogate pairs when present.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                self.expect_literal("\\u")?;
                                let lo = self.parse_hex4()?;
                                let combined = 0x10000
                                    + ((cp - 0xD800) << 10)
                                    + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| {
                                Error(format!("invalid \\u escape at byte {}", self.pos))
                            })?);
                            continue; // parse_hex4 already advanced
                        }
                        other => {
                            return Err(Error(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| Error("invalid utf-8".into()))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error("truncated \\u escape".into()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error("invalid \\u escape".into()))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| Error(format!("invalid \\u escape `{hex}`")))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Content::I64)
                .or_else(|| text.parse::<f64>().ok().map(Content::F64))
                .ok_or_else(|| Error(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Content::U64)
                .or_else(|_| text.parse::<f64>().map(Content::F64))
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let v: Vec<i32> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let s = to_string(&vec![1i32, 2, 3]).unwrap();
        assert_eq!(s, "[1,2,3]");
        let f: f64 = from_str("0.1").unwrap();
        assert_eq!(f, 0.1);
        assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }

    #[test]
    fn negative_and_nested() {
        let v: Vec<(i64, f64)> = from_str("[[-5, 1.5], [7, -0.25]]").unwrap();
        assert_eq!(v, vec![(-5, 1.5), (7, -0.25)]);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = to_string(&"a\"b\\c\nd".to_string()).unwrap();
        let back: String = from_str(&s).unwrap();
        assert_eq!(back, "a\"b\\c\nd");
        let uni: String = from_str("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(uni, "Aé");
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let v = vec![vec![1u64, 2], vec![3]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        let back: Vec<Vec<u64>> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn to_writer_pretty_writes_bytes() {
        let mut buf = Vec::new();
        to_writer_pretty(&mut buf, &vec![1u64, 2]).unwrap();
        let back: Vec<u64> = from_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2]);
    }

    #[test]
    fn option_null_round_trip() {
        assert_eq!(to_string(&Option::<u64>::None).unwrap(), "null");
        let v: Option<u64> = from_str("null").unwrap();
        assert_eq!(v, None);
    }
}
