//! Flat JSON lines: [`encode_line`] renders one, [`parse_line`] reads one
//! back.
//!
//! A line is a single JSON object with only scalar values (string /
//! integer / float / bool / null) — no nesting — so the dependency-free
//! scanner here parses it and line tools grep it. A counterexample
//! artifact's `metrics:` line and every row of `BENCH_explore.json` have
//! this shape.

use std::collections::BTreeMap;

/// A scalar JSON value for one field of a line.
#[derive(Clone, Debug, PartialEq)]
pub enum J {
    /// String (escaped on encode).
    S(String),
    /// Unsigned integer.
    U(u64),
    /// Float, rendered with up to 3 decimals (`null` if not finite).
    F(f64),
}

impl J {
    /// Borrowed-str convenience constructor.
    #[must_use]
    pub fn s(v: impl Into<String>) -> J {
        J::S(v.into())
    }

    fn encode_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            J::S(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            J::U(v) => {
                let _ = write!(out, "{v}");
            }
            J::F(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.3}");
                } else {
                    out.push_str("null");
                }
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render one flat JSON object line (no trailing newline). `head` fields
/// come first (in order), then `fields`.
#[must_use]
pub fn encode_line<'a>(
    head: impl IntoIterator<Item = (&'a str, &'a J)>,
    fields: impl IntoIterator<Item = (&'a str, &'a J)>,
) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    let mut first = true;
    for (k, v) in head.into_iter().chain(fields) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        escape_into(k, &mut out);
        out.push_str("\":");
        v.encode_into(&mut out);
    }
    out.push('}');
    out
}

/// Parse one flat JSON object line (scalar values only — the shape
/// [`encode_line`] writes) into key → raw-value pairs. String values are
/// unescaped; numbers/bools/null keep their literal text. Returns `None`
/// on malformed input.
#[must_use]
pub fn parse_line(line: &str) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let bytes = line.trim().as_bytes();
    let mut i = 0usize;
    let skip_ws = |bytes: &[u8], mut i: usize| {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    i = skip_ws(bytes, i);
    if i >= bytes.len() || bytes[i] != b'{' {
        return None;
    }
    i += 1;
    loop {
        i = skip_ws(bytes, i);
        if i < bytes.len() && bytes[i] == b'}' {
            return Some(out);
        }
        let (key, next) = parse_string(bytes, i)?;
        i = skip_ws(bytes, next);
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i = skip_ws(bytes, i + 1);
        let (value, next) = if i < bytes.len() && bytes[i] == b'"' {
            parse_string(bytes, i)?
        } else {
            let start = i;
            while i < bytes.len() && bytes[i] != b',' && bytes[i] != b'}' {
                i += 1;
            }
            (
                String::from_utf8_lossy(&bytes[start..i]).trim().to_string(),
                i,
            )
        };
        out.insert(key, value);
        i = skip_ws(bytes, next);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Some(out),
            _ => return None,
        }
    }
}

/// Parse a JSON string starting at `bytes[i] == b'"'`; returns the
/// unescaped contents and the index just past the closing quote.
fn parse_string(bytes: &[u8], i: usize) -> Option<(String, usize)> {
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    let mut s = String::new();
    let mut i = i + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some((s, i + 1)),
            b'\\' => {
                i += 1;
                match bytes.get(i)? {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(bytes.get(i + 1..i + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        s.push(char::from_u32(code)?);
                        i += 4;
                    }
                    _ => return None,
                }
                i += 1;
            }
            c => {
                // Multi-byte UTF-8 sequences pass through byte-wise.
                let start = i;
                let len = utf8_len(c);
                let chunk = bytes.get(start..start + len)?;
                s.push_str(std::str::from_utf8(chunk).ok()?);
                i += len;
            }
        }
    }
    None
}

const fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_escapes_and_orders() {
        let kind = J::s("info");
        let msg = J::s("a\"b\\c\nd");
        let n = J::U(3);
        let line = encode_line([("kind", &kind)], [("msg", &msg), ("n", &n)]);
        assert_eq!(line, r#"{"kind":"info","msg":"a\"b\\c\nd","n":3}"#);
    }

    #[test]
    fn floats_render_fixed_and_nonfinite_as_null() {
        let mut s = String::new();
        J::F(1.0 / 3.0).encode_into(&mut s);
        assert_eq!(s, "0.333");
        s.clear();
        J::F(f64::NAN).encode_into(&mut s);
        assert_eq!(s, "null");
    }

    #[test]
    fn parse_roundtrips_recorder_lines() {
        let line = r#"{"t_ms":12,"kind":"snapshot","engine":"undo","states":345,"rate":1.500,"ok":true,"none":null,"msg":"a\"b"}"#;
        let f = parse_line(line).expect("parses");
        assert_eq!(f["kind"], "snapshot");
        assert_eq!(f["engine"], "undo");
        assert_eq!(f["states"], "345");
        assert_eq!(f["rate"], "1.500");
        assert_eq!(f["ok"], "true");
        assert_eq!(f["none"], "null");
        assert_eq!(f["msg"], "a\"b");
        let (engine, n) = (J::s("a\"b"), J::U(7));
        let encoded = encode_line([("engine", &engine)], [("n", &n)]);
        let back = parse_line(&encoded).expect("an encoded line parses");
        assert_eq!((back["engine"].as_str(), back["n"].as_str()), ("a\"b", "7"));
        assert!(parse_line("not json").is_none());
        assert!(parse_line("{\"unterminated\":").is_none());
    }
}
