//! Offline stand-in for `serde_json`.
//!
//! Serializes the `serde` shim's [`Value`] tree to JSON text (compact and
//! pretty) and parses JSON text back into it. Covers the workspace's needs:
//! `to_string`, `to_string_pretty`, and `from_str`.

#![deny(missing_docs)]

pub use serde::Value;

/// JSON serialization/parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Infallible for the shimmed `Serialize` impls; the `Result` mirrors the
/// real serde_json signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to pretty JSON with two-space indentation.
///
/// # Errors
///
/// Infallible for the shimmed `Serialize` impls.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any `Deserialize` type.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_value(&value).map_err(|e| Error::new(e.to_string()))
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{}`/`{:e}` print the shortest representation that
                // round-trips; mirror ryu (real serde_json) by switching to
                // scientific notation outside [1e-5, 1e16), and force a
                // `.0` on integral values so floats stay floats.
                let mag = f.abs();
                if mag != 0.0 && !(1e-5..1e16).contains(&mag) {
                    out.push_str(&format!("{f:e}"));
                } else {
                    let s = f.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(xs) => write_seq(out, indent, depth, '[', ']', xs.iter(), |out, x, d| {
            write_value(out, x, indent, d)
        }),
        Value::Object(fields) => write_seq(
            out,
            indent,
            depth,
            '{',
            '}',
            fields.iter(),
            |out, (k, x), d| {
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, x, indent, d);
            },
        ),
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: I,
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns an [`Error`] describing the first syntax problem found.
pub fn parse(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing input at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`parse`] accepts (real serde_json's
/// recursion limit): deeper input is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(Error::new(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}"
        )));
    }
    match b.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected ':' at byte {pos}")));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(Error::new(format!("expected ',' or '}}' at byte {pos}"))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::new(format!("expected ',' or ']' at byte {pos}"))),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    if b.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?,
                            16,
                        )
                        .map_err(|_| Error::new("invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(Error::new(format!("bad escape at byte {pos}"))),
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 character (multi-byte aware).
                let start = *pos;
                let mut end = start + 1;
                while end < b.len() && b[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..end])
                        .map_err(|_| Error::new("invalid utf-8 in string"))?,
                );
                *pos = end;
            }
        }
    }
    Err(Error::new("unterminated string"))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    if text.is_empty() {
        return Err(Error::new(format!("expected value at byte {start}")));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| Error::new(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Doc {
        name: String,
        version: u32,
        data: Vec<f32>,
    }

    #[test]
    fn round_trip_compact_and_pretty() {
        let d = Doc {
            name: "checkpoint \"x\"\n".into(),
            version: 1,
            data: vec![1.0, -0.5, 3.25e10],
        };
        for json in [to_string(&d).unwrap(), to_string_pretty(&d).unwrap()] {
            let back: Doc = from_str(&json).unwrap();
            assert_eq!(back, d);
        }
    }

    #[test]
    fn pretty_output_shape() {
        let d = Doc {
            name: "a".into(),
            version: 2,
            data: vec![1.5],
        };
        let json = to_string_pretty(&d).unwrap();
        assert!(json.starts_with("{\n  \"name\": \"a\""), "{json}");
        assert!(json.ends_with('}'));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.25f64).unwrap(), "0.25");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Doc>("{\"name\": }").is_err());
        assert!(from_str::<Doc>("{}").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] trailing").is_err());
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2.5, null, true, "s"], "b": {"c": -3}}"#).unwrap();
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Int(-3)));
        match v.get("a").unwrap() {
            Value::Array(xs) => assert_eq!(xs.len(), 5),
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let at = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&at(MAX_DEPTH)).is_ok());
        assert!(parse(&at(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"{\"k\":".repeat(1_000_000)).is_err());
    }
}
