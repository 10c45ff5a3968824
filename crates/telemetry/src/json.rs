//! A tiny JSON value type with a writer and a minimal parser.
//!
//! The workspace deliberately avoids external dependencies for the
//! observability layer (the registry may be unreachable on air-gapped
//! clusters, and telemetry must never be the reason a build fails), so
//! this module hand-rolls the subset of JSON the trace/report formats
//! need: objects, arrays, strings, numbers, booleans, null. The parser
//! exists so round-trip invariants can be tested and JSONL traces can
//! be re-read programmatically; it accepts exactly the constructs the
//! writer emits plus arbitrary whitespace.

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64`; non-finite values serialise as
/// `null` (JSON has no NaN/Inf), which is what consumers of residual
/// curves expect for a diverged iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with insertion order preserved via explicit pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a number value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Look up a key in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialise to a compact single-line string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serialise with two-space indentation (for human-read reports).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Parse a JSON document. Accepts everything the writer emits.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::TrailingData(pos));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Integral values print without the trailing ".0" rust adds.
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// Parse failure: position is a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    UnexpectedEnd,
    UnexpectedChar(usize),
    TrailingData(usize),
    BadNumber(usize),
    BadEscape(usize),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::UnexpectedEnd => write!(f, "unexpected end of JSON input"),
            JsonError::UnexpectedChar(p) => write!(f, "unexpected character at byte {p}"),
            JsonError::TrailingData(p) => write!(f, "trailing data after JSON value at byte {p}"),
            JsonError::BadNumber(p) => write!(f, "malformed number at byte {p}"),
            JsonError::BadEscape(p) => write!(f, "malformed string escape at byte {p}"),
        }
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::UnexpectedEnd),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        Some(_) => Err(JsonError::UnexpectedChar(*pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::UnexpectedChar(*pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(JsonError::BadNumber(start))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::UnexpectedEnd),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError::BadEscape(*pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::BadEscape(*pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run up to the next quote or escape and
                // validate it as UTF-8 once. Validating per character would
                // rescan the remaining input each time — quadratic on
                // multi-megabyte documents like merged Chrome traces.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError::UnexpectedChar(start))?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            Some(_) => return Err(JsonError::UnexpectedChar(*pos)),
            None => return Err(JsonError::UnexpectedEnd),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::UnexpectedChar(*pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::UnexpectedChar(*pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            Some(_) => return Err(JsonError::UnexpectedChar(*pos)),
            None => return Err(JsonError::UnexpectedEnd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let v = Json::obj(vec![
            ("name", Json::str("fig2 \"quoted\"\n")),
            ("count", Json::num(42.0)),
            ("ratio", Json::num(0.125)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            ("items", Json::Arr(vec![Json::num(1.0), Json::str("two")])),
        ]);
        let s = v.to_string_compact();
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn round_trip_pretty() {
        let v = Json::obj(vec![
            ("outer", Json::obj(vec![("inner", Json::Arr(vec![]))])),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn non_finite_serialises_as_null() {
        let s = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]).to_string_compact();
        assert_eq!(s, "[null,null]");
    }

    #[test]
    fn integral_numbers_have_no_decimal_point() {
        assert_eq!(Json::num(8.0).to_string_compact(), "8");
        assert_eq!(Json::num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::num(0.5).to_string_compact(), "0.5");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{broken").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("42 towel").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn unicode_survives() {
        let v = Json::str("λ-path ε≤1e-9");
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn string_runs_parse_in_chunks() {
        // Escapes adjacent to multibyte characters exercise every chunk
        // boundary of the run-based string scanner.
        let v = Json::str("α\\β\"γ\nδ\tε\u{1F600}\\\\tail");
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        // A large document parses in linear time; this is a correctness
        // backstop (the perf property is covered by the traced-pipeline
        // integration test converting multi-MB Chrome traces).
        let big = Json::Arr(
            (0..2000)
                .map(|i| Json::obj(vec![("name", Json::str(format!("admm.iter λ{i}")))]))
                .collect(),
        );
        assert_eq!(Json::parse(&big.to_string_compact()).unwrap(), big);
    }
}
