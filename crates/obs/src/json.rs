//! Hand-rolled JSON emit and parse, sized for the event journal.
//!
//! The workspace has no crates-io access, and the journal schema is flat
//! (one object per line, primitive or integer-array values), so a small
//! writer/parser pair keeps `edm-obs` dependency-free. The parser accepts
//! general JSON — nested objects and arrays included — because
//! `edm-probe` and the check-script smoke step use it to validate that
//! every journal line parses.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Emit
// ---------------------------------------------------------------------------

/// Appends `"key":` to a partially built object, inserting a comma when the
/// object already has fields (i.e. does not end with `{`).
fn push_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    push_escaped(out, key);
    out.push(':');
}

fn push_escaped(out: &mut String, s: &str) {
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

pub fn field_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    push_escaped(out, value);
}

pub fn field_u64(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    let _ = write!(out, "{value}");
}

pub fn field_f64(out: &mut String, key: &str, value: f64) {
    push_key(out, key);
    if value.is_finite() {
        // Display for f64 is the shortest representation that round-trips,
        // which is both valid JSON and loss-free.
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

pub fn field_bool(out: &mut String, key: &str, value: bool) {
    push_key(out, key);
    out.push_str(if value { "true" } else { "false" });
}

/// Appends `"key":` followed by a pre-rendered JSON value.
pub fn field_raw(out: &mut String, key: &str, raw_json: &str) {
    push_key(out, key);
    out.push_str(raw_json);
}

pub fn field_arr_u64(out: &mut String, key: &str, values: &[u64]) {
    push_key(out, key);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Parse
// ---------------------------------------------------------------------------

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    #[expect(
        clippy::expect_used,
        reason = "slice bounds come from an ASCII-only scan of the same buffer"
    )]
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                #[expect(
                    clippy::expect_used,
                    reason = "guarded by the emptiness check in the enclosing loop condition"
                )]
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_parse_round_trip() {
        let mut out = String::from("{");
        field_str(&mut out, "kind", "trigger_eval");
        field_u64(&mut out, "t_us", 12345);
        field_f64(&mut out, "rsd", 0.3125);
        field_bool(&mut out, "triggered", true);
        field_arr_u64(&mut out, "sources", &[3, 1, 4]);
        out.push('}');

        let v = parse(&out).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("trigger_eval"));
        assert_eq!(v.get("t_us").unwrap().as_u64(), Some(12345));
        assert_eq!(v.get("rsd").unwrap().as_f64(), Some(0.3125));
        assert_eq!(v.get("triggered").unwrap().as_bool(), Some(true));
        let srcs: Vec<u64> = v
            .get("sources")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(srcs, vec![3, 1, 4]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::from("{");
        field_str(&mut out, "name", "a\"b\\c\nd\te\u{1}");
        out.push('}');
        let v = parse(&out).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::from("{");
        field_f64(&mut out, "x", f64::NAN);
        field_f64(&mut out, "y", f64::INFINITY);
        out.push('}');
        let v = parse(&out).unwrap();
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
        assert_eq!(v.get("y"), Some(&JsonValue::Null));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_nested() {
        let v = parse(r#"{"a":[{"b":1.5e3},null,[true,false]],"c":-7}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("b").unwrap().as_f64(), Some(1500.0));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-7.0));
        assert_eq!(v.get("c").unwrap().as_u64(), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
    }
}
