//! Hand-rolled JSON emit and read, sized for the event journal.
//!
//! The workspace has no crates-io access, so a small writer/reader pair
//! keeps `edm-obs` dependency-free. Reading is one scanner that walks the
//! input once: strings stay borrowed slices (decoded only when they hold
//! a `\`), numbers stay text until read (integers exactly, as `u64`), and
//! nesting deeper than `MAX_DEPTH` (128) is an error rather than a stack
//! overflow. Two builders sit on it and accept exactly the same
//! documents: [`parse`] builds a general [`JsonValue`] tree, and
//! [`Record`] reads one JSONL object's fields in place into a buffer the
//! caller reuses line after line — the journal readers' path.

use std::borrow::Cow;
use std::fmt;
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
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
    } else {
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
    }
    out.push('"');
}

/// Appends the decimal digits of `value`.
fn push_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

pub fn field_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    push_escaped(out, value);
}

pub fn field_u64(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    push_u64(out, value);
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
        push_u64(out, *v);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Read
// ---------------------------------------------------------------------------

/// The deepest array/object nesting either builder accepts.
const MAX_DEPTH: usize = 128;

/// One value as it stands in its source text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Raw<'a> {
    Null,
    Bool(bool),
    /// The number as written.
    Num(&'a str),
    /// The contents between the quotes, escapes not yet decoded.
    Str(&'a str),
    /// A whole array, brackets included.
    Arr(&'a str),
    /// A whole object, braces included.
    Obj(&'a str),
}

impl<'a> Raw<'a> {
    /// An integer written as plain digits, read exactly; `None` for any
    /// other number, and for digits past `u64::MAX`.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Raw::Num(t) if is_digits(t) => t.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(self) -> Option<f64> {
        match self {
            Raw::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    pub fn as_bool(self) -> Option<bool> {
        match self {
            Raw::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_str(self) -> Option<Cow<'a, str>> {
        match self {
            Raw::Str(t) => Some(unescape(t)),
            _ => None,
        }
    }

    /// The items of an array, in order; `None` for any other value.
    pub fn items(self) -> Option<Vec<Raw<'a>>> {
        let Raw::Arr(t) = self else {
            return None;
        };
        let mut items = Vec::new();
        Scanner::new(t).members(|_, v| items.push(v)).ok()?;
        Some(items)
    }
}

/// The source text: what [`Record::read`] read this value from.
impl fmt::Display for Raw<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Raw::Null => f.write_str("null"),
            Raw::Bool(b) => write!(f, "{b}"),
            Raw::Num(t) | Raw::Arr(t) | Raw::Obj(t) => f.write_str(t),
            Raw::Str(t) => write!(f, "\"{t}\""),
        }
    }
}

/// One JSONL object read in place: its fields in line order, keys
/// decoded (borrowed unless they hold a `\`), values as [`Raw`] slices of
/// the line. One `Record` is reused for every line of a journal.
#[derive(Debug, Default)]
pub struct Record<'a> {
    fields: Vec<(Cow<'a, str>, Raw<'a>)>,
}

impl<'a> Record<'a> {
    /// Reads `line` in place of the previous contents. Accepts and
    /// rejects exactly what [`parse`] does; a document that is not an
    /// object reads as no fields.
    pub fn read(&mut self, line: &'a str) -> Result<(), String> {
        self.fields.clear();
        let mut sc = Scanner::new(line);
        if sc.peek() == Some(b'{') {
            let fields = &mut self.fields;
            sc.members(|key, v| fields.push((unescape(key.unwrap_or_default()), v)))?;
        } else {
            sc.value()?;
        }
        sc.end()
    }

    /// The first field named `key`, as [`JsonValue::get`] finds it.
    pub fn get(&self, key: &str) -> Option<Raw<'a>> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    pub fn fields(&self) -> impl Iterator<Item = (&str, Raw<'a>)> {
        self.fields.iter().map(|(k, v)| (k.as_ref(), *v))
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut sc = Scanner::new(input);
    let raw = sc.value()?;
    sc.end()?;
    tree(raw)
}

/// The tree form of a scanned value. Each container is scanned again as
/// it is built, so a value at depth `d` is walked `d + 1` times — at most
/// `MAX_DEPTH + 1`, and the journal readers never build a tree.
fn tree(raw: Raw<'_>) -> Result<JsonValue, String> {
    Ok(match raw {
        Raw::Null => JsonValue::Null,
        Raw::Bool(b) => JsonValue::Bool(b),
        Raw::Num(t) => JsonValue::Num(t.parse().map_err(|_| format!("invalid number {t:?}"))?),
        Raw::Str(t) => JsonValue::Str(unescape(t).into_owned()),
        Raw::Arr(_) => {
            let items = raw.items().ok_or("unreadable array")?;
            JsonValue::Arr(items.into_iter().map(tree).collect::<Result<_, _>>()?)
        }
        Raw::Obj(t) => {
            let mut rec = Record::default();
            rec.read(t)?;
            let fields = rec.fields().map(|(k, v)| Ok((k.to_owned(), tree(v)?)));
            JsonValue::Obj(fields.collect::<Result<_, String>>()?)
        }
    })
}

fn is_digits(t: &str) -> bool {
    !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())
}

/// `raw` string contents (already validated by the scanner) with escapes
/// decoded; borrowed when there are none.
fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('u') => {
                let rest = chars.as_str();
                let code = rest.get(..4).and_then(|h| u32::from_str_radix(h, 16).ok());
                // Surrogate pairs are not emitted by our writer; map lone
                // surrogates to the replacement char.
                out.push(code.and_then(char::from_u32).unwrap_or('\u{fffd}'));
                chars = rest.get(4..).unwrap_or("").chars();
            }
            Some(c) => out.push(c), // `"`, `\` or `/`
            None => {}
        }
    }
    Cow::Owned(out)
}

/// The one pass over the input both builders share. Every position it
/// slices at is an ASCII delimiter or the end, so slices are always on
/// `char` boundaries.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Scanner<'a> {
        Scanner {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        let b = self.text.as_bytes();
        while matches!(b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    /// One whole value; a container is scanned to its end.
    fn value(&mut self) -> Result<Raw<'a>, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(open @ (b'{' | b'[')) => {
                let start = self.pos;
                self.members(|_, _| {})?;
                let text = &self.text[start..self.pos];
                Ok(if open == b'{' {
                    Raw::Obj(text)
                } else {
                    Raw::Arr(text)
                })
            }
            Some(b'"') => self.string().map(Raw::Str),
            Some(b't') => self.lit("true", Raw::Bool(true)),
            Some(b'f') => self.lit("false", Raw::Bool(false)),
            Some(b'n') => self.lit("null", Raw::Null),
            Some(_) => self.number(),
        }
    }

    /// Scans the object or array that opens at the cursor, handing each
    /// member to `each`: `(Some(key), value)` in an object, `(None, item)`
    /// in an array.
    fn members(&mut self, mut each: impl FnMut(Option<&'a str>, Raw<'a>)) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        let object = self.peek() == Some(b'{');
        let close = if object { b'}' } else { b']' };
        self.depth += 1;
        self.pos += 1;
        let mut first = true;
        loop {
            match self.peek() {
                Some(c) if c == close => break,
                _ if first => {}
                Some(b',') => self.pos += 1,
                _ => {
                    let close = char::from(close);
                    return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                }
            }
            first = false;
            let key = if object { Some(self.key()?) } else { None };
            each(key, self.value()?);
        }
        self.depth -= 1;
        self.pos += 1;
        Ok(())
    }

    /// An object key and its `:`.
    fn key(&mut self) -> Result<&'a str, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected object key at byte {}", self.pos));
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(format!("expected ':' at byte {}", self.pos));
        }
        self.pos += 1;
        Ok(key)
    }

    fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing data at byte {}", self.pos)),
        }
    }

    fn lit(&mut self, word: &str, raw: Raw<'a>) -> Result<Raw<'a>, String> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(format!("invalid literal at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(raw)
    }

    /// A number is the longest run of number bytes that `f64` parses —
    /// the call that later reads it — or that is all digits, which
    /// always does.
    fn number(&mut self) -> Result<Raw<'a>, String> {
        let b = self.text.as_bytes();
        let start = self.pos;
        let mut digits = true;
        while let Some(&c) = b.get(self.pos) {
            match c {
                b'0'..=b'9' => {}
                b'-' | b'+' | b'.' | b'e' | b'E' => digits = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let valid = digits && !text.is_empty() || text.parse::<f64>().is_ok();
        if !valid {
            return Err(format!("invalid number {text:?} at byte {start}"));
        }
        Ok(Raw::Num(text))
    }

    /// A string's contents between its quotes, escapes validated but not
    /// decoded; the scanner ends past the closing quote.
    fn string(&mut self) -> Result<&'a str, String> {
        let b = self.text.as_bytes();
        self.pos += 1;
        let start = self.pos;
        loop {
            match b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.text[start..self.pos - 1]);
                }
                Some(b'\\') => {
                    let hex4 = b
                        .get(self.pos + 2..self.pos + 6)
                        .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit));
                    self.pos += match b.get(self.pos + 1) {
                        Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f') => 2,
                        Some(b'u') if hex4 => 6,
                        _ => return Err(format!("bad escape at byte {}", self.pos + 1)),
                    };
                }
                Some(_) => self.pos += 1,
            }
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

        let mut rec = Record::default();
        rec.read(&out).unwrap();
        assert_eq!(rec.get("kind").unwrap().as_str().unwrap(), "trigger_eval");
        assert_eq!(rec.get("t_us").unwrap().as_u64(), Some(12345));
        assert_eq!(rec.get("rsd").unwrap().as_f64(), Some(0.3125));
        assert_eq!(rec.get("triggered").unwrap().as_bool(), Some(true));
        let srcs: Vec<u64> = rec
            .get("sources")
            .unwrap()
            .items()
            .unwrap()
            .into_iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(srcs, vec![3, 1, 4]);
        let verbatim: Vec<String> = rec.fields().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        assert_eq!(format!("{{{}}}", verbatim.join(",")), out);
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::from("{");
        field_str(&mut out, "name", "a\"b\\c\nd\te\u{1}");
        out.push('}');
        let v = parse(&out).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
        let mut rec = Record::default();
        rec.read(r#"{"n\u0061me":"\/\ud800x\u00e9"}"#).unwrap();
        assert_eq!(
            rec.get("name").unwrap().as_str().unwrap(),
            "/\u{fffd}x\u{e9}"
        );
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
        let mut rec = Record::default();
        for bad in [
            "{",
            "{\"a\":}",
            "[1,2,]",
            "{\"a\":1} extra",
            "nul",
            "{\"a\":1,}",
            "\"\\x\"",
            "\"\\u12g4\"",
            "1.2.3",
            "",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
            assert!(rec.read(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(200_000);
        let mut rec = Record::default();
        for text in &[deep.clone(), format!("{{\"a\":{deep}")] {
            let e = parse(text).unwrap_err();
            assert!(e.contains("nesting deeper than"), "{e}");
            assert_eq!(rec.read(text).unwrap_err(), e);
        }
    }

    #[test]
    fn parse_nested() {
        let text = r#"{"a":[{"b":1.5e3},null,[true,false]],"c":-7}"#;
        let v = parse(text).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("b").unwrap().as_f64(), Some(1500.0));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-7.0));
        assert_eq!(v.get("c").unwrap().as_u64(), None);

        let mut rec = Record::default();
        rec.read(text).unwrap();
        let items = rec.get("a").unwrap().items().unwrap();
        assert_eq!(
            items,
            [
                Raw::Obj(r#"{"b":1.5e3}"#),
                Raw::Null,
                Raw::Arr("[true,false]")
            ]
        );
        assert_eq!(tree(rec.get("a").unwrap()).unwrap(), *v.get("a").unwrap());
        // A document that is not an object reads as a record with no fields.
        rec.read("[1]").unwrap();
        assert_eq!(rec.fields().count(), 0);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(Raw::Arr("[ ]").items(), Some(vec![]));
    }
}
