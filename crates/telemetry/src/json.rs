//! Dependency-free JSON: one writer, one minimal parser.
//!
//! The workspace is offline and carries no serde. Every exporter in the
//! tree — `RunStats`, `MtReport`, `Ledger`, `MetricsSnapshot`,
//! `TimeSeries`, `SloReport`, the event journal and the Chrome trace —
//! emits through [`Writer`], which owns the three things a hand-formatted
//! document gets wrong: separators, key and string escaping, and floats
//! (JSON has no NaN or Infinity; [`num`] prints both as `0`). [`parse`]
//! reads any of those documents back; tests and smoke bins round-trip
//! through it, and it faces untrusted bytes (`rb_top` parses what a
//! socket sent), so it bounds nesting depth instead of trusting the
//! stack.

use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal (quotes not included).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats a float as a JSON number with `decimals` fractional digits
/// (JSON has no NaN/Infinity; both collapse to 0).
pub fn num(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "0".to_string()
    }
}

/// Streaming JSON writer, started by [`object`]: values are appended in
/// document order and the writer places the separators. [`Writer::obj`]
/// and [`Writer::arr`] take the body as a closure, so brackets balance by
/// construction; inside an object every value follows a [`Writer::key`].
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// The next value at this nesting level needs a `, ` before it.
    comma: bool,
}

impl Writer {
    fn value(&mut self, text: std::fmt::Arguments<'_>) -> &mut Writer {
        if self.comma {
            self.out.push_str(", ");
        }
        self.comma = true;
        self.out.write_fmt(text).expect("writing to a String");
        self
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.value(format_args!("{open}"));
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// An object member's name; the member's value comes next.
    pub fn key(&mut self, name: &str) -> &mut Writer {
        self.value(format_args!("\"{}\": ", esc(name)));
        self.comma = false;
        self
    }

    /// `{ … }`: `body` writes the members, each a `key` and a value.
    pub fn obj(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nested('{', '}', body)
    }

    /// `[ … ]`: `body` writes the items.
    pub fn arr(&mut self, body: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nested('[', ']', body)
    }

    /// An integer (`usize` callers widen with `as u64`).
    pub fn int(&mut self, v: impl Into<i128>) -> &mut Writer {
        self.value(format_args!("{}", v.into()))
    }

    /// A float printed with `decimals` fractional digits (see [`num`]).
    pub fn float(&mut self, v: f64, decimals: usize) -> &mut Writer {
        self.value(format_args!("{}", num(v, decimals)))
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.value(format_args!("\"{}\"", esc(s)))
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Writer {
        self.value(format_args!("{b}"))
    }

    /// A value that is already JSON text: `null`, or a document another
    /// exporter produced with this writer.
    pub fn raw(&mut self, json: &str) -> &mut Writer {
        self.value(format_args!("{json}"))
    }
}

/// One object as a document: `body` writes its members.
pub fn object(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.obj(body);
    w.out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Arrays and objects may nest this deep; every document in the tree
/// needs five levels. The parser recurses once per level, so without a
/// bound a few megabytes of `[` from a socket would overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input, trailing
/// garbage, or nesting deeper than 128 levels.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting too deep at byte {}", *pos))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogates (and only surrogates) are unrepresentable;
                        // map them to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"s": "x\"y"}, "t": true, "n": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().get("s").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("t"), Some(&Value::Bool(true)));
        assert_eq!(v.get("n"), Some(&Value::Null));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"k\": \"{}\"}}", esc(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    /// Before the depth bound this input did not fail the test, it killed
    /// the test process: `parse_value` recursed once per `[` and the
    /// thread's stack overflowed (SIGABRT, "has overflowed its stack").
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(2_000_000)).unwrap_err();
        assert_eq!(err, "nesting too deep at byte 128");
        let err = parse(&"{\"k\": ".repeat(200)).unwrap_err();
        assert!(err.starts_with("nesting too deep at byte "), "{err}");
        // The bound is on depth, not on size: 128 levels parse, and so
        // does any number of siblings.
        let deep = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(parse(&deep).is_ok());
        assert!(parse(&format!("{}1{}", "[".repeat(129), "]".repeat(129))).is_err());
        let wide = format!("[{}[]]", "[], ".repeat(10_000));
        assert_eq!(parse(&wide).unwrap().as_array().unwrap().len(), 10_001);
    }

    #[test]
    fn writer_places_separators_and_escapes_keys() {
        let text = object(|w| {
            w.key("a\"b").int(-3);
            w.key("list").arr(|w| {
                w.int(1u64).float(f64::NAN, 2).str("x\ny").bool(true);
                w.obj(|_| {}).arr(|_| {});
            });
            w.key("f").float(2.0 / 3.0, 4).key("n").raw("null");
        });
        assert_eq!(
            text,
            r#"{"a\"b": -3, "list": [1, 0, "x\ny", true, {}, []], "f": 0.6667, "n": null}"#
        );
        let v = parse(&text).unwrap();
        assert_eq!(v.get("a\"b").and_then(Value::as_f64), Some(-3.0));
        assert_eq!(v.get("n"), Some(&Value::Null));
    }

    #[test]
    fn num_is_json_safe() {
        assert_eq!(num(f64::NAN, 3), "0");
        assert_eq!(num(f64::INFINITY, 6), "0");
        assert_eq!(num(1.5, 3), "1.500");
        assert_eq!(num(2.5e9, 0), "2500000000");
    }
}
