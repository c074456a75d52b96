//! A minimal JSON reader for validating exported artifacts.
//!
//! The workspace has no `serde_json`, so every consumer that answers
//! "is this file well-formed?" — `seqpar-trace --check` on Chrome
//! traces, the benchmark rig on its own reports — shares this small
//! recursive-descent parser over the full JSON grammar (objects,
//! arrays, strings with escapes, numbers, literals). On top of it,
//! [`check_chrome_trace`] enforces the subset of the `trace_event`
//! schema the trace exporter produces.
//!
//! It is a *validator*, not a general-purpose serde replacement:
//! numbers are kept as `f64`, and serialization stays with each
//! artifact's hand-rolled writer.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; trace timestamps fit exactly).
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` keeps key order deterministic for tests.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks up `key`, if this value is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// The parser walks bytes, but `pos` only ever stops on a char boundary
/// of `text`: every byte it steps over one at a time is ASCII.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our exporter's
                            // output; map them to U+FFFD rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: decode it off the `&str`
                    // in place, never re-validating the rest of the
                    // document (that made a long string quadratic).
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// What [`check_chrome_trace`] counted in a valid trace document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `"X"` complete slices (task executions).
    pub slices: usize,
    /// `"i"` instants (commits, squashes, speculation decisions).
    pub instants: usize,
    /// `"C"` counter samples (queue occupancy).
    pub counters: usize,
    /// `"M"` metadata records (process/thread names).
    pub metadata: usize,
}

/// Validates `text` as a Chrome `trace_event` JSON document of the shape
/// `seqpar_runtime::Timeline::to_chrome_json` exports.
///
/// Checks, per the trace-event format spec:
///
/// * the document is an object with a `traceEvents` array;
/// * every event is an object with string `ph` and `name`, and numeric
///   `pid`;
/// * phase-specific fields: `"X"` needs numeric `ts` and `dur` and a
///   numeric `tid`; `"i"` needs numeric `ts` and a scope `s` of `"t"`,
///   `"p"`, or `"g"`; `"C"` needs numeric `ts` and an `args` object
///   with at least one numeric series; `"M"` needs an `args` object.
///
/// # Errors
///
/// Returns a human-readable description of the first defect found
/// (parse error or schema violation).
pub fn check_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no string \"ph\""))?;
        if obj.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("event {i} has no string \"name\""));
        }
        if obj.get("pid").and_then(Value::as_f64).is_none() {
            return Err(format!("event {i} has no numeric \"pid\""));
        }
        let num = |key: &str| obj.get(key).and_then(Value::as_f64);
        match ph {
            "X" => {
                if num("ts").is_none() || num("dur").is_none() || num("tid").is_none() {
                    return Err(format!("slice event {i} lacks numeric ts/dur/tid"));
                }
                check.slices += 1;
            }
            "i" => {
                if num("ts").is_none() {
                    return Err(format!("instant event {i} lacks numeric ts"));
                }
                match obj.get("s").and_then(Value::as_str) {
                    Some("t" | "p" | "g") => {}
                    _ => return Err(format!("instant event {i} has no scope s in t/p/g")),
                }
                check.instants += 1;
            }
            "C" => {
                let series_ok = obj
                    .get("args")
                    .and_then(Value::as_object)
                    .is_some_and(|args| args.values().any(|v| v.as_f64().is_some()));
                if num("ts").is_none() || !series_ok {
                    return Err(format!("counter event {i} lacks ts or a numeric series"));
                }
                check.counters += 1;
            }
            "M" => {
                if obj.get("args").and_then(Value::as_object).is_none() {
                    return Err(format!("metadata event {i} lacks an args object"));
                }
                check.metadata += 1;
            }
            other => return Err(format!("event {i} has unsupported phase {other:?}")),
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": [true, false, "x\n\"y\""]}}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        let d = v.get("b").unwrap().get("d").unwrap().as_array().unwrap();
        assert_eq!(d[2].as_str(), Some("x\n\"y\""));
    }

    #[test]
    fn decodes_unicode_escapes() {
        let v = parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    /// A long string parses in time linear in its length. Decoding each
    /// character used to re-validate the whole rest of the document, so a
    /// 3.9 MB trace took minutes to self-check. 4.5 MiB of mixed one-,
    /// two- and three-byte characters and escapes parses in ~0.25 s in a
    /// debug build; the bound is 15 s, and the old parser would need
    /// hours.
    #[test]
    fn a_multi_mib_string_parses_in_linear_time() {
        let body = "ab\u{e9}\u{20ac}\\n".repeat(1 << 19);
        let text = format!("{{\"name\":\"{body}\",\"n\":1}}");
        let expected = body.replace("\\n", "\n");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(parse(&text)).ok());
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(15))
            .expect("parsing a 4.5 MiB string took over 15 s")
            .unwrap();
        assert_eq!(parsed.get("name").and_then(Value::as_str), Some(&*expected));
        assert_eq!(parsed.get("n").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn accepts_a_well_formed_chrome_trace() {
        let text = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"ph":"M","pid":1,"name":"process_name","args":{"name":"seqpar"}},
            {"ph":"X","pid":1,"tid":2,"ts":0,"dur":10,"name":"B t1#0","args":{"task":1}},
            {"ph":"i","pid":1,"tid":0,"ts":12,"s":"t","name":"commit t1"},
            {"ph":"C","pid":1,"tid":0,"ts":5,"name":"queue B","args":{"occupancy":3}}
        ]}"#;
        let check = check_chrome_trace(text).unwrap();
        assert_eq!(check.events, 4);
        assert_eq!(check.slices, 1);
        assert_eq!(check.instants, 1);
        assert_eq!(check.counters, 1);
        assert_eq!(check.metadata, 1);
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(check_chrome_trace("[]").is_err());
        assert!(check_chrome_trace(r#"{"traceEvents": 3}"#).is_err());
        // Slice without dur.
        let no_dur = r#"{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"name":"x"}]}"#;
        assert!(check_chrome_trace(no_dur)
            .unwrap_err()
            .contains("ts/dur/tid"));
        // Instant without scope.
        let no_scope = r#"{"traceEvents":[{"ph":"i","pid":1,"ts":0,"name":"x"}]}"#;
        assert!(check_chrome_trace(no_scope).unwrap_err().contains("scope"));
        // Unknown phase.
        let bad_ph = r#"{"traceEvents":[{"ph":"Z","pid":1,"name":"x"}]}"#;
        assert!(check_chrome_trace(bad_ph)
            .unwrap_err()
            .contains("unsupported phase"));
    }
}
