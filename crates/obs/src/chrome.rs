//! Chrome trace-event JSON export (Perfetto-loadable) and a minimal
//! JSON parser used to validate exported files offline.
//!
//! The export is the *wall-clock* view: every captured event — including
//! the non-deterministic scheduler/durable diagnostics that the
//! deterministic summary excludes — with `ts`/`dur` in microseconds
//! since the recorder epoch, one Chrome `tid` per recording thread, and
//! the emitting layer as the category. Load the file in
//! `https://ui.perfetto.dev` (or `chrome://tracing`) for deep dives.

use crate::recorder::Trace;
use std::fmt::Write as _;

/// Formats `ns` as microseconds with nanosecond precision (Chrome's
/// `ts`/`dur` fields are doubles in µs).
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders a drained trace as a Chrome trace-event JSON document.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for thread in &trace.threads {
        for ev in &thread.events {
            if !first {
                out.push(',');
            }
            first = false;
            let (ph, dur) = if ev.dur_ns > 0 {
                ("X", Some(ev.dur_ns))
            } else {
                ("i", None)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
                ev.kind.name(),
                ev.kind.layer().name(),
                ph,
                fmt_us(ev.wall_ns)
            );
            if let Some(d) = dur {
                let _ = write!(out, "\"dur\":{},", fmt_us(d));
            } else {
                out.push_str("\"s\":\"t\",");
            }
            let _ = write!(
                out,
                "\"pid\":1,\"tid\":{},\"args\":{{\"id\":\"{:#018x}\",\"virt_us\":{},\"a\":{},\"b\":{}}}}}",
                thread.tid, ev.id, ev.virt_us, ev.a, ev.b
            );
        }
    }
    out.push_str("]}");
    out
}

/// A parsed JSON value (just enough of a DOM to validate exports).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > 64 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates would need pairing; exports never
                            // emit them, so reject instead of mis-decoding.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("unpaired surrogate"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar. Slicing the `&str` is O(1);
                    // re-validating the remaining bytes per character
                    // made parsing quadratic in the document size.
                    let ch = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Validates a Chrome trace-event export: the document must parse, hold
/// a `traceEvents` array, and every event must carry the mandatory
/// `name`/`ph`/`ts` fields. Returns the number of trace events.
pub fn validate_chrome_trace(s: &str) -> Result<usize, String> {
    let doc = parse_json(s)?;
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Array(evs)) => evs,
        _ => return Err("missing traceEvents array".to_string()),
    };
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "ph", "ts"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} missing {key}"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ThreadTrace, TraceEvent};
    use crate::EventKind;

    fn sample_trace() -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                tid: 3,
                events: vec![
                    TraceEvent {
                        virt_us: 5,
                        wall_ns: 1_234,
                        dur_ns: 0,
                        id: 0xdead,
                        kind: EventKind::ServeAdmit,
                        a: 0,
                        b: 1,
                    },
                    TraceEvent {
                        virt_us: 0,
                        wall_ns: 2_000,
                        dur_ns: 1_500,
                        id: 0,
                        kind: EventKind::DurFsync,
                        a: 0,
                        b: 0,
                    },
                ],
            }],
            dropped_deterministic: 0,
            dropped_diagnostic: 0,
        }
    }

    #[test]
    fn export_round_trips_through_the_validator() {
        let json = to_chrome_json(&sample_trace());
        assert_eq!(validate_chrome_trace(&json).unwrap(), 2);
        let doc = parse_json(&json).unwrap();
        let evs = match doc.get("traceEvents") {
            Some(JsonValue::Array(evs)) => evs,
            other => panic!("bad traceEvents: {other:?}"),
        };
        assert_eq!(
            evs[0].get("name"),
            Some(&JsonValue::String("serve.admit".into()))
        );
        assert_eq!(evs[0].get("ph"), Some(&JsonValue::String("i".into())));
        assert_eq!(evs[1].get("ph"), Some(&JsonValue::String("X".into())));
        assert_eq!(evs[1].get("dur"), Some(&JsonValue::Number(1.5)));
        assert_eq!(evs[1].get("ts"), Some(&JsonValue::Number(2.0)));
    }

    #[test]
    fn empty_trace_is_valid_but_empty() {
        let json = to_chrome_json(&Trace {
            threads: Vec::new(),
            dropped_deterministic: 0,
            dropped_diagnostic: 0,
        });
        assert_eq!(validate_chrome_trace(&json).unwrap(), 0);
    }

    #[test]
    fn parser_accepts_and_rejects() {
        assert!(parse_json("{\"a\":[1,2.5,-3e2,\"x\\n\",true,null]}").is_ok());
        assert!(parse_json("  [ ]  ").is_ok());
        assert!(parse_json("{\"unicode\":\"\\u00e9\"}").is_ok());
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1}x",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        assert!(validate_chrome_trace("[1,2]").is_err(), "no traceEvents");
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\"}]}").is_err(),
            "missing name/ts"
        );
    }
}
