//! JSON output for the ledger. Parsing is `fix::obs::parse_json` (the
//! workspace's own parser); this module adds the writing half and the
//! few typed accessors the `compare` and `check` subcommands need.

pub use fix::obs::{parse_json, JsonValue};

/// Builds an object from `(key, value)` pairs, keeping their order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON number. Non-finite values have no JSON form; a measurement
/// that produced one is a bug in the benchmark, so it panics.
pub fn num(v: f64) -> JsonValue {
    assert!(v.is_finite(), "non-finite value has no JSON form");
    JsonValue::Number(v)
}

/// A JSON string.
pub fn text(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}

/// Serializes on one line. Numbers print with Rust's shortest
/// round-trip form, so every measured digit survives.
pub fn to_string(v: &JsonValue) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => out.push_str(&n.to_string()),
        JsonValue::String(s) => write_str(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Serializes objects down to the fourth level, and arrays of objects,
/// one entry per line: diffable, still JSON.
pub fn to_pretty(v: &JsonValue) -> String {
    fn lines<'a, T: 'a>(
        items: impl ExactSizeIterator<Item = &'a T>,
        brackets: [char; 2],
        depth: usize,
        out: &mut String,
        mut each: impl FnMut(&'a T, &mut String),
    ) {
        let n = items.len();
        out.push(brackets[0]);
        out.push('\n');
        for (i, item) in items.enumerate() {
            out.push_str(&"  ".repeat(depth + 1));
            each(item, out);
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str(&"  ".repeat(depth));
        out.push(brackets[1]);
    }
    fn go(v: &JsonValue, depth: usize, out: &mut String) {
        match v {
            JsonValue::Object(fields) if depth < 4 && !fields.is_empty() => {
                lines(fields.iter(), ['{', '}'], depth, out, |(k, item), out| {
                    write_str(k, out);
                    out.push_str(": ");
                    go(item, depth + 1, out);
                });
            }
            JsonValue::Array(items) if matches!(items.first(), Some(JsonValue::Object(_))) => {
                lines(items.iter(), ['[', ']'], depth, out, |item, out| {
                    write(item, out)
                });
            }
            other => write(other, out),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

/// `v[key]` as a number.
pub fn get_num(v: &JsonValue, key: &str) -> Option<f64> {
    match v.get(key)? {
        JsonValue::Number(n) => Some(*n),
        _ => None,
    }
}

/// `v[key]` as a string.
pub fn get_str<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        JsonValue::String(s) => Some(s),
        _ => None,
    }
}

/// `v[key]` as an array.
pub fn get_array<'a>(v: &'a JsonValue, key: &str) -> Option<&'a [JsonValue]> {
    match v.get(key)? {
        JsonValue::Array(items) => Some(items),
        _ => None,
    }
}

/// `v[key]` as an object's fields, in source order.
pub fn get_fields<'a>(v: &'a JsonValue, key: &str) -> Option<&'a [(String, JsonValue)]> {
    match v.get(key)? {
        JsonValue::Object(fields) => Some(fields),
        _ => None,
    }
}

/// `v[key]` as an array of numbers.
pub fn get_nums(v: &JsonValue, key: &str) -> Option<Vec<f64>> {
    get_array(v, key)?
        .iter()
        .map(|item| match item {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_workspace_parser() {
        let doc = obj([
            ("correct", JsonValue::Bool(true)),
            ("attempted", num(1000.0)),
            (
                "name",
                text("quote \" slash \\ newline \n tab \t bell \u{7}"),
            ),
            (
                "metrics",
                obj([(
                    "lat_p50_us",
                    obj([("value", num(1.203456789012345)), ("unit", text("us"))]),
                )]),
            ),
            (
                "values",
                JsonValue::Array(vec![num(0.1), num(-2.5e-9), num(3e20)]),
            ),
            ("nothing", JsonValue::Null),
        ]);
        for rendered in [to_string(&doc), to_pretty(&doc)] {
            assert_eq!(parse_json(&rendered).expect("parses"), doc, "{rendered}");
        }
    }

    #[test]
    fn numbers_keep_every_digit() {
        let v = 0.123_456_789_012_345_68_f64;
        let rendered = to_string(&num(v));
        assert_eq!(rendered.parse::<f64>().unwrap(), v);
        assert_eq!(to_string(&num(1000.0)), "1000");
    }

    #[test]
    fn compact_form_is_one_line() {
        let doc = obj([("a", obj([("b", num(1.0))]))]);
        assert_eq!(to_string(&doc), r#"{"a": {"b": 1}}"#);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_values_are_refused() {
        num(f64::NAN);
    }

    #[test]
    fn typed_accessors_reject_the_wrong_shape() {
        let doc = obj([
            ("n", num(2.0)),
            ("s", text("x")),
            ("a", JsonValue::Array(vec![num(1.0), text("no")])),
        ]);
        assert_eq!(get_num(&doc, "n"), Some(2.0));
        assert_eq!(get_num(&doc, "s"), None);
        assert_eq!(get_str(&doc, "s"), Some("x"));
        assert_eq!(get_nums(&doc, "a"), None);
        assert!(get_fields(&doc, "missing").is_none());
    }
}
