//! A minimal JSON writer for the benchmark's report and result lines.
//!
//! Floats are rendered in Rust's shortest round-trip form, so no measured
//! digit is dropped, and non-finite floats become `null` instead of the
//! invalid bare tokens `NaN` / `inf`.

use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A count; counts above `i64::MAX` do not occur in a run.
    pub fn count(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_at_full_precision() {
        for v in [
            0.1 + 0.2,
            1.0 / 3.0,
            6.103_515_625e-5,
            1e-7,
            123_456_789.123_456_79,
            f64::MAX,
            f64::MIN_POSITIVE,
            -2.5,
            0.0,
        ] {
            let text = Json::Num(v).render();
            let back: f64 = text.parse().expect("renders a parseable number");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} rendered as {text}");
            assert!(
                !text.contains(['e', 'E', 'N', 'i']),
                "{text} is not plain JSON"
            );
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).render(), "null");
        }
    }

    #[test]
    fn objects_arrays_and_escapes() {
        let doc = Json::obj([
            ("a\"b", Json::str("line\nbreak\\ \u{1}")),
            (
                "n",
                Json::Arr(vec![Json::Int(-3), Json::Bool(true), Json::Null]),
            ),
            ("c", Json::count(u64::MAX)),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"a\"b": "line\nbreak\\ \u0001", "n": [-3, true, null], "c": 9223372036854775807}"#
        );
    }
}
