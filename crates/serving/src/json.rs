//! A minimal JSON encoder.
//!
//! The workspace's dependency policy has no JSON crate, and the serving
//! layer only needs to *emit* JSON, so this module provides a small value
//! tree and a spec-compliant encoder (string escaping, finite-number
//! handling).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values encode as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Creates an object from key/value pairs.
    pub fn object<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Creates a string value.
    pub fn string(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Encodes the value to a JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_owned())
    }
}

/// Appends `n` as [`Json::Number`] renders it: whole numbers below 1e15
/// without a fraction, non-finite values as `null`. For encoders that
/// write a body in place and must match the tree's bytes.
pub(crate) fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as [`Json::String`] renders it, quoted and escaped: the
/// workspace's one JSON string codec.
pub(crate) use spotlake_obs::json::write_string;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Number(3.0).render(), "3");
        assert_eq!(Json::Number(3.5).render(), "3.5");
        assert_eq!(Json::Number(f64::NAN).render(), "null");
        assert_eq!(Json::string("hi").render(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            Json::string("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn compound() {
        let v = Json::object([
            ("b", Json::Array(vec![Json::from(1.0), Json::Null])),
            ("a", Json::from("x")),
        ]);
        // Keys are ordered deterministically.
        assert_eq!(v.render(), "{\"a\":\"x\",\"b\":[1,null]}");
    }

    #[test]
    fn conversions() {
        assert_eq!(Json::from(2u64).render(), "2");
        assert_eq!(Json::from(false).render(), "false");
        assert_eq!(Json::from("s").render(), "\"s\"");
    }
}
