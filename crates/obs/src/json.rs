//! The one JSON string codec behind the workspace's hand-written JSON:
//! the trace journal, the telemetry JSONL, the SLO report and the
//! serving layer's encoder all quote and unquote strings here.

use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string. `"`, `\`, `\n`, `\r`
/// and `\t` are escaped by name, the other control characters as
/// `\u00XX`; everything else is copied as is.
pub fn write_string(out: &mut String, s: &str) {
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

/// Parses the JSON string whose opening `"` is at byte `*i` of `src`,
/// advancing `*i` past its closing quote. Reads every escape
/// [`write_string`] writes, and `\uXXXX` for any scalar value.
pub fn parse_string(src: &str, i: &mut usize) -> Result<String, String> {
    let body = src
        .get(*i..)
        .and_then(|rest| rest.strip_prefix('"'))
        .ok_or_else(|| format!("expected string at byte {}", *i))?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((off, c)) = chars.next() {
        match c {
            '"' => {
                *i += off + 2;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((u_off, 'u')) => {
                    let hex = body
                        .get(u_off + 1..u_off + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(format!("bad escape: {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        write_string(&mut out, s);
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(quoted("plain"), "\"plain\"");
        assert_eq!(quoted("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(quoted("\t\r"), "\"\\t\\r\"");
    }

    #[test]
    fn parse_inverts_write_and_advances_past_the_quote() {
        let s = "k\"ey\\ \n\t\r\u{1}\u{1f} é";
        let line = format!("{}:1", quoted(s));
        let mut i = 0;
        assert_eq!(parse_string(&line, &mut i).as_deref(), Ok(s));
        assert_eq!(&line[i..], ":1");
        let mut j = 0;
        assert_eq!(parse_string("\"\\u00e9\"", &mut j).as_deref(), Ok("é"));
    }

    #[test]
    fn parse_refuses_malformed_strings() {
        for bad in ["x", "\"open", "\"\\q\"", "\"\\u12\"", "\"\\ud800\""] {
            assert!(parse_string(bad, &mut 0).is_err(), "{bad:?}");
        }
    }
}
