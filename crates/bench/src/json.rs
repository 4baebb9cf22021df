//! Minimal in-tree JSON emission and validation.
//!
//! The `--json` run records (`BENCH_repro.json` from `all`, and those of
//! `frontier`, `fleetbench` and `cellbench`) are consumed by external
//! tooling, so they must be *valid JSON for every input* — point
//! names contain arbitrary panic messages (quotes, backslashes, control
//! characters) and wall-time arithmetic can produce NaN/infinity, which
//! JSON has no literal for. The emission helpers here centralize both
//! hardenings (string escaping per RFC 8259 §7, non-finite numbers →
//! `null`), and [`parse`] is a small validating parser so tests can assert
//! whole-file validity without any external dependency (README §"Hermetic
//! build").

use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal
/// (everything RFC 8259 §7 requires: `"` `\` and all control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders a number as a JSON value: finite values verbatim, NaN and
/// infinities as `null` (JSON has no literal for them).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One executed point's record for a run document.
#[derive(Debug, Clone)]
pub struct ReproPoint {
    /// Point name, as submitted to the sweep executor.
    pub name: String,
    /// Wall-clock milliseconds the point took.
    pub wall_ms: f64,
    /// Per-phase wall spans, `(label, milliseconds)`.
    pub spans: Vec<(String, f64)>,
    /// Whether the point succeeded.
    pub ok: bool,
}

/// Renders the machine-readable run record that
/// [`Run::finish`](crate::cli::Run::finish) writes for every binary taking
/// `--json`: flags, per-point wall times, and headline figures. Always
/// valid JSON, whatever the inputs contain.
pub fn repro_document(
    flags: &[(&str, String)],
    total_wall_ms: f64,
    points: &[ReproPoint],
    headline: &[(String, f64)],
) -> String {
    let flag_lines: Vec<String> = flags
        .iter()
        .map(|(k, v)| format!("  \"{}\": {}", escape(k), v))
        .collect();
    let point_lines: Vec<String> = points
        .iter()
        .map(|p| {
            let spans: Vec<String> = p
                .spans
                .iter()
                .map(|(label, ms)| format!("\"{}_ms\":{}", escape(label), number(*ms)))
                .collect();
            format!(
                "    {{\"name\":\"{}\",\"wall_ms\":{},\"spans\":{{{}}},\"ok\":{}}}",
                escape(&p.name),
                number(p.wall_ms),
                spans.join(","),
                p.ok
            )
        })
        .collect();
    let headline_lines: Vec<String> = headline
        .iter()
        .map(|(k, v)| format!("    \"{}\": {}", escape(k), number(*v)))
        .collect();
    format!(
        "{{\n{},\n  \"total_wall_ms\": {},\n  \"points\": [\n{}\n  ],\n  \
         \"headline\": {{\n{}\n  }}\n}}\n",
        flag_lines.join(",\n"),
        number(total_wall_ms),
        point_lines.join(",\n"),
        headline_lines.join(",\n"),
    )
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|b| *b as char),
            *pos
        )),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .map(Value::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs don't occur in our emitters;
                        // reject rather than mis-decode.
                        let c = char::from_u32(hex)
                            .ok_or_else(|| format!("non-scalar \\u escape at byte {}", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control character at byte {}", *pos));
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe).
                let s = &input_str(bytes)[*pos..];
                let c = s.chars().next().ok_or("utf8 boundary error")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn input_str(bytes: &[u8]) -> &str {
    // lint:allow(unwrap-panic): parse() entry takes &str, so bytes are valid UTF-8
    std::str::from_utf8(bytes).expect("input was a &str")
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nfeed\ttab\rcr"), "line\\nfeed\\ttab\\rcr");
        assert_eq!(escape("bell\u{7}"), "bell\\u0007");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn parse_round_trips_values() {
        let v = parse(r#"{"a": [1, -2.5, null, true], "b": "x\nyA"}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Array(vec![
                Value::Number(1.0),
                Value::Number(-2.5),
                Value::Null,
                Value::Bool(true),
            ]))
        );
        assert_eq!(v.get("b"), Some(&Value::String("x\nyA".to_string())));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"raw \u{1} control\"",
            "nulls",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn repro_document_is_valid_json_for_hostile_inputs() {
        // The whole-file hardening test: point names carrying panic
        // messages (quotes, newlines, control chars) and NaN wall times
        // must still yield a parseable document with nulls in place of
        // the non-finite numbers.
        let points = vec![
            ReproPoint {
                name: "fig6/Ssh/3vms".to_string(),
                wall_ms: 12.25,
                spans: vec![("wait".to_string(), 0.5), ("run".to_string(), 11.75)],
                ok: true,
            },
            ReproPoint {
                name: "panicked: \"index\\bounds\"\n\tat row 3\u{7}".to_string(),
                wall_ms: f64::NAN,
                spans: vec![("run".to_string(), f64::INFINITY)],
                ok: false,
            },
        ];
        let headline = vec![
            ("fig8_cold_web_degradation".to_string(), 0.69),
            ("broken \"metric\"".to_string(), f64::NAN),
        ];
        let doc = repro_document(
            &[("jobs", "4".to_string()), ("quick", "true".to_string())],
            f64::NAN,
            &points,
            &headline,
        );
        let parsed = parse(&doc).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
        assert_eq!(parsed.get("jobs"), Some(&Value::Number(4.0)));
        assert_eq!(parsed.get("total_wall_ms"), Some(&Value::Null));
        let Some(Value::Array(points)) = parsed.get("points") else {
            panic!("points missing");
        };
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].get("wall_ms"), Some(&Value::Null));
        let Some(Value::String(name)) = points[1].get("name") else {
            panic!("name missing");
        };
        assert!(name.contains('\n') && name.contains('\u{7}'), "{name:?}");
        assert_eq!(
            parsed
                .get("headline")
                .and_then(|h| h.get("broken \"metric\"")),
            Some(&Value::Null)
        );
    }

    #[test]
    fn empty_points_and_headline_render_valid_json() {
        let doc = repro_document(&[("jobs", "1".to_string())], 0.0, &[], &[]);
        // Degenerate but still parseable (empty arrays/objects collapse to
        // a blank line inside the brackets — the parser must cope).
        assert!(parse(&doc).is_ok(), "invalid: {doc}");
    }
}
