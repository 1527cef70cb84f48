//! A minimal recursive-descent JSON parser — just enough for batch
//! manifests and `eco-serve` protocol lines.
//!
//! The subset covers objects, arrays, strings (with the common escapes),
//! unsigned integers, and the `true` / `false` / `null` literals. Every
//! malformed or truncated input — including a string that ends in a lone
//! backslash — returns a typed error; the parser never panics on
//! untrusted bytes (regression-tested in this module's tests).

use std::fmt;

/// A parsed JSON value from the subset grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// The `null` literal.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer (the only number form manifests use).
    Int(u64),
    /// A string with escapes resolved.
    Str(String),
    /// An array of values.
    Arr(Vec<Value>),
    /// An object as an ordered key/value list (duplicate keys are kept;
    /// callers decide which wins).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// One-word name of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

impl fmt::Display for Value {
    /// Renders the value back as compact JSON (used to echo request ids).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "\"{}\"", eco_core::json_escape(s)),
            Value::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "\"{}\": {v}", eco_core::json_escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => parse_str(bytes, pos).map(Value::Str),
        Some(b't') => parse_lit(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null").map(|()| Value::Null),
        Some(c) if c.is_ascii_digit() => parse_int(bytes, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_int(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Value::Int)
        .ok_or_else(|| format!("bad integer at byte {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    // A string ending in a lone backslash lands here; it
                    // must be a parse error, never a panic.
                    None => return Err(format!("truncated escape at byte {pos}")),
                    Some(_) => return Err(format!("unsupported escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar, not one byte. The slice is
                // non-empty here, but stay panic-free on principle: any
                // decode surprise is a typed error.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}"))?;
                let Some(c) = rest.chars().next() else {
                    return Err(format!("truncated string at byte {pos}"));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key string at byte {pos}"));
        }
        let key = parse_str(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let v = parse(r#"{"a": [1, "x", true, false, null], "b": "y"}"#).unwrap();
        let Value::Obj(fields) = v else { panic!() };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "a");
        assert_eq!(
            fields[0].1,
            Value::Arr(vec![
                Value::Int(1),
                Value::Str("x".into()),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
            ])
        );
    }

    #[test]
    fn display_round_trips() {
        let text = r#"{"op": "run", "id": 7, "job": {"name": "a\"b", "t": [1, null]}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    /// Every truncated or malformed input must be a typed error, never a
    /// panic — this is the regression net for the lone-backslash crash.
    #[test]
    fn truncated_and_malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "\"abc\\",              // string ending in a lone backslash
            "\"abc\\\"",            // escape eats the closing quote
            "\"abc",                // unterminated string
            "\"\\x\"",              // unsupported escape
            "{\"k\\",               // truncated escape inside a key
            "{\"a\": \"\\",         // truncated escape inside a value
            "{",                    // truncated object
            "{\"a\"",               // missing colon
            "{\"a\": 1",            // missing closing brace
            "[1, 2",                // truncated array
            "[1,",                  // dangling comma then EOF
            "tru",                  // truncated literal
            "18446744073709551616", // u64 overflow
            "",                     // empty input
            "\\",                   // bare backslash
            "{\"a\": 1} x",         // trailing garbage
        ] {
            assert!(parse(bad).is_err(), "input {bad:?} must be a parse error");
        }
    }

    /// Byte-level fuzz over truncations of a valid line: every prefix must
    /// parse or error cleanly (no panic, no hang).
    #[test]
    fn every_prefix_of_a_valid_line_is_handled() {
        let line = r#"{"op": "run", "id": "p0-u1", "job": {"faulty": "a\\b.v", "golden": "g.v", "targets": ["t_0"], "budget": 12}}"#;
        for end in 0..=line.len() {
            if !line.is_char_boundary(end) {
                continue;
            }
            let _ = parse(&line[..end]); // Ok or Err — must not panic.
        }
    }

    #[test]
    fn multibyte_scalars_survive_strings() {
        let v = parse("\"α → β\"").unwrap();
        assert_eq!(v, Value::Str("α → β".into()));
    }
}
