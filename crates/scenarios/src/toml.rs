//! A small, self-contained TOML-subset parser and serializer.
//!
//! The build environment has no crate registry (see DESIGN.md §4), so
//! scenario files are parsed by this vendored-deps-only implementation
//! instead of the real `toml` crate. It covers exactly the subset the
//! [`ScenarioSpec`](crate::ScenarioSpec) codec emits, and every parse
//! error names its 1-based line:
//!
//! - comments (`#` to end of line) and blank lines
//! - `key = value` pairs (bare keys: `[A-Za-z0-9_-]+`, or quoted)
//! - one level of `[section]` tables
//! - values: basic `"strings"` (with `\" \\ \n \t \r \u{XXXX}`
//!   escapes), integers, floats, booleans, arrays (multi-line allowed),
//!   and inline tables `{ k = v, ... }`
//!
//! Not supported (rejected with an error, never misparsed): dotted
//! keys, array-of-tables `[[x]]`, nested `[a.b]` sections, literal
//! `'...'` strings, multi-line strings, and datetimes. Swapping in the
//! real `toml` crate when a registry is reachable is a codec-local
//! change.

use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// A (sub-)table: inline `{...}` or a `[section]`.
    Table(Table),
}

impl Value {
    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }

    /// The value as an `f64` if it is numeric (int or float).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// An order-preserving table (insertion order is serialization order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    entries: Vec<(String, Value)>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Insert a key (error if it already exists — TOML forbids dupes).
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Result<(), String> {
        let key = key.into();
        if self.get(&key).is_some() {
            return Err(format!("duplicate key `{key}`"));
        }
        self.entries.push((key, value));
        Ok(())
    }

    /// Insert, panicking on duplicates — for building known-good tables.
    pub fn set(&mut self, key: impl Into<String>, value: Value) {
        self.insert(key, value).expect("duplicate key");
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// Deepest array/inline-table nesting [`parse`] accepts. The
/// workspace's own documents nest about 3 deep; the cap keeps a hostile
/// value (say, 100,000 `[`) an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    /// Arrays and inline tables currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            depth: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> TomlError {
        TomlError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skip spaces/tabs and comments on the current line (not newlines).
    fn skip_inline_ws(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'#' => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Skip all whitespace including newlines and comments (inside
    /// arrays and between top-level statements).
    fn skip_all_ws(&mut self) {
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'\n') {
                self.bump();
            } else {
                break;
            }
        }
    }

    /// After a value or header, require end-of-line (or EOF).
    fn expect_eol(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(self.err(format!(
                "unexpected `{}` after value (one statement per line)",
                c as char
            ))),
        }
    }

    fn parse_document(&mut self) -> Result<Table, TomlError> {
        let mut root = Table::new();
        let mut current: Option<(String, Table, usize)> = None; // (name, table, decl line)
        loop {
            self.skip_all_ws();
            match self.peek() {
                None => break,
                Some(b'[') => {
                    // Close out the previous section.
                    if let Some((name, table, line)) = current.take() {
                        root.insert(name, Value::Table(table))
                            .map_err(|m| TomlError { line, message: m })?;
                    }
                    self.bump();
                    if self.peek() == Some(b'[') {
                        return Err(self.err("array-of-tables `[[...]]` is not supported"));
                    }
                    let name = self.parse_key()?;
                    if self.peek() == Some(b'.') {
                        return Err(self.err("nested `[a.b]` sections are not supported"));
                    }
                    if self.bump() != Some(b']') {
                        return Err(self.err("expected `]` to close section header"));
                    }
                    let line = self.line;
                    self.expect_eol()?;
                    current = Some((name, Table::new(), line));
                }
                Some(_) => {
                    let line = self.line;
                    let key = self.parse_key()?;
                    self.skip_inline_ws();
                    if self.bump() != Some(b'=') {
                        return Err(TomlError {
                            line,
                            message: format!("expected `=` after key `{key}`"),
                        });
                    }
                    self.skip_inline_ws();
                    let value = self.parse_value()?;
                    self.expect_eol()?;
                    let target = match &mut current {
                        Some((_, t, _)) => t,
                        None => &mut root,
                    };
                    target
                        .insert(key, value)
                        .map_err(|m| TomlError { line, message: m })?;
                }
            }
        }
        if let Some((name, table, line)) = current.take() {
            root.insert(name, Value::Table(table))
                .map_err(|m| TomlError { line, message: m })?;
        }
        Ok(root)
    }

    fn parse_key(&mut self) -> Result<String, TomlError> {
        self.skip_inline_ws();
        match self.peek() {
            Some(b'"') => self.parse_basic_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Ok(std::str::from_utf8(&self.src[start..self.pos])
                    .expect("ascii key")
                    .to_string())
            }
            Some(c) => Err(self.err(format!("expected a key, found `{}`", c as char))),
            None => Err(self.err("expected a key, found end of input")),
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_basic_string()?)),
            Some(b'\'') => Err(self.err("literal `'...'` strings are not supported; use \"...\"")),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_inline_table),
            Some(b't') | Some(b'f') => self.parse_bool(),
            // `inf` / `nan` (TOML float keywords; Rust's Display also
            // prints `NaN`) — the serializer emits these for
            // non-finite floats, so the parser must take them back.
            Some(b'i') | Some(b'n') | Some(b'N') => self.parse_non_finite(1.0),
            Some(c) if c == b'-' || c == b'+' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("expected a value, found `{}`", c as char))),
            None => Err(self.err("expected a value, found end of input")),
        }
    }

    /// Parse one array or inline table, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, TomlError>,
    ) -> Result<Value, TomlError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!(
                "arrays and inline tables nest deeper than {MAX_DEPTH}"
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_basic_string(&mut self) -> Result<String, TomlError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        // Basic strings are single-line; anchor every error to the
        // opening quote's line (bump() advances the counter past a
        // stray newline before the error would be built).
        let start_line = self.line;
        let err_at = |message: &str| TomlError {
            line: start_line,
            message: message.into(),
        };
        self.bump();
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(err_at("unterminated string")),
                Some(b'\n') => return Err(err_at("newline inside a basic string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self
                                .bump()
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let d = (c as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?,
                        );
                    }
                    Some(c) => {
                        return Err(self.err(format!("unsupported escape `\\{}`", c as char)))
                    }
                    None => return Err(self.err("unterminated string")),
                },
                Some(c) => {
                    // Re-assemble UTF-8 multibyte sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        for _ in 1..width {
                            self.bump();
                        }
                        let s = std::str::from_utf8(&self.src[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?;
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn parse_bool(&mut self) -> Result<Value, TomlError> {
        for (word, v) in [("true", true), ("false", false)] {
            if self.src[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(Value::Bool(v));
            }
        }
        Err(self.err("expected `true` or `false`"))
    }

    /// `inf` / `nan` / `NaN`, possibly after a consumed sign.
    fn parse_non_finite(&mut self, sign: f64) -> Result<Value, TomlError> {
        for (word, v) in [("inf", f64::INFINITY), ("nan", f64::NAN), ("NaN", f64::NAN)] {
            if self.src[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(Value::Float(sign * v));
            }
        }
        Err(self.err("expected a value"))
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let start = self.pos;
        let mut sign = 1.0;
        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
            if self.peek() == Some(b'-') {
                sign = -1.0;
            }
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'i') | Some(b'n') | Some(b'N')) {
            return self.parse_non_finite(sign);
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'-') | Some(b'+')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text: String = std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii number")
            .chars()
            .filter(|&c| c != '_')
            .collect();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid float `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("invalid integer `{text}`")))
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.bump();
        let mut items = Vec::new();
        loop {
            self.skip_all_ws();
            match self.peek() {
                None => return Err(self.err("unterminated array")),
                Some(b']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                _ => {
                    items.push(self.parse_value()?);
                    self.skip_all_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b']') => {}
                        None => return Err(self.err("unterminated array")),
                        Some(c) => {
                            return Err(self.err(format!(
                                "expected `,` or `]` in array, found `{}`",
                                c as char
                            )))
                        }
                    }
                }
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, TomlError> {
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.bump();
        let mut table = Table::new();
        loop {
            self.skip_all_ws();
            match self.peek() {
                None => return Err(self.err("unterminated inline table")),
                Some(b'}') => {
                    self.bump();
                    return Ok(Value::Table(table));
                }
                _ => {
                    let line = self.line;
                    let key = self.parse_key()?;
                    self.skip_inline_ws();
                    if self.bump() != Some(b'=') {
                        return Err(TomlError {
                            line,
                            message: format!("expected `=` after key `{key}` in inline table"),
                        });
                    }
                    self.skip_inline_ws();
                    let value = self.parse_value()?;
                    table
                        .insert(key, value)
                        .map_err(|m| TomlError { line, message: m })?;
                    self.skip_all_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b'}') => {}
                        None => return Err(self.err("unterminated inline table")),
                        Some(c) => {
                            return Err(self.err(format!(
                                "expected `,` or `}}` in inline table, found `{}`",
                                c as char
                            )))
                        }
                    }
                }
            }
        }
    }
}

/// Parse a TOML-subset document into its root table.
pub fn parse(src: &str) -> Result<Table, TomlError> {
    Parser::new(src).parse_document()
}

fn key_needs_quoting(key: &str) -> bool {
    key.is_empty()
        || !key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(out: &mut String, f: f64) {
    // TOML floats need a decimal point or exponent to stay floats on
    // re-parse.
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        out.push_str(".0");
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => write_string(out, s),
        Value::Int(i) => out.push_str(&format!("{i}")),
        Value::Float(f) => write_float(out, *f),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Table(t) => {
            out.push('{');
            for (i, (k, v)) in t.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push(' ');
                write_key(out, k);
                out.push_str(" = ");
                write_value(out, v);
            }
            out.push_str(" }");
        }
    }
}

fn write_key(out: &mut String, key: &str) {
    if key_needs_quoting(key) {
        write_string(out, key);
    } else {
        out.push_str(key);
    }
}

/// Serialize a root table to the supported TOML subset.
///
/// Scalar/array/inline-table entries come first as `key = value` lines;
/// sub-tables follow as `[section]` blocks (TOML requires this order so
/// a section does not capture later top-level keys). Output re-parses
/// to an equal table.
pub fn serialize(root: &Table) -> String {
    let mut out = String::new();
    let mut sections: Vec<(&str, &Table)> = Vec::new();
    for (k, v) in root.iter() {
        match v {
            Value::Table(t) => sections.push((k, t)),
            _ => {
                write_key(&mut out, k);
                out.push_str(" = ");
                write_value(&mut out, v);
                out.push('\n');
            }
        }
    }
    for (name, table) in sections {
        out.push('\n');
        out.push('[');
        write_key(&mut out, name);
        out.push_str("]\n");
        for (k, v) in table.iter() {
            // Sections are one level deep; a table inside a section
            // serializes inline.
            write_key(&mut out, k);
            out.push_str(" = ");
            write_value(&mut out, v);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_sections() {
        let doc = r#"
# a scenario
name = "fig4"
dedicated = 6
rate = 0.5
quick = false
seeds = [42, 1042]
tags = ["a", "b"]

[axis]
kind = "rates"
points = [0.1, 0.3, 0.5]
"#;
        let t = parse(doc).unwrap();
        assert_eq!(t.get("name"), Some(&Value::Str("fig4".into())));
        assert_eq!(t.get("dedicated"), Some(&Value::Int(6)));
        assert_eq!(t.get("rate"), Some(&Value::Float(0.5)));
        assert_eq!(t.get("quick"), Some(&Value::Bool(false)));
        assert_eq!(
            t.get("seeds"),
            Some(&Value::Array(vec![Value::Int(42), Value::Int(1042)]))
        );
        let axis = match t.get("axis") {
            Some(Value::Table(a)) => a,
            other => panic!("axis: {other:?}"),
        };
        assert_eq!(axis.get("kind"), Some(&Value::Str("rates".into())));
        assert_eq!(
            axis.get("points"),
            Some(&Value::Array(vec![
                Value::Float(0.1),
                Value::Float(0.3),
                Value::Float(0.5)
            ]))
        );
    }

    #[test]
    fn parses_inline_tables_and_multiline_arrays() {
        let doc = "policies = [\n  { id = \"ha-v1\", dedicated = 3 }, # comment\n  \"moon\",\n]\n";
        let t = parse(doc).unwrap();
        let arr = match t.get("policies") {
            Some(Value::Array(a)) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(arr.len(), 2);
        match &arr[0] {
            Value::Table(t) => {
                assert_eq!(t.get("id"), Some(&Value::Str("ha-v1".into())));
                assert_eq!(t.get("dedicated"), Some(&Value::Int(3)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(arr[1], Value::Str("moon".into()));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut t = Table::new();
        t.set("s", Value::Str("a\"b\\c\nd\te\u{1F600}".into()));
        let text = serialize(&t);
        let back = parse(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("a = 1\nb = \n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.to_string().starts_with("line 2:"), "{e}");

        let e = parse("a = 1\nb = 2 junk\n").unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse("a = \"unterminated\nb = 1\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"), "{e}");

        let e = parse("x = [1, 2\ny = 3\n").unwrap_err();
        assert!(e.message.contains("array"), "{e}");

        let e = parse("[[points]]\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("not supported"), "{e}");
    }

    #[test]
    fn nesting_is_capped_with_a_line_number() {
        let nest = |n: usize| format!("a = 1\nx = {}{}\n", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("nest deeper than 64"), "{e}");
        let e = parse(&format!("x = {}", "[".repeat(100_000))).unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse(&format!("x = {}", "{ k = ".repeat(100_000))).unwrap_err();
        assert!(e.message.contains("nest deeper than 64"), "{e}");
    }

    #[test]
    fn rejects_unsupported_syntax() {
        assert!(parse("a = 'literal'\n").is_err());
        assert!(parse("[a.b]\n").is_err());
    }

    #[test]
    fn floats_keep_floatness_through_serialize() {
        let mut t = Table::new();
        t.set("whole", Value::Float(2.0));
        t.set("frac", Value::Float(0.1));
        t.set("int", Value::Int(2));
        let text = serialize(&t);
        let back = parse(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn negative_numbers_and_exponents() {
        let t = parse("a = -3\nb = -0.5\nc = 1e-3\n").unwrap();
        assert_eq!(t.get("a"), Some(&Value::Int(-3)));
        assert_eq!(t.get("b"), Some(&Value::Float(-0.5)));
        assert_eq!(t.get("c"), Some(&Value::Float(1e-3)));
    }

    #[test]
    fn non_finite_floats_parse_and_reserialize() {
        let t = parse("a = inf\nb = -inf\nc = nan\nd = NaN\n").unwrap();
        assert_eq!(t.get("a"), Some(&Value::Float(f64::INFINITY)));
        assert_eq!(t.get("b"), Some(&Value::Float(f64::NEG_INFINITY)));
        assert!(matches!(t.get("c"), Some(Value::Float(f)) if f.is_nan()));
        assert!(matches!(t.get("d"), Some(Value::Float(f)) if f.is_nan()));
        // What the serializer emits for non-finite floats must re-parse
        // (NaN can never compare equal, but it must not be a syntax
        // error).
        let mut doc = Table::new();
        doc.set("x", Value::Float(f64::INFINITY));
        doc.set("y", Value::Float(f64::NAN));
        let back = parse(&serialize(&doc)).unwrap();
        assert_eq!(back.get("x"), Some(&Value::Float(f64::INFINITY)));
        assert!(matches!(back.get("y"), Some(Value::Float(f)) if f.is_nan()));
    }

    #[test]
    fn section_then_top_level_key_is_section_scoped() {
        // Keys after a [section] belong to the section (TOML semantics).
        let t = parse("[axis]\nkind = \"rates\"\n").unwrap();
        let axis = match t.get("axis") {
            Some(Value::Table(a)) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(axis.get("kind"), Some(&Value::Str("rates".into())));
    }

    #[test]
    fn serializes_sections_after_scalars() {
        let mut axis = Table::new();
        axis.set("kind", Value::Str("rates".into()));
        let mut t = Table::new();
        t.set("axis", Value::Table(axis));
        t.set("name", Value::Str("x".into()));
        let text = serialize(&t);
        let name_pos = text.find("name =").unwrap();
        let axis_pos = text.find("[axis]").unwrap();
        assert!(name_pos < axis_pos, "{text}");
        assert_eq!(parse(&text).unwrap().get("name"), t.get("name"));
    }
}
