//! Shared helpers for the cross-crate integration tests.
#![forbid(unsafe_code)]

/// Assert `actual` is within `tol_percent` of `expected` (relative).
pub fn assert_close_percent(actual: f64, expected: f64, tol_percent: f64, what: &str) {
    let rel = 100.0 * (actual - expected).abs() / expected.abs();
    assert!(
        rel <= tol_percent,
        "{what}: {actual} vs expected {expected} ({rel:.1}% off, tolerance {tol_percent}%)"
    );
}

/// Conformance of JSONL trace records to the declared trace schema
/// (`dles_sim::trace::SCHEMA`): the offline check that committed goldens
/// still describe what the simulator emits.
pub mod conformance {
    use dles_sim::trace::{FieldClass, KindSpec};

    /// A parsed scalar from one JSONL record. Numeric payloads only carry
    /// their class — conformance never needs the magnitude.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        Int,
        Float,
        Str(String),
        Bool,
        Null,
    }

    impl JsonValue {
        fn class_name(&self) -> &'static str {
            match self {
                JsonValue::Int => "int",
                JsonValue::Float => "float",
                JsonValue::Str(_) => "str",
                JsonValue::Bool => "bool",
                JsonValue::Null => "null",
            }
        }
    }

    /// Whether the JSONL writer can render a field of `class` as `value`:
    /// whole floats render as integers (`59.0` → `59`), non-finite floats
    /// as `null`.
    pub fn class_accepts(class: FieldClass, value: &JsonValue) -> bool {
        match class {
            FieldClass::Int => matches!(value, JsonValue::Int),
            FieldClass::Float => {
                matches!(value, JsonValue::Int | JsonValue::Float | JsonValue::Null)
            }
            FieldClass::Str => matches!(value, JsonValue::Str(_)),
            FieldClass::Bool => matches!(value, JsonValue::Bool),
        }
    }

    /// Every way one record breaks `schema`: structural keys, unknown kind,
    /// unknown or mistyped fields, missing required fields.
    pub fn check_record(schema: &[KindSpec], fields: &[(String, JsonValue)]) -> Vec<String> {
        let mut problems = Vec::new();
        let get = |name: &str| fields.iter().find(|(n, _)| n == name).map(|(_, v)| v);
        match get("t_us") {
            Some(JsonValue::Int) => {}
            Some(v) => problems.push(format!(
                "structural field `t_us` is {} (want int)",
                v.class_name()
            )),
            None => problems.push("record is missing structural field `t_us`".to_owned()),
        }
        match get("component") {
            Some(JsonValue::Str(_)) => {}
            Some(v) => problems.push(format!(
                "structural field `component` is {} (want str)",
                v.class_name()
            )),
            None => problems.push("record is missing structural field `component`".to_owned()),
        }
        let kind = match get("kind") {
            Some(JsonValue::Str(k)) => k,
            Some(v) => {
                problems.push(format!(
                    "structural field `kind` is {} (want str)",
                    v.class_name()
                ));
                return problems;
            }
            None => {
                problems.push("record is missing structural field `kind`".to_owned());
                return problems;
            }
        };
        let Some(spec) = schema.iter().find(|k| k.kind == kind) else {
            problems.push(format!("unknown trace kind `{kind}`"));
            return problems;
        };
        for (name, value) in fields {
            if matches!(name.as_str(), "t_us" | "component" | "kind") {
                continue;
            }
            match spec.fields.iter().find(|f| f.name == name) {
                None => problems.push(format!(
                    "field `{name}` is not in the schema of kind `{kind}`"
                )),
                Some(f) if !class_accepts(f.class, value) => problems.push(format!(
                    "field `{name}` of kind `{kind}` is {} but the schema says {}",
                    value.class_name(),
                    f.class.as_str()
                )),
                Some(_) => {}
            }
        }
        for f in spec.fields.iter().filter(|f| f.required) {
            if get(f.name).is_none() {
                problems.push(format!(
                    "record of kind `{kind}` is missing required field `{}`",
                    f.name
                ));
            }
        }
        problems
    }

    /// Check every line of a JSONL trace; returns `(1-based line, problem)`.
    pub fn check_jsonl(schema: &[KindSpec], text: &str) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_jsonl_record(line) {
                Err(msg) => out.push((i + 1, format!("malformed JSONL record: {msg}"))),
                Ok(fields) => out.extend(
                    check_record(schema, &fields)
                        .into_iter()
                        .map(|p| (i + 1, p)),
                ),
            }
        }
        out
    }

    /// Minimal in-repo JSON reader for one flat JSONL record (the workspace
    /// is offline — no serde). Trace records are flat string→scalar objects
    /// by construction, so nested values are rejected as malformed.
    pub fn parse_jsonl_record(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
        let mut chars = line.chars().peekable();
        let mut fields = Vec::new();
        skip_ws(&mut chars);
        if chars.next() != Some('{') {
            return Err("expected `{`".to_owned());
        }
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
        } else {
            loop {
                skip_ws(&mut chars);
                let key = parse_string(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next() != Some(':') {
                    return Err(format!("expected `:` after key `{key}`"));
                }
                skip_ws(&mut chars);
                let value = parse_value(&mut chars)?;
                fields.push((key, value));
                skip_ws(&mut chars);
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => break,
                    _ => return Err("expected `,` or `}`".to_owned()),
                }
            }
        }
        skip_ws(&mut chars);
        if let Some(c) = chars.next() {
            return Err(format!("trailing content after record: `{c}`"));
        }
        Ok(fields)
    }

    type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

    fn skip_ws(chars: &mut Chars) {
        while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(chars: &mut Chars) -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err("expected string".to_owned());
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                Some('"') => return Ok(out),
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn parse_value(chars: &mut Chars) -> Result<JsonValue, String> {
        match chars.peek().copied() {
            Some('"') => Ok(JsonValue::Str(parse_string(chars)?)),
            Some('t') => expect_word(chars, "true").map(|_| JsonValue::Bool),
            Some('f') => expect_word(chars, "false").map(|_| JsonValue::Bool),
            Some('n') => expect_word(chars, "null").map(|_| JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let mut float = false;
                let mut any = false;
                while let Some(&c) = chars.peek() {
                    match c {
                        '0'..='9' | '-' | '+' => any = true,
                        '.' | 'e' | 'E' => float = true,
                        _ => break,
                    }
                    chars.next();
                }
                if !any {
                    return Err("malformed number".to_owned());
                }
                Ok(if float {
                    JsonValue::Float
                } else {
                    JsonValue::Int
                })
            }
            Some('{') | Some('[') => Err("nested values are not valid trace records".to_owned()),
            _ => Err("expected a JSON scalar".to_owned()),
        }
    }

    fn expect_word(chars: &mut Chars, word: &str) -> Result<(), String> {
        for want in word.chars() {
            if chars.next() != Some(want) {
                return Err(format!("expected `{word}`"));
            }
        }
        Ok(())
    }
}
