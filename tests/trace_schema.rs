//! The trace schema is declared once, in `dles_sim::trace`, and both of
//! its human-facing copies are rendered from that declaration: the
//! committed `trace_schema.json` lockfile and README's `### Trace schema`
//! table. Likewise README's `### Counter-key registry` table is rendered
//! from `dles_core::CounterKey`. These tests fail when any copy drifts,
//! and pin the offline conformance checker the golden tests use.
//!
//! After an intentional schema change, rewrite the lockfile with
//!
//! ```text
//! cargo test -p dles-tests --test trace_schema -- --ignored regen
//! ```
//!
//! and paste the table a README test prints into README.md.

use std::path::PathBuf;

use dles_core::CounterKey;
use dles_sim::trace::{FieldClass, KindSpec, SCHEMA};
use dles_tests::conformance::{check_jsonl, class_accepts, parse_jsonl_record, JsonValue};

fn workspace_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel)
}

/// The lockfile form: one line per field, so a schema change shows up as
/// a minimal diff in review.
fn render_lockfile(schema: &[KindSpec]) -> String {
    let mut out = String::from("{\n  \"schema_version\": 2,\n  \"kinds\": {\n");
    for (i, kind) in schema.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n      \"fields\": [\n", kind.kind));
        for (j, f) in kind.fields.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"class\": \"{}\", \"required\": {}}}{}\n",
                f.name,
                f.class.as_str(),
                f.required,
                if j + 1 < kind.fields.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "      ]\n    }}{}\n",
            if i + 1 < schema.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// README's table form, header rows included.
fn render_readme_table(schema: &[KindSpec]) -> String {
    let mut out = String::from("| Kind | Field | Class | Presence |\n|---|---|---|---|\n");
    for kind in schema {
        for f in kind.fields {
            out.push_str(&format!(
                "| `{}` | `{}` | {} | {} |\n",
                kind.kind,
                f.name,
                f.class.as_str(),
                if f.required { "required" } else { "optional" }
            ));
        }
    }
    out
}

/// README's counter-key registry form, header rows included.
fn render_counter_registry(keys: &[CounterKey]) -> String {
    let mut out = String::from("| Key | Meaning |\n|---|---|\n");
    for key in keys {
        out.push_str(&format!("| `{}` | {} |\n", key.name(), key.meaning()));
    }
    out
}

/// The first table under README's `heading` line.
fn readme_table(readme: &str, heading: &str) -> String {
    readme
        .lines()
        .skip_while(|l| l.trim() != heading)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn schema_is_sorted_by_kind_with_unique_fields() {
    for pair in SCHEMA.windows(2) {
        assert!(
            pair[0].kind < pair[1].kind,
            "{} / {}",
            pair[0].kind,
            pair[1].kind
        );
    }
    for kind in SCHEMA {
        for (i, f) in kind.fields.iter().enumerate() {
            assert!(
                kind.fields[..i].iter().all(|g| g.name != f.name),
                "{}.{} declared twice",
                kind.kind,
                f.name
            );
        }
    }
}

#[test]
fn lockfile_matches_the_declaration() {
    let committed = std::fs::read_to_string(workspace_file("trace_schema.json"))
        .expect("trace_schema.json is committed at the workspace root");
    assert_eq!(
        render_lockfile(SCHEMA),
        committed,
        "trace_schema.json is stale — rerun the ignored `regen_trace_schema_lockfile` test"
    );
}

#[test]
fn readme_table_matches_the_declaration() {
    let readme = std::fs::read_to_string(workspace_file("README.md")).expect("README.md");
    let rendered = render_readme_table(SCHEMA);
    assert_eq!(
        readme_table(&readme, "### Trace schema"),
        rendered,
        "README's trace-schema table is stale; replace it with:\n{rendered}"
    );
}

#[test]
fn readme_counter_registry_matches_the_declaration() {
    let readme = std::fs::read_to_string(workspace_file("README.md")).expect("README.md");
    let rendered = render_counter_registry(CounterKey::ALL);
    assert_eq!(
        readme_table(&readme, "### Counter-key registry"),
        rendered,
        "README's counter-key registry is stale; replace it with:\n{rendered}"
    );
}

#[test]
fn malformed_golden_fails_in_every_shape() {
    // One conforming line, then unknown kind / unknown field / class
    // mismatch / missing required field / unparseable JSON.
    let text = std::fs::read_to_string(workspace_file(
        "crates/lint/tests/fixtures/goldens/malformed.jsonl",
    ))
    .expect("malformed golden fixture");
    let problems = check_jsonl(SCHEMA, &text);
    let lines: Vec<usize> = problems.iter().map(|(line, _)| *line).collect();
    assert_eq!(lines, [2, 3, 4, 5, 6], "{problems:?}");
    let msg = |i: usize| problems[i].1.as_str();
    assert!(
        msg(0).contains("unknown trace kind `mystery`"),
        "{problems:?}"
    );
    assert!(
        msg(1).contains("field `ghost` is not in the schema"),
        "{problems:?}"
    );
    assert!(
        msg(2).contains("is str but the schema says int"),
        "{problems:?}"
    );
    assert!(
        msg(3).contains("missing required field `frame`"),
        "{problems:?}"
    );
    assert!(msg(4).contains("malformed JSONL record"), "{problems:?}");
}

#[test]
fn jsonl_parser_classes_and_errors() {
    let rec = parse_jsonl_record(
        r#"{"t_us": 100, "component": "host", "kind": "rotation", "r": 0.5, "b": true, "n": null, "e": 2e6}"#,
    )
    .unwrap();
    let class = |n: &str| {
        rec.iter()
            .find(|(k, _)| k == n)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    assert_eq!(class("t_us"), JsonValue::Int);
    assert_eq!(class("component"), JsonValue::Str("host".to_owned()));
    assert_eq!(class("r"), JsonValue::Float);
    assert_eq!(class("b"), JsonValue::Bool);
    assert_eq!(class("n"), JsonValue::Null);
    assert_eq!(class("e"), JsonValue::Float);
    assert!(parse_jsonl_record("{not json").is_err());
    assert!(parse_jsonl_record(r#"{"a": 1} extra"#).is_err());
    assert!(parse_jsonl_record(r#"{"a": {"nested": 1}}"#).is_err());
    assert!(parse_jsonl_record(r#"{"esc": "a\"bA"}"#).is_ok());
}

#[test]
fn class_compat_matches_the_jsonl_writer() {
    // Whole floats render as integers, non-finite floats as null.
    assert!(class_accepts(FieldClass::Float, &JsonValue::Int));
    assert!(class_accepts(FieldClass::Float, &JsonValue::Null));
    assert!(!class_accepts(FieldClass::Int, &JsonValue::Float));
    assert!(!class_accepts(FieldClass::Bool, &JsonValue::Int));
    assert!(!class_accepts(FieldClass::Str, &JsonValue::Int));
}

/// Rewrites `trace_schema.json` from the declaration. Ignored by default:
/// a lockfile change is an explicit, reviewed act.
#[test]
#[ignore = "rewrites trace_schema.json — run explicitly and review the diff"]
fn regen_trace_schema_lockfile() {
    std::fs::write(workspace_file("trace_schema.json"), render_lockfile(SCHEMA)).unwrap();
}
