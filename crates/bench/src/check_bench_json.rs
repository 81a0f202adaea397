//! `dispersal check-bench-json` — CI guard for the repo-root
//! `BENCH_*.json` performance trajectories.
//!
//! Those files are the evidence trail behind every kernel PR (scalar →
//! tabulated → batched), and their contract is append-only measurement
//! history. [`run`] validates each file with the vendored serde codec:
//!
//! * the file parses as a JSON object with non-empty `bench` and
//!   `description` strings and a non-empty `history` array;
//! * every history entry carries a `date` (ISO `YYYY-MM-DD`), a `pr`
//!   number ≥ 1, and a non-empty `results` array;
//! * every entry whose `pr` is at least `HOST_FIELDS_FROM_PR` (12) also
//!   names the host it was measured on: `host_cores` and `threads`
//!   (integers ≥ 1) and `lane` (the SIMD lane, a non-empty string);
//! * entry dates are monotone non-decreasing (history is appended, never
//!   rewritten or reordered);
//! * every value inside a result row is a finite number, a string, or a
//!   boolean — no nulls, NaNs, or nested containers.
//!
//! Usage: `dispersal check-bench-json [FILE...]` — with no arguments it
//! scans the workspace root (located by walking up from the current
//! directory) for `BENCH_*.json`. Exits non-zero listing every violation.

use serde::Value;
use std::path::{Path, PathBuf};

/// The workspace root per the shared detection rule, falling back to the
/// current directory when no ancestor matches.
fn workspace_root() -> PathBuf {
    crate::workspace_root().unwrap_or_else(|| PathBuf::from("."))
}

/// Parse an ISO `YYYY-MM-DD` date into a lexicographically ordered key.
fn parse_date(s: &str) -> Option<(u32, u32, u32)> {
    let bytes = s.as_bytes();
    if bytes.len() != 10 || bytes[4] != b'-' || bytes[7] != b'-' {
        return None;
    }
    let year: u32 = s[0..4].parse().ok()?;
    let month: u32 = s[5..7].parse().ok()?;
    let day: u32 = s[8..10].parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    Some((year, month, day))
}

/// The first `pr` value whose entries all carried `host_cores`, `lane`
/// and `threads`; entries from it on must. Older entries predate the
/// fields and stay valid.
const HOST_FIELDS_FROM_PR: u64 = 12;

fn field<'v>(entries: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Require a non-empty string field, recording a violation otherwise.
fn check_string(entries: &[(String, Value)], name: &str, errors: &mut Vec<String>) {
    match field(entries, name) {
        Some(Value::Str(s)) if !s.is_empty() => {}
        Some(_) => errors.push(format!("`{name}` must be a non-empty string")),
        None => errors.push(format!("missing `{name}` field")),
    }
}

/// One result-row value: finite number, string, or bool.
fn check_result_value(key: &str, v: &Value, entry: usize, errors: &mut Vec<String>) {
    match v {
        Value::Float(f) if !f.is_finite() => {
            errors.push(format!("history[{entry}]: result field `{key}` is not finite ({f})"))
        }
        Value::Float(_) | Value::Int(_) | Value::UInt(_) | Value::Str(_) | Value::Bool(_) => {}
        other => errors.push(format!(
            "history[{entry}]: result field `{key}` must be a scalar, got {other:?}"
        )),
    }
}

/// An integer ≥ 1, however the codec typed it.
fn positive_int(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) if *n >= 1 => Some(*n),
        Value::Int(n) if *n >= 1 => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// The host fields every entry with `pr` ≥ [`HOST_FIELDS_FROM_PR`] carries.
fn check_host_fields(obj: &[(String, Value)], entry: usize, errors: &mut Vec<String>) {
    for name in ["host_cores", "threads"] {
        if field(obj, name).and_then(positive_int).is_none() {
            errors.push(format!("history[{entry}]: `{name}` must be an integer >= 1"));
        }
    }
    if !matches!(field(obj, "lane"), Some(Value::Str(s)) if !s.is_empty()) {
        errors.push(format!("history[{entry}]: `lane` must be a non-empty string"));
    }
}

fn validate(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("does not parse as JSON: {e}")],
    };
    let Some(top) = value.as_object() else {
        return vec!["top level must be a JSON object".into()];
    };
    check_string(top, "bench", &mut errors);
    check_string(top, "description", &mut errors);
    let history = match field(top, "history") {
        Some(Value::Array(entries)) if !entries.is_empty() => entries.as_slice(),
        Some(Value::Array(_)) => {
            errors.push("`history` must be non-empty (record at least one measurement)".into());
            return errors;
        }
        Some(_) => {
            errors.push("`history` must be an array".into());
            return errors;
        }
        None => {
            errors.push("missing `history` field".into());
            return errors;
        }
    };
    let mut last_date: Option<(u32, u32, u32)> = None;
    for (i, entry) in history.iter().enumerate() {
        let Some(obj) = entry.as_object() else {
            errors.push(format!("history[{i}] must be an object"));
            continue;
        };
        match field(obj, "date").and_then(|v| v.as_str()) {
            Some(s) => match parse_date(s) {
                Some(date) => {
                    if let Some(prev) = last_date {
                        if date < prev {
                            errors.push(format!(
                                "history[{i}]: date {s} precedes the previous entry — \
                                 history must stay append-only (monotone dates)"
                            ));
                        }
                    }
                    last_date = Some(date);
                }
                None => errors.push(format!("history[{i}]: date `{s}` is not YYYY-MM-DD")),
            },
            None => errors.push(format!("history[{i}]: missing string `date`")),
        }
        match field(obj, "pr").map(positive_int) {
            Some(Some(pr)) if pr >= HOST_FIELDS_FROM_PR => check_host_fields(obj, i, &mut errors),
            Some(Some(_)) => {}
            Some(None) => errors.push(format!("history[{i}]: `pr` must be an integer >= 1")),
            None => errors.push(format!("history[{i}]: missing `pr` number")),
        }
        match field(obj, "results") {
            Some(Value::Array(rows)) if !rows.is_empty() => {
                for (j, row) in rows.iter().enumerate() {
                    match row.as_object() {
                        Some(fields) if !fields.is_empty() => {
                            for (key, v) in fields {
                                check_result_value(key, v, i, &mut errors);
                            }
                        }
                        _ => errors
                            .push(format!("history[{i}].results[{j}] must be a non-empty object")),
                    }
                }
            }
            Some(_) | None => {
                errors.push(format!("history[{i}]: `results` must be a non-empty array"))
            }
        }
    }
    errors
}

fn check_file(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(validate(&text))
}

/// Validate `args` as trajectory files, or every `BENCH_*.json` at the
/// workspace root when `args` is empty. Prints `OK` or `FAIL` per file,
/// with each violation; errors when any file fails or none is found.
pub fn run(args: &[String]) -> Result<(), String> {
    let files: Vec<PathBuf> = if args.is_empty() {
        let root = workspace_root();
        let mut found: Vec<PathBuf> = match std::fs::read_dir(&root) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect(),
            Err(e) => return Err(format!("cannot scan {}: {e}", root.display())),
        };
        found.sort();
        found
    } else {
        args.iter().map(PathBuf::from).collect()
    };
    if files.is_empty() {
        return Err("no BENCH_*.json files found".into());
    }
    let mut failed = 0;
    for path in &files {
        match check_file(path) {
            Ok(errors) if errors.is_empty() => println!("OK {}", path.display()),
            Ok(errors) => {
                failed += 1;
                eprintln!("FAIL {}", path.display());
                for e in errors {
                    eprintln!("  - {e}");
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("FAIL {e}");
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} of {} trajectory file(s) invalid", files.len()));
    }
    println!("{} trajectory file(s) valid", files.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_valid_trajectory() {
        let text = r#"{
          "bench": "x", "description": "d",
          "history": [
            {"date": "2026-07-30", "pr": 3, "results": [{"k": 4, "speedup": 2.5}]},
            {"date": "2026-07-31", "pr": 5, "results": [{"k": 4, "speedup": 3.0}]}
          ]
        }"#;
        assert!(validate(text).is_empty(), "{:?}", validate(text));
    }

    #[test]
    fn rejects_structural_violations() {
        assert!(!validate("not json").is_empty());
        assert!(!validate("[]").is_empty());
        // Empty history.
        let empty = r#"{"bench": "x", "description": "d", "history": []}"#;
        assert!(validate(empty).iter().any(|e| e.contains("non-empty")));
        // Non-monotone dates (history rewritten/reordered).
        let reordered = r#"{
          "bench": "x", "description": "d",
          "history": [
            {"date": "2026-07-31", "pr": 1, "results": [{"a": 1}]},
            {"date": "2026-07-30", "pr": 2, "results": [{"a": 1}]}
          ]
        }"#;
        assert!(validate(reordered).iter().any(|e| e.contains("append-only")));
        // Missing fields and empty results.
        let sparse = r#"{
          "bench": "x", "description": "d",
          "history": [{"date": "2026-13-01", "results": []}]
        }"#;
        let errors = validate(sparse);
        assert!(errors.iter().any(|e| e.contains("pr")));
        assert!(errors.iter().any(|e| e.contains("results")));
        assert!(errors.iter().any(|e| e.contains("YYYY-MM-DD")));
    }

    #[test]
    fn recent_entries_must_name_their_host() {
        let entry = |pr: u32, host: &str| {
            format!(
                r#"{{"bench": "x", "description": "d", "history": [
                  {{"date": "2026-10-17", "pr": {pr}, {host} "results": [{{"a": 1}}]}}
                ]}}"#
            )
        };
        let full = r#""host_cores": 2, "lane": "avx2", "threads": 2,"#;
        assert!(validate(&entry(12, full)).is_empty(), "{:?}", validate(&entry(12, full)));
        // Older entries predate the fields.
        assert!(validate(&entry(11, "")).is_empty());
        let no_lane = r#""host_cores": 2, "threads": 2,"#;
        let errors = validate(&entry(17, no_lane));
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("`lane`"), "{errors:?}");
        let bad = r#""host_cores": 0, "lane": "", "threads": "two","#;
        let errors = validate(&entry(12, bad));
        for name in ["host_cores", "lane", "threads"] {
            assert!(errors.iter().any(|e| e.contains(name)), "{name}: {errors:?}");
        }
    }

    #[test]
    fn the_repo_trajectories_are_valid() {
        // The real BENCH_*.json files at the workspace root must pass the
        // same gate CI runs.
        let root = workspace_root();
        let mut seen = 0;
        for entry in std::fs::read_dir(&root).unwrap().filter_map(|e| e.ok()) {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                seen += 1;
                let errors = check_file(&path).unwrap();
                assert!(errors.is_empty(), "{name}: {errors:?}");
            }
        }
        assert!(seen >= 4, "expected the recorded trajectories at the repo root, saw {seen}");
    }
}
