//! Result rows and the final JSON line.
//!
//! Every metric is printed as one `row` line carrying its provenance
//! (core count, SIMD lane, pool threads, seed, source revision), so rows
//! from different hosts or lanes are never mixed. The last line of stdout
//! is the machine-readable result: `correct`, `attempted`, `failed` and
//! the run's metrics.

use std::fmt::Write as _;
use std::path::Path;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (calls timed, requests observed, …).
    pub samples: u64,
    /// Extra context printed on the row (e.g. which percentile a tail is).
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric { name: name.to_string(), value, unit, samples, note: String::new() }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A metric or unit name: a letter or digit first, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: at most 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Where a result row was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub lane: &'static str,
    pub pool_threads: usize,
    pub seed: u64,
    pub commit: String,
}

impl Provenance {
    pub fn detect(seed: u64) -> Provenance {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            lane: dispersal_core::simd::active_lane().name(),
            pool_threads: rayon::current_num_threads(),
            seed,
            commit: revision(Path::new(".")),
        }
    }
}

/// The source revision: `git rev-parse HEAD` when the checkout is a git
/// repository, otherwise a content hash of the sources the benchmark
/// builds (`src:` + FNV-1a over `Cargo.*`, `crates/`, `vendor/`).
fn revision(root: &Path) -> String {
    // Only a repository rooted here: git must not search parent
    // directories outside the checkout.
    if root.join(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src:{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let child = entry.path();
            if child.file_name().is_some_and(|n| n != "target") {
                collect_files(&child, out);
            }
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON (non-finite values are a bug upstream).
fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x:?}")
}

/// Print one provenance-tagged row per metric.
pub fn print_rows(workload: &str, trace: bool, metrics: &[Metric], prov: &Provenance) {
    for m in metrics {
        assert!(valid_name(&m.name) && valid_unit(m.unit), "bad metric {} [{}]", m.name, m.unit);
        println!(
            "row {{\"workload\":{},\"trace\":{},\"metric\":{},\"value\":{},\"unit\":{},\
             \"samples\":{},\"note\":{},\"nproc\":{},\"lane\":{},\"pool_threads\":{},\
             \"seed\":{},\"commit\":{}}}",
            json_string(workload),
            u8::from(trace),
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit),
            m.samples,
            json_string(&m.note),
            prov.nproc,
            json_string(prov.lane),
            prov.pool_threads,
            prov.seed,
            json_string(&prov.commit),
        );
    }
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for good in ["p50_ms", "kernel.tile_exact_us", "pool.speedup_2t", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", ".lead", "has space", "slash/name", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for unit in ["ms", "s", "1/s", "count", "ratio", "%", "x"] {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_reported_metric_name_is_valid() {
        for (name, unit) in crate::END_TO_END.iter().chain(crate::PER_LAYER.iter()) {
            assert!(valid_name(name), "invalid metric name {name}");
            assert!(valid_unit(unit), "invalid unit {unit} of {name}");
        }
        let mut names: Vec<&str> =
            crate::END_TO_END.iter().chain(crate::PER_LAYER.iter()).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "metric names must be unique");
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let spec: serde::Value = serde_json::from_str(&text).unwrap();
        let field = |v: &serde::Value, key: &str| -> serde::Value {
            v.as_object().unwrap().iter().find(|(k, _)| k == key).unwrap().1.clone()
        };
        let declared = |section: &str| -> Vec<(String, String)> {
            field(&spec, section)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |key| field(m, key).as_str().unwrap().to_string();
                    (text("name"), text("unit"))
                })
                .collect()
        };
        let reported = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), reported(&crate::END_TO_END));
        assert_eq!(declared("per_layer"), reported(&crate::PER_LAYER));
        let workloads: Vec<String> = field(&spec, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap().to_string())
            .collect();
        // Every declared workload runs; serve_burst also runs inside
        // every traced run.
        assert!(workloads.iter().all(|w| crate::WORKLOADS.contains(&w.as_str())), "{workloads:?}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("p50_ms", 1.25, "ms", 3)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        let parsed: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.as_object().unwrap().len(), 4);
    }
}
