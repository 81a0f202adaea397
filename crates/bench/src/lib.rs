//! The experiments, tools and bench helpers behind the `dispersal` binary.
//!
//! Each experiment in [`experiments`] regenerates one figure, table or
//! claim of the paper (or one of its extensions), writing CSV (and ASCII
//! plots) under `results/` at the workspace root and echoing a summary to
//! stdout; `dispersal exp <name>…|--all` runs them in-process. The
//! [`runner`] module is the shared driver: common flag parsing
//! (`--trials/--seed/--jobs/--out-dir`), wall-clock reporting, per-run JSON
//! manifests, and failed claim checks as errors. [`check_bench_json`]
//! validates the repo-root `BENCH_*.json` trajectories
//! (`dispersal check-bench-json`), and [`guard`] backs the benches'
//! `--quick` CI mode (speedup floors over scalar baselines).

pub mod check_bench_json;
pub mod experiments;
pub mod guard;
pub mod runner;

use std::path::{Path, PathBuf};

/// Walk up from the current directory to the workspace root, detected by
/// the presence of `Cargo.toml` + `crates/`. `None` when no ancestor
/// matches. The single root-detection rule shared by [`results_dir`] and
/// the `BENCH_*.json` trajectory check.
pub(crate) fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The default results directory: [`workspace_root`]`/results`, else
/// `./results`.
pub(crate) fn results_dir() -> PathBuf {
    workspace_root().map_or_else(|| PathBuf::from("results"), |root| root.join("results"))
}

/// Write `contents` to `dir/name`, creating `dir` if needed. Returns the
/// full path written.
pub(crate) fn write_result(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_walks_up_to_workspace_root() {
        // Tests run with the crate directory as cwd; the workspace root is
        // two levels up and is recognized by `Cargo.toml` + `crates/`.
        let dir = results_dir();
        assert!(dir.ends_with("results"), "unexpected results dir {}", dir.display());
        let root = dir.parent().expect("results dir must have a parent");
        assert!(
            root.join("Cargo.toml").exists() && root.join("crates").exists(),
            "walk-up did not find the workspace root (got {})",
            root.display()
        );
        // The walk-up must find the *workspace* root, not the crate dir
        // (the crate manifest lives next to src/, not next to crates/).
        assert!(!root.join("src").join("bin").exists());
    }

    #[test]
    fn write_result_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dispersal-write-rt-{}", std::process::id()));
        let path = write_result(&dir, "probe.txt", "hello").unwrap();
        assert_eq!(path, dir.join("probe.txt"));
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
