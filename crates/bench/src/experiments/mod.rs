//! The experiments `dispersal exp` runs, one module each, and the table
//! that names them.
//!
//! Each module's `run` is an experiment body for
//! [`crate::runner::run_experiments`]: it reads `--trials`/`--seed` through
//! its [`crate::runner::RunContext`], writes its CSVs through it, and returns a
//! [`crate::runner::CheckFailed`] when one of its claim checks does not hold.

use crate::runner::Experiment;
use dispersal_core::{Error, Result};

mod exp_extensions;
mod exp_large_k;
mod exp_mc_validation;
mod exp_obs1;
mod exp_pure;
mod exp_replicator;
mod exp_robustness;
mod exp_scenario;
mod exp_search;
mod exp_spoa_sharing;
mod exp_thm3_invasion;
mod exp_thm4_optimality;
mod exp_thm6_spoa;
mod fig1;
mod search_mech;
mod serve_loadgen;

/// Every experiment, in the order `--all` runs them. The last two run only
/// by name: `search_mech` is the mechanism search's own smoke run, and
/// `serve_loadgen` a load test of an embedded daemon.
pub static EXPERIMENTS: [Experiment; 16] = [
    Experiment { name: "fig1", in_all: true, run: fig1::run },
    Experiment { name: "exp_obs1", in_all: true, run: exp_obs1::run },
    Experiment { name: "exp_thm3_invasion", in_all: true, run: exp_thm3_invasion::run },
    Experiment { name: "exp_thm4_optimality", in_all: true, run: exp_thm4_optimality::run },
    Experiment { name: "exp_thm6_spoa", in_all: true, run: exp_thm6_spoa::run },
    Experiment { name: "exp_spoa_sharing", in_all: true, run: exp_spoa_sharing::run },
    Experiment { name: "exp_replicator", in_all: true, run: exp_replicator::run },
    Experiment { name: "exp_mc_validation", in_all: true, run: exp_mc_validation::run },
    Experiment { name: "exp_search", in_all: true, run: exp_search::run },
    Experiment { name: "exp_extensions", in_all: true, run: exp_extensions::run },
    Experiment { name: "exp_pure", in_all: true, run: exp_pure::run },
    Experiment { name: "exp_robustness", in_all: true, run: exp_robustness::run },
    Experiment { name: "exp_scenario", in_all: true, run: exp_scenario::run },
    Experiment { name: "exp_large_k", in_all: true, run: exp_large_k::run },
    Experiment { name: "search_mech", in_all: false, run: search_mech::run },
    Experiment { name: "serve_loadgen", in_all: false, run: serve_loadgen::run },
];

/// The experiments a `dispersal exp` selection names: `["--all"]`, or one
/// or more names from [`EXPERIMENTS`], run in the order given.
pub fn select(selection: &[String]) -> Result<Vec<&'static Experiment>> {
    if selection == ["--all"] {
        return Ok(EXPERIMENTS.iter().filter(|e| e.in_all).collect());
    }
    if selection.is_empty() {
        return Err(Error::InvalidArgument("name experiments or --all before the flags".into()));
    }
    let find = |name: &String| {
        EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
            Error::InvalidArgument(format!("unknown experiment '{name}' (see `dispersal help`)"))
        })
    };
    selection.iter().map(find).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{check, run_experiments, CheckFailed, Common, Outcome, RunContext};
    use serde::Value;
    use std::path::PathBuf;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A fresh directory under the system temp dir for one test's outputs.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dispersal-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn all_runs_the_fourteen_paper_experiments_in_order() {
        let all: Vec<&str> = select(&argv(&["--all"])).unwrap().iter().map(|e| e.name).collect();
        assert_eq!(
            all,
            [
                "fig1",
                "exp_obs1",
                "exp_thm3_invasion",
                "exp_thm4_optimality",
                "exp_thm6_spoa",
                "exp_spoa_sharing",
                "exp_replicator",
                "exp_mc_validation",
                "exp_search",
                "exp_extensions",
                "exp_pure",
                "exp_robustness",
                "exp_scenario",
                "exp_large_k",
            ]
        );
        for (i, a) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[i + 1..].iter().all(|b| b.name != a.name), "{} twice", a.name);
        }
        let named = select(&argv(&["search_mech", "fig1"])).unwrap();
        assert_eq!(named.iter().map(|e| e.name).collect::<Vec<_>>(), ["search_mech", "fig1"]);
        assert!(select(&[]).is_err());
        assert!(select(&argv(&["fig2"])).is_err());
        assert!(select(&argv(&["--all", "fig1"])).is_err());
    }

    #[test]
    fn a_failing_experiment_is_named_and_the_rest_still_run() {
        fn passes(_: &mut RunContext) -> Outcome {
            Ok(())
        }
        fn planted(_: &mut RunContext) -> Outcome {
            let violations = 1;
            check!(violations == 0, "planted claim violated {violations} time(s)");
            Ok(())
        }
        let table = [
            Experiment { name: "before", in_all: true, run: passes },
            Experiment { name: "planted", in_all: true, run: planted },
            Experiment { name: "after", in_all: true, run: passes },
        ];
        let dir = scratch_dir("planted");
        let common = Common::parse(&argv(&["--out-dir", dir.to_str().unwrap()])).unwrap();
        let failed = run_experiments(&table.iter().collect::<Vec<_>>(), &common).unwrap_err();
        assert_eq!(failed.ran, 3);
        assert_eq!(failed.failures.len(), 1);
        let (name, failure) = &failed.failures[0];
        assert_eq!(*name, "planted");
        let check = failure.downcast_ref::<CheckFailed>().expect("a failed check");
        assert_eq!(check.0, "planted claim violated 1 time(s)");
        let report = failed.to_string();
        assert!(report.contains("planted: check failed: planted claim violated"), "{report}");
        assert!(dir.join("before.manifest.json").exists());
        assert!(!dir.join("planted.manifest.json").exists());
        assert!(dir.join("after.manifest.json").exists(), "the entry after the failure must run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig1_runs_in_process_into_the_out_dir() {
        let dir = scratch_dir("fig1");
        let common = Common::parse(&argv(&["--out-dir", dir.to_str().unwrap()])).unwrap();
        run_experiments(&select(&argv(&["fig1"])).unwrap(), &common).unwrap();
        let outputs = ["fig1_left.csv", "fig1_right.csv", "fig1.txt"];
        for file in outputs {
            let text = std::fs::read_to_string(dir.join(file)).unwrap();
            assert!(!text.is_empty(), "{file} is empty");
        }
        let left = std::fs::read_to_string(dir.join("fig1_left.csv")).unwrap();
        assert!(left.starts_with("c,ess_coverage,optimum_coverage,welfare_optimum_coverage\n"));
        assert_eq!(left.lines().count(), 102, "a header and 101 values of c");
        let manifest = std::fs::read_to_string(dir.join("fig1.manifest.json")).unwrap();
        let manifest = serde_json::from_str(&manifest).unwrap();
        let field = |key: &str| {
            manifest.as_object().unwrap().iter().find(|(k, _)| k == key).unwrap().1.clone()
        };
        assert_eq!(field("experiment").as_str(), Some("fig1"));
        let listed: Vec<Value> = outputs.iter().map(|o| Value::Str(o.to_string())).collect();
        assert_eq!(field("outputs"), Value::Array(listed));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
