//! The in-process driver behind `dispersal exp`.
//!
//! Every experiment in [`crate::experiments::EXPERIMENTS`] is a body that
//! takes a [`RunContext`]. [`run_experiments`] runs a list of them in order
//! under one set of common flags: it times each run and emits a run manifest
//! next to its CSVs, so every results file can be traced back to the exact
//! `(trials, seed, jobs)` that produced it. The manifest is one line of
//! JSON: a `serde::Value` rendered by the vendored codec, like every other
//! JSON the workspace writes. A failing experiment does not stop the ones
//! after it; the run then returns [`Failed`], naming each failure.
//!
//! Common flags (all optional; each experiment keeps its own defaults):
//!
//! * `--trials N`  — override the experiment's Monte-Carlo trial budget
//!   (deterministic experiments ignore it);
//! * `--seed N`    — override the master seed of the stochastic parts;
//! * `--jobs N`    — worker-thread count of the pool;
//! * `--out-dir D` — results directory (default: `results/` at the
//!   workspace root).

use dispersal_core::kernel::cache::CacheStats;
use dispersal_core::{Error, Result};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parse `args` against `spec`, a table of `(accepted flag, canonical
/// key)` pairs; every flag takes exactly one value. Shared by the
/// experiment runner and the `dispersal` CLI so every subcommand rejects
/// unknown flags the same way.
///
/// Returns a `BTreeMap` (not a `HashMap`) on purpose: everything flag
/// data feeds — run manifests, error listings, debug dumps — iterates
/// the map, and hash iteration order is randomized per process. Sorted
/// keys make every flag-derived output byte-deterministic
/// (`deterministic-iteration` lint).
pub fn parse_flags(args: &[String], spec: &[(&str, &str)]) -> Result<BTreeMap<String, String>> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(&(_, key)) = spec.iter().find(|(flag, _)| *flag == args[i]) else {
            return Err(Error::InvalidArgument(format!("unknown flag: {}", args[i])));
        };
        let value = args
            .get(i + 1)
            .ok_or_else(|| Error::InvalidArgument(format!("flag {} needs a value", args[i])))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

/// The value of flag `key` parsed as a `T`, or `None` when the flag is
/// absent; a value that does not parse is an error naming the flag.
pub fn parse_value<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>>
where
    T::Err: std::fmt::Display,
{
    flags
        .get(key)
        .map(|raw| {
            raw.parse::<T>()
                .map_err(|e| Error::InvalidArgument(format!("bad --{key} value '{raw}': {e}")))
        })
        .transpose()
}

/// The common flags of one `dispersal exp` run, parsed once and shared by
/// every experiment it runs.
#[derive(Clone)]
pub struct Common {
    trials: Option<u64>,
    seed: Option<u64>,
    jobs: Option<usize>,
    out_dir: PathBuf,
    /// The raw parsed flags, echoed into each manifest for provenance.
    /// `BTreeMap` iteration is sorted, so the manifest bytes are
    /// deterministic for a given command line.
    flags: BTreeMap<String, String>,
}

impl Common {
    /// Parse the common flags; `--jobs` must be at least 1.
    pub fn parse(args: &[String]) -> Result<Common> {
        const SPEC: &[(&str, &str)] = &[
            ("--trials", "trials"),
            ("--seed", "seed"),
            ("--jobs", "jobs"),
            ("--out-dir", "out-dir"),
        ];
        let flags = parse_flags(args, SPEC)?;
        let jobs: Option<usize> = parse_value(&flags, "jobs")?;
        if jobs == Some(0) {
            return Err(Error::InvalidArgument("--jobs must be at least 1".into()));
        }
        Ok(Common {
            trials: parse_value(&flags, "trials")?,
            seed: parse_value(&flags, "seed")?,
            jobs,
            out_dir: flags.get("out-dir").map_or_else(crate::results_dir, PathBuf::from),
            flags,
        })
    }
}

/// A check of an experiment's claims that did not hold. The text names the
/// check and the instance it failed on.
#[derive(Debug)]
pub struct CheckFailed(pub String);

impl fmt::Display for CheckFailed {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "check failed: {}", self.0)
    }
}

impl std::error::Error for CheckFailed {}

/// What an experiment body returns: a [`CheckFailed`], or the library or
/// I/O error that stopped it.
pub type Outcome = std::result::Result<(), Box<dyn std::error::Error>>;

/// Return [`CheckFailed`] from the enclosing experiment body unless
/// `$holds`; the `format!` arguments name the check and its instance.
macro_rules! check {
    ($holds:expr, $($message:tt)+) => {
        let holds: bool = $holds;
        if !holds {
            return Err($crate::runner::CheckFailed(format!($($message)+)).into());
        }
    };
}
pub(crate) use check;

/// One experiment `dispersal exp` runs by name.
pub struct Experiment {
    /// Its name: the `exp` argument, and the stem of its manifest file.
    pub name: &'static str,
    /// Whether `dispersal exp --all` runs it.
    pub in_all: bool,
    /// The experiment body.
    pub run: fn(&mut RunContext) -> Outcome,
}

/// The experiments of a run that failed, in run order, each with its error.
#[derive(Debug)]
pub struct Failed {
    /// How many experiments the run ran.
    pub ran: usize,
    /// Each failed experiment's name and error.
    pub failures: Vec<(&'static str, Box<dyn std::error::Error>)>,
}

impl fmt::Display for Failed {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "{} of {} experiment(s) failed", self.failures.len(), self.ran)?;
        for (name, failure) in &self.failures {
            write!(out, "\n  {name}: {failure}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Failed {}

/// Per-run context handed to an experiment body: the common flags plus
/// the output recorder feeding the run manifest.
pub struct RunContext {
    name: &'static str,
    common: Common,
    outputs: Vec<String>,
    /// Labelled cache snapshots recorded by the run, echoed into the
    /// manifest (insertion order, so bytes stay deterministic).
    caches: Vec<(String, CacheStats)>,
}

impl RunContext {
    /// The experiment's Monte-Carlo trial budget: the `--trials` override
    /// or the experiment's `default`.
    pub fn trials_or(&self, default: u64) -> u64 {
        self.common.trials.unwrap_or(default)
    }

    /// The master seed: the `--seed` override or the experiment's `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.common.seed.unwrap_or(default)
    }

    /// Write `contents` to `<out-dir>/<file>` and record it in the run
    /// manifest. Returns the full path written.
    pub fn write_result(&mut self, file: &str, contents: &str) -> std::io::Result<PathBuf> {
        let path = crate::write_result(&self.common.out_dir, file, contents)?;
        self.outputs.push(file.to_string());
        Ok(path)
    }

    /// Record a labelled [`CacheStats`] snapshot (e.g. a daemon's grid
    /// cache at shutdown) in the run manifest's `"caches"` object, so
    /// hit-rates ship with the results they explain.
    pub fn record_cache_stats(&mut self, label: &str, stats: CacheStats) {
        self.caches.push((label.to_string(), stats));
    }
}

fn manifest_json(ctx: &RunContext, wall: Duration) -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let opt = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
    let count = |n: usize| Value::UInt(n as u64);
    let common = &ctx.common;
    // Sorted by construction: BTreeMap iteration order is the key order.
    let flags = common.flags.iter().map(|(k, v)| (k.clone(), text(v))).collect();
    let caches = ctx
        .caches
        .iter()
        .map(|(label, s)| {
            let stats = vec![
                ("hits".to_string(), Value::UInt(s.hits)),
                ("misses".to_string(), Value::UInt(s.misses)),
                ("evictions".to_string(), Value::UInt(s.evictions)),
                ("entries".to_string(), count(s.entries)),
                ("capacity".to_string(), count(s.capacity)),
            ];
            (label.clone(), Value::Object(stats))
        })
        .collect();
    let manifest = Value::Object(vec![
        ("experiment".to_string(), text(ctx.name)),
        ("trials".to_string(), opt(common.trials)),
        ("seed".to_string(), opt(common.seed)),
        ("jobs".to_string(), count(common.jobs.unwrap_or_else(rayon::current_num_threads))),
        ("wall_ms".to_string(), Value::UInt(u64::try_from(wall.as_millis()).unwrap_or(u64::MAX))),
        ("flags".to_string(), Value::Object(flags)),
        ("caches".to_string(), Value::Object(caches)),
        ("outputs".to_string(), Value::Array(ctx.outputs.iter().map(|o| text(o)).collect())),
    ]);
    serde_json::to_string(&manifest).expect("a manifest holds no floats, the codec's one failure")
        + "\n"
}

/// Run one experiment: execute its body, then write
/// `<out-dir>/<name>.manifest.json` describing the run.
fn run_one(experiment: &Experiment, common: &Common) -> Outcome {
    let name = experiment.name;
    let mut ctx =
        RunContext { name, common: common.clone(), outputs: Vec::new(), caches: Vec::new() };
    let started = Instant::now();
    (experiment.run)(&mut ctx)?;
    let wall = started.elapsed();
    crate::write_result(
        &common.out_dir,
        &format!("{name}.manifest.json"),
        &manifest_json(&ctx, wall),
    )?;
    println!(
        "{name}: completed in {:.2}s on {} thread(s); {} result file(s) + manifest",
        wall.as_secs_f64(),
        rayon::current_num_threads(),
        ctx.outputs.len()
    );
    Ok(())
}

/// Run `selected` in order under `common`, applying `--jobs` to the pool
/// first. Every experiment runs even when one before it fails; the error
/// lists each failure.
pub fn run_experiments(
    selected: &[&Experiment],
    common: &Common,
) -> std::result::Result<(), Failed> {
    if let Some(jobs) = common.jobs {
        rayon::set_num_threads(jobs);
    }
    let total = Instant::now();
    let mut failures = Vec::new();
    for experiment in selected {
        println!("================ {} ================", experiment.name);
        if let Err(failure) = run_one(experiment, common) {
            eprintln!("{}: error: {failure}", experiment.name);
            failures.push((experiment.name, failure));
        }
    }
    if !failures.is_empty() {
        return Err(Failed { ran: selected.len(), failures });
    }
    println!(
        "All {} experiment(s) completed in {:.2}s; results under {}.",
        selected.len(),
        total.elapsed().as_secs_f64(),
        common.out_dir.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_accepts_spec_and_rejects_strangers() {
        let spec = &[("--trials", "trials"), ("--seed", "seed")];
        let flags = parse_flags(&argv(&["--trials", "100", "--seed", "7"]), spec).unwrap();
        assert_eq!(flags.get("trials").map(String::as_str), Some("100"));
        assert_eq!(flags.get("seed").map(String::as_str), Some("7"));
        assert!(parse_flags(&argv(&["--bogus", "1"]), spec).is_err());
        assert!(parse_flags(&argv(&["--trials"]), spec).is_err());
        assert!(Common::parse(&argv(&["--jobs", "0"])).is_err());
        assert!(Common::parse(&argv(&["--trials", "many"])).is_err());
    }

    #[test]
    fn context_defaults_and_overrides() {
        let common = Common::parse(&argv(&["--trials", "5"])).unwrap();
        assert_eq!(common.out_dir, crate::results_dir());
        let ctx = RunContext { name: "t", common, outputs: Vec::new(), caches: Vec::new() };
        assert_eq!(ctx.trials_or(100), 5);
        assert_eq!(ctx.seed_or(42), 42);
    }

    #[test]
    fn manifest_shape() {
        let args = ["--trials", "10", "--out-dir", "out", "--jobs", "3"];
        let common = Common::parse(&argv(&args)).unwrap();
        assert_eq!(common.out_dir, PathBuf::from("out"));
        let mut ctx = RunContext {
            name: "exp_x",
            common,
            outputs: vec!["a.csv".into(), "b.csv".into()],
            caches: Vec::new(),
        };
        ctx.record_cache_stats(
            "grid",
            CacheStats { hits: 9, misses: 3, evictions: 1, entries: 2, capacity: 256 },
        );
        let json = manifest_json(&ctx, Duration::from_millis(1234));
        assert_eq!(json.lines().count(), 1, "{json}");
        let manifest = serde_json::from_str(&json).unwrap();
        let entries = manifest.as_object().unwrap();
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["experiment", "trials", "seed", "jobs", "wall_ms", "flags", "caches", "outputs"]
        );
        let field = |key: &str| &entries.iter().find(|(k, _)| k == key).unwrap().1;
        assert_eq!(field("experiment").as_str(), Some("exp_x"));
        assert_eq!(field("trials"), &Value::UInt(10));
        assert_eq!(field("seed"), &Value::Null);
        assert_eq!(field("jobs"), &Value::UInt(3));
        assert_eq!(field("wall_ms"), &Value::UInt(1234));
        let outputs: Vec<_> =
            field("outputs").as_array().unwrap().iter().map(Value::as_str).collect();
        assert_eq!(outputs, [Some("a.csv"), Some("b.csv")]);
        let stats =
            [("hits", 9), ("misses", 3), ("evictions", 1), ("entries", 2), ("capacity", 256)];
        let grid = stats.iter().map(|&(k, n)| (k.to_string(), Value::UInt(n))).collect();
        assert_eq!(
            field("caches"),
            &Value::Object(vec![("grid".to_string(), Value::Object(grid))])
        );
        // Flags are echoed in sorted key order regardless of the order
        // they appeared on the command line.
        let flags = [("jobs", "3"), ("out-dir", "out"), ("trials", "10")];
        let flags =
            flags.iter().map(|&(k, v)| (k.to_string(), Value::Str(v.to_string()))).collect();
        assert_eq!(field("flags"), &Value::Object(flags));
    }
}
