//! Shared driver for the experiment binaries.
//!
//! Every `exp_*` / `fig1` binary used to carry its own copy of the same
//! boilerplate: ad-hoc argv handling, `results/` plumbing, and no timing
//! or provenance. [`experiment_main`] centralizes that: it parses the
//! common flags, configures the thread pool and output directory, times
//! the run, and emits a run manifest next to the CSVs so every results
//! file can be traced back to the exact `(trials, seed, jobs)` that
//! produced it. The manifest is one line of JSON: a `serde::Value`
//! rendered by the vendored codec, like every other JSON the workspace
//! writes.
//!
//! Common flags (all optional; each binary keeps its own defaults):
//!
//! * `--trials N`  — override the binary's Monte-Carlo trial budget
//!   (deterministic experiments ignore it);
//! * `--seed N`    — override the master seed of the stochastic parts;
//! * `--jobs N`    — worker-thread count (sets `RAYON_NUM_THREADS`);
//! * `--out-dir D` — results directory (sets `DISPERSAL_RESULTS_DIR`).

use dispersal_core::kernel::cache::CacheStats;
use dispersal_core::{Error, Result};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parse `args` against `spec`, a table of `(accepted flag, canonical
/// key)` pairs; every flag takes exactly one value. Shared by the
/// experiment runner and the `dispersal` CLI so all binaries reject
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

fn parse_value<T: std::str::FromStr>(
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

/// Per-run context handed to an experiment body: the resolved common
/// flags plus the output recorder feeding the run manifest.
pub struct RunContext {
    name: &'static str,
    trials: Option<u64>,
    seed: Option<u64>,
    jobs: Option<usize>,
    outputs: Vec<String>,
    /// Labelled cache snapshots recorded by the run, echoed into the
    /// manifest (insertion order, so bytes stay deterministic).
    caches: Vec<(String, CacheStats)>,
    /// The raw parsed flags, echoed into the manifest for provenance.
    /// `BTreeMap` iteration is sorted, so the manifest bytes are
    /// deterministic for a given command line.
    flags: BTreeMap<String, String>,
}

impl RunContext {
    /// The experiment's Monte-Carlo trial budget: the `--trials` override
    /// or the binary's `default`.
    pub fn trials_or(&self, default: u64) -> u64 {
        self.trials.unwrap_or(default)
    }

    /// The master seed: the `--seed` override or the binary's `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Worker threads the run is using (after `--jobs` is applied).
    pub fn effective_jobs(&self) -> usize {
        rayon::current_num_threads()
    }

    /// Write `contents` to `results/<file>` and record it in the run
    /// manifest. Returns the full path written.
    pub fn write_result(&mut self, file: &str, contents: &str) -> std::io::Result<PathBuf> {
        let path = crate::write_result(file, contents)?;
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
    // Sorted by construction: BTreeMap iteration order is the key order.
    let flags = ctx.flags.iter().map(|(k, v)| (k.clone(), text(v))).collect();
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
        ("trials".to_string(), opt(ctx.trials)),
        ("seed".to_string(), opt(ctx.seed)),
        ("jobs".to_string(), count(ctx.jobs.unwrap_or_else(|| ctx.effective_jobs()))),
        ("wall_ms".to_string(), Value::UInt(u64::try_from(wall.as_millis()).unwrap_or(u64::MAX))),
        ("flags".to_string(), Value::Object(flags)),
        ("caches".to_string(), Value::Object(caches)),
        ("outputs".to_string(), Value::Array(ctx.outputs.iter().map(|o| text(o)).collect())),
    ]);
    serde_json::to_string(&manifest).expect("a manifest holds no floats, the codec's one failure")
        + "\n"
}

/// Run one experiment under the shared driver: parse the common flags,
/// apply `--jobs`/`--out-dir`, execute `run`, report wall-clock time, and
/// emit `results/<name>.manifest.json` describing the run.
pub fn experiment_main(
    name: &'static str,
    run: impl FnOnce(&mut RunContext) -> Result<()>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: {name} [--trials N] [--seed N] [--jobs N] [--out-dir DIR]");
        return ExitCode::SUCCESS;
    }
    match drive(name, &args, run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive(
    name: &'static str,
    args: &[String],
    run: impl FnOnce(&mut RunContext) -> Result<()>,
) -> Result<()> {
    const SPEC: &[(&str, &str)] =
        &[("--trials", "trials"), ("--seed", "seed"), ("--jobs", "jobs"), ("--out-dir", "out-dir")];
    let flags = parse_flags(args, SPEC)?;
    let jobs: Option<usize> = parse_value(&flags, "jobs")?;
    if let Some(jobs) = jobs {
        if jobs == 0 {
            return Err(Error::InvalidArgument("--jobs must be at least 1".into()));
        }
        // Safe env mutation: we are single-threaded here, before any pool
        // worker exists to call getenv concurrently.
        std::env::set_var("RAYON_NUM_THREADS", jobs.to_string());
    }
    if let Some(dir) = flags.get("out-dir") {
        std::env::set_var("DISPERSAL_RESULTS_DIR", dir);
    }
    let mut ctx = RunContext {
        name,
        trials: parse_value(&flags, "trials")?,
        seed: parse_value(&flags, "seed")?,
        jobs,
        outputs: Vec::new(),
        caches: Vec::new(),
        flags,
    };
    let started = Instant::now();
    run(&mut ctx)?;
    let wall = started.elapsed();
    let manifest = manifest_json(&ctx, wall);
    crate::write_result(&format!("{name}.manifest.json"), &manifest)
        .map_err(dispersal_core::Error::from)?;
    println!(
        "{name}: completed in {:.2}s on {} thread(s); {} result file(s) + manifest",
        wall.as_secs_f64(),
        ctx.effective_jobs(),
        ctx.outputs.len()
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
    }

    #[test]
    fn context_defaults_and_overrides() {
        let ctx = RunContext {
            name: "t",
            trials: Some(5),
            seed: None,
            jobs: None,
            outputs: Vec::new(),
            caches: Vec::new(),
            flags: BTreeMap::new(),
        };
        assert_eq!(ctx.trials_or(100), 5);
        assert_eq!(ctx.seed_or(42), 42);
    }

    #[test]
    fn manifest_shape() {
        let spec = &[("--trials", "trials"), ("--seed", "seed"), ("--jobs", "jobs")];
        let flags =
            parse_flags(&argv(&["--trials", "10", "--seed", "7", "--jobs", "3"]), spec).unwrap();
        let mut ctx = RunContext {
            name: "exp_x",
            trials: Some(10),
            seed: None,
            jobs: Some(3),
            outputs: vec!["a.csv".into(), "b.csv".into()],
            caches: Vec::new(),
            flags,
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
        let flags = [("jobs", "3"), ("seed", "7"), ("trials", "10")];
        let flags =
            flags.iter().map(|&(k, v)| (k.to_string(), Value::Str(v.to_string()))).collect();
        assert_eq!(field("flags"), &Value::Object(flags));
    }
}
