//! The two in-process workloads: mechanism search and the Monte Carlo
//! engine, each called back to back through the public library at the
//! default pool width, with their outputs checked.

use crate::gen::Rng;
use crate::Checks;
use dispersal_core::coverage::coverage;
use dispersal_core::policy::Exclusive;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_search::parallel::{search_mechanisms, SearchConfig, SearchOutcome};
use dispersal_sim::montecarlo::{estimate_symmetric, McConfig, McReport};
use std::time::{Duration, Instant};

/// The certificate every search in the benchmark must return: the
/// exclusive mechanism, which is optimal and an ESS.
pub const PINNED_SPEC: &str = "piecewise:t=6,c1=0,d=0";
pub const PINNED_WELFARE: f64 = 1.802913;

/// The `search_mech` configuration: k=6 on zipf(12, 1), welfare
/// objective, budget 48, wave 4, 4 children, 16 ESS mutants; only the
/// ESS seed varies.
pub fn search_config(ess_seed: u64) -> Result<SearchConfig, String> {
    let f = ValueProfile::zipf(12, 1.0, 1.0).map_err(|e| e.to_string())?;
    Ok(SearchConfig { seed: ess_seed, ..SearchConfig::new(6, f) })
}

/// Monte Carlo game: zipf(M = 20) sites, exclusive policy, the
/// value-proportional strategy, k = 8 players, 64 shards.
pub struct McGame {
    pub f: ValueProfile,
    pub strategy: Strategy,
}

pub const MC_K: usize = 8;
pub const MC_SHARDS: u64 = 64;
/// Trials per timed call: large calls keep the number of pool jobs per
/// run small (each is a chance of the pool's end-of-job deadlock).
pub const MC_TRIALS: u64 = 2_000_000;
/// Trials of the thread-count and analytic check.
pub const MC_CHECK_TRIALS: u64 = 400_000;

impl McGame {
    pub fn new() -> Result<McGame, String> {
        let f = ValueProfile::zipf(20, 1.0, 1.0).map_err(|e| e.to_string())?;
        let strategy = Strategy::proportional(f.values()).map_err(|e| e.to_string())?;
        Ok(McGame { f, strategy })
    }

    pub fn estimate(&self, trials: u64, shards: u64, seed: u64) -> Result<McReport, String> {
        estimate_symmetric(
            &self.f,
            &Exclusive,
            &self.strategy,
            MC_K,
            McConfig { trials, seed, shards },
        )
        .map_err(|e| e.to_string())
    }
}

/// Calls timed back to back.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Wall time of each call, ms.
    pub calls_ms: Vec<f64>,
    /// Work units done (search expansions or Monte Carlo trials).
    pub work: u64,
}

impl Timed {
    /// Work units per second at the median call, robust to a transient
    /// stall of a few calls.
    pub fn rate(&self) -> f64 {
        let per_call = self.work as f64 / self.calls_ms.len() as f64;
        per_call / (crate::stats::median(&self.calls_ms) / 1e3)
    }
}

/// Fewest calls a timed loop makes, however long they take: enough for a
/// median and a tail by the ten-beyond rule.
const MIN_CALLS: usize = 20;

/// Call `op(i)` for `i = 0, 1, …` until `duration` has passed (and at
/// least `MIN_CALLS` times); `op` returns the work units it did.
pub fn time_calls(
    duration: Duration,
    mut op: impl FnMut(u64) -> Result<u64, String>,
) -> Result<Timed, String> {
    let mut timed = Timed::default();
    let end = Instant::now() + duration;
    let mut i = 0u64;
    while Instant::now() < end || timed.calls_ms.len() < MIN_CALLS {
        let started = Instant::now();
        timed.work += op(i)?;
        timed.calls_ms.push(started.elapsed().as_secs_f64() * 1e3);
        crate::watchdog::beat();
        i += 1;
    }
    Ok(timed)
}

/// Run `op` with the pool pinned to `threads` workers, then restore the
/// default width.
pub fn with_threads<T>(threads: usize, op: impl FnOnce() -> T) -> T {
    rayon::set_num_threads(threads);
    let out = op();
    rayon::set_num_threads(0);
    out
}

/// The ESS seed of the `i`-th search of a run.
pub fn search_seed(seed: u64, i: u64) -> u64 {
    Rng::stream(seed, 0x5ea4c4 + i).next_u64()
}

/// The Monte Carlo seed of the `i`-th call of a run.
pub fn mc_seed(seed: u64, i: u64) -> u64 {
    Rng::stream(seed, 0x3c0 + i).next_u64()
}

fn certificate_bits(outcome: &SearchOutcome) -> (String, Vec<u64>) {
    let c = &outcome.best;
    let mut bits = vec![
        c.welfare.to_bits(),
        c.optimal_coverage.to_bits(),
        c.spoa.to_bits(),
        c.ess_margin.to_bits(),
        c.node_id as u64,
        u64::from(c.ess_passed),
        outcome.expansions as u64,
        outcome.evaluations as u64,
    ];
    bits.extend(c.params.iter().map(|p| p.to_bits()));
    (c.spec.clone(), bits)
}

/// Check one search result against the pinned certificate.
pub fn check_certificate(checks: &mut Checks, outcome: &SearchOutcome) {
    let best = &outcome.best;
    checks.check(
        "search.pinned_certificate",
        best.spec == PINNED_SPEC && (best.welfare - PINNED_WELFARE).abs() < 5e-7 && best.ess_passed,
        format!("{} welfare {:.6} ess {}", best.spec, best.welfare, best.ess_passed),
    );
}

/// Search with `seed` at 1 thread and at the default width; the
/// certificates must be bit-identical. Returns the 1-thread wall time (s)
/// and outcome.
pub fn check_search_threads(
    checks: &mut Checks,
    ess_seed: u64,
) -> Result<(f64, SearchOutcome), String> {
    let cfg = search_config(ess_seed)?;
    let started = Instant::now();
    let one = with_threads(1, || search_mechanisms(&cfg)).map_err(|e| e.to_string())?;
    let one_s = started.elapsed().as_secs_f64();
    let two = search_mechanisms(&cfg).map_err(|e| e.to_string())?;
    checks.check(
        "search.thread_invariant",
        certificate_bits(&one) == certificate_bits(&two),
        format!("1-thread {} vs default-width {}", one.best.spec, two.best.spec),
    );
    check_certificate(checks, &one);
    Ok((one_s, one))
}

/// Estimate at 1 thread and at the default width; the estimates must be
/// bit-identical and within 4 standard errors of the analytic coverage.
pub fn check_mc(checks: &mut Checks, game: &McGame, seed: u64) -> Result<(), String> {
    let one = with_threads(1, || game.estimate(MC_CHECK_TRIALS, MC_SHARDS, seed))?;
    let two = game.estimate(MC_CHECK_TRIALS, MC_SHARDS, seed)?;
    let same = one.coverage.mean.to_bits() == two.coverage.mean.to_bits()
        && one.coverage.ci95.to_bits() == two.coverage.ci95.to_bits()
        && one.payoff.mean.to_bits() == two.payoff.mean.to_bits()
        && one.trials == two.trials;
    checks.check(
        "mc.thread_invariant",
        same,
        format!("1-thread {} vs default-width {}", one.coverage.mean, two.coverage.mean),
    );
    let analytic = coverage(&game.f, &game.strategy, MC_K).map_err(|e| e.to_string())?;
    let se = two.coverage.ci95 / 1.96;
    let z = (two.coverage.mean - analytic) / se;
    checks.check(
        "mc.analytic_coverage",
        z.abs() < 4.0,
        format!("estimate {} vs analytic {analytic}: {z:.2} standard errors", two.coverage.mean),
    );
    Ok(())
}

/// The timed search loop at the default pool width, every certificate
/// checked.
pub fn search_loop(checks: &mut Checks, seed: u64, duration: Duration) -> Result<Timed, String> {
    time_calls(duration, |i| {
        let outcome =
            search_mechanisms(&search_config(search_seed(seed, i))?).map_err(|e| e.to_string())?;
        check_certificate(checks, &outcome);
        Ok(outcome.expansions as u64)
    })
}

/// The timed Monte Carlo loop at the default pool width.
pub fn mc_loop(game: &McGame, seed: u64, duration: Duration) -> Result<Timed, String> {
    time_calls(duration, |i| Ok(game.estimate(MC_TRIALS, MC_SHARDS, mc_seed(seed, i))?.trials))
}

/// Child-process body of a set-up probe: one call of the workload, then
/// report. The parent times spawn to report.
pub fn first_call(workload: &str, seed: u64) -> Result<(), String> {
    match workload {
        "search" => {
            search_mechanisms(&search_config(search_seed(seed, 0))?).map_err(|e| e.to_string())?;
        }
        "mc" => {
            McGame::new()?.estimate(MC_TRIALS, MC_SHARDS, mc_seed(seed, 0))?;
        }
        other => return Err(format!("no set-up probe for {other}")),
    }
    println!("done");
    Ok(())
}

/// Time `count` fresh processes from spawn to their first completed
/// call, in seconds.
pub fn setup_times(workload: &str, seed: u64, count: usize) -> Result<Vec<f64>, String> {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        let started = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", workload, "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
        crate::watchdog::register(&child);
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("probe stdout not captured")?;
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = started.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("waiting for a set-up probe: {e}"));
        crate::watchdog::unregister(&child);
        let status = status?;
        if read.is_err() || line.trim() != "done" || !status.success() {
            return Err(format!("set-up probe for {workload} failed ({status})"));
        }
        times.push(elapsed);
        crate::watchdog::beat();
    }
    Ok(times)
}
