//! The repository benchmark: four workloads against the shipped code,
//! measured end to end, and a traced run that splits the time by layer.
//!
//! ```text
//! bash perfbench/run.sh --workload <serve_trickle|serve_burst|search|mc> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures one workload and reports its
//! end-to-end metrics. With `--trace 1` it runs every workload briefly
//! with tracing (daemon `stats` counters, socket probes, 1-thread
//! reference runs), times each layer's public functions on inputs shaped
//! like the workloads', and reports the per-layer metrics, each
//! workload's share of end-to-end time no named layer accounts for, and
//! the tracing overhead on the chosen workload. Every metric is printed as
//! a provenance-tagged `row` line; the last line is the JSON result.

mod compute;
mod daemon;
mod gen;
mod host;
mod layers;
mod net;
mod report;
mod serve;
mod stats;
mod watchdog;

use report::{Metric, Provenance};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics every untraced run reports, with units. The
/// tail (p99, or lower by the ten-beyond rule) is printed on every run
/// but not part of the result: on a shared 2-core VM its run-to-run
/// spread is several times the largest bound a result metric may have.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("throughput_per_s", "1/s")];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("protocol.parse_us", "us"),
    ("protocol.reply_us", "us"),
    ("batch.plan_us", "us"),
    ("kernel.tile_exact_us", "us"),
    ("kernel.tile_exact_row_us", "us"),
    ("kernel.tile_lone_us", "us"),
    ("grid.lookup_us", "us"),
    ("grid.build_ms", "ms"),
    ("server.admissions", "count"),
    ("server.occupancy", "req/tile"),
    ("server.errors", "count"),
    ("grid_cache.hit_ratio", "ratio"),
    ("grid_cache.evictions", "count"),
    ("catalog_cache.hit_ratio", "ratio"),
    ("socket.rtt_us", "us"),
    ("admission.wait_ms", "ms"),
    ("admission.burst_wait_ms", "ms"),
    ("mech_space.split_us", "us"),
    ("kernel.sibling_tile_us", "us"),
    ("scoring.ifd_us", "us"),
    ("scoring.ess_us", "us"),
    ("scoring.opt_us", "us"),
    ("scoring.opt_useful_ratio", "ratio"),
    ("search.unattributed_share", "ratio"),
    ("engine.trial_ns", "ns"),
    ("engine.shard_setup_us", "us"),
    ("pool.dispatch_us", "us"),
    ("pool.speedup_2t.search", "x"),
    ("pool.speedup_2t.mc", "x"),
    ("host.speedup_2t", "x"),
    ("serve_trickle.unattributed_share", "ratio"),
    ("serve_burst.unattributed_share", "ratio"),
    ("mc.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

const WORKLOADS: [&str; 4] = ["serve_trickle", "serve_burst", "search", "mc"];

/// Set-up probes per run of the in-process workloads.
const SEARCH_SETUPS: usize = 3;
const MC_SETUPS: usize = 5;
/// A run still unfinished after this long is stopped (a benchmark run
/// must end within 180 s).
const WATCHDOG: Duration = Duration::from_secs(160);
/// Duration of the host calibration spins.
const CALIBRATION: Duration = Duration::from_millis(250);

/// Output checks, aggregated by name; one failure fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    /// name → (passed, failed, first failure detail)
    entries: BTreeMap<String, (u64, u64, String)>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        let entry = self.entries.entry(name.to_string()).or_default();
        if ok {
            entry.0 += 1;
        } else {
            if entry.1 == 0 {
                entry.2 = detail;
            }
            entry.1 += 1;
        }
    }

    pub fn passed(&self) -> bool {
        self.entries.values().all(|(_, failed, _)| *failed == 0)
    }

    fn print(&self) {
        for (name, (passed, failed, detail)) in &self.entries {
            let verdict = if *failed == 0 { "ok" } else { "FAILED" };
            println!("check {name}: {verdict} ({passed} passed, {failed} failed) {detail}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Calls that stalled in an earlier attempt of this run (passed by
    /// `run.sh` when it retries); counted as attempted and failed.
    stalls: u64,
}

fn parse_args() -> Result<Result<Args, (String, u64)>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                flags.insert(key.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("bad arguments: {argv:?}")),
        }
    }
    let number = |key: &str| -> Result<Option<f64>, String> {
        flags.get(key).map(|v| v.parse::<f64>().map_err(|e| format!("--{key}: {e}"))).transpose()
    };
    let seed = flags
        .get("seed")
        .map(|v| v.parse::<u64>().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(1);
    if let Some(workload) = flags.get("setup-probe") {
        return Ok(Err((workload.clone(), seed)));
    }
    let workload = flags.get("workload").cloned().ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {WORKLOADS:?})"));
    }
    let seconds = number("seconds")?.unwrap_or(10.0);
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let stalls = flags
        .get("stalls")
        .map(|v| v.parse::<u64>().map_err(|e| format!("--stalls: {e}")))
        .transpose()?
        .unwrap_or(0);
    Ok(Ok(Args { workload, seed, seconds, trace, stalls }))
}

/// One untraced workload run, reduced to its end-to-end figures.
struct EndToEnd {
    metrics: Vec<Metric>,
    /// Rows printed but not part of the JSON result.
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Median per-operation latency, ms (the trace-overhead basis).
    p50_ms: f64,
}

/// The end-to-end figures of a run: set-up, the median operation time
/// `p50_ms` (computed by the workload), throughput, and the tail of
/// `op_ms` by the ten-beyond rule.
fn end_to_end(
    setups: &[f64],
    p50_ms: f64,
    op_ms: &[f64],
    op: &str,
    throughput: f64,
    throughput_name: &str,
    throughput_samples: u64,
) -> Result<EndToEnd, String> {
    let s = stats::summarize(op_ms)?;
    let level = format!("p{:.1} over {} {op}s", s.tail_level * 100.0, s.n);
    let metrics = vec![
        Metric::new("setup_s", stats::median(setups), "s", setups.len() as u64)
            .note(format!("median of {} set-ups", setups.len())),
        Metric::new("p50_ms", p50_ms, "ms", s.n as u64).note(format!("median {op} time")),
        Metric::new("throughput_per_s", throughput, "1/s", throughput_samples)
            .note(throughput_name.to_string()),
    ];
    // The tail is p99 from 1000 samples on, and named for what it is
    // below that.
    let tail_name = if s.tail_level >= 0.99 { "p99_ms" } else { "tail_ms" };
    let extra = vec![
        Metric::new(throughput_name, throughput, "1/s", throughput_samples),
        Metric::new(tail_name, s.tail, "ms", s.n as u64).note(level),
    ];
    Ok(EndToEnd { metrics, extra, attempted: 0, failed: 0, p50_ms })
}

fn serve_end_to_end(run: &serve::ServeRun, throughput_name: &str) -> Result<EndToEnd, String> {
    if run.latencies_ms.is_empty() {
        return Err(format!("none of {} requests was answered", run.attempted));
    }
    let mut e = end_to_end(
        &run.setups_s,
        run.p50_ms(),
        &run.latencies_ms,
        "request",
        run.throughput,
        throughput_name,
        run.throughput_samples,
    )?;
    let (late_p99, late_max) = serve::lateness_summary(run);
    e.extra.push(
        Metric::new("fail_frac", run.failed as f64 / run.attempted as f64, "ratio", run.attempted)
            .note("error replies plus requests unanswered by the deadline"),
    );
    e.extra.push(Metric::new(
        "generator.late_p99_ms",
        late_p99,
        "ms",
        run.lateness_ms.len() as u64,
    ));
    e.extra.push(Metric::new(
        "generator.late_max_ms",
        late_max,
        "ms",
        run.lateness_ms.len() as u64,
    ));
    e.attempted = run.attempted;
    e.failed = run.failed;
    Ok(e)
}

/// Run `workload` untraced for `duration`.
fn run_workload(
    checks: &mut Checks,
    workload: &str,
    seed: u64,
    duration: Duration,
    setups: bool,
) -> Result<EndToEnd, String> {
    match workload {
        "serve_trickle" => {
            serve_end_to_end(&serve::trickle(checks, seed, duration, false)?, "seq_rps")
        }
        "serve_burst" => serve_end_to_end(&serve::burst(checks, seed, duration, false)?, "sat_rps"),
        "search" => {
            let setup = if setups {
                compute::setup_times("search", seed, SEARCH_SETUPS)?
            } else {
                vec![0.0]
            };
            host::warm_up(serve::WARM_UP);
            let timed = compute::search_loop(checks, seed, duration)?;
            compute::check_search_threads(checks, compute::search_seed(seed, 0))?;
            let mut e = end_to_end(
                &setup,
                stats::median(&timed.calls_ms),
                &timed.calls_ms,
                "search",
                timed.rate(),
                "expansions_per_s",
                timed.work,
            )?;
            e.attempted = timed.calls_ms.len() as u64;
            Ok(e)
        }
        _ => {
            let setup =
                if setups { compute::setup_times("mc", seed, MC_SETUPS)? } else { vec![0.0] };
            let game = compute::McGame::new()?;
            host::warm_up(serve::WARM_UP);
            let timed = compute::mc_loop(&game, seed, duration)?;
            compute::check_mc(checks, &game, seed)?;
            let mut e = end_to_end(
                &setup,
                stats::median(&timed.calls_ms),
                &timed.calls_ms,
                "call",
                timed.rate(),
                "trials_per_s",
                timed.work,
            )?;
            e.attempted = timed.calls_ms.len() as u64;
            Ok(e)
        }
    }
}

fn untraced(args: &Args, prov: &Provenance) -> Result<(bool, String), String> {
    let mut checks = Checks::default();
    let host_speedup = host::speedup_2t(CALIBRATION);
    let duration = Duration::from_secs_f64(args.seconds);
    let e = run_workload(&mut checks, &args.workload, args.seed, duration, true)?;
    let mut rows = e.metrics.clone();
    rows.extend(e.extra);
    rows.push(Metric::new("host.speedup_2t", host_speedup, "x", 1));
    rows.push(Metric::new("stalled_calls", args.stalls as f64, "count", 1));
    report::print_rows(&args.workload, false, &rows, prov);
    checks.print();
    let passed = checks.passed();
    let (attempted, failed) = (e.attempted + args.stalls, e.failed + args.stalls);
    Ok((passed, report::result_line(passed, attempted.max(1), failed, &e.metrics)))
}

/// The traced run: every workload briefly, with tracing, plus the layer
/// probes.
fn traced(args: &Args, prov: &Provenance) -> Result<(bool, String), String> {
    let mut checks = Checks::default();
    let seed = args.seed;
    let phase = Duration::from_secs_f64(args.seconds / 4.0);
    let mut m: Vec<Metric> = Vec::new();
    let host_speedup = host::speedup_2t(CALIBRATION);
    m.push(Metric::new("host.speedup_2t", host_speedup, "x", 1));

    // The chosen workload untraced, as the overhead baseline.
    let baseline = run_workload(&mut checks, &args.workload, seed, phase, false)?;

    let trickle = serve::trickle(&mut checks, seed, phase, true)?;
    let burst = serve::burst(&mut checks, seed, phase, true)?;
    let burst_stats = burst.stats.unwrap_or_default();
    // The closing `stats` request is itself one request and one
    // admission inside the window.
    let admissions = burst_stats.admissions.saturating_sub(1);
    let per_admission = (burst_stats.requests.saturating_sub(1)) as f64 / admissions.max(1) as f64;

    host::warm_up(serve::WARM_UP);
    let search = compute::search_loop(&mut checks, seed, phase)?;
    let (search_1t_s, outcome) =
        compute::check_search_threads(&mut checks, compute::search_seed(seed, 0))?;
    let game = compute::McGame::new()?;
    host::warm_up(serve::WARM_UP);
    let mc = compute::mc_loop(&game, seed, phase)?;
    let mc_1t = compute::with_threads(1, || compute::mc_loop(&game, seed, phase / 2))?;
    compute::check_mc(&mut checks, &game, seed)?;

    let sl = layers::serve_layers(seed, per_admission)?;
    let se = layers::search_layers(seed)?;
    let en = layers::engine_layers(&game, seed)?;

    let cost = |name: &str, c: layers::Cost, unit| Metric::new(name, c.mean, unit, c.samples);
    m.push(cost("protocol.parse_us", sl.parse, "us"));
    m.push(cost("protocol.reply_us", sl.reply, "us"));
    m.push(
        cost("batch.plan_us", sl.plan, "us")
            .note(format!("{per_admission:.1} requests per admission batch")),
    );
    m.push(cost("kernel.tile_exact_us", sl.tile, "us"));
    m.push(Metric::new("kernel.tile_exact_row_us", sl.tile_row_us, "us", sl.tile.samples));
    m.push(cost("kernel.tile_lone_us", sl.tile_lone, "us"));
    m.push(cost("grid.lookup_us", sl.grid_lookup, "us"));
    m.push(cost("grid.build_ms", sl.grid_build_ms, "ms"));

    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let s = burst_stats;
    m.push(Metric::new("server.admissions", admissions as f64, "count", 1));
    m.push(Metric::new(
        "server.occupancy",
        ratio(s.response_requests, s.response_groups),
        "req/tile",
        s.response_groups,
    ));
    m.push(Metric::new("server.errors", s.errors as f64, "count", 1));
    let grid_lookups = s.grid_hits + s.grid_misses;
    m.push(Metric::new(
        "grid_cache.hit_ratio",
        ratio(s.grid_hits, grid_lookups),
        "ratio",
        grid_lookups,
    ));
    m.push(Metric::new("grid_cache.evictions", s.grid_evictions as f64, "count", 1));
    let catalog_lookups = s.catalog_hits + s.catalog_misses;
    m.push(Metric::new(
        "catalog_cache.hit_ratio",
        ratio(s.catalog_hits, catalog_lookups),
        "ratio",
        catalog_lookups,
    ));

    // Serve attribution: the named layers a request crosses.
    let rtt_us = stats::median(&trickle.rtt_us);
    m.push(Metric::new("socket.rtt_us", rtt_us, "us", trickle.rtt_us.len() as u64));
    let window_ms =
        dispersal_serve::server::ServerConfig::default().batch_window.as_secs_f64() * 1e3;
    let trickle_p50 = trickle.p50_ms();
    let burst_p50 = burst.p50_ms();
    let served_ms = |tile_us: f64| (rtt_us + sl.parse.mean + tile_us + sl.reply.mean) / 1e3;
    let trickle_wait = trickle_p50 - served_ms(sl.tile_lone.mean);
    let burst_wait = burst_p50 - served_ms(sl.tile.mean);
    m.push(
        Metric::new("admission.wait_ms", trickle_wait, "ms", trickle.latencies_ms.len() as u64)
            .note("trickle p50 minus socket, parse, lone tile and reply"),
    );
    m.push(
        Metric::new("admission.burst_wait_ms", burst_wait, "ms", burst.latencies_ms.len() as u64)
            .note("burst p50 minus socket, parse, group tile and reply"),
    );
    // What no named layer accounts for: latency minus the socket, parse,
    // the configured admission window, planning, pool dispatch, the tile
    // and the reply.
    let named_ms =
        |tile_us: f64| served_ms(tile_us) + window_ms + (sl.plan.mean + en.dispatch.mean) / 1e3;
    let trickle_share = (trickle_p50 - named_ms(sl.tile_lone.mean)) / trickle_p50;
    let burst_share = (burst_p50 - named_ms(sl.tile.mean)) / burst_p50;

    m.push(cost("mech_space.split_us", se.split, "us"));
    m.push(cost("kernel.sibling_tile_us", se.sibling_tile, "us"));
    m.push(cost("scoring.ifd_us", se.ifd, "us"));
    m.push(cost("scoring.ess_us", se.ess, "us"));
    m.push(cost("scoring.opt_us", se.opt, "us"));
    // Every candidate of a search recomputes the optimum of the same
    // (profile, k): one distinct input over all its calls.
    m.push(Metric::new(
        "scoring.opt_useful_ratio",
        1.0 / outcome.evaluations as f64,
        "ratio",
        outcome.evaluations as u64,
    ));
    // Selection, merge and the pool are what the named layers leave.
    let per_search_us = outcome.expansions as f64 * (se.split.mean + se.sibling_tile.mean)
        + outcome.evaluations as f64 * (se.ifd.mean + se.ess.mean + se.opt.mean);
    let search_1t_us = search_1t_s * 1e6;
    m.push(
        Metric::new(
            "search.unattributed_share",
            (search_1t_us - per_search_us) / search_1t_us,
            "ratio",
            1,
        )
        .note(format!(
            "1-thread search {:.1} ms, named layers {:.1} ms ({} evaluations)",
            search_1t_us / 1e3,
            per_search_us / 1e3,
            outcome.evaluations
        )),
    );

    m.push(cost("engine.trial_ns", en.trial_ns, "ns"));
    m.push(cost("engine.shard_setup_us", en.shard_setup, "us"));
    m.push(cost("pool.dispatch_us", en.dispatch, "us"));
    let search_2t_s = stats::median(&search.calls_ms) / 1e3;
    m.push(
        Metric::new(
            "pool.speedup_2t.search",
            search_1t_s / search_2t_s,
            "x",
            search.calls_ms.len() as u64,
        )
        .note("1-thread search time over the median default-width search"),
    );
    m.push(
        Metric::new("pool.speedup_2t.mc", mc.rate() / mc_1t.rate(), "x", mc.calls_ms.len() as u64)
            .note("default-width over 1-thread trials per second"),
    );
    m.push(
        Metric::new("serve_trickle.unattributed_share", trickle_share, "ratio", 1)
            .note(format!("of a {trickle_p50:.3} ms p50")),
    );
    m.push(
        Metric::new("serve_burst.unattributed_share", burst_share, "ratio", 1)
            .note(format!("of a {burst_p50:.3} ms p50")),
    );
    let mc_call_us = stats::median(&mc_1t.calls_ms) * 1e3;
    let mc_named_us = compute::MC_SHARDS as f64 * en.shard_setup.mean
        + compute::MC_TRIALS as f64 * en.trial_ns.mean / 1e3;
    m.push(
        Metric::new("mc.unattributed_share", (mc_call_us - mc_named_us) / mc_call_us, "ratio", 1)
            .note(format!(
                "1-thread call {mc_call_us:.0} us, shards and trials {mc_named_us:.0} us"
            )),
    );

    let traced_p50 = match args.workload.as_str() {
        "serve_trickle" => trickle_p50,
        "serve_burst" => burst_p50,
        "search" => stats::median(&search.calls_ms),
        _ => stats::median(&mc.calls_ms),
    };
    m.push(
        Metric::new("trace.overhead", traced_p50 / baseline.p50_ms - 1.0, "ratio", 2)
            .note(format!("{} traced p50 over untraced p50, minus 1", args.workload)),
    );
    m.push(Metric::new("stalled_calls", args.stalls as f64, "count", 1));

    report::print_rows(&args.workload, true, &m, prov);
    checks.print();
    // Report in the declared order.
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, _) in PER_LAYER {
        let metric = m.iter().find(|x| x.name == name).ok_or(format!("{name} not measured"))?;
        ordered.push(metric.clone());
    }
    let attempted = args.stalls
        + baseline.attempted
        + trickle.attempted
        + burst.attempted
        + search.calls_ms.len() as u64
        + mc.calls_ms.len() as u64;
    let failed = args.stalls + baseline.failed + trickle.failed + burst.failed;
    let passed = checks.passed();
    Ok((passed, report::result_line(passed, attempted, failed, &ordered)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Ok(args)) => args,
        Ok(Err((workload, seed))) => {
            return match compute::first_call(&workload, seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    watchdog::start(WATCHDOG);
    let prov = Provenance::detect(args.seed);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {} lane {} pool threads {} commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        prov.nproc,
        prov.lane,
        prov.pool_threads,
        prov.commit
    );
    let outcome = if args.trace { traced(&args, &prov) } else { untraced(&args, &prov) };
    match outcome {
        Ok((passed, line)) => {
            println!("{line}");
            if passed {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output checks failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            // An invalid run is reported as such, with no result, so that
            // run.sh measures again.
            ExitCode::from(if e.starts_with(serve::INVALID) { 5 } else { 2 })
        }
    }
}
