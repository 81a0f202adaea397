//! The two daemon workloads.
//!
//! * `serve_trickle`: lone exact requests on one connection at a fixed
//!   interval well above the daemon's 2 ms admission window (open loop),
//!   then one request in flight at a time (closed loop).
//! * `serve_burst`: Poisson arrivals of the seeded mix over two
//!   connections at a fixed offered rate (open loop), then a fixed number
//!   of requests in flight per connection (closed loop, saturation).
//!
//! Open-loop latency is timed from each request's scheduled send time.

use crate::daemon::{self, Daemon, Stats};
use crate::gen::{self, Kind, Mix, Request, Rng, Scheduled};
use crate::net::{self, Conn, OpenLoop};
use crate::{host, stats, Checks};
use dispersal_mech::catalog::parse_policy;
use dispersal_serve::batch::eval_exact_tile;
use serde::Value;
use std::collections::HashSet;
use std::thread;
use std::time::{Duration, Instant};

/// Daemon starts per run; set-up time is their median.
pub const SETUPS: usize = 9;
/// Interval between trickle sends.
pub const TRICKLE_INTERVAL: Duration = Duration::from_millis(5);
/// Share of a trickle run spent in the open loop (the rest is the
/// one-in-flight closed loop).
pub const TRICKLE_OPEN_SHARE: f64 = 0.75;
/// Offered rate of the burst's open loop, requests per second. On the
/// 2-core x86-64 VM the benchmark was written on, the saturation phase
/// reached 1100-1300 requests/s with both cores and roughly half that
/// while a neighbour held one core. At 600/s the tail of runs that met a
/// busy neighbour tripled; at 400/s it stays steady from run to run.
pub const BURST_RATE: f64 = 400.0;
/// Connections of the burst.
pub const BURST_CONNS: usize = 2;
/// Requests each connection keeps in flight during saturation.
pub const SAT_DEPTH: usize = 4;
/// Share of a burst run spent in the open loop (the rest saturates).
pub const BURST_OPEN_SHARE: f64 = 0.6;
/// Closed-loop throughput and open-loop median latency are medians over
/// this many equal windows.
pub const RATE_WINDOWS: u32 = 8;
/// Untimed warm-up before each timed phase.
pub const WARM_UP: Duration = Duration::from_millis(300);
/// Most popular tolerance-mode policies whose grids the burst's warm-up
/// builds.
pub const WARM_RANKS: usize = 64;
/// How long after the last send a missing reply still counts (replies
/// take milliseconds; only a stuck daemon misses this).
pub const GRACE: Duration = Duration::from_secs(3);
/// Exact replies bit-compared against the in-process tile, per run.
pub const BIT_CHECKS: usize = 48;
/// Every this many trickle sends, a traced run sends a socket probe.
pub const PROBE_EVERY: usize = 10;
/// The generator fell behind when the median lateness of its sends in
/// any of the `RATE_WINDOWS` stretches exceeds this: a backlog, not the
/// tens of ms a shared VM now and then takes a core away for. Latency is
/// timed from the due time either way.
pub const MAX_LATENESS_MS: f64 = 20.0;

/// Prefix of the error that marks a run invalid (exit status 5).
pub const INVALID: &str = "invalid run";

/// What one serve workload run measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    pub setups_s: Vec<f64>,
    /// Open-loop latency of every answered request, ms from its due time.
    pub latencies_ms: Vec<f64>,
    /// Due time of each of those requests, s into the open loop.
    pub due_s: Vec<f64>,
    /// Socket round trips of the traced probes, µs.
    pub rtt_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub lateness_ms: Vec<f64>,
    /// Closed-loop replies per second.
    pub throughput: f64,
    pub throughput_samples: u64,
    /// Counter growth over the open loop (traced runs).
    pub stats: Option<Stats>,
}

/// The exact replies of a run to bit-compare: a seeded sample.
fn bit_check_ids(seed: u64, schedule: &[Scheduled]) -> HashSet<u64> {
    let mut rng = Rng::stream(seed, 0xb17);
    let exact: Vec<u64> = schedule
        .iter()
        .filter(|s| matches!(s.request.kind, Kind::Exact { .. }))
        .map(|s| s.request.id)
        .collect();
    let mut keep = HashSet::new();
    while keep.len() < BIT_CHECKS.min(exact.len()) {
        keep.insert(exact[rng.below(exact.len())]);
    }
    keep
}

fn reply_curve(line: &str) -> Option<Vec<f64>> {
    let value: Value = serde_json::from_str(line).ok()?;
    let result = value.as_object()?.iter().find(|(k, _)| k == "result")?.1.as_object()?;
    let g = result.iter().find(|(k, _)| k == "g")?.1.as_array()?;
    // The codec prints integral floats without a fraction ("1"), so they
    // parse back as integers.
    g.iter()
        .map(|v| match v {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        })
        .collect()
}

/// Bit-compare a daemon reply with the in-process exact tile.
fn exact_matches(policy: &str, k: usize, line: &str) -> Result<bool, String> {
    let parsed = parse_policy(policy).map_err(|e| e.to_string())?;
    let local =
        eval_exact_tile(&[parsed.as_ref()], k, gen::RESOLUTION).map_err(|e| e.to_string())?;
    let Some(remote) = reply_curve(line) else { return Ok(false) };
    Ok(remote.len() == local[0].len()
        && remote.iter().zip(&local[0]).all(|(a, b)| a.to_bits() == b.to_bits()))
}

/// Fold an open loop into `run`: latencies from due times, failures,
/// probe round trips, lateness, and the checks.
fn analyse(
    run: &mut ServeRun,
    checks: &mut Checks,
    schedule: &[Scheduled],
    ol: &OpenLoop,
) -> Result<(), String> {
    let first_id = schedule.first().map_or(0, |s| s.request.id);
    let mut answered = vec![false; schedule.len()];
    let mut bits_ok = 0usize;
    let mut bits_checked = 0usize;
    for reply in &ol.replies {
        let Some(index) = reply.id.checked_sub(first_id).map(|i| i as usize) else { continue };
        let Some(s) = schedule.get(index) else { continue };
        if std::mem::replace(&mut answered[index], true) {
            return Err(format!("duplicate reply for id {}", reply.id));
        }
        if s.request.kind == Kind::Probe {
            run.rtt_us.push(reply.at.duration_since(ol.sent[index]).as_secs_f64() * 1e6);
            continue;
        }
        run.attempted += 1;
        if !reply.ok {
            run.failed += 1;
            continue;
        }
        run.latencies_ms.push(reply.at.duration_since(ol.t0 + s.at).as_secs_f64() * 1e3);
        run.due_s.push(s.at.as_secs_f64());
        if let (Some(line), Kind::Exact { policy, k }) = (&reply.line, &s.request.kind) {
            bits_checked += 1;
            bits_ok += usize::from(exact_matches(policy, *k, line)?);
        }
    }
    // Unanswered by the deadline: failed.
    for (s, answered) in schedule.iter().zip(&answered) {
        if !answered && s.request.kind != Kind::Probe {
            run.attempted += 1;
            run.failed += 1;
        }
    }
    checks.check(
        "serve.replies_ok",
        run.failed == 0,
        format!("{} of {} requests failed or went unanswered", run.failed, run.attempted),
    );
    checks.check(
        "serve.exact_bits",
        bits_checked > 0 && bits_ok == bits_checked,
        format!("{bits_ok} of {bits_checked} sampled exact replies bit-identical to the tile"),
    );
    run.lateness_ms.extend(ol.lateness_ms(schedule));
    let stretch = run.lateness_ms.len().div_ceil(RATE_WINDOWS as usize).max(1);
    let backlog = run.lateness_ms.chunks(stretch).map(stats::median).fold(0.0, f64::max);
    if backlog > MAX_LATENESS_MS {
        return Err(format!(
            "{INVALID}: the generator fell behind (median lateness {backlog:.1} ms in a stretch \
             of the schedule, limit {MAX_LATENESS_MS} ms)"
        ));
    }
    Ok(())
}

/// A short closed loop of the workload's own requests, untimed, after
/// loading both cores.
fn warm_up(conns: &mut [Conn], next: &mut dyn FnMut(usize) -> Request) -> Result<(), String> {
    host::warm_up(WARM_UP);
    let until = Instant::now() + WARM_UP;
    for (c, conn) in conns.iter_mut().enumerate() {
        net::closed_loop(conn, 4, until, || next(c)).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

fn start(run: &mut ServeRun, trace: bool) -> Result<Daemon, String> {
    // Traced runs need no set-up figure: one daemon is enough.
    let (daemon, setups) = daemon::start_repeatedly(if trace { 1 } else { SETUPS })?;
    run.setups_s = setups;
    Ok(daemon)
}

/// `serve_trickle` for `duration`.
pub fn trickle(
    checks: &mut Checks,
    seed: u64,
    duration: Duration,
    trace: bool,
) -> Result<ServeRun, String> {
    let mut run = ServeRun::default();
    let daemon = start(&mut run, trace)?;
    let mut conns = vec![daemon.connect()?];
    let mut warm = Rng::stream(seed, 0x3a);
    let mut warm_id = 1u64 << 40;
    warm_up(&mut conns, &mut |_| {
        warm_id += 1;
        gen::exact_request(&mut warm, warm_id, gen::TOL_K)
    })?;

    let open = duration.mul_f64(TRICKLE_OPEN_SHARE);
    let schedule = gen::trickle_schedule(
        seed,
        1000,
        TRICKLE_INTERVAL,
        open,
        if trace { PROBE_EVERY } else { 0 },
    );
    let keep = bit_check_ids(seed, &schedule);
    let ol = net::open_loop(&mut conns, &schedule, &keep, GRACE).map_err(|e| e.to_string())?;
    analyse(&mut run, checks, &schedule, &ol)?;

    host::warm_up(WARM_UP);
    let closed = duration - open;
    let mut rng = Rng::stream(seed, 0x5e9);
    let mut id = 1u64 << 41;
    let started = Instant::now();
    let until = started + closed;
    let c = net::closed_loop(&mut conns[0], 1, until, || {
        id += 1;
        gen::exact_request(&mut rng, id, gen::TOL_K)
    })
    .map_err(|e| e.to_string())?;
    run.throughput = net::windowed_rate(&c.completed, started, until, RATE_WINDOWS);
    run.throughput_samples = c.completed.len() as u64;
    run.attempted += c.attempted;
    run.failed += c.failed;
    checks.check("serve.closed_loop_ok", c.failed == 0, format!("{} error replies", c.failed));
    drop(conns);
    daemon.stop()?;
    Ok(run)
}

/// `serve_burst` for `duration`.
pub fn burst(
    checks: &mut Checks,
    seed: u64,
    duration: Duration,
    trace: bool,
) -> Result<ServeRun, String> {
    let mut run = ServeRun::default();
    let daemon = start(&mut run, trace)?;
    let mut conns: Vec<Conn> =
        (0..BURST_CONNS).map(|_| daemon.connect()).collect::<Result<_, _>>()?;
    // The warm-up builds the grids of the most popular policies, then
    // draws from the workload's own mix, bringing the grid cache toward
    // its steady state.
    let mut warm: Vec<Mix> = (0..BURST_CONNS).map(|c| Mix::new(seed, 0x100 + c as u64)).collect();
    let mut warm_id = 1u64 << 40;
    warm_up(&mut conns, &mut |c| {
        warm_id += 1;
        let rank = (warm_id - (1 << 40)) as usize;
        if rank <= WARM_RANKS {
            warm[c].ranked(warm_id, rank - 1)
        } else {
            warm[c].next(warm_id)
        }
    })?;

    let open = duration.mul_f64(BURST_OPEN_SHARE);
    let schedule = gen::poisson_schedule(seed, 1000, BURST_RATE, open, BURST_CONNS);
    let keep = bit_check_ids(seed, &schedule);
    let before = if trace { Some(daemon::stats(&mut conns[0])?) } else { None };
    let ol = net::open_loop(&mut conns, &schedule, &keep, GRACE).map_err(|e| e.to_string())?;
    if let Some(before) = before {
        run.stats = Some(daemon::stats(&mut conns[0])?.since(&before));
    }
    analyse(&mut run, checks, &schedule, &ol)?;

    host::warm_up(WARM_UP);
    let closed = duration - open;
    let started = Instant::now();
    let until = started + closed;
    let outcomes: Vec<Result<net::ClosedLoop, String>> = thread::scope(|scope| {
        let mut conns = conns.iter_mut().enumerate();
        let (c0, first) = conns.next().expect("burst has connections");
        let others: Vec<_> =
            conns.map(|(c, conn)| scope.spawn(move || saturate(conn, seed, c, until))).collect();
        let mut out = vec![saturate(first, seed, c0, until)];
        out.extend(others.into_iter().map(|h| h.join().expect("saturation thread panicked")));
        out
    });
    let mut completed = Vec::new();
    let mut closed_failed = 0;
    for outcome in outcomes {
        let c = outcome?;
        completed.extend(c.completed);
        closed_failed += c.failed;
        run.attempted += c.attempted;
        run.failed += c.failed;
    }
    run.throughput = net::windowed_rate(&completed, started, until, RATE_WINDOWS);
    run.throughput_samples = completed.len() as u64;
    checks.check(
        "serve.closed_loop_ok",
        closed_failed == 0,
        format!("{closed_failed} error replies"),
    );
    drop(conns);
    daemon.stop()?;
    Ok(run)
}

fn saturate(
    conn: &mut Conn,
    seed: u64,
    c: usize,
    until: Instant,
) -> Result<net::ClosedLoop, String> {
    let mut mix = Mix::new(seed, 0x200 + c as u64);
    let mut id = (c as u64 + 1) << 42;
    net::closed_loop(conn, SAT_DEPTH, until, || {
        id += 1;
        mix.next(id)
    })
    .map_err(|e| e.to_string())
}

impl ServeRun {
    /// The median latency, ms: the median over `RATE_WINDOWS` equal
    /// stretches of the open loop of each stretch's median, so a few
    /// seconds of host contention move one stretch, not the figure.
    pub fn p50_ms(&self) -> f64 {
        let span = self.due_s.iter().copied().fold(0.0, f64::max);
        let mut windows = vec![Vec::new(); RATE_WINDOWS as usize];
        for (&due, &ms) in self.due_s.iter().zip(&self.latencies_ms) {
            let w = ((due / span * f64::from(RATE_WINDOWS)) as usize).min(windows.len() - 1);
            windows[w].push(ms);
        }
        let medians: Vec<f64> =
            windows.iter().filter(|w| !w.is_empty()).map(|w| stats::median(w)).collect();
        stats::median(&medians)
    }
}

/// The lateness the generator ran at: p99 and worst, ms.
pub fn lateness_summary(run: &ServeRun) -> (f64, f64) {
    if run.lateness_ms.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = run.lateness_ms.clone();
    sorted.sort_by(f64::total_cmp);
    (stats::quantile(&sorted, 0.99), sorted[sorted.len() - 1])
}
