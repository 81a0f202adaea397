//! Load generator for the `dispersal serve` daemon: an embedded server,
//! a barrier-released burst of concurrent clients, and the sequential
//! cold-start baseline the daemon exists to beat (the running `dispersal`
//! executable, spawned once per request).
//!
//! Each round fires `--trials` concurrent response requests (default
//! 64) that share `(k, tol)` but carry distinct policies, so the
//! admission window can coalesce them into a handful of policy-major
//! kernel tiles. Recorded per run in `results/serve_loadgen.csv`:
//!
//! * requests/sec over the measured rounds;
//! * request latency percentiles (p50 / p95 / p99);
//! * average admission-batch occupancy (requests per kernel tile);
//! * the one-shot CLI baseline: the same burst as sequential
//!   `dispersal responses --policy <spec> -k <k>` process invocations,
//!   and the resulting daemon-vs-CLI throughput ratio.
//!
//! Environment knob for CI smoke: `SERVE_LOADGEN_MIN_OCCUPANCY` fails
//! the run if the measured average occupancy lands below it.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::{Error, Result};
use dispersal_serve::client::Client;
use dispersal_serve::server::{Server, ServerConfig};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const K: usize = 64;
const RESOLUTION: usize = 256;
const MEASURED_ROUNDS: usize = 5;

/// The burst's policy specs: distinct power-law mechanisms sharing one
/// `(k, tol)` shape, so every request is groupable but no two are the
/// same row.
fn burst_specs(burst: usize) -> Vec<String> {
    (0..burst).map(|i| format!("power:{}", 0.25 + i as f64 * 0.125)).collect()
}

/// Requests each client connection keeps in flight per round. A real
/// burst client pipelines; it also keeps the loadgen's own thread count
/// from drowning the measurement in scheduler churn.
const PIPELINE: usize = 4;

/// Drive the whole load phase: every client holds one persistent
/// connection (a warm daemon's steady state) and fires a pipeline of
/// `PIPELINE` requests per barrier-released round — one warm-up round,
/// then `rounds` measured ones. Returns the measured rounds' total wall
/// time and every measured request latency (send of the pipeline to
/// arrival of that reply).
fn run_rounds(addr: &str, specs: &[String], rounds: usize) -> Result<(Duration, Vec<Duration>)> {
    let chunks: Vec<Vec<String>> = specs.chunks(PIPELINE).map(<[String]>::to_vec).collect();
    // Every round is bracketed by two waits on the same reusable
    // barrier (start and end); the extra party is this thread, which
    // only keeps time.
    let barrier = Arc::new(Barrier::new(chunks.len() + 1));
    let handles: Vec<_> = chunks
        .into_iter()
        .enumerate()
        .map(|(chunk_index, chunk)| {
            let addr = addr.to_string();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || -> Result<Vec<Duration>> {
                let mut client = Client::connect(&addr).map_err(Error::from)?;
                let lines: Vec<String> = chunk
                    .iter()
                    .enumerate()
                    .map(|(j, spec)| {
                        format!(
                            "{{\"id\":{},\"cmd\":\"response\",\"policy\":\"{}\",\"k\":{},\
                             \"resolution\":{}}}",
                            chunk_index * PIPELINE + j + 1,
                            spec,
                            K,
                            RESOLUTION
                        )
                    })
                    .collect();
                let mut latencies = Vec::with_capacity(lines.len() * rounds);
                for round in 0..=rounds {
                    barrier.wait();
                    let started = Instant::now();
                    for line in &lines {
                        client.send(line).map_err(Error::from)?;
                    }
                    for _ in &lines {
                        let reply = client.recv().map_err(Error::from)?;
                        if !reply.contains("\"ok\":true") {
                            return Err(Error::InvalidArgument(format!(
                                "daemon rejected a burst request: {reply}"
                            )));
                        }
                        if round > 0 {
                            latencies.push(started.elapsed());
                        }
                    }
                    barrier.wait();
                }
                Ok(latencies)
            })
        })
        .collect();

    let mut wall = Duration::ZERO;
    for round in 0..=rounds {
        let started = Instant::now();
        barrier.wait(); // release the round
        barrier.wait(); // every reply is in
        if round > 0 {
            wall += started.elapsed();
        }
    }
    let mut latencies = Vec::with_capacity(specs.len() * rounds);
    for handle in handles {
        latencies.extend(
            handle.join().map_err(|_| Error::Internal { what: "loadgen client panicked" })??,
        );
    }
    Ok((wall, latencies))
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The sequential one-shot baseline: the same burst as fresh `dispersal`
/// process invocations (this executable), one response curve each.
/// Returns total wall time, or `None` when an invocation fails.
fn run_cli_baseline(specs: &[String]) -> Option<Duration> {
    let cli = std::env::current_exe().ok()?;
    let started = Instant::now();
    for spec in specs {
        let status = std::process::Command::new(&cli)
            .args(["responses", "--policy", spec, "-k", &K.to_string()])
            .stdout(std::process::Stdio::null())
            .status()
            .ok()?;
        if !status.success() {
            println!("serve_loadgen: CLI baseline skipped (invocation failed)");
            return None;
        }
    }
    Some(started.elapsed())
}

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let burst = ctx.trials_or(64) as usize;
    let specs = burst_specs(burst);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // The admission window closes once a burst stops growing for a
        // quiet gap (a twentieth of this cap, 150 µs); the 3 ms cap
        // bounds the wait for a round's stragglers, so it cannot
        // dominate the measured latency.
        batch_window: Duration::from_millis(3),
        max_batch: 4096,
        ..ServerConfig::default()
    })?;
    let addr = server.addr().to_string();

    // The first round inside run_rounds is an unmeasured warm-up: it
    // pays the one-time costs (connection accept, pool spin-up, first
    // tiles) so the measured rounds describe the steady-state daemon.
    // Occupancy is still measured across every round — the warm-up is
    // batched the same way — so snapshot the counters before, not after.
    let warm = server.metrics();
    let (wall, mut latencies) = run_rounds(&addr, &specs, MEASURED_ROUNDS)?;
    let metrics = server.metrics();

    let total_requests = (burst * MEASURED_ROUNDS) as f64;
    let rps = total_requests / wall.as_secs_f64();
    latencies.sort_unstable();
    let (p50, p95, p99) =
        (percentile(&latencies, 0.50), percentile(&latencies, 0.95), percentile(&latencies, 0.99));
    let measured_reqs = metrics.response_requests - warm.response_requests;
    let measured_groups = metrics.response_groups - warm.response_groups;
    let occupancy =
        if measured_groups == 0 { 0.0 } else { measured_reqs as f64 / measured_groups as f64 };

    println!("serve_loadgen: burst {burst} × {MEASURED_ROUNDS} rounds");
    println!("  throughput   = {rps:.1} req/s");
    println!(
        "  latency      = p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        p50.as_secs_f64() * 1e3,
        p95.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3
    );
    println!(
        "  occupancy    = {occupancy:.2} req/tile ({measured_reqs} requests over \
         {measured_groups} tiles)"
    );

    let cli_wall = run_cli_baseline(&specs);
    let (cli_rps, speedup) = match cli_wall {
        Some(wall_cli) => {
            let cli_rps = burst as f64 / wall_cli.as_secs_f64();
            let speedup = rps / cli_rps;
            println!(
                "  CLI baseline = {:.1} req/s over {} one-shot invocations \
                 (daemon is {speedup:.1}× the throughput)",
                cli_rps, burst
            );
            (cli_rps, speedup)
        }
        None => (f64::NAN, f64::NAN),
    };

    ctx.write_result(
        "serve_loadgen.csv",
        &format!(
            "burst,rounds,rps,p50_ms,p95_ms,p99_ms,occupancy,cli_rps,daemon_vs_cli\n\
             {burst},{MEASURED_ROUNDS},{rps:.3},{:.4},{:.4},{:.4},{occupancy:.3},{cli_rps:.3},\
             {speedup:.3}\n",
            p50.as_secs_f64() * 1e3,
            p95.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3
        ),
    )?;
    server.shutdown();

    if let Some(floor) =
        std::env::var("SERVE_LOADGEN_MIN_OCCUPANCY").ok().and_then(|raw| raw.parse::<f64>().ok())
    {
        check!(
            occupancy >= floor,
            "admission batching regressed: occupancy {occupancy:.2} < floor {floor}"
        );
        println!("  occupancy floor {floor} satisfied");
    }
    check!(rps > 0.0 && rps.is_finite(), "degenerate throughput: {rps}");
    Ok(())
}
