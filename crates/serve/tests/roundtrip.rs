//! Daemon round-trip integration tests: every reply served over the
//! socket — through admission batching and the shared caches — must be
//! bit-identical (`to_bits`) to the same computation done as a direct
//! library call.

use dispersal_core::kernel::{unit_grid, GTable};
use dispersal_core::policy::validate_congestion;
use dispersal_core::prelude::*;
use dispersal_mech::catalog::{parse_policy, parse_profile, standard_catalog};
use dispersal_mech::evaluator::{catalog_response_matrix, ResponseCache};
use dispersal_serve::client::Client;
use dispersal_serve::server::{Metrics, Server, ServerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

fn lookup(value: &Value, name: &str) -> Value {
    let entries = value.as_object().unwrap_or_else(|| panic!("not an object: {value:?}"));
    entries
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("missing field {name:?} in {value:?}"))
}

fn floats(value: &Value) -> Vec<f64> {
    value
        .as_array()
        .unwrap_or_else(|| panic!("not an array: {value:?}"))
        .iter()
        .map(|v| match v {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            Value::UInt(u) => *u as f64,
            other => panic!("not a number: {other:?}"),
        })
        .collect()
}

fn uint(value: &Value) -> u64 {
    match value {
        Value::UInt(u) => *u,
        Value::Int(i) if *i >= 0 => *i as u64,
        other => panic!("not an unsigned integer: {other:?}"),
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: bit divergence at index {i}: {g} vs {w}");
    }
}

/// The daemon's exact response path, done directly: reference-mode
/// `GTable` evaluation of the policy's Bernstein coefficients.
fn direct_exact_curve(spec: &str, k: usize, resolution: usize) -> Vec<f64> {
    let policy = parse_policy(spec).unwrap();
    let coeffs = validate_congestion(policy.as_ref(), k).unwrap();
    let table = GTable::from_coefficients(coeffs).unwrap();
    let mut scratch = table.scratch();
    let qs = unit_grid(resolution).unwrap();
    let mut g = vec![0.0; qs.len()];
    table.eval_many_with(&mut scratch, &qs, &mut g).unwrap();
    g
}

/// Release `clients` connections at once through a barrier, each sending
/// one exact `response` request (cycling through four policies that share
/// `(k, resolution)`), and check every reply bit for bit against the
/// direct library call.
fn barrier_burst(addr: &str, clients: usize, k: usize, resolution: usize) {
    let specs = ["sharing", "two-level:-0.3", "power:2.0", "exclusive"];
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.to_string();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let spec = specs[i % specs.len()];
                let mut client = Client::connect(&addr).unwrap();
                barrier.wait();
                let line = format!(
                    "{{\"id\":{},\"cmd\":\"response\",\"policy\":\"{}\",\"k\":{},\"resolution\":{}}}",
                    i + 1,
                    spec,
                    k,
                    resolution
                );
                let result = client.request(&line).unwrap();
                (spec, result)
            })
        })
        .collect();

    for handle in handles {
        let (spec, result) = handle.join().unwrap();
        let got = floats(&lookup(&result, "g"));
        let want = direct_exact_curve(spec, k, resolution);
        assert_bits_eq(&got, &want, &format!("response({spec}) over the daemon"));
        assert_eq!(uint(&lookup(&result, "k")) as usize, k);
        assert_eq!(floats(&lookup(&result, "qs")).len(), resolution + 1);
    }
}

/// The burst must actually have been coalesced into shared kernel tiles,
/// not answered one-by-one.
fn assert_coalesced(metrics: Metrics) {
    assert!(
        metrics.avg_occupancy() >= 2.0,
        "expected cross-request batching, got occupancy {:.2} ({} requests / {} tiles)",
        metrics.avg_occupancy(),
        metrics.response_requests,
        metrics.response_groups
    );
}

#[test]
fn concurrent_response_burst_is_bit_identical_and_coalesced() {
    const CLIENTS: usize = 8;
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // The window closes once the burst stops growing for a quiet gap,
        // a twentieth of this cap: 2.5 ms leaves room for a loaded CI
        // box's straggling arrivals.
        batch_window: Duration::from_millis(50),
        max_batch: 256,
        ..ServerConfig::default()
    })
    .unwrap();
    barrier_burst(server.addr(), CLIENTS, 16, 64);
    let metrics = server.metrics();
    assert_eq!(metrics.response_requests, CLIENTS as u64);
    assert_coalesced(metrics);
    server.shutdown();
}

#[test]
fn lone_request_is_not_held_for_the_window_and_a_burst_closes_when_it_stops_growing() {
    const CLIENTS: usize = 8;
    const K: usize = 16;
    const RESOLUTION: usize = 64;
    // A cap far above any reply time: a dispatcher that held every batch
    // for the full window would take at least 2 s on each part below.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        batch_window: Duration::from_secs(2),
        max_batch: 256,
        ..ServerConfig::default()
    })
    .unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let started = Instant::now();
    let result = client
        .request(&format!(
            r#"{{"id":1,"cmd":"response","policy":"power:2.0","k":{K},"resolution":{RESOLUTION}}}"#
        ))
        .unwrap();
    let lone = started.elapsed();
    let got = floats(&lookup(&result, "g"));
    assert_bits_eq(&got, &direct_exact_curve("power:2.0", K, RESOLUTION), "lone response");
    assert!(lone < Duration::from_millis(500), "a lone request waited {lone:?}");

    let before = server.metrics();
    let started = Instant::now();
    barrier_burst(server.addr(), CLIENTS, K, RESOLUTION);
    let burst = started.elapsed();
    let after = server.metrics();
    assert!(burst < Duration::from_secs(1), "an 8-request burst took {burst:?}");
    let burst_metrics = Metrics {
        response_requests: after.response_requests - before.response_requests,
        response_groups: after.response_groups - before.response_groups,
        ..Metrics::default()
    };
    assert_eq!(burst_metrics.response_requests, CLIENTS as u64);
    assert_coalesced(burst_metrics);
    server.shutdown();
}

#[test]
fn interpolated_responses_share_the_grid_cache_and_match_direct_grids() {
    const K: usize = 12;
    const RESOLUTION: usize = 48;
    const TOL: f64 = 1e-9;
    let server = Server::bind(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for round in 0..2 {
        for (i, spec) in ["sharing", "two-level:-0.3"].iter().enumerate() {
            let line = format!(
                "{{\"id\":{},\"cmd\":\"response\",\"policy\":\"{}\",\"k\":{},\
                 \"resolution\":{},\"tol\":{}}}",
                10 * round + i,
                spec,
                K,
                RESOLUTION,
                TOL
            );
            let result = client.request(&line).unwrap();
            let got = floats(&lookup(&result, "g"));

            let policy = parse_policy(spec).unwrap();
            let coeffs = validate_congestion(policy.as_ref(), K).unwrap();
            let table = GTable::from_coefficients(coeffs)
                .unwrap()
                .with_spec(GridSpec::Interpolated { tol: TOL })
                .unwrap();
            let mut scratch = table.scratch();
            let qs = unit_grid(RESOLUTION).unwrap();
            let mut want = vec![0.0; qs.len()];
            table.eval_fast_many_with(&mut scratch, &qs, &mut want).unwrap();
            assert_bits_eq(&got, &want, &format!("interpolated response({spec})"));
        }
    }
    // Two distinct (policy, tol) grids, each built exactly once across
    // both rounds: the daemon's cache is warm after round 0.
    let (grid_stats, _) = server.cache_stats();
    assert_eq!(grid_stats.misses, 2, "each grid refined once");
    assert_eq!(grid_stats.hits, 2, "round two served from the warm cache");
    server.shutdown();
}

#[test]
fn equilibrium_ess_catalog_and_errors_round_trip() {
    let server = Server::bind(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Equilibrium vs a direct IFD solve.
    let result = client
        .request(r#"{"id":1,"cmd":"equilibrium","policy":"sharing","profile":"zipf:12:1.1","k":6}"#)
        .unwrap();
    let policy = parse_policy("sharing").unwrap();
    let f = parse_profile("zipf:12:1.1").unwrap();
    let ifd = solve_ifd_allow_degenerate(policy.as_ref(), &f, 6).unwrap();
    let cover = coverage(&f, &ifd.strategy, 6).unwrap();
    let ctx = PayoffContext::new(policy.as_ref(), 6).unwrap();
    let payoff = ctx.symmetric_payoff(&f, &ifd.strategy).unwrap();
    assert_bits_eq(&floats(&lookup(&result, "probs")), ifd.strategy.probs(), "equilibrium probs");
    assert_bits_eq(&[lookup_f64(&result, "coverage")], &[cover], "coverage");
    assert_bits_eq(&[lookup_f64(&result, "payoff")], &[payoff], "payoff");
    assert_bits_eq(&[lookup_f64(&result, "residual")], &[ifd.residual], "residual");
    assert_eq!(uint(&lookup(&result, "support")) as usize, ifd.support);

    // ESS probe vs a direct seeded probe.
    let result = client
        .request(r#"{"id":2,"cmd":"ess","profile":"zipf:10:1.0","k":4,"mutants":20,"seed":7}"#)
        .unwrap();
    let f = parse_profile("zipf:10:1.0").unwrap();
    let star = sigma_star(&f, 4).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let report = probe_ess_k(&Exclusive, &f, &star.strategy, 20, &mut rng, 4).unwrap();
    assert_eq!(lookup(&result, "passed"), Value::Bool(report.passed()));
    assert_eq!(uint(&lookup(&result, "mutants")) as usize, report.mutants_tested);
    assert_eq!(uint(&lookup(&result, "repelled")) as usize, report.repelled);
    assert_bits_eq(&[lookup_f64(&result, "worst_margin")], &[report.worst_margin], "worst margin");

    // Catalog scan vs the direct matrix.
    let result = client.request(r#"{"id":3,"cmd":"catalog","k":6,"resolution":32}"#).unwrap();
    let direct =
        catalog_response_matrix(&standard_catalog(), 6, 32, &ResponseCache::new()).unwrap();
    assert_bits_eq(&floats(&lookup(&result, "tolerance")), &direct.tolerance_score, "catalog");
    let names = lookup(&result, "names");
    assert_eq!(names.as_array().unwrap().len(), direct.names.len());

    // Per-request errors: bad specs and bad JSON answer in place without
    // harming the connection.
    let err =
        client.request(r#"{"id":4,"cmd":"response","policy":"warp-core","k":8}"#).unwrap_err();
    assert!(err.contains("warp"), "unexpected error text: {err}");
    let raw = client.call("this is not json").unwrap();
    assert!(raw.contains("\"ok\":false"), "malformed line must get an error reply: {raw}");

    // Stats, then a protocol-level shutdown; join() returns the final
    // metrics.
    let stats = client.request(r#"{"id":5,"cmd":"stats"}"#).unwrap();
    assert!(uint(&lookup(&stats, "requests")) >= 5);
    let bye = client.request(r#"{"id":6,"cmd":"shutdown"}"#).unwrap();
    assert_eq!(lookup(&bye, "stopping"), Value::Bool(true));
    let metrics = server.join();
    assert!(metrics.replies >= 7);
    assert!(metrics.errors >= 2);
}

#[test]
fn stats_reply_carries_the_counters_perfbench_reads() {
    let server = Server::bind(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Two identical catalog scans, then two identical interpolated
    // responses: one build and one warm hit in each cache.
    for id in 1..=2 {
        client.request(&format!(r#"{{"id":{id},"cmd":"catalog","k":6,"resolution":32}}"#)).unwrap();
    }
    for id in 3..=4 {
        let line = format!(
            r#"{{"id":{id},"cmd":"response","policy":"sharing","k":8,"resolution":16,"tol":1e-9}}"#
        );
        client.request(&line).unwrap();
    }
    let stats = client.request(r#"{"id":5,"cmd":"stats"}"#).unwrap();
    let counter = |path: &[&str]| path.iter().fold(stats.clone(), |v, name| lookup(&v, name));
    for path in [
        &["requests"][..],
        &["errors"],
        &["admissions"],
        &["response_requests"],
        &["response_groups"],
        &["caches", "grid", "hits"],
        &["caches", "grid", "misses"],
        &["caches", "grid", "evictions"],
        &["caches", "catalog", "hits"],
        &["caches", "catalog", "misses"],
    ] {
        uint(&counter(path));
    }
    assert_eq!(uint(&counter(&["requests"])), 5);
    assert_eq!(uint(&counter(&["response_requests"])), 2);
    let hits_misses = |cache: &str| {
        (uint(&counter(&["caches", cache, "hits"])), uint(&counter(&["caches", cache, "misses"])))
    };
    assert_eq!(hits_misses("catalog"), (1, 1));
    assert_eq!(hits_misses("grid"), (1, 1));
    server.shutdown();
}

#[test]
fn scenario_round_trip_matches_direct_tracking() {
    use dispersal_sim::replicator::ReplicatorConfig;
    use dispersal_sim::scenario::{run_scenario_replicator, Scenario, TrafficEvent};

    let server = Server::bind(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let result = client
        .request(
            r#"{"id":1,"cmd":"scenario","policy":"sharing","profile":"zipf:5:1.0","k":3,"epochs":4,"explore":1e-4,"events":[{"type":"daily","amplitude":0.2,"period":4},{"type":"shock","epoch":2,"site":4,"factor":3.0}]}"#,
        )
        .unwrap();

    let policy = parse_policy("sharing").unwrap();
    let f = parse_profile("zipf:5:1.0").unwrap();
    let scenario = Scenario::new(
        f,
        4,
        vec![
            TrafficEvent::Daily { amplitude: 0.2, period: 4 },
            TrafficEvent::Shock { epoch: 2, site: 4, factor: 3.0 },
        ],
    )
    .unwrap();
    let start = Strategy::uniform(5).unwrap();
    let want = run_scenario_replicator(
        policy.as_ref(),
        &scenario,
        &start,
        3,
        1e-4,
        ReplicatorConfig::default(),
    )
    .unwrap();

    let distances: Vec<f64> = want.records.iter().map(|r| r.ifd_distance).collect();
    assert_bits_eq(&floats(&lookup(&result, "ifd_distance")), &distances, "scenario distances");
    assert_bits_eq(
        &floats(&lookup(&result, "final_state")),
        want.final_state.probs(),
        "scenario final state",
    );
    let steps: Vec<u64> = floats(&lookup(&result, "steps")).iter().map(|&s| s as u64).collect();
    assert_eq!(steps, want.records.iter().map(|r| r.steps as u64).collect::<Vec<_>>());
    assert_eq!(lookup(&result, "converged"), Value::Bool(want.records.iter().all(|r| r.converged)));
    assert_eq!(uint(&lookup(&result, "epochs")), 4);

    // Scenario-level validation errors answer in place.
    let err = client
        .request(
            r#"{"id":2,"cmd":"scenario","policy":"sharing","profile":"zipf:5:1.0","k":3,"epochs":4,"events":[{"type":"drift","site":9,"rate":0.1}]}"#,
        )
        .unwrap_err();
    assert!(err.contains("out of range"), "unexpected error text: {err}");
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let path =
        std::env::temp_dir().join(format!("dispersal-serve-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = format!("unix:{}", path.display());
    let server = Server::bind(ServerConfig { addr, ..ServerConfig::default() }).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let result = client
        .request(r#"{"id":1,"cmd":"response","policy":"power:2.0","k":8,"resolution":16}"#)
        .unwrap();
    let got = floats(&lookup(&result, "g"));
    assert_bits_eq(&got, &direct_exact_curve("power:2.0", 8, 16), "unix-socket response");
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

fn lookup_f64(value: &Value, name: &str) -> f64 {
    match lookup(value, name) {
        Value::Float(f) => f,
        Value::Int(i) => i as f64,
        Value::UInt(u) => u as f64,
        other => panic!("field {name:?} is not a number: {other:?}"),
    }
}
