//! Benchmark: Monte-Carlo throughput (trials/sec) through the unified
//! `sim::engine` at 1 vs N worker threads — the parallel-speedup
//! trajectory recorded in `BENCH_engine.json` at the repo root — plus
//! the `pool_reuse` dispatch cost of the persistent work-stealing pool
//! and the single-thread cost of one trial (`oneshot_play_20k`).
//!
//! The thread count is swept with `rayon::set_num_threads`, an atomic
//! override specific to the vendored pool (registry rayon pins its global
//! pool at first use — there this file fails to compile, on purpose, so
//! the sweep is not silently reduced to one pool size). On a single-core
//! host the multi-thread rows measure pool overhead, not speedup; record
//! the host core count next to any number you archive.
//!
//! `pool_reuse` measures the per-`execute()` dispatch cost of a small
//! (64-item, trivial-work) batch at 4 workers. Before the persistent
//! pool, every `execute()` spawned and joined its scoped workers, so this
//! cost was bounded below by 4 × thread spawn/join; with the persistent
//! deque pool it is a wake/steal/park cycle on already-running threads.
//!
//! `oneshot_play_20k` times 20 000 back-to-back `play_coverage` calls per
//! iteration on one game and stream (divide by 20 000 for one trial): the
//! keystream draws plus the visited-site walk, without the engine around
//! them. The M = 1000 case shows the walk costing O(k + M/64), not O(M);
//! `m20_k8` is the game of the thread sweep and of the repo benchmark's
//! `mc` workload.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dispersal_core::policy::Exclusive;
use dispersal_core::strategy::{Strategy, StrategySampler};
use dispersal_core::value::ValueProfile;
use dispersal_sim::montecarlo::{estimate_symmetric, McConfig};
use dispersal_sim::oneshot::OneShotGame;
use dispersal_sim::rng::Seed;
use rand::RngCore;
use std::time::Instant;

const TRIALS: u64 = 200_000;

/// One-shot plays per `oneshot_play_20k` iteration.
const PLAYS: u32 = 20_000;

/// The two-thread floor of the quick guard: one 200k-trial call on two
/// workers must run at least this many times faster than on one.
const MIN_TWO_THREAD_SPEEDUP: f64 = 1.4;

/// Alias draws per timed call of the alias-draw floor; the keystream side
/// reads the `2·DRAWS` words they consume.
const DRAWS: usize = 1_000_000;

/// The alias-draw floor of the quick guard: `DRAWS` sampler draws may
/// take at most this many times as long as the `2·DRAWS` raw keystream
/// words they read. On a 2-vCPU x86-64 VM the integer draw reads about
/// 1.4×, and the float draw it replaced (a 64-bit divide for the column,
/// a float compare and branch to accept) read 3.2×.
const MAX_DRAW_OVER_KEYSTREAM: f64 = 2.5;

/// One small parallel dispatch: 64 near-trivial items, the regime where
/// per-`execute()` fixed costs (historically: thread respawn) dominate.
fn small_dispatch() -> f64 {
    use rayon::prelude::*;
    let out: Vec<f64> = (0..64u64).into_par_iter().map(|i| (i as f64 + 1.0).sqrt()).collect();
    out[63]
}

/// The fixed cost the pre-persistent pool paid on every `execute()`:
/// spawning and joining one scoped OS thread per worker.
fn spawn_join_4_threads() {
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| black_box(0u64));
        }
    });
}

fn bench_engine_thread_sweep(c: &mut Criterion) {
    let f = ValueProfile::zipf(20, 1.0, 1.0).unwrap();
    let p = Strategy::proportional(f.values()).unwrap();
    let mut group = c.benchmark_group("engine_mc_200k_trials");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        rayon::set_num_threads(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| {
                black_box(
                    estimate_symmetric(
                        &f,
                        &Exclusive,
                        &p,
                        8,
                        McConfig { trials: TRIALS, seed: 2, shards: 64 },
                    )
                    .unwrap(),
                )
            })
        });
    }
    rayon::set_num_threads(0);
    group.finish();
}

fn bench_oneshot_play(c: &mut Criterion) {
    let mut group = c.benchmark_group("oneshot_play_20k");
    for &(m, k) in &[(50usize, 2usize), (50, 16), (50, 128), (1000, 8), (20, 8)] {
        let f = ValueProfile::zipf(m, 1.0, 1.0).unwrap();
        let p = Strategy::proportional(f.values()).unwrap();
        let mut game = OneShotGame::symmetric(&f, &Exclusive, &p, k).unwrap();
        let mut rng = Seed(1).rng();
        group.bench_function(format!("m{m}_k{k}"), |b| {
            b.iter(|| {
                for _ in 0..PLAYS {
                    black_box(game.play_coverage(&mut rng));
                }
            })
        });
    }
    group.finish();
}

fn bench_pool_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_pool_reuse");
    rayon::set_num_threads(4);
    group.bench_function("dispatch_64_items_4_threads", |b| b.iter(|| black_box(small_dispatch())));
    rayon::set_num_threads(0);
    group.bench_function("spawn_join_4_threads", |b| b.iter(spawn_join_4_threads));
    group.finish();
}

/// Median seconds per 200k-trial call at one and at two workers: 7 calls
/// each, alternating, after one warm-up call at each width.
fn one_vs_two_thread_medians(run: impl Fn()) -> (f64, f64) {
    let time_at = |threads: usize| {
        rayon::set_num_threads(threads);
        let started = Instant::now();
        run();
        started.elapsed().as_secs_f64()
    };
    time_at(1);
    time_at(2);
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        one.push(time_at(1));
        two.push(time_at(2));
    }
    rayon::set_num_threads(0);
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    (median(one), median(two))
}

/// Seconds per call of `DRAWS` alias draws from `sampler` and of the
/// `2·DRAWS` raw keystream words they read, on one stream.
fn draw_and_keystream_times(sampler: &StrategySampler) -> (f64, f64) {
    use dispersal_bench::guard;
    let mut rng = Seed(1).rng();
    let draws = guard::time_per_call(10, || {
        let mut sites = 0usize;
        for _ in 0..DRAWS {
            sites = sites.wrapping_add(sampler.sample(&mut rng));
        }
        black_box(sites);
    });
    let keystream = guard::time_per_call(10, || {
        let mut words = 0u64;
        for _ in 0..2 * DRAWS {
            words ^= rng.next_u64();
        }
        black_box(words);
    });
    (draws, keystream)
}

/// CI guard mode (`-- --quick`), four floors:
///
/// 1. The 4-thread pool must stay within a coarse overhead bound of the
///    1-thread run on the same workload. CI runners may be single-core,
///    so a parallel *speedup* cannot be required — but queue/lock
///    pathology (a regression serializing workers behind contention)
///    shows up as a blown overhead ratio on any host. The two runs must
///    also agree bit-for-bit (the pool's determinism contract), checked
///    before any timing verdict.
/// 2. `pool_reuse`: dispatching a small batch on the persistent pool must
///    beat the old per-`execute()` price of spawning + joining 4 OS
///    threads, measured live on the same host. A regression back to
///    respawn-per-execute (or a wake path slower than spawning) fails
///    the build host-independently.
/// 3. On hosts with at least two cores, a 200k-trial call on two workers
///    must be at least [`MIN_TWO_THREAD_SPEEDUP`]× faster than on one
///    (medians of 7 alternating calls). Shards share nothing but the
///    merge, so a lower ratio means a serial bottleneck crept into the
///    engine or the pool. Single-core hosts skip this floor with a note.
/// 4. `alias-draw-vs-keystream`: [`DRAWS`] draws from the `mc` game's
///    sampler must take at most [`MAX_DRAW_OVER_KEYSTREAM`]× the time of
///    the `2·DRAWS` keystream words they read. A draw that grows a divide
///    or a data-dependent branch again fails it on any host.
fn quick_guard() -> ! {
    use dispersal_bench::guard;
    let f = ValueProfile::zipf(20, 1.0, 1.0).unwrap();
    let p = Strategy::proportional(f.values()).unwrap();
    let cfg = McConfig { trials: 20_000, seed: 2, shards: 64 };
    let run = || estimate_symmetric(&f, &Exclusive, &p, 8, cfg).unwrap();
    rayon::set_num_threads(1);
    let reference = run();
    let single = guard::time_per_call(5, || {
        black_box(run());
    });
    rayon::set_num_threads(4);
    let pooled_out = run();
    let pooled = guard::time_per_call(5, || {
        black_box(run());
    });
    if pooled_out.payoff.mean.to_bits() != reference.payoff.mean.to_bits() {
        eprintln!(
            "quick-guard engine: 4-thread mean {} != 1-thread mean {} (determinism break)",
            pooled_out.payoff.mean, reference.payoff.mean
        );
        std::process::exit(1);
    }
    let overhead_ok = guard::check_overhead("engine pool_overhead 4-thread", single, pooled, 4.0);
    // pool_reuse floor: persistent dispatch vs live spawn/join cost.
    let dispatch = guard::time_per_call(200, || {
        black_box(small_dispatch());
    });
    rayon::set_num_threads(0);
    let respawn = guard::time_per_call(200, spawn_join_4_threads);
    let reuse_ok = guard::check_speedup("engine pool_reuse dispatch-vs-respawn", respawn, dispatch);
    let label = "engine two-thread speedup";
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let two_thread_ok = if cores < 2 {
        println!("quick-guard {label}: skipped, {cores} core available");
        true
    } else {
        let cfg = McConfig { trials: TRIALS, seed: 2, shards: 64 };
        let (one, two) = one_vs_two_thread_medians(|| {
            black_box(estimate_symmetric(&f, &Exclusive, &p, 8, cfg).unwrap());
        });
        let speedup = one / two;
        println!(
            "quick-guard {label}: 1 thread {:.1} ms/call, 2 threads {:.1} ms/call, \
             speedup {speedup:.2}x (min {MIN_TWO_THREAD_SPEEDUP:.2}x, {cores} cores)",
            one * 1e3,
            two * 1e3,
        );
        speedup >= MIN_TWO_THREAD_SPEEDUP
    };
    let (draws, keystream) = draw_and_keystream_times(&StrategySampler::new(&p));
    let draw_ok = guard::check_overhead(
        "engine alias-draw-vs-keystream",
        keystream,
        draws,
        MAX_DRAW_OVER_KEYSTREAM,
    );
    guard::finish(overhead_ok && reuse_ok && two_thread_ok && draw_ok)
}

criterion_group!(benches, bench_engine_thread_sweep, bench_pool_reuse, bench_oneshot_play);

fn main() {
    if dispersal_bench::guard::quick_mode() {
        quick_guard();
    }
    benches();
}
