//! Benchmark: the kernel-backed ESS checker vs the pre-kernel scalar
//! path — full `k`-level payoff ledgers and invasion-barrier grid walks
//! at k ∈ {16, 64, 256}, the trajectory recorded in `BENCH_ess.json` at
//! the repo root.
//!
//! Variants per k:
//!
//! * `ledger/scalar` — the pre-kernel formulation
//!   (`dispersal_core::ess::reference_ledger`, the shared equivalence
//!   baseline): every ledger level rebuilds the `O(k²)` Poisson–binomial
//!   DP per site per column (`O(M·k³)` for a full ledger);
//! * `ledger/kernel` — `ess_ledger`: per-site `PbTable`s built once
//!   (shared across equal-`σ(x)` sites via `PbCache`), then one `O(k)`
//!   `replace` rank update per site per level (`O(M·k²)` total);
//! * `ledger/evaluator` — `LedgerEvaluator::ledger` with the baseline
//!   tables amortized across calls, the `probe_ess_k` regime where one
//!   resident faces many mutants;
//! * `barrier/scalar` — invasion barrier via two `mixture_payoff`
//!   evaluations per grid point (two site-value passes + allocations);
//! * `barrier/kernel` — `invasion_barrier` with a one-type invader
//!   mixture: one site-value pass per point (bit-identical results).
//!
//! The `probe` group times whole `probe_ess_k` calls with 16 random
//! mutants on zipf(12, 1), the mechanism search's profile: on the IFD of
//! its certificate, `piecewise:t=6,c1=0,d=0` (the exclusive table) at
//! `k = 6`, where every verdict settles at level 0 or 1, and on σ⋆ at
//! `k = 32`.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dispersal_core::ess::{
    ess_ledger, invasion_barrier, probe_ess_k, reference_ledger, LedgerEvaluator, Mixture,
};
use dispersal_core::ifd::solve_ifd;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::{Congestion, Exclusive, TableCongestion};
use dispersal_core::sigma_star::sigma_star;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_search::mech_space::{MechFamily, MechPoint};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The probe with every verdict taken from the full ledger, as before the
/// lazy `LedgerEvaluator::check`; shared with the core's oracle test, the
/// quick guard times against it.
#[path = "../../core/tests/oracle/full_ledger_verdict.rs"]
mod full_ledger_verdict;

const SITES: usize = 6;
const BARRIER_GRID: usize = 64;
/// Sites of the search's profile, zipf(12, 1).
const SEARCH_SITES: usize = 12;
const PROBE_MUTANTS: usize = 16;

/// The search's certificate, `piecewise:t=6,c1=0,d=0` at `k = 6`.
fn certificate_policy() -> TableCongestion {
    let point = MechPoint { family: MechFamily::Piecewise, params: vec![6.0, 0.0, 0.0] };
    assert_eq!(point.spec(), "piecewise:t=6,c1=0,d=0");
    TableCongestion::new(point.table(6).unwrap(), point.spec()).unwrap()
}

/// The pre-kernel barrier: two mixture payoffs per grid point.
fn scalar_barrier(
    ctx: &PayoffContext,
    f: &ValueProfile,
    sigma: &Strategy,
    pi: &Strategy,
    grid: usize,
) -> f64 {
    let mut last_good = 0.0;
    for i in 1..=grid {
        let eps = i as f64 / grid as f64;
        let u_sigma = ctx.mixture_payoff(f, sigma, sigma, pi, eps).unwrap();
        let u_pi = ctx.mixture_payoff(f, pi, sigma, pi, eps).unwrap();
        if u_sigma - u_pi > 0.0 {
            last_good = eps;
        } else {
            break;
        }
    }
    last_good
}

fn bench_ess(c: &mut Criterion) {
    let f = ValueProfile::zipf(SITES, 1.0, 1.0).unwrap();
    let pi = Strategy::uniform(SITES).unwrap();

    let mut group = c.benchmark_group("ess_ledger");
    group.sample_size(10);
    for &k in &[16usize, 64, 256] {
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let sigma = sigma_star(&f, k).unwrap().strategy;
        group.bench_with_input(BenchmarkId::new("scalar", k), &k, |b, _| {
            b.iter(|| black_box(reference_ledger(&ctx, &f, &sigma, black_box(&pi)).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("kernel", k), &k, |b, _| {
            b.iter(|| black_box(ess_ledger(&ctx, &f, &sigma, black_box(&pi)).unwrap()))
        });
        let evaluator = LedgerEvaluator::new(&ctx, &f, &sigma).unwrap();
        group.bench_with_input(BenchmarkId::new("evaluator", k), &k, |b, _| {
            b.iter(|| black_box(evaluator.ledger(black_box(&pi)).unwrap()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("invasion_barrier");
    group.sample_size(10);
    let invaders = Mixture::new(vec![pi.clone()], vec![1.0]).unwrap();
    for &k in &[16usize, 64, 256] {
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let sigma = sigma_star(&f, k).unwrap().strategy;
        group.bench_with_input(BenchmarkId::new("scalar", k), &k, |b, _| {
            b.iter(|| black_box(scalar_barrier(&ctx, &f, &sigma, black_box(&pi), BARRIER_GRID)))
        });
        group.bench_with_input(BenchmarkId::new("kernel", k), &k, |b, _| {
            b.iter(|| {
                black_box(
                    invasion_barrier(&ctx, &f, &sigma, black_box(&invaders), BARRIER_GRID).unwrap(),
                )
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("probe");
    group.sample_size(10);
    let f = ValueProfile::zipf(SEARCH_SITES, 1.0, 1.0).unwrap();
    let policy = certificate_policy();
    let ifd = solve_ifd(&policy, &f, 6).unwrap().strategy;
    group.bench_function("ifd_piecewise_k6", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            black_box(probe_ess_k(&policy, &f, black_box(&ifd), PROBE_MUTANTS, &mut rng, 6))
        })
    });
    let star = sigma_star(&f, 32).unwrap().strategy;
    group.bench_function("sigma_star_k32", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            black_box(probe_ess_k(&Exclusive, &f, black_box(&star), PROBE_MUTANTS, &mut rng, 32))
        })
    });
    group.finish();
}

/// CI guard mode (`-- --quick`): two floors, each failing the process if
/// the faster path has regressed below its baseline.
///
/// * `ess ledger_kernel_speedup k=32` — the pre-kernel scalar ledger vs
///   the `PbTable` rank-update ledger.
/// * `ess lazy-check-vs-full-ledger` — `probe_ess_k`, whose verdicts walk
///   only the levels they need, vs the same probe taking every verdict
///   from the full ledger: the `probe` group's two cases, same mutants.
///   The lazy probe must take at most half the time.
fn quick_guard() -> ! {
    use dispersal_bench::guard;
    let f = ValueProfile::zipf(SITES, 1.0, 1.0).unwrap();
    let pi = Strategy::uniform(SITES).unwrap();
    let k = 32;
    let ctx = PayoffContext::new(&Exclusive, k).unwrap();
    let sigma = sigma_star(&f, k).unwrap().strategy;
    let scalar = guard::time_per_call(10, || {
        black_box(reference_ledger(&ctx, &f, &sigma, black_box(&pi)).unwrap());
    });
    let kernel = guard::time_per_call(10, || {
        black_box(ess_ledger(&ctx, &f, &sigma, black_box(&pi)).unwrap());
    });
    let kernel_ok = guard::check_speedup("ess ledger_kernel_speedup k=32", scalar, kernel);

    let f = ValueProfile::zipf(SEARCH_SITES, 1.0, 1.0).unwrap();
    let policy = certificate_policy();
    let cases = [
        (&policy as &dyn Congestion, solve_ifd(&policy, &f, 6).unwrap().strategy, 6),
        (&Exclusive, sigma_star(&f, 32).unwrap().strategy, 32),
    ];
    let full = guard::time_per_call(10, || {
        for (c, sigma, k) in &cases {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let probe =
                full_ledger_verdict::probe_ess_k(*c, &f, sigma, PROBE_MUTANTS, &mut rng, *k);
            black_box(probe.unwrap());
        }
    });
    let lazy = guard::time_per_call(10, || {
        for (c, sigma, k) in &cases {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            black_box(probe_ess_k(*c, &f, sigma, PROBE_MUTANTS, &mut rng, *k).unwrap());
        }
    });
    // A bare `> 1` would not notice laziness lost: the full-ledger probe
    // also reads about 1.1x against itself, because the oracle keeps its
    // ledgers. Require the lazy probe to take at most half the time.
    let lazy_ok = guard::check_overhead("ess lazy-check-vs-full-ledger", full, lazy, 0.5);
    guard::finish(kernel_ok & lazy_ok)
}

criterion_group!(benches, bench_ess);

fn main() {
    if dispersal_bench::guard::quick_mode() {
        quick_guard();
    }
    benches();
}
