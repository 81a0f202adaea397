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

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dispersal_core::ess::{
    ess_ledger, invasion_barrier, reference_ledger, LedgerEvaluator, Mixture,
};
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Exclusive;
use dispersal_core::sigma_star::sigma_star;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;

const SITES: usize = 6;
const BARRIER_GRID: usize = 64;

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
}

/// CI guard mode (`-- --quick`): the pre-kernel scalar ledger vs the
/// `PbTable` rank-update ledger at `k = 32`; fails the process if the
/// kernel path has regressed below the scalar one.
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
    guard::finish(guard::check_speedup("ess ledger_kernel_speedup k=32", scalar, kernel))
}

criterion_group!(benches, bench_ess);

fn main() {
    if dispersal_bench::guard::quick_mode() {
        quick_guard();
    }
    benches();
}
