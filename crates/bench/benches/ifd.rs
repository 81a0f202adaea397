//! Benchmark: the general IFD water-filling solver across (M, k) and
//! policies — the kernel behind the red curve of Figure 1, every SPoA
//! evaluation and every mechanism-search candidate — with the trajectory
//! recorded in `BENCH_ifd.json` at the repo root.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dispersal_core::ifd::{solve_ifd, solve_ifd_allow_degenerate, solve_ifd_with_context};
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::{Exclusive, Sharing, TableCongestion, TwoLevel};
use dispersal_core::value::ValueProfile;
use dispersal_search::mech_space::{MechFamily, ParamBox};

/// The nested-bisection solvers the water-filling core replaced, shared
/// with the core's oracle test; the quick guard times against them.
#[allow(dead_code)]
#[path = "../../core/tests/oracle/nested_bisection.rs"]
mod nested_bisection;

#[path = "common/search_candidates.rs"]
mod search_candidates;

fn bench_ifd_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ifd_solve");
    for &m in &[10usize, 100, 1000] {
        for &k in &[2usize, 8, 32] {
            let f = ValueProfile::zipf(m, 1.0, 1.0).unwrap();
            group.bench_with_input(BenchmarkId::new(format!("sharing_m{m}"), k), &k, |b, &k| {
                b.iter(|| solve_ifd(&Sharing, black_box(&f), k).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_ifd_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ifd_policy");
    let f = ValueProfile::zipf(200, 1.0, 0.9).unwrap();
    let k = 8;
    group.bench_function("exclusive", |b| {
        b.iter(|| solve_ifd(&Exclusive, black_box(&f), k).unwrap())
    });
    group.bench_function("sharing", |b| b.iter(|| solve_ifd(&Sharing, black_box(&f), k).unwrap()));
    group.bench_function("aggressive", |b| {
        b.iter(|| solve_ifd(&TwoLevel { c: -0.5 }, black_box(&f), k).unwrap())
    });
    group.finish();
}

/// Player count of `search_mech`'s default configuration (its profile is
/// zipf(12, 1)).
const SEARCH_K: usize = 6;

/// A candidate as the mechanism search scores it: the table of the
/// piecewise root box's centre, on zipf(12, 1).
fn search_candidate() -> (TableCongestion, ValueProfile) {
    let centre = ParamBox::root(MechFamily::Piecewise, SEARCH_K).unwrap().center();
    let policy = TableCongestion::new(centre.table(SEARCH_K).unwrap(), centre.spec()).unwrap();
    (policy, ValueProfile::zipf(12, 1.0, 1.0).unwrap())
}

fn bench_ifd_search_candidate(c: &mut Criterion) {
    let mut group = c.benchmark_group("ifd_search");
    let (policy, f) = search_candidate();
    group.bench_function("piecewise_centre_k6_zipf12", |b| {
        b.iter(|| solve_ifd(&policy, black_box(&f), SEARCH_K).unwrap())
    });
    // The search's first 200 candidates, one solve each per iteration,
    // as the search solves them.
    let candidates = search_candidates::search_candidates(SEARCH_K, 200);
    group.bench_function("forest_k6_zipf12", |b| {
        b.iter(|| {
            for c in &candidates {
                black_box(solve_ifd_allow_degenerate(c, black_box(&f), SEARCH_K).ok());
            }
        })
    });
    group.finish();
}

/// CI guard mode (`-- --quick`): the water-filling core must stay faster
/// than the nested bisection it replaced (same bits, checked by the
/// core's `ifd_equivalence` test) on a search-shaped candidate. The win
/// is fewer `g` evaluations, not parallelism, so it holds on one core.
fn quick_guard() -> ! {
    use dispersal_bench::guard;
    let (policy, f) = search_candidate();
    let ctx = PayoffContext::new(&policy, SEARCH_K).unwrap();
    let nested_time = guard::time_per_call(20, || {
        black_box(nested_bisection::solve_ifd_with_context(&ctx, black_box(&f), 90).unwrap());
    });
    let core_time = guard::time_per_call(20, || {
        black_box(solve_ifd_with_context(&ctx, black_box(&f)).unwrap());
    });
    let ok = guard::check_speedup(
        "ifd water-filling-vs-nested-bisection k=6 zipf(12)",
        nested_time,
        core_time,
    );
    guard::finish(ok)
}

criterion_group!(benches, bench_ifd_scaling, bench_ifd_policies, bench_ifd_search_candidate);

fn main() {
    if dispersal_bench::guard::quick_mode() {
        quick_guard();
    }
    benches();
}
