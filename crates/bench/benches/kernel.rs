//! Benchmark: the tabulated congestion-response kernel vs the scalar
//! reference path — grid evaluation of `g_C` over 1024 points at
//! k ∈ {4, 16, 64, 256}, the trajectory recorded in `BENCH_kernel.json`
//! at the repo root.
//!
//! Three variants per k:
//!
//! * `scalar` — per-point `PayoffContext::g`, which rebuilds the binomial
//!   PMF (three `ln`-factorial walks plus an allocation) on every call;
//! * `kernel` — `GTable::eval_many_with`: one O(k) setup at table build,
//!   then the allocation-free O(k) ratio recurrence per point
//!   (bit-identical results);
//! * `fused` — `GTable::eval_fused_many_into`: pre-divided recurrence
//!   factors and a fused dot product (agrees to ~1e-14, not bitwise);
//! * `interp` — the optional adaptive cubic-Hermite grid
//!   (`GridSpec::Interpolated`): O(1) per point through the bucket
//!   lookup, within a measured 1e-12 error bound.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dispersal_core::kernel::{GTable, GridSpec};
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Sharing;

const GRID: usize = 1024;

fn qs() -> Vec<f64> {
    (0..GRID).map(|i| (i as f64 + 0.5) / GRID as f64).collect()
}

fn bench_g_grid(c: &mut Criterion) {
    let qs = qs();
    let mut group = c.benchmark_group("g_grid_1024");
    group.sample_size(20);
    for &k in &[4usize, 16, 64, 256] {
        let ctx = PayoffContext::new(&Sharing, k).unwrap();
        group.bench_with_input(BenchmarkId::new("scalar", k), &k, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for &q in &qs {
                    acc += ctx.g(black_box(q)).unwrap();
                }
                black_box(acc)
            })
        });
        let table = ctx.kernel();
        let mut scratch = table.scratch();
        let mut out = vec![0.0; GRID];
        group.bench_with_input(BenchmarkId::new("kernel", k), &k, |b, _| {
            b.iter(|| {
                table.eval_many_with(&mut scratch, black_box(&qs), &mut out).unwrap();
                black_box(out[GRID / 2])
            })
        });
        group.bench_with_input(BenchmarkId::new("fused", k), &k, |b, _| {
            b.iter(|| {
                table.eval_fused_many_into(black_box(&qs), &mut out).unwrap();
                black_box(out[GRID / 2])
            })
        });
        let gridded = gridded(k);
        let mut gscratch = gridded.scratch();
        group.bench_with_input(BenchmarkId::new("interp", k), &k, |b, _| {
            b.iter(|| {
                gridded.eval_fast_many_with(&mut gscratch, black_box(&qs), &mut out).unwrap();
                black_box(out[GRID / 2])
            })
        });
    }
    group.finish();
}

/// The `interp` variant's table: Sharing at `k` with a 1e-12 grid.
fn gridded(k: usize) -> GTable {
    GTable::new(&Sharing, k).unwrap().with_spec(GridSpec::Interpolated { tol: 1e-12 }).unwrap()
}

/// CI guard mode (`-- --quick`): two floors, both required by the
/// analysis lint's `REQUIRED_GUARD_LABELS`:
///
/// * scalar reference vs the fused kernel at `k = 64` over the 1024-point
///   grid (`fused_speedup` must stay above 1);
/// * fused exact evaluation vs grid evaluation at `k = 256` over the same
///   grid — the bucket lookup must keep the `O(1)` grid path ahead of
///   the `O(k)` exact walk it replaces.
fn quick_guard() -> ! {
    use dispersal_bench::guard;
    let qs = qs();
    let ctx = PayoffContext::new(&Sharing, 64).unwrap();
    let table = ctx.kernel();
    let mut out = vec![0.0; GRID];
    let scalar = guard::time_per_call(20, || {
        let mut acc = 0.0;
        for &q in &qs {
            acc += ctx.g(black_box(q)).unwrap();
        }
        black_box(acc);
    });
    let fused = guard::time_per_call(20, || {
        table.eval_fused_many_into(black_box(&qs), &mut out).unwrap();
        black_box(out[GRID / 2]);
    });
    let fused_ok = guard::check_speedup("kernel fused_speedup k=64", scalar, fused);

    let grid = gridded(256);
    let fused_256 = guard::time_per_call(20, || {
        grid.eval_fused_many_into(black_box(&qs), &mut out).unwrap();
        black_box(out[GRID / 2]);
    });
    let mut scratch = grid.scratch();
    let interp = guard::time_per_call(20, || {
        grid.eval_fast_many_with(&mut scratch, black_box(&qs), &mut out).unwrap();
        black_box(out[GRID / 2]);
    });
    let interp_ok = guard::check_speedup("kernel interp-vs-fused k=256", fused_256, interp);
    guard::finish(fused_ok && interp_ok)
}

criterion_group!(benches, bench_g_grid);

fn main() {
    if dispersal_bench::guard::quick_mode() {
        quick_guard();
    }
    benches();
}
