//! Benchmark: the search substrate — per-round σ⋆ recomputation on the
//! shifting posterior, plan evaluation over a horizon, and the
//! mechanism-space search's batched expansion tile (one `GBatch` over a
//! sibling set vs one `GTable` per child), the trajectory recorded in
//! `BENCH_search.json` at the repo root.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dispersal_core::kernel::{GBatch, GTable};
use dispersal_search::astar::IteratedSigmaStar;
use dispersal_search::game::evaluate_plan;
use dispersal_search::mech_space::{MechFamily, ParamBox};
use dispersal_search::plan::SearchPlan;
use dispersal_search::prior::Prior;

fn bench_plan_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("astar_50_rounds");
    group.sample_size(20);
    for &m in &[20usize, 100, 500] {
        let prior = Prior::zipf(m, 1.0).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                let mut plan = IteratedSigmaStar::new(&prior, 4).unwrap();
                plan.round(49).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate_plan_horizon200");
    group.sample_size(20);
    let prior = Prior::zipf(100, 1.0).unwrap();
    for &k in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut plan = IteratedSigmaStar::new(&prior, k).unwrap();
                evaluate_plan(&mut plan, &prior, k, 200).unwrap()
            })
        });
    }
    group.finish();
}

/// The grid the mechanism search evaluates per expansion tile
/// (`parallel::RESPONSE_GRID` + 1 points).
const TILE_GRID: usize = 33;

fn tile_qs() -> Vec<f64> {
    (0..TILE_GRID).map(|i| i as f64 / (TILE_GRID - 1) as f64).collect()
}

/// One expansion's sibling set: the piecewise root box split into
/// `children` slabs, each child expanded to its center's coefficient
/// table.
fn sibling_tables(children: usize, k: usize) -> Vec<Vec<f64>> {
    let root = ParamBox::root(MechFamily::Piecewise, k).unwrap();
    root.split(children, k).unwrap().iter().map(|bx| bx.center().table(k).unwrap()).collect()
}

/// Batched expansion: one `GBatch` over the whole sibling set — one
/// log-factorial row and one shared basis column per grid point.
fn expand_batched(rows: &[Vec<f64>], qs: &[f64]) -> f64 {
    let batch = GBatch::from_rows(rows.to_vec()).unwrap();
    let grid = batch.eval_grid(qs);
    grid[grid.len() / 2]
}

/// Sequential expansion: the pre-batch formulation — every child builds
/// its own `GTable` (its own log-factorial row) and evaluates its own
/// curve.
fn expand_sequential(rows: &[Vec<f64>], qs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for row in rows {
        let table = GTable::from_coefficients(row.clone()).unwrap();
        let mut out = vec![0.0; qs.len()];
        table.eval_fused_many_into(qs, &mut out).unwrap();
        acc += out[qs.len() / 2];
    }
    acc
}

fn bench_mech_tile(c: &mut Criterion) {
    let qs = tile_qs();
    let mut group = c.benchmark_group("mech_expansion_tile");
    group.sample_size(20);
    for &(children, k) in &[(4usize, 8usize), (16, 16), (16, 64)] {
        let rows = sibling_tables(children, k);
        let label = format!("b{children}_k{k}");
        group.bench_with_input(BenchmarkId::new("batched", &label), &children, |b, _| {
            b.iter(|| black_box(expand_batched(black_box(&rows), &qs)))
        });
        group.bench_with_input(BenchmarkId::new("sequential", &label), &children, |b, _| {
            b.iter(|| black_box(expand_sequential(black_box(&rows), &qs)))
        });
    }
    group.finish();
}

/// CI guard mode (`-- --quick`): the mechanism search's batched
/// expansion tile must not regress below per-child sequential
/// evaluation. This floor is core-count independent — the win is
/// construction/basis amortization (one log-factorial row and one basis
/// walk per grid point for the whole sibling set), not parallelism — so
/// it holds on the single-core CI host.
fn quick_guard() -> ! {
    use dispersal_bench::guard;
    let qs = tile_qs();
    let (children, k) = (16usize, 64usize);
    let rows = sibling_tables(children, k);
    let sequential_time = guard::time_per_call(200, || {
        black_box(expand_sequential(black_box(&rows), &qs));
    });
    let batched_time = guard::time_per_call(200, || {
        black_box(expand_batched(black_box(&rows), &qs));
    });
    let ok = guard::check_speedup(
        "search batched-vs-sequential-expansion b=16 k=64",
        sequential_time,
        batched_time,
    );
    guard::finish(ok)
}

criterion_group!(benches, bench_plan_rounds, bench_evaluate, bench_mech_tile);

fn main() {
    if dispersal_bench::guard::quick_mode() {
        quick_guard();
    }
    benches();
}
