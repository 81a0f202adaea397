//! Benchmark: the policy-batched `GBatch` GEMM evaluator vs the
//! per-policy `GTable` loop — evaluating a shared 1024-point q-grid
//! against P policies at once, the trajectory recorded in
//! `BENCH_batch.json` at the repo root.
//!
//! Four variants per `(P, k)` cell, all producing the full `P × 1024`
//! policy-major response matrix:
//!
//! * `gtable_loop` — the pre-batch formulation: one `GTable` per policy,
//!   each curve through `eval_many_with` (every policy pays its own
//!   per-point PMF recurrence: `P × O(k)` transcendentals per grid
//!   point);
//! * `gtable_fused_loop` — per-policy `eval_fused_many_into` (the
//!   strongest per-policy loop: still `P` basis walks per point);
//! * `gbatch_ref` — `GBatch::eval_many_with`: the shared basis column is
//!   built **once** per point, every row finished with the reference
//!   Kahan dot (outputs bit-identical to `gtable_loop`);
//! * `gbatch_gemm` — `GBatch::eval_fused_many_into`: one fused basis walk
//!   per point plus a blocked matrix–vector product (4 independent
//!   accumulator chains per row block).
//!
//! Throughput is rows/sec = `P × 1024 / wall`; speedup columns in the
//! JSON are against `gtable_loop`.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dispersal_core::kernel::{unit_grid, GBatch, GTable};

const GRID: usize = 1024;

fn qs() -> Vec<f64> {
    (0..GRID).map(|i| (i as f64 + 0.5) / GRID as f64).collect()
}

/// `count` distinct monotone congestion rows at player count `k`: a
/// power-law family `C(ℓ) = ℓ^{−β}` with `β` swept per row — the shape of
/// a mechanism catalog sharing one `k`.
fn policy_rows(count: usize, k: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            let beta = 0.25 + i as f64 * 0.125;
            (1..=k).map(|ell| (ell as f64).powf(-beta)).collect()
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let qs = qs();
    let mut group = c.benchmark_group("batch_grid_1024");
    group.sample_size(10);
    for &(p, k) in &[(4usize, 64usize), (16, 64), (64, 64), (16, 256)] {
        let rows = policy_rows(p, k);
        let tables: Vec<GTable> =
            rows.iter().map(|r| GTable::from_coefficients(r.clone()).unwrap()).collect();
        let batch = GBatch::from_rows(rows).unwrap();
        let mut out = vec![0.0; p * GRID];
        let label = format!("p{p}_k{k}");
        group.bench_with_input(BenchmarkId::new("gtable_loop", &label), &p, |b, _| {
            b.iter(|| {
                for (r, table) in tables.iter().enumerate() {
                    let mut scratch = table.scratch();
                    table
                        .eval_many_with(
                            &mut scratch,
                            black_box(&qs),
                            &mut out[r * GRID..(r + 1) * GRID],
                        )
                        .unwrap();
                }
                black_box(out[GRID / 2])
            })
        });
        group.bench_with_input(BenchmarkId::new("gtable_fused_loop", &label), &p, |b, _| {
            b.iter(|| {
                for (r, table) in tables.iter().enumerate() {
                    table
                        .eval_fused_many_into(black_box(&qs), &mut out[r * GRID..(r + 1) * GRID])
                        .unwrap();
                }
                black_box(out[GRID / 2])
            })
        });
        let mut scratch = batch.scratch();
        group.bench_with_input(BenchmarkId::new("gbatch_ref", &label), &p, |b, _| {
            b.iter(|| {
                batch.eval_many_with(&mut scratch, black_box(&qs), &mut out).unwrap();
                black_box(out[GRID / 2])
            })
        });
        group.bench_with_input(BenchmarkId::new("gbatch_gemm", &label), &p, |b, _| {
            b.iter(|| {
                batch.eval_fused_many_into(&mut scratch, black_box(&qs), &mut out).unwrap();
                black_box(out[GRID / 2])
            })
        });
    }
    group.finish();
}

/// CI guard mode (`-- --quick`), one floor per lane width:
///
/// * **scalar lane** — the per-policy `GTable` loop vs the `GBatch` GEMM
///   at the acceptance cell (16 policies, k = 64); fails the process if
///   the batched path has regressed below the per-policy loop. (On a
///   force-scalar or non-AVX2 run this times the scalar GEMM; on an
///   AVX2 host it times the dispatched lane — the floor holds either
///   way, so a dispatch regression to a slower path fails here too.)
/// * **AVX2 lane** — `simd::gemv_block4_avx2` vs `gemv_block4_scalar`
///   on the same policy-major matrix shape at k = 256 (wide dots, where
///   the lane difference is signal rather than loop overhead): the
///   intrinsics must beat the scalar unroll outright. Skipped (with a
///   note) on hosts without AVX2+FMA, where both entry points run the
///   identical scalar code.
/// * **AVX2 reference lane** — the daemon's lone exact tile (one row,
///   k = 64, the 257-point unit grid) through `GBatch::eval_many_with`
///   against the same points through the per-point `GTable::eval_with`,
///   which is the tile's whole scalar lane: the eight-point lane must
///   take at most half the time. Skipped (with a note) unless the
///   process dispatches to AVX2.
fn quick_guard() -> ! {
    use dispersal_bench::guard;
    use dispersal_core::simd;
    let qs = qs();
    let (p, k) = (16usize, 64usize);
    let rows = policy_rows(p, k);
    let tables: Vec<GTable> =
        rows.iter().map(|r| GTable::from_coefficients(r.clone()).unwrap()).collect();
    let batch = GBatch::from_rows(rows).unwrap();
    let mut out = vec![0.0; p * GRID];
    let loop_time = guard::time_per_call(10, || {
        for (r, table) in tables.iter().enumerate() {
            let mut scratch = table.scratch();
            table
                .eval_many_with(&mut scratch, black_box(&qs), &mut out[r * GRID..(r + 1) * GRID])
                .unwrap();
        }
        black_box(out[GRID / 2]);
    });
    let mut scratch = batch.scratch();
    let gemm_time = guard::time_per_call(10, || {
        batch.eval_fused_many_into(&mut scratch, black_box(&qs), &mut out).unwrap();
        black_box(out[GRID / 2]);
    });
    let gemm_ok = guard::check_speedup("batch gemm_speedup p=16 k=64", loop_time, gemm_time);
    let lane_ok = if simd::avx2_available() {
        let (lp, lk) = (16usize, 256usize);
        let lane_rows = policy_rows(lp, lk);
        let padded = lp.div_ceil(simd::GEMV_BLOCK) * simd::GEMV_BLOCK;
        let mut matrix = vec![0.0f64; padded * lk];
        for (r, row) in lane_rows.iter().enumerate() {
            matrix[r * lk..(r + 1) * lk].copy_from_slice(row);
        }
        let basis: Vec<f64> = (0..lk).map(|j| ((j as f64) + 0.5) / lk as f64).collect();
        let mut lane_out = vec![0.0f64; lp];
        let scalar_time = guard::time_per_call(2000, || {
            simd::gemv_block4_scalar(black_box(&matrix), lk, lp, black_box(&basis), &mut lane_out);
            black_box(lane_out[0]);
        });
        let avx2_time = guard::time_per_call(2000, || {
            simd::gemv_block4_avx2(black_box(&matrix), lk, lp, black_box(&basis), &mut lane_out);
            black_box(lane_out[0]);
        });
        guard::check_speedup("batch gbatch_gemm avx2-vs-scalar p=16 k=256", scalar_time, avx2_time)
    } else {
        println!("quick-guard batch: AVX2 lane floor skipped (host lacks avx2+fma)");
        true
    };
    let ref_ok = if simd::active_lane() == simd::Lane::Avx2 {
        let k = 64usize;
        let grid = unit_grid(256).unwrap();
        let row = policy_rows(1, k).remove(0);
        let table = GTable::from_coefficients(row.clone()).unwrap();
        let lone = GBatch::from_rows(vec![row]).unwrap();
        let mut curve = vec![0.0f64; grid.len()];
        let mut point_scratch = table.scratch();
        let scalar_time = guard::time_per_call(200, || {
            for (slot, &q) in curve.iter_mut().zip(black_box(&grid)) {
                *slot = table.eval_with(&mut point_scratch, q);
            }
            black_box(curve[grid.len() / 2]);
        });
        let mut tile_scratch = lone.scratch();
        let lane_time = guard::time_per_call(200, || {
            lone.eval_many_with(&mut tile_scratch, black_box(&grid), &mut curve).unwrap();
            black_box(curve[grid.len() / 2]);
        });
        guard::check_overhead(
            "batch gbatch_ref avx2-vs-scalar p=1 k=64",
            scalar_time,
            lane_time,
            0.5,
        )
    } else {
        println!("quick-guard batch: AVX2 reference-lane floor skipped (scalar lane dispatched)");
        true
    };
    guard::finish(gemm_ok && lane_ok && ref_ok)
}

criterion_group!(benches, bench_batch);

fn main() {
    if dispersal_bench::guard::quick_mode() {
        quick_guard();
    }
    benches();
}
