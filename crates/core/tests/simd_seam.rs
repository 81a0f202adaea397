//! SIMD/scalar seam tests: the lane contracts of `dispersal_core::simd`.
//!
//! Two classes of assertion, mirroring the module's documented bounds:
//!
//! * **Fused paths** (`gemv_block4`, `fused_fill`, `fused_dot`): the
//!   AVX2 lane agrees with the scalar lane to ≤ 1e-13 × scale — the
//!   same contract the fused evaluators carry against their scalar
//!   references.
//! * **Bitwise paths** (`convolve_step`, the reference tile's
//!   `ref_walk8`/`ref_dot8`, and every *reference* evaluator): bit-for-bit
//!   equality. `GTable::eval_many_with` and `GBatch::eval_many_with`
//!   dispatch their interior points to the reference lane, so whole
//!   grids must keep the per-point `GTable::eval_with` bits no matter
//!   which lane the process picked (CI runs this file on both lanes:
//!   the `DISPERSAL_FORCE_SCALAR=1` leg and a release run on AVX2).
//!
//! Runtime-gated by construction: the `*_avx2` entry points fall back
//! to the scalar lane on hosts without AVX2/FMA, so on such CI runners
//! every assertion still executes (as scalar-vs-scalar identities) and
//! the suite stays green; the direct reference-lane comparison is
//! skipped there with a note. On AVX2 hosts they exercise the real
//! intrinsics; `lanes_cover_avx2_on_capable_hosts` pins that this is
//! not vacuous there.

use dispersal_core::kernel::{GBatch, GTable};
use dispersal_core::numerics::binomial_pmf;
use dispersal_core::simd::{
    active_lane, avx2_available, convolve_step_avx2, convolve_step_scalar, force_scalar,
    fused_dot_avx2, fused_dot_scalar, fused_fill_avx2, fused_fill_scalar, gemv_block4_avx2,
    gemv_block4_scalar, ref_dot8_avx2, ref_dot8_scalar, ref_walk8_avx2, ref_walk8_scalar, Lane,
    RefSeeds, GEMV_BLOCK, REF_LANES,
};
use proptest::prelude::*;

/// Pre-divided fused-walk factors for degree `n` — the same formulas
/// `GTable`/`GBatch` precompute (`(n−j)/(j+1)` up, `(j+1)/(n−j)` down).
fn walk_factors(n: usize) -> (Vec<f64>, Vec<f64>) {
    let up = (0..n).map(|j| ((n - j) as f64) / ((j + 1) as f64)).collect();
    let down = (0..n).map(|j| ((j + 1) as f64) / ((n - j) as f64)).collect();
    (up, down)
}

/// Mode seed for the walk at `q`, from the exact binomial PMF.
fn mode_seed(n: usize, q: f64) -> (usize, f64) {
    let mode = (((n + 1) as f64) * q).floor().min(n as f64) as usize;
    (mode, binomial_pmf(n, mode, q))
}

#[test]
fn lanes_cover_avx2_on_capable_hosts() {
    // Non-vacuity: on an AVX2+FMA host without the force-scalar switch,
    // the dispatched lane must actually be Avx2 — otherwise every
    // comparison below silently degenerates to scalar-vs-scalar.
    if avx2_available() && !force_scalar() {
        assert_eq!(active_lane(), Lane::Avx2);
    } else {
        assert_eq!(active_lane(), Lane::Scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// AVX2 `gbatch_gemm` lane vs the scalar unroll: ≤ 1e-13 × scale on
    /// random padded policy-major matrices.
    #[test]
    fn gemv_lanes_agree_to_contract(
        rows in 1usize..10,
        cols in 1usize..70,
        seed_cells in proptest::collection::vec(-5.0f64..5.0, 1..=700),
        basis_seed in proptest::collection::vec(0.0f64..1.0, 1..=70),
    ) {
        let padded = rows.div_ceil(GEMV_BLOCK) * GEMV_BLOCK;
        let mut matrix = vec![0.0f64; padded * cols];
        for (slot, v) in matrix.iter_mut().take(rows * cols).zip(seed_cells.iter().cycle()) {
            *slot = *v;
        }
        let basis: Vec<f64> =
            (0..cols).map(|j| basis_seed[j % basis_seed.len()]).collect();
        let scale = matrix.iter().fold(1.0f64, |a, &c| a.max(c.abs()));
        let mut out_s = vec![0.0f64; rows];
        let mut out_v = vec![0.0f64; rows];
        gemv_block4_scalar(&matrix, cols, rows, &basis, &mut out_s);
        gemv_block4_avx2(&matrix, cols, rows, &basis, &mut out_v);
        // Basis entries are ≤ 1 and cols ≤ 70, so row dots are bounded by
        // cols × scale; 1e-13 × (cols × scale) is the documented O(k·ε).
        let bound = 1e-13 * (cols as f64) * scale;
        for (s, v) in out_s.iter().zip(out_v.iter()) {
            prop_assert!((s - v).abs() <= bound, "{s} vs {v} (bound {bound})");
        }
    }

    /// AVX2 fused-basis fill vs the scalar walk: every basis entry
    /// within 1e-13 (the column is a probability vector, scale 1).
    #[test]
    fn fused_fill_lanes_agree_to_contract(n in 1usize..200, q in 0.001f64..0.999) {
        let (up, down) = walk_factors(n);
        let (mode, b_mode) = mode_seed(n, q);
        let ratio = q / (1.0 - q);
        let inv_ratio = (1.0 - q) / q;
        let mut basis_s = vec![0.0f64; n + 1];
        let mut basis_v = vec![0.0f64; n + 1];
        fused_fill_scalar(&mut basis_s, &up, &down, mode, b_mode, ratio, inv_ratio);
        fused_fill_avx2(&mut basis_v, &up, &down, mode, b_mode, ratio, inv_ratio);
        for (j, (s, v)) in basis_s.iter().zip(basis_v.iter()).enumerate() {
            prop_assert!((s - v).abs() <= 1e-13, "j={j}: {s} vs {v}");
        }
    }

    /// AVX2 fused dot (the `eval_fused` walk) vs scalar: ≤ 1e-13 × the
    /// coefficient scale.
    #[test]
    fn fused_dot_lanes_agree_to_contract(
        q in 0.001f64..0.999,
        coeffs in proptest::collection::vec(-3.0f64..3.0, 2..=200),
    ) {
        let n = coeffs.len() - 1;
        let (up, down) = walk_factors(n);
        let (mode, b_mode) = mode_seed(n, q);
        let ratio = q / (1.0 - q);
        let inv_ratio = (1.0 - q) / q;
        let s = fused_dot_scalar(&coeffs, &up, &down, mode, b_mode, ratio, inv_ratio);
        let v = fused_dot_avx2(&coeffs, &up, &down, mode, b_mode, ratio, inv_ratio);
        let scale = coeffs.iter().fold(1.0f64, |a, &c| a.max(c.abs()));
        prop_assert!((s - v).abs() <= 1e-13 * scale, "{s} vs {v}");
    }

    /// The convolution lanes are bit-identical on arbitrary PMF chains —
    /// the property that keeps every bitwise `PbTable` contract
    /// lane-independent.
    #[test]
    fn convolve_lanes_are_bitwise_identical(
        probs in proptest::collection::vec(0.0f64..=1.0, 1..=40),
    ) {
        let n = probs.len();
        let mut a = vec![0.0f64; n + 1];
        let mut b = vec![0.0f64; n + 1];
        a[0] = 1.0;
        b[0] = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            convolve_step_scalar(&mut a, i, p);
            convolve_step_avx2(&mut b, i, p);
        }
        for (j, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "index {}", j);
        }
    }

    /// The reference evaluators keep their bits on whole grids: every
    /// entry of `GTable::eval_many_with` and of `GBatch::eval_many_with`
    /// (1–9 rows) equals the per-point `GTable::eval_with` of its row bit
    /// for bit, under whichever lane this process dispatched. Grids of
    /// 0–40 points mix the endpoints, `−0.0`, points 1e-13 outside
    /// `[0, 1]`, the smallest subnormal, `1 − 2⁻⁵³`, repeated quarter
    /// points and uniform draws; one scratch per evaluator serves every
    /// grid of a case, so a lane that read a slot left by an earlier
    /// pass or call would show here.
    #[test]
    fn reference_paths_are_bitwise_unchanged(
        shape in proptest::collection::vec(0.0f64..0.4, 0..=40),
        row_count in 1usize..=9,
        grids in proptest::collection::vec(
            proptest::collection::vec(grid_point(), 0..=40),
            2..=3,
        ),
    ) {
        let rows: Vec<Vec<f64>> = (0..row_count).map(|r| policy_row(&shape, r)).collect();
        let tables: Vec<GTable> =
            rows.iter().map(|row| GTable::from_coefficients(row.clone()).expect("table")).collect();
        let batch = GBatch::from_rows(rows).expect("batch");
        let mut batch_scratch = batch.scratch();
        let mut table_scratch = tables[0].scratch();
        let mut point_scratch = tables[0].scratch();
        for qs in &grids {
            let mut tile = vec![0.0f64; row_count * qs.len()];
            batch.eval_many_with(&mut batch_scratch, qs, &mut tile).expect("tile");
            let mut curve = vec![0.0f64; qs.len()];
            tables[0].eval_many_with(&mut table_scratch, qs, &mut curve).expect("curve");
            for (r, table) in tables.iter().enumerate() {
                for (i, &q) in qs.iter().enumerate() {
                    let reference = table.eval_with(&mut point_scratch, q);
                    prop_assert_eq!(
                        tile[r * qs.len() + i].to_bits(),
                        reference.to_bits(),
                        "GBatch row {} of {}, k = {}, q = {:e} (grid {:?})",
                        r, row_count, shape.len() + 1, q, qs
                    );
                    if r == 0 {
                        prop_assert_eq!(
                            curve[i].to_bits(),
                            reference.to_bits(),
                            "GTable k = {}, q = {:e} (grid {:?})",
                            shape.len() + 1, q, qs
                        );
                    }
                }
            }
        }
    }

    /// The reference lane against its scalar lane, directly: the walk's
    /// whole interleaved buffer and every row dot agree bit for bit. The
    /// two buffers start out holding different garbage, so a slot the
    /// AVX2 walk read before writing it would differ too. Skipped with a
    /// note off AVX2, where both entry points run the scalar lane.
    #[test]
    fn reference_lane_matches_scalar_lane_bitwise(
        n in 1usize..=300,
        qs in proptest::collection::vec(grid_point(), REF_LANES),
        coeffs in proptest::collection::vec(-3.0f64..3.0, 1..=301),
    ) {
        if !avx2_available() {
            println!("note: reference-lane comparison skipped (host lacks avx2+fma)");
            return Ok(());
        }
        let mut seeds = RefSeeds {
            modes: [0; REF_LANES],
            b_modes: [0.0; REF_LANES],
            ratios: [0.0; REF_LANES],
        };
        for (l, &q) in qs.iter().enumerate() {
            // Interior points only, as the tile sends them.
            let q = q.clamp(1e-9, 1.0 - 1e-9);
            (seeds.modes[l], seeds.b_modes[l]) = mode_seed(n, q);
            seeds.ratios[l] = q / (1.0 - q);
        }
        let mut scalar = vec![f64::NAN; REF_LANES * (n + 1)];
        let mut lane = vec![7.0f64; REF_LANES * (n + 1)];
        ref_walk8_scalar(&mut scalar, n, &seeds);
        ref_walk8_avx2(&mut lane, n, &seeds);
        for (slot, (s, v)) in scalar.iter().zip(lane.iter()).enumerate() {
            prop_assert_eq!(
                s.to_bits(), v.to_bits(),
                "n = {}, row {}, slot {} (modes {:?})",
                n, slot / REF_LANES, slot % REF_LANES, seeds.modes
            );
        }
        let row: Vec<f64> = (0..=n).map(|j| coeffs[j % coeffs.len()]).collect();
        let (s, v) = (ref_dot8_scalar(&scalar, &row), ref_dot8_avx2(&lane, &row));
        for l in 0..REF_LANES {
            prop_assert_eq!(s[l].to_bits(), v[l].to_bits(), "n = {}, dot slot {}", n, l);
        }
    }
}

/// One point of a reference-path test grid: a special value (the
/// endpoints, `−0.0`, 1e-13 outside `[0, 1]` on either side, the
/// smallest subnormal, `1 − 2⁻⁵³`), a quarter point (so grids repeat
/// points), or a uniform draw.
fn grid_point() -> impl Strategy<Value = f64> {
    (0usize..20, 0.0f64..=1.0).prop_map(|(pick, u)| match pick {
        0 => 0.0,
        1 => 1.0,
        2 => -0.0,
        3 => -1e-13,
        4 => 1.0 + 1e-13,
        5 => 5e-324,
        6 => 1.0 - f64::EPSILON / 2.0,
        7..=9 => (u * 4.0).floor() / 4.0,
        _ => u,
    })
}

/// Row `r` of a test batch: a non-increasing table `C(1) = 1, …` of
/// length `shape.len() + 1` whose drops are `shape`'s, rotated by `r`
/// and scaled, so rows differ but share the degree.
fn policy_row(shape: &[f64], r: usize) -> Vec<f64> {
    let scale = 1.0 + 0.37 * r as f64;
    let mut row = vec![1.0f64];
    for j in 0..shape.len() {
        let drop = shape[(j + r) % shape.len()] * scale;
        row.push(row.last().copied().unwrap_or(1.0) - drop);
    }
    row
}
