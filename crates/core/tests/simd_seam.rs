//! SIMD/scalar seam tests: the lane contracts of `dispersal_core::simd`.
//!
//! Two classes of assertion, mirroring the module's documented bounds:
//!
//! * **Fused paths** (`gemv_block4`, `fused_fill`, `fused_dot`): the
//!   AVX2 lane agrees with the scalar lane to ≤ 1e-13 × scale — the
//!   same contract the fused evaluators carry against their scalar
//!   references.
//! * **Bitwise paths** (`convolve_step`, and every *reference*
//!   evaluator): bit-for-bit equality. The reference paths
//!   (`GTable::eval_with`, `GBatch::eval_many_with`, `PbTable`) never
//!   dispatch through SIMD, so their bits must be unchanged no matter
//!   which lane the process picked.
//!
//! Runtime-gated by construction: the `*_avx2` entry points fall back
//! to the scalar lane on hosts without AVX2/FMA, so on such CI runners
//! every assertion still executes (as scalar-vs-scalar identities) and
//! the suite stays green. On AVX2 hosts they exercise the real
//! intrinsics; `lanes_cover_avx2_on_capable_hosts` pins that this is
//! not vacuous there.

use dispersal_core::kernel::{GBatch, GTable};
use dispersal_core::numerics::binomial_pmf;
use dispersal_core::simd::{
    active_lane, avx2_available, convolve_step_avx2, convolve_step_scalar, force_scalar,
    fused_dot_avx2, fused_dot_scalar, fused_fill_avx2, fused_fill_scalar, gemv_block4_avx2,
    gemv_block4_scalar, Lane, GEMV_BLOCK,
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

    /// Reference (non-fused) evaluators are untouched by the SIMD
    /// rewrite: `GBatch::eval_many_with` stays bit-identical to the
    /// per-policy `GTable::eval_with` under whichever lane this process
    /// dispatched (CI runs this test on both lanes via the
    /// `DISPERSAL_FORCE_SCALAR=1` leg).
    #[test]
    fn reference_paths_are_bitwise_unchanged(
        q in 0.0f64..=1.0,
        decrements in proptest::collection::vec(0.0f64..0.4, 0..=24),
    ) {
        let mut row = vec![1.0f64];
        for d in &decrements {
            row.push(row.last().copied().unwrap_or(1.0) - d);
        }
        let batch = GBatch::from_rows(vec![row.clone()]).expect("batch");
        let table = GTable::from_coefficients(row).expect("table");
        let mut out = vec![0.0f64; 1];
        batch.eval_many_with(&mut batch.scratch(), &[q], &mut out).expect("eval");
        let reference = table.eval_with(&mut table.scratch(), q);
        prop_assert_eq!(out[0].to_bits(), reference.to_bits());
    }
}
