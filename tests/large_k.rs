//! Tier-2 large-`k` theorem tests: the paper's asymptotic directions
//! probed at `k ∈ {10³, 10⁴}`, far beyond the tier-1 suites' `k ≤ 256`.
//!
//! Every test here is `#[ignore]`d from tier-1 and meant to run as the
//! release smoke job:
//!
//! ```text
//! cargo test --release --test large_k -- --ignored
//! ```
//!
//! What makes this tier affordable is the interpolated kernel path: a
//! [`PayoffContext::with_spec`] context with a [`GridSpec::Interpolated`]
//! grid answers `g_C` queries in `O(1)` (loose per-call tolerances —
//! these tests pass `1e-9`/`1e-6`), and the σ⋆ closed form needs no
//! kernel at all.

use selfish_explorers::dispersal_core::kernel::{GTable, GridSpec};
use selfish_explorers::dispersal_core::payoff::PayoffContext;
use selfish_explorers::dispersal_core::policy::{PowerLaw, TwoLevel};
use selfish_explorers::dispersal_core::sigma_star::{ifd_residual_exclusive, sigma_star};
use selfish_explorers::dispersal_core::spoa::spoa_with_context;
use selfish_explorers::dispersal_core::value::ValueProfile;

/// σ⋆'s support `W` grows with `k` (Section 2.1: more competitors push
/// the equilibrium to spread over ever more sites), checked through
/// `k = 10⁴` on a Zipf profile wide enough to never saturate.
#[test]
#[ignore = "tier-2 large-k: run with cargo test --release -- --ignored"]
fn sigma_star_support_grows_through_k_equals_ten_thousand() {
    let f = ValueProfile::zipf(40_000, 1.0, 1.0).unwrap();
    let mut prev_support = 0usize;
    for k in [10usize, 100, 1_000, 10_000] {
        let star = sigma_star(&f, k).unwrap();
        assert!(
            star.support > prev_support,
            "support must grow strictly: W({k}) = {} after {prev_support}",
            star.support
        );
        assert!(star.support < f.len(), "profile saturated at k = {k}; widen it");
        // The closed form must still satisfy the IFD conditions of
        // Claim 7 at this scale.
        let residual = ifd_residual_exclusive(&f, &star.strategy, k).unwrap();
        assert!(residual < 1e-9, "k = {k}: IFD residual {residual}");
        prev_support = star.support;
    }
    // At k = 10⁴ the support is far beyond anything tier-1 touches.
    assert!(prev_support > 1_000, "W(10⁴) = {prev_support} unexpectedly small");
}

/// Near-exclusive congestion responses converge to the exclusive one as
/// the second-occupancy reward vanishes:
/// `sup_q |g_β(q) − (1−q)^{k−1}|` is strictly decreasing in the power-law
/// exponent `β`, at `k = 10³` and `k = 10⁴`. Evaluated through the
/// interpolated kernel with per-call tolerances matched to the scale
/// (`1e-6` at `10³`, `1e-3` at `10⁴` — these curves are stiff near
/// `q = 0`, and the adaptive start keeps the loose-tolerance build
/// cheap); the `O(1)` grid path is what makes a `k = 10⁴` curve sweep
/// feasible at all.
#[test]
#[ignore = "tier-2 large-k: run with cargo test --release -- --ignored"]
fn near_exclusive_g_curves_converge_to_exclusive_at_large_k() {
    let grid: Vec<f64> = (0..=2048).map(|i| i as f64 / 2048.0).collect();
    for (k, tol, final_bound) in [(1_000usize, 1e-6, 0.04), (10_000, 1e-3, 0.04)] {
        let n = (k - 1) as i32;
        let mut prev_deviation = f64::INFINITY;
        for beta in [1.0f64, 2.0, 4.0] {
            let table = GTable::new(&PowerLaw { beta }, k)
                .unwrap()
                .with_spec(GridSpec::Interpolated { tol })
                .unwrap();
            let mut scratch = table.scratch();
            let mut deviation = 0.0f64;
            for &q in &grid {
                let interp = table.eval_fast_with(&mut scratch, q);
                let exclusive = (1.0 - q).powi(n);
                deviation = deviation.max((interp - exclusive).abs());
            }
            assert!(
                deviation < prev_deviation,
                "k = {k} beta = {beta}: deviation {deviation} did not shrink from {prev_deviation}"
            );
            prev_deviation = deviation;
        }
        // beta = 4 is already near-exclusive at these k.
        assert!(prev_deviation < final_bound, "k = {k}: final deviation {prev_deviation}");
    }
}

/// SPoA of near-exclusive two-level policies trends to 1 as the policy
/// approaches exclusivity (Corollary 5 limit; Theorem 6 keeps it above 1
/// away from the limit), probed at `k = 10³` on the paper's slow-decay
/// witness family via a grid-backed context.
#[test]
#[ignore = "tier-2 large-k: run with cargo test --release -- --ignored"]
fn near_exclusive_spoa_trends_to_one_at_k_one_thousand() {
    let k = 1_000usize;
    let f = ValueProfile::slow_decay_witness(4 * k, k).unwrap();
    let mut prev_ratio = f64::INFINITY;
    for c in [0.5f64, 0.2, 0.05] {
        let ctx = PayoffContext::new(&TwoLevel { c }, k)
            .unwrap()
            .with_spec(GridSpec::Interpolated { tol: 1e-9 })
            .unwrap();
        let point = spoa_with_context(&ctx, &f).unwrap();
        assert!(
            point.ratio >= 1.0 - 1e-6,
            "c = {c}: SPoA {} below 1 (equilibrium cannot out-cover the optimum)",
            point.ratio
        );
        assert!(
            point.ratio < prev_ratio,
            "c = {c}: SPoA {} did not shrink from {prev_ratio}",
            point.ratio
        );
        assert!(point.ifd_residual < 1e-6, "c = {c}: IFD residual {}", point.ifd_residual);
        prev_ratio = point.ratio;
    }
    // Nearest-to-exclusive policy: within a few percent of the exclusive
    // optimum (SPoA = 1, Corollary 5).
    assert!(prev_ratio < 1.05, "SPoA at c = 0.05 is {prev_ratio}");
}
