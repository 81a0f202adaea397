//! The Symmetric Price of Anarchy (Section 1.2, Corollary 5, Theorem 6).
//!
//! For a congestion function `C` and value profile `f`,
//! `SPoA(C, f) = Cover(p⋆) / Cover(p_IFD)` — by Observation 2 the IFD is
//! the *unique* symmetric Nash equilibrium, so the supremum over equilibria
//! is just that one point. `SPoA(C)` is the supremum over value profiles;
//! [`spoa_supremum_search`] lower-bounds it over structured families plus
//! random instances (an exact supremum is a search over an
//! infinite-dimensional space; Theorem 6 only needs a witness > 1).

use crate::coverage::coverage;
use crate::error::Result;
use crate::ifd::{solve_ifd_allow_degenerate, solve_ifd_with_context, Ifd};
use crate::optimal::optimal_coverage;
use crate::payoff::PayoffContext;
use crate::policy::Congestion;
use crate::value::ValueProfile;
use rand::Rng;

/// A single SPoA evaluation.
#[derive(Debug, Clone)]
pub struct SpoaPoint {
    /// Coverage of the optimal symmetric strategy `p⋆`.
    pub optimal_coverage: f64,
    /// Coverage of the (unique) symmetric Nash equilibrium (the IFD).
    pub equilibrium_coverage: f64,
    /// The ratio `SPoA(C, f) = optimal / equilibrium`.
    pub ratio: f64,
    /// IFD diagnostics.
    pub ifd_support: usize,
    /// IFD residual (solver quality).
    pub ifd_residual: f64,
}

/// Evaluate `SPoA(C, f)` for `k` players.
///
/// Degenerate (constant) congestion functions are mapped to their natural
/// limiting equilibrium (mass on the top-value sites), matching the paper's
/// discussion of `C ≡ 1` having SPoA ≈ k.
pub fn spoa(c: &dyn Congestion, f: &ValueProfile, k: usize) -> Result<SpoaPoint> {
    let ifd: Ifd = solve_ifd_allow_degenerate(c, f, k)?;
    let eq_cov = coverage(f, &ifd.strategy, k)?;
    let opt = optimal_coverage(f, k)?;
    Ok(SpoaPoint {
        optimal_coverage: opt.coverage,
        equilibrium_coverage: eq_cov,
        ratio: opt.coverage / eq_cov,
        ifd_support: ifd.support,
        ifd_residual: ifd.residual,
    })
}

/// Evaluate `SPoA` with a prebuilt (non-degenerate) [`PayoffContext`] —
/// the entry point for large-`k` regime studies: attach an interpolation
/// grid ([`PayoffContext::with_spec`] with
/// [`GridSpec::Interpolated`](crate::kernel::GridSpec::Interpolated), e.g.
/// at tolerance `1e-9`) and the IFD water-filling inside runs `O(1)` per
/// kernel evaluation instead of `O(k)`.
pub fn spoa_with_context(ctx: &PayoffContext, f: &ValueProfile) -> Result<SpoaPoint> {
    let ifd: Ifd = solve_ifd_with_context(ctx, f)?;
    let k = ctx.k();
    let eq_cov = coverage(f, &ifd.strategy, k)?;
    let opt = optimal_coverage(f, k)?;
    Ok(SpoaPoint {
        optimal_coverage: opt.coverage,
        equilibrium_coverage: eq_cov,
        ratio: opt.coverage / eq_cov,
        ifd_support: ifd.support,
        ifd_residual: ifd.residual,
    })
}

/// Result of a supremum search for `SPoA(C)`.
#[derive(Debug, Clone)]
pub struct SpoaSearchResult {
    /// The best (largest) ratio found.
    pub best_ratio: f64,
    /// Description of the witness profile family.
    pub witness: String,
    /// The witness profile's values (possibly truncated for reporting).
    pub witness_values: Vec<f64>,
    /// Number of instances evaluated.
    pub instances: usize,
}

/// Lower-bound `SPoA(C)` by evaluating structured families (the Theorem 6
/// slow-decay witnesses at several decay levels, Zipf, geometric, linear)
/// and `random_instances` random profiles, all at player count `k` with
/// `m` sites.
pub fn spoa_supremum_search<R: Rng + ?Sized>(
    c: &dyn Congestion,
    k: usize,
    m: usize,
    random_instances: usize,
    rng: &mut R,
) -> Result<SpoaSearchResult> {
    let mut candidates: Vec<(String, ValueProfile)> = Vec::new();
    if k >= 2 {
        candidates.push(("slow-decay-witness".into(), ValueProfile::slow_decay_witness(m, k)?));
    }
    for &s in &[0.1, 0.25, 0.5, 1.0, 2.0] {
        candidates.push((format!("zipf(s={s})"), ValueProfile::zipf(m, 1.0, s)?));
    }
    for &rho in &[0.999, 0.99, 0.9, 0.7, 0.5] {
        candidates.push((format!("geometric(rho={rho})"), ValueProfile::geometric(m, 1.0, rho)?));
    }
    for &lo in &[0.9, 0.5, 0.1, 0.01] {
        candidates.push((format!("linear(lo={lo})"), ValueProfile::linear(m, 1.0, lo)?));
    }
    candidates.push(("uniform".into(), ValueProfile::uniform(m, 1.0)?));
    for i in 0..random_instances {
        let values: Vec<f64> = (0..m).map(|_| rng.gen::<f64>().max(1e-6)).collect();
        candidates.push((format!("random-{i}"), ValueProfile::from_unsorted(values)?));
    }
    let mut best = SpoaSearchResult {
        best_ratio: 0.0,
        witness: String::new(),
        witness_values: Vec::new(),
        instances: candidates.len(),
    };
    for (name, f) in candidates {
        let point = spoa(c, &f, k)?;
        if point.ratio > best.best_ratio {
            best.best_ratio = point.ratio;
            best.witness = name;
            best.witness_values = f.values().iter().take(16).copied().collect();
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Constant, Exclusive, PowerLaw, Sharing, TwoLevel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exclusive_spoa_is_one_corollary5() {
        for (f, k) in [
            (ValueProfile::new(vec![1.0, 0.3]).unwrap(), 2usize),
            (ValueProfile::zipf(20, 1.0, 1.0).unwrap(), 5),
            (ValueProfile::geometric(15, 1.0, 0.8).unwrap(), 3),
            (ValueProfile::uniform(10, 2.0).unwrap(), 4),
        ] {
            let p = spoa(&Exclusive, &f, k).unwrap();
            assert!((p.ratio - 1.0).abs() < 1e-7, "k = {k}: SPoA = {}", p.ratio);
        }
    }

    #[test]
    fn non_exclusive_policies_have_spoa_above_one_theorem6() {
        let k = 3;
        let f = ValueProfile::slow_decay_witness(4 * k, k).unwrap();
        for c in [
            &Sharing as &dyn Congestion,
            &TwoLevel { c: 0.3 },
            &TwoLevel { c: -0.3 },
            &PowerLaw { beta: 0.5 },
        ] {
            let p = spoa(c, &f, k).unwrap();
            assert!(p.ratio > 1.0 + 1e-6, "{}: SPoA = {}", c.name(), p.ratio);
        }
    }

    #[test]
    fn constant_policy_spoa_grows_like_k() {
        // C == 1: everyone sits on site 1; with a near-uniform profile the
        // optimum covers ~k sites, so the ratio approaches k.
        let k = 6;
        let f = ValueProfile::slow_decay_witness(4 * k, k).unwrap();
        let p = spoa(&Constant, &f, k).unwrap();
        assert!(p.ratio > 0.6 * k as f64, "SPoA = {} for k = {k}", p.ratio);
        assert!(p.ratio <= k as f64 + 1e-9);
    }

    #[test]
    fn sharing_spoa_below_two_kleinberg_oren() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for k in [2usize, 4, 8] {
            let result = spoa_supremum_search(&Sharing, k, 30, 25, &mut rng).unwrap();
            assert!(
                result.best_ratio < 2.0 + 1e-9,
                "k = {k}: found ratio {} above the Vetta bound",
                result.best_ratio
            );
            assert!(result.best_ratio >= 1.0);
        }
    }

    #[test]
    fn search_reports_witness_metadata() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let result = spoa_supremum_search(&Sharing, 3, 12, 5, &mut rng).unwrap();
        assert!(!result.witness.is_empty());
        assert!(!result.witness_values.is_empty());
        assert!(result.instances > 10);
    }

    #[test]
    fn exclusive_search_never_exceeds_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let result = spoa_supremum_search(&Exclusive, 4, 16, 20, &mut rng).unwrap();
        assert!(
            (result.best_ratio - 1.0).abs() < 1e-6,
            "exclusive SPoA search found {}",
            result.best_ratio
        );
    }

    #[test]
    fn spoa_point_fields_consistent() {
        let f = ValueProfile::zipf(10, 1.0, 1.0).unwrap();
        let p = spoa(&Sharing, &f, 3).unwrap();
        assert!(p.optimal_coverage >= p.equilibrium_coverage - 1e-12);
        assert!((p.ratio - p.optimal_coverage / p.equilibrium_coverage).abs() < 1e-12);
        assert!(p.ifd_support >= 1);
        assert!(p.ifd_residual < 1e-8);
    }
}
