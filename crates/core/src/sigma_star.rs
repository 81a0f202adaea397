//! The closed-form strategy σ⋆ of Section 2.1: the IFD of the exclusive
//! policy, which is simultaneously the unique coverage-optimal symmetric
//! strategy (Theorem 4) and an ESS (Theorem 3).
//!
//! ```text
//! σ⋆(x) = 1 − α / f(x)^{1/(k−1)}   for x ≤ W,   0 otherwise
//! W     = largest y with Σ_{x≤y} (1 − (f(y)/f(x))^{1/(k−1)}) ≤ 1
//! α     = (W − 1) / Σ_{x≤W} f(x)^{−1/(k−1)}
//! ```
//!
//! The paper notes σ⋆ coincides with the first round of the Bayesian-search
//! algorithm A⋆ of Korman–Rodeh; the `dispersal-search` crate builds on
//! this identity.

use crate::error::{Error, Result};
use crate::strategy::Strategy;
use crate::value::ValueProfile;

/// The σ⋆ strategy together with its defining constants.
#[derive(Debug, Clone, PartialEq)]
pub struct SigmaStar {
    /// The strategy itself.
    pub strategy: Strategy,
    /// Support size `W` (σ⋆ explores exactly sites `1..=W`, 1-based).
    pub support: usize,
    /// The normalization constant `α = (W − 1) / Σ_{x≤W} f(x)^{−1/(k−1)}`;
    /// the common equilibrium value is `ν = α^{k−1}` for `k ≥ 2`. For
    /// `k = 1` the formula degenerates to `α = 0` (single-site support
    /// makes the numerator `W − 1` vanish) and `α` carries no information.
    pub alpha: f64,
    /// The best site's value `f(1)` — the equilibrium value of the
    /// single-player game.
    pub top_value: f64,
    /// Player count the strategy was computed for.
    pub k: usize,
}

impl SigmaStar {
    /// The common equilibrium value received on the support: `ν = α^{k−1}`
    /// for `k ≥ 2` (each occupied site has
    /// `f(x)·(1 − σ⋆(x))^{k−1} = α^{k−1}`), and `f(1)` for `k = 1` — a
    /// lone player takes the best site outright. The `k = 1` case must
    /// *not* read `α`: the defining formula `(W − 1)/Σ…` is 0 there, so
    /// returning `α` (or `α⁰ = 1`) would report a zero/unit value instead
    /// of the best site's.
    pub fn equilibrium_value(&self) -> f64 {
        if self.k == 1 {
            return self.top_value;
        }
        self.alpha.powi(self.k as i32 - 1)
    }
}

/// Compute the support size `W`: the largest index `y` (1-based) such that
/// `Σ_{x≤y} (1 − (f(y)/f(x))^{1/(k−1)}) ≤ 1`.
///
/// Requires `k ≥ 2` (for `k = 1` the support is trivially the single best
/// site; [`sigma_star`] special-cases it).
pub fn support_size(f: &ValueProfile, k: usize) -> Result<usize> {
    if k < 2 {
        return Err(Error::InvalidPlayerCount { k });
    }
    let exponent = 1.0 / (k as f64 - 1.0);
    // Prefix sums of f(x)^{-1/(k-1)} make each candidate y an O(1) check.
    let mut prefix_inv = Vec::with_capacity(f.len());
    let mut acc = 0.0;
    for &fx in f.values() {
        acc += fx.powf(-exponent);
        prefix_inv.push(acc);
    }
    let mut best = 1usize;
    for y in 1..=f.len() {
        let fy_pow = f.value(y - 1).powf(exponent);
        let lhs = y as f64 - fy_pow * prefix_inv[y - 1];
        if lhs <= 1.0 + 1e-12 {
            best = y;
        }
    }
    Ok(best)
}

/// Compute σ⋆ for profile `f` and `k ≥ 1` players.
///
/// For `k = 1` this is the point mass on the top site (the trivially optimal
/// single-explorer strategy, also the IFD of the one-player game).
pub fn sigma_star(f: &ValueProfile, k: usize) -> Result<SigmaStar> {
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    let m = f.len();
    if k == 1 {
        // alpha follows its defining formula (W − 1 = 0 ⇒ α = 0); the
        // equilibrium value comes from `top_value`, not α.
        return Ok(SigmaStar {
            strategy: Strategy::delta(m, 0)?,
            support: 1,
            alpha: 0.0,
            top_value: f.value(0),
            k,
        });
    }
    let w = support_size(f, k)?;
    let exponent = 1.0 / (k as f64 - 1.0);
    let inv_sum: f64 =
        crate::numerics::kahan_sum(f.values().iter().take(w).map(|&fx| fx.powf(-exponent)));
    let alpha = (w as f64 - 1.0) / inv_sum;
    let mut probs = vec![0.0; m];
    for (x, p) in probs.iter_mut().enumerate().take(w) {
        *p = 1.0 - alpha / f.value(x).powf(exponent);
    }
    // Clean tiny negative round-off on the last supported site, then
    // renormalize exactly.
    for p in probs.iter_mut() {
        if *p < 0.0 {
            debug_assert!(*p > -1e-9, "sigma-star probability significantly negative: {p}");
            *p = 0.0;
        }
    }
    let sum: f64 = crate::numerics::kahan_sum(probs.iter().copied());
    debug_assert!((sum - 1.0).abs() < 1e-9, "sigma-star not normalized: {sum}");
    for p in probs.iter_mut() {
        *p /= sum;
    }
    Ok(SigmaStar { strategy: Strategy::new(probs)?, support: w, alpha, top_value: f.value(0), k })
}

/// Verify the two IFD conditions of Claim 7 for a candidate strategy under
/// the exclusive policy: equal value `f(x)(1−p(x))^{k−1}` on the support,
/// strictly smaller value off the support. Returns the maximum violation
/// (0 means the conditions hold exactly).
pub fn ifd_residual_exclusive(f: &ValueProfile, p: &Strategy, k: usize) -> Result<f64> {
    if f.len() != p.len() {
        return Err(Error::DimensionMismatch { strategy: p.len(), profile: f.len() });
    }
    if k < 2 {
        return Err(Error::InvalidPlayerCount { k });
    }
    let values: Vec<f64> = f
        .values()
        .iter()
        .zip(p.probs().iter())
        .map(|(&fx, &px)| fx * (1.0 - px).powi(k as i32 - 1))
        .collect();
    let support_tol = 1e-12;
    let on: Vec<f64> = values
        .iter()
        .zip(p.probs().iter())
        .filter(|(_, &px)| px > support_tol)
        .map(|(&v, _)| v)
        .collect();
    if on.is_empty() {
        return Ok(f64::INFINITY);
    }
    let nu = on.iter().sum::<f64>() / on.len() as f64;
    let mut residual = on.iter().map(|v| (v - nu).abs()).fold(0.0, f64::max);
    for (v, &px) in values.iter().zip(p.probs().iter()) {
        if px <= support_tol && *v > nu {
            residual = residual.max(v - nu);
        }
    }
    Ok(residual)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn k1_is_point_mass_on_best_site() {
        let f = ValueProfile::new(vec![3.0, 2.0, 1.0]).unwrap();
        let s = sigma_star(&f, 1).unwrap();
        assert_eq!(s.strategy.probs(), &[1.0, 0.0, 0.0]);
        assert_eq!(s.support, 1);
        close(s.equilibrium_value(), 3.0, 1e-15);
    }

    #[test]
    fn k1_equilibrium_value_is_top_value_not_alpha() {
        // Regression: with single-site support the defining formula gives
        // α = (W − 1)/Σ = 0; the equilibrium value must still be f(1).
        let f = ValueProfile::new(vec![7.5, 2.0]).unwrap();
        let s = sigma_star(&f, 1).unwrap();
        assert_eq!(s.alpha, 0.0);
        close(s.equilibrium_value(), 7.5, 1e-15);
        // Even a hand-built record with the degenerate α reports f(1).
        let built = SigmaStar {
            strategy: Strategy::delta(2, 0).unwrap(),
            support: 1,
            alpha: 0.0,
            top_value: 7.5,
            k: 1,
        };
        close(built.equilibrium_value(), 7.5, 1e-15);
    }

    #[test]
    fn k0_rejected() {
        let f = ValueProfile::uniform(2, 1.0).unwrap();
        assert!(sigma_star(&f, 0).is_err());
        assert!(support_size(&f, 1).is_err());
    }

    #[test]
    fn uniform_profile_gives_uniform_sigma_star() {
        // With equal values the Pareto form is symmetric: sigma* = uniform.
        let f = ValueProfile::uniform(5, 2.0).unwrap();
        for k in 2..6usize {
            let s = sigma_star(&f, k).unwrap();
            assert_eq!(s.support, 5);
            for x in 0..5 {
                close(s.strategy.prob(x), 0.2, 1e-12);
            }
        }
    }

    #[test]
    fn two_sites_two_players_hand_computed() {
        // f = (1, 0.3), k = 2: W = 2 iff 1 - f2/f1 <= 1 (true), so W = 2.
        // alpha = 1 / (1 + 1/0.3), sigma*(x) = 1 - alpha/f(x).
        let f = ValueProfile::new(vec![1.0, 0.3]).unwrap();
        let s = sigma_star(&f, 2).unwrap();
        assert_eq!(s.support, 2);
        let alpha = 1.0 / (1.0 + 1.0 / 0.3);
        close(s.alpha, alpha, 1e-12);
        close(s.strategy.prob(0), 1.0 - alpha, 1e-12);
        close(s.strategy.prob(1), 1.0 - alpha / 0.3, 1e-12);
        // Equal equilibrium values on support:
        close(1.0 * (1.0 - s.strategy.prob(0)), 0.3 * (1.0 - s.strategy.prob(1)), 1e-12);
    }

    #[test]
    fn support_shrinks_for_steep_profiles() {
        // A very steep profile concentrates sigma* on few sites.
        let steep = ValueProfile::geometric(10, 1.0, 0.01).unwrap();
        let flat = ValueProfile::geometric(10, 1.0, 0.99).unwrap();
        let k = 3;
        let ws = sigma_star(&steep, k).unwrap().support;
        let wf = sigma_star(&flat, k).unwrap().support;
        assert!(ws < wf, "steep W = {ws}, flat W = {wf}");
    }

    #[test]
    fn support_grows_with_k() {
        let f = ValueProfile::zipf(100, 1.0, 1.0).unwrap();
        let mut prev = 0usize;
        for k in 2..12usize {
            let w = sigma_star(&f, k).unwrap().support;
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn sigma_star_satisfies_ifd_conditions_claim7() {
        for (f, k) in [
            (ValueProfile::zipf(30, 1.0, 1.0).unwrap(), 4usize),
            (ValueProfile::geometric(15, 2.0, 0.8).unwrap(), 7),
            (ValueProfile::new(vec![1.0, 0.5]).unwrap(), 2),
            (ValueProfile::linear(50, 1.0, 0.01).unwrap(), 10),
        ] {
            let s = sigma_star(&f, k).unwrap();
            let residual = ifd_residual_exclusive(&f, &s.strategy, k).unwrap();
            assert!(residual < 1e-9, "IFD residual {residual} for k = {k}");
        }
    }

    #[test]
    fn off_support_values_strictly_below_nu() {
        // Claim 7 second part: f(W+1) < alpha^{k-1}.
        let f = ValueProfile::geometric(20, 1.0, 0.5).unwrap();
        let k = 3;
        let s = sigma_star(&f, k).unwrap();
        if s.support < f.len() {
            let nu = s.equilibrium_value();
            assert!(f.value(s.support) < nu, "f(W+1) = {} >= nu = {nu}", f.value(s.support));
        }
    }

    #[test]
    fn equilibrium_value_matches_support_values() {
        let f = ValueProfile::zipf(12, 3.0, 0.7).unwrap();
        let k = 5;
        let s = sigma_star(&f, k).unwrap();
        let nu = s.equilibrium_value();
        for x in 0..s.support {
            let v = f.value(x) * (1.0 - s.strategy.prob(x)).powi(k as i32 - 1);
            close(v, nu, 1e-9);
        }
    }

    #[test]
    fn two_players_many_sites_support_formula() {
        // k = 2: W is the largest y with y - f(y) * sum_{x<=y} 1/f(x) <= 1.
        let f = ValueProfile::new(vec![1.0, 0.9, 0.2, 0.05]).unwrap();
        let w = support_size(&f, 2).unwrap();
        let mut expected = 1;
        let mut inv = 0.0;
        for y in 1..=4usize {
            inv += 1.0 / f.value(y - 1);
            if y as f64 - f.value(y - 1) * inv <= 1.0 + 1e-12 {
                expected = y;
            }
        }
        assert_eq!(w, expected);
    }

    #[test]
    fn residual_detects_non_ifd() {
        let f = ValueProfile::new(vec![1.0, 0.3]).unwrap();
        let uniform = Strategy::uniform(2).unwrap();
        let r = ifd_residual_exclusive(&f, &uniform, 2).unwrap();
        assert!(r > 0.1, "uniform should not satisfy IFD, residual = {r}");
    }

    #[test]
    fn residual_validates_inputs() {
        let f = ValueProfile::new(vec![1.0, 0.3]).unwrap();
        let p = Strategy::uniform(3).unwrap();
        assert!(ifd_residual_exclusive(&f, &p, 2).is_err());
        let p2 = Strategy::uniform(2).unwrap();
        assert!(ifd_residual_exclusive(&f, &p2, 1).is_err());
    }
}
