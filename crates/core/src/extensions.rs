//! Extensions the paper flags as future work (Section 5.1), implemented so
//! the library covers the model's natural next steps:
//!
//! * **Visit costs** — a fixed cost `t(x)` for traveling to site `x`
//!   (energy, time). Payoffs become `I(x, ℓ) − t(x)`; the IFD machinery
//!   carries over because the site value `ν_p(x) = f(x)·g_C(p(x)) − t(x)`
//!   is still strictly decreasing in `p(x)`. The solver runs the same
//!   water-filling core as [`crate::ifd`], with its own per-site rule:
//!   the inversion target `(ν + t(x))/f(x)` is still non-decreasing in
//!   `ν`, which is all the core's lazy decisions and anchors need.
//! * **Capacity-limited coverage** — a single player can consume at most
//!   `cap` units, so a site with `ℓ` visitors yields `min(ℓ·cap, f(x))` to
//!   the group. The paper's coverage is the `cap → ∞` limit.

use crate::error::{Error, Result};
use crate::ifd::{water_fill, GMemo, Occupancy};
use crate::numerics::binomial_pmf_vector;
use crate::payoff::PayoffContext;
use crate::policy::Congestion;
use crate::strategy::Strategy;
use crate::value::ValueProfile;

/// An IFD solution for the visit-cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostIfd {
    /// Equilibrium strategy.
    pub strategy: Strategy,
    /// Common net value on the support.
    pub value: f64,
    /// Support size.
    pub support: usize,
}

/// Solve the IFD when visiting site `x` costs `costs[x]` in addition to
/// the congestion payoff: net payoff `f(x)·C(ℓ) − t(x)`.
///
/// Requires a non-degenerate policy and non-negative finite costs. Note
/// that with costs, the most *valuable* site need not be the most
/// *attractive*; the solver handles arbitrary orderings of net value.
pub fn solve_ifd_with_costs(
    c: &dyn Congestion,
    f: &ValueProfile,
    costs: &[f64],
    k: usize,
) -> Result<CostIfd> {
    if costs.len() != f.len() {
        return Err(Error::DimensionMismatch { strategy: costs.len(), profile: f.len() });
    }
    for (i, &t) in costs.iter().enumerate() {
        if !t.is_finite() || t < 0.0 {
            return Err(Error::InvalidArgument(format!(
                "cost {t} at site {i} must be finite and >= 0"
            )));
        }
    }
    let ctx = PayoffContext::new(c, k)?;
    if k > 1 && ctx.is_degenerate() {
        return Err(Error::DegeneratePolicy);
    }
    if k == 1 {
        // Single player: best net-value site.
        let best = (0..f.len())
            .max_by(|&a, &b| {
                let va = f.value(a) - costs[a];
                let vb = f.value(b) - costs[b];
                va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or(Error::EmptyProfile)?;
        return Ok(CostIfd {
            strategy: Strategy::delta(f.len(), best)?,
            value: f.value(best) - costs[best],
            support: 1,
        });
    }
    // Water-filling on the common net value nu: occupancy q_x solves
    // f(x)·g(q) − t(x) = nu, used only when the solo net value exceeds nu.
    let kernel = ctx.kernel();
    let g1 = kernel.at_one();
    let mut hi = (0..f.len()).map(|x| f.value(x) - costs[x]).fold(f64::NEG_INFINITY, f64::max);
    let mut lo = (0..f.len()).map(|x| f.value(x) * g1 - costs[x]).fold(f64::INFINITY, f64::min);
    let pad = 1e-12 * (1.0 + hi.abs() + lo.abs());
    hi += pad;
    lo -= pad;
    let (nu, mut probs) = water_fill(&mut GMemo::new(kernel), f.len(), lo, hi, |x, nu| {
        let solo = f.value(x) * kernel.at_zero() - costs[x];
        if solo <= nu {
            return Occupancy::Fixed(0.0);
        }
        let target = (nu + costs[x]) / f.value(x);
        if target <= g1 {
            Occupancy::Fixed(1.0)
        } else {
            Occupancy::Target(target)
        }
    });
    let sum: f64 = probs.iter().sum();
    if sum <= 0.0 {
        return Err(Error::NoConvergence { what: "cost-ifd water-filling", residual: 1.0 });
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
    let strategy = Strategy::new(probs)?;
    let support = strategy.support_size(1e-12);
    Ok(CostIfd { strategy, value: nu, support })
}

/// Capacity-limited coverage: each player consumes at most `cap` units, so
/// a site visited by `ℓ` players contributes `min(ℓ·cap, f(x))`:
///
/// `Cover_cap(p) = Σ_x E[min(L_x·cap, f(x))]`, `L_x ~ Bin(k, p(x))`.
///
/// As `cap → ∞` this recovers the paper's coverage (Eq. 1).
pub fn capacity_coverage(f: &ValueProfile, p: &Strategy, k: usize, cap: f64) -> Result<f64> {
    if f.len() != p.len() {
        return Err(Error::DimensionMismatch { strategy: p.len(), profile: f.len() });
    }
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    if !(cap.is_finite() && cap > 0.0) {
        return Err(Error::InvalidArgument(format!(
            "capacity must be positive and finite, got {cap}"
        )));
    }
    let mut total = 0.0;
    for (x, &fx) in f.values().iter().enumerate() {
        let pmf = binomial_pmf_vector(k, p.prob(x));
        let mut site = 0.0;
        for (ell, &prob) in pmf.iter().enumerate() {
            site += prob * (ell as f64 * cap).min(fx);
        }
        total += site;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage;
    use crate::ifd::solve_ifd;
    use crate::policy::{Exclusive, Sharing};

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn zero_costs_recover_plain_ifd() {
        let f = ValueProfile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let k = 3;
        for c in [&Exclusive as &dyn Congestion, &Sharing] {
            let plain = solve_ifd(c, &f, k).unwrap();
            let with_costs = solve_ifd_with_costs(c, &f, &[0.0; 3], k).unwrap();
            let d = plain.strategy.linf_distance(&with_costs.strategy).unwrap();
            assert!(d < 1e-8, "{}: distance {d}", c.name());
            close(plain.value, with_costs.value, 1e-8);
        }
    }

    #[test]
    fn costly_site_loses_visitors() {
        let f = ValueProfile::new(vec![1.0, 1.0]).unwrap();
        let k = 2;
        let free = solve_ifd_with_costs(&Exclusive, &f, &[0.0, 0.0], k).unwrap();
        close(free.strategy.prob(0), 0.5, 1e-9);
        let taxed = solve_ifd_with_costs(&Exclusive, &f, &[0.0, 0.3], k).unwrap();
        assert!(taxed.strategy.prob(1) < 0.5, "taxed site kept {}", taxed.strategy.prob(1));
        assert!(taxed.strategy.prob(0) > 0.5);
    }

    #[test]
    fn prohibitive_cost_empties_a_site() {
        let f = ValueProfile::new(vec![1.0, 0.9]).unwrap();
        let k = 2;
        let ifd = solve_ifd_with_costs(&Exclusive, &f, &[0.0, 5.0], k).unwrap();
        assert_eq!(ifd.support, 1);
        close(ifd.strategy.prob(0), 1.0, 1e-9);
    }

    #[test]
    fn costs_can_reverse_attractiveness() {
        // Site 1 is more valuable but so expensive that site 2 dominates.
        let f = ValueProfile::new(vec![1.0, 0.8]).unwrap();
        let ifd = solve_ifd_with_costs(&Exclusive, &f, &[0.9, 0.0], 1).unwrap();
        assert_eq!(ifd.strategy.prob(1), 1.0);
        close(ifd.value, 0.8, 1e-12);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn equilibrium_equalizes_net_values() {
        let f = ValueProfile::new(vec![1.0, 0.7, 0.4]).unwrap();
        let costs = [0.05, 0.02, 0.0];
        let k = 4;
        let ifd = solve_ifd_with_costs(&Sharing, &f, &costs, k).unwrap();
        let ctx = PayoffContext::new(&Sharing, k).unwrap();
        for x in 0..3 {
            if ifd.strategy.prob(x) > 1e-9 {
                let net = f.value(x) * ctx.g(ifd.strategy.prob(x)).unwrap() - costs[x];
                close(net, ifd.value, 1e-7);
            }
        }
    }

    #[test]
    fn cost_solver_validates_inputs() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        assert!(solve_ifd_with_costs(&Sharing, &f, &[0.0], 2).is_err());
        assert!(solve_ifd_with_costs(&Sharing, &f, &[0.0, -1.0], 2).is_err());
        assert!(solve_ifd_with_costs(&Sharing, &f, &[0.0, f64::NAN], 2).is_err());
        assert!(solve_ifd_with_costs(&crate::policy::Constant, &f, &[0.0, 0.0], 2).is_err());
    }

    #[test]
    fn huge_capacity_recovers_plain_coverage() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
        let p = Strategy::new(vec![0.5, 0.3, 0.2]).unwrap();
        let k = 4;
        let plain = coverage(&f, &p, k).unwrap();
        let capped = capacity_coverage(&f, &p, k, 1e6).unwrap();
        close(plain, capped, 1e-9);
    }

    #[test]
    fn capacity_coverage_monotone_in_cap() {
        let f = ValueProfile::new(vec![1.0, 0.6]).unwrap();
        let p = Strategy::new(vec![0.6, 0.4]).unwrap();
        let k = 3;
        let mut prev = 0.0;
        for cap in [0.05, 0.1, 0.25, 0.5, 1.0] {
            let cov = capacity_coverage(&f, &p, k, cap).unwrap();
            assert!(cov >= prev - 1e-12, "cap {cap}: {cov} < {prev}");
            prev = cov;
        }
    }

    #[test]
    fn tiny_capacity_makes_spreading_less_valuable() {
        // With a tiny per-player capacity the group extracts ~ell*cap per
        // site, so coverage ~ k*cap regardless of the strategy.
        let f = ValueProfile::new(vec![1.0, 1.0]).unwrap();
        let k = 2;
        let cap = 0.01;
        let spread = capacity_coverage(&f, &Strategy::uniform(2).unwrap(), k, cap).unwrap();
        let stacked = capacity_coverage(&f, &Strategy::delta(2, 0).unwrap(), k, cap).unwrap();
        close(spread, k as f64 * cap, 1e-9);
        close(stacked, k as f64 * cap, 1e-9);
    }

    #[test]
    fn capacity_changes_the_optimal_spread() {
        // Under tight capacity, stacking players on the top site stops
        // paying off sooner: coverage of the point mass saturates at cap*k
        // vs f(1).
        let f = ValueProfile::new(vec![1.0, 0.9]).unwrap();
        let k = 4;
        let cap = 0.25; // 4 players can just consume site 1
        let stacked = capacity_coverage(&f, &Strategy::delta(2, 0).unwrap(), k, cap).unwrap();
        let spread = capacity_coverage(&f, &Strategy::uniform(2).unwrap(), k, cap).unwrap();
        assert!(spread < stacked, "with cap*k = f(1), stacking is safe: {spread} vs {stacked}");
    }

    #[test]
    fn capacity_coverage_validates() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let p3 = Strategy::uniform(3).unwrap();
        let p2 = Strategy::uniform(2).unwrap();
        assert!(capacity_coverage(&f, &p3, 2, 1.0).is_err());
        assert!(capacity_coverage(&f, &p2, 0, 1.0).is_err());
        assert!(capacity_coverage(&f, &p2, 2, 0.0).is_err());
        assert!(capacity_coverage(&f, &p2, 2, f64::INFINITY).is_err());
    }
}
