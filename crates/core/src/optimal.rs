//! The optimal-coverage symmetric strategy `p⋆` (Theorem 4).
//!
//! Maximizing `Cover(p)` is minimizing the convex miss mass
//! `T(p) = Σ_x f(x)(1 − p(x))^k`. The KKT conditions give the same Pareto
//! form as σ⋆ — that is precisely Theorem 4 — but this module solves the
//! problem *independently* of the σ⋆ construction so the theorem can be
//! *checked* rather than assumed:
//!
//! * [`optimal_coverage_waterfill`] — bisection on the KKT multiplier `λ`
//!   with occupancies `p(x) = max(0, 1 − (λ/(k f(x)))^{1/(k−1)})`;
//! * [`optimal_coverage_gradient`] — projected-gradient ascent on `Cover`
//!   from multiple starting points (no structural knowledge at all).

use crate::coverage::coverage;
use crate::error::{Error, Result};
use crate::simplex::{projected_gradient_ascent, AscentConfig};
use crate::strategy::Strategy;
use crate::value::ValueProfile;

/// An optimal-coverage solution with diagnostics.
#[derive(Debug, Clone)]
pub struct OptimalCoverage {
    /// The maximizing strategy.
    pub strategy: Strategy,
    /// Its coverage value.
    pub coverage: f64,
    /// KKT multiplier (water level) if produced by the water-filling solver.
    pub lambda: Option<f64>,
}

/// KKT water-filling solver: exact up to bisection precision.
///
/// Stationarity for supported sites reads
/// `k f(x) (1 − p(x))^{k−1} = λ`, so
/// `p(x; λ) = max(0, 1 − (λ / (k f(x)))^{1/(k−1)})`, and `Σ_x p(x; λ)` is
/// continuous and decreasing in `λ`; bisection finds `Σ = 1`.
pub fn optimal_coverage_waterfill(f: &ValueProfile, k: usize) -> Result<OptimalCoverage> {
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    if k == 1 {
        let strategy = Strategy::delta(f.len(), 0)?;
        let cov = coverage(f, &strategy, 1)?;
        return Ok(OptimalCoverage { strategy, coverage: cov, lambda: None });
    }
    let kf = k as f64;
    let exponent = 1.0 / (kf - 1.0);
    let occupancy = |lambda: f64| -> Vec<f64> {
        f.values()
            .iter()
            .map(|&fx| {
                let ratio = lambda / (kf * fx);
                if ratio >= 1.0 {
                    0.0
                } else {
                    1.0 - ratio.powf(exponent)
                }
            })
            .collect()
    };
    // lambda in (0, k·f(1)]: at the top the sum is 0, at lambda -> 0 the sum
    // approaches M >= 1.
    let mut lo = 0.0;
    let mut hi = kf * f.value(0);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        let s: f64 = occupancy(mid).iter().sum();
        if s >= 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let lambda = 0.5 * (lo + hi);
    let mut probs = occupancy(lambda);
    let sum: f64 = probs.iter().sum();
    if sum <= 0.0 {
        return Err(Error::NoConvergence { what: "coverage water-filling", residual: 1.0 });
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
    let strategy = Strategy::new(probs)?;
    let cov = coverage(f, &strategy, k)?;
    Ok(OptimalCoverage { strategy, coverage: cov, lambda: Some(lambda) })
}

/// Structure-free optimizer: projected-gradient ascent on `Cover` from
/// several deterministic starts (uniform, proportional, top-k uniform).
/// `Cover` is concave (T is convex), so any accepted run reaches the global
/// optimum; multistart guards against slow boundary creep.
pub fn optimal_coverage_gradient(f: &ValueProfile, k: usize) -> Result<OptimalCoverage> {
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    let m = f.len();
    let starts = vec![
        Strategy::uniform(m)?,
        Strategy::proportional(f.values())?,
        Strategy::uniform_on_top(m, k.min(m))?,
    ];
    let objective = |p: &[f64]| -> f64 {
        f.values()
            .iter()
            .zip(p.iter())
            .map(|(&fx, &px)| fx * (1.0 - (1.0 - px).powi(k as i32)))
            .sum()
    };
    let gradient = |p: &[f64]| -> Vec<f64> {
        f.values()
            .iter()
            .zip(p.iter())
            .map(|(&fx, &px)| k as f64 * fx * (1.0 - px.min(1.0)).max(0.0).powi(k as i32 - 1))
            .collect()
    };
    let mut best: Option<OptimalCoverage> = None;
    for start in starts {
        let run = projected_gradient_ascent(&start, objective, gradient, AscentConfig::default())?;
        let cov = coverage(f, &run.point, k)?;
        if best.as_ref().is_none_or(|b| cov > b.coverage) {
            best = Some(OptimalCoverage { strategy: run.point, coverage: cov, lambda: None });
        }
    }
    best.ok_or(Error::Internal { what: "gradient ascent ran zero starts" })
}

/// Convenience: compute `p⋆` by water-filling (the fast exact path).
pub fn optimal_coverage(f: &ValueProfile, k: usize) -> Result<OptimalCoverage> {
    optimal_coverage_waterfill(f, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage_gradient;
    use crate::sigma_star::sigma_star;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn k_zero_rejected() {
        let f = ValueProfile::uniform(3, 1.0).unwrap();
        assert!(optimal_coverage_waterfill(&f, 0).is_err());
        assert!(optimal_coverage_gradient(&f, 0).is_err());
    }

    #[test]
    fn single_player_takes_best_site() {
        let f = ValueProfile::new(vec![2.0, 1.0]).unwrap();
        let opt = optimal_coverage(&f, 1).unwrap();
        assert_eq!(opt.strategy.probs(), &[1.0, 0.0]);
        close(opt.coverage, 2.0, 1e-12);
    }

    #[test]
    fn waterfill_matches_sigma_star_theorem4() {
        // Theorem 4: p* = sigma*.
        for (f, k) in [
            (ValueProfile::new(vec![1.0, 0.3]).unwrap(), 2usize),
            (ValueProfile::zipf(30, 1.0, 1.0).unwrap(), 5),
            (ValueProfile::geometric(12, 1.0, 0.8).unwrap(), 4),
            (ValueProfile::linear(40, 1.0, 0.05).unwrap(), 8),
        ] {
            let opt = optimal_coverage_waterfill(&f, k).unwrap();
            let star = sigma_star(&f, k).unwrap();
            let d = opt.strategy.linf_distance(&star.strategy).unwrap();
            assert!(d < 1e-8, "k = {k}: distance {d}");
        }
    }

    #[test]
    fn gradient_optimizer_agrees_with_waterfill() {
        for (f, k) in [
            (ValueProfile::new(vec![1.0, 0.5]).unwrap(), 2usize),
            (ValueProfile::zipf(8, 1.0, 1.0).unwrap(), 3),
            (ValueProfile::geometric(6, 1.0, 0.5).unwrap(), 4),
        ] {
            let wf = optimal_coverage_waterfill(&f, k).unwrap();
            let gd = optimal_coverage_gradient(&f, k).unwrap();
            close(wf.coverage, gd.coverage, 1e-7);
        }
    }

    #[test]
    fn optimum_dominates_heuristics() {
        let f = ValueProfile::zipf(20, 1.0, 0.7).unwrap();
        let k = 6;
        let opt = optimal_coverage(&f, k).unwrap();
        for alt in [
            Strategy::uniform(20).unwrap(),
            Strategy::proportional(f.values()).unwrap(),
            Strategy::uniform_on_top(20, k).unwrap(),
            Strategy::delta(20, 0).unwrap(),
        ] {
            let c = coverage(&f, &alt, k).unwrap();
            assert!(opt.coverage >= c - 1e-10, "{} < {c}", opt.coverage);
        }
    }

    #[test]
    fn observation1_bound_holds_at_optimum() {
        for (f, k) in [
            (ValueProfile::zipf(50, 1.0, 1.0).unwrap(), 7usize),
            (ValueProfile::uniform(10, 1.0).unwrap(), 3),
            (ValueProfile::geometric(25, 2.0, 0.9).unwrap(), 5),
        ] {
            let opt = optimal_coverage(&f, k).unwrap();
            let bound = crate::coverage::observation1_bound(&f, k);
            assert!(opt.coverage > bound, "coverage {} <= bound {bound}", opt.coverage);
        }
    }

    /// First-order optimality residual of a candidate maximizer: on the
    /// support, the coverage gradient must be constant; off the support it must
    /// not exceed that constant. Returns the worst violation.
    fn optimality_residual(f: &ValueProfile, p: &Strategy, k: usize) -> Result<f64> {
        let grad = coverage_gradient(f, p, k)?;
        let support_tol = 1e-10;
        let on: Vec<f64> = grad
            .iter()
            .zip(p.probs().iter())
            .filter(|(_, &px)| px > support_tol)
            .map(|(&g, _)| g)
            .collect();
        if on.is_empty() {
            return Ok(f64::INFINITY);
        }
        let level = on.iter().sum::<f64>() / on.len() as f64;
        let mut residual = on.iter().map(|g| (g - level).abs()).fold(0.0, f64::max);
        for (g, &px) in grad.iter().zip(p.probs().iter()) {
            if px <= support_tol && *g > level {
                residual = residual.max(g - level);
            }
        }
        Ok(residual / level.max(1e-300))
    }

    #[test]
    fn optimality_residual_near_zero_at_optimum() {
        let f = ValueProfile::zipf(15, 1.0, 0.9).unwrap();
        let k = 4;
        let opt = optimal_coverage(&f, k).unwrap();
        let r = optimality_residual(&f, &opt.strategy, k).unwrap();
        assert!(r < 1e-8, "residual {r}");
    }

    #[test]
    fn optimality_residual_positive_for_suboptimal() {
        let f = ValueProfile::new(vec![1.0, 0.1]).unwrap();
        let uniform = Strategy::uniform(2).unwrap();
        let r = optimality_residual(&f, &uniform, 2).unwrap();
        assert!(r > 0.1, "residual {r}");
    }

    #[test]
    fn more_players_cover_more() {
        let f = ValueProfile::zipf(30, 1.0, 0.8).unwrap();
        let mut prev = 0.0;
        for k in 1..12usize {
            let c = optimal_coverage(&f, k).unwrap().coverage;
            assert!(c > prev, "k = {k}: {c} <= {prev}");
            prev = c;
        }
        assert!(prev < f.total());
    }
}
