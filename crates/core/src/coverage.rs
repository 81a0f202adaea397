//! The coverage functional (Eq. 1) and its complements and gradients.
//!
//! For a symmetric strategy `p` played by `k` players,
//! `Cover(p) = Σ_x f(x)·(1 − (1 − p(x))^k)` is the expected total value of
//! sites visited by at least one player. Maximizing `Cover` is equivalent to
//! minimizing the *miss mass* `T(p) = Σ_x f(x)·(1 − p(x))^k`, which is the
//! convex form used by the optimality proof of Theorem 4.

use crate::error::{Error, Result};
use crate::numerics::kahan_sum;
use crate::strategy::Strategy;
use crate::value::ValueProfile;

fn check_dims(f: &ValueProfile, p: &Strategy) -> Result<()> {
    if f.len() != p.len() {
        return Err(Error::DimensionMismatch { strategy: p.len(), profile: f.len() });
    }
    Ok(())
}

/// Expected coverage `Cover(p)` of the symmetric profile where all `k`
/// players play `p` (Eq. 1).
pub fn coverage(f: &ValueProfile, p: &Strategy, k: usize) -> Result<f64> {
    check_dims(f, p)?;
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    Ok(kahan_sum(
        f.values()
            .iter()
            .zip(p.probs().iter())
            .map(|(&fx, &px)| fx * (1.0 - (1.0 - px).powi(k as i32))),
    ))
}

/// Miss mass `T(p) = Σ_x f(x)(1 − p(x))^k = Σf − Cover(p)`.
pub fn miss_mass(f: &ValueProfile, p: &Strategy, k: usize) -> Result<f64> {
    check_dims(f, p)?;
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    Ok(kahan_sum(
        f.values().iter().zip(p.probs().iter()).map(|(&fx, &px)| fx * (1.0 - px).powi(k as i32)),
    ))
}

/// Gradient of `Cover` with respect to `p`:
/// `∂Cover/∂p(x) = k·f(x)·(1 − p(x))^{k−1}`.
pub fn coverage_gradient(f: &ValueProfile, p: &Strategy, k: usize) -> Result<Vec<f64>> {
    check_dims(f, p)?;
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    Ok(f.values()
        .iter()
        .zip(p.probs().iter())
        .map(|(&fx, &px)| k as f64 * fx * (1.0 - px).powi(k as i32 - 1))
        .collect())
}

/// The Observation 1 lower bound `(1 − 1/e)·Σ_{x ≤ k} f(x)` that the optimal
/// symmetric coverage always exceeds.
pub fn observation1_bound(f: &ValueProfile, k: usize) -> f64 {
    (1.0 - (-1.0f64).exp()) * f.top_sum(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn coverage_single_player_is_expected_value() {
        let f = ValueProfile::new(vec![2.0, 1.0]).unwrap();
        let p = Strategy::new(vec![0.25, 0.75]).unwrap();
        close(coverage(&f, &p, 1).unwrap(), 0.25 * 2.0 + 0.75 * 1.0);
    }

    #[test]
    fn coverage_point_mass() {
        let f = ValueProfile::new(vec![2.0, 1.0]).unwrap();
        let p = Strategy::delta(2, 0).unwrap();
        for k in 1..5usize {
            close(coverage(&f, &p, k).unwrap(), 2.0);
        }
    }

    #[test]
    fn coverage_two_players_two_sites_closed_form() {
        // Cover = f1(1-(1-p)^2) + f2(1-p^2) for p on site 1.
        let f = ValueProfile::new(vec![1.0, 0.3]).unwrap();
        let p = Strategy::new(vec![0.6, 0.4]).unwrap();
        let expect = 1.0 * (1.0 - 0.4f64.powi(2)) + 0.3 * (1.0 - 0.6f64.powi(2));
        close(coverage(&f, &p, 2).unwrap(), expect);
    }

    #[test]
    fn coverage_plus_miss_is_total() {
        let f = ValueProfile::zipf(20, 1.0, 0.8).unwrap();
        let p = Strategy::uniform(20).unwrap();
        for k in [1usize, 2, 5, 17] {
            let c = coverage(&f, &p, k).unwrap();
            let t = miss_mass(&f, &p, k).unwrap();
            close(c + t, f.total());
        }
    }

    #[test]
    fn coverage_monotone_in_k() {
        let f = ValueProfile::geometric(10, 1.0, 0.7).unwrap();
        let p = Strategy::uniform(10).unwrap();
        let mut prev = 0.0;
        for k in 1..20usize {
            let c = coverage(&f, &p, k).unwrap();
            assert!(c > prev);
            prev = c;
        }
        // And bounded by the total value.
        assert!(prev < f.total());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let f = ValueProfile::new(vec![2.0, 1.5, 0.5]).unwrap();
        let p = Strategy::new(vec![0.5, 0.3, 0.2]).unwrap();
        let k = 4;
        let g = coverage_gradient(&f, &p, k).unwrap();
        let h = 1e-7;
        for x in 0..3 {
            // One-sided perturbation off the simplex (Cover extends smoothly).
            let mut probs = p.probs().to_vec();
            probs[x] += h;
            let perturbed: f64 = f
                .values()
                .iter()
                .zip(probs.iter())
                .map(|(&fx, &px)| fx * (1.0 - (1.0 - px).powi(k as i32)))
                .sum();
            let base = coverage(&f, &p, k).unwrap();
            let fd = (perturbed - base) / h;
            assert!((g[x] - fd).abs() < 1e-5, "site {x}: {} vs {fd}", g[x]);
        }
    }

    #[test]
    fn dimension_and_k_validation() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let p3 = Strategy::uniform(3).unwrap();
        let p2 = Strategy::uniform(2).unwrap();
        assert!(coverage(&f, &p3, 2).is_err());
        assert!(coverage(&f, &p2, 0).is_err());
        assert!(miss_mass(&f, &p3, 2).is_err());
        assert!(miss_mass(&f, &p2, 0).is_err());
        assert!(coverage_gradient(&f, &p3, 2).is_err());
        assert!(coverage_gradient(&f, &p2, 0).is_err());
    }

    #[test]
    fn observation1_bound_below_ceiling() {
        let f = ValueProfile::zipf(50, 1.0, 1.0).unwrap();
        for k in [1usize, 3, 10] {
            // The ceiling: the `k` players assigned to the `k` best sites.
            assert!(observation1_bound(&f, k) < f.top_sum(k));
        }
    }

    #[test]
    fn uniform_on_top_beats_observation1_bound() {
        // The proof of Observation 1: p-hat = uniform on [k] already beats
        // the (1 - 1/e) bound.
        for (m, k) in [(10usize, 3usize), (50, 10), (5, 5)] {
            let f = ValueProfile::zipf(m, 1.0, 0.6).unwrap();
            let phat = Strategy::uniform_on_top(m, k).unwrap();
            let c = coverage(&f, &phat, k).unwrap();
            assert!(c > observation1_bound(&f, k), "m={m} k={k}");
        }
    }
}
