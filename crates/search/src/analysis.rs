//! Analytic bridges between the search game and the coverage objective,
//! plus speedup accounting.
//!
//! The key identity: the probability that *some* searcher finds the
//! treasure in round 1 equals the coverage functional of the round-1
//! strategy under the prior —
//! `P[found in round 1] = Σ_x q(x)·(1 − (1 − p(x))^k) = Cover_q(p)`.
//! Maximizing immediate detection *is* the coverage problem of the
//! dispersal game, which is exactly why σ⋆ shows up as round 1 of A⋆.

use crate::plan::SearchPlan;
use crate::prior::Prior;
use dispersal_core::{Error, Result};

/// One point of a speedup curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Searcher count.
    pub k: usize,
    /// Expected detection rounds.
    pub expected_rounds: f64,
    /// Speedup relative to `k = 1`.
    pub speedup: f64,
    /// Parallel efficiency `speedup / k`.
    pub efficiency: f64,
}

/// Compute the speedup curve of a plan family over searcher counts.
///
/// `make_plan(k)` builds the plan for each `k` (plans typically depend on
/// `k`, e.g. iterated σ⋆).
pub fn speedup_curve<F>(
    prior: &Prior,
    ks: &[usize],
    horizon: usize,
    mut make_plan: F,
) -> Result<Vec<SpeedupPoint>>
where
    F: FnMut(usize) -> Result<Box<dyn SearchPlan>>,
{
    if ks.is_empty() {
        return Err(Error::InvalidArgument("speedup curve needs at least one k".into()));
    }
    let mut base_plan = make_plan(1)?;
    let base = crate::game::evaluate_plan(base_plan.as_mut(), prior, 1, horizon)?.expected_rounds;
    ks.iter()
        .map(|&k| {
            let mut plan = make_plan(k)?;
            let eval = crate::game::evaluate_plan(plan.as_mut(), prior, k, horizon)?;
            let speedup = base / eval.expected_rounds;
            Ok(SpeedupPoint {
                k,
                expected_rounds: eval.expected_rounds,
                speedup,
                efficiency: speedup / k as f64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::IteratedSigmaStar;
    use dispersal_core::coverage::coverage;
    use dispersal_core::sigma_star::sigma_star;
    use dispersal_core::strategy::Strategy;

    #[test]
    fn round_success_is_coverage_of_the_prior() {
        let prior = Prior::zipf(10, 1.0).unwrap();
        let k = 3;
        let star = sigma_star(prior.profile(), k).unwrap().strategy;
        // Round-one success is Cover_q(sigma*), a probability.
        let p_success = coverage(prior.profile(), &star, k).unwrap();
        assert!(p_success > 0.0 && p_success < 1.0);
        // No other strategy detects faster in round 1 (Theorem 4 again).
        let uniform = Strategy::uniform(10).unwrap();
        assert!(coverage(prior.profile(), &uniform, k).unwrap() <= p_success);
    }

    #[test]
    fn speedup_monotone_and_efficiency_at_most_one_ish() {
        let prior = Prior::zipf(40, 1.0).unwrap();
        let curve = speedup_curve(&prior, &[1, 2, 4, 8], 400, |k| {
            Ok(Box::new(IteratedSigmaStar::new(&prior, k)?) as Box<dyn SearchPlan>)
        })
        .unwrap();
        assert_eq!(curve.len(), 4);
        assert!((curve[0].speedup - 1.0).abs() < 1e-9);
        // Memoryless randomization costs something at k = 2 (a single
        // searcher degenerates to the deterministic greedy sweep), but from
        // k = 2 on, larger teams never search slower.
        for w in curve[1..].windows(2) {
            assert!(
                w[1].expected_rounds <= w[0].expected_rounds + 1e-9,
                "k = {} slower than k = {}",
                w[1].k,
                w[0].k
            );
        }
        // And a big team is strictly faster than the lone searcher.
        assert!(curve[3].expected_rounds < curve[0].expected_rounds);
        // Independent searchers cannot be superlinearly efficient by much.
        for p in &curve {
            assert!(p.efficiency <= 1.5, "k = {}: efficiency {}", p.k, p.efficiency);
        }
    }

    #[test]
    fn empty_ks_rejected() {
        let prior = Prior::uniform(4).unwrap();
        let res = speedup_curve(&prior, &[], 10, |k| {
            Ok(Box::new(IteratedSigmaStar::new(&prior, k)?) as Box<dyn SearchPlan>)
        });
        assert!(res.is_err());
    }
}
