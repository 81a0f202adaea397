//! The parallel treasure-hunt game: analytic and Monte-Carlo evaluation of
//! search plans.
//!
//! `k` searchers follow a common [`SearchPlan`]; the treasure sits in box
//! `x` with the prior probability. The figure of merit is the expected
//! number of rounds until *some* searcher opens the treasure box.
//! Conditioned on the treasure being at `x`, the survival probability
//! through round `t` is `Π_{s ≤ t} (1 − p_s(x))^k`, giving a closed-form
//! expectation that the Monte-Carlo path cross-validates.
//!
//! Round 1 alone is the coverage problem of the dispersal game under the
//! prior: `P[found in round 1] = Σ_x q(x)·(1 − (1 − p(x))^k) = Cover_q(p)`.
//! Maximizing immediate detection is maximizing coverage, which is why σ⋆
//! is round 1 of A⋆.

use crate::plan::SearchPlan;
use crate::prior::Prior;
use dispersal_core::strategy::StrategySampler;
use dispersal_core::{Error, Result};
use rand::Rng;

/// Evaluation of one plan on one prior.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchEvaluation {
    /// Plan name.
    pub plan: String,
    /// Expected detection time in rounds (analytic, truncated at
    /// `max_rounds` with the residual tail reported separately).
    pub expected_rounds: f64,
    /// Probability the treasure is found within `max_rounds`.
    pub success_probability: f64,
    /// Success probability after each round `1..=horizon_recorded`.
    pub success_by_round: Vec<f64>,
    /// Truncation horizon used.
    pub max_rounds: usize,
}

/// Analytically evaluate a plan: expected detection round and per-round
/// success CDF, truncated at `max_rounds`.
pub fn evaluate_plan(
    plan: &mut dyn SearchPlan,
    prior: &Prior,
    k: usize,
    max_rounds: usize,
) -> Result<SearchEvaluation> {
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    if max_rounds == 0 {
        return Err(Error::InvalidArgument("max_rounds must be positive".into()));
    }
    let m = prior.len();
    // survival[x] = P[treasure at x not found so far] (conditioned mass).
    let mut survival: Vec<f64> = (0..m).map(|x| prior.mass(x)).collect();
    let mut expected = 0.0;
    let mut found_total = 0.0;
    let mut success_by_round = Vec::with_capacity(max_rounds);
    for t in 0..max_rounds {
        let p = plan.round(t)?;
        if p.len() != m {
            return Err(Error::DimensionMismatch { strategy: p.len(), profile: m });
        }
        let mut found_this_round = 0.0;
        for (x, surv) in survival.iter_mut().enumerate() {
            let miss = (1.0 - p.prob(x)).powi(k as i32);
            found_this_round += *surv * (1.0 - miss);
            *surv *= miss;
        }
        found_total += found_this_round;
        expected += (t as f64 + 1.0) * found_this_round;
        success_by_round.push(found_total);
    }
    // Residual tail: treat undiscovered mass as found at max_rounds + 1
    // (a lower bound on its true cost; reported via success_probability).
    let residual: f64 = survival.iter().sum();
    expected += (max_rounds as f64 + 1.0) * residual;
    Ok(SearchEvaluation {
        plan: plan.name(),
        expected_rounds: expected,
        success_probability: found_total,
        success_by_round,
        max_rounds,
    })
}

/// Monte-Carlo detection-time estimate: simulates `trials` independent
/// hunts and returns the mean detection round (counting from 1), with
/// hunts exceeding `max_rounds` truncated to `max_rounds + 1`.
pub fn simulate_detection_time<R: Rng + ?Sized>(
    plan: &mut dyn SearchPlan,
    prior: &Prior,
    k: usize,
    trials: u64,
    max_rounds: usize,
    rng: &mut R,
) -> Result<f64> {
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    let m = prior.len();
    // Pre-sample round strategies once (plans are outcome-oblivious).
    let mut samplers = Vec::with_capacity(max_rounds);
    for t in 0..max_rounds {
        let p = plan.round(t)?;
        if p.len() != m {
            return Err(Error::DimensionMismatch { strategy: p.len(), profile: m });
        }
        samplers.push(StrategySampler::new(&p));
    }
    let prior_strategy =
        dispersal_core::strategy::Strategy::new((0..m).map(|x| prior.mass(x)).collect())?;
    let treasure_sampler = StrategySampler::new(&prior_strategy);
    let mut total = 0.0;
    for _ in 0..trials {
        let treasure = treasure_sampler.sample(rng);
        let mut detected = max_rounds + 1;
        'rounds: for (t, sampler) in samplers.iter().enumerate() {
            for _ in 0..k {
                if sampler.sample(rng) == treasure {
                    detected = t + 1;
                    break 'rounds;
                }
            }
        }
        total += detected as f64;
    }
    Ok(total / trials as f64)
}

/// Monte-Carlo detection time for searchers **with private memory**: each
/// searcher samples from the round distribution *conditioned on the boxes it
/// has not yet opened itself* (rejection sampling with a renormalization
/// fallback). This is the closer match to the A⋆ model of \[24\], where a
/// searcher never wastes a round re-opening its own boxes; the memoryless
/// variant ([`simulate_detection_time`]) lower-bounds it.
pub fn simulate_detection_time_with_memory<R: Rng + ?Sized>(
    plan: &mut dyn SearchPlan,
    prior: &Prior,
    k: usize,
    trials: u64,
    max_rounds: usize,
    rng: &mut R,
) -> Result<f64> {
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    let m = prior.len();
    let mut rounds = Vec::with_capacity(max_rounds);
    for t in 0..max_rounds {
        let p = plan.round(t)?;
        if p.len() != m {
            return Err(Error::DimensionMismatch { strategy: p.len(), profile: m });
        }
        rounds.push(p);
    }
    let prior_strategy =
        dispersal_core::strategy::Strategy::new((0..m).map(|x| prior.mass(x)).collect())?;
    let treasure_sampler = StrategySampler::new(&prior_strategy);
    let mut total = 0.0;
    // opened[searcher][box]
    let mut opened = vec![vec![false; m]; k];
    for _ in 0..trials {
        for row in opened.iter_mut() {
            row.iter_mut().for_each(|b| *b = false);
        }
        let treasure = treasure_sampler.sample(rng);
        let mut detected = max_rounds + 1;
        'rounds: for (t, p) in rounds.iter().enumerate() {
            for (searcher, history) in opened.iter_mut().enumerate() {
                let _ = searcher;
                // Conditional sample: restrict p to unopened boxes.
                let mass: f64 = p
                    .probs()
                    .iter()
                    .zip(history.iter())
                    .filter(|(_, &h)| !h)
                    .map(|(&q, _)| q)
                    .sum();
                let site = if mass <= 1e-14 {
                    // Round distribution exhausted for this searcher: fall
                    // back to the first unopened box (if any).
                    match history.iter().position(|&h| !h) {
                        Some(x) => x,
                        None => continue, // opened everything already
                    }
                } else {
                    let mut u = rng.gen::<f64>() * mass;
                    let mut chosen = m - 1;
                    for (x, (&q, &h)) in p.probs().iter().zip(history.iter()).enumerate() {
                        if h {
                            continue;
                        }
                        u -= q;
                        if u <= 0.0 {
                            chosen = x;
                            break;
                        }
                    }
                    chosen
                };
                history[site] = true;
                if site == treasure {
                    detected = t + 1;
                    break 'rounds;
                }
            }
        }
        total += detected as f64;
    }
    Ok(total / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::IteratedSigmaStar;
    use crate::baselines::{ProportionalPlan, SweepPlan, UniformPlan};
    use dispersal_core::coverage::coverage;
    use dispersal_core::sigma_star::sigma_star;
    use dispersal_core::strategy::Strategy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uniform_prior_uniform_plan_closed_form() {
        // P[find per round | at x] = 1 - (1 - 1/m)^k; geometric detection.
        let m = 8;
        let k = 2;
        let prior = Prior::uniform(m).unwrap();
        let mut plan = UniformPlan::new(m).unwrap();
        let eval = evaluate_plan(&mut plan, &prior, k, 400).unwrap();
        let q = 1.0 - (1.0 - 1.0 / m as f64).powi(k as i32);
        let geometric_mean = 1.0 / q;
        assert!(
            (eval.expected_rounds - geometric_mean).abs() < 0.05,
            "{} vs {geometric_mean}",
            eval.expected_rounds
        );
        assert!(eval.success_probability > 0.999);
    }

    #[test]
    fn success_by_round_is_monotone_cdf() {
        let prior = Prior::zipf(10, 1.0).unwrap();
        let mut plan = IteratedSigmaStar::new(&prior, 3).unwrap();
        let eval = evaluate_plan(&mut plan, &prior, 3, 50).unwrap();
        let mut prev = 0.0;
        for &s in &eval.success_by_round {
            assert!(s >= prev - 1e-12);
            assert!(s <= 1.0 + 1e-12);
            prev = s;
        }
    }

    #[test]
    fn iterated_sigma_star_beats_baselines_on_skewed_prior() {
        let prior = Prior::geometric(20, 0.6).unwrap();
        let k = 3;
        let horizon = 200;
        let mut astar = IteratedSigmaStar::new(&prior, k).unwrap();
        let astar_eval = evaluate_plan(&mut astar, &prior, k, horizon).unwrap();
        let mut uniform = UniformPlan::new(20).unwrap();
        let uniform_eval = evaluate_plan(&mut uniform, &prior, k, horizon).unwrap();
        let mut sweep = SweepPlan::new(20).unwrap();
        let sweep_eval = evaluate_plan(&mut sweep, &prior, k, horizon).unwrap();
        assert!(
            astar_eval.expected_rounds < uniform_eval.expected_rounds,
            "astar {} vs uniform {}",
            astar_eval.expected_rounds,
            uniform_eval.expected_rounds
        );
        assert!(
            astar_eval.expected_rounds < sweep_eval.expected_rounds,
            "astar {} vs sweep {}",
            astar_eval.expected_rounds,
            sweep_eval.expected_rounds
        );
    }

    #[test]
    fn iterated_sigma_star_beats_probability_matching() {
        let prior = Prior::zipf(15, 1.5).unwrap();
        let k = 2;
        let mut astar = IteratedSigmaStar::new(&prior, k).unwrap();
        let mut prop = ProportionalPlan::new(&prior).unwrap();
        let a = evaluate_plan(&mut astar, &prior, k, 300).unwrap();
        let p = evaluate_plan(&mut prop, &prior, k, 300).unwrap();
        assert!(
            a.expected_rounds < p.expected_rounds,
            "{} vs {}",
            a.expected_rounds,
            p.expected_rounds
        );
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        let prior = Prior::geometric(6, 0.5).unwrap();
        let k = 2;
        let mut plan = IteratedSigmaStar::new(&prior, k).unwrap();
        let eval = evaluate_plan(&mut plan, &prior, k, 100).unwrap();
        let mut plan2 = IteratedSigmaStar::new(&prior, k).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let mc = simulate_detection_time(&mut plan2, &prior, k, 60_000, 100, &mut rng).unwrap();
        assert!(
            (mc - eval.expected_rounds).abs() < 0.05,
            "MC {mc} vs analytic {}",
            eval.expected_rounds
        );
    }

    #[test]
    fn validates_inputs() {
        let prior = Prior::uniform(3).unwrap();
        let mut plan = UniformPlan::new(3).unwrap();
        assert!(evaluate_plan(&mut plan, &prior, 0, 10).is_err());
        assert!(evaluate_plan(&mut plan, &prior, 2, 0).is_err());
        let mut wrong = UniformPlan::new(4).unwrap();
        assert!(evaluate_plan(&mut wrong, &prior, 2, 10).is_err());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(simulate_detection_time(&mut plan, &prior, 0, 10, 10, &mut rng).is_err());
    }

    #[test]
    fn memory_strictly_helps() {
        // Never re-opening your own boxes cannot hurt and typically helps a
        // randomized plan.
        let prior = Prior::zipf(12, 1.0).unwrap();
        let k = 2;
        let mut plan_a = IteratedSigmaStar::new(&prior, k).unwrap();
        let mut plan_b = IteratedSigmaStar::new(&prior, k).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let memoryless =
            simulate_detection_time(&mut plan_a, &prior, k, 40_000, 200, &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let with_memory =
            simulate_detection_time_with_memory(&mut plan_b, &prior, k, 40_000, 200, &mut rng)
                .unwrap();
        assert!(with_memory < memoryless, "memory should help: {with_memory} vs {memoryless}");
    }

    #[test]
    fn memory_single_searcher_sweeps_like_greedy() {
        // One searcher with memory following iterated sigma* on a steep
        // prior visits boxes nearly in prior order: expected time close to
        // the expected rank of the treasure.
        let prior = Prior::geometric(10, 0.5).unwrap();
        let expected_rank: f64 = (0..10).map(|x| (x as f64 + 1.0) * prior.mass(x)).sum();
        let mut plan = IteratedSigmaStar::new(&prior, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let t = simulate_detection_time_with_memory(&mut plan, &prior, 1, 40_000, 100, &mut rng)
            .unwrap();
        assert!((t - expected_rank).abs() < 0.2, "time {t} vs expected rank {expected_rank}");
    }

    #[test]
    fn memory_validates_inputs() {
        let prior = Prior::uniform(3).unwrap();
        let mut plan = UniformPlan::new(3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(
            simulate_detection_time_with_memory(&mut plan, &prior, 0, 10, 10, &mut rng).is_err()
        );
        let mut wrong = UniformPlan::new(4).unwrap();
        assert!(
            simulate_detection_time_with_memory(&mut wrong, &prior, 2, 10, 10, &mut rng).is_err()
        );
    }

    #[test]
    fn single_searcher_on_point_prior_finds_immediately() {
        // Prior concentrated on one box; sigma* sends the searcher there.
        let prior = Prior::from_weights(vec![1.0, 1e-9, 1e-9]).unwrap();
        let mut plan = IteratedSigmaStar::new(&prior, 1).unwrap();
        let eval = evaluate_plan(&mut plan, &prior, 1, 50).unwrap();
        assert!(eval.expected_rounds < 1.1, "expected {}", eval.expected_rounds);
    }

    #[test]
    fn round_success_is_coverage_of_the_prior() {
        let prior = Prior::zipf(10, 1.0).unwrap();
        let k = 3;
        let star = sigma_star(prior.profile(), k).unwrap().strategy;
        // Round-one success is Cover_q(sigma*), a probability.
        let p_success = coverage(prior.profile(), &star, k).unwrap();
        assert!(p_success > 0.0 && p_success < 1.0);
        let mut plan = IteratedSigmaStar::new(&prior, k).unwrap();
        let eval = evaluate_plan(&mut plan, &prior, k, 1).unwrap();
        assert!((eval.success_by_round[0] - p_success).abs() < 1e-12);
        // No other strategy detects faster in round 1 (Theorem 4 again).
        let uniform = Strategy::uniform(10).unwrap();
        assert!(coverage(prior.profile(), &uniform, k).unwrap() <= p_success);
    }

    #[test]
    fn speedup_monotone_and_efficiency_at_most_one_ish() {
        let prior = Prior::zipf(40, 1.0).unwrap();
        let ks = [1usize, 2, 4, 8];
        let rounds: Vec<f64> = ks
            .iter()
            .map(|&k| {
                let mut plan = IteratedSigmaStar::new(&prior, k).unwrap();
                evaluate_plan(&mut plan, &prior, k, 400).unwrap().expected_rounds
            })
            .collect();
        // Memoryless randomization costs something at k = 2 (a single
        // searcher degenerates to the deterministic greedy sweep), but from
        // k = 2 on, larger teams never search slower.
        for (w, k) in rounds[1..].windows(2).zip(&ks[2..]) {
            assert!(w[1] <= w[0] + 1e-9, "k = {k} slower than k = {}", k / 2);
        }
        // And a big team is strictly faster than the lone searcher.
        assert!(rounds[3] < rounds[0]);
        // Independent searchers cannot be superlinearly efficient by much.
        for (&k, &r) in ks.iter().zip(&rounds) {
            let efficiency = rounds[0] / r / k as f64;
            assert!(efficiency <= 1.5, "k = {k}: efficiency {efficiency}");
        }
    }
}
