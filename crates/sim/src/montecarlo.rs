//! Parallel Monte-Carlo estimation over one-shot plays.
//!
//! Runs on the shared [`crate::engine`]: trials are sharded by a
//! [`ShardPlan`], each shard derives its own deterministic RNG stream from
//! the master seed, and per-shard [`Welford`] accumulators merge in shard
//! order — so results are bit-reproducible regardless of thread count or
//! scheduling. All per-trial congestion arithmetic is precomputed into the
//! per-shard [`OneShotGame`] state (a site × occupancy reward matrix), so
//! the trial step is pure sampling plus table lookups.

use crate::engine::{self, Experiment, ShardPlan};
use crate::oneshot::OneShotGame;
use crate::stats::{Estimate, Welford};
use dispersal_core::policy::Congestion;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_core::Result;
use rand_chacha::ChaCha8Rng;

/// Monte-Carlo estimates of the key observables of the dispersal game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McReport {
    /// Estimated expected coverage.
    pub coverage: Estimate,
    /// Estimated expected individual payoff (player 0; all players are
    /// exchangeable in the symmetric game).
    pub payoff: Estimate,
    /// Total trials.
    pub trials: u64,
}

/// Configuration for a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Total number of one-shot plays.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Number of shards (each shard gets its own RNG stream). More shards
    /// than threads is fine; keep it stable for reproducibility.
    pub shards: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self { trials: 100_000, seed: 0xD15EA5E, shards: 64 }
    }
}

impl McConfig {
    /// The engine sharding plan this configuration describes.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.trials, self.shards, self.seed)
    }
}

/// Symmetric one-shot estimation as an engine [`Experiment`]: per-shard
/// state is a reusable [`OneShotGame`]; each trial folds one play's
/// coverage and player-0 payoff into a pair of [`Welford`] accumulators.
struct SymmetricMc<'a> {
    f: &'a ValueProfile,
    c: &'a dyn Congestion,
    strategy: &'a Strategy,
    k: usize,
}

impl<'a> Experiment for SymmetricMc<'a> {
    type State = OneShotGame<'a>;
    type Output = (Welford, Welford);

    fn make_state(&self) -> Result<OneShotGame<'a>> {
        OneShotGame::symmetric(self.f, self.c, self.strategy, self.k)
    }

    fn trial(&self, game: &mut OneShotGame<'a>, rng: &mut ChaCha8Rng, acc: &mut Self::Output) {
        let (c_val, p_val) = game.play_coverage(rng);
        acc.0.push(c_val);
        acc.1.push(p_val);
    }
}

/// Estimate coverage and individual payoff for the symmetric profile where
/// all `k` players play `strategy` under policy `c`, in parallel.
pub fn estimate_symmetric(
    f: &ValueProfile,
    c: &dyn Congestion,
    strategy: &Strategy,
    k: usize,
    config: McConfig,
) -> Result<McReport> {
    let (cov, pay) = engine::run(&SymmetricMc { f, c, strategy, k }, config.plan())?;
    Ok(McReport {
        coverage: Estimate::from_welford(&cov),
        payoff: Estimate::from_welford(&pay),
        trials: cov.count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::coverage::coverage;
    use dispersal_core::payoff::PayoffContext;
    use dispersal_core::policy::{Exclusive, Sharing, TwoLevel};

    #[test]
    fn mc_matches_analytic_coverage_and_payoff() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
        let p = Strategy::new(vec![0.5, 0.3, 0.2]).unwrap();
        let k = 4;
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.3 }] {
            let report = estimate_symmetric(
                &f,
                c,
                &p,
                k,
                McConfig { trials: 200_000, seed: 77, shards: 16 },
            )
            .unwrap();
            let analytic_cov = coverage(&f, &p, k).unwrap();
            let ctx = PayoffContext::new(c, k).unwrap();
            let analytic_pay = ctx.symmetric_payoff(&f, &p).unwrap();
            assert!(
                report.coverage.covers(analytic_cov, 1e-3),
                "{}: MC {} ± {} vs analytic {analytic_cov}",
                c.name(),
                report.coverage.mean,
                report.coverage.ci95
            );
            assert!(
                report.payoff.covers(analytic_pay, 1e-3),
                "{}: MC payoff {} ± {} vs analytic {analytic_pay}",
                c.name(),
                report.payoff.mean,
                report.payoff.ci95
            );
        }
    }

    #[test]
    fn mc_is_reproducible_across_shard_counts() {
        // Same seed and same shard count => identical estimates.
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let p = Strategy::uniform(2).unwrap();
        let cfg = McConfig { trials: 10_000, seed: 5, shards: 8 };
        let a = estimate_symmetric(&f, &Exclusive, &p, 2, cfg).unwrap();
        let b = estimate_symmetric(&f, &Exclusive, &p, 2, cfg).unwrap();
        assert_eq!(a.coverage.mean.to_bits(), b.coverage.mean.to_bits());
        assert_eq!(a.trials, 10_000);
    }

    #[test]
    fn trial_remainder_distributed() {
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let p = Strategy::uniform(2).unwrap();
        let cfg = McConfig { trials: 1_003, seed: 5, shards: 10 };
        let a = estimate_symmetric(&f, &Exclusive, &p, 2, cfg).unwrap();
        assert_eq!(a.trials, 1_003);
    }

    #[test]
    fn invalid_inputs_rejected_before_spawning() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let bad = Strategy::uniform(3).unwrap();
        assert!(estimate_symmetric(&f, &Sharing, &bad, 2, McConfig::default()).is_err());
    }
}
