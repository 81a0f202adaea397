//! One-shot dispersal-game sampler.
//!
//! Draws one play of the game: each of the `k` players independently samples
//! a site from the strategy they all play, collision counts are tallied, and
//! payoffs and coverage are computed under a congestion policy. This is the
//! empirical ground truth against which the analytic formulas of
//! `dispersal-core` (coverage, ν-values, ESS payoffs) are validated.

use dispersal_core::payoff::PayoffContext;
use dispersal_core::strategy::{Strategy, StrategySampler};
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};
use rand::Rng;

/// The outcome of a single one-shot play.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Site chosen by each player (0-based).
    pub choices: Vec<usize>,
    /// Number of players at each site.
    pub occupancy: Vec<usize>,
    /// Payoff received by each player under the policy.
    pub payoffs: Vec<f64>,
    /// Realized coverage: sum of values over visited sites, added in
    /// ascending site order.
    pub coverage: f64,
    /// Number of sites with at least two players (collision sites).
    pub collision_sites: usize,
    /// Number of players involved in a collision.
    pub colliding_players: usize,
}

/// A reusable one-shot game simulator for a fixed `(f, C, k)` and symmetric
/// strategy. Precomputes the one alias sampler all `k` players draw from
/// (player `i` takes the `i`-th draw of a play) and the full `M × k` reward
/// matrix `f(x)·C(ℓ)`, so the per-trial step is pure sampling plus table
/// lookups — no multiplies against the congestion table, no virtual
/// dispatch. Built once per engine shard (see `crate::engine::Experiment`)
/// and reused across every trial of that shard.
///
/// A play touches only the sites its `k` players drew: each draw bumps the
/// site's occupancy and sets its bit in a visited-site bitset (one `u64`
/// per 64 sites), and the coverage sum walks the set bits in ascending
/// order, zeroing occupancy and bitset as it goes. A trial therefore costs
/// O(k + M/64) rather than O(M), and both scratch vectors are all zero
/// between plays.
pub struct OneShotGame<'a> {
    f: &'a ValueProfile,
    /// Site-major reward matrix: `rewards[x * k + (ℓ − 1)] = f(x)·C(ℓ)`.
    rewards: Vec<f64>,
    sampler: StrategySampler,
    k: usize,
    occupancy: Vec<usize>,
    /// Site `x` is bit `x % 64` of `visited[x / 64]`.
    visited: Vec<u64>,
}

/// Flatten `f(x)·C(ℓ)` into the site-major lookup used by the per-trial
/// fast paths (`rewards[x * k + (ℓ − 1)]`); shared with the invasion
/// experiment so the layout contract lives in one place.
pub(crate) fn reward_matrix(f: &ValueProfile, c_table: &[f64]) -> Vec<f64> {
    let mut rewards = Vec::with_capacity(f.len() * c_table.len());
    for &fx in f.values() {
        rewards.extend(c_table.iter().map(|&c| fx * c));
    }
    rewards
}

impl<'a> OneShotGame<'a> {
    /// Build a symmetric game: all `k` players use `strategy`.
    pub fn symmetric(
        f: &'a ValueProfile,
        c: &dyn dispersal_core::policy::Congestion,
        strategy: &Strategy,
        k: usize,
    ) -> Result<Self> {
        if strategy.len() != f.len() {
            return Err(Error::DimensionMismatch { strategy: strategy.len(), profile: f.len() });
        }
        let ctx = PayoffContext::new(c, k)?;
        Ok(Self {
            f,
            rewards: reward_matrix(f, ctx.c_table()),
            sampler: StrategySampler::new(strategy),
            k,
            occupancy: vec![0; f.len()],
            visited: vec![0; f.len().div_ceil(64)],
        })
    }

    /// Number of players.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Draw one player's site, and count it in the occupancy and the
    /// visited-site bitset.
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let site = self.sampler.sample(rng);
        self.occupancy[site] += 1;
        self.visited[site / 64] |= 1 << (site % 64);
        site
    }

    /// Play one round, returning the full outcome (allocates the outcome
    /// vectors; use [`Self::play_coverage`] in tight loops that only need
    /// scalar statistics).
    pub fn play<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Outcome {
        let k = self.k;
        let choices: Vec<usize> = (0..k).map(|_| self.draw(rng)).collect();
        let payoffs: Vec<f64> =
            choices.iter().map(|&site| self.rewards[site * k + self.occupancy[site] - 1]).collect();
        let occupancy = self.occupancy.clone();
        let mut collision_sites = 0;
        let mut colliding_players = 0;
        let coverage = self.clear_visited(|occ| {
            if occ > 1 {
                collision_sites += 1;
                colliding_players += occ;
            }
        });
        Outcome { choices, occupancy, payoffs, coverage, collision_sites, colliding_players }
    }

    /// Play one round returning only `(coverage, payoff of player 0)` —
    /// the allocation-free fast path for Monte-Carlo estimation.
    pub fn play_coverage<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (f64, f64) {
        let k = self.k;
        let first_site = self.draw(rng);
        for _ in 1..k {
            self.draw(rng);
        }
        let payoff0 = self.rewards[first_site * k + self.occupancy[first_site] - 1];
        (self.clear_visited(|_| {}), payoff0)
    }

    /// Walk the visited sites in ascending order, passing each one's
    /// occupancy to `visit`, and zero occupancy and bitset behind the walk.
    /// Returns the coverage: `f(x)` summed from `0.0` over the visited
    /// sites in ascending order — the same terms in the same order as a
    /// scan over all `M` sites that skips the empty ones.
    fn clear_visited(&mut self, mut visit: impl FnMut(usize)) -> f64 {
        let values = self.f.values();
        let mut coverage = 0.0;
        for (w, word) in self.visited.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let site = w * 64 + bits.trailing_zeros() as usize;
                coverage += values[site];
                visit(self.occupancy[site]);
                self.occupancy[site] = 0;
                bits &= bits - 1;
            }
        }
        coverage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Seed;
    use dispersal_core::policy::{Exclusive, Sharing};

    #[test]
    fn symmetric_game_validates_dimensions() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let s3 = Strategy::uniform(3).unwrap();
        assert!(OneShotGame::symmetric(&f, &Sharing, &s3, 2).is_err());
        let s2 = Strategy::uniform(2).unwrap();
        assert!(OneShotGame::symmetric(&f, &Sharing, &s2, 0).is_err());
    }

    #[test]
    fn outcome_is_internally_consistent() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
        let s = Strategy::uniform(3).unwrap();
        let mut game = OneShotGame::symmetric(&f, &Sharing, &s, 5).unwrap();
        let mut rng = Seed(3).rng();
        for _ in 0..200 {
            let o = game.play(&mut rng);
            assert_eq!(o.choices.len(), 5);
            assert_eq!(o.occupancy.iter().sum::<usize>(), 5);
            // Coverage equals sum over visited sites.
            let cov: f64 = o
                .occupancy
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(x, _)| f.value(x))
                .sum();
            assert!((o.coverage - cov).abs() < 1e-12);
            // Sharing payoffs: each player at a site with occ players gets
            // f/occ.
            for (i, &site) in o.choices.iter().enumerate() {
                let expect = f.value(site) / o.occupancy[site] as f64;
                assert!((o.payoffs[i] - expect).abs() < 1e-12);
            }
            assert!(o.colliding_players >= 2 * o.collision_sites);
        }
    }

    #[test]
    fn exclusive_payoffs_zero_on_collision() {
        let f = ValueProfile::new(vec![1.0]).unwrap();
        let s = Strategy::delta(1, 0).unwrap();
        let mut game = OneShotGame::symmetric(&f, &Exclusive, &s, 3).unwrap();
        let mut rng = Seed(1).rng();
        let o = game.play(&mut rng);
        assert_eq!(o.payoffs, vec![0.0, 0.0, 0.0]);
        assert_eq!(o.collision_sites, 1);
        assert_eq!(o.colliding_players, 3);
        assert!((o.coverage - 1.0).abs() < 1e-15);
    }

    /// On one stream, `play_coverage` returns exactly `play`'s coverage and
    /// player-0 payoff, and both equal the all-sites scan from `0.0`. The
    /// calls alternate on one game, so counts either path left behind would
    /// corrupt the other's next play; M = 130 spreads the visited bitset
    /// over three words.
    #[test]
    fn fast_path_matches_full_path_bit_for_bit() {
        let f = ValueProfile::zipf(130, 1.0, 1.0).unwrap();
        let s = Strategy::uniform(130).unwrap();
        let mut game = OneShotGame::symmetric(&f, &Sharing, &s, 9).unwrap();
        let mut rng = Seed(5).rng();
        let mut last_word_plays = 0;
        for trial in 0..3_000 {
            let mut full_rng = rng.clone();
            let (fast, o) = if trial % 2 == 0 {
                (game.play_coverage(&mut rng), game.play(&mut full_rng))
            } else {
                let o = game.play(&mut full_rng);
                (game.play_coverage(&mut rng), o)
            };
            assert_eq!(rng, full_rng, "the two paths drew different words");
            let scan = o
                .occupancy
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .fold(0.0, |acc, (x, _)| acc + f.value(x));
            assert_eq!(fast.0.to_bits(), o.coverage.to_bits(), "coverage, trial {trial}");
            assert_eq!(o.coverage.to_bits(), scan.to_bits(), "scan order, trial {trial}");
            assert_eq!(fast.1.to_bits(), o.payoffs[0].to_bits(), "payoff0, trial {trial}");
            last_word_plays += usize::from(o.choices.iter().any(|&x| x >= 128));
        }
        assert!(last_word_plays > 100, "only {last_word_plays} plays reached sites 128-129");
    }
}
