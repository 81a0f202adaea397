//! Finite-population Moran process over pure site-strategies.
//!
//! A population of `n` individuals, each committed to a pure site choice,
//! evolves by a frequency-dependent Moran process: each generation, random
//! `k`-groups play the dispersal game to determine fitness; one individual
//! is chosen to reproduce proportionally to (exponentiated) fitness and one
//! uniformly to die. The long-run site-frequency distribution approximates
//! the IFD for large populations — the finite-population counterpart of the
//! infinite-population ESS analysis in the paper.

use crate::rng::Seed;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Congestion;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Configuration for the Moran process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoranConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations (birth–death events).
    pub generations: u64,
    /// Generations to discard as burn-in before recording frequencies.
    pub burn_in: u64,
    /// How many shuffled full-population partitions into k-groups are
    /// played per generation (each individual plays this many games).
    pub rounds_per_generation: usize,
    /// Selection intensity: reproduction weight is `max(0, 1 + s·fitness)`
    /// (linear weak selection, so expected weight tracks expected payoff
    /// without variance bias).
    pub selection: f64,
    /// Mutation probability: a newborn picks a uniformly random site.
    pub mutation: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for MoranConfig {
    fn default() -> Self {
        Self {
            population: 200,
            generations: 60_000,
            burn_in: 10_000,
            rounds_per_generation: 4,
            selection: 4.0,
            mutation: 0.01,
            seed: 0xC0FFEE,
        }
    }
}

/// Result of a Moran run.
#[derive(Debug, Clone)]
pub struct MoranRun {
    /// Time-averaged post-burn-in site frequencies.
    pub mean_frequencies: Strategy,
    /// Final population composition (site of each individual).
    pub final_counts: Vec<usize>,
    /// Generations simulated.
    pub generations: u64,
}

/// Run the Moran process under policy `c` with `k`-group matching.
pub fn run_moran(
    c: &dyn Congestion,
    f: &ValueProfile,
    k: usize,
    config: MoranConfig,
) -> Result<MoranRun> {
    if config.population < k.max(2) {
        return Err(Error::InvalidArgument(format!(
            "population {} must be at least max(k, 2) = {}",
            config.population,
            k.max(2)
        )));
    }
    if !(0.0..=1.0).contains(&config.mutation) {
        return Err(Error::InvalidArgument(format!(
            "mutation must be in [0,1], got {}",
            config.mutation
        )));
    }
    if config.burn_in >= config.generations {
        return Err(Error::InvalidArgument(format!(
            "burn_in {} must be below generations {}",
            config.burn_in, config.generations
        )));
    }
    let ctx = PayoffContext::new(c, k)?;
    let m = f.len();
    let n = config.population;
    let mut rng = Seed(config.seed).rng();
    // Individuals' pure site choices, initialized uniformly at random.
    let mut sites: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
    // Site-major reward matrix `rewards[x·k + ℓ − 1] = f(x)·C(ℓ)` — the
    // same precomputed lookup layout as the one-shot and invasion
    // experiments, so the inner game loop does no value×table multiplies.
    let mut engine = MoranEngine::new(m, n, k, crate::oneshot::reward_matrix(f, ctx.c_table()));
    let mut freq_acc = vec![0.0f64; m];
    let mut recorded = 0u64;
    for generation in 0..config.generations {
        engine.generation(&config, &mut sites, &mut rng);
        if generation >= config.burn_in {
            recorded += 1;
            for &s in &sites {
                freq_acc[s] += 1.0;
            }
        }
    }
    let norm = (recorded as f64) * (n as f64);
    let mean_frequencies =
        Strategy::from_weights(freq_acc.iter().map(|&x| (x / norm).max(1e-15)).collect())?;
    let mut final_counts = vec![0usize; m];
    for &s in &sites {
        final_counts[s] += 1;
    }
    Ok(MoranRun { mean_frequencies, final_counts, generations: config.generations })
}

/// The reusable Moran generation kernel: the birth–death step with its
/// scratch buffers, factored out so [`run_moran`] and the time-varying
/// scenario driver share one RNG-call sequence. Rewards can be swapped
/// between generations ([`MoranEngine::set_rewards`]) without touching
/// the population — the scenario engine's moving-traffic hook.
pub(crate) struct MoranEngine {
    rewards: Vec<f64>,
    m: usize,
    n: usize,
    k: usize,
    groups_per_round: usize,
    fitness: Vec<f64>,
    plays: Vec<u32>,
    occupancy: Vec<usize>,
    order: Vec<usize>,
}

impl MoranEngine {
    /// Buffers for a population of `n` individuals over `m` sites with
    /// `k`-group matching; `rewards` is the site-major lookup
    /// `rewards[x·k + ℓ − 1]`.
    pub(crate) fn new(m: usize, n: usize, k: usize, rewards: Vec<f64>) -> Self {
        Self {
            rewards,
            m,
            n,
            k,
            groups_per_round: n / k,
            fitness: vec![0.0; n],
            plays: vec![0; n],
            occupancy: vec![0; m],
            order: (0..n).collect(),
        }
    }

    /// Swap in a new site-major reward matrix (same `m × k` shape).
    pub(crate) fn set_rewards(&mut self, rewards: Vec<f64>) {
        debug_assert_eq!(rewards.len(), self.rewards.len());
        self.rewards = rewards;
    }

    /// One generation: `rounds_per_generation` shuffled full-population
    /// partitions into k-groups determine fitness, then one
    /// selection-weighted birth and one uniform death. Identical RNG call
    /// order to the pre-refactor loop, so seeded runs reproduce bit for
    /// bit.
    pub(crate) fn generation(
        &mut self,
        config: &MoranConfig,
        sites: &mut [usize],
        rng: &mut ChaCha8Rng,
    ) {
        let (n, k) = (self.n, self.k);
        // Each round, the whole population is shuffled and partitioned into
        // k-groups that play once (the paper's "colony breaks daily into
        // foraging groups" picture); leftovers (< k individuals) sit out.
        self.fitness.iter_mut().for_each(|x| *x = 0.0);
        self.plays.iter_mut().for_each(|x| *x = 0);
        for _ in 0..config.rounds_per_generation {
            // Fisher-Yates shuffle of the play order.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                self.order.swap(i, j);
            }
            for g in 0..self.groups_per_round {
                let group = &self.order[g * k..(g + 1) * k];
                self.occupancy.iter_mut().for_each(|o| *o = 0);
                for &ind in group {
                    self.occupancy[sites[ind]] += 1;
                }
                for &ind in group {
                    let site = sites[ind];
                    self.fitness[ind] += self.rewards[site * k + self.occupancy[site] - 1];
                    self.plays[ind] += 1;
                }
            }
        }
        // Linear weak selection: weight = max(0, 1 + s * average payoff).
        let weights: Vec<f64> = (0..n)
            .map(|i| {
                let avg =
                    if self.plays[i] > 0 { self.fitness[i] / self.plays[i] as f64 } else { 0.0 };
                (1.0 + config.selection * avg).max(0.0)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen::<f64>() * total;
        let mut parent = n - 1;
        for (i, &w) in weights.iter().enumerate() {
            pick -= w;
            if pick <= 0.0 {
                parent = i;
                break;
            }
        }
        let child_site = if rng.gen::<f64>() < config.mutation {
            rng.gen_range(0..self.m)
        } else {
            sites[parent]
        };
        let dying = rng.gen_range(0..n);
        sites[dying] = child_site;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::policy::{Exclusive, Sharing};
    use dispersal_core::sigma_star::sigma_star;

    #[test]
    fn validates_config() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let bad_pop = MoranConfig { population: 1, ..Default::default() };
        assert!(run_moran(&Sharing, &f, 2, bad_pop).is_err());
        let bad_mut = MoranConfig { mutation: 1.5, ..Default::default() };
        assert!(run_moran(&Sharing, &f, 2, bad_mut).is_err());
        let bad_burn = MoranConfig { burn_in: 10, generations: 10, ..Default::default() };
        assert!(run_moran(&Sharing, &f, 2, bad_burn).is_err());
    }

    #[test]
    fn frequencies_form_distribution_and_counts_sum() {
        let f = ValueProfile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let cfg = MoranConfig {
            population: 60,
            generations: 3_000,
            burn_in: 500,
            rounds_per_generation: 2,
            ..Default::default()
        };
        let run = run_moran(&Exclusive, &f, 3, cfg).unwrap();
        assert_eq!(run.final_counts.iter().sum::<usize>(), 60);
        let sum: f64 = run.mean_frequencies.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn moran_tracks_sigma_star_qualitatively() {
        // With moderate selection, the stationary site frequencies should
        // order like sigma*: better sites more occupied, and not
        // degenerate.
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let k = 2;
        let cfg = MoranConfig {
            population: 300,
            generations: 40_000,
            burn_in: 8_000,
            rounds_per_generation: 4,
            selection: 6.0,
            mutation: 0.005,
            seed: 12,
        };
        let run = run_moran(&Exclusive, &f, k, cfg).unwrap();
        let star = sigma_star(&f, k).unwrap().strategy;
        let d = run.mean_frequencies.tv_distance(&star).unwrap();
        assert!(d < 0.15, "tv to sigma* = {d} (freqs {:?})", run.mean_frequencies.probs());
        assert!(run.mean_frequencies.prob(0) > run.mean_frequencies.prob(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let cfg = MoranConfig {
            population: 40,
            generations: 2_000,
            burn_in: 200,
            rounds_per_generation: 2,
            ..Default::default()
        };
        let a = run_moran(&Sharing, &f, 2, cfg).unwrap();
        let b = run_moran(&Sharing, &f, 2, cfg).unwrap();
        assert_eq!(a.final_counts, b.final_counts);
    }
}
