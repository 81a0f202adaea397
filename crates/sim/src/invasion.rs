//! Empirical ESS invasion experiments (Section 1.4, Eq. 3).
//!
//! A population holds strategy types in fixed shares — residents playing
//! `σ` and a fraction `ε` of mutants playing `π`, or any
//! [`Mixture`] of `M` types. Repeatedly, `k` individuals are drawn i.i.d.
//! from the population and play the one-shot game; we record the average
//! payoff of every type. Theorem 3 predicts residents strictly out-earn
//! mutants for small `ε` when `σ = σ⋆` under the exclusive policy. The
//! exact side (field payoffs, ledgers, barriers) lives in
//! [`dispersal_core::ess`]; this module is the sampled tournament.

use crate::engine::{self, Experiment, Merge, ShardPlan};
use crate::stats::{Estimate, Welford};
use dispersal_core::ess::{mixture_field_payoffs, Mixture};
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Congestion;
use dispersal_core::strategy::{Strategy, StrategySampler};
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Configuration for an invasion experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvasionConfig {
    /// Mutant share `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Number of sampled k-tuples.
    pub matches: u64,
    /// Master seed.
    pub seed: u64,
    /// Shard count for parallel execution.
    pub shards: u64,
}

impl Default for InvasionConfig {
    fn default() -> Self {
        Self { epsilon: 0.05, matches: 200_000, seed: 0xBEEF, shards: 32 }
    }
}

/// Result of an invasion experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvasionReport {
    /// Average payoff of resident-strategy players.
    pub resident_payoff: Estimate,
    /// Average payoff of mutant-strategy players.
    pub mutant_payoff: Estimate,
    /// Difference resident − mutant.
    pub advantage: f64,
    /// The analytic prediction of the advantage from Eq. (3).
    pub analytic_advantage: f64,
}

/// Run the invasion experiment: the two-type tournament of
/// [`Mixture::two`]`(resident, mutant, ε)` through
/// [`run_invasion_mixture`], with type 0 reported as the resident and
/// type 1 as the mutant.
pub fn run_invasion(
    c: &dyn Congestion,
    f: &ValueProfile,
    resident: &Strategy,
    mutant: &Strategy,
    k: usize,
    config: InvasionConfig,
) -> Result<InvasionReport> {
    if resident.len() != f.len() {
        return Err(Error::DimensionMismatch { strategy: resident.len(), profile: f.len() });
    }
    if mutant.len() != f.len() {
        return Err(Error::DimensionMismatch { strategy: mutant.len(), profile: f.len() });
    }
    let mixture = Mixture::two(resident, mutant, config.epsilon)?;
    let report = run_invasion_mixture(c, f, &mixture, k, config)?;
    let (resident_payoff, mutant_payoff) = (report.type_payoffs[0], report.type_payoffs[1]);
    Ok(InvasionReport {
        resident_payoff,
        mutant_payoff,
        advantage: report.advantage(0, 1),
        analytic_advantage: report.analytic_advantage(0, 1),
    })
}

/// Result of a multi-type invasion experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureInvasionReport {
    /// Empirical average payoff per type, in mixture order.
    pub type_payoffs: Vec<Estimate>,
    /// Analytic field payoffs `U_t` per type from the mean-field law.
    pub analytic_payoffs: Vec<f64>,
}

impl MixtureInvasionReport {
    /// Empirical advantage of type `a` over type `b`.
    pub fn advantage(&self, a: usize, b: usize) -> f64 {
        self.type_payoffs[a].mean - self.type_payoffs[b].mean
    }

    /// Analytic advantage of type `a` over type `b`.
    pub fn analytic_advantage(&self, a: usize, b: usize) -> f64 {
        self.analytic_payoffs[a] - self.analytic_payoffs[b]
    }
}

/// Per-type Welford accumulators with element-wise merging (shard order),
/// lazily sized on first trial so `Default` stays cheap.
#[derive(Debug, Default)]
struct TypePayoffs(Vec<Welford>);

impl Merge for TypePayoffs {
    fn merge(&mut self, other: Self) {
        if other.0.is_empty() {
            return;
        }
        if self.0.is_empty() {
            self.0 = other.0;
            return;
        }
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            Merge::merge(mine, theirs);
        }
    }
}

/// One sampled match as an engine [`Experiment`]: each of the `k` slots
/// draws its type from the mixture weights, then a site from that type's
/// sampler, and every player is paid from the precomputed site-major
/// reward matrix `rewards[x·k + ℓ − 1] = f(x)·C(ℓ)`. The type draw scans
/// the weights from the **last** type down, so in the two-type case one
/// `f64` draw `u < ε` picks the mutant.
struct Tournament<'a> {
    f: &'a ValueProfile,
    samplers: Vec<StrategySampler>,
    weights: &'a [f64],
    rewards: Vec<f64>,
    k: usize,
}

/// Reusable per-shard scratch for [`Tournament`]: site occupancy (all
/// zero between matches) and the `(site, type)` choice of every slot.
struct TournamentScratch {
    occupancy: Vec<usize>,
    choices: Vec<(usize, usize)>,
}

impl Experiment for Tournament<'_> {
    type State = TournamentScratch;
    type Output = TypePayoffs;

    fn make_state(&self) -> Result<TournamentScratch> {
        Ok(TournamentScratch {
            occupancy: vec![0usize; self.f.len()],
            choices: vec![(0usize, 0usize); self.k],
        })
    }

    fn trial(&self, scratch: &mut TournamentScratch, rng: &mut ChaCha8Rng, acc: &mut TypePayoffs) {
        if acc.0.is_empty() {
            acc.0 = vec![Welford::default(); self.samplers.len()];
        }
        for slot in scratch.choices.iter_mut() {
            let u = rng.gen::<f64>();
            let mut ty = 0usize;
            let mut cum = 0.0;
            for t in (1..self.samplers.len()).rev() {
                cum += self.weights[t];
                if u < cum {
                    ty = t;
                    break;
                }
            }
            let site = self.samplers[ty].sample(rng);
            scratch.occupancy[site] += 1;
            *slot = (site, ty);
        }
        for &(site, ty) in &scratch.choices {
            let payoff = self.rewards[site * self.k + scratch.occupancy[site] - 1];
            acc.0[ty].push(payoff);
        }
        for &(site, _) in &scratch.choices {
            scratch.occupancy[site] = 0;
        }
    }
}

/// Run the invasion experiment for an arbitrary multi-type mixture.
///
/// `config.epsilon` is ignored — the population shares live in the
/// mixture weights.
pub fn run_invasion_mixture(
    c: &dyn Congestion,
    f: &ValueProfile,
    mixture: &Mixture,
    k: usize,
    config: InvasionConfig,
) -> Result<MixtureInvasionReport> {
    if mixture.sites() != f.len() {
        return Err(Error::DimensionMismatch { strategy: mixture.sites(), profile: f.len() });
    }
    let ctx = PayoffContext::new(c, k)?;
    let analytic_payoffs = mixture_field_payoffs(&ctx, f, mixture)?;
    let experiment = Tournament {
        f,
        samplers: mixture.types().iter().map(StrategySampler::new).collect(),
        weights: mixture.weights(),
        rewards: crate::oneshot::reward_matrix(f, ctx.c_table()),
        k,
    };
    let plan = ShardPlan::new(config.matches, config.shards, config.seed);
    let mut accs = engine::run(&experiment, plan)?;
    if accs.0.is_empty() {
        accs.0 = vec![Welford::default(); mixture.len()];
    }
    Ok(MixtureInvasionReport {
        type_payoffs: accs.0.iter().map(Estimate::from_welford).collect(),
        analytic_payoffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::numerics::kahan_sum;
    use dispersal_core::policy::{Exclusive, Sharing};
    use dispersal_core::sigma_star::sigma_star;

    #[test]
    fn sigma_star_resists_uniform_invader() {
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let k = 2;
        let star = sigma_star(&f, k).unwrap().strategy;
        let mutant = Strategy::uniform(2).unwrap();
        let report = run_invasion(
            &Exclusive,
            &f,
            &star,
            &mutant,
            k,
            InvasionConfig { epsilon: 0.2, matches: 600_000, seed: 3, shards: 16 },
        )
        .unwrap();
        assert!(report.analytic_advantage > 0.0);
        assert!(
            report.advantage > 0.0,
            "resident {} vs mutant {}",
            report.resident_payoff.mean,
            report.mutant_payoff.mean
        );
    }

    #[test]
    fn empirical_matches_analytic_advantage() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
        let k = 3;
        let star = sigma_star(&f, k).unwrap().strategy;
        let mutant = Strategy::proportional(f.values()).unwrap();
        let report = run_invasion(
            &Exclusive,
            &f,
            &star,
            &mutant,
            k,
            InvasionConfig { epsilon: 0.2, matches: 500_000, seed: 8, shards: 16 },
        )
        .unwrap();
        let tol = report.resident_payoff.ci95 + report.mutant_payoff.ci95 + 1e-3;
        assert!(
            (report.advantage - report.analytic_advantage).abs() < tol,
            "empirical {} vs analytic {}",
            report.advantage,
            report.analytic_advantage
        );
    }

    #[test]
    fn bad_resident_is_invaded() {
        // Resident parks on the worst site; best-responding mutant wins.
        let f = ValueProfile::new(vec![1.0, 0.1]).unwrap();
        let resident = Strategy::delta(2, 1).unwrap();
        let mutant = Strategy::delta(2, 0).unwrap();
        let report = run_invasion(
            &Exclusive,
            &f,
            &resident,
            &mutant,
            2,
            InvasionConfig { epsilon: 0.1, matches: 100_000, seed: 4, shards: 8 },
        )
        .unwrap();
        assert!(report.analytic_advantage < 0.0);
        assert!(report.advantage <= 0.0);
    }

    #[test]
    fn validates_inputs() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let s2 = Strategy::uniform(2).unwrap();
        let s3 = Strategy::uniform(3).unwrap();
        assert!(run_invasion(&Exclusive, &f, &s3, &s2, 2, InvasionConfig::default()).is_err());
        assert!(run_invasion(&Exclusive, &f, &s2, &s3, 2, InvasionConfig::default()).is_err());
        let bad = InvasionConfig { epsilon: 0.0, ..Default::default() };
        assert!(run_invasion(&Exclusive, &f, &s2, &s2, 2, bad).is_err());
    }

    #[test]
    fn mixture_validates_inputs() {
        let s2 = Strategy::uniform(2).unwrap();
        let s3 = Strategy::uniform(3).unwrap();
        assert!(Mixture::new(vec![], vec![]).is_err());
        assert!(Mixture::new(vec![s2.clone()], vec![0.5, 0.5]).is_err());
        assert!(Mixture::new(vec![s2.clone(), s3], vec![0.5, 0.5]).is_err());
        assert!(Mixture::new(vec![s2.clone(), s2.clone()], vec![0.7, 0.7]).is_err());
        assert!(Mixture::new(vec![s2.clone(), s2.clone()], vec![1.5, -0.5]).is_err());
        assert!(Mixture::two(&s2, &s2, 0.0).is_err());
        assert!(Mixture::two(&s2, &s2, 1.0).is_err());
        let mix = Mixture::new(vec![s2.clone(), s2.clone()], vec![0.25, 0.75]).unwrap();
        assert_eq!((mix.len(), mix.sites()), (2, 2));
        assert!(!mix.is_empty());
        // Degenerate M = 1 mixture is legal: a monomorphic population.
        let mono = Mixture::new(vec![s2.clone()], vec![1.0]).unwrap();
        assert_eq!(mono.mean_strategy().unwrap().probs(), s2.probs());
    }

    /// The two-type mean field is bit-identical to `Strategy::mix`.
    #[test]
    fn degenerate_mixture_mean_is_bit_identical_to_strategy_mix() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
        let sigma = sigma_star(&f, 3).unwrap().strategy;
        let pi = Strategy::proportional(f.values()).unwrap();
        for eps in [0.01, 0.2, 1.0 / 3.0, 0.5, 0.95] {
            let mix = Mixture::two(&sigma, &pi, eps).unwrap();
            let mean = mix.mean_strategy().unwrap();
            let legacy = sigma.mix(&pi, eps).unwrap();
            for (a, b) in mean.probs().iter().zip(legacy.probs().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "mean field diverged at eps={eps}");
            }
        }
    }

    /// A genuinely asymmetric three-type population: the exact evaluator,
    /// the mean-field law, and the Monte-Carlo estimator must agree.
    #[test]
    fn three_type_mixture_exact_field_and_mc_agree() {
        let f = ValueProfile::new(vec![1.0, 0.7, 0.35, 0.1]).unwrap();
        let k = 4;
        let ctx = PayoffContext::new(&Sharing, k).unwrap();
        let types = vec![
            sigma_star(&f, k).unwrap().strategy,
            Strategy::uniform(4).unwrap(),
            Strategy::proportional(f.values()).unwrap(),
        ];
        let mix = Mixture::new(types.clone(), vec![0.6, 0.25, 0.15]).unwrap();

        // Consistency of the mean-field law: Σ_t w_t·U_t equals the
        // symmetric payoff of the mean strategy.
        let u = mixture_field_payoffs(&ctx, &f, &mix).unwrap();
        let mean = mix.mean_strategy().unwrap();
        let mixture_welfare: f64 =
            kahan_sum(mix.weights().iter().zip(u.iter()).map(|(w, ut)| w * ut));
        let symmetric = ctx.symmetric_payoff(&f, &mean).unwrap();
        assert!((mixture_welfare - symmetric).abs() < 1e-12, "{mixture_welfare} vs {symmetric}");

        // Monte Carlo tracks the analytic field payoffs for every type.
        let report = run_invasion_mixture(
            &Sharing,
            &f,
            &mix,
            k,
            InvasionConfig { matches: 300_000, seed: 21, shards: 16, epsilon: 0.5 },
        )
        .unwrap();
        for (t, (est, ut)) in
            report.type_payoffs.iter().zip(report.analytic_payoffs.iter()).enumerate()
        {
            assert!(
                (est.mean - ut).abs() < 3.0 * est.ci95 + 1e-3,
                "type {t}: empirical {} vs analytic {ut}",
                est.mean
            );
        }
    }
}
