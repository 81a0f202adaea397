//! Adversarial instance search: hill-climbing over value profiles to
//! lower-bound `SPoA(C)` more tightly than the structured families alone.
//!
//! Starts are drawn from the structured families of
//! [`dispersal_core::spoa::spoa_supremum_search`] plus random profiles;
//! each start is refined by multiplicative perturbation hill-climbing, and
//! starts run in parallel.

use dispersal_core::policy::Congestion;
use dispersal_core::spoa::spoa;
use dispersal_core::value::ValueProfile;
use dispersal_core::Result;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Configuration for the adversarial SPoA search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarialConfig {
    /// Sites per instance.
    pub m: usize,
    /// Number of random multistarts (in addition to structured starts).
    pub random_starts: usize,
    /// Hill-climbing iterations per start.
    pub iterations: usize,
    /// Relative perturbation magnitude.
    pub step: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        Self { m: 24, random_starts: 8, iterations: 300, step: 0.15, seed: 99 }
    }
}

/// Result of the adversarial search.
#[derive(Debug, Clone)]
pub struct AdversarialResult {
    /// Largest SPoA found.
    pub best_ratio: f64,
    /// The witness profile.
    pub witness: Vec<f64>,
    /// Number of instances evaluated.
    pub evaluations: usize,
}

fn hill_climb(
    c: &dyn Congestion,
    start: &ValueProfile,
    k: usize,
    config: AdversarialConfig,
    rng: &mut ChaCha8Rng,
) -> Result<(f64, ValueProfile, usize)> {
    let mut current = start.clone();
    let mut best = spoa(c, &current, k)?.ratio;
    let mut evals = 1usize;
    for _ in 0..config.iterations {
        let perturbed: Vec<f64> = current
            .values()
            .iter()
            .map(|&v| v * (1.0 + config.step * (rng.gen::<f64>() * 2.0 - 1.0)))
            .collect();
        let candidate = ValueProfile::from_unsorted(perturbed)?;
        let ratio = spoa(c, &candidate, k)?.ratio;
        evals += 1;
        if ratio > best {
            best = ratio;
            current = candidate;
        }
    }
    Ok((best, current, evals))
}

/// Run the adversarial search for `SPoA(C)` at player count `k`.
pub fn adversarial_spoa(
    c: &dyn Congestion,
    k: usize,
    config: AdversarialConfig,
) -> Result<AdversarialResult> {
    let mut starts: Vec<ValueProfile> = vec![
        ValueProfile::uniform(config.m, 1.0)?,
        ValueProfile::zipf(config.m, 1.0, 0.5)?,
        ValueProfile::geometric(config.m, 1.0, 0.95)?,
        ValueProfile::linear(config.m, 1.0, 0.2)?,
    ];
    if k >= 2 {
        starts.push(ValueProfile::slow_decay_witness(config.m, k)?);
    }
    let mut seed_rng = ChaCha8Rng::seed_from_u64(config.seed);
    for _ in 0..config.random_starts {
        let values: Vec<f64> = (0..config.m).map(|_| seed_rng.gen::<f64>().max(1e-6)).collect();
        starts.push(ValueProfile::from_unsorted(values)?);
    }
    let seeds: Vec<u64> = (0..starts.len()).map(|_| seed_rng.gen()).collect();
    let results: Vec<Result<(f64, ValueProfile, usize)>> = starts
        .par_iter()
        .zip(seeds.par_iter())
        .map(|(start, &seed)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            hill_climb(c, start, k, config, &mut rng)
        })
        .collect();
    let mut best_ratio = 0.0;
    let mut witness = Vec::new();
    let mut evaluations = 0usize;
    for r in results {
        let (ratio, profile, evals) = r?;
        evaluations += evals;
        if ratio > best_ratio {
            best_ratio = ratio;
            witness = profile.values().to_vec();
        }
    }
    Ok(AdversarialResult { best_ratio, witness, evaluations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::policy::{Exclusive, Sharing, TwoLevel};

    fn small_config() -> AdversarialConfig {
        AdversarialConfig { m: 10, random_starts: 2, iterations: 40, step: 0.2, seed: 7 }
    }

    #[test]
    fn exclusive_stays_at_one_under_attack() {
        let result = adversarial_spoa(&Exclusive, 3, small_config()).unwrap();
        assert!(
            (result.best_ratio - 1.0).abs() < 1e-6,
            "adversarial search broke Corollary 5: {}",
            result.best_ratio
        );
    }

    #[test]
    fn sharing_found_above_one_but_below_two() {
        let result = adversarial_spoa(&Sharing, 4, small_config()).unwrap();
        assert!(result.best_ratio > 1.0 + 1e-6, "ratio {}", result.best_ratio);
        assert!(result.best_ratio < 2.0 + 1e-9, "Vetta bound violated: {}", result.best_ratio);
        assert!(!result.witness.is_empty());
        assert!(result.evaluations > 100);
    }

    #[test]
    fn aggressive_policy_also_above_one() {
        let result = adversarial_spoa(&TwoLevel { c: -0.5 }, 3, small_config()).unwrap();
        assert!(result.best_ratio > 1.0 + 1e-6, "ratio {}", result.best_ratio);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = adversarial_spoa(&Sharing, 3, small_config()).unwrap();
        let b = adversarial_spoa(&Sharing, 3, small_config()).unwrap();
        assert_eq!(a.best_ratio.to_bits(), b.best_ratio.to_bits());
    }
}
