//! Robustness analysis: how mechanisms degrade under misspecification.
//!
//! The paper's selling point for congestion policies over reward design
//! (Section 1.6) is that the exclusive policy needs neither the player
//! count `k` nor control over rewards. This module quantifies that:
//!
//! * [`k_misspecification_curve`] — design Kleinberg–Oren rewards for
//!   `k_design`, deploy against `k_actual`, and measure the coverage loss
//!   relative to the optimum at `k_actual`; the exclusive policy's loss is
//!   identically zero.
//! * [`value_noise_robustness`] — perturb the value profile the players
//!   respond to (mis-estimated site qualities) and measure how the
//!   realized coverage (under the *true* values) degrades.

use crate::kleinberg_oren::design_rewards;
use dispersal_core::coverage::coverage;
use dispersal_core::ifd::solve_ifd;
use dispersal_core::optimal::optimal_coverage;
use dispersal_core::policy::{Exclusive, Sharing};
use dispersal_core::sigma_star::sigma_star;
use dispersal_core::value::ValueProfile;
use dispersal_core::Result;
use rand::Rng;

/// One row of the k-misspecification comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMisspecPoint {
    /// The deployed (actual) player count.
    pub k_actual: usize,
    /// Optimal coverage at `k_actual`.
    pub optimal: f64,
    /// Coverage of the Kleinberg–Oren design (built for `k_design`) when
    /// `k_actual` players respond to it under sharing.
    pub kleinberg_oren: f64,
    /// Coverage of the exclusive policy's equilibrium at `k_actual` (no
    /// design step at all).
    pub exclusive: f64,
}

/// Sweep `k_actual` over `ks`, with rewards designed once for `k_design`.
pub fn k_misspecification_curve(
    f: &ValueProfile,
    k_design: usize,
    ks: &[usize],
) -> Result<Vec<KMisspecPoint>> {
    let target = sigma_star(f, k_design)?.strategy;
    let design = design_rewards(&Sharing, &target, k_design, 1.0)?;
    ks.iter()
        .map(|&k_actual| {
            let optimal = optimal_coverage(f, k_actual)?.coverage;
            let ko_eq = solve_ifd(&Sharing, &design.rewards, k_actual)?;
            let kleinberg_oren = coverage(f, &ko_eq.strategy, k_actual)?;
            let excl_eq = solve_ifd(&Exclusive, f, k_actual)?;
            let exclusive = coverage(f, &excl_eq.strategy, k_actual)?;
            Ok(KMisspecPoint { k_actual, optimal, kleinberg_oren, exclusive })
        })
        .collect()
}

/// Result of the value-noise robustness experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseRobustness {
    /// Relative noise magnitude applied to the values.
    pub noise: f64,
    /// Mean realized coverage (under true values) when players equilibrate
    /// on noisy values, divided by the true optimum.
    pub mean_efficiency: f64,
    /// Worst efficiency across samples.
    pub worst_efficiency: f64,
    /// Number of noisy samples.
    pub samples: usize,
}

/// Players perceive `f(x)·(1 + ε_x)` with `ε_x ~ U(−noise, noise)`,
/// equilibrate under the exclusive policy on the *perceived* values, and
/// we measure realized coverage under the *true* values.
pub fn value_noise_robustness<R: Rng + ?Sized>(
    f: &ValueProfile,
    k: usize,
    noise: f64,
    samples: usize,
    rng: &mut R,
) -> Result<NoiseRobustness> {
    if !(0.0..1.0).contains(&noise) {
        return Err(dispersal_core::Error::InvalidArgument(format!(
            "noise must be in [0, 1), got {noise}"
        )));
    }
    let optimum = optimal_coverage(f, k)?.coverage;
    let mut total = 0.0;
    let mut worst = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let perceived_values: Vec<f64> = f
            .values()
            .iter()
            .map(|&v| v * (1.0 + noise * (rng.gen::<f64>() * 2.0 - 1.0)))
            .collect();
        // Keep track of the permutation: sort perceived, remember where
        // each true value went.
        let mut order: Vec<usize> = (0..f.len()).collect();
        order.sort_by(|&a, &b| {
            perceived_values[b]
                .partial_cmp(&perceived_values[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let sorted_perceived: Vec<f64> = order.iter().map(|&i| perceived_values[i]).collect();
        let perceived = ValueProfile::new(sorted_perceived)?;
        let star = sigma_star(&perceived, k)?;
        // Realized coverage under the TRUE values: site order[r] receives
        // probability star(r).
        let mut realized = 0.0;
        for (rank, &site) in order.iter().enumerate() {
            let p = star.strategy.prob(rank);
            realized += f.value(site) * (1.0 - (1.0 - p).powi(k as i32));
        }
        let efficiency = realized / optimum;
        total += efficiency;
        worst = worst.min(efficiency);
    }
    Ok(NoiseRobustness {
        noise,
        mean_efficiency: total / samples.max(1) as f64,
        worst_efficiency: worst,
        samples: samples.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exclusive_is_exact_at_every_k() {
        let f = ValueProfile::zipf(10, 1.0, 0.8).unwrap();
        let curve = k_misspecification_curve(&f, 4, &[2, 4, 6, 8]).unwrap();
        for point in &curve {
            assert!(
                (point.exclusive - point.optimal).abs() < 1e-7,
                "k = {}: exclusive {} vs optimal {}",
                point.k_actual,
                point.exclusive,
                point.optimal
            );
        }
    }

    #[test]
    fn kleinberg_oren_exact_only_at_design_k() {
        let f = ValueProfile::zipf(10, 1.0, 0.8).unwrap();
        let k_design = 4;
        let curve = k_misspecification_curve(&f, k_design, &[2, 4, 8]).unwrap();
        for point in &curve {
            if point.k_actual == k_design {
                assert!((point.kleinberg_oren - point.optimal).abs() < 1e-7);
            } else {
                assert!(
                    point.kleinberg_oren < point.optimal - 1e-6,
                    "k = {}: KO {} should be suboptimal vs {}",
                    point.k_actual,
                    point.kleinberg_oren,
                    point.optimal
                );
            }
        }
    }

    #[test]
    fn zero_noise_is_fully_efficient() {
        let f = ValueProfile::zipf(8, 1.0, 1.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = value_noise_robustness(&f, 3, 0.0, 5, &mut rng).unwrap();
        assert!((r.mean_efficiency - 1.0).abs() < 1e-9);
        assert!((r.worst_efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_degrades_gracefully_with_noise() {
        let f = ValueProfile::zipf(8, 1.0, 1.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let small = value_noise_robustness(&f, 3, 0.05, 40, &mut rng).unwrap();
        let large = value_noise_robustness(&f, 3, 0.5, 40, &mut rng).unwrap();
        assert!(small.mean_efficiency > 0.99, "small noise: {}", small.mean_efficiency);
        assert!(large.mean_efficiency >= small.mean_efficiency - 0.2);
        assert!(large.mean_efficiency <= 1.0 + 1e-9);
        assert!(large.worst_efficiency <= large.mean_efficiency + 1e-12);
    }

    #[test]
    fn noise_validation() {
        let f = ValueProfile::uniform(3, 1.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(value_noise_robustness(&f, 2, 1.0, 5, &mut rng).is_err());
        assert!(value_noise_robustness(&f, 2, -0.1, 5, &mut rng).is_err());
    }
}
