//! Replicator dynamics for the k-player field game.
//!
//! The population state is a distribution `x` over sites (the fraction of
//! the population currently favoring each site). With random `k`-tuple
//! matching, the fitness of site `i` is its value
//! `π_i(x) = f(i)·g_C(x_i)` (the same ν function as the static game), and
//! the replicator ODE is `ẋ_i = x_i (π_i(x) − π̄(x))`.
//!
//! The interior rest points are exactly the IFD (Observation 2), and
//! Theorem 3 manifests dynamically: trajectories converge to σ⋆ under the
//! exclusive policy. Integration is classical RK4 with a simplex
//! re-projection guard each step.

use crate::engine;
use dispersal_core::kernel::GScratch;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Congestion;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};
use rand::Rng;

/// Configuration of a replicator-dynamics run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicatorConfig {
    /// RK4 step size.
    pub dt: f64,
    /// Maximum number of steps.
    pub max_steps: usize,
    /// Stop when `‖ẋ‖∞` falls below this threshold.
    pub velocity_tol: f64,
    /// Record the trajectory every `record_every` steps (0 = only final).
    pub record_every: usize,
}

impl Default for ReplicatorConfig {
    fn default() -> Self {
        Self { dt: 0.05, max_steps: 200_000, velocity_tol: 1e-12, record_every: 0 }
    }
}

/// Result of integrating the replicator ODE.
#[derive(Debug, Clone)]
pub struct ReplicatorRun {
    /// Final population state.
    pub state: Strategy,
    /// Steps taken.
    pub steps: usize,
    /// Final velocity sup-norm.
    pub final_velocity: f64,
    /// Whether the velocity tolerance was reached.
    pub converged: bool,
    /// Optional recorded trajectory (empty unless `record_every > 0`).
    pub trajectory: Vec<Vec<f64>>,
}

/// The replicator vector field `ẋ_i = x_i (π_i − π̄)`.
///
/// All `g_C` evaluations run through the batched kernel with a reusable
/// scratch: four velocity calls per RK4 step over `M` sites used to pay
/// `4M` PMF setups (and allocations) per step; now the per-point cost is
/// the `O(k)` ratio recurrence alone, with bit-identical values.
fn velocity(
    ctx: &PayoffContext,
    scratch: &mut GScratch,
    f: &ValueProfile,
    x: &[f64],
    out: &mut [f64],
) {
    let kernel = ctx.kernel();
    let mut mean_fitness = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        let fit = f.value(i) * kernel.eval_with(scratch, xi.clamp(0.0, 1.0));
        out[i] = fit;
        mean_fitness += xi * fit;
    }
    for (i, &xi) in x.iter().enumerate() {
        out[i] = xi * (out[i] - mean_fitness);
    }
}

/// Integrate the replicator dynamics from `start` under policy `c` with `k`
/// players per match.
pub fn run_replicator(
    c: &dyn Congestion,
    f: &ValueProfile,
    start: &Strategy,
    k: usize,
    config: ReplicatorConfig,
) -> Result<ReplicatorRun> {
    if start.len() != f.len() {
        return Err(Error::DimensionMismatch { strategy: start.len(), profile: f.len() });
    }
    if config.dt <= 0.0 || config.dt.is_nan() {
        return Err(Error::InvalidArgument(format!("dt must be positive, got {}", config.dt)));
    }
    let ctx = PayoffContext::new(c, k)?;
    let mut scratch = ctx.kernel().scratch();
    let m = f.len();
    let mut x: Vec<f64> = start.probs().to_vec();
    let mut k1 = vec![0.0; m];
    let mut k2 = vec![0.0; m];
    let mut k3 = vec![0.0; m];
    let mut k4 = vec![0.0; m];
    let mut tmp = vec![0.0; m];
    let mut trajectory = Vec::new();
    let mut final_velocity = f64::INFINITY;
    let mut converged = false;
    let mut steps = 0usize;
    for step in 0..config.max_steps {
        steps = step + 1;
        velocity(&ctx, &mut scratch, f, &x, &mut k1);
        for i in 0..m {
            tmp[i] = x[i] + 0.5 * config.dt * k1[i];
        }
        velocity(&ctx, &mut scratch, f, &tmp, &mut k2);
        for i in 0..m {
            tmp[i] = x[i] + 0.5 * config.dt * k2[i];
        }
        velocity(&ctx, &mut scratch, f, &tmp, &mut k3);
        for i in 0..m {
            tmp[i] = x[i] + config.dt * k3[i];
        }
        velocity(&ctx, &mut scratch, f, &tmp, &mut k4);
        for i in 0..m {
            x[i] += config.dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        // Guard: the replicator flow preserves the simplex exactly, but
        // RK4 drifts by O(dt^5); clamp and renormalize.
        let mut sum = 0.0;
        for xi in x.iter_mut() {
            if *xi < 0.0 {
                *xi = 0.0;
            }
            sum += *xi;
        }
        for xi in x.iter_mut() {
            *xi /= sum;
        }
        final_velocity = k1.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if config.record_every > 0 && step % config.record_every == 0 {
            trajectory.push(x.clone());
        }
        if final_velocity < config.velocity_tol {
            converged = true;
            break;
        }
    }
    Ok(ReplicatorRun { state: Strategy::new(x)?, steps, final_velocity, converged, trajectory })
}

/// Integrate the replicator dynamics from `count` random interior starts
/// in parallel — the basin-coverage companion to [`run_replicator`].
///
/// Start `i` is drawn from the deterministic engine stream `i + 1` of
/// `seed` (see [`engine::par_map_seeded`]), so the ensemble is
/// bit-reproducible at any thread count. Runs are returned in start order.
pub fn run_replicator_ensemble(
    c: &dyn Congestion,
    f: &ValueProfile,
    k: usize,
    count: usize,
    seed: u64,
    config: ReplicatorConfig,
) -> Result<Vec<ReplicatorRun>> {
    if count == 0 {
        return Err(Error::InvalidArgument("ensemble needs at least one start".into()));
    }
    engine::par_map_seeded((0..count).collect(), seed, |_: usize, rng| {
        // Interior start: bounded away from the boundary so every site
        // participates in the flow.
        let weights: Vec<f64> = (0..f.len()).map(|_| 0.05 + rng.gen::<f64>()).collect();
        let start = Strategy::from_weights(weights)?;
        run_replicator(c, f, &start, k, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::ifd::solve_ifd;
    use dispersal_core::policy::{Exclusive, Sharing, TwoLevel};
    use dispersal_core::sigma_star::sigma_star;

    fn interior_start(m: usize) -> Strategy {
        // Slightly perturbed uniform interior point.
        let probs: Vec<f64> = (0..m).map(|i| 1.0 + 0.01 * (i as f64)).collect();
        Strategy::from_weights(probs).unwrap()
    }

    #[test]
    fn converges_to_sigma_star_under_exclusive() {
        let f = ValueProfile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let k = 3;
        let run = run_replicator(
            &Exclusive,
            &f,
            &interior_start(3),
            k,
            ReplicatorConfig { velocity_tol: 1e-10, ..Default::default() },
        )
        .unwrap();
        assert!(run.converged, "velocity {}", run.final_velocity);
        let star = sigma_star(&f, k).unwrap().strategy;
        let d = run.state.linf_distance(&star).unwrap();
        assert!(d < 1e-5, "distance to sigma* = {d}");
    }

    #[test]
    fn converges_to_ifd_under_sharing_and_aggression() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.3, 0.1]).unwrap();
        let k = 4;
        for c in [&Sharing as &dyn Congestion, &TwoLevel { c: -0.4 }] {
            let run = run_replicator(
                c,
                &f,
                &interior_start(4),
                k,
                ReplicatorConfig { velocity_tol: 1e-10, ..Default::default() },
            )
            .unwrap();
            let ifd = solve_ifd(c, &f, k).unwrap();
            // Replicator can only vanish on the support it keeps; compare on
            // the IFD support.
            let d = run.state.linf_distance(&ifd.strategy).unwrap();
            assert!(d < 1e-4, "{}: distance {d}", c.name());
        }
    }

    #[test]
    fn preserves_simplex() {
        let f = ValueProfile::zipf(6, 1.0, 1.0).unwrap();
        let run = run_replicator(
            &Sharing,
            &f,
            &interior_start(6),
            3,
            ReplicatorConfig { max_steps: 5_000, record_every: 100, ..Default::default() },
        )
        .unwrap();
        for state in &run.trajectory {
            let sum: f64 = state.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(state.iter().all(|&x| x >= 0.0));
        }
        assert!(!run.trajectory.is_empty());
    }

    #[test]
    fn boundary_faces_are_invariant() {
        // Sites starting at zero stay at zero (replicator property).
        let f = ValueProfile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let start = Strategy::new(vec![0.7, 0.3, 0.0]).unwrap();
        let run = run_replicator(
            &Sharing,
            &f,
            &start,
            2,
            ReplicatorConfig { max_steps: 2_000, ..Default::default() },
        )
        .unwrap();
        assert_eq!(run.state.prob(2), 0.0);
    }

    #[test]
    fn rest_point_stays_put() {
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let k = 2;
        let star = sigma_star(&f, k).unwrap().strategy;
        let run = run_replicator(
            &Exclusive,
            &f,
            &star,
            k,
            ReplicatorConfig { max_steps: 1_000, ..Default::default() },
        )
        .unwrap();
        let d = run.state.linf_distance(&star).unwrap();
        assert!(d < 1e-9, "drift {d}");
    }

    #[test]
    fn validates_inputs() {
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let s3 = Strategy::uniform(3).unwrap();
        assert!(run_replicator(&Sharing, &f, &s3, 2, ReplicatorConfig::default()).is_err());
        let s2 = Strategy::uniform(2).unwrap();
        let bad = ReplicatorConfig { dt: 0.0, ..Default::default() };
        assert!(run_replicator(&Sharing, &f, &s2, 2, bad).is_err());
        assert!(
            run_replicator_ensemble(&Sharing, &f, 2, 0, 1, ReplicatorConfig::default()).is_err()
        );
    }

    #[test]
    fn ensemble_converges_from_every_start_and_is_deterministic() {
        let f = ValueProfile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let k = 3;
        let config = ReplicatorConfig { velocity_tol: 1e-10, ..Default::default() };
        let runs = run_replicator_ensemble(&Exclusive, &f, k, 8, 42, config).unwrap();
        assert_eq!(runs.len(), 8);
        let star = sigma_star(&f, k).unwrap().strategy;
        for run in &runs {
            assert!(run.converged);
            assert!(run.state.linf_distance(&star).unwrap() < 1e-5);
        }
        // Same seed => bit-identical starts and endpoints.
        let again = run_replicator_ensemble(&Exclusive, &f, k, 8, 42, config).unwrap();
        for (a, b) in runs.iter().zip(again.iter()) {
            assert_eq!(a.steps, b.steps);
            for i in 0..3 {
                assert_eq!(a.state.prob(i).to_bits(), b.state.prob(i).to_bits());
            }
        }
    }
}
