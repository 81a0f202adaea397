//! Discrete-time adjustment dynamics: smoothed best response (logit) and
//! fictitious play.
//!
//! These complement the replicator ODE as alternative equilibrium-selection
//! processes: if several natural dynamics all settle on the IFD, the
//! symmetric-equilibrium focus of the paper (Section 1.2) is empirically
//! well-founded.

use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Congestion;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};

/// Configuration for the discrete dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsConfig {
    /// Iteration budget.
    pub max_steps: usize,
    /// Stop when successive states differ by less than this in L∞.
    pub tol: f64,
    /// Logit inverse temperature (higher = closer to exact best response).
    pub beta: f64,
    /// Damping weight on the new state in `[0, 1]` (1 = undamped).
    pub damping: f64,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        Self { max_steps: 100_000, tol: 1e-12, beta: 50.0, damping: 0.2 }
    }
}

/// Outcome of a discrete dynamic.
#[derive(Debug, Clone)]
pub struct DynamicsRun {
    /// Final state.
    pub state: Strategy,
    /// Steps taken.
    pub steps: usize,
    /// Final step size (L∞ change in the last iteration).
    pub final_change: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Damped logit (smoothed best-response) dynamics:
/// `x ← (1−λ)x + λ·softmax(β·ν_x)`.
///
/// For β → ∞ and small λ this approaches continuous best-response dynamics;
/// its fixed points approach the IFD as β grows.
pub fn run_logit(
    c: &dyn Congestion,
    f: &ValueProfile,
    start: &Strategy,
    k: usize,
    config: DynamicsConfig,
) -> Result<DynamicsRun> {
    validate(f, start, config)?;
    let ctx = PayoffContext::new(c, k)?;
    // Stability guard: the Jacobian of the logit response scales like
    // β·f(1)·(k−1), so an undamped iteration 2-cycles for large β. Cap the
    // damping at the stable range.
    let jacobian_scale = config.beta * f.value(0) * (k.saturating_sub(1).max(1)) as f64;
    let damping = config.damping.min(1.0 / (1.0 + jacobian_scale));
    let mut x = start.clone();
    let mut final_change = f64::INFINITY;
    let mut converged = false;
    let mut steps = 0usize;
    for step in 0..config.max_steps {
        steps = step + 1;
        let nu = ctx.site_values(f, &x)?;
        let response = Strategy::softmax(&nu, config.beta)?;
        let next = x.mix(&response, damping)?;
        final_change = next.linf_distance(&x)?;
        x = next;
        if final_change < config.tol * damping.max(1e-6) {
            converged = true;
            break;
        }
    }
    Ok(DynamicsRun { state: x, steps, final_change, converged })
}

/// Fictitious play against the empirical mixture: each round the
/// representative player best-responds (softly) to the running average of
/// past play, and the average is updated with weight `1/t`.
pub fn run_fictitious_play(
    c: &dyn Congestion,
    f: &ValueProfile,
    start: &Strategy,
    k: usize,
    config: DynamicsConfig,
) -> Result<DynamicsRun> {
    validate(f, start, config)?;
    let ctx = PayoffContext::new(c, k)?;
    let mut avg = start.clone();
    let mut final_change = f64::INFINITY;
    let mut converged = false;
    let mut steps = 0usize;
    for step in 0..config.max_steps {
        steps = step + 1;
        let nu = ctx.site_values(f, &avg)?;
        let response = Strategy::softmax(&nu, config.beta)?;
        let weight = 1.0 / (step as f64 + 2.0);
        let next = avg.mix(&response, weight)?;
        final_change = next.linf_distance(&avg)?;
        avg = next;
        if final_change < config.tol {
            converged = true;
            break;
        }
    }
    Ok(DynamicsRun { state: avg, steps, final_change, converged })
}

fn validate(f: &ValueProfile, start: &Strategy, config: DynamicsConfig) -> Result<()> {
    if start.len() != f.len() {
        return Err(Error::DimensionMismatch { strategy: start.len(), profile: f.len() });
    }
    if !(0.0..=1.0).contains(&config.damping) || config.damping == 0.0 {
        return Err(Error::InvalidArgument(format!(
            "damping must be in (0, 1], got {}",
            config.damping
        )));
    }
    if config.beta < 0.0 || !config.beta.is_finite() {
        return Err(Error::InvalidArgument(format!(
            "beta must be finite and >= 0, got {}",
            config.beta
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::ifd::solve_ifd;
    use dispersal_core::policy::{Exclusive, Sharing, TwoLevel};

    fn tv_to_ifd(run: &DynamicsRun, c: &dyn Congestion, f: &ValueProfile, k: usize) -> f64 {
        let ifd = solve_ifd(c, f, k).unwrap();
        run.state.tv_distance(&ifd.strategy).unwrap()
    }

    #[test]
    fn logit_approaches_ifd_for_high_beta() {
        let f = ValueProfile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let k = 3;
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.3 }] {
            let run = run_logit(
                c,
                &f,
                &Strategy::uniform(3).unwrap(),
                k,
                DynamicsConfig {
                    beta: 400.0,
                    max_steps: 300_000,
                    tol: 1e-13,
                    ..Default::default()
                },
            )
            .unwrap();
            let d = tv_to_ifd(&run, c, &f, k);
            // Logit fixed point has an O(1/beta) entropy bias.
            assert!(d < 0.02, "{}: tv = {d}", c.name());
        }
    }

    #[test]
    fn logit_bias_shrinks_with_beta() {
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let k = 2;
        let mut prev = f64::INFINITY;
        for beta in [20.0, 100.0, 500.0] {
            let run = run_logit(
                &Exclusive,
                &f,
                &Strategy::uniform(2).unwrap(),
                k,
                DynamicsConfig { beta, ..Default::default() },
            )
            .unwrap();
            let d = tv_to_ifd(&run, &Exclusive, &f, k);
            assert!(d < prev + 1e-9, "beta {beta}: {d} vs prev {prev}");
            prev = d;
        }
        assert!(prev < 5e-3, "final bias {prev}");
    }

    #[test]
    fn fictitious_play_approaches_ifd() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let k = 2;
        let run = run_fictitious_play(
            &Exclusive,
            &f,
            &Strategy::uniform(2).unwrap(),
            k,
            DynamicsConfig { beta: 300.0, max_steps: 200_000, tol: 1e-12, ..Default::default() },
        )
        .unwrap();
        let d = tv_to_ifd(&run, &Exclusive, &f, k);
        assert!(d < 0.02, "tv = {d}");
    }

    #[test]
    fn dynamics_validate_inputs() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let s3 = Strategy::uniform(3).unwrap();
        assert!(run_logit(&Sharing, &f, &s3, 2, DynamicsConfig::default()).is_err());
        let s2 = Strategy::uniform(2).unwrap();
        let bad_damping = DynamicsConfig { damping: 0.0, ..Default::default() };
        assert!(run_logit(&Sharing, &f, &s2, 2, bad_damping).is_err());
        let bad_beta = DynamicsConfig { beta: f64::NAN, ..Default::default() };
        assert!(run_fictitious_play(&Sharing, &f, &s2, 2, bad_beta).is_err());
    }

    #[test]
    fn converged_flag_set_on_fixed_point() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let run = run_logit(
            &Sharing,
            &f,
            &Strategy::uniform(2).unwrap(),
            2,
            DynamicsConfig { tol: 1e-10, ..Default::default() },
        )
        .unwrap();
        assert!(run.converged);
        assert!(run.final_change < 1e-10);
    }
}
