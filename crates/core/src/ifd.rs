//! General Ideal-Free-Distribution solver (Observation 2).
//!
//! For any non-constant, non-increasing congestion function `C`, the value
//! of a site under a symmetric field `p` is `ν_p(x) = f(x)·g_C(p(x))` with
//! `g_C` strictly decreasing (see [`crate::payoff`]). The IFD is the unique
//! `p` such that all supported sites share a common value `ν` and all
//! unsupported sites have value below `ν`. We find it by *water-filling*:
//!
//! 1. For a candidate common value `ν`, each site's occupancy is
//!    `q_x(ν) = clamp(g_C⁻¹(ν / f(x)), 0, 1)` — zero when `f(x) ≤ ν`
//!    (inner bisection inverts `g_C`).
//! 2. `S(ν) = Σ_x q_x(ν)` is continuous and non-increasing in `ν`; an outer
//!    bisection finds the `ν` with `S(ν) = 1`.
//!
//! This handles negative congestion values (aggression): `ν` itself may be
//! negative when players are forced to crowd (`M` small, `k` large).

use crate::error::{Error, Result};
use crate::kernel::GScratch;
use crate::payoff::PayoffContext;
use crate::policy::Congestion;
use crate::strategy::Strategy;
use crate::value::ValueProfile;
use serde::{Deserialize, Serialize};

/// Iteration counts for the nested bisections. 90 outer × 64 inner keeps
/// the residual near machine precision while staying fast.
const OUTER_ITERS: usize = 90;
const INNER_ITERS: usize = 64;

/// An IFD solution: the equilibrium strategy plus diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ifd {
    /// The equilibrium (symmetric Nash) strategy.
    pub strategy: Strategy,
    /// The common value `ν` on the support.
    pub value: f64,
    /// Support size (number of sites with positive probability).
    pub support: usize,
    /// Maximum IFD-condition violation measured after solving.
    pub residual: f64,
}

/// Invert `g` at `target` over `q ∈ [0, 1]` for a strictly decreasing `g`.
///
/// Runs through the batched kernel with a caller-owned scratch: the inner
/// bisection evaluates `g` 64 times per site per outer step, so the
/// allocation-free `O(k)` path matters here. Contexts carrying an
/// interpolation grid ([`PayoffContext::with_spec`]) drop that to `O(1)`
/// per evaluation — the large-`k` regime path; without a grid
/// `eval_fast_with` falls back to the exact kernel bit-identically.
fn invert_g(ctx: &PayoffContext, scratch: &mut GScratch, target: f64) -> f64 {
    let kernel = ctx.kernel();
    if target >= kernel.at_zero() {
        return 0.0;
    }
    if target <= kernel.at_one() {
        return 1.0;
    }
    crate::numerics::bisect_decreasing(
        |q| kernel.eval_fast_with(scratch, q),
        0.0,
        1.0,
        target,
        INNER_ITERS,
    )
}

/// Occupancies `q_x(ν)` for a candidate common value.
fn occupancies(ctx: &PayoffContext, scratch: &mut GScratch, f: &ValueProfile, nu: f64) -> Vec<f64> {
    f.values()
        .iter()
        .map(|&fx| {
            // Site is used only when its solo value strictly exceeds nu.
            if fx <= nu {
                0.0
            } else {
                invert_g(ctx, scratch, nu / fx)
            }
        })
        .collect()
}

/// Solve the IFD for `(f, C, k)`.
///
/// # Errors
/// Returns [`Error::DegeneratePolicy`] when `C` is constant on `[1, k]`
/// (the equilibrium then degenerates to the top-value sites — use
/// [`solve_ifd_allow_degenerate`] if that is acceptable), and propagates
/// validation errors for malformed policies.
pub fn solve_ifd(c: &dyn Congestion, f: &ValueProfile, k: usize) -> Result<Ifd> {
    let ctx = PayoffContext::new(c, k)?;
    if k > 1 && ctx.is_degenerate() {
        return Err(Error::DegeneratePolicy);
    }
    solve_ifd_with_context(&ctx, f)
}

/// Solve the IFD, mapping the degenerate (constant-`C`) case to its natural
/// limit: the uniform distribution over the maximum-value sites (all players
/// chase the best sites since congestion is free).
pub fn solve_ifd_allow_degenerate(c: &dyn Congestion, f: &ValueProfile, k: usize) -> Result<Ifd> {
    let ctx = PayoffContext::new(c, k)?;
    if ctx.is_degenerate() {
        let top = f.value(0);
        let ties = f.values().iter().filter(|&&v| (v - top).abs() <= 1e-12 * top).count();
        let mut probs = vec![0.0; f.len()];
        for p in probs.iter_mut().take(ties) {
            *p = 1.0 / ties as f64;
        }
        let strategy = Strategy::new(probs)?;
        return Ok(Ifd { strategy, value: top * ctx.c_table()[0], support: ties, residual: 0.0 });
    }
    solve_ifd_with_context(&ctx, f)
}

/// Solve using a prebuilt [`PayoffContext`] (non-degenerate).
pub fn solve_ifd_with_context(ctx: &PayoffContext, f: &ValueProfile) -> Result<Ifd> {
    let k = ctx.k();
    if k == 1 {
        // One player: pure best response to an empty field.
        let strategy = Strategy::delta(f.len(), 0)?;
        return Ok(Ifd { strategy, value: f.value(0), support: 1, residual: 0.0 });
    }
    let mut scratch = ctx.kernel().scratch();
    // g(1) = C(k), possibly negative.
    let g1 = ctx.kernel().at_one();
    // nu_hi: at nu = f(1)·g(0) = f(1), every occupancy is 0, S = 0 <= 1.
    let mut hi = f.value(0) * ctx.kernel().at_zero();
    // nu_lo: a value at which every site is fully occupied, S = M >= 1.
    let mut lo = if g1 >= 0.0 { f.value(f.len() - 1) * g1 } else { f.value(0) * g1 };
    // Guard the bracket against round-off at the endpoints.
    let pad = 1e-12 * (1.0 + hi.abs() + lo.abs());
    hi += pad;
    lo -= pad;
    let mut lo_nu = lo;
    let mut hi_nu = hi;
    for _ in 0..OUTER_ITERS {
        let mid = 0.5 * (lo_nu + hi_nu);
        let sum_at_mid: f64 = occupancies(ctx, &mut scratch, f, mid).iter().sum();
        if sum_at_mid >= 1.0 {
            lo_nu = mid;
        } else {
            hi_nu = mid;
        }
    }
    let nu = 0.5 * (lo_nu + hi_nu);
    let mut probs = occupancies(ctx, &mut scratch, f, nu);
    // Exact renormalization of residual bisection slack.
    let sum: f64 = crate::numerics::kahan_sum(probs.iter().copied());
    if sum <= 0.0 {
        return Err(Error::NoConvergence {
            what: "ifd water-filling",
            residual: (sum - 1.0).abs(),
        });
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
    let strategy = Strategy::new(probs)?;
    let support = strategy.support_size(1e-12);
    let residual = ifd_residual(ctx, f, &strategy)?;
    Ok(Ifd { strategy, value: nu, support, residual })
}

/// Measure the worst violation of the IFD conditions for a candidate `p`
/// under context `ctx`: spread of `ν_p(x)` on the support plus any
/// off-support site whose value exceeds the support value.
pub fn ifd_residual(ctx: &PayoffContext, f: &ValueProfile, p: &Strategy) -> Result<f64> {
    let nu_all = ctx.site_values(f, p)?;
    let support_tol = 1e-10;
    let on: Vec<f64> = nu_all
        .iter()
        .zip(p.probs().iter())
        .filter(|(_, &px)| px > support_tol)
        .map(|(&v, _)| v)
        .collect();
    if on.is_empty() {
        return Ok(f64::INFINITY);
    }
    let nu = on.iter().sum::<f64>() / on.len() as f64;
    let mut residual = on.iter().map(|v| (v - nu).abs()).fold(0.0, f64::max);
    for (v, &px) in nu_all.iter().zip(p.probs().iter()) {
        if px <= support_tol && *v > nu {
            residual = residual.max(v - nu);
        }
    }
    Ok(residual)
}

/// Verify that `p` is a symmetric Nash equilibrium under `(C, k, f)`: no
/// pure deviation improves the payoff. Returns the best improvement a
/// deviator could obtain (≤ tolerance means `p` is an equilibrium).
pub fn nash_gap(c: &dyn Congestion, f: &ValueProfile, p: &Strategy, k: usize) -> Result<f64> {
    let ctx = PayoffContext::new(c, k)?;
    let nu = ctx.site_values(f, p)?;
    let current = ctx.symmetric_payoff(f, p)?;
    let best = nu.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Ok(best - current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Constant, Exclusive, PowerLaw, Sharing, TwoLevel};
    use crate::sigma_star::sigma_star;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn exclusive_ifd_matches_sigma_star_closed_form() {
        for (f, k) in [
            (ValueProfile::new(vec![1.0, 0.3]).unwrap(), 2usize),
            (ValueProfile::new(vec![1.0, 0.5]).unwrap(), 2),
            (ValueProfile::zipf(25, 1.0, 1.0).unwrap(), 4),
            (ValueProfile::geometric(12, 2.0, 0.75).unwrap(), 6),
        ] {
            let solved = solve_ifd(&Exclusive, &f, k).unwrap();
            let closed = sigma_star(&f, k).unwrap();
            let d = solved.strategy.linf_distance(&closed.strategy).unwrap();
            assert!(d < 1e-8, "distance {d} for k = {k}");
            close(solved.value, closed.equilibrium_value(), 1e-8);
        }
    }

    #[test]
    fn sharing_ifd_two_sites_matches_hand_solution() {
        // k = 2, sharing: g(q) = (1-q) + q/2 = 1 - q/2.
        // IFD with both sites occupied: f1(1 - p/2) = f2(1 - (1-p)/2)
        // => p = (2 f1 - f2) ... solve: f1 - f1 p/2 = f2/2 + f2 p/2
        // => p (f1 + f2)/2 = f1 - f2/2 => p = (2 f1 - f2) / (f1 + f2).
        let (f1, f2) = (1.0, 0.5);
        let f = ValueProfile::new(vec![f1, f2]).unwrap();
        let ifd = solve_ifd(&Sharing, &f, 2).unwrap();
        let expect = (2.0 * f1 - f2) / (f1 + f2);
        close(ifd.strategy.prob(0), expect, 1e-10);
        assert!(ifd.residual < 1e-10);
    }

    #[test]
    fn ifd_residual_small_across_catalog() {
        let f = ValueProfile::zipf(20, 1.0, 0.8).unwrap();
        for c in [
            &Exclusive as &dyn Congestion,
            &Sharing,
            &TwoLevel { c: -0.5 },
            &TwoLevel { c: 0.3 },
            &PowerLaw { beta: 2.0 },
        ] {
            for k in [2usize, 3, 7] {
                let ifd = solve_ifd(c, &f, k).unwrap();
                assert!(ifd.residual < 1e-8, "{} k={k}: residual {}", c.name(), ifd.residual);
            }
        }
    }

    #[test]
    fn ifd_is_nash_equilibrium() {
        let f = ValueProfile::geometric(10, 1.0, 0.7).unwrap();
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.2 }] {
            let ifd = solve_ifd(c, &f, 4).unwrap();
            let gap = nash_gap(c, &f, &ifd.strategy, 4).unwrap();
            assert!(gap < 1e-8, "{}: nash gap {gap}", c.name());
        }
    }

    #[test]
    fn non_equilibrium_has_positive_nash_gap() {
        let f = ValueProfile::new(vec![1.0, 0.2]).unwrap();
        let uniform = Strategy::uniform(2).unwrap();
        let gap = nash_gap(&Exclusive, &f, &uniform, 2).unwrap();
        assert!(gap > 0.01, "gap = {gap}");
    }

    #[test]
    fn degenerate_policy_rejected_then_allowed() {
        let f = ValueProfile::new(vec![2.0, 1.0]).unwrap();
        assert_eq!(solve_ifd(&Constant, &f, 3).unwrap_err(), Error::DegeneratePolicy);
        let ifd = solve_ifd_allow_degenerate(&Constant, &f, 3).unwrap();
        assert_eq!(ifd.strategy.probs(), &[1.0, 0.0]);
        assert_eq!(ifd.support, 1);
    }

    #[test]
    fn degenerate_policy_splits_ties() {
        let f = ValueProfile::new(vec![2.0, 2.0, 1.0]).unwrap();
        let ifd = solve_ifd_allow_degenerate(&Constant, &f, 2).unwrap();
        close(ifd.strategy.prob(0), 0.5, 1e-12);
        close(ifd.strategy.prob(1), 0.5, 1e-12);
        assert_eq!(ifd.strategy.prob(2), 0.0);
    }

    #[test]
    fn aggressive_policy_crowded_world_negative_value() {
        // One site, many players, severe aggression: everyone must sit on
        // the single site and the equilibrium value is negative.
        let f = ValueProfile::new(vec![1.0]).unwrap();
        let agg = TwoLevel::new(-0.5).unwrap();
        let ifd = solve_ifd(&agg, &f, 5).unwrap();
        close(ifd.strategy.prob(0), 1.0, 1e-12);
        assert!(ifd.value < 0.0, "value = {}", ifd.value);
    }

    #[test]
    fn aggression_spreads_the_population() {
        // Stronger collision costs push probability onto worse sites:
        // support under c = -0.5 is at least as large as under sharing.
        let f = ValueProfile::geometric(15, 1.0, 0.6).unwrap();
        let k = 4;
        let gentle = solve_ifd(&TwoLevel { c: 0.5 }, &f, k).unwrap();
        let harsh = solve_ifd(&TwoLevel { c: -0.5 }, &f, k).unwrap();
        assert!(
            harsh.support >= gentle.support,
            "harsh support {} < gentle {}",
            harsh.support,
            gentle.support
        );
        // And the top site is visited less under harsher collisions.
        assert!(harsh.strategy.prob(0) < gentle.strategy.prob(0));
    }

    #[test]
    fn single_player_ifd_is_greedy() {
        let f = ValueProfile::new(vec![5.0, 1.0]).unwrap();
        let ifd = solve_ifd(&Sharing, &f, 1).unwrap();
        assert_eq!(ifd.strategy.probs(), &[1.0, 0.0]);
        close(ifd.value, 5.0, 1e-12);
    }

    #[test]
    fn uniqueness_observation2_solver_is_deterministic() {
        // Observation 2 says the symmetric NE is unique; the solver should
        // find the same point from its deterministic bracket regardless of
        // value scaling (IFD is scale-invariant).
        let f = ValueProfile::zipf(10, 1.0, 1.2).unwrap();
        let f_scaled = f.scaled(7.5).unwrap();
        let a = solve_ifd(&Sharing, &f, 3).unwrap();
        let b = solve_ifd(&Sharing, &f_scaled, 3).unwrap();
        let d = a.strategy.linf_distance(&b.strategy).unwrap();
        assert!(d < 1e-9, "scale sensitivity {d}");
    }

    #[test]
    fn large_instance_smoke() {
        let f = ValueProfile::zipf(2000, 1.0, 0.9).unwrap();
        let ifd = solve_ifd(&Exclusive, &f, 50).unwrap();
        assert!(ifd.residual < 1e-7);
        let closed = sigma_star(&f, 50).unwrap();
        let d = ifd.strategy.linf_distance(&closed.strategy).unwrap();
        assert!(d < 1e-7, "distance {d}");
    }
}
