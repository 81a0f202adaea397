//! The individual-welfare optimum: the symmetric strategy maximizing the
//! expected per-player payoff `U(p) = Σ_x p(x)·f(x)·g_C(p(x))`.
//!
//! This is the blue curve of Figure 1 ("the symmetric strategy that
//! maximizes the individual payoffs"). Unlike coverage, `U` need not be
//! concave for arbitrary congestion functions, so we use multistart
//! projected-gradient ascent, plus an exact golden-section scan for the
//! two-site case (where the simplex is one-dimensional) used by both the
//! Figure 1 harness and the cross-check tests.

use crate::error::{Error, Result};
use crate::payoff::PayoffContext;
use crate::policy::Congestion;
use crate::simplex::{projected_gradient_ascent, AscentConfig};
use crate::strategy::Strategy;
use crate::value::ValueProfile;

/// A welfare-optimal solution.
#[derive(Debug, Clone)]
pub struct WelfareOptimum {
    /// The maximizing symmetric strategy.
    pub strategy: Strategy,
    /// The maximal symmetric expected payoff `U`.
    pub payoff: f64,
}

/// Maximize `U(p)` by multistart projected-gradient ascent.
pub fn welfare_optimum(c: &dyn Congestion, f: &ValueProfile, k: usize) -> Result<WelfareOptimum> {
    let ctx = PayoffContext::new(c, k)?;
    welfare_optimum_with_context(&ctx, f)
}

/// Maximize `U(p)` using a prebuilt payoff context.
pub fn welfare_optimum_with_context(
    ctx: &PayoffContext,
    f: &ValueProfile,
) -> Result<WelfareOptimum> {
    let m = f.len();
    let k = ctx.k();
    if m == 2 {
        // Exact 1-D optimization for the Figure 1 geometry.
        return welfare_optimum_two_sites(ctx, f);
    }
    let mut starts =
        vec![Strategy::uniform(m)?, Strategy::proportional(f.values())?, Strategy::delta(m, 0)?];
    if k >= 2 {
        if let Ok(star) = crate::sigma_star::sigma_star(f, k) {
            starts.push(star.strategy);
        }
    }
    // Both closures share one kernel scratch (RefCell because the ascent
    // driver takes them as plain `Fn`), so every g/g' evaluation is the
    // allocation-free batched path instead of a per-call PMF rebuild.
    let kernel = ctx.kernel();
    let scratch = std::cell::RefCell::new(kernel.scratch());
    let objective = |p: &[f64]| -> f64 {
        let mut s = scratch.borrow_mut();
        p.iter()
            .zip(f.values().iter())
            .map(|(&px, &fx)| px * fx * kernel.eval_with(&mut s, px.clamp(0.0, 1.0)))
            .sum()
    };
    let gradient = |p: &[f64]| -> Vec<f64> {
        let mut s = scratch.borrow_mut();
        p.iter()
            .zip(f.values().iter())
            .map(|(&px, &fx)| {
                let q = px.clamp(0.0, 1.0);
                fx * (kernel.eval_with(&mut s, q) + px * kernel.eval_prime_with(&mut s, q))
            })
            .collect()
    };
    let mut best: Option<WelfareOptimum> = None;
    for start in starts {
        let run = projected_gradient_ascent(&start, objective, gradient, AscentConfig::default())?;
        let u = ctx.symmetric_payoff(f, &run.point)?;
        if best.as_ref().is_none_or(|b| u > b.payoff) {
            best = Some(WelfareOptimum { strategy: run.point, payoff: u });
        }
    }
    best.ok_or(Error::Internal { what: "welfare ascent ran zero starts" })
}

/// Exact welfare optimum for `M = 2` by golden-section search on
/// `p₁ ∈ [0, 1]` (with a coarse bracketing scan first, since `U` may be
/// multimodal for exotic policies).
pub fn welfare_optimum_two_sites(ctx: &PayoffContext, f: &ValueProfile) -> Result<WelfareOptimum> {
    if f.len() != 2 {
        return Err(Error::InvalidArgument(format!(
            "two-site optimizer called with M = {}",
            f.len()
        )));
    }
    // One reused kernel scratch across the ~800 evaluations of the scan
    // plus golden-section refinement.
    let kernel = ctx.kernel();
    let mut scratch = kernel.scratch();
    let mut u_of = |p1: f64| -> f64 {
        let p2 = 1.0 - p1;
        p1 * f.value(0) * kernel.eval_with(&mut scratch, p1.clamp(0.0, 1.0))
            + p2 * f.value(1) * kernel.eval_with(&mut scratch, p2.clamp(0.0, 1.0))
    };
    // Coarse scan to bracket the global maximum.
    let grid = 400usize;
    let mut best_i = 0usize;
    let mut best_u = f64::NEG_INFINITY;
    for i in 0..=grid {
        let p = i as f64 / grid as f64;
        let u = u_of(p);
        if u > best_u {
            best_u = u;
            best_i = i;
        }
    }
    let lo = if best_i == 0 { 0.0 } else { (best_i - 1) as f64 / grid as f64 };
    let hi = if best_i == grid { 1.0 } else { (best_i + 1) as f64 / grid as f64 };
    // Golden-section refinement.
    let gr = (5f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - gr * (b - a);
    let mut d = a + gr * (b - a);
    let (mut uc, mut ud) = (u_of(c), u_of(d));
    for _ in 0..200 {
        if uc > ud {
            b = d;
            d = c;
            ud = uc;
            c = b - gr * (b - a);
            uc = u_of(c);
        } else {
            a = c;
            c = d;
            uc = ud;
            d = a + gr * (b - a);
            ud = u_of(d);
        }
    }
    let p1 = 0.5 * (a + b);
    let strategy = Strategy::new(vec![p1, 1.0 - p1])?;
    let payoff = u_of(p1);
    Ok(WelfareOptimum { strategy, payoff })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifd::solve_ifd;
    use crate::policy::{Exclusive, Sharing, TwoLevel};

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn two_site_optimizer_rejects_wrong_dimension() {
        let f = ValueProfile::uniform(3, 1.0).unwrap();
        let ctx = PayoffContext::new(&Sharing, 2).unwrap();
        assert!(welfare_optimum_two_sites(&ctx, &f).is_err());
    }

    #[test]
    fn welfare_beats_ifd_payoff() {
        // The IFD equalizes values but does not maximize group payoff; the
        // welfare optimum must weakly dominate it in U.
        let f = ValueProfile::new(vec![1.0, 0.3]).unwrap();
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.3 }] {
            let ctx = PayoffContext::new(c, 2).unwrap();
            let ifd = solve_ifd(c, &f, 2).unwrap();
            let u_ifd = ctx.symmetric_payoff(&f, &ifd.strategy).unwrap();
            let opt = welfare_optimum(c, &f, 2).unwrap();
            assert!(
                opt.payoff >= u_ifd - 1e-10,
                "{}: welfare {} < IFD payoff {u_ifd}",
                c.name(),
                opt.payoff
            );
        }
    }

    #[test]
    fn exclusive_two_players_two_sites_known_solution() {
        // U(p) = p f1 (1-p) + (1-p) f2 p = p(1-p)(f1+f2): maximized at 1/2.
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let opt = welfare_optimum(&Exclusive, &f, 2).unwrap();
        close(opt.strategy.prob(0), 0.5, 1e-6);
        close(opt.payoff, 0.25 * 1.4, 1e-9);
    }

    #[test]
    fn constant_like_gentle_policy_prefers_top_site() {
        // With c = 1 collisions are free: everyone should sit on site 1.
        // TwoLevel(c = 0.99) is nearly free; the optimum leans heavily to
        // the top site.
        let f = ValueProfile::new(vec![1.0, 0.3]).unwrap();
        let opt = welfare_optimum(&TwoLevel { c: 0.99 }, &f, 2).unwrap();
        assert!(opt.strategy.prob(0) > 0.9, "p1 = {}", opt.strategy.prob(0));
    }

    #[test]
    fn multistart_path_used_for_three_sites() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
        let opt = welfare_optimum(&Sharing, &f, 3).unwrap();
        // Sanity: a valid strategy with payoff at least that of uniform.
        let ctx = PayoffContext::new(&Sharing, 3).unwrap();
        let u_uniform = ctx.symmetric_payoff(&f, &Strategy::uniform(3).unwrap()).unwrap();
        assert!(opt.payoff >= u_uniform - 1e-9);
    }

    #[test]
    fn grid_crosscheck_two_sites() {
        // Brute-force grid agrees with golden-section result.
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let ctx = PayoffContext::new(&TwoLevel { c: -0.25 }, 2).unwrap();
        let opt = welfare_optimum_two_sites(&ctx, &f).unwrap();
        let mut best = f64::NEG_INFINITY;
        for i in 0..=10_000 {
            let p = i as f64 / 10_000.0;
            let g = |q| ctx.kernel().eval(q);
            let u = p * 1.0 * g(p) + (1.0 - p) * 0.5 * g(1.0 - p);
            best = best.max(u);
        }
        close(opt.payoff, best, 1e-7);
    }

    #[test]
    fn single_player_welfare_is_best_site() {
        let f = ValueProfile::new(vec![2.0, 1.0, 0.5]).unwrap();
        let opt = welfare_optimum(&Sharing, &f, 1).unwrap();
        close(opt.payoff, 2.0, 1e-9);
        assert!(opt.strategy.prob(0) > 1.0 - 1e-6);
    }
}
