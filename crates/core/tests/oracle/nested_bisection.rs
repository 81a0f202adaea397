//! Test-only oracles: the two nested-bisection water-filling solvers that
//! `ifd::solve_ifd_with_context` and `extensions::solve_ifd_with_costs`
//! used before they shared one core, kept verbatim apart from crate paths
//! and an `outer_iters` parameter (90 in both originals; a planted-bug
//! test runs 89). Every outer step re-inverts `g` at every site with a
//! fresh 64-step bisection from `[0, 1]`.
//!
//! Shared by `tests/ifd_equivalence.rs` and the `ifd` bench's `--quick`
//! guard, which times the core against this formulation.

use dispersal_core::error::{Error, Result};
use dispersal_core::extensions::CostIfd;
use dispersal_core::ifd::{ifd_residual, Ifd};
use dispersal_core::kernel::GScratch;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Congestion;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;

const INNER_ITERS: usize = 64;

fn invert_g(ctx: &PayoffContext, scratch: &mut GScratch, target: f64) -> f64 {
    let kernel = ctx.kernel();
    if target >= kernel.at_zero() {
        return 0.0;
    }
    if target <= kernel.at_one() {
        return 1.0;
    }
    dispersal_core::numerics::bisect_decreasing(
        |q| kernel.eval_fast_with(scratch, q),
        0.0,
        1.0,
        target,
        INNER_ITERS,
    )
}

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

/// The nested-bisection `solve_ifd_with_context`.
pub fn solve_ifd_with_context(
    ctx: &PayoffContext,
    f: &ValueProfile,
    outer_iters: usize,
) -> Result<Ifd> {
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
    for _ in 0..outer_iters {
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
    let sum: f64 = dispersal_core::numerics::kahan_sum(probs.iter().copied());
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

/// The nested-bisection `solve_ifd_with_costs`.
pub fn solve_ifd_with_costs(
    c: &dyn Congestion,
    f: &ValueProfile,
    costs: &[f64],
    k: usize,
    outer_iters: usize,
) -> Result<CostIfd> {
    if costs.len() != f.len() {
        return Err(Error::DimensionMismatch { strategy: costs.len(), profile: f.len() });
    }
    for (i, &t) in costs.iter().enumerate() {
        if !t.is_finite() || t < 0.0 {
            return Err(Error::InvalidArgument(format!(
                "cost {t} at site {i} must be finite and >= 0"
            )));
        }
    }
    let ctx = PayoffContext::new(c, k)?;
    if k > 1 && ctx.is_degenerate() {
        return Err(Error::DegeneratePolicy);
    }
    if k == 1 {
        // Single player: best net-value site.
        let best = (0..f.len())
            .max_by(|&a, &b| {
                let va = f.value(a) - costs[a];
                let vb = f.value(b) - costs[b];
                va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or(Error::EmptyProfile)?;
        return Ok(CostIfd {
            strategy: Strategy::delta(f.len(), best)?,
            value: f.value(best) - costs[best],
            support: 1,
        });
    }
    // Water-filling on the common net value nu: occupancy q_x solves
    // f(x)·g(q) − t(x) = nu, used only when the solo net value exceeds nu.
    // All g evaluations run through the batched kernel with one reused
    // scratch (the inner bisection is 64 evaluations per site per step).
    let kernel = ctx.kernel();
    let mut scratch = kernel.scratch();
    let mut occupancy = |nu: f64| -> Vec<f64> {
        let scratch = &mut scratch;
        (0..f.len())
            .map(|x| {
                let solo = f.value(x) * kernel.at_zero() - costs[x];
                if solo <= nu {
                    0.0
                } else {
                    let target = (nu + costs[x]) / f.value(x);
                    if target <= kernel.at_one() {
                        1.0
                    } else {
                        dispersal_core::numerics::bisect_decreasing(
                            |q| kernel.eval_with(scratch, q),
                            0.0,
                            1.0,
                            target,
                            64,
                        )
                    }
                }
            })
            .collect()
    };
    let g1 = kernel.at_one();
    let mut hi = (0..f.len()).map(|x| f.value(x) - costs[x]).fold(f64::NEG_INFINITY, f64::max);
    let mut lo = (0..f.len()).map(|x| f.value(x) * g1 - costs[x]).fold(f64::INFINITY, f64::min);
    let pad = 1e-12 * (1.0 + hi.abs() + lo.abs());
    hi += pad;
    lo -= pad;
    for _ in 0..outer_iters {
        let mid = 0.5 * (lo + hi);
        let s: f64 = occupancy(mid).iter().sum();
        if s >= 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let nu = 0.5 * (lo + hi);
    let mut probs = occupancy(nu);
    let sum: f64 = probs.iter().sum();
    if sum <= 0.0 {
        return Err(Error::NoConvergence { what: "cost-ifd water-filling", residual: 1.0 });
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
    let strategy = Strategy::new(probs)?;
    let support = strategy.support_size(1e-12);
    Ok(CostIfd { strategy, value: nu, support })
}
