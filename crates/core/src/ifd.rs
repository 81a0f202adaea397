//! General Ideal-Free-Distribution solver (Observation 2).
//!
//! For any non-constant, non-increasing congestion function `C`, the value
//! of a site under a symmetric field `p` is `ν_p(x) = f(x)·g_C(p(x))` with
//! `g_C` strictly decreasing (see [`crate::payoff`]). The IFD is the unique
//! `p` such that all supported sites share a common value `ν` and all
//! unsupported sites have value below `ν`. We find it by *water-filling*:
//!
//! 1. For a candidate common value `ν`, each site's occupancy is
//!    `q_x(ν) = clamp(g_C⁻¹(ν / f(x)), 0, 1)` — zero when `f(x) ≤ ν`. An
//!    inner bisection over `q ∈ [0, 1]` inverts `g_C`.
//! 2. `S(ν) = Σ_x q_x(ν)` is continuous and non-increasing in `ν`; an outer
//!    bisection finds the `ν` with `S(ν) = 1`.
//!
//! Run naively, that is an `O(k)` evaluation of `g_C` per site, inner
//! step and outer step. The core both this solver and
//! [`crate::extensions::solve_ifd_with_costs`] call returns the same bits
//! as the naive nested loop while skipping most of those evaluations:
//!
//! * **Lazy outer decisions, widest walks first.** An outer step only
//!   needs to know whether `S(ν) ≥ 1`. Each walk's final output lies
//!   inside every bracket the walk passes through, and floating-point
//!   addition is monotone, so with all sums taken in site order,
//!   `Σ lo ≤ S(ν) ≤ Σ hi` over the current brackets, however deep each
//!   walk is. The step is decided as soon as `Σ lo ≥ 1` or `Σ hi < 1`;
//!   only a step that stays undecided walks to full depth and takes
//!   `S(ν)` itself. Until then each round advances only the shallowest
//!   live walks, whose brackets are the widest and so hold most of the
//!   gap between the two sums; deeper walks wait until the rest catch up.
//! * **A stall stop.** The outer loop ends at the first step that leaves
//!   `[ν_lo, ν_hi]` unchanged bit for bit: its midpoint rounded to one of
//!   the ends, so every later step would take the same midpoint, reach
//!   the same exact decision and change nothing either.
//! * **Per-site anchors.** Every later candidate `ν` lies inside the
//!   current outer bracket `[ν_lo, ν_hi]`, and a site's inversion target
//!   `t(ν)` is non-decreasing in `ν`. An inner level whose comparison
//!   `g(q) ≥ t` gives the same answer at `t(ν_lo)` and `t(ν_hi)` gives it
//!   for every later step, so each site keeps the deepest bracket reached
//!   that way and resumes its walk there instead of at `[0, 1]`.
//! * **An exact memo of `g`.** Walks that resume from an anchor, levels
//!   past float resolution (where a bracket's midpoint is one of its
//!   ends) and sites sharing a point keep asking for `g` at a `q` the
//!   same call has already evaluated. Each call holds a direct-mapped
//!   table of 2¹⁰ slots keyed by `q`'s bits; a lookup hits only on the
//!   full key. `g` is a pure function of `q` for a fixed [`GTable`],
//!   exact or grid-backed, so a hit returns the bits a fresh evaluation
//!   would, and the table is 16 KiB however large `M` or `k` is.
//!
//! This handles negative congestion values (aggression): `ν` itself may be
//! negative when players are forced to crowd (`M` small, `k` large).

use crate::error::{Error, Result};
use crate::kernel::{GScratch, GTable};
use crate::payoff::PayoffContext;
use crate::policy::Congestion;
use crate::strategy::Strategy;
use crate::value::ValueProfile;

/// Outer bisection steps on the common value `ν`, and inner bisection
/// steps inverting `g_C` at each site. 90 × 64 keeps the residual near
/// machine precision; the core skips most of the evaluations of `g_C`
/// that product suggests without changing a bit of the result.
const OUTER_ITERS: usize = 90;
const INNER_ITERS: u32 = 64;

/// A [`GMemo`] has `2^MEMO_BITS` slots.
const MEMO_BITS: u32 = 10;

/// The key of an empty slot: the bits of −1.0, which no walk midpoint in
/// `[0, 1]` has.
const EMPTY: u64 = 0xbff0_0000_0000_0000;

/// The slot of key `key`: the top [`MEMO_BITS`] bits of a multiplicative
/// hash.
fn slot(key: u64) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_BITS)) as usize
}

/// `g` for one water-filling call, memoized exactly: a direct-mapped table
/// of `(q.to_bits(), g(q))` slots, where a miss evaluates
/// [`GTable::eval_fast_with`] and overwrites the slot.
pub(crate) struct GMemo<'k> {
    kernel: &'k GTable,
    scratch: GScratch,
    slots: Box<[(u64, f64); 1 << MEMO_BITS]>,
    /// Kernel evaluations so far.
    #[cfg(test)]
    misses: usize,
    /// Outer bisection steps taken by [`water_fill`] so far.
    #[cfg(test)]
    outer_steps: usize,
}

impl<'k> GMemo<'k> {
    /// A memo of `kernel`'s `g` with every slot empty.
    pub(crate) fn new(kernel: &'k GTable) -> Self {
        GMemo {
            kernel,
            scratch: kernel.scratch(),
            slots: Box::new([(EMPTY, 0.0); 1 << MEMO_BITS]),
            #[cfg(test)]
            misses: 0,
            #[cfg(test)]
            outer_steps: 0,
        }
    }

    /// `g(q)`: read from `q`'s slot when the slot holds `q`'s key.
    fn g(&mut self, q: f64) -> f64 {
        let key = q.to_bits();
        let slot = &mut self.slots[slot(key)];
        if slot.0 != key {
            *slot = (key, self.kernel.eval_fast_with(&mut self.scratch, q));
            #[cfg(test)]
            {
                self.misses += 1;
            }
        }
        slot.1
    }
}

/// An IFD solution: the equilibrium strategy plus diagnostics.
#[derive(Debug, Clone, PartialEq)]
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

/// A site's occupancy at one candidate common value `ν`, as a solver's
/// per-site rule decides it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Occupancy {
    /// Decided without inverting `g`: 0 or 1.
    Fixed(f64),
    /// The `q ∈ [0, 1]` with `g(q) = target`, found by inner bisection.
    Target(f64),
}

/// One site's inner bisection in the current outer step, plus its anchor:
/// the deepest bracket the walk reaches for every `ν` left in the outer
/// bracket. 48 bytes, so a 10⁶-site profile holds 48 MB of walks.
#[derive(Debug, Clone, Copy)]
struct Walk {
    anchor: [f64; 2],
    anchor_depth: u32,
    bracket: [f64; 2],
    depth: u32,
    target: f64,
}

impl Walk {
    const ROOT: Walk =
        Walk { anchor: [0.0, 1.0], anchor_depth: 0, bracket: [0.0, 1.0], depth: 0, target: 0.0 };

    /// Start this step's walk toward `target` from the anchor.
    fn restart(&mut self, target: f64) {
        self.bracket = self.anchor;
        self.depth = self.anchor_depth;
        self.target = target;
    }

    /// A fixed occupancy: a finished walk whose bracket is the point `q`.
    fn fix(&mut self, q: f64) {
        self.bracket = [q, q];
        self.depth = INNER_ITERS;
    }

    fn live(&self) -> bool {
        self.depth < INNER_ITERS
    }

    fn mid(&self) -> f64 {
        0.5 * (self.bracket[0] + self.bracket[1])
    }

    /// One bisection level at `q = self.mid()`, where `g(q) = gq`.
    fn step(&mut self, q: f64, gq: f64) {
        if gq >= self.target {
            self.bracket[0] = q;
        } else {
            self.bracket[1] = q;
        }
        self.depth += 1;
    }

    /// Finish the walk (every level below the current depth) and return
    /// its output: the midpoint of the full-depth bracket.
    fn finish(&mut self, memo: &mut GMemo) -> f64 {
        while self.live() {
            let q = self.mid();
            self.step(q, memo.g(q));
        }
        self.mid()
    }
}

/// The water-filling core: bisect `ν` over `[lo, hi]` for `S(ν) = 1`
/// and return `ν` with the occupancies there. The bisection takes
/// [`OUTER_ITERS`] steps, or stops at the first step that leaves the
/// bracket unchanged bit for bit: each later step would repeat it.
///
/// `rule(x, ν)` is site `x`'s occupancy rule. Where it returns a target,
/// the target must be non-decreasing in `ν`, and the values of `ν` where
/// it returns one must form an interval; both solvers' rules divide by a
/// positive site value, which gives both. `g` comes from `memo`, a fresh
/// one per call, whose misses run [`GTable::eval_fast_with`]: `O(1)` per
/// evaluation on a context with an interpolation grid
/// ([`PayoffContext::with_spec`], the large-`k` path), and bit-identical
/// to the exact `eval_with` without one.
pub(crate) fn water_fill<R>(
    memo: &mut GMemo,
    sites: usize,
    lo: f64,
    hi: f64,
    rule: R,
) -> (f64, Vec<f64>)
where
    R: Fn(usize, f64) -> Occupancy,
{
    let mut walks = vec![Walk::ROOT; sites];
    let (mut lo_nu, mut hi_nu) = (lo, hi);
    for _ in 0..OUTER_ITERS {
        #[cfg(test)]
        {
            memo.outer_steps += 1;
        }
        let mid = 0.5 * (lo_nu + hi_nu);
        let end = if reaches_one(memo, &mut walks, &rule, [lo_nu, hi_nu], mid) {
            &mut lo_nu
        } else {
            &mut hi_nu
        };
        if end.to_bits() == mid.to_bits() {
            break;
        }
        *end = mid;
    }
    let nu = 0.5 * (lo_nu + hi_nu);
    let occupancies = walks
        .iter_mut()
        .enumerate()
        .map(|(x, walk)| match rule(x, nu) {
            Occupancy::Fixed(q) => q,
            Occupancy::Target(t) => {
                walk.restart(t);
                walk.finish(memo)
            }
        })
        .collect();
    (nu, occupancies)
}

/// One outer step: whether `S(mid) ≥ 1`, for `mid` inside the outer
/// bracket `nu`. Advances the walks only as deep as the decision needs,
/// the shallowest live walks first, and the anchors along the way.
fn reaches_one<R>(memo: &mut GMemo, walks: &mut [Walk], rule: &R, nu: [f64; 2], mid: f64) -> bool
where
    R: Fn(usize, f64) -> Occupancy,
{
    // Sites past `end` are fixed at 0: they cannot change a sum's
    // comparison with 1, so nothing below touches their walks. Found from
    // the back, a long tail of empty sites costs one rule call each.
    let end = (0..walks.len())
        .rev()
        .find(|&x| !matches!(rule(x, mid), Occupancy::Fixed(q) if q == 0.0))
        .map_or(0, |x| x + 1);
    let walks = &mut walks[..end];
    for (x, walk) in walks.iter_mut().enumerate() {
        match rule(x, mid) {
            Occupancy::Fixed(q) => walk.fix(q),
            Occupancy::Target(t) => walk.restart(t),
        }
    }
    loop {
        // A finished walk's depth is `INNER_ITERS`, so `shallowest` is the
        // depth of the shallowest live walk while one is left.
        let (mut lo, mut hi, mut shallowest) = (0.0, 0.0, INNER_ITERS);
        for walk in walks.iter() {
            lo += walk.bracket[0];
            hi += walk.bracket[1];
            shallowest = shallowest.min(walk.depth);
        }
        if shallowest == INNER_ITERS {
            return walks.iter().map(Walk::mid).sum::<f64>() >= 1.0;
        }
        if lo >= 1.0 {
            return true;
        }
        if hi < 1.0 {
            return false;
        }
        for (x, walk) in walks.iter_mut().enumerate() {
            if walk.depth != shallowest {
                continue;
            }
            let q = walk.mid();
            let gq = memo.g(q);
            // Still on the anchor, and the level goes the same way for
            // every target the outer bracket allows: the anchor follows.
            let anchored = walk.depth == walk.anchor_depth
                && match (rule(x, nu[0]), rule(x, nu[1])) {
                    (Occupancy::Target(t_lo), Occupancy::Target(t_hi)) => gq >= t_hi || gq < t_lo,
                    _ => false,
                };
            walk.step(q, gq);
            if anchored {
                walk.anchor = walk.bracket;
                walk.anchor_depth = walk.depth;
            }
        }
    }
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
    let (nu, mut probs) = fill_ifd(&mut GMemo::new(ctx.kernel()), f);
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

/// The IFD's outer bracket and per-site rule, run through the
/// water-filling core: `ν` and the occupancies before renormalization.
fn fill_ifd(memo: &mut GMemo, f: &ValueProfile) -> (f64, Vec<f64>) {
    let kernel = memo.kernel;
    // g(1) = C(k), possibly negative.
    let g1 = kernel.at_one();
    // nu_hi: at nu = f(1)·g(0) = f(1), every occupancy is 0, S = 0 <= 1.
    let mut hi = f.value(0) * kernel.at_zero();
    // nu_lo: a value at which every site is fully occupied, S = M >= 1.
    let mut lo = if g1 >= 0.0 { f.value(f.len() - 1) * g1 } else { f.value(0) * g1 };
    // Guard the bracket against round-off at the endpoints.
    let pad = 1e-12 * (1.0 + hi.abs() + lo.abs());
    hi += pad;
    lo -= pad;
    let values = f.values();
    water_fill(memo, values.len(), lo, hi, |x, nu| {
        let fx = values[x];
        // Site is used only when its solo value strictly exceeds nu.
        if fx <= nu {
            return Occupancy::Fixed(0.0);
        }
        let target = nu / fx;
        if target >= kernel.at_zero() {
            Occupancy::Fixed(0.0)
        } else if target <= g1 {
            Occupancy::Fixed(1.0)
        } else {
            Occupancy::Target(target)
        }
    })
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
    use crate::kernel::GridSpec;
    use crate::policy::{Constant, Exclusive, PowerLaw, Sharing, TableCongestion, TwoLevel};
    use crate::sigma_star::sigma_star;

    /// `piecewise:t=4,c1=0.25,d=0.5` at k = 6: the centre of the
    /// mechanism search's piecewise root box, which the `ifd` bench times.
    fn search_candidate() -> TableCongestion {
        TableCongestion::new(
            vec![1.0, 0.25, 0.25, 0.25, -0.25, -0.25],
            "piecewise:t=4,c1=0.25,d=0.5",
        )
        .unwrap()
    }

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
    fn walk_state_stays_48_bytes_per_site() {
        // Two brackets, two depths and a target: 48 MB at the 10⁶-site
        // profile cap.
        assert_eq!(std::mem::size_of::<Walk>(), 48);
    }

    #[test]
    fn memo_returns_the_kernels_bits_through_evictions() {
        assert_eq!(EMPTY, (-1.0f64).to_bits());
        let a = 0.3;
        let b = (1..1 << 20)
            .map(|i| f64::from(i) / f64::from(1 << 20))
            .find(|&q| q != a && slot(q.to_bits()) == slot(a.to_bits()))
            .unwrap();
        let fixed = [0.0, 1.0, 0.5, f64::from_bits(1), 1.0 - f64::EPSILON / 2.0, a];
        let mut slots: Vec<usize> = fixed.iter().map(|q| slot(q.to_bits())).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), fixed.len(), "the fixed points must not share a slot");
        // b evicts a and a evicts b; 0.5 and 0.0 are still in their slots.
        let script = [fixed.as_slice(), &[b, a, b, 0.5, 0.0, a]].concat();
        for spec in [GridSpec::Exact, GridSpec::Interpolated { tol: 1e-9 }] {
            let ctx = PayoffContext::new(&search_candidate(), 6).unwrap().with_spec(spec).unwrap();
            let kernel = ctx.kernel();
            let mut scratch = kernel.scratch();
            let mut memo = GMemo::new(kernel);
            for (i, &q) in script.iter().enumerate() {
                let fresh = kernel.eval_fast_with(&mut scratch, q);
                assert_eq!(memo.g(q).to_bits(), fresh.to_bits(), "{spec:?}, call {i}: q = {q:e}");
            }
            assert_eq!(memo.misses, 10, "{spec:?}");
        }
    }

    #[test]
    fn memo_cuts_the_search_candidates_kernel_evaluations() {
        // 2 081 evaluations at 536 distinct points without the memo; 561
        // with it when every live walk steps in every round.
        let ctx = PayoffContext::new(&search_candidate(), 6).unwrap();
        let f = ValueProfile::zipf(12, 1.0, 1.0).unwrap();
        let mut memo = GMemo::new(ctx.kernel());
        let (nu, _) = fill_ifd(&mut memo, &f);
        assert_eq!(nu.to_bits(), solve_ifd_with_context(&ctx, &f).unwrap().value.to_bits());
        assert!(memo.misses <= 420, "{} kernel evaluations", memo.misses);
    }

    #[test]
    fn outer_loop_stops_once_the_bracket_stalls() {
        // Outer steps of one solve, whose ν must have the solver's bits.
        let outer_steps = |policy: &dyn Congestion, k: usize, f: ValueProfile| {
            let ctx = PayoffContext::new(policy, k).unwrap();
            let mut memo = GMemo::new(ctx.kernel());
            let (nu, _) = fill_ifd(&mut memo, &f);
            assert_eq!(nu.to_bits(), solve_ifd_with_context(&ctx, &f).unwrap().value.to_bits());
            memo.outer_steps
        };
        // The search candidate's bracket stops moving at step 56.
        let steps = outer_steps(&search_candidate(), 6, ValueProfile::zipf(12, 1.0, 1.0).unwrap());
        assert!(steps < 60, "{steps} outer steps");
        // One site under exclusive: ν ≈ 1e-16, and floats are dense
        // around 0, so the bracket never stalls.
        let one_site = ValueProfile::new(vec![1.0]).unwrap();
        assert_eq!(outer_steps(&Exclusive, 2, one_site), OUTER_ITERS);
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
