//! Evolutionary stability checking (Section 1.4, Theorem 3).
//!
//! A strategy `σ` is an ESS if for every mutant `π ≠ σ` there exists
//! `0 ≤ m_π ≤ k−1` such that
//!
//! * `E(σ; σ^{k−m−1}, π^m) > E(π; σ^{k−m−1}, π^m)`, and
//! * `E(σ; σ^{k−ℓ−1}, π^ℓ) = E(π; σ^{k−ℓ−1}, π^ℓ)` for all `ℓ < m`.
//!
//! This module evaluates those conditions *exactly* (via the
//! Poisson–binomial payoff evaluator) for any finite set of candidate
//! mutants, and prices populations of several strategy types: a
//! [`Mixture`] is the mixed population `(1−ε)σ + επ` of Eq. (3) or any
//! `M`-type generalization, with exact field payoffs
//! ([`mixture_field_payoffs`]) and the invasion barrier
//! ([`invasion_barrier`]).
//!
//! ## Direct evaluation of each level
//!
//! At level `ℓ` of the ledger `E(·; σ^{k−ℓ−1}, π^ℓ)`, site `x` faces
//! `n − ℓ` resident opponents at `σ(x)` and `ℓ` mutant opponents at
//! `π(x)`, with `n = k − 1`. Its occupancy law is
//! `Bin(n − ℓ, σ(x)) ⊛ Bin(ℓ, π(x))`: two binomials, never a general
//! Poisson–binomial. [`LedgerEvaluator`] folds the mutant binomial into
//! the congestion coefficients, one de Casteljau step per level, and
//! dots the result with the resident binomial's PMF, the walk behind
//! [`crate::kernel::GTable::eval_with`]. Each level is evaluated on its
//! own, so no error carries from one level to the next: every level
//! agrees with the fresh-DP [`reference_ledger`] to round-off, and level
//! 0 at each site is `g_C(σ(x))` with `GTable`'s bits.
//!
//! ## Lazy verdicts
//!
//! A verdict needs the ledger only up to its first strict level, and on
//! the mechanism search's candidates (the root forest and its first 48
//! breadth-first expansions) every verdict is settled at level 0 or 1.
//! [`LedgerEvaluator::check`] therefore computes levels only until its
//! verdict is settled: level 0 from stored per-site expectations, later
//! levels as [`LedgerEvaluator::ledger`] computes them. It returns the
//! full-ledger verdict — variant, level and margin bits — and falls back
//! to the full ledger where only its scale can decide; the method docs
//! give the argument.

use crate::error::{Error, Result};
use crate::kernel::{fill_pmf, pmf_logs};
use crate::numerics::kahan_sum;
use crate::payoff::PayoffContext;
use crate::policy::Congestion;
use crate::strategy::Strategy;
use crate::value::ValueProfile;
use rand::Rng;

/// Numerical tolerance distinguishing "equal" payoffs from strict
/// advantages in the ESS characterization.
pub const ESS_TOL: f64 = 1e-10;

/// Outcome of checking the ESS characterization against one mutant.
#[derive(Debug, Clone, PartialEq)]
pub enum MutantVerdict {
    /// The mutant is repelled at level `m` (the characterization holds with
    /// `m_π = m`); `margin` is the strict payoff advantage at that level.
    Repelled {
        /// The characterization level `m_π`.
        m: usize,
        /// Strict payoff advantage of the resident at that level.
        margin: f64,
    },
    /// The mutant ties the resident at all levels `0..=k−1` within
    /// tolerance — the candidate and mutant are payoff-indistinguishable
    /// (happens only for `π = σ` or numerically identical strategies).
    Indistinguishable,
    /// The mutant strictly beats the resident at some level before any
    /// strict advantage for the resident: the candidate is *not* an ESS.
    Invades {
        /// First level at which the mutant strictly wins.
        level: usize,
        /// The resident's payoff deficit at that level.
        deficit: f64,
    },
}

/// Per-level payoff ledger for diagnostics: `resident[ℓ]` is
/// `E(σ; σ^{k−ℓ−1}, π^ℓ)` and `mutant[ℓ]` is `E(π; σ^{k−ℓ−1}, π^ℓ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EssLedger {
    /// Resident payoffs by number of mutant opponents.
    pub resident: Vec<f64>,
    /// Mutant payoffs by number of mutant opponents.
    pub mutant: Vec<f64>,
}

/// Resident-anchored ledger evaluator. At level `ℓ`, with `n = k − 1`,
/// each site's expected congestion is
///
/// `E[C(1 + N)] = Σ_a Bin(n − ℓ, σ(x))(a)·v_ℓ(a)`, where `v_0(a) = C(a + 1)`
/// and `v_ℓ(a) = (1 − π(x))·v_{ℓ−1}(a) + π(x)·v_{ℓ−1}(a + 1)`.
///
/// The mutant side is one de Casteljau step per level: convex
/// combinations, no division. The resident side is one mode-seeded
/// binomial PMF of degree `n − ℓ`, seeded from logs taken once per site
/// here, so each level past 1 costs one `exp` per site.
///
/// Construction stores each site's level-0 expectation `g_C(σ(x))` and
/// level-1 PMF, neither of which a mutant changes. [`Self::ledger`] then
/// costs `O(M·k²)` for a full `k`-level ledger, and [`Self::check`]
/// computes only the levels its verdict needs: `O(M)` when level 0
/// settles it. Build one evaluator per resident and reuse it across every
/// mutant probed ([`probe_ess_k`] does exactly this).
#[derive(Debug, Clone)]
pub struct LedgerEvaluator<'a> {
    ctx: &'a PayoffContext,
    f: &'a ValueProfile,
    sigma: &'a Strategy,
    /// Each site's resident law: `σ(x)` clamped into `[0, 1]`, with
    /// `(ln σ(x), ln(1 − σ(x)))`.
    sites: Vec<(f64, (f64, f64))>,
    /// `g_C(σ(x))`: each site's level-0 `E[C(1 + N_x)]`, with the bits of
    /// [`crate::kernel::GTable::eval_with`].
    base_expectation: Vec<f64>,
    /// `Bin(n − 1, σ(x))` for each site in turn, `k − 1` entries each: the
    /// resident PMF of level 1, where most verdicts past level 0 settle.
    level_one: Vec<f64>,
    /// The level-0 resident payoff, summed as [`Self::level_payoffs`] sums it.
    base_resident: f64,
    /// `max(1, 2·Σ_x f(x)·max_j |C_j|)`: twice the largest magnitude any
    /// physically possible ledger value can have.
    scale_bound: f64,
}

/// The buffers a walk past level 0 refills: the mutant's normalized
/// probabilities, each site's coefficients `v_ℓ` and one PMF buffer.
/// [`probe_ess_k`] keeps one for every mutant it checks.
#[derive(Debug, Default)]
struct Walk {
    pi: Vec<f64>,
    v: Vec<Vec<f64>>,
    pmf: Vec<f64>,
}

/// What one level of [`LedgerEvaluator::check`] decides.
enum LevelCall {
    /// The level ties under every scale the full ledger could have.
    Tie,
    /// The level is strict under every scale the full ledger could have.
    Settled(MutantVerdict),
    /// Only the full ledger's scale can decide.
    Fallback,
}

impl<'a> LedgerEvaluator<'a> {
    /// Take the per-site logs, level-0 expectations and level-1 PMFs of
    /// resident `sigma` (requires `k ≥ 2`). A `σ(x)` outside `[0, 1]` by
    /// more than round-off is [`Error::ProbabilityOutOfRange`].
    pub fn new(ctx: &'a PayoffContext, f: &'a ValueProfile, sigma: &'a Strategy) -> Result<Self> {
        let k = ctx.k();
        if k < 2 {
            return Err(Error::InvalidPlayerCount { k });
        }
        if f.len() != sigma.len() {
            return Err(Error::DimensionMismatch { strategy: sigma.len(), profile: f.len() });
        }
        let kernel = ctx.kernel();
        let mut scratch = kernel.scratch();
        let mut sites = Vec::with_capacity(f.len());
        let mut base_expectation = Vec::with_capacity(f.len());
        let mut level_one = vec![0.0; f.len() * (k - 1)];
        for (&s, one) in sigma.probs().iter().zip(level_one.chunks_exact_mut(k - 1)) {
            let q = normalize_prob(s)?;
            let logs = pmf_logs(q);
            base_expectation.push(kernel.eval_with(&mut scratch, q));
            fill_pmf(kernel.ln_factorials(), q, logs, one);
            sites.push((q, logs));
        }
        let mut base_resident = 0.0;
        for (x, &expected_c) in base_expectation.iter().enumerate() {
            let px = sigma.prob(x);
            if px != 0.0 {
                base_resident += px * f.value(x) * expected_c;
            }
        }
        let max_c = ctx.c_table().iter().fold(0.0f64, |acc, c| acc.max(c.abs()));
        let scale_bound = (2.0 * f.values().iter().sum::<f64>() * max_c).max(1.0);
        Ok(Self { ctx, f, sigma, sites, base_expectation, level_one, base_resident, scale_bound })
    }

    /// The resident this evaluator is anchored on.
    #[inline]
    pub fn resident(&self) -> &Strategy {
        self.sigma
    }

    /// Compute the full per-level payoff ledger against mutant `pi`. At
    /// level `ℓ`, `ℓ` of the `k − 1` opponents play `π` and the rest play
    /// the resident. Level 0 comes from the stored expectations; each later
    /// level is evaluated directly (see the type docs).
    pub fn ledger(&self, pi: &Strategy) -> Result<EssLedger> {
        let mut walk = Walk::default();
        let mu0 = self.start(pi, &mut walk)?;
        let k = self.ctx.k();
        let (mut resident, mut mutant) = (Vec::with_capacity(k), Vec::with_capacity(k));
        resident.push(self.base_resident);
        mutant.push(mu0);
        for ell in 1..k {
            let (res, mu) = self.level_payoffs(ell, pi, &mut walk);
            resident.push(res);
            mutant.push(mu);
        }
        Ok(EssLedger { resident, mutant })
    }

    /// Start a walk against `pi`: check its length, normalize its
    /// probabilities into `walk` and size the buffers. Returns the level-0
    /// mutant payoff, from the stored expectations.
    ///
    /// A `π(x)` that does not normalize is rejected here, so a verdict
    /// settled at level 0 fails like one that needs later levels.
    fn start(&self, pi: &Strategy, walk: &mut Walk) -> Result<f64> {
        if pi.len() != self.f.len() {
            return Err(Error::DimensionMismatch { strategy: pi.len(), profile: self.f.len() });
        }
        walk.pi.clear();
        for &p in pi.probs() {
            walk.pi.push(normalize_prob(p)?);
        }
        walk.v.resize_with(self.f.len(), Vec::new);
        walk.pmf.resize(self.ctx.k(), 0.0);
        let mut mu0 = 0.0;
        for (x, &expected_c) in self.base_expectation.iter().enumerate() {
            let px = pi.prob(x);
            if px != 0.0 {
                mu0 += px * self.f.value(x) * expected_c;
            }
        }
        Ok(mu0)
    }

    /// Resident and mutant payoffs of level `ell ≥ 1`. Each site's
    /// `walk.v` holds `v_{ℓ−1}` (unread at `ell = 1`, where `v_0` is the C
    /// table) and is advanced to `v_ℓ`; the resident PMF is the stored one
    /// at level 1 and is walked afresh past it. Both payoffs face the same
    /// opponent law, so they share each site's `E[C(1 + N_x)]` and only
    /// weight sites differently; a site neither plays is skipped at every
    /// level.
    fn level_payoffs(&self, ell: usize, pi: &Strategy, walk: &mut Walk) -> (f64, f64) {
        let c_table = self.ctx.c_table();
        let ln_fact = self.ctx.kernel().ln_factorials();
        let width = c_table.len() - 1;
        let Walk { pi: probs, v, pmf } = walk;
        let (mut res, mut mu) = (0.0, 0.0);
        for (x, (&(q, logs), v)) in self.sites.iter().zip(v.iter_mut()).enumerate() {
            let (sx, px) = (self.sigma.prob(x), pi.prob(x));
            if sx == 0.0 && px == 0.0 {
                continue;
            }
            let (p, stay) = (probs[x], 1.0 - probs[x]);
            let pmf: &[f64] = if ell == 1 {
                v.clear();
                v.extend(c_table.windows(2).map(|c| stay * c[0] + p * c[1]));
                &self.level_one[x * width..(x + 1) * width]
            } else {
                for a in 1..v.len() {
                    v[a - 1] = stay * v[a - 1] + p * v[a];
                }
                v.pop();
                let pmf = &mut pmf[..v.len()];
                fill_pmf(ln_fact, q, logs, pmf);
                pmf
            };
            let expected_c = kahan_sum(pmf.iter().zip(v.iter()).map(|(b, c)| b * c));
            if sx != 0.0 {
                res += sx * self.f.value(x) * expected_c;
            }
            if px != 0.0 {
                mu += px * self.f.value(x) * expected_c;
            }
        }
        (res, mu)
    }

    /// Apply the ESS characterization to one mutant, computing ledger
    /// levels only until the verdict is settled.
    ///
    /// Level 0 comes from the stored expectations; levels `1, 2, …` are
    /// computed as [`Self::ledger`] computes them, so every level carries
    /// the full ledger's bits. At level `ℓ`, with `S_ℓ = max(1, |res_j|,
    /// |mu_j|, j ≤ ℓ)` and `S_B` the stored scale bound, the difference
    /// `d = res_ℓ − mu_ℓ`:
    ///
    /// * `d > ESS_TOL·S_B` repels and `d < −ESS_TOL·S_B` invades, at `ℓ`;
    /// * `|d| ≤ ESS_TOL·S_ℓ` ties, and the walk goes on;
    /// * anything else (including NaN) falls back to the full ledger: the
    ///   walk goes on to level `k − 1` from where it is, and the verdict
    ///   is the full ledger's, from every level computed.
    ///
    /// Every level tying is [`MutantVerdict::Indistinguishable`].
    ///
    /// **Why this is exact.** The full-ledger verdict uses the scale `S` of
    /// all `k` levels, and `S_ℓ ≤ S`: a tie under `S_ℓ` is a tie under `S`,
    /// so the full verdict also passes every level the lazy one passed.
    /// Every level value is `Σ_x ρ(x)·f(x)` times a PMF (non-negative,
    /// summing to one) dotted with convex combinations of the C table, so
    /// `|v| ≤ Σ_x f(x)·max|C| = S_B/2` up to round-off. Hence `S ≤ S_B`,
    /// and a difference beyond `ESS_TOL·S_B` is strict under `S` too. The
    /// verdict — variant, level and margin bits — is the full ledger's.
    pub fn check(&self, pi: &Strategy) -> Result<MutantVerdict> {
        let mut levels = EssLedger { resident: Vec::new(), mutant: Vec::new() };
        self.check_in(pi, &mut Walk::default(), &mut levels)
    }

    /// [`Self::check`] on caller-held buffers, whose contents are
    /// overwritten: `walk` holds the walk's per-site state and `levels`
    /// the payoffs of every level computed. [`probe_ess_k`] passes the
    /// same two for every mutant, so no walk allocates once they are long
    /// enough.
    fn check_in(
        &self,
        pi: &Strategy,
        walk: &mut Walk,
        levels: &mut EssLedger,
    ) -> Result<MutantVerdict> {
        let mu0 = self.start(pi, walk)?;
        levels.resident.clear();
        levels.mutant.clear();
        let mut scale = 1.0f64;
        let mut fell_back = false;
        for ell in 0..self.ctx.k() {
            let (res, mu) = if ell == 0 {
                (self.base_resident, mu0)
            } else {
                self.level_payoffs(ell, pi, walk)
            };
            levels.resident.push(res);
            levels.mutant.push(mu);
            if !fell_back {
                match self.call_level(ell, res, mu, &mut scale) {
                    LevelCall::Tie => {}
                    LevelCall::Settled(verdict) => return Ok(verdict),
                    LevelCall::Fallback => fell_back = true,
                }
            }
        }
        Ok(if fell_back { verdict_from_ledger(levels) } else { MutantVerdict::Indistinguishable })
    }

    /// Decide level `ell` of [`Self::check`] from its two payoffs, folding
    /// them into the running scale `S_ℓ` first.
    fn call_level(&self, ell: usize, res: f64, mu: f64, scale: &mut f64) -> LevelCall {
        *scale = scale.max(res.abs()).max(mu.abs());
        let diff = res - mu;
        if diff > ESS_TOL * self.scale_bound {
            LevelCall::Settled(MutantVerdict::Repelled { m: ell, margin: diff })
        } else if diff < -ESS_TOL * self.scale_bound {
            LevelCall::Settled(MutantVerdict::Invades { level: ell, deficit: -diff })
        } else if diff.abs() <= ESS_TOL * *scale {
            LevelCall::Tie
        } else {
            LevelCall::Fallback
        }
    }
}

/// Compute the full ESS ledger for resident `sigma` against mutant `pi`.
///
/// One-shot convenience over [`LedgerEvaluator`]; probing many mutants
/// against one resident should build the evaluator once instead.
pub fn ess_ledger(
    ctx: &PayoffContext,
    f: &ValueProfile,
    sigma: &Strategy,
    pi: &Strategy,
) -> Result<EssLedger> {
    LedgerEvaluator::new(ctx, f, sigma)?.ledger(pi)
}

/// The pre-kernel scalar ledger: a fresh per-site Poisson–binomial DP
/// per level per column, `O(M·k³)` total. Kept as the single equivalence
/// baseline shared by the core tests, the `kernel_equivalence` CI smoke,
/// and `benches/ess.rs` (the `BENCH_ess.json` speedups are measured
/// against exactly this); hidden because production callers should use
/// [`ess_ledger`].
#[doc(hidden)]
pub fn reference_ledger(
    ctx: &PayoffContext,
    f: &ValueProfile,
    sigma: &Strategy,
    pi: &Strategy,
) -> Result<EssLedger> {
    let k = ctx.k();
    if k < 2 {
        return Err(Error::InvalidPlayerCount { k });
    }
    if f.len() != sigma.len() {
        return Err(Error::DimensionMismatch { strategy: sigma.len(), profile: f.len() });
    }
    if f.len() != pi.len() {
        return Err(Error::DimensionMismatch { strategy: pi.len(), profile: f.len() });
    }
    let payoff = |rho: &Strategy, ell: usize| {
        let mut total = 0.0;
        for x in 0..f.len() {
            let rx = rho.prob(x);
            if rx == 0.0 {
                continue;
            }
            let mut profile = vec![sigma.prob(x); k - 1 - ell];
            profile.extend(std::iter::repeat_n(pi.prob(x), ell));
            let pmf = crate::numerics::poisson_binomial_pmf(&profile);
            let expected_c = crate::numerics::kahan_sum(
                pmf.iter().zip(ctx.c_table().iter()).map(|(p, c)| p * c),
            );
            total += rx * f.value(x) * expected_c;
        }
        total
    };
    Ok(EssLedger {
        resident: (0..k).map(|ell| payoff(sigma, ell)).collect(),
        mutant: (0..k).map(|ell| payoff(pi, ell)).collect(),
    })
}

/// Derive the characterization verdict from a computed ledger.
fn verdict_from_ledger(ledger: &EssLedger) -> MutantVerdict {
    let scale = ledger
        .resident
        .iter()
        .chain(ledger.mutant.iter())
        .fold(0.0f64, |acc, v| acc.max(v.abs()))
        .max(1.0);
    for (ell, (res, mu)) in ledger.resident.iter().zip(ledger.mutant.iter()).enumerate() {
        let diff = res - mu;
        if diff > ESS_TOL * scale {
            return MutantVerdict::Repelled { m: ell, margin: diff };
        }
        if diff < -ESS_TOL * scale {
            return MutantVerdict::Invades { level: ell, deficit: -diff };
        }
    }
    MutantVerdict::Indistinguishable
}

/// Normalize a visit probability: reject non-finite or genuinely
/// out-of-range values with [`Error::ProbabilityOutOfRange`] (a
/// [`Strategy`] admits entries up to `1 +`
/// [`crate::strategy::NORMALIZATION_TOL`]) and clamp round-off into
/// `[0, 1]`.
fn normalize_prob(p: f64) -> Result<f64> {
    if !p.is_finite() || !(-1e-12..=1.0 + 1e-12).contains(&p) {
        return Err(Error::ProbabilityOutOfRange { q: p });
    }
    Ok(p.clamp(0.0, 1.0))
}

/// Report from probing a candidate ESS with many mutants.
#[derive(Debug, Clone)]
pub struct EssReport {
    /// Number of mutants tested.
    pub mutants_tested: usize,
    /// Number repelled with a strict margin.
    pub repelled: usize,
    /// Number indistinguishable from the resident.
    pub indistinguishable: usize,
    /// Mutants that successfully invade (empty iff the candidate passed).
    pub invasions: Vec<(usize, f64)>,
    /// The smallest strict repulsion margin observed (0 if none).
    pub worst_margin: f64,
}

impl EssReport {
    /// True when no probed mutant invades.
    pub fn passed(&self) -> bool {
        self.invasions.is_empty()
    }
}

/// Probe `sigma` with a deterministic mutant family plus `random_mutants`
/// uniformly sampled ones, for the `k`-player game.
///
/// The deterministic family contains the structured deviations that break
/// non-ESS candidates in this game: point masses on each site, uniform,
/// value-proportional, top-j uniform blends, and convex blends between
/// `sigma` and each of those.
pub fn probe_ess_k<R: Rng + ?Sized>(
    c: &dyn Congestion,
    f: &ValueProfile,
    sigma: &Strategy,
    random_mutants: usize,
    rng: &mut R,
    k: usize,
) -> Result<EssReport> {
    let ctx = PayoffContext::new(c, k)?;
    let mutants = probe_mutants(f, sigma, random_mutants, rng)?;
    let mut report = EssReport {
        mutants_tested: 0,
        repelled: 0,
        indistinguishable: 0,
        invasions: Vec::new(),
        worst_margin: f64::INFINITY,
    };
    // One evaluator for the whole probe: the resident's per-site logs and
    // level-0 expectations are taken once and shared across every mutant
    // below, and so are the buffers each mutant's walk refills.
    let evaluator = LedgerEvaluator::new(&ctx, f, sigma)?;
    let mut walk = Walk::default();
    let mut levels = EssLedger { resident: Vec::new(), mutant: Vec::new() };
    for (idx, pi) in mutants.iter().enumerate() {
        if pi.linf_distance(sigma)? < 1e-12 {
            continue;
        }
        report.mutants_tested += 1;
        match evaluator.check_in(pi, &mut walk, &mut levels)? {
            MutantVerdict::Repelled { margin, .. } => {
                report.repelled += 1;
                report.worst_margin = report.worst_margin.min(margin);
            }
            MutantVerdict::Indistinguishable => report.indistinguishable += 1,
            MutantVerdict::Invades { deficit, .. } => report.invasions.push((idx, deficit)),
        }
    }
    if !report.worst_margin.is_finite() {
        report.worst_margin = 0.0;
    }
    Ok(report)
}

/// [`probe_ess_k`]'s mutants, in the order it checks them.
fn probe_mutants<R: Rng + ?Sized>(
    f: &ValueProfile,
    sigma: &Strategy,
    random_mutants: usize,
    rng: &mut R,
) -> Result<Vec<Strategy>> {
    let m = f.len();
    let mut mutants: Vec<Strategy> = Vec::new();
    for site in 0..m {
        mutants.push(Strategy::delta(m, site)?);
    }
    mutants.push(Strategy::uniform(m)?);
    mutants.push(Strategy::proportional(f.values())?);
    for top in 1..=m {
        mutants.push(Strategy::uniform_on_top(m, top)?);
    }
    // Blends toward structured deviations keep us near sigma, where
    // first-order ties force the second-order condition to do the work.
    let anchors: Vec<Strategy> = mutants.clone();
    for anchor in &anchors {
        for &w in &[0.1, 0.5] {
            mutants.push(sigma.mix(anchor, w)?);
        }
    }
    for _ in 0..random_mutants {
        let weights: Vec<f64> = (0..m).map(|_| rng.gen::<f64>().max(1e-12)).collect();
        mutants.push(Strategy::from_weights(weights)?);
    }
    Ok(mutants)
}

// ---------------------------------------------------------------------
// Population mixtures: the resident + mutant pair of Eq. (3) is the
// two-type case of a population of `M` strategy types.
// ---------------------------------------------------------------------

/// Tolerance for the mixture weights summing to one, matching the
/// normalization contract of [`Strategy`].
const WEIGHT_TOL: f64 = 1e-9;

/// A population of `M` strategy types with weights `w_t ≥ 0`, `Σ_t w_t =
/// 1`. Every type is a full site strategy over the same `m` sites. The
/// resident + mutant population `(1 − ε)σ + επ` of Eq. (3) is
/// [`Mixture::two`]; a single mutant `π` invading is the one-type
/// mixture `Mixture::new(vec![π], vec![1.0])`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mixture {
    types: Vec<Strategy>,
    weights: Vec<f64>,
}

impl Mixture {
    /// Build a mixture from `types` and matching `weights` (finite,
    /// non-negative, summing to one within `1e-9`).
    pub fn new(types: Vec<Strategy>, weights: Vec<f64>) -> Result<Self> {
        if types.is_empty() {
            return Err(Error::InvalidArgument("mixture needs at least one type".into()));
        }
        if types.len() != weights.len() {
            return Err(Error::InvalidArgument(format!(
                "mixture has {} types but {} weights",
                types.len(),
                weights.len()
            )));
        }
        let m = types[0].len();
        for t in &types[1..] {
            if t.len() != m {
                return Err(Error::DimensionMismatch { strategy: t.len(), profile: m });
            }
        }
        for &w in &weights {
            if !w.is_finite() || w < 0.0 {
                return Err(Error::InvalidArgument(format!(
                    "mixture weights must be finite and non-negative, got {w}"
                )));
            }
        }
        let total = kahan_sum(weights.iter().copied());
        if (total - 1.0).abs() > WEIGHT_TOL {
            return Err(Error::InvalidArgument(format!(
                "mixture weights must sum to 1, got {total}"
            )));
        }
        Ok(Self { types, weights })
    }

    /// The resident + mutant pair: weights `(1 − ε, ε)` with `ε ∈ (0, 1)`.
    pub fn two(resident: &Strategy, mutant: &Strategy, eps: f64) -> Result<Self> {
        if !(0.0 < eps && eps < 1.0) {
            return Err(Error::InvalidArgument(format!("epsilon must be in (0, 1), got {eps}")));
        }
        Self::new(vec![resident.clone(), mutant.clone()], vec![1.0 - eps, eps])
    }

    /// Number of types `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the mixture is empty (never true for a validated mixture).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Number of sites every type plays over.
    #[inline]
    pub fn sites(&self) -> usize {
        self.types[0].len()
    }

    /// The type strategies, in input order.
    #[inline]
    pub fn types(&self) -> &[Strategy] {
        &self.types
    }

    /// The population weights, in type order.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The population-mean strategy `μ(x) = Σ_t w_t·p_t(x)`.
    ///
    /// Each site is a compensated sum over types; for `M = 2` with
    /// weights `(1 − ε, ε)` this is bit-identical to
    /// [`Strategy::mix`]`(ε)` (a two-term Kahan sum carries zero
    /// compensation, so the bits equal the plain `(1−ε)a + εb`).
    pub fn mean_strategy(&self) -> Result<Strategy> {
        let probs = (0..self.sites())
            .map(|x| {
                kahan_sum(self.types.iter().zip(self.weights.iter()).map(|(t, &w)| w * t.prob(x)))
            })
            .collect();
        Strategy::new(probs)
    }
}

/// Field payoff of every type against the population mean (Eq. 3): `U_t
/// = Σ_x p_t(x)·ν_μ(x)`, where `ν_μ` are the site values under the mean
/// field `μ`. One site-value pass serves all `M` types; the Eq. (3)
/// advantage of type `a` over type `b` is `U_a − U_b`, bit-identical to
/// the difference of two [`PayoffContext::mixture_payoff`] calls.
pub fn mixture_field_payoffs(
    ctx: &PayoffContext,
    f: &ValueProfile,
    mixture: &Mixture,
) -> Result<Vec<f64>> {
    let mean = mixture.mean_strategy()?;
    let nu = ctx.site_values(f, &mean)?;
    Ok(mixture
        .types()
        .iter()
        .map(|t| kahan_sum(t.probs().iter().zip(nu.iter()).map(|(r, v)| r * v)))
        .collect())
}

/// Estimate the invasion barrier: the largest invading share `ε` on the
/// grid `{1/grid, …, 1}` such that the resident strictly out-earns
/// **every** invader type in every population with share `ε' ≤ ε` (Eq.
/// 3). At share `ε` the resident has weight `1 − ε` and invader type `t`
/// weight `ε·w_t`, where `w` are the `invaders` weights. Returns 0 when
/// the invaders win immediately. A single mutant is a one-type
/// `invaders` mixture.
///
/// Each grid point evaluates the mixture field once through
/// [`mixture_field_payoffs`]: every type's payoff dots the same `ν_μ`
/// vector.
pub fn invasion_barrier(
    ctx: &PayoffContext,
    f: &ValueProfile,
    resident: &Strategy,
    invaders: &Mixture,
    grid: usize,
) -> Result<f64> {
    if grid < 2 {
        return Err(Error::InvalidArgument("invasion barrier grid must be >= 2".into()));
    }
    if resident.len() != f.len() {
        return Err(Error::DimensionMismatch { strategy: resident.len(), profile: f.len() });
    }
    if invaders.sites() != f.len() {
        return Err(Error::DimensionMismatch { strategy: invaders.sites(), profile: f.len() });
    }
    let mut pop = Mixture {
        types: std::iter::once(resident).chain(&invaders.types).cloned().collect(),
        weights: vec![0.0; 1 + invaders.len()],
    };
    let mut last_good = 0.0;
    for i in 1..=grid {
        let eps = i as f64 / grid as f64;
        pop.weights[0] = 1.0 - eps;
        for (w, &v) in pop.weights[1..].iter_mut().zip(&invaders.weights) {
            *w = eps * v;
        }
        let u = mixture_field_payoffs(ctx, f, &pop)?;
        if u[1..].iter().all(|&ut| u[0] - ut > 0.0) {
            last_good = eps;
        } else {
            break;
        }
    }
    Ok(last_good)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Exclusive, Sharing, TwoLevel};
    use crate::sigma_star::sigma_star;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn one_type(pi: &Strategy) -> Mixture {
        Mixture::new(vec![pi.clone()], vec![1.0]).unwrap()
    }

    #[test]
    fn ledger_shape() {
        let f = ValueProfile::new(vec![1.0, 0.3]).unwrap();
        let ctx = PayoffContext::new(&Exclusive, 3).unwrap();
        let s = sigma_star(&f, 3).unwrap().strategy;
        let pi = Strategy::uniform(2).unwrap();
        let ledger = ess_ledger(&ctx, &f, &s, &pi).unwrap();
        assert_eq!(ledger.resident.len(), 3);
        assert_eq!(ledger.mutant.len(), 3);
    }

    /// `max(1, 2·Σ_x f(x)·max|C|)`, the scale the ledger tests bound errors by.
    fn scale_bound(ctx: &PayoffContext, f: &ValueProfile) -> f64 {
        let max_c = ctx.c_table().iter().fold(0.0f64, |acc, c| acc.max(c.abs()));
        (2.0 * f.values().iter().sum::<f64>() * max_c).max(1.0)
    }

    #[test]
    fn ledger_matches_pre_kernel_reference() {
        for (f, k) in [
            (ValueProfile::new(vec![1.0, 0.5]).unwrap(), 2usize),
            (ValueProfile::zipf(6, 1.0, 1.0).unwrap(), 5),
            (ValueProfile::geometric(8, 1.0, 0.6).unwrap(), 9),
        ] {
            let ctx = PayoffContext::new(&Exclusive, k).unwrap();
            let sigma = sigma_star(&f, k).unwrap().strategy;
            let pi = Strategy::uniform(f.len()).unwrap();
            let fast = ess_ledger(&ctx, &f, &sigma, &pi).unwrap();
            let reference = reference_ledger(&ctx, &f, &sigma, &pi).unwrap();
            // Level 0 is g_C(σ(x)) at each site, with GTable's bits.
            let table = ctx.kernel();
            let mut scratch = table.scratch();
            let (mut res0, mut mu0) = (0.0, 0.0);
            for x in 0..f.len() {
                let g = table.eval_with(&mut scratch, sigma.prob(x));
                if sigma.prob(x) != 0.0 {
                    res0 += sigma.prob(x) * f.value(x) * g;
                }
                if pi.prob(x) != 0.0 {
                    mu0 += pi.prob(x) * f.value(x) * g;
                }
            }
            assert_eq!(fast.resident[0].to_bits(), res0.to_bits(), "k = {k}");
            assert_eq!(fast.mutant[0].to_bits(), mu0.to_bits(), "k = {k}");
            // Every level: within 1e-13·S_B of the fresh DP.
            let tol = 1e-13 * scale_bound(&ctx, &f);
            for ell in 0..k {
                assert!(
                    (fast.resident[ell] - reference.resident[ell]).abs() <= tol,
                    "k = {k} resident level {ell}: {} vs {}",
                    fast.resident[ell],
                    reference.resident[ell]
                );
                assert!(
                    (fast.mutant[ell] - reference.mutant[ell]).abs() <= tol,
                    "k = {k} mutant level {ell}: {} vs {}",
                    fast.mutant[ell],
                    reference.mutant[ell]
                );
            }
        }
    }

    #[test]
    fn evaluator_reuse_matches_one_shot_path() {
        let f = ValueProfile::zipf(5, 1.0, 1.0).unwrap();
        let k = 4;
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let sigma = sigma_star(&f, k).unwrap().strategy;
        let evaluator = LedgerEvaluator::new(&ctx, &f, &sigma).unwrap();
        assert_eq!(evaluator.resident().probs(), sigma.probs());
        for pi in [
            Strategy::uniform(5).unwrap(),
            Strategy::delta(5, 2).unwrap(),
            Strategy::proportional(f.values()).unwrap(),
        ] {
            let a = evaluator.ledger(&pi).unwrap();
            let b = ess_ledger(&ctx, &f, &sigma, &pi).unwrap();
            for (x, y) in a.resident.iter().zip(b.resident.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.mutant.iter().zip(b.mutant.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            let one_shot = LedgerEvaluator::new(&ctx, &f, &sigma).unwrap().check(&pi).unwrap();
            assert_eq!(evaluator.check(&pi).unwrap(), one_shot);
        }
        // Dimension mismatches are rejected at both entry points.
        let wrong = Strategy::uniform(3).unwrap();
        assert!(evaluator.ledger(&wrong).is_err());
        assert!(LedgerEvaluator::new(&ctx, &f, &wrong).is_err());
    }

    #[test]
    fn invasion_barrier_matches_mixture_payoff_formulation() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
        let k = 3;
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let star = sigma_star(&f, k).unwrap().strategy;
        let pi = Strategy::uniform(3).unwrap();
        let grid = 64;
        let fast = invasion_barrier(&ctx, &f, &star, &one_type(&pi), grid).unwrap();
        // Pre-kernel formulation: two mixture payoffs per grid point.
        let mut reference = 0.0;
        for i in 1..=grid {
            let eps = i as f64 / grid as f64;
            let u_sigma = ctx.mixture_payoff(&f, &star, &star, &pi, eps).unwrap();
            let u_pi = ctx.mixture_payoff(&f, &pi, &star, &pi, eps).unwrap();
            if u_sigma - u_pi > 0.0 {
                reference = eps;
            } else {
                break;
            }
        }
        assert_eq!(fast.to_bits(), reference.to_bits());
    }

    #[test]
    fn field_payoff_difference_is_bit_identical_to_mixture_payoffs() {
        let f = ValueProfile::new(vec![1.0, 0.7, 0.3]).unwrap();
        let sigma = Strategy::new(vec![0.6, 0.3, 0.1]).unwrap();
        let pi = Strategy::new(vec![0.1, 0.1, 0.8]).unwrap();
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.2 }] {
            let ctx = PayoffContext::new(c, 4).unwrap();
            for &eps in &[0.0, 0.05, 0.3, 0.9, 1.0] {
                let direct = ctx.mixture_payoff(&f, &sigma, &sigma, &pi, eps).unwrap()
                    - ctx.mixture_payoff(&f, &pi, &sigma, &pi, eps).unwrap();
                let pop = Mixture::new(vec![sigma.clone(), pi.clone()], vec![1.0 - eps, eps]);
                let u = mixture_field_payoffs(&ctx, &f, &pop.unwrap()).unwrap();
                assert_eq!(direct.to_bits(), (u[0] - u[1]).to_bits(), "{} eps = {eps}", c.name());
            }
        }
    }

    #[test]
    fn invasion_barrier_with_several_invaders_matches_expected_payoffs() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.3, 0.1]).unwrap();
        let k = 4;
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let star = sigma_star(&f, k).unwrap().strategy;
        let invaders = Mixture::new(
            vec![
                Strategy::uniform(4).unwrap(),
                Strategy::proportional(f.values()).unwrap(),
                Strategy::delta(4, 0).unwrap(),
            ],
            vec![0.5, 0.3, 0.2],
        )
        .unwrap();
        let grid = 40;
        let fast = invasion_barrier(&ctx, &f, &star, &invaders, grid).unwrap();
        // Scalar formulation: one expected-payoff pass per type per point.
        let mut reference = 0.0;
        for i in 1..=grid {
            let eps = i as f64 / grid as f64;
            let mut types = vec![star.clone()];
            types.extend(invaders.types().iter().cloned());
            let mut weights = vec![1.0 - eps];
            weights.extend(invaders.weights().iter().map(|w| eps * w));
            let mean = Mixture::new(types, weights).unwrap().mean_strategy().unwrap();
            let u0 = ctx.expected_payoff(&f, &star, &mean).unwrap();
            let wins = invaders
                .types()
                .iter()
                .all(|t| u0 - ctx.expected_payoff(&f, t, &mean).unwrap() > 0.0);
            if !wins {
                break;
            }
            reference = eps;
        }
        assert_eq!(fast.to_bits(), reference.to_bits());
        assert!(fast > 0.0, "sigma* must hold off a small mixed invasion");
    }

    #[test]
    fn ledger_rejects_out_of_range_probabilities() {
        // A Strategy admits entries up to 1 + NORMALIZATION_TOL. The ledger
        // clamps round-off (1e-12) and rejects the rest with a typed error:
        // σ at construction, π before level 0, even where level 0 would
        // settle the verdict.
        let f = ValueProfile::new(vec![1.0]).unwrap();
        let ctx = PayoffContext::new(&Sharing, 4).unwrap();
        let exact = Strategy::new(vec![1.0]).unwrap();
        let round_off = Strategy::new(vec![1.0 + 1e-13]).unwrap();
        let beyond = Strategy::new(vec![1.0 + 1e-10]).unwrap();
        let out_of_range = |r: Result<_>| matches!(r, Err(Error::ProbabilityOutOfRange { .. }));
        assert!(out_of_range(LedgerEvaluator::new(&ctx, &f, &beyond).map(|_| ())));
        let evaluator = LedgerEvaluator::new(&ctx, &f, &exact).unwrap();
        assert!(out_of_range(evaluator.check(&beyond).map(|_| ())));
        assert!(out_of_range(evaluator.ledger(&beyond).map(|_| ())));
        assert_eq!(evaluator.check(&round_off).unwrap(), MutantVerdict::Indistinguishable);
        let clamped = LedgerEvaluator::new(&ctx, &f, &round_off).unwrap();
        assert_eq!(clamped.check(&exact).unwrap(), MutantVerdict::Indistinguishable);
    }

    #[test]
    fn ledger_requires_k_at_least_two() {
        let f = ValueProfile::new(vec![1.0]).unwrap();
        let ctx = PayoffContext::new(&Exclusive, 1).unwrap();
        let s = Strategy::uniform(1).unwrap();
        assert!(ess_ledger(&ctx, &f, &s, &s).is_err());
    }

    #[test]
    fn sigma_star_repels_structured_mutants_theorem3() {
        for (f, k) in [
            (ValueProfile::new(vec![1.0, 0.3]).unwrap(), 2usize),
            (ValueProfile::new(vec![1.0, 0.5]).unwrap(), 3),
            (ValueProfile::zipf(6, 1.0, 1.0).unwrap(), 4),
        ] {
            let star = sigma_star(&f, k).unwrap().strategy;
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let report = probe_ess_k(&Exclusive, &f, &star, 50, &mut rng, k).unwrap();
            assert!(report.passed(), "k = {k}: invasions {:?}", report.invasions);
            assert!(report.repelled > 0);
        }
    }

    #[test]
    fn off_support_mutant_repelled_at_level_zero() {
        // Any mutant weighting sites beyond W loses already against pure
        // sigma* opponents (m_pi = 0 in the paper's case analysis).
        let f = ValueProfile::geometric(10, 1.0, 0.3).unwrap();
        let k = 2;
        let star = sigma_star(&f, k).unwrap();
        assert!(star.support < 10, "need off-support sites for this test");
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let pi = Strategy::delta(10, 9).unwrap();
        match LedgerEvaluator::new(&ctx, &f, &star.strategy).unwrap().check(&pi).unwrap() {
            MutantVerdict::Repelled { m, .. } => assert_eq!(m, 0),
            other => panic!("expected repulsion at level 0, got {other:?}"),
        }
    }

    #[test]
    fn on_support_mutant_ties_level_zero_repelled_at_one() {
        // A mutant inside the support earns the same against pure sigma*
        // (nu is constant on the support) but loses at level 1 (Eq. 10/11).
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let k = 3;
        let star = sigma_star(&f, k).unwrap();
        assert_eq!(star.support, 2);
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let pi = Strategy::new(vec![0.7, 0.3]).unwrap();
        match LedgerEvaluator::new(&ctx, &f, &star.strategy).unwrap().check(&pi).unwrap() {
            MutantVerdict::Repelled { m, margin } => {
                assert_eq!(m, 1, "expected repulsion exactly at level 1");
                assert!(margin > 0.0);
            }
            other => panic!("expected repulsion at level 1, got {other:?}"),
        }
    }

    #[test]
    fn non_equilibrium_candidate_is_invaded() {
        // Uniform is not the IFD for a decreasing f, so some mutant invades.
        let f = ValueProfile::new(vec![1.0, 0.2]).unwrap();
        let k = 2;
        let uniform = Strategy::uniform(2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let report = probe_ess_k(&Exclusive, &f, &uniform, 20, &mut rng, k).unwrap();
        assert!(!report.passed(), "uniform should be invadable");
    }

    #[test]
    fn sharing_ifd_is_ess_for_its_own_policy() {
        // Under sharing, the IFD is also evolutionarily stable (classical
        // result); our checker should agree on small instances.
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let k = 3;
        let ifd = crate::ifd::solve_ifd(&Sharing, &f, k).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let report = probe_ess_k(&Sharing, &f, &ifd.strategy, 40, &mut rng, k).unwrap();
        assert!(report.passed(), "invasions: {:?}", report.invasions);
    }

    #[test]
    fn invasion_barrier_positive_for_sigma_star() {
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let k = 2;
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let star = sigma_star(&f, k).unwrap().strategy;
        let pi = Strategy::uniform(2).unwrap();
        let barrier = invasion_barrier(&ctx, &f, &star, &one_type(&pi), 100).unwrap();
        assert!(barrier > 0.0, "barrier = {barrier}");
    }

    #[test]
    fn invasion_barrier_zero_when_mutant_dominates() {
        // Resident = bad strategy (mass on worst site); best-response mutant
        // invades at every epsilon.
        let f = ValueProfile::new(vec![1.0, 0.1]).unwrap();
        let k = 2;
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let resident = Strategy::delta(2, 1).unwrap();
        let mutant = Strategy::delta(2, 0).unwrap();
        let barrier = invasion_barrier(&ctx, &f, &resident, &one_type(&mutant), 50).unwrap();
        assert_eq!(barrier, 0.0);
    }

    #[test]
    fn invasion_barrier_validates_grid() {
        let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
        let ctx = PayoffContext::new(&Exclusive, 2).unwrap();
        let s = Strategy::uniform(2).unwrap();
        assert!(invasion_barrier(&ctx, &f, &s, &one_type(&s), 1).is_err());
    }

    #[test]
    fn probe_walks_share_one_table_buffer_and_keep_every_verdict() {
        // Sharing's IFD at k = 24 on two sites: the walk of the
        // value-proportional mutant, which ties at every level, follows
        // the uniform mutant's, which stops at level 1.
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let k = 24;
        let sigma = crate::ifd::solve_ifd(&Sharing, &f, k).unwrap().strategy;
        let seeded = || ChaCha8Rng::seed_from_u64(7);
        let probe = probe_ess_k(&Sharing, &f, &sigma, 16, &mut seeded(), k).unwrap();
        // The same mutants, each checked with a fresh evaluator.
        let ctx = PayoffContext::new(&Sharing, k).unwrap();
        let (mut repelled, mut indistinguishable) = (0, 0);
        let mut invasions = Vec::new();
        let mut worst_margin = f64::INFINITY;
        // The level each walk past level 0 stopped at.
        let mut walks = Vec::new();
        for (idx, pi) in probe_mutants(&f, &sigma, 16, &mut seeded()).unwrap().iter().enumerate() {
            if pi.linf_distance(&sigma).unwrap() < 1e-12 {
                continue;
            }
            let stop = match LedgerEvaluator::new(&ctx, &f, &sigma).unwrap().check(pi).unwrap() {
                MutantVerdict::Repelled { m, margin } => {
                    repelled += 1;
                    worst_margin = worst_margin.min(margin);
                    m
                }
                MutantVerdict::Indistinguishable => {
                    indistinguishable += 1;
                    k - 1
                }
                MutantVerdict::Invades { level, deficit } => {
                    invasions.push((idx, deficit.to_bits()));
                    level
                }
            };
            if stop > 0 {
                walks.push(stop);
            }
        }
        assert!(walks.windows(2).any(|w| w[0] == 1 && w[1] >= 2), "walks stopped at {walks:?}");
        assert_eq!(probe.worst_margin.to_bits(), worst_margin.to_bits());
        assert_eq!((probe.repelled, probe.indistinguishable), (repelled, indistinguishable));
        let probe_invasions: Vec<_> =
            probe.invasions.iter().map(|&(i, d)| (i, d.to_bits())).collect();
        assert_eq!(probe_invasions, invasions);
    }

    #[test]
    fn aggressive_two_level_ifd_still_ess() {
        // The IFD of any strictly-decreasing congestion function is an ESS
        // candidate; verify no structured mutant invades for c = -0.4.
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let k = 2;
        let pol = TwoLevel { c: -0.4 };
        let ifd = crate::ifd::solve_ifd(&pol, &f, k).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let report = probe_ess_k(&pol, &f, &ifd.strategy, 40, &mut rng, k).unwrap();
        assert!(report.passed(), "invasions: {:?}", report.invasions);
    }
}
