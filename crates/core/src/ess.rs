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
//! ([`mixture_field_payoffs`]), the invasion barrier
//! ([`invasion_barrier`]) and per-type transfer ledgers
//! ([`MixtureEvaluator`]).
//!
//! ## Kernel-backed evaluation
//!
//! The ledger payoffs `E(·; σ^{k−ℓ−1}, π^ℓ)` only ever differ between
//! levels by *one opponent switching strategies*, so the per-site
//! Poisson–binomial law at level `ℓ+1` is a rank-one update of the one at
//! level `ℓ`. [`LedgerEvaluator`] exploits this through
//! [`crate::kernel::PbTable`]: the all-resident baseline tables are built
//! once (shared across equal-`σ(x)` sites via
//! [`crate::kernel::PbCache`], and across *every mutant probed*), and
//! each ledger level is one `O(k)` [`crate::kernel::PbTable::replace`]
//! per site instead of a fresh `O(k²)` DP — an `O(k)` total speedup that
//! is what makes the tier-2 large-`k` theorem tests affordable. Level 0
//! remains bit-identical to the pre-kernel per-site DP path; rank-updated
//! levels agree to `O(k·ε)` (≈ 1e-13 at `k = 256`, checked in CI). The
//! same level walk serves the two-column [`EssLedger`] and the
//! one-row-per-type [`MixtureLedger`].

use crate::error::{Error, Result};
use crate::kernel::{PbCache, PbTable};
use crate::numerics::kahan_sum;
use crate::payoff::PayoffContext;
use crate::policy::Congestion;
use crate::strategy::Strategy;
use crate::value::ValueProfile;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Numerical tolerance distinguishing "equal" payoffs from strict
/// advantages in the ESS characterization.
pub const ESS_TOL: f64 = 1e-10;

/// Outcome of checking the ESS characterization against one mutant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EssLedger {
    /// Resident payoffs by number of mutant opponents.
    pub resident: Vec<f64>,
    /// Mutant payoffs by number of mutant opponents.
    pub mutant: Vec<f64>,
}

/// Resident-anchored ledger evaluator: owns the per-site Poisson–binomial
/// tables for the all-resident opponent profile `{σ(x)}^{k−1}` and walks
/// ledger levels by `O(k)` rank updates ([`PbTable::replace`]) instead of
/// rebuilding the `O(k²)` DP per site per level.
///
/// Construction costs one DP per *distinct* `σ(x)` value (shared via
/// [`PbCache`]); [`Self::ledger`] then costs `O(M·k²)` total for a full
/// `k`-level ledger — the pre-kernel path paid `O(M·k³)`. Build one
/// evaluator per resident and reuse it across every mutant probed
/// ([`probe_ess_k`] does exactly this).
#[derive(Debug, Clone)]
pub struct LedgerEvaluator<'a> {
    ctx: &'a PayoffContext,
    f: &'a ValueProfile,
    sigma: &'a Strategy,
    /// Per-site baseline tables for the profile `{σ(x)}^{k−1}`.
    base: Vec<PbTable>,
}

impl<'a> LedgerEvaluator<'a> {
    /// Build the baseline tables for resident `sigma` (requires `k ≥ 2`).
    pub fn new(ctx: &'a PayoffContext, f: &'a ValueProfile, sigma: &'a Strategy) -> Result<Self> {
        Self::with_cache(ctx, f, sigma, &PbCache::new())
    }

    /// [`Self::new`] drawing the baseline tables from `cache`, which a
    /// [`MixtureEvaluator`] keeps warm for its composition payoffs.
    fn with_cache(
        ctx: &'a PayoffContext,
        f: &'a ValueProfile,
        sigma: &'a Strategy,
        cache: &PbCache,
    ) -> Result<Self> {
        let k = ctx.k();
        if k < 2 {
            return Err(Error::InvalidPlayerCount { k });
        }
        if f.len() != sigma.len() {
            return Err(Error::DimensionMismatch { strategy: sigma.len(), profile: f.len() });
        }
        let mut profile = vec![0.0; k - 1];
        let mut base = Vec::with_capacity(f.len());
        for x in 0..f.len() {
            profile.fill(sigma.prob(x));
            base.push(cache.table(&profile)?.as_ref().clone());
        }
        Ok(Self { ctx, f, sigma, base })
    }

    /// The resident this evaluator is anchored on.
    #[inline]
    pub fn resident(&self) -> &Strategy {
        self.sigma
    }

    /// Compute the full per-level payoff ledger against mutant `pi`: the
    /// level walk with focal strategies `[σ, π]`.
    pub fn ledger(&self, pi: &Strategy) -> Result<EssLedger> {
        if pi.len() != self.f.len() {
            return Err(Error::DimensionMismatch { strategy: pi.len(), profile: self.f.len() });
        }
        let k = self.ctx.k();
        let mut rows = [vec![0.0; k], vec![0.0; k]];
        self.walk(pi, &[self.sigma, pi], &mut rows)?;
        let [resident, mutant] = rows;
        Ok(EssLedger { resident, mutant })
    }

    /// The level walk shared by every ledger: at level `ℓ`, `ℓ` of the
    /// `k − 1` opponents play `to` and the rest play the resident, and
    /// `rows[t][ℓ]` (zeroed, `k` long) receives the payoff of a focal
    /// `focal[t]` player. Level 0 runs on the cloned baseline tables
    /// (bit-identical to the exact per-site DP); each later level replaces
    /// one `σ(x)` factor with `to(x)` per site. Every focal strategy faces
    /// the *same* opponent law, so all rows share the per-site expectation
    /// `E[C(1 + N_x)]` and only weight sites differently.
    fn walk(&self, to: &Strategy, focal: &[&Strategy], rows: &mut [Vec<f64>]) -> Result<()> {
        let c_table = self.ctx.c_table();
        let mut tables = self.base.clone();
        for ell in 0..self.ctx.k() {
            if ell > 0 {
                for (x, table) in tables.iter_mut().enumerate() {
                    table.replace(self.sigma.prob(x), to.prob(x))?;
                }
            }
            for (x, table) in tables.iter().enumerate() {
                if focal.iter().all(|t| t.prob(x) == 0.0) {
                    continue;
                }
                let expected_c = table.expectation(c_table);
                for (row, t) in rows.iter_mut().zip(focal) {
                    let px = t.prob(x);
                    if px != 0.0 {
                        row[ell] += px * self.f.value(x) * expected_c;
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply the ESS characterization to one mutant (ledger + verdict).
    pub fn check(&self, pi: &Strategy) -> Result<MutantVerdict> {
        Ok(verdict_from_ledger(&self.ledger(pi)?))
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

/// Apply the ESS characterization to one mutant.
pub fn check_mutant(
    ctx: &PayoffContext,
    f: &ValueProfile,
    sigma: &Strategy,
    pi: &Strategy,
) -> Result<MutantVerdict> {
    Ok(verdict_from_ledger(&ess_ledger(ctx, f, sigma, pi)?))
}

/// Report from probing a candidate ESS with many mutants.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    let mut report = EssReport {
        mutants_tested: 0,
        repelled: 0,
        indistinguishable: 0,
        invasions: Vec::new(),
        worst_margin: f64::INFINITY,
    };
    // One evaluator for the whole probe: the resident-only baseline DP
    // tables are built once and shared across every mutant below.
    let evaluator = LedgerEvaluator::new(&ctx, f, sigma)?;
    for (idx, pi) in mutants.iter().enumerate() {
        if pi.linf_distance(sigma)? < 1e-12 {
            continue;
        }
        report.mutants_tested += 1;
        match evaluator.check(pi)? {
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The per-level exact payoff ledger of a one-directional type transfer:
/// `payoffs[t][ℓ]` is the expected payoff of a focal type-`t` player when
/// `ℓ` of the `k − 1` opponents play the transfer target and the rest
/// play type 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixtureLedger {
    /// `payoffs[t][ℓ]`, one row per mixture type, `k` levels per row.
    pub payoffs: Vec<Vec<f64>>,
}

/// Exact `PbTable`-backed evaluator for a multi-type mixture: a
/// [`LedgerEvaluator`] anchored on type 0 whose level walk prices every
/// type at once, plus the [`PbCache`] that served its baseline tables for
/// fixed-composition payoffs.
#[derive(Debug)]
pub struct MixtureEvaluator<'a> {
    ledger: LedgerEvaluator<'a>,
    mixture: &'a Mixture,
    cache: PbCache,
}

impl<'a> MixtureEvaluator<'a> {
    /// Build the baseline tables anchored on type 0 (requires `k ≥ 2`).
    pub fn new(ctx: &'a PayoffContext, f: &'a ValueProfile, mixture: &'a Mixture) -> Result<Self> {
        let cache = PbCache::new();
        let ledger = LedgerEvaluator::with_cache(ctx, f, &mixture.types()[0], &cache)?;
        Ok(Self { ledger, mixture, cache })
    }

    /// The full per-level ledger of transferring opponents from type 0 to
    /// type `to`: the level walk with every type as a focal strategy.
    pub fn transfer_ledger(&self, to: usize) -> Result<MixtureLedger> {
        let types = self.mixture.types();
        if to == 0 || to >= types.len() {
            return Err(Error::InvalidArgument(format!(
                "transfer target {to} out of range for a {}-type mixture",
                types.len()
            )));
        }
        let focal: Vec<&Strategy> = types.iter().collect();
        let mut payoffs = vec![vec![0.0; self.ledger.ctx.k()]; types.len()];
        self.ledger.walk(&types[to], &focal, &mut payoffs)?;
        Ok(MixtureLedger { payoffs })
    }

    /// Exact expected payoff of a focal player of every type against a
    /// **fixed** opponent composition: `opponent_counts[t]` opponents of
    /// type `t`, summing to `k − 1`. Opponent site occupancies are exact
    /// Poisson-binomial expectations through the shared [`PbCache`].
    pub fn composition_payoffs(&self, opponent_counts: &[usize]) -> Result<Vec<f64>> {
        let types = self.mixture.types();
        let k = self.ledger.ctx.k();
        if opponent_counts.len() != types.len() {
            return Err(Error::InvalidArgument(format!(
                "expected {} opponent counts, got {}",
                types.len(),
                opponent_counts.len()
            )));
        }
        let total: usize = opponent_counts.iter().sum();
        if total != k - 1 {
            return Err(Error::InvalidArgument(format!(
                "opponent counts must sum to k - 1 = {}, got {total}",
                k - 1
            )));
        }
        let opponents: Vec<&Strategy> = opponent_counts
            .iter()
            .zip(types.iter())
            .flat_map(|(&n, t)| std::iter::repeat_n(t, n))
            .collect();
        types
            .iter()
            .map(|rho| {
                self.ledger.ctx.heterogeneous_payoff_with(
                    self.ledger.f,
                    rho,
                    &opponents,
                    &self.cache,
                )
            })
            .collect()
    }
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
            // Level 0 runs on the exact DP tables: bit-identical.
            assert_eq!(fast.resident[0].to_bits(), reference.resident[0].to_bits(), "k = {k}");
            assert_eq!(fast.mutant[0].to_bits(), reference.mutant[0].to_bits(), "k = {k}");
            // Rank-updated levels: within the 1e-12 agreement contract.
            for ell in 0..k {
                assert!(
                    (fast.resident[ell] - reference.resident[ell]).abs() <= 1e-12,
                    "k = {k} resident level {ell}: {} vs {}",
                    fast.resident[ell],
                    reference.resident[ell]
                );
                assert!(
                    (fast.mutant[ell] - reference.mutant[ell]).abs() <= 1e-12,
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
            assert_eq!(evaluator.check(&pi).unwrap(), check_mutant(&ctx, &f, &sigma, &pi).unwrap());
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
    fn transfer_ledger_matches_reference_ledger_for_every_target() {
        let f = ValueProfile::zipf(5, 1.0, 1.0).unwrap();
        let k = 6;
        let ctx = PayoffContext::new(&Sharing, k).unwrap();
        let types = vec![
            sigma_star(&f, k).unwrap().strategy,
            Strategy::uniform(5).unwrap(),
            Strategy::delta(5, 1).unwrap(),
        ];
        let mix = Mixture::new(types.clone(), vec![0.5, 0.3, 0.2]).unwrap();
        let evaluator = MixtureEvaluator::new(&ctx, &f, &mix).unwrap();
        for to in 1..types.len() {
            let ledger = evaluator.transfer_ledger(to).unwrap();
            let reference = reference_ledger(&ctx, &f, &types[0], &types[to]).unwrap();
            for (row, expect) in [
                (&ledger.payoffs[0], &reference.resident),
                (&ledger.payoffs[to], &reference.mutant),
            ] {
                assert_eq!(row[0].to_bits(), expect[0].to_bits(), "to = {to}");
                for (a, b) in row.iter().zip(expect.iter()) {
                    assert!((a - b).abs() <= 1e-12, "to = {to}: {a} vs {b}");
                }
            }
        }
        assert!(evaluator.transfer_ledger(0).is_err());
        assert!(evaluator.transfer_ledger(3).is_err());
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
        match check_mutant(&ctx, &f, &star.strategy, &pi).unwrap() {
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
        match check_mutant(&ctx, &f, &star.strategy, &pi).unwrap() {
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
