//! Expected payoffs under a congestion policy (Eq. 2–3).
//!
//! The central quantity is the *congestion response*
//! `g_C(q) = E[C(1 + Bin(k−1, q))] = Σ_{j=0}^{k−1} C(j+1)·b_{j,k−1}(q)`,
//! the expected per-unit-value payoff of a player at a site where every one
//! of the other `k−1` players shows up independently with probability `q`.
//! Then `ν_p(x) = f(x)·g_C(p(x))` (the paper's value of a site), and the
//! expected payoff of playing `ρ` against a symmetric field `p` is
//! `Σ_x ρ(x)·ν_p(x)`.
//!
//! The ESS conditions need heterogeneous opponents, `E(ρ; σ^a, π^b)`:
//! the number of opponents at a site then follows a Poisson–binomial law,
//! and [`crate::ess::LedgerEvaluator`] evaluates it level by level.

use crate::error::{Error, Result};
use crate::kernel::{GTable, GridSpec};
use crate::numerics::{binomial_pmf_vector, kahan_sum};
use crate::policy::Congestion;
use crate::strategy::Strategy;
use crate::value::ValueProfile;

/// Relative tolerance for congestion-table comparisons (degeneracy and
/// monotonicity checks), keyed off the table's leading coefficient so
/// scaled policies (`C(1) ≫ 1`) classify correctly.
const REL_TOL: f64 = 1e-12;

/// Precomputed evaluation context for a `(C, k)` pair: caches the table
/// `C(1..=k)` and a batched [`GTable`] kernel so hot loops avoid both
/// virtual dispatch and per-call PMF setup.
#[derive(Debug, Clone)]
pub struct PayoffContext {
    /// The batched congestion-response kernel (owns the coefficient table
    /// `c_table[j] = C(j + 1)`).
    kernel: GTable,
    k: usize,
}

impl PayoffContext {
    /// Build a context for `k ≥ 1` players, validating the policy axioms.
    pub fn new(c: &dyn Congestion, k: usize) -> Result<Self> {
        let c_table = crate::policy::validate_congestion(c, k)?;
        Ok(Self { kernel: GTable::from_coefficients(c_table)?, k })
    }

    /// Attach (or detach) an interpolation grid per `spec` — the
    /// context-level face of [`GTable::with_spec`], sharing the single
    /// [`GridSpec`] configuration surface and its one typed tolerance
    /// validation path. With [`GridSpec::Interpolated`] at a **per-call
    /// tolerance**, solvers whose inner loops go through
    /// [`GTable::eval_fast_with`] — the IFD water-filling bisections, and
    /// everything built on them (SPoA, sweeps) — answer in `O(1)` per
    /// evaluation instead of `O(k)`, which is what makes `k ∈ [10³, 10⁶]`
    /// regime studies affordable. Without a grid those paths fall back to
    /// the exact kernel and stay bit-identical to the scalar reference;
    /// with one, results move by at most a few × `tol` ×
    /// [`GTable::scale`].
    pub fn with_spec(mut self, spec: GridSpec) -> Result<Self> {
        self.kernel = self.kernel.with_spec(spec)?;
        Ok(self)
    }

    /// Number of players `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The cached table `C(1..=k)`.
    #[inline]
    pub fn c_table(&self) -> &[f64] {
        self.kernel.coefficients()
    }

    /// The batched evaluation kernel for this `(C, k)` pair. Hot loops
    /// should pull a [`crate::kernel::GScratch`] from it and use
    /// [`GTable::eval_with`]/[`GTable::eval_many_with`] — bit-identical to
    /// [`Self::g`] with none of its per-call setup.
    #[inline]
    pub fn kernel(&self) -> &GTable {
        &self.kernel
    }

    /// Whether the policy is degenerate (constant on `[1, k]`), in which
    /// case `g_C` is constant and site values do not react to congestion.
    ///
    /// The comparison is *relative* to `C(1)`, so a scaled table (e.g.
    /// `C(1) = 10⁹`) classifies the same way as its normalized counterpart.
    pub fn is_degenerate(&self) -> bool {
        let table = self.kernel.coefficients();
        let first = table[0];
        let tol = REL_TOL * first.abs().max(1.0);
        table.iter().all(|&v| (v - first).abs() <= tol)
    }

    /// The congestion response `g_C(q) = Σ_j C(j+1)·b_{j,k−1}(q)`.
    ///
    /// `g_C(0) = C(1) = 1` and `g_C(1) = C(k)`; for a non-constant
    /// non-increasing `C` it is strictly decreasing on `[0, 1]`.
    ///
    /// `q` within `±1e-12` of `[0, 1]` is clamped (round-off from
    /// renormalizing solvers and dynamics is expected); a genuinely
    /// out-of-range or non-finite `q` is rejected with
    /// [`Error::ProbabilityOutOfRange`] **in every build profile** —
    /// release builds no longer silently evaluate drifted probabilities.
    ///
    /// This is the scalar *reference* path; batch work should go through
    /// [`Self::kernel`], which produces bit-identical values.
    pub fn g(&self, q: f64) -> Result<f64> {
        if !q.is_finite() || !(-1e-12..=1.0 + 1e-12).contains(&q) {
            return Err(Error::ProbabilityOutOfRange { q });
        }
        let q = q.clamp(0.0, 1.0);
        let pmf = binomial_pmf_vector(self.k - 1, q);
        Ok(kahan_sum(pmf.iter().zip(self.c_table().iter()).map(|(p, c)| p * c)))
    }

    /// Derivative `g_C'(q)`, via the Bernstein derivative identity
    /// `d/dq b_{j,n}(q) = n·(b_{j−1,n−1}(q) − b_{j,n−1}(q))`.
    ///
    /// Scalar reference path (clamps `q`); batch work should use
    /// [`GTable::eval_prime_with`] on [`Self::kernel`].
    pub fn g_prime(&self, q: f64) -> f64 {
        let n = self.k - 1;
        if n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let pmf = binomial_pmf_vector(n - 1, q);
        let c_table = self.c_table();
        // g'(q) = n Σ_j C(j+1) [b_{j-1,n-1} - b_{j,n-1}]
        //       = n Σ_i b_{i,n-1} (C(i+2) - C(i+1))
        let mut acc = 0.0;
        for (i, &b) in pmf.iter().enumerate() {
            acc += b * (c_table[i + 1] - c_table[i]);
        }
        n as f64 * acc
    }

    /// All site values `ν_p(·)` for a symmetric field `p`, batched into a
    /// caller-owned slice (`out.len() == f.len()`): one kernel scratch for
    /// the whole row, no per-site setup.
    pub fn site_values_into(&self, f: &ValueProfile, p: &Strategy, out: &mut [f64]) -> Result<()> {
        if f.len() != p.len() {
            return Err(Error::DimensionMismatch { strategy: p.len(), profile: f.len() });
        }
        if out.len() != f.len() {
            return Err(Error::DimensionMismatch { strategy: out.len(), profile: f.len() });
        }
        let mut scratch = self.kernel.scratch();
        self.kernel.eval_many_with(&mut scratch, p.probs(), out)?;
        for (slot, &fx) in out.iter_mut().zip(f.values().iter()) {
            *slot *= fx;
        }
        Ok(())
    }

    /// All site values `ν_p(·)` for a symmetric field `p`.
    pub fn site_values(&self, f: &ValueProfile, p: &Strategy) -> Result<Vec<f64>> {
        let mut out = vec![0.0; f.len()];
        self.site_values_into(f, p, &mut out)?;
        Ok(out)
    }

    /// Expected payoff of playing `rho` when all `k − 1` opponents play `p`:
    /// `E(ρ; p^{k−1}) = Σ_x ρ(x)·f(x)·g_C(p(x))`.
    pub fn expected_payoff(&self, f: &ValueProfile, rho: &Strategy, p: &Strategy) -> Result<f64> {
        if f.len() != rho.len() {
            return Err(Error::DimensionMismatch { strategy: rho.len(), profile: f.len() });
        }
        let nu = self.site_values(f, p)?;
        Ok(kahan_sum(rho.probs().iter().zip(nu.iter()).map(|(r, v)| r * v)))
    }

    /// Symmetric expected payoff `U(p) = E(p; p^{k−1}) = Σ_x p(x)·ν_p(x)` —
    /// the individual welfare objective of Figure 1's blue curve.
    pub fn symmetric_payoff(&self, f: &ValueProfile, p: &Strategy) -> Result<f64> {
        self.expected_payoff(f, p, p)
    }

    /// Population-mixture payoff `U[ρ; (1−ε)σ + επ]` (Eq. 3). Because the
    /// `k − 1` opponents are drawn i.i.d. from the mixed population, this
    /// equals `E(ρ; μ^{k−1})` for the mixture strategy `μ = (1−ε)σ + επ`.
    pub fn mixture_payoff(
        &self,
        f: &ValueProfile,
        rho: &Strategy,
        sigma: &Strategy,
        pi: &Strategy,
        eps: f64,
    ) -> Result<f64> {
        let mu = sigma.mix(pi, eps)?;
        self.expected_payoff(f, rho, &mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ess::ess_ledger;
    use crate::policy::{Constant, Exclusive, Sharing, TwoLevel};

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn context_validates_policy_and_k() {
        assert!(PayoffContext::new(&Exclusive, 0).is_err());
        assert!(PayoffContext::new(&Exclusive, 1).is_ok());
        assert!(PayoffContext::new(&Sharing, 5).is_ok());
    }

    #[test]
    fn g_endpoints() {
        let ctx = PayoffContext::new(&Sharing, 4).unwrap();
        close(ctx.g(0.0).unwrap(), 1.0, 1e-14); // C(1)
        close(ctx.g(1.0).unwrap(), 0.25, 1e-14); // C(4)
    }

    #[test]
    fn g_exclusive_closed_form() {
        // g_exc(q) = (1-q)^{k-1}
        let k = 6;
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        for &q in &[0.0, 0.1, 0.37, 0.9, 1.0] {
            close(ctx.g(q).unwrap(), (1.0 - q).powi(k as i32 - 1), 1e-13);
        }
    }

    #[test]
    fn g_sharing_closed_form() {
        // For sharing, E[1/(1+Bin(n,q))] = (1-(1-q)^{n+1})/((n+1) q).
        let k = 5;
        let n = k - 1;
        let ctx = PayoffContext::new(&Sharing, k).unwrap();
        for &q in &[0.1, 0.5, 0.9] {
            let expect = (1.0 - (1.0f64 - q).powi(n as i32 + 1)) / ((n as f64 + 1.0) * q);
            close(ctx.g(q).unwrap(), expect, 1e-13);
        }
    }

    #[test]
    fn g_single_player_is_always_one() {
        let ctx = PayoffContext::new(&Sharing, 1).unwrap();
        for &q in &[0.0, 0.5, 1.0] {
            close(ctx.g(q).unwrap(), 1.0, 1e-15);
        }
        close(ctx.g_prime(0.3), 0.0, 1e-15);
    }

    #[test]
    fn g_is_strictly_decreasing_for_nonconstant_policies() {
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.4 }] {
            let ctx = PayoffContext::new(c, 5).unwrap();
            let mut prev = ctx.g(0.0).unwrap();
            for i in 1..=20 {
                let q = i as f64 / 20.0;
                let cur = ctx.g(q).unwrap();
                assert!(cur < prev, "{}: g({q}) = {cur} >= {prev}", c.name());
                prev = cur;
            }
        }
    }

    #[test]
    fn degenerate_detection() {
        assert!(PayoffContext::new(&Constant, 4).unwrap().is_degenerate());
        assert!(!PayoffContext::new(&Sharing, 4).unwrap().is_degenerate());
        // Every policy is degenerate for k = 1 (only C(1) matters).
        assert!(PayoffContext::new(&Sharing, 1).unwrap().is_degenerate());
    }

    #[test]
    fn degenerate_detection_is_relative_to_scale() {
        // A scaled constant policy: C(1) = 1e9 with round-off-level wiggle
        // (relative 1e-13). The old absolute 1e-12 comparison misclassified
        // this as non-degenerate; the relative check does not.
        let scaled = |table: Vec<f64>| PayoffContext {
            k: table.len(),
            kernel: GTable::from_coefficients(table).unwrap(),
        };
        assert!(scaled(vec![1e9, 1e9 - 1e-4, 1e9 - 1e-4]).is_degenerate());
        // A genuinely decaying scaled policy stays non-degenerate.
        assert!(!scaled(vec![1e9, 0.0, 0.0]).is_degenerate());
    }

    #[test]
    fn g_rejects_out_of_range_in_all_profiles() {
        let ctx = PayoffContext::new(&Sharing, 4).unwrap();
        // Round-off within tolerance clamps to the endpoint value.
        assert_eq!(ctx.g(-1e-13).unwrap().to_bits(), ctx.g(0.0).unwrap().to_bits());
        assert_eq!(ctx.g(1.0 + 1e-13).unwrap().to_bits(), ctx.g(1.0).unwrap().to_bits());
        // Genuinely out-of-range and non-finite inputs error (this check
        // runs in release builds too — it is not a debug_assert).
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(ctx.g(bad), Err(Error::ProbabilityOutOfRange { .. })),
                "g({bad}) should be rejected"
            );
        }
    }

    #[test]
    fn site_values_into_checks_output_length() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let p = Strategy::uniform(2).unwrap();
        let ctx = PayoffContext::new(&Sharing, 2).unwrap();
        let mut too_short = vec![0.0; 1];
        assert!(ctx.site_values_into(&f, &p, &mut too_short).is_err());
        let mut out = vec![0.0; 2];
        ctx.site_values_into(&f, &p, &mut out).unwrap();
        assert_eq!(out, ctx.site_values(&f, &p).unwrap());
    }

    #[test]
    fn g_prime_matches_finite_difference() {
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.25 }] {
            let ctx = PayoffContext::new(c, 7).unwrap();
            let h = 1e-6;
            for &q in &[0.1, 0.4, 0.8] {
                let fd = (ctx.g(q + h).unwrap() - ctx.g(q - h).unwrap()) / (2.0 * h);
                close(ctx.g_prime(q), fd, 1e-6);
            }
        }
    }

    #[test]
    fn site_values_and_expected_payoff() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let p = Strategy::new(vec![0.6, 0.4]).unwrap();
        let ctx = PayoffContext::new(&Exclusive, 2).unwrap();
        let nu = ctx.site_values(&f, &p).unwrap();
        close(nu[0], 1.0 * 0.4, 1e-14);
        close(nu[1], 0.5 * 0.6, 1e-14);
        let u = ctx.symmetric_payoff(&f, &p).unwrap();
        close(u, 0.6 * 0.4 + 0.4 * 0.3, 1e-14);
    }

    #[test]
    fn heterogeneous_matches_symmetric_when_identical() {
        // The ledger's end levels face identical opponents: at level 0 all
        // k - 1 play sigma, at level k - 1 all play pi. There the
        // Poisson-binomial walk must match the symmetric GTable path.
        let f = ValueProfile::zipf(6, 1.0, 1.0).unwrap();
        let sigma = Strategy::proportional(f.values()).unwrap();
        let pi = Strategy::uniform(6).unwrap();
        let k = 4;
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.2 }] {
            let ctx = PayoffContext::new(c, k).unwrap();
            let ledger = ess_ledger(&ctx, &f, &sigma, &pi).unwrap();
            close(ledger.resident[0], ctx.symmetric_payoff(&f, &sigma).unwrap(), 1e-12);
            close(ledger.mutant[0], ctx.expected_payoff(&f, &pi, &sigma).unwrap(), 1e-12);
            close(ledger.resident[k - 1], ctx.expected_payoff(&f, &sigma, &pi).unwrap(), 1e-12);
            close(ledger.mutant[k - 1], ctx.symmetric_payoff(&f, &pi).unwrap(), 1e-12);
        }
    }

    #[test]
    fn ess_payoff_exclusive_closed_form() {
        // Under exclusive policy every ledger level has the closed form
        //   E(rho; sigma^(k-1-l), pi^l)
        //     = sum_x rho(x) f(x) (1-sigma(x))^(k-1-l) (1-pi(x))^l,
        // with rho = sigma in the resident column and rho = pi in the
        // mutant column.
        let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
        let sigma = Strategy::new(vec![0.5, 0.3, 0.2]).unwrap();
        let pi = Strategy::new(vec![0.1, 0.2, 0.7]).unwrap();
        let k = 5;
        let ctx = PayoffContext::new(&Exclusive, k).unwrap();
        let ledger = ess_ledger(&ctx, &f, &sigma, &pi).unwrap();
        let closed_form = |rho: &Strategy, l: usize| -> f64 {
            (0..3)
                .map(|x| {
                    rho.prob(x)
                        * f.value(x)
                        * (1.0 - sigma.prob(x)).powi((k - 1 - l) as i32)
                        * (1.0 - pi.prob(x)).powi(l as i32)
                })
                .sum()
        };
        for (l, (&res, &mu)) in ledger.resident.iter().zip(&ledger.mutant).enumerate() {
            close(res, closed_form(&sigma, l), 1e-13);
            close(mu, closed_form(&pi, l), 1e-13);
        }
    }

    #[test]
    fn mixture_payoff_interpolates() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let sigma = Strategy::new(vec![0.8, 0.2]).unwrap();
        let pi = Strategy::new(vec![0.2, 0.8]).unwrap();
        let rho = Strategy::uniform(2).unwrap();
        let ctx = PayoffContext::new(&Sharing, 3).unwrap();
        let at0 = ctx.mixture_payoff(&f, &rho, &sigma, &pi, 0.0).unwrap();
        let vs_sigma = ctx.expected_payoff(&f, &rho, &sigma).unwrap();
        close(at0, vs_sigma, 1e-14);
        let at1 = ctx.mixture_payoff(&f, &rho, &sigma, &pi, 1.0).unwrap();
        let vs_pi = ctx.expected_payoff(&f, &rho, &pi).unwrap();
        close(at1, vs_pi, 1e-14);
    }

    #[test]
    fn mixture_payoff_equals_binomial_mixture_of_ess_payoffs() {
        // Eq. (3): U[rho; (1-eps)sigma + eps pi]
        //   = sum_l binom(k-1, l) eps^l (1-eps)^(k-1-l) E(rho; sigma^(k-1-l), pi^l),
        // for rho = sigma (the ledger's resident column) and rho = pi (its
        // mutant column).
        let f = ValueProfile::new(vec![1.0, 0.7, 0.3]).unwrap();
        let sigma = Strategy::new(vec![0.6, 0.3, 0.1]).unwrap();
        let pi = Strategy::new(vec![0.1, 0.1, 0.8]).unwrap();
        let k = 4usize;
        let eps = 0.3;
        let ctx = PayoffContext::new(&Sharing, k).unwrap();
        let ledger = ess_ledger(&ctx, &f, &sigma, &pi).unwrap();
        for (rho, levels) in [(&sigma, &ledger.resident), (&pi, &ledger.mutant)] {
            let direct = ctx.mixture_payoff(&f, rho, &sigma, &pi, eps).unwrap();
            let series: f64 = levels
                .iter()
                .enumerate()
                .map(|(l, e)| crate::numerics::binomial_pmf(k - 1, l, eps) * e)
                .sum();
            close(direct, series, 1e-12);
        }
    }

    #[test]
    fn dimension_checks() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let p2 = Strategy::uniform(2).unwrap();
        let p3 = Strategy::uniform(3).unwrap();
        let ctx = PayoffContext::new(&Sharing, 2).unwrap();
        assert!(ctx.site_values(&f, &p3).is_err());
        assert!(ctx.expected_payoff(&f, &p3, &p2).is_err());
    }
}
