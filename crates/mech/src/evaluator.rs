//! Whole-policy evaluation: one call produces the full scorecard the
//! experiments report for a `(C, f, k)` triple, and the catalog-wide
//! congestion-response matrix evaluated as one policy-major [`GBatch`]
//! (each mechanism one row).

use crate::catalog::NamedPolicy;
use dispersal_core::coverage::coverage;
use dispersal_core::ess::probe_ess_k;
use dispersal_core::ifd::solve_ifd_allow_degenerate;
use dispersal_core::kernel::cache::{CacheStats, SharedCache};
use dispersal_core::kernel::{unit_grid, GBatch};
use dispersal_core::optimal::optimal_coverage;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::{validate_congestion, Congestion};
use dispersal_core::value::ValueProfile;
use dispersal_core::welfare::welfare_optimum;
use dispersal_core::{Error, Result};
use rand::Rng;
use std::sync::Arc;

/// A complete evaluation of one congestion policy on one instance.
#[derive(Debug, Clone)]
pub struct PolicyEvaluation {
    /// Policy name.
    pub policy: String,
    /// Player count.
    pub k: usize,
    /// Number of sites.
    pub m: usize,
    /// Coverage of the policy's symmetric equilibrium (IFD).
    pub equilibrium_coverage: f64,
    /// Coverage of the optimal symmetric strategy `p⋆`.
    pub optimal_coverage: f64,
    /// `SPoA(C, f)`.
    pub spoa: f64,
    /// Expected individual payoff at equilibrium.
    pub equilibrium_payoff: f64,
    /// Best achievable symmetric individual payoff (welfare optimum).
    pub welfare_payoff: f64,
    /// Coverage of the welfare-optimal strategy.
    pub welfare_coverage: f64,
    /// IFD support size.
    pub ifd_support: usize,
    /// Whether the IFD survived the ESS mutant probe (None if not probed).
    pub ess_passed: Option<bool>,
}

/// Evaluate policy `c` on `(f, k)`. When `ess_mutants > 0`, additionally
/// probe the equilibrium with that many random mutants (plus the structured
/// family) and record whether it resisted invasion.
pub fn evaluate_policy<R: Rng + ?Sized>(
    name: &str,
    c: &dyn Congestion,
    f: &ValueProfile,
    k: usize,
    ess_mutants: usize,
    rng: &mut R,
) -> Result<PolicyEvaluation> {
    let ifd = solve_ifd_allow_degenerate(c, f, k)?;
    let eq_cov = coverage(f, &ifd.strategy, k)?;
    let opt = optimal_coverage(f, k)?;
    let ctx = PayoffContext::new(c, k)?;
    let eq_pay = ctx.symmetric_payoff(f, &ifd.strategy)?;
    let welfare = welfare_optimum(c, f, k)?;
    let welfare_cov = coverage(f, &welfare.strategy, k)?;
    let ess_passed = if ess_mutants > 0 && k >= 2 && !ctx.is_degenerate() {
        Some(probe_ess_k(c, f, &ifd.strategy, ess_mutants, rng, k)?.passed())
    } else {
        None
    };
    Ok(PolicyEvaluation {
        policy: name.to_string(),
        k,
        m: f.len(),
        equilibrium_coverage: eq_cov,
        optimal_coverage: opt.coverage,
        spoa: opt.coverage / eq_cov,
        equilibrium_payoff: eq_pay,
        welfare_payoff: welfare.payoff,
        welfare_coverage: welfare_cov,
        ifd_support: ifd.support,
        ess_passed,
    })
}

/// Evaluate the whole standard catalog on one instance.
pub fn evaluate_catalog<R: Rng + ?Sized>(
    f: &ValueProfile,
    k: usize,
    ess_mutants: usize,
    rng: &mut R,
) -> Result<Vec<PolicyEvaluation>> {
    crate::catalog::standard_catalog()
        .iter()
        .map(|named| evaluate_policy(&named.name, named.policy.as_ref(), f, k, ess_mutants, rng))
        .collect()
}

/// A catalog of mechanisms scored on one shared congestion-response grid:
/// the output of [`catalog_response_matrix`].
#[derive(Debug, Clone)]
pub struct CatalogResponse {
    /// Catalog names, one per matrix row (same order as the input).
    pub names: Vec<String>,
    /// Player count the responses were evaluated for.
    pub k: usize,
    /// The shared uniform evaluation grid over `[0, 1]`.
    pub qs: Vec<f64>,
    /// Policy-major response matrix: `g[r · qs.len() + i] = g_{C_r}(qs[i])`.
    pub g: Vec<f64>,
    /// Congestion-tolerance score per mechanism: the trapezoid estimate of
    /// `∫₀¹ g_C(q) dq` on the grid. `1.0` = fully tolerant (constant
    /// policy), lower = more aggressive; punitive policies whose reward
    /// goes negative under congestion (e.g. `two-level:-0.5`) score below
    /// the exclusive policy's `≈ 1/k`.
    pub tolerance_score: Vec<f64>,
}

impl CatalogResponse {
    /// Mechanism `r`'s response curve (row `r` of the matrix).
    pub fn row(&self, r: usize) -> &[f64] {
        &self.g[r * self.qs.len()..(r + 1) * self.qs.len()]
    }
}

/// Evaluate every mechanism of `catalog` over the shared uniform `q`-grid
/// ([`unit_grid`]) as one fused-GEMM tile: each catalog mechanism is one
/// row of the policy-major coefficient matrix, the per-point Bernstein
/// column is computed once for the whole catalog, and a blocked GEMM
/// finishes all rows ([`GBatch::eval_grid`]; ≤ 1e-13 × the coefficient
/// scale from the per-policy exact tables). The tile is pulled from (or
/// built into) `cache`, so repeated scans of one catalog at one `k` pay
/// the tile construction once; the key is the full coefficient
/// fingerprint, so a warm and a fresh cache give the same bits. The
/// summary [`CatalogResponse::tolerance_score`] ranks mechanisms by how
/// gracefully their reward degrades with congestion.
pub fn catalog_response_matrix(
    catalog: &[NamedPolicy],
    k: usize,
    resolution: usize,
    cache: &ResponseCache,
) -> Result<CatalogResponse> {
    let qs = unit_grid(resolution)?;
    let g = cache.batch(catalog, k)?.eval_grid(&qs);
    let h = 1.0 / resolution as f64;
    let tolerance_score = (0..catalog.len())
        .map(|r| {
            let row = &g[r * qs.len()..(r + 1) * qs.len()];
            let interior: f64 = row[1..resolution].iter().sum();
            h * (0.5 * (row[0] + row[resolution]) + interior)
        })
        .collect();
    Ok(CatalogResponse {
        names: catalog.iter().map(|n| n.name.clone()).collect(),
        k,
        qs,
        g,
        tolerance_score,
    })
}

/// Memoized policy-major [`GBatch`] tiles for catalog scoring, keyed by
/// the full coefficient fingerprint of the catalog at a given `k` — two
/// catalogs whose mechanisms produce the same coefficient rows in the
/// same order share one tile, whatever their names.
///
/// Built on [`SharedCache`], so one `ResponseCache` serves concurrent
/// scans (the serve daemon holds one across all requests): lookups take
/// `&self`, the tile is `Arc`-shared, concurrent scans of the same
/// catalog build it once, and the cache is size-bounded
/// ([`RESPONSE_CACHE_CAPACITY`] tiles) with deterministic LRU eviction.
#[derive(Debug)]
pub struct ResponseCache {
    inner: SharedCache<(Vec<u64>, usize), GBatch>,
}

/// Resident bound for [`ResponseCache`]: distinct `(catalog, k)`
/// tiles kept warm. Catalog scans sweep a handful of player counts over
/// one catalog; 64 tiles is an order of magnitude of headroom while
/// keeping a daemon's footprint bounded.
pub const RESPONSE_CACHE_CAPACITY: usize = 64;

impl Default for ResponseCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        ResponseCache { inner: SharedCache::new(RESPONSE_CACHE_CAPACITY) }
    }

    /// The policy-major tile for `(catalog, k)`, built on first use.
    /// Validation (congestion axioms per mechanism) runs on every call —
    /// it is what produces the key — but the tile construction itself is
    /// paid once per residency.
    pub fn batch(&self, catalog: &[NamedPolicy], k: usize) -> Result<Arc<GBatch>> {
        if catalog.is_empty() {
            return Err(Error::InvalidArgument(
                "catalog response needs at least one mechanism".into(),
            ));
        }
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(catalog.len());
        let mut key = Vec::with_capacity(catalog.len() * k);
        for named in catalog {
            let coeffs = validate_congestion(named.policy.as_ref(), k)?;
            key.extend(coeffs.iter().map(|v| v.to_bits()));
            rows.push(coeffs);
        }
        self.inner.get_or_try_insert_with((key, k), || GBatch::from_rows(rows))
    }

    /// Uniform hit/miss/eviction snapshot ([`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::policy::{Exclusive, Sharing};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exclusive_evaluation_has_unit_spoa_and_passes_ess() {
        let f = ValueProfile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let eval = evaluate_policy("exclusive", &Exclusive, &f, 3, 20, &mut rng).unwrap();
        assert!((eval.spoa - 1.0).abs() < 1e-7);
        assert_eq!(eval.ess_passed, Some(true));
        assert_eq!(eval.m, 3);
        assert_eq!(eval.k, 3);
        assert!(eval.welfare_payoff >= eval.equilibrium_payoff - 1e-9);
    }

    #[test]
    fn sharing_evaluation_spoa_above_one_on_witness() {
        let k = 3;
        let f = ValueProfile::slow_decay_witness(4 * k, k).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let eval = evaluate_policy("sharing", &Sharing, &f, k, 0, &mut rng).unwrap();
        assert!(eval.spoa > 1.0 + 1e-6, "spoa = {}", eval.spoa);
        assert_eq!(eval.ess_passed, None);
    }

    #[test]
    fn catalog_response_matrix_matches_per_policy_scalar_path() {
        let catalog = crate::catalog::standard_catalog();
        let k = 8;
        let response = catalog_response_matrix(&catalog, k, 128, &ResponseCache::new()).unwrap();
        assert_eq!(response.names.len(), catalog.len());
        assert_eq!(response.qs.len(), 129);
        assert_eq!(response.g.len(), catalog.len() * 129);
        for (r, named) in catalog.iter().enumerate() {
            assert_eq!(response.names[r], named.name);
            let ctx = PayoffContext::new(named.policy.as_ref(), k).unwrap();
            for (&q, &g) in response.qs.iter().zip(response.row(r).iter()) {
                let scalar = ctx.g(q).unwrap();
                assert!(
                    (g - scalar).abs() <= 1e-13,
                    "{} q={q}: batch {g} vs scalar {scalar}",
                    named.name
                );
            }
        }
    }

    #[test]
    fn tolerance_score_ranks_constant_top_and_exclusive_bottom() {
        let catalog = crate::catalog::standard_catalog();
        let response = catalog_response_matrix(&catalog, 6, 256, &ResponseCache::new()).unwrap();
        let score = |name: &str| {
            let r = response.names.iter().position(|n| n == name).unwrap();
            response.tolerance_score[r]
        };
        assert!((score("constant") - 1.0).abs() < 1e-12, "constant integrates to 1");
        for (name, &s) in response.names.iter().zip(response.tolerance_score.iter()) {
            assert!(s <= 1.0 + 1e-12, "score of {name} exceeds the constant policy");
        }
        // Tolerance orders the reward-sharing spectrum: punitive two-level
        // (negative reward under congestion) below exclusive, exclusive
        // below sharing, sharing below constant.
        assert!(score("two-level:-0.5") < score("exclusive"));
        assert!(score("exclusive") < score("sharing"));
        assert!(score("sharing") < score("constant"));
        // Degenerate inputs are typed errors.
        let cache = ResponseCache::new();
        assert!(catalog_response_matrix(&[], 6, 32, &cache).is_err());
        assert!(catalog_response_matrix(&catalog, 6, 0, &cache).is_err());
        assert!(catalog_response_matrix(&catalog, 0, 32, &cache).is_err());
    }

    #[test]
    fn cached_catalog_response_is_bit_identical_and_warm() {
        let catalog = crate::catalog::standard_catalog();
        let cache = ResponseCache::new();
        let cold = catalog_response_matrix(&catalog, 8, 64, &ResponseCache::new()).unwrap();
        let first = catalog_response_matrix(&catalog, 8, 64, &cache).unwrap();
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 0));
        // Repeat scans — any resolution — reuse the warm tile; a new k
        // builds a second one.
        let warm = catalog_response_matrix(&catalog, 8, 64, &cache).unwrap();
        assert_eq!(cache.stats().misses, 1, "repeat scan must hit the warm tile");
        assert_eq!(cache.stats().hits, 1);
        for scan in [&first, &warm] {
            for (a, b) in cold.g.iter().zip(scan.g.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cached tile changed response bits");
            }
            for (a, b) in cold.tolerance_score.iter().zip(scan.tolerance_score.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let again = catalog_response_matrix(&catalog, 8, 256, &cache).unwrap();
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 2));
        assert_eq!(again.qs.len(), 257);
        catalog_response_matrix(&catalog, 12, 64, &cache).unwrap();
        assert_eq!((cache.stats().misses, cache.stats().entries), (2, 2));
        // Degenerate inputs stay typed errors through a warm cache, and a
        // bad resolution is refused before the cache is consulted.
        assert!(catalog_response_matrix(&[], 8, 64, &cache).is_err());
        assert!(catalog_response_matrix(&catalog, 8, 0, &cache).is_err());
        assert!(catalog_response_matrix(&catalog, 0, 64, &cache).is_err());
        assert_eq!((cache.stats().misses, cache.stats().hits), (2, 2));
        let line = format!("{}", cache.stats());
        assert!(line.contains("hits 2"), "{line}");
    }

    #[test]
    fn catalog_evaluation_runs() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.3]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let evals = evaluate_catalog(&f, 2, 0, &mut rng).unwrap();
        assert!(evals.len() >= 10);
        // Exclusive should have the (weakly) best SPoA in the catalog.
        let excl = evals.iter().find(|e| e.policy == "exclusive").unwrap();
        for e in &evals {
            assert!(
                excl.spoa <= e.spoa + 1e-7,
                "{} beats exclusive: {} < {}",
                e.policy,
                e.spoa,
                excl.spoa
            );
        }
    }
}
