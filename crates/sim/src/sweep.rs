//! Parallel parameter sweeps: evaluate a closure over a grid of
//! `(instance, k)` cells, preserving deterministic per-cell RNG streams.
//! A thin grid-construction layer over [`crate::engine::par_map_seeded`].

use crate::engine;
use dispersal_core::kernel::cache::{CacheStats, SharedCache};
use dispersal_core::kernel::{GBatch, GTable, GridSpec};
use dispersal_core::policy::{validate_congestion, Congestion};
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One cell of a sweep grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell<T> {
    /// Label of the instance (e.g. "zipf(1.0) M=50").
    pub instance: String,
    /// Player count.
    pub k: usize,
    /// The evaluated payload.
    pub output: T,
}

/// Evaluate `eval(f, k, rng)` over the cross product of `instances × ks`,
/// in parallel, with one deterministic RNG stream per cell.
pub fn sweep_grid<T, F>(
    instances: &[(String, ValueProfile)],
    ks: &[usize],
    seed: u64,
    eval: F,
) -> Result<Vec<SweepCell<T>>>
where
    T: Send,
    F: Fn(&ValueProfile, usize, &mut ChaCha8Rng) -> Result<T> + Sync,
{
    if instances.is_empty() || ks.is_empty() {
        return Err(Error::InvalidArgument("sweep grid must be non-empty".into()));
    }
    let cells: Vec<(&String, &ValueProfile, usize)> =
        instances.iter().flat_map(|(name, f)| ks.iter().map(move |&k| (name, f, k))).collect();
    engine::par_map_seeded(cells, seed, |(name, f, k), rng| {
        let output = eval(f, k, rng)?;
        Ok(SweepCell { instance: name.clone(), k, output })
    })
}

/// Validation + grid construction for [`ResponseRequest::evaluate`]:
/// rejects an empty `ks` or a zero `resolution`, and returns the uniform
/// `resolution + 1`-point evaluation grid over `[0, 1]`.
fn response_qs(ks: &[usize], resolution: usize) -> Result<Vec<f64>> {
    if ks.is_empty() {
        return Err(Error::InvalidArgument("response grid needs at least one k".into()));
    }
    if resolution == 0 {
        return Err(Error::InvalidArgument("response grid resolution must be >= 1".into()));
    }
    Ok((0..=resolution).map(|i| i as f64 / resolution as f64).collect())
}

/// One `(policy, k)` curve from [`ResponseRequest::evaluate`]:
/// `g[i] = g_C(qs[i])`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyCurve {
    /// Policy name (from [`Congestion::name`]).
    pub policy: String,
    /// Player count the curve was evaluated for.
    pub k: usize,
    /// The uniform evaluation grid over `[0, 1]`.
    pub qs: Vec<f64>,
    /// The congestion response at each grid point.
    pub g: Vec<f64>,
}

/// Memoized interpolation grids for the sweep layer, keyed by the
/// `(policy, k)` fingerprint (the congestion coefficient table, which
/// determines both) plus the requested tolerance.
///
/// Building a [`GridSpec::Interpolated`] grid is the expensive part of an
/// interpolated sweep — refinement evaluates the exact `O(k)` kernel at
/// every node until the measured midpoint error meets the bound. Sweeps
/// that revisit the same `(policy, k)` cell (ε-grids, resolution scans,
/// repeated plotting calls) should hold one `SharedGridCache` so the grid
/// is built once and shared as an [`Arc`]; the tolerance is per-call —
/// plotting sweeps typically pass `1e-9` (cheap, coarse grids),
/// verification sweeps `1e-12` — and each distinct tolerance memoizes its
/// own entry. Non-finite or non-positive tolerances are rejected with
/// [`dispersal_core::Error::InvalidTolerance`] (propagated from
/// [`GTable::with_spec`]).
///
/// Rebased on [`SharedCache`]: lookups take `&self`, so one cache is
/// shared *by reference* across engine worker threads (sweep workers
/// fetch their own grids concurrently) and across the requests of a
/// long-lived daemon. Concurrent lookups of the same cell coordinate
/// through a shard lock — the grid refinement runs at most once per
/// residency — and the cache is size-bounded ([`GRID_CACHE_CAPACITY`]
/// grids) with deterministic LRU eviction. Sharing and eviction change
/// only *allocation*: a rebuilt cell reproduces the identical grid bits,
/// so every evaluated curve is independent of who warmed the cache and in
/// what order.
#[derive(Debug)]
pub struct SharedGridCache {
    inner: SharedCache<(Vec<u64>, u64), GTable>,
}

/// Resident bound for [`SharedGridCache`]: distinct `(policy, k, tol)`
/// grids kept warm before least-recently-used grids are evicted. The full
/// mechanism catalog at a handful of player counts and tolerances stays
/// well inside 256 while bounding the footprint of a daemon that sees
/// adversarial key diversity.
pub const GRID_CACHE_CAPACITY: usize = 256;

impl Default for SharedGridCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedGridCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        SharedGridCache { inner: SharedCache::new(GRID_CACHE_CAPACITY) }
    }

    /// The gridded table for `(c, k)` at interpolation tolerance `tol`,
    /// memoized per `(coefficients, tol)` cell. Returned as an [`Arc`] so
    /// parallel sweep workers can share one instance without cloning the
    /// grid; concurrent callers of the same cell block on its shard until
    /// the single build finishes.
    pub fn table(&self, c: &dyn Congestion, k: usize, tol: f64) -> Result<Arc<GTable>> {
        let coeffs = validate_congestion(c, k)?;
        let key = (coeffs.iter().map(|v| v.to_bits()).collect(), tol.to_bits());
        self.inner.get_or_try_insert_with(key, || {
            GTable::from_coefficients(coeffs)?.with_spec(GridSpec::Interpolated { tol })
        })
    }

    /// Uniform hit/miss/eviction snapshot ([`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// The response-evaluation request — the **single** entry point for
/// evaluating congestion responses over a `q`-grid. Build one with
/// [`ResponseRequest::new`] (single policy) or
/// [`ResponseRequest::policies`] (a batch), chain the knobs, and call
/// [`ResponseRequest::evaluate`]:
///
/// ```
/// use dispersal_core::kernel::GridSpec;
/// use dispersal_core::policy::{Exclusive, Sharing, Congestion};
/// use dispersal_sim::sweep::{ResponseRequest, SharedGridCache};
///
/// // Exact reference curve for one policy (bit-identical to the scalar
/// // reference path):
/// let curves = ResponseRequest::new(&Sharing).ks(&[8, 64]).resolution(128).evaluate()?;
/// assert_eq!(curves.len(), 2);
///
/// // A policy batch over memoized interpolation grids:
/// let cache = SharedGridCache::new();
/// let policies: Vec<&dyn Congestion> = vec![&Exclusive, &Sharing];
/// let batch = ResponseRequest::policies(&policies)
///     .ks(&[64])
///     .resolution(128)
///     .grid(GridSpec::Interpolated { tol: 1e-9 })
///     .cache(&cache)
///     .evaluate()?;
/// assert_eq!(batch.len(), 2);
/// # Ok::<(), dispersal_core::Error>(())
/// ```
///
/// Evaluation-mode contract (all outputs are k-major, policies in input
/// order within each `k`, and deterministic at any thread count):
///
/// * [`GridSpec::Exact`] + reference mode (the default for a single
///   policy, forced with [`ResponseRequest::reference`]) — per-`k`
///   [`GBatch`] reference tiles; every curve is **bit-identical** to the
///   per-point scalar `g`.
/// * [`GridSpec::Exact`] + fused mode (the default for a multi-policy
///   batch, forced with [`ResponseRequest::fused`]) — one fused-GEMM
///   [`GBatch`] tile per `k`: ≤ 1e-13 × scale from the reference, shared
///   Bernstein column per point.
/// * [`GridSpec::Interpolated`] — `O(1)` per-point grids pulled from the
///   supplied [`SharedGridCache`] (or a private per-call cache when none
///   is given); the cache never changes the bits.
#[derive(Clone, Copy)]
pub struct ResponseRequest<'a> {
    policies: &'a [&'a dyn Congestion],
    single: Option<&'a dyn Congestion>,
    ks: &'a [usize],
    resolution: usize,
    grid: GridSpec,
    cache: Option<&'a SharedGridCache>,
    /// `None` = decide by arity (single policy → reference, batch →
    /// fused); `Some(true)` = reference; `Some(false)` = fused.
    reference: Option<bool>,
}

/// Default evaluation resolution (`resolution + 1` grid points) when the
/// caller does not set one — matches the serving layer's default tile.
pub const DEFAULT_RESPONSE_RESOLUTION: usize = 256;

impl<'a> ResponseRequest<'a> {
    /// A request for one policy's response curves.
    pub fn new(c: &'a dyn Congestion) -> Self {
        Self {
            policies: &[],
            single: Some(c),
            ks: &[],
            resolution: DEFAULT_RESPONSE_RESOLUTION,
            grid: GridSpec::Exact,
            cache: None,
            reference: None,
        }
    }

    /// A request for a batch of policies sharing one evaluation grid.
    pub fn policies(policies: &'a [&'a dyn Congestion]) -> Self {
        Self {
            policies,
            single: None,
            ks: &[],
            resolution: DEFAULT_RESPONSE_RESOLUTION,
            grid: GridSpec::Exact,
            cache: None,
            reference: None,
        }
    }

    /// The player counts to evaluate (one k-tile per entry).
    pub fn ks(mut self, ks: &'a [usize]) -> Self {
        self.ks = ks;
        self
    }

    /// Evaluation-grid resolution (`resolution + 1` uniform points over
    /// `[0, 1]`; default [`DEFAULT_RESPONSE_RESOLUTION`]).
    pub fn resolution(mut self, resolution: usize) -> Self {
        self.resolution = resolution;
        self
    }

    /// Grid configuration (default [`GridSpec::Exact`]).
    pub fn grid(mut self, spec: GridSpec) -> Self {
        self.grid = spec;
        self
    }

    /// Memoize interpolation grids in `cache` (shared across requests and
    /// worker threads). Without this, interpolated requests build into a
    /// private per-call cache — same bits, no reuse across calls.
    pub fn cache(mut self, cache: &'a SharedGridCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Force the bit-identical reference mode for [`GridSpec::Exact`]
    /// requests, regardless of batch size (the serving layer's exact
    /// tiles require per-row bit-identity whatever the group
    /// composition).
    pub fn reference(mut self) -> Self {
        self.reference = Some(true);
        self
    }

    /// Force the fused-GEMM mode for [`GridSpec::Exact`] requests,
    /// regardless of batch size (throughput over bit-identity).
    pub fn fused(mut self) -> Self {
        self.reference = Some(false);
        self
    }

    /// The policy list this request evaluates (single-policy requests are
    /// a one-element batch).
    fn policy_slice(&self) -> Vec<&'a dyn Congestion> {
        match self.single {
            Some(c) => vec![c],
            None => self.policies.to_vec(),
        }
    }

    /// Run the request. Output is k-major: all policies (input order) of
    /// `ks[0]`, then `ks[1]`, … — one [`PolicyCurve`] per
    /// `(k, policy)` cell.
    pub fn evaluate(&self) -> Result<Vec<PolicyCurve>> {
        let policies = self.policy_slice();
        if policies.is_empty() {
            return Err(Error::InvalidArgument(
                "batched response grid needs at least one policy".into(),
            ));
        }
        let qs = response_qs(self.ks, self.resolution)?;
        match self.grid {
            GridSpec::Exact => {
                let reference = self.reference.unwrap_or(policies.len() == 1);
                let tiles = engine::par_map(self.ks.to_vec(), |k| {
                    let batch = GBatch::new(&policies, k)?;
                    let mut scratch = batch.scratch();
                    let mut g = vec![0.0; batch.rows() * qs.len()];
                    if reference {
                        batch.eval_many_with(&mut scratch, &qs, &mut g)?;
                    } else {
                        batch.eval_fused_many_into(&mut scratch, &qs, &mut g)?;
                    }
                    let curves: Vec<PolicyCurve> = policies
                        .iter()
                        .enumerate()
                        .map(|(r, c)| PolicyCurve {
                            policy: c.name(),
                            k,
                            qs: qs.clone(),
                            g: g[r * qs.len()..(r + 1) * qs.len()].to_vec(),
                        })
                        .collect();
                    Ok(curves)
                })?;
                Ok(tiles.into_iter().flatten().collect())
            }
            GridSpec::Interpolated { tol } => {
                // Validate every cell up front so a bad tolerance or
                // degenerate policy fails before any worker runs, then
                // fan the whole k-major grid of (policy, k) cells out at
                // once — builds and evaluation both run on the pool, with
                // duplicate cells coordinated by the cache's shard locks
                // so each grid is refined at most once.
                for c in &policies {
                    validate_congestion(*c, self.ks[0])?;
                }
                self.grid.validate()?;
                let owned;
                let cache = match self.cache {
                    Some(shared) => shared,
                    None => {
                        owned = SharedGridCache::new();
                        &owned
                    }
                };
                let mut cells: Vec<(usize, &dyn Congestion)> =
                    Vec::with_capacity(policies.len() * self.ks.len());
                for &k in self.ks {
                    for c in &policies {
                        cells.push((k, *c));
                    }
                }
                engine::par_map(cells, |(k, c)| {
                    let table = cache.table(c, k, tol)?;
                    let mut scratch = table.scratch();
                    let mut g = vec![0.0; qs.len()];
                    table.eval_fast_many_with(&mut scratch, &qs, &mut g)?;
                    Ok(PolicyCurve { policy: c.name(), k, qs: qs.clone(), g })
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::optimal::optimal_coverage;
    use dispersal_core::payoff::PayoffContext;
    use dispersal_core::policy::{Exclusive, PowerLaw, Sharing, TwoLevel};

    fn instances() -> Vec<(String, ValueProfile)> {
        vec![
            ("zipf".into(), ValueProfile::zipf(10, 1.0, 1.0).unwrap()),
            ("geometric".into(), ValueProfile::geometric(8, 1.0, 0.7).unwrap()),
        ]
    }

    #[test]
    fn grid_has_full_cross_product() {
        let cells =
            sweep_grid(&instances(), &[2, 4, 8], 1, |f, k, _| Ok(optimal_coverage(f, k)?.coverage))
                .unwrap();
        assert_eq!(cells.len(), 6);
        // Coverage grows with k within each instance.
        for name in ["zipf", "geometric"] {
            let series: Vec<f64> =
                cells.iter().filter(|c| c.instance == name).map(|c| c.output).collect();
            assert_eq!(series.len(), 3);
            assert!(series[0] < series[1] && series[1] < series[2]);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use rand::Rng;
        let a = sweep_grid(&instances(), &[2, 3], 9, |_, _, rng| Ok(rng.gen::<u64>())).unwrap();
        let b = sweep_grid(&instances(), &[2, 3], 9, |_, _, rng| Ok(rng.gen::<u64>())).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.output, y.output);
        }
        // Different seeds give different streams.
        let c = sweep_grid(&instances(), &[2, 3], 10, |_, _, rng| Ok(rng.gen::<u64>())).unwrap();
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x.output != y.output));
    }

    #[test]
    fn empty_grid_rejected() {
        let cells: Result<Vec<SweepCell<f64>>> = sweep_grid(&[], &[2], 1, |_, _, _| Ok(0.0));
        assert!(cells.is_err());
        let cells: Result<Vec<SweepCell<f64>>> =
            sweep_grid(&instances(), &[], 1, |_, _, _| Ok(0.0));
        assert!(cells.is_err());
    }

    /// One policy's exact curves (reference mode, the single-policy
    /// default).
    fn exact(c: &dyn Congestion, ks: &[usize], resolution: usize) -> Result<Vec<PolicyCurve>> {
        ResponseRequest::new(c).ks(ks).resolution(resolution).evaluate()
    }

    /// One policy's interpolated curves through `cache`.
    fn interpolated(
        c: &dyn Congestion,
        ks: &[usize],
        resolution: usize,
        tol: f64,
        cache: &SharedGridCache,
    ) -> Result<Vec<PolicyCurve>> {
        ResponseRequest::new(c)
            .ks(ks)
            .resolution(resolution)
            .grid(GridSpec::Interpolated { tol })
            .cache(cache)
            .evaluate()
    }

    /// A policy batch's interpolated curves through `cache`.
    fn interpolated_batch(
        policies: &[&dyn Congestion],
        ks: &[usize],
        resolution: usize,
        tol: f64,
        cache: &SharedGridCache,
    ) -> Result<Vec<PolicyCurve>> {
        ResponseRequest::policies(policies)
            .ks(ks)
            .resolution(resolution)
            .grid(GridSpec::Interpolated { tol })
            .cache(cache)
            .evaluate()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn response_grid_matches_scalar_reference() {
        let curves = exact(&Sharing, &[2, 8, 33], 64).unwrap();
        assert_eq!(curves.len(), 3);
        for curve in &curves {
            assert_eq!(curve.qs.len(), 65);
            let ctx = PayoffContext::new(&Sharing, curve.k).unwrap();
            for (&q, &g) in curve.qs.iter().zip(curve.g.iter()) {
                assert_eq!(g.to_bits(), ctx.g(q).unwrap().to_bits(), "k = {} q = {q}", curve.k);
            }
        }
    }

    #[test]
    fn response_grid_validates() {
        assert!(exact(&Sharing, &[], 10).is_err());
        assert!(exact(&Sharing, &[2], 0).is_err());
        assert!(exact(&Sharing, &[0], 10).is_err());
    }

    #[test]
    fn grid_cache_reuses_memoized_tables_across_sweep_calls() {
        let cache = SharedGridCache::new();
        let ks = [4usize, 16];
        let a = interpolated(&Sharing, &ks, 32, 1e-9, &cache).unwrap();
        assert_eq!((cache.stats().misses, cache.stats().hits), (2, 0));
        // Second sweep over the same cells: zero new builds, all hits.
        let b = interpolated(&Sharing, &ks, 64, 1e-9, &cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "memoized grids must be reused");
        assert_eq!((stats.hits, stats.entries), (2, 2));
        // Pointer check: the cache hands back the *same* Arc, not a rebuild.
        let first = cache.table(&Sharing, 4, 1e-9).unwrap();
        let second = cache.table(&Sharing, 4, 1e-9).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same (policy, k, tol) must share one grid");
        // Interpolated values agree across resolutions at shared points.
        for (ca, cb) in a.iter().zip(b.iter()) {
            assert_eq!(ca.g[0].to_bits(), cb.g[0].to_bits());
            assert_eq!(ca.g.last().unwrap().to_bits(), cb.g.last().unwrap().to_bits());
        }
    }

    #[test]
    fn grid_cache_tolerance_is_per_call() {
        let cache = SharedGridCache::new();
        let fine = cache.table(&Sharing, 16, 1e-12).unwrap();
        let coarse = cache.table(&Sharing, 16, 1e-6).unwrap();
        // Distinct tolerances memoize distinct grids; the coarse one is
        // genuinely cheaper (fewer cells).
        assert!(!Arc::ptr_eq(&fine, &coarse));
        assert_eq!(cache.stats().misses, 2);
        assert!(coarse.grid_cells() <= fine.grid_cells());
        assert!(fine.grid_error().unwrap() <= 1e-12 * fine.scale());
        // Bad tolerances are rejected with the typed error.
        for bad in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    cache.table(&Sharing, 16, bad),
                    Err(dispersal_core::Error::InvalidTolerance { .. })
                ),
                "tol = {bad} must be rejected"
            );
        }
        assert!(matches!(
            interpolated(&Sharing, &[4], 8, -1.0, &cache),
            Err(dispersal_core::Error::InvalidTolerance { .. })
        ));
    }

    #[test]
    fn interpolated_response_grid_tracks_exact_curves() {
        let cache = SharedGridCache::new();
        let ks = [2usize, 8, 33];
        let tol = 1e-9;
        let interp = interpolated(&Sharing, &ks, 64, tol, &cache).unwrap();
        let exact = exact(&Sharing, &ks, 64).unwrap();
        for (ci, ce) in interp.iter().zip(exact.iter()) {
            assert_eq!(ci.k, ce.k);
            let scale = cache.table(&Sharing, ci.k, tol).unwrap().scale();
            for (&gi, &ge) in ci.g.iter().zip(ce.g.iter()) {
                assert!(
                    (gi - ge).abs() <= 4.0 * tol * scale,
                    "k = {}: interp {gi} vs exact {ge}",
                    ci.k
                );
            }
        }
        assert!(interpolated(&Sharing, &[], 8, tol, &cache).is_err());
        assert!(interpolated(&Sharing, &[2], 0, tol, &cache).is_err());
    }

    #[test]
    fn batched_response_grid_matches_per_policy_reference() {
        let policies: Vec<&dyn Congestion> =
            vec![&Exclusive, &Sharing, &TwoLevel { c: -0.4 }, &PowerLaw { beta: 2.0 }];
        let ks = [2usize, 8, 33];
        fn batch(
            policies: &[&dyn Congestion],
            ks: &[usize],
            resolution: usize,
        ) -> Result<Vec<PolicyCurve>> {
            ResponseRequest::policies(policies).ks(ks).resolution(resolution).evaluate()
        }
        let curves = batch(&policies, &ks, 64).unwrap();
        assert_eq!(curves.len(), policies.len() * ks.len());
        // Output is k-major with rows in policy order; every curve matches
        // the per-policy exact table within the fused-GEMM contract.
        for (t, &k) in ks.iter().enumerate() {
            for (r, c) in policies.iter().enumerate() {
                let curve = &curves[t * policies.len() + r];
                assert_eq!(curve.k, k);
                assert_eq!(curve.policy, c.name());
                let table = GTable::new(*c, k).unwrap();
                let mut scratch = table.scratch();
                let tol = 1e-13 * table.scale();
                for (&q, &g) in curve.qs.iter().zip(curve.g.iter()) {
                    let exact = table.eval_with(&mut scratch, q);
                    assert!(
                        (g - exact).abs() <= tol,
                        "{} k={k} q={q}: batch {g} vs exact {exact}",
                        curve.policy
                    );
                }
            }
        }
        assert!(batch(&[], &ks, 64).is_err());
        assert!(batch(&policies, &[], 64).is_err());
        assert!(batch(&policies, &ks, 0).is_err());
    }

    #[test]
    fn grid_cache_is_shared_between_batch_and_single_policy_paths() {
        let cache = SharedGridCache::new();
        let policies: Vec<&dyn Congestion> = vec![&Sharing, &Exclusive];
        let ks = [4usize, 16];
        let tol = 1e-9;
        let batched = interpolated_batch(&policies, &ks, 32, tol, &cache).unwrap();
        assert_eq!(batched.len(), 4);
        assert_eq!(cache.stats().misses, 4, "one grid per (policy, k) cell");
        assert_eq!(cache.stats().hits, 0);
        // Pin the Arc the batch path populated, then re-sweep: the second
        // batched sweep must reuse every memoized grid (pure hits)...
        let pinned = cache.table(&Sharing, 4, tol).unwrap();
        assert_eq!(cache.stats().hits, 1);
        interpolated_batch(&policies, &ks, 64, tol, &cache).unwrap();
        assert_eq!((cache.stats().misses, cache.stats().hits), (4, 5));
        // ...and a single-policy request for the same (policy, k, tol)
        // cells is served from the same entries.
        let single = interpolated(&Sharing, &ks, 32, tol, &cache).unwrap();
        assert_eq!(cache.stats().misses, 4, "single-policy path must not rebuild batch grids");
        assert_eq!(cache.stats().hits, 7);
        assert!(Arc::ptr_eq(&pinned, &cache.table(&Sharing, 4, tol).unwrap()));
        // Same Arc'd grid on both paths => bit-identical curves.
        let sharing_k4 = &batched[0];
        assert_eq!((sharing_k4.policy.as_str(), sharing_k4.k), ("sharing", 4));
        assert_eq!(bits(&sharing_k4.g), bits(&single[0].g));
        // Bad tolerances propagate as the typed error through the batch
        // path, exactly like the single-policy one.
        for bad in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                interpolated_batch(&policies, &ks, 8, bad, &cache),
                Err(dispersal_core::Error::InvalidTolerance { .. })
            ));
        }
        assert!(interpolated_batch(&[], &ks, 8, tol, &cache).is_err());
        assert!(interpolated_batch(&policies, &[], 8, tol, &cache).is_err());
        assert!(interpolated_batch(&policies, &ks, 0, tol, &cache).is_err());
    }

    /// Every evaluation mode of [`ResponseRequest`] is bit-identical to the
    /// kernel call it wraps, and interpolated curves do not depend on
    /// whether a shared or a private cache built their grids. (CI's
    /// thread-matrix job repeats the whole suite at
    /// `RAYON_NUM_THREADS ∈ {1, 4}`; together with the serial run this
    /// pins the contract across thread counts.)
    #[test]
    fn unified_request_modes_are_bit_identical_to_direct_kernel_calls() {
        let policies: Vec<&dyn Congestion> =
            vec![&Exclusive, &Sharing, &TwoLevel { c: -0.4 }, &PowerLaw { beta: 2.0 }];
        let ks = [2usize, 8, 33];
        let resolution = 64;
        let grid = GridSpec::Interpolated { tol: 1e-9 };
        let request = ResponseRequest::policies(&policies).ks(&ks).resolution(resolution);
        let reference = request.reference().evaluate().unwrap();
        let fused = request.fused().evaluate().unwrap();
        let cache = SharedGridCache::new();
        let shared = request.grid(grid).cache(&cache).evaluate().unwrap();
        let private = request.grid(grid).evaluate().unwrap();
        let qs: Vec<f64> = (0..=resolution).map(|i| i as f64 / resolution as f64).collect();
        let n = qs.len();
        for (t, &k) in ks.iter().enumerate() {
            let batch = GBatch::new(&policies, k).unwrap();
            let mut want_reference = vec![0.0; policies.len() * n];
            batch.eval_many_with(&mut batch.scratch(), &qs, &mut want_reference).unwrap();
            let want_fused = batch.eval_grid(&qs);
            for (r, c) in policies.iter().enumerate() {
                let cell = t * policies.len() + r;
                assert_eq!((reference[cell].k, &reference[cell].policy), (k, &c.name()));
                assert_eq!(bits(&reference[cell].g), bits(&want_reference[r * n..(r + 1) * n]));
                assert_eq!(bits(&fused[cell].g), bits(&want_fused[r * n..(r + 1) * n]));
                let table = GTable::new(*c, k).unwrap().with_spec(grid).unwrap();
                let mut want = vec![0.0; n];
                table.eval_fast_many_with(&mut table.scratch(), &qs, &mut want).unwrap();
                assert_eq!(bits(&shared[cell].g), bits(&want), "shared cache k={k} row {r}");
                assert_eq!(bits(&private[cell].g), bits(&want), "private cache k={k} row {r}");
            }
        }
    }

    #[test]
    fn unified_request_reference_mode_matches_exact_tile_rows_in_any_company() {
        // A multi-policy exact request in forced reference mode must give
        // each policy the same bits it gets alone — the serving layer's
        // per-row bit-identity contract.
        let policies: Vec<&dyn Congestion> =
            vec![&Sharing, &TwoLevel { c: -0.3 }, &PowerLaw { beta: 2.0 }];
        let grouped = ResponseRequest::policies(&policies)
            .ks(&[16])
            .resolution(64)
            .reference()
            .evaluate()
            .unwrap();
        for (r, c) in policies.iter().enumerate() {
            let alone = exact(*c, &[16], 64).unwrap();
            assert_eq!(bits(&grouped[r].g), bits(&alone[0].g), "row {r} diverged under batching");
        }
        // And forced fused mode on a single policy is the one-row GEMM tile.
        let fused_single =
            ResponseRequest::new(&Sharing).ks(&[16]).resolution(64).fused().evaluate().unwrap();
        let tile = GBatch::new(&[&Sharing], 16).unwrap().eval_grid(&fused_single[0].qs);
        assert_eq!(bits(&fused_single[0].g), bits(&tile));
    }

    #[test]
    fn unified_request_nonuniform_grid_tracks_exact_curves() {
        let cache = SharedGridCache::new();
        let tol = 1e-9;
        let ks = [64usize, 512];
        let curves = interpolated(&Exclusive, &ks, 128, tol, &cache).unwrap();
        assert_eq!(cache.stats().misses, 2);
        let exact = exact(&Exclusive, &ks, 128).unwrap();
        for (ci, ce) in curves.iter().zip(exact.iter()) {
            assert_eq!(ci.k, ce.k);
            let scale = cache.table(&Exclusive, ci.k, tol).unwrap().scale();
            for (&gi, &ge) in ci.g.iter().zip(ce.g.iter()) {
                assert!(
                    (gi - ge).abs() <= 4.0 * tol * scale,
                    "k = {}: interpolated {gi} vs exact {ge}",
                    ci.k
                );
            }
        }
    }

    #[test]
    fn errors_propagate() {
        let out: Result<Vec<SweepCell<f64>>> =
            sweep_grid(&instances(), &[2], 1, |_, _, _| Err(Error::InvalidArgument("boom".into())));
        assert!(out.is_err());
    }

    #[test]
    fn grid_cache_concurrent_lookups_share_one_build() {
        // Eight threads race on the same (policy, k, tol) cell: the shard
        // lock must let exactly one of them refine the grid, and every
        // thread must get the *same* Arc (ptr_eq extended to concurrency).
        use std::sync::Barrier;
        use std::thread;
        let cache = Arc::new(SharedGridCache::new());
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    cache.table(&Sharing, 16, 1e-9).unwrap()
                })
            })
            .collect();
        let tables: Vec<Arc<GTable>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &tables[1..] {
            assert!(Arc::ptr_eq(&tables[0], t), "all threads must share one grid");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "the refinement must run exactly once");
        assert_eq!((stats.hits, stats.entries), (7, 1));
    }

    #[test]
    fn grid_cache_concurrent_warm_order_is_value_independent() {
        // Threads warm disjoint permutations of the same cell set
        // concurrently; afterwards every cell's grid is bit-identical to
        // a fresh single-threaded build (warm order extended to
        // concurrency: sharing changes allocation, never values).
        use std::thread;
        let cache = Arc::new(SharedGridCache::new());
        let cells: Vec<(usize, f64)> = vec![(4, 1e-9), (16, 1e-9), (8, 1e-6), (33, 1e-9)];
        let mut orders: Vec<Vec<(usize, f64)>> = Vec::new();
        for rot in 0..4 {
            let mut order = cells.clone();
            order.rotate_left(rot);
            orders.push(order);
        }
        let handles: Vec<_> = orders
            .into_iter()
            .map(|order| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    for (k, tol) in order {
                        cache.table(&Sharing, k, tol).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().misses, cells.len() as u64, "each cell built exactly once");
        for &(k, tol) in &cells {
            let shared = cache.table(&Sharing, k, tol).unwrap();
            let fresh = SharedGridCache::new().table(&Sharing, k, tol).unwrap();
            assert_eq!(shared.grid_cells(), fresh.grid_cells(), "k = {k}");
            let qs: Vec<f64> = (0..=64).map(|i| i as f64 / 64.0).collect();
            let mut sa = shared.scratch();
            let mut sb = fresh.scratch();
            let mut ga = vec![0.0; qs.len()];
            let mut gb = vec![0.0; qs.len()];
            shared.eval_fast_many_with(&mut sa, &qs, &mut ga).unwrap();
            fresh.eval_fast_many_with(&mut sb, &qs, &mut gb).unwrap();
            for (a, b) in ga.iter().zip(gb.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "k = {k}");
            }
        }
    }
}
