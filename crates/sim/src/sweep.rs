//! Parallel parameter sweeps: evaluate a closure over a grid of
//! `(instance, k)` cells, preserving deterministic per-cell RNG streams.
//! A thin grid-construction layer over [`crate::engine::par_map_seeded`],
//! plus [`SharedGridCache`], the memoized interpolation grids that
//! interpolated response curves are read through
//! ([`SharedGridCache::table`] + [`GTable::eval_fast_many_with`] over a
//! [`dispersal_core::kernel::unit_grid`]). Exact and fused curves are
//! direct [`dispersal_core::kernel::GBatch`] calls.

use crate::engine;
use dispersal_core::kernel::cache::{CacheStats, SharedCache};
use dispersal_core::kernel::{GTable, GridSpec};
use dispersal_core::policy::{validate_congestion, Congestion};
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// One cell of a sweep grid.
#[derive(Debug, Clone)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::kernel::{unit_grid, GBatch};
    use dispersal_core::optimal::optimal_coverage;
    use dispersal_core::payoff::PayoffContext;
    use dispersal_core::policy::{Exclusive, Sharing};

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

    /// One policy's interpolated curve at `k`, read through `cache` over
    /// the uniform `resolution`-step grid.
    fn interpolated(
        c: &dyn Congestion,
        k: usize,
        resolution: usize,
        tol: f64,
        cache: &SharedGridCache,
    ) -> Result<Vec<f64>> {
        let table = cache.table(c, k, tol)?;
        let qs = unit_grid(resolution)?;
        let mut g = vec![0.0; qs.len()];
        table.eval_fast_many_with(&mut table.scratch(), &qs, &mut g)?;
        Ok(g)
    }

    /// One policy's exact curve at `k`: the reference-mode one-row
    /// [`GBatch`] over the uniform `resolution`-step grid.
    fn exact(c: &dyn Congestion, k: usize, resolution: usize) -> Result<Vec<f64>> {
        let qs = unit_grid(resolution)?;
        let batch = GBatch::new(&[c], k)?;
        let mut g = vec![0.0; qs.len()];
        batch.eval_many_with(&mut batch.scratch(), &qs, &mut g)?;
        Ok(g)
    }

    /// The interpolated curves of `c` at each of `ks` stay within the
    /// grid's error budget (4 × tol × scale) of the exact curves, and each
    /// `k` builds its grid once.
    fn assert_interpolated_tracks_exact(
        c: &dyn Congestion,
        ks: &[usize],
        resolution: usize,
        tol: f64,
    ) {
        let cache = SharedGridCache::new();
        for &k in ks {
            let interp = interpolated(c, k, resolution, tol, &cache).unwrap();
            let exact = exact(c, k, resolution).unwrap();
            assert_eq!(interp.len(), exact.len());
            let scale = cache.table(c, k, tol).unwrap().scale();
            for (&gi, &ge) in interp.iter().zip(exact.iter()) {
                assert!(
                    (gi - ge).abs() <= 4.0 * tol * scale,
                    "{} k = {k}: interp {gi} vs exact {ge}",
                    c.name()
                );
            }
        }
        assert_eq!(cache.stats().misses, ks.len() as u64);
    }

    #[test]
    fn response_grid_matches_scalar_reference() {
        let qs = unit_grid(64).unwrap();
        for k in [2usize, 8, 33] {
            let g = exact(&Sharing, k, 64).unwrap();
            assert_eq!(g.len(), 65);
            let ctx = PayoffContext::new(&Sharing, k).unwrap();
            for (&q, &v) in qs.iter().zip(g.iter()) {
                assert_eq!(v.to_bits(), ctx.g(q).unwrap().to_bits(), "k = {k} q = {q}");
            }
        }
    }

    #[test]
    fn response_grid_validates() {
        // A zero resolution, a zero player count and an empty policy group
        // are typed errors on the exact path; the first two also on the
        // cache path.
        assert!(exact(&Sharing, 2, 0).is_err());
        assert!(exact(&Sharing, 0, 10).is_err());
        assert!(GBatch::new(&[], 2).is_err());
        let cache = SharedGridCache::new();
        assert!(interpolated(&Sharing, 2, 0, 1e-9, &cache).is_err());
        assert!(interpolated(&Sharing, 0, 10, 1e-9, &cache).is_err());
    }

    #[test]
    fn grid_cache_reuses_memoized_tables_across_sweep_calls() {
        let cache = SharedGridCache::new();
        let ks = [4usize, 16];
        let a: Vec<Vec<f64>> =
            ks.iter().map(|&k| interpolated(&Sharing, k, 32, 1e-9, &cache).unwrap()).collect();
        assert_eq!((cache.stats().misses, cache.stats().hits), (2, 0));
        // Second sweep over the same cells: zero new builds, all hits.
        let b: Vec<Vec<f64>> =
            ks.iter().map(|&k| interpolated(&Sharing, k, 64, 1e-9, &cache).unwrap()).collect();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "memoized grids must be reused");
        assert_eq!((stats.hits, stats.entries), (2, 2));
        // Pointer check: the cache hands back the *same* Arc, not a rebuild.
        let first = cache.table(&Sharing, 4, 1e-9).unwrap();
        let second = cache.table(&Sharing, 4, 1e-9).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same (policy, k, tol) must share one grid");
        // Interpolated values agree across resolutions at shared points.
        for (ga, gb) in a.iter().zip(b.iter()) {
            assert_eq!(ga[0].to_bits(), gb[0].to_bits());
            assert_eq!(ga.last().unwrap().to_bits(), gb.last().unwrap().to_bits());
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
    }

    #[test]
    fn interpolated_response_grid_tracks_exact_curves() {
        assert_interpolated_tracks_exact(&Sharing, &[2, 8, 33], 64, 1e-9);
    }

    #[test]
    fn unified_request_nonuniform_grid_tracks_exact_curves() {
        // Exclusive at large k, where the refined grid is strongly
        // nonuniform.
        assert_interpolated_tracks_exact(&Exclusive, &[64, 512], 128, 1e-9);
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
            let qs = unit_grid(64).unwrap();
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
