//! Admission batching: coalesce concurrent response requests that share
//! `(k, tol, resolution)` into one kernel tile.
//!
//! This is the daemon's key scaling move (the worker/batch-capacity
//! pattern of holmes' `ParallelMonteCarloSearchServer`): N requests that
//! arrive inside one admission window and agree on the player count,
//! tolerance mode, and grid become *one* kernel dispatch — the Bernstein
//! basis column is computed once per grid point for the whole group
//! instead of once per request — and the results are demultiplexed back
//! to their requesters row by row.
//!
//! The two tile functions are the daemon's whole response path. Each is
//! a direct kernel call over the group's [`unit_grid`], with the tile
//! build (a `GBatch`, or cache lookups) and the kernel evaluation next to
//! each other in one function body:
//!
//! * [`eval_exact_tile`] — one policy-major [`GBatch`] in reference mode
//!   ([`GBatch::eval_many_with`]). Every row is **bit-identical** to the
//!   per-policy [`GTable`](dispersal_core::kernel::GTable) reference
//!   path, and so to the scalar `PayoffContext::g`, *regardless of batch
//!   composition*: a request answered alone, grouped with 3 strangers,
//!   or grouped with 63 gets the same curve bits. On AVX2 hosts the
//!   tile's interior grid points run eight at a time on the kernel's
//!   bit-identical reference lane (`dispersal_core::simd`), so a lone
//!   `k = 64` request's tile takes about a quarter of the per-point time.
//!   The parser bounds its work per curve
//!   ([`crate::protocol::MAX_RESPONSE_WORK`]).
//! * [`eval_interp_tile`] — each policy's `O(1)`-per-point grid from the
//!   shared [`SharedGridCache`] ([`SharedGridCache::table`] +
//!   `GTable::eval_fast_many_with`), fanned out on the pool. A warm
//!   cache changes only who builds a grid, never its values.

use dispersal_core::kernel::{unit_grid, GBatch, GridSpec};
use dispersal_core::policy::{validate_congestion, Congestion};
use dispersal_core::{Error, Result};
use dispersal_sim::engine;
use dispersal_sim::sweep::SharedGridCache;
use std::collections::BTreeMap;

/// One response request, reduced to its batching-relevant shape.
#[derive(Debug, Clone)]
pub struct ResponseJob {
    /// Player count.
    pub k: usize,
    /// Grid resolution (`resolution + 1` points over `[0, 1]`).
    pub resolution: usize,
    /// Interpolation tolerance; `None` = exact reference path.
    pub tol: Option<f64>,
}

/// One admission group: the indices (into the submitted job slice) of
/// every request sharing a `(k, resolution, tol)` evaluation shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Shared player count.
    pub k: usize,
    /// Shared grid resolution.
    pub resolution: usize,
    /// Shared tolerance bits (`None` = exact mode).
    pub tol_bits: Option<u64>,
    /// Indices of the grouped jobs, in submission order.
    pub members: Vec<usize>,
}

/// Partition `jobs` into admission groups. Grouping is deterministic:
/// keys are visited in `BTreeMap` order and members keep submission
/// order, so the same burst always produces the same dispatch plan.
pub fn plan_groups(jobs: &[ResponseJob]) -> Vec<Group> {
    let mut by_shape: BTreeMap<(usize, usize, Option<u64>), Vec<usize>> = BTreeMap::new();
    for (index, job) in jobs.iter().enumerate() {
        let key = (job.k, job.resolution, job.tol.map(f64::to_bits));
        by_shape.entry(key).or_default().push(index);
    }
    by_shape
        .into_iter()
        .map(|((k, resolution, tol_bits), members)| Group { k, resolution, tol_bits, members })
        .collect()
}

/// Evaluate an **exact** group as one reference-mode [`GBatch`] tile
/// over the `resolution`-step [`unit_grid`]. Returns each policy's curve
/// in input order; every curve is bit-identical to a stand-alone
/// `GTable::eval_with` walk of the same points, whatever the group
/// composition.
pub fn eval_exact_tile(
    policies: &[&dyn Congestion],
    k: usize,
    resolution: usize,
) -> Result<Vec<Vec<f64>>> {
    let qs = unit_grid(resolution)?;
    let batch = GBatch::new(policies, k)?;
    let mut g = vec![0.0; batch.rows() * qs.len()];
    batch.eval_many_with(&mut batch.scratch(), &qs, &mut g)?;
    Ok(g.chunks(qs.len()).map(<[f64]>::to_vec).collect())
}

/// Evaluate an **interpolated** group against the shared grid cache:
/// each policy's `O(1)`-per-point grid is pulled from (or built into)
/// `cache`, one pool task per policy, so a warm daemon answers the whole
/// group without a single refinement pass. Every policy and the
/// tolerance are validated before any task runs.
pub fn eval_interp_tile(
    policies: &[&dyn Congestion],
    k: usize,
    resolution: usize,
    tol: f64,
    cache: &SharedGridCache,
) -> Result<Vec<Vec<f64>>> {
    if policies.is_empty() {
        return Err(Error::InvalidArgument("response tile needs at least one policy".into()));
    }
    let qs = unit_grid(resolution)?;
    for c in policies {
        validate_congestion(*c, k)?;
    }
    GridSpec::Interpolated { tol }.validate()?;
    engine::par_map(policies.to_vec(), |c| {
        let table = cache.table(c, k, tol)?;
        let mut g = vec![0.0; qs.len()];
        table.eval_fast_many_with(&mut table.scratch(), &qs, &mut g)?;
        Ok(g)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::payoff::PayoffContext;
    use dispersal_core::policy::{Exclusive, PowerLaw, Sharing, TwoLevel};

    #[test]
    fn grouping_is_deterministic_and_shape_keyed() {
        let jobs = vec![
            ResponseJob { k: 64, resolution: 128, tol: None },
            ResponseJob { k: 8, resolution: 128, tol: None },
            ResponseJob { k: 64, resolution: 128, tol: None },
            ResponseJob { k: 64, resolution: 128, tol: Some(1e-9) },
            ResponseJob { k: 64, resolution: 128, tol: None },
        ];
        let groups = plan_groups(&jobs);
        assert_eq!(groups.len(), 3);
        // BTreeMap order: k = 8 first; exact (None) sorts before Some.
        assert_eq!(groups[0].members, vec![1]);
        assert_eq!(
            (groups[1].k, groups[1].tol_bits, groups[1].members.clone()),
            (64, None, vec![0, 2, 4])
        );
        assert_eq!(groups[2].tol_bits, Some(1e-9f64.to_bits()));
        assert_eq!(plan_groups(&jobs), groups, "same burst, same plan");
    }

    #[test]
    fn exact_tile_is_bit_identical_per_row_regardless_of_company() {
        let policies: Vec<&dyn Congestion> =
            vec![&Sharing, &TwoLevel { c: -0.3 }, &PowerLaw { beta: 2.0 }];
        let grouped = eval_exact_tile(&policies, 16, 64).unwrap();
        for (r, c) in policies.iter().enumerate() {
            let alone = eval_exact_tile(&[*c], 16, 64).unwrap();
            for (a, b) in grouped[r].iter().zip(alone[0].iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r} diverged under batching");
            }
        }
    }

    #[test]
    fn exact_tile_matches_scalar_reference() {
        // The small shapes, then the daemon's own (k = 64 and 256 at the
        // default resolution 256), whose interior points run the SIMD
        // reference lane on AVX2 hosts.
        for (k, resolution) in [(2usize, 64usize), (8, 64), (33, 64), (64, 256), (256, 256)] {
            let qs = unit_grid(resolution).unwrap();
            let g = eval_exact_tile(&[&Sharing], k, resolution).unwrap();
            assert_eq!(g[0].len(), qs.len());
            let ctx = PayoffContext::new(&Sharing, k).unwrap();
            for (&q, &v) in qs.iter().zip(g[0].iter()) {
                assert_eq!(v.to_bits(), ctx.g(q).unwrap().to_bits(), "k = {k} q = {q}");
            }
        }
        // A zero player count, a zero resolution and an empty group are
        // typed errors.
        assert!(eval_exact_tile(&[&Sharing], 0, 10).is_err());
        assert!(eval_exact_tile(&[&Sharing], 2, 0).is_err());
        assert!(eval_exact_tile(&[], 2, 10).is_err());
    }

    #[test]
    fn interpolated_tile_tracks_exact_tile() {
        // Sharing on a small-k grid, and Exclusive at large k where the
        // refined grid is strongly nonuniform.
        let cases: [(&dyn Congestion, &[usize], usize); 2] =
            [(&Sharing, &[2, 8, 33], 64), (&Exclusive, &[64, 512], 128)];
        let tol = 1e-9;
        for (c, ks, resolution) in cases {
            let cache = SharedGridCache::new();
            for &k in ks {
                let interp = eval_interp_tile(&[c], k, resolution, tol, &cache).unwrap();
                let exact = eval_exact_tile(&[c], k, resolution).unwrap();
                let scale = cache.table(c, k, tol).unwrap().scale();
                for (&gi, &ge) in interp[0].iter().zip(exact[0].iter()) {
                    assert!(
                        (gi - ge).abs() <= 4.0 * tol * scale,
                        "{} k = {k}: interp {gi} vs exact {ge}",
                        c.name()
                    );
                }
            }
            assert_eq!(cache.stats().misses, ks.len() as u64);
        }
        let cache = SharedGridCache::new();
        assert!(eval_interp_tile(&[&Sharing], 2, 0, tol, &cache).is_err());
        assert!(eval_interp_tile(&[], 2, 8, tol, &cache).is_err());
        for bad in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                eval_interp_tile(&[&Sharing, &Exclusive], 4, 8, bad, &cache),
                Err(Error::InvalidTolerance { .. })
            ));
        }
        assert_eq!(cache.stats().misses, 0, "failed tiles must not build grids");
    }

    #[test]
    fn interp_tile_warms_and_reuses_the_shared_cache() {
        let cache = SharedGridCache::new();
        let policies: Vec<&dyn Congestion> = vec![&Sharing, &TwoLevel { c: -0.3 }];
        let first = eval_interp_tile(&policies, 8, 32, 1e-9, &cache).unwrap();
        assert_eq!(cache.stats().misses, 2);
        let second = eval_interp_tile(&policies, 8, 32, 1e-9, &cache).unwrap();
        assert_eq!(cache.stats().misses, 2, "warm daemon must not re-refine");
        assert_eq!(cache.stats().hits, 2);
        for (a, b) in first.iter().flatten().zip(second.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
