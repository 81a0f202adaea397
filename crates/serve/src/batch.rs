//! Admission batching: coalesce concurrent response requests that share
//! `(k, tol, resolution)` into one policy-major
//! [`GBatch`](dispersal_core::kernel::GBatch) tile.
//!
//! This is the daemon's key scaling move (the worker/batch-capacity
//! pattern of holmes' `ParallelMonteCarloSearchServer`): N requests that
//! arrive inside one admission window and agree on the player count,
//! tolerance mode, and grid become *one* kernel dispatch — the Bernstein
//! basis column is computed once per grid point for the whole group
//! instead of once per request — and the results are demultiplexed back
//! to their requesters row by row.
//!
//! Determinism: exact groups run
//! [`GBatch::eval_many_with`](dispersal_core::kernel::GBatch::eval_many_with),
//! whose output is **bit-identical per row** to the per-policy
//! [`GTable`](dispersal_core::kernel::GTable) reference
//! path *regardless of batch composition* — so whether a request was
//! answered alone, grouped with 3 strangers, or grouped with 63, its
//! curve bits are the same, and equal to a direct reference-mode
//! `sweep::ResponseRequest` library call. Interpolated groups share warm
//! [`SharedGridCache`] grids, which likewise changes only who builds a
//! grid, never its values.

use dispersal_core::kernel::GridSpec;
use dispersal_core::policy::Congestion;
use dispersal_core::Result;
use dispersal_sim::sweep::{ResponseRequest, SharedGridCache};
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

/// The shared uniform evaluation grid for a group.
pub fn group_qs(resolution: usize) -> Vec<f64> {
    (0..=resolution).map(|i| i as f64 / resolution as f64).collect()
}

/// Evaluate an **exact** group as one reference-mode tile through the
/// unified [`ResponseRequest`] API (`.reference()` forces the per-row
/// `GBatch::eval_many_with` path). Returns each policy's curve in input
/// order; every curve is bit-identical to a stand-alone
/// `GTable::eval_with` walk of the same points, whatever the group
/// composition.
pub fn eval_exact_tile(
    policies: &[&dyn Congestion],
    k: usize,
    resolution: usize,
) -> Result<Vec<Vec<f64>>> {
    let curves = ResponseRequest::policies(policies)
        .ks(&[k])
        .resolution(resolution)
        .reference()
        .evaluate()?;
    Ok(curves.into_iter().map(|curve| curve.g).collect())
}

/// Evaluate an **interpolated** group through the unified
/// [`ResponseRequest`] API against the shared grid cache: each policy's
/// `O(1)`-per-point grid is pulled from (or built into) `cache`, so a
/// warm daemon answers the whole group without a single refinement pass.
pub fn eval_interp_tile(
    policies: &[&dyn Congestion],
    k: usize,
    resolution: usize,
    tol: f64,
    cache: &SharedGridCache,
) -> Result<Vec<Vec<f64>>> {
    let curves = ResponseRequest::policies(policies)
        .ks(&[k])
        .resolution(resolution)
        .grid(GridSpec::Interpolated { tol })
        .cache(cache)
        .evaluate()?;
    Ok(curves.into_iter().map(|curve| curve.g).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::policy::{PowerLaw, Sharing, TwoLevel};

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
