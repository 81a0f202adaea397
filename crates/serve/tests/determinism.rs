//! Thread-count invariance of the daemon's response tiles: every curve
//! must come out **bit-identical** whatever width the work-stealing pool
//! runs at. `eval_interp_tile` fans its policies out on the pool (each
//! task reading the shared grid cache); `eval_exact_tile` is one serial
//! kernel call, checked too so the contract covers the daemon's whole
//! response path.
//!
//! Thread counts are swept with `rayon::set_num_threads` (an atomic,
//! shim-only extension of the vendored pool), never by mutating
//! `RAYON_NUM_THREADS`: `setenv` racing the pool workers' `getenv` is
//! undefined behavior on glibc.

use dispersal_core::policy::{Congestion, Exclusive, PowerLaw, Sharing, TwoLevel};
use dispersal_serve::batch::{eval_exact_tile, eval_interp_tile};
use dispersal_sim::sweep::SharedGridCache;
use std::sync::Mutex;

/// Held by every test here that changes the pool width: the setting is
/// process-global, so two such tests must not interleave.
static THREAD_SWEEP_LOCK: Mutex<()> = Mutex::new(());

const RESOLUTION: usize = 96;

fn bits(curves: Vec<Vec<f64>>) -> Vec<Vec<u64>> {
    curves.into_iter().map(|g| g.iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn batched_response_grids_bit_identical_across_thread_counts() {
    let _guard = THREAD_SWEEP_LOCK.lock().unwrap();
    let policies: Vec<&dyn Congestion> =
        vec![&Exclusive, &Sharing, &TwoLevel { c: -0.4 }, &PowerLaw { beta: 2.0 }];
    let ks = [2usize, 8, 33];
    let mut runs: Vec<Vec<Vec<Vec<u64>>>> = Vec::new();
    for threads in [1usize, 8] {
        rayon::set_num_threads(threads);
        let cache = SharedGridCache::new();
        let mut run = Vec::new();
        for &k in &ks {
            run.push(bits(eval_exact_tile(&policies, k, RESOLUTION).unwrap()));
            run.push(bits(eval_interp_tile(&policies, k, RESOLUTION, 1e-9, &cache).unwrap()));
        }
        runs.push(run);
    }
    rayon::set_num_threads(0);
    assert_eq!(runs[0].len(), 2 * ks.len());
    for (tile, (a, b)) in runs[0].iter().zip(runs[1].iter()).enumerate() {
        assert_eq!(a.len(), policies.len());
        assert_eq!(a, b, "tile {tile} (k = {}) changed between 1 and 8 threads", ks[tile / 2]);
    }
}
