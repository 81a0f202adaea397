//! Cache-state independence of the sweep outputs (`deterministic-iteration`
//! contract, dynamic side).
//!
//! `SharedGridCache` memoizes interpolation grids behind sharded locks,
//! which is fine *only* because every access is a keyed lookup — nothing
//! ever iterates a map into an output. These tests pin the observable
//! consequence: sweep results are bit-identical regardless of the order
//! grids were warmed into the cache, whether entries arrived via the
//! single-policy or the batched path, whether the cache was warmed by one
//! thread or hammered by many concurrent clients, and at every
//! worker-thread count.

use dispersal_core::kernel::GridSpec;
use dispersal_core::policy::{Congestion, Sharing, TwoLevel};
use dispersal_sim::sweep::{ResponseRequest, SharedGridCache};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

/// Serializes the tests that reconfigure the global pool width, mirroring
/// determinism.rs's `THREAD_SWEEP_LOCK` (the pool override is process
/// global; concurrent test threads must not interleave reconfigurations).
static THREAD_SWEEP_LOCK: Mutex<()> = Mutex::new(());

const KS: [usize; 3] = [5, 17, 64];
const RESOLUTION: usize = 96;
const TOL: f64 = 1e-9;

fn curve_bits(c: &dyn Congestion, cache: &SharedGridCache) -> Vec<Vec<u64>> {
    ResponseRequest::new(c)
        .ks(&KS)
        .resolution(RESOLUTION)
        .grid(GridSpec::Interpolated { tol: TOL })
        .cache(cache)
        .evaluate()
        .expect("interpolated sweep")
        .into_iter()
        .map(|curve| curve.g.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn grid_cache_results_independent_of_warm_order() {
    let policies: [&dyn Congestion; 2] = [&Sharing, &TwoLevel { c: -0.3 }];
    // Forward warm: policies × ks in natural order.
    let forward = SharedGridCache::new();
    for c in policies {
        for &k in &KS {
            forward.table(c, k, TOL).expect("grid build");
        }
    }
    // Reverse warm: same cells inserted in the opposite order.
    let reverse = SharedGridCache::new();
    for c in policies.iter().rev() {
        for &k in KS.iter().rev() {
            reverse.table(*c, k, TOL).expect("grid build");
        }
    }
    assert_eq!(forward.stats().misses, reverse.stats().misses);
    assert_eq!(forward.stats().entries, reverse.stats().entries);
    for c in policies {
        let a = curve_bits(c, &forward);
        let b = curve_bits(c, &reverse);
        assert_eq!(a, b, "warm order changed sweep bits for {}", c.name());
    }
}

#[test]
fn grid_cache_shared_across_single_and_batched_paths() {
    // A cache warmed by the single-policy path must serve the batched
    // path from the same grids (no rebuilds) with identical bits, and
    // vice versa against a cold cache.
    let policies: [&dyn Congestion; 2] = [&Sharing, &TwoLevel { c: -0.3 }];
    let warmed = SharedGridCache::new();
    for c in policies {
        curve_bits(c, &warmed);
    }
    let builds_after_warm = warmed.stats().misses;
    let cold = SharedGridCache::new();
    let batched = |cache: &SharedGridCache| {
        ResponseRequest::policies(&policies)
            .ks(&KS)
            .resolution(RESOLUTION)
            .grid(GridSpec::Interpolated { tol: TOL })
            .cache(cache)
            .evaluate()
            .expect("batched sweep")
    };
    let via_warm = batched(&warmed);
    let via_cold = batched(&cold);
    assert_eq!(warmed.stats().misses, builds_after_warm, "batched path rebuilt a warmed grid");
    for (a, b) in via_warm.iter().zip(via_cold.iter()) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.k, b.k);
        let bits_a: Vec<u64> = a.g.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = b.g.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "cache temperature changed bits for ({}, {})", a.policy, a.k);
    }
}

#[test]
fn grid_cache_sweeps_bit_identical_across_thread_counts() {
    let _guard = THREAD_SWEEP_LOCK.lock().unwrap();
    let policy = TwoLevel { c: -0.3 };
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        let cache = SharedGridCache::new();
        let bits = curve_bits(&policy, &cache);
        match &reference {
            None => reference = Some(bits),
            Some(expected) => {
                assert_eq!(&bits, expected, "sweep bits changed at {threads} threads");
            }
        }
    }
    rayon::set_num_threads(0);
}

#[test]
fn grid_cache_concurrent_clients_bit_identical_to_serial_warm_up() {
    // The `&SharedGridCache` rebase means one cache can serve many client
    // threads at once (the daemon scenario). Eight clients racing full
    // sweeps — every pair of them colliding on every (policy, k, tol)
    // cell — must each observe exactly the bits a lone client gets from
    // its own serially warmed cache: concurrency changes who builds a
    // grid, never what any client reads.
    let policies: [&dyn Congestion; 2] = [&Sharing, &TwoLevel { c: -0.3 }];
    let serial = SharedGridCache::new();
    let expected: Vec<Vec<Vec<u64>>> = policies.iter().map(|c| curve_bits(*c, &serial)).collect();

    let shared = Arc::new(SharedGridCache::new());
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|client| {
            let shared = Arc::clone(&shared);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let policies: [&dyn Congestion; 2] = [&Sharing, &TwoLevel { c: -0.3 }];
                barrier.wait();
                // Half the clients walk the policies in reverse so the
                // interleavings cover both warm orders.
                let order: Vec<usize> = if client % 2 == 0 { vec![0, 1] } else { vec![1, 0] };
                let mut out = vec![Vec::new(), Vec::new()];
                for i in order {
                    out[i] = curve_bits(policies[i], &shared);
                }
                out
            })
        })
        .collect();
    for handle in handles {
        let got = handle.join().expect("client thread");
        assert_eq!(got, expected, "a concurrent client observed different sweep bits");
    }
    // Each (policy, k) cell was refined exactly once across all clients.
    assert_eq!(shared.stats().misses as usize, policies.len() * KS.len());
    assert_eq!(shared.stats().evictions, 0);
}
