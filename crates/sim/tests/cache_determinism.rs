//! Cache-state independence of the sweep outputs (`deterministic-iteration`
//! contract, dynamic side).
//!
//! `SharedGridCache` memoizes interpolation grids behind sharded locks,
//! which is fine *only* because every access is a keyed lookup — nothing
//! ever iterates a map into an output. These tests pin the observable
//! consequence: curves read through the cache are bit-identical
//! regardless of the order grids were warmed into it, and whether it was
//! warmed by one thread or hammered by many concurrent clients. (The
//! daemon's tiles fan these reads out on the pool; their thread-count
//! invariance is pinned in `dispersal-serve`'s determinism tests.)

use dispersal_core::kernel::unit_grid;
use dispersal_core::policy::{Congestion, Sharing, TwoLevel};
use dispersal_sim::sweep::SharedGridCache;
use std::sync::{Arc, Barrier};
use std::thread;

const KS: [usize; 3] = [5, 17, 64];
const RESOLUTION: usize = 96;
const TOL: f64 = 1e-9;

/// `c`'s interpolated curve at every `k` of [`KS`], read through `cache`.
fn curve_bits(c: &dyn Congestion, cache: &SharedGridCache) -> Vec<Vec<u64>> {
    let qs = unit_grid(RESOLUTION).expect("grid");
    KS.iter()
        .map(|&k| {
            let table = cache.table(c, k, TOL).expect("grid build");
            let mut g = vec![0.0; qs.len()];
            table.eval_fast_many_with(&mut table.scratch(), &qs, &mut g).expect("eval");
            g.iter().map(|v| v.to_bits()).collect()
        })
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
