//! Concurrent-cache stress: N threads × warm/cold interleavings against
//! the `SharedCache`-backed grid memo (`sim::sweep::SharedGridCache`),
//! with every observed value required to be bit-identical to a
//! single-threaded warm-up. The nightly TSan job runs this file too, so
//! any data race in the sharded-lock layer, the LRU order index, or the
//! counter atomics fails CI twice over.

use dispersal_core::policy::{Congestion, PowerLaw, Sharing, TwoLevel};
use dispersal_sim::sweep::SharedGridCache;
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: usize = 8;
const ROUNDS: usize = 4;

#[test]
fn grid_cache_stress_bit_identical_to_serial_warm_up() {
    let policies: [&dyn Congestion; 3] = [&Sharing, &TwoLevel { c: -0.3 }, &PowerLaw { beta: 2.0 }];
    let cells: Vec<(usize, usize, f64)> = {
        let mut cells = Vec::new();
        for (p, _) in policies.iter().enumerate() {
            for k in [4usize, 16] {
                for tol in [1e-6, 1e-9] {
                    cells.push((p, k, tol));
                }
            }
        }
        cells
    };
    let qs: Vec<f64> = (0..=48).map(|i| i as f64 / 48.0).collect();
    let eval_bits = |cache: &SharedGridCache, &(p, k, tol): &(usize, usize, f64)| -> Vec<u64> {
        let policies: [&dyn Congestion; 3] =
            [&Sharing, &TwoLevel { c: -0.3 }, &PowerLaw { beta: 2.0 }];
        let table = cache.table(policies[p], k, tol).unwrap();
        let mut scratch = table.scratch();
        let mut g = vec![0.0; qs.len()];
        table.eval_fast_many_with(&mut scratch, &qs, &mut g).unwrap();
        g.iter().map(|v| v.to_bits()).collect()
    };

    let serial = SharedGridCache::new();
    let expected: Vec<Vec<u64>> = cells.iter().map(|cell| eval_bits(&serial, cell)).collect();

    let cache = Arc::new(SharedGridCache::new());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            let cells = cells.clone();
            let expected = expected.clone();
            let qs = qs.clone();
            thread::spawn(move || {
                let eval_bits =
                    |cache: &SharedGridCache, &(p, k, tol): &(usize, usize, f64)| -> Vec<u64> {
                        let policies: [&dyn Congestion; 3] =
                            [&Sharing, &TwoLevel { c: -0.3 }, &PowerLaw { beta: 2.0 }];
                        let table = cache.table(policies[p], k, tol).unwrap();
                        let mut scratch = table.scratch();
                        let mut g = vec![0.0; qs.len()];
                        table.eval_fast_many_with(&mut scratch, &qs, &mut g).unwrap();
                        g.iter().map(|v| v.to_bits()).collect()
                    };
                barrier.wait();
                for round in 0..ROUNDS {
                    for i in 0..cells.len() {
                        // Odd threads walk the cells backwards so builds
                        // and hits interleave in both directions.
                        let idx = if t % 2 == 0 {
                            (i + t + round) % cells.len()
                        } else {
                            cells.len() - 1 - ((i + t + round) % cells.len())
                        };
                        let bits = eval_bits(&cache, &cells[idx]);
                        assert_eq!(
                            bits, expected[idx],
                            "thread {t} round {round} cell {idx}: curve bits diverged"
                        );
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("stress thread");
    }
    assert_eq!(
        cache.stats().misses as usize,
        cells.len(),
        "each (policy, k, tol) cell built exactly once"
    );
    assert_eq!(cache.stats().evictions, 0);
}
