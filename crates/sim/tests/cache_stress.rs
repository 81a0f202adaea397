//! Concurrent-cache stress: N threads × warm/cold interleavings against
//! the two `SharedCache`-backed memos (`core::kernel::PbCache`,
//! `sim::sweep::SharedGridCache`), with every observed value required to
//! be bit-identical to a single-threaded warm-up. The nightly TSan job
//! runs this file too, so any data race in the sharded-lock layer, the
//! LRU order index, or the counter atomics fails CI twice over.

use dispersal_core::kernel::PbCache;
use dispersal_core::policy::{Congestion, PowerLaw, Sharing, TwoLevel};
use dispersal_sim::sweep::SharedGridCache;
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: usize = 8;
const ROUNDS: usize = 4;

/// The probability profiles the PbCache rounds cycle through: a few
/// distinct equivalence classes plus permutations that must collapse
/// onto them.
fn pb_profiles() -> Vec<Vec<f64>> {
    vec![
        vec![0.2, 0.8],
        vec![0.8, 0.2],
        vec![0.5, 0.5, 0.5],
        vec![0.1, 0.2, 0.3, 0.4],
        vec![0.4, 0.3, 0.2, 0.1],
        vec![0.9],
        vec![0.25; 7],
    ]
}

#[test]
fn pb_cache_stress_bit_identical_to_serial_warm_up() {
    // Serial reference: one thread, one pass, natural order.
    let serial = PbCache::new();
    let expected: Vec<Vec<u64>> = pb_profiles()
        .iter()
        .map(|p| serial.table(p).unwrap().pmf().iter().map(|v| v.to_bits()).collect())
        .collect();

    // Concurrent: every thread loops the profile set ROUNDS times, each
    // thread starting at a different offset so cold builds and warm hits
    // interleave differently per thread.
    let cache = Arc::new(PbCache::new());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            let expected = expected.clone();
            thread::spawn(move || {
                let profiles = pb_profiles();
                barrier.wait();
                for round in 0..ROUNDS {
                    for i in 0..profiles.len() {
                        let idx = (i + t + round) % profiles.len();
                        let table = cache.table(&profiles[idx]).unwrap();
                        let bits: Vec<u64> = table.pmf().iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            bits, expected[idx],
                            "thread {t} round {round} profile {idx}: PMF bits diverged"
                        );
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("stress thread");
    }
    // 7 profiles collapse onto 5 sorted-multiset classes; every class was
    // built exactly once across all threads and rounds.
    let stats = cache.stats();
    assert_eq!(stats.misses, 5);
    assert_eq!(stats.hits as usize, THREADS * ROUNDS * pb_profiles().len() - 5);
}

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
