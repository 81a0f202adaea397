//! Host calibration and warm-up: plain `std::thread` spin loops.
//!
//! The 2-thread over 1-thread spin ratio tells a pool regression apart
//! from a busy neighbour: if two plain threads do not get two cores'
//! worth of work done, no pool can either. Spinning both cores also
//! serves as the untimed warm-up before each timed phase, since a cold
//! 2-thread run on this kind of host often runs at 1-thread speed.

use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

/// Spin for `duration`, returning the iterations done.
fn spin(duration: Duration) -> u64 {
    let end = Instant::now() + duration;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut iterations = 0u64;
    loop {
        for _ in 0..1024 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        iterations += 1024;
        if Instant::now() >= end {
            black_box(x);
            return iterations;
        }
    }
}

/// Spin on `threads` threads at once (this one included); returns the
/// total iterations.
fn spin_on(threads: usize, duration: Duration) -> u64 {
    thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(move || spin(duration))).collect();
        let own = spin(duration);
        own + others.into_iter().map(|h| h.join().expect("spin thread panicked")).sum::<u64>()
    })
}

/// Load both cores for `duration` (the untimed warm-up).
pub fn warm_up(duration: Duration) {
    spin_on(2, duration);
}

/// Two-thread over one-thread spin throughput, each measured for
/// `duration`.
pub fn speedup_2t(duration: Duration) -> f64 {
    let one = spin_on(1, duration);
    let two = spin_on(2, duration);
    two as f64 / one as f64
}
