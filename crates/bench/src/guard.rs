//! Wall-clock speedup guard backing the benches' `--quick` mode.
//!
//! CI's `bench-guard` job runs `cargo bench --bench kernel -- --quick`
//! (and `ess`, `batch`): instead of the full criterion sweep, each bench
//! times its scalar baseline against its kernel path a handful of times
//! and **fails the build** (non-zero exit) if the kernel has regressed to
//! slower-than-scalar. The bar is deliberately a coarse floor
//! (`speedup > 1`) rather than a tight threshold: CI runners are noisy,
//! and the recorded trajectories in the repo-root `BENCH_*.json` files
//! (validated by `dispersal check-bench-json`) are the precision
//! instrument.

use std::time::Instant;

/// Mean seconds per call of `f` over `reps` timed repetitions, after one
/// untimed warm-up call.
pub fn time_per_call<F: FnMut()>(reps: u32, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Print a `baseline vs variant` comparison line and return whether the
/// variant is strictly faster (speedup > 1).
pub fn check_speedup(label: &str, baseline_s: f64, variant_s: f64) -> bool {
    let speedup = baseline_s / variant_s;
    println!(
        "quick-guard {label}: baseline {:.1} us/call, variant {:.1} us/call, speedup {speedup:.2}x",
        baseline_s * 1e6,
        variant_s * 1e6,
    );
    speedup > 1.0
}

/// Print a `baseline vs variant` comparison line and return whether the
/// variant stays within `max_ratio ×` the baseline.
///
/// The guard form for paths whose *win* is host-dependent — e.g. the
/// engine's thread sweep, where a single-core CI runner can never show a
/// multi-thread speedup — but whose *failure mode* (pathological pool or
/// lock overhead) is host-independent and worth a hard floor.
pub fn check_overhead(label: &str, baseline_s: f64, variant_s: f64, max_ratio: f64) -> bool {
    let ratio = variant_s / baseline_s;
    println!(
        "quick-guard {label}: baseline {:.1} us/call, variant {:.1} us/call, \
         overhead {ratio:.2}x (max {max_ratio:.2}x)",
        baseline_s * 1e6,
        variant_s * 1e6,
    );
    ratio < max_ratio
}

/// Terminate the quick mode: exit 0 if every guard passed, 1 otherwise.
pub fn finish(all_ok: bool) -> ! {
    if all_ok {
        println!("quick-guard: OK");
        std::process::exit(0);
    }
    eprintln!("quick-guard: FAILED — a kernel path regressed to slower than its scalar baseline");
    std::process::exit(1);
}

/// Whether the process was invoked in `--quick` guard mode
/// (`cargo bench --bench <name> -- --quick`).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_reports_positive_means() {
        let mut acc = 0u64;
        let t = time_per_call(3, || acc = acc.wrapping_add(1));
        assert!(t >= 0.0);
        assert_eq!(acc, 4, "one warm-up call plus three timed calls");
    }

    #[test]
    fn speedup_check_is_strict() {
        assert!(check_speedup("faster", 2.0, 1.0));
        assert!(!check_speedup("slower", 1.0, 2.0));
        assert!(!check_speedup("equal", 1.0, 1.0));
    }

    #[test]
    fn overhead_check_bounds_the_ratio() {
        assert!(check_overhead("cheap", 1.0, 2.0, 4.0));
        assert!(!check_overhead("pathological", 1.0, 8.0, 4.0));
        assert!(!check_overhead("at-the-bound", 1.0, 4.0, 4.0));
    }
}
