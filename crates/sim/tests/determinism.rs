//! Determinism regression tests for the parallel engine: every sharded
//! workload must produce **bit-identical** output at every thread count,
//! and the pool must actually use multiple OS threads when asked.
//!
//! Thread counts are swept via `rayon::set_num_threads` (an atomic,
//! shim-only extension), NOT by mutating `RAYON_NUM_THREADS`: calling
//! `setenv` while concurrently-running tests' pool workers call `getenv`
//! is undefined behavior on glibc. If the vendored rayon is ever swapped
//! back to the registry crate, this file fails to compile — by design:
//! registry rayon pins its global pool at first use, so an in-process
//! sweep like this one would silently test a single pool size there.

use dispersal_core::ess::{invasion_barrier, probe_ess_k, Mixture};
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::{Exclusive, Sharing};
use dispersal_core::sigma_star::sigma_star;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_sim::montecarlo::{estimate_symmetric, McConfig, McReport};
use dispersal_sim::sweep::{sweep_grid, SweepCell};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Mutex;

/// Tests that sweep `rayon::set_num_threads` must not interleave: the
/// setting is process-global, and e.g. the ≥2-OS-thread observability
/// check below would be meaningless under a concurrently pinned count.
static THREAD_SWEEP_LOCK: Mutex<()> = Mutex::new(());

fn mc_run() -> McReport {
    let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
    let p = Strategy::new(vec![0.5, 0.3, 0.2]).unwrap();
    estimate_symmetric(&f, &Sharing, &p, 4, McConfig { trials: 50_000, seed: 77, shards: 16 })
        .unwrap()
}

fn sweep_run() -> Vec<SweepCell<u64>> {
    let instances = vec![
        ("zipf".to_string(), ValueProfile::zipf(10, 1.0, 1.0).unwrap()),
        ("geometric".to_string(), ValueProfile::geometric(8, 1.0, 0.7).unwrap()),
    ];
    sweep_grid(&instances, &[2, 4, 8], 9, |_, _, rng| Ok(rng.gen::<u64>())).unwrap()
}

#[test]
fn outputs_bit_identical_across_thread_counts_and_pool_is_parallel() {
    let _guard = THREAD_SWEEP_LOCK.lock().unwrap();
    let mut mc_reports: Vec<McReport> = Vec::new();
    let mut sweeps: Vec<Vec<SweepCell<u64>>> = Vec::new();
    for threads in [1, 2, 8] {
        rayon::set_num_threads(threads);
        mc_reports.push(mc_run());
        sweeps.push(sweep_run());
    }

    // Monte-Carlo: identical to the bit, not just within tolerance.
    let baseline = &mc_reports[0];
    assert_eq!(baseline.trials, 50_000);
    for report in &mc_reports[1..] {
        assert_eq!(baseline.coverage.mean.to_bits(), report.coverage.mean.to_bits());
        assert_eq!(baseline.coverage.ci95.to_bits(), report.coverage.ci95.to_bits());
        assert_eq!(baseline.payoff.mean.to_bits(), report.payoff.mean.to_bits());
        assert_eq!(baseline.payoff.ci95.to_bits(), report.payoff.ci95.to_bits());
        assert_eq!(baseline.trials, report.trials);
    }

    // Sweep: same cells, same order, same per-cell draws.
    for cells in &sweeps[1..] {
        assert_eq!(cells.len(), sweeps[0].len());
        for (a, b) in sweeps[0].iter().zip(cells.iter()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.k, b.k);
            assert_eq!(a.output, b.output);
        }
    }

    // The acceptance check for the vendored pool: with >= 2 workers
    // configured, closures observably execute on >= 2 distinct OS threads.
    rayon::set_num_threads(4);
    let seen = Mutex::new(HashSet::new());
    {
        use rayon::prelude::*;
        (0..16u32).into_par_iter().for_each(|_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
    }
    assert!(
        seen.lock().unwrap().len() >= 2,
        "vendored rayon pool did not run on multiple OS threads"
    );
    rayon::set_num_threads(0);
}

#[test]
fn ess_checker_and_barrier_bit_identical_across_thread_counts() {
    // The kernel-backed ESS checker (PbTable rank updates + PbCache
    // sharing) must not pick up any thread-count sensitivity: identical
    // reports and barriers at RAYON_NUM_THREADS ∈ {1, 8}.
    let _guard = THREAD_SWEEP_LOCK.lock().unwrap();
    let f = ValueProfile::zipf(6, 1.0, 1.0).unwrap();
    let k = 4;
    let star = sigma_star(&f, k).unwrap().strategy;
    let ctx = PayoffContext::new(&Exclusive, k).unwrap();
    let invaders = Mixture::new(vec![Strategy::uniform(6).unwrap()], vec![1.0]).unwrap();
    let mut probes = Vec::new();
    let mut barriers = Vec::new();
    for threads in [1usize, 8] {
        rayon::set_num_threads(threads);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        probes.push(probe_ess_k(&Exclusive, &f, &star, 30, &mut rng, k).unwrap());
        barriers.push(invasion_barrier(&ctx, &f, &star, &invaders, 200).unwrap());
    }
    rayon::set_num_threads(0);
    let (a, b) = (&probes[0], &probes[1]);
    assert_eq!(a.mutants_tested, b.mutants_tested);
    assert_eq!(a.repelled, b.repelled);
    assert_eq!(a.indistinguishable, b.indistinguishable);
    assert_eq!(a.invasions, b.invasions);
    assert_eq!(a.worst_margin.to_bits(), b.worst_margin.to_bits());
    assert_eq!(barriers[0].to_bits(), barriers[1].to_bits());
    assert!(a.passed(), "sigma* must pass its own probe: {:?}", a.invasions);
    assert!(barriers[0] > 0.0);
}

#[test]
fn invasion_tournament_and_mixed_barrier_bit_identical_across_thread_counts() {
    // `run_invasion` runs on the multi-type tournament, so that one
    // sharded path carries every invasion estimate: a three-type
    // tournament and a two-invader barrier must give identical bits at
    // RAYON_NUM_THREADS ∈ {1, 8}.
    use dispersal_sim::invasion::{run_invasion_mixture, InvasionConfig, MixtureInvasionReport};
    let _guard = THREAD_SWEEP_LOCK.lock().unwrap();
    let f = ValueProfile::new(vec![1.0, 0.7, 0.35, 0.1]).unwrap();
    let k = 4;
    let star = sigma_star(&f, k).unwrap().strategy;
    let uniform = Strategy::uniform(4).unwrap();
    let proportional = Strategy::proportional(f.values()).unwrap();
    let population = Mixture::new(
        vec![star.clone(), uniform.clone(), proportional.clone()],
        vec![0.6, 0.25, 0.15],
    )
    .unwrap();
    let invaders = Mixture::new(vec![uniform, proportional], vec![0.7, 0.3]).unwrap();
    let ctx = PayoffContext::new(&Exclusive, k).unwrap();
    let config = InvasionConfig { matches: 60_000, seed: 31, shards: 16, epsilon: 0.5 };
    let mut reports: Vec<MixtureInvasionReport> = Vec::new();
    let mut barriers = Vec::new();
    for threads in [1usize, 8] {
        rayon::set_num_threads(threads);
        reports.push(run_invasion_mixture(&Exclusive, &f, &population, k, config).unwrap());
        barriers.push(invasion_barrier(&ctx, &f, &star, &invaders, 200).unwrap());
    }
    rayon::set_num_threads(0);
    let (a, b) = (&reports[0], &reports[1]);
    assert_eq!(a.type_payoffs.len(), 3);
    for (x, y) in a.type_payoffs.iter().zip(b.type_payoffs.iter()) {
        assert_eq!(
            (x.mean.to_bits(), x.ci95.to_bits(), x.n),
            (y.mean.to_bits(), y.ci95.to_bits(), y.n)
        );
    }
    for (x, y) in a.analytic_payoffs.iter().zip(b.analytic_payoffs.iter()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(barriers[0].to_bits(), barriers[1].to_bits());
    assert!(barriers[0] > 0.0, "sigma* must hold off a small mixed invasion");
}

#[test]
fn engine_replicator_ensemble_matches_itself() {
    // No env mutation here: determinism across *repeated* runs at
    // whatever thread count the harness is using.
    use dispersal_sim::replicator::{run_replicator_ensemble, ReplicatorConfig};
    let f = ValueProfile::new(vec![1.0, 0.4]).unwrap();
    let config = ReplicatorConfig { max_steps: 20_000, ..Default::default() };
    let a = run_replicator_ensemble(&Exclusive, &f, 2, 6, 11, config).unwrap();
    let b = run_replicator_ensemble(&Exclusive, &f, 2, 6, 11, config).unwrap();
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.steps, y.steps);
        assert_eq!(x.state.prob(0).to_bits(), y.state.prob(0).to_bits());
    }
}
