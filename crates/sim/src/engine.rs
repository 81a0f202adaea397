//! The unified parallel execution engine behind every stochastic
//! experiment in this workspace.
//!
//! Before this module existed, `montecarlo`, `sweep`, `invasion`, and the
//! batch replicator each carried their own copy of the same three
//! responsibilities: splitting trials into shards, deriving a
//! deterministic RNG stream per shard, and merging per-shard accumulators
//! into a final answer. The engine centralizes all three:
//!
//! * [`ShardPlan`] — the seed-sharding contract. Trials are split into
//!   `shards` near-equal slices; shard `i` always draws from
//!   [`Seed::stream`]`(i + 1)` and runs its trials in a fixed order, so
//!   results are **bit-identical at any thread count** (the shard → stream
//!   mapping is the unit of reproducibility, not the thread).
//! * [`Experiment`] — config → sharded deterministic run → mergeable
//!   output. Implementations provide per-shard state (e.g. a sampler with
//!   scratch buffers) and a per-trial step; the engine owns the loop.
//! * [`Merge`] — mergeable accumulators ([`Welford`], [`Count`], [`Sum`],
//!   tuples, `Vec`) reduced over shards in shard order.
//!
//! Two entry points cover the workloads: [`run`] executes a trial-sharded
//! [`Experiment`]; [`par_map_seeded`] evaluates a fallible closure over a
//! work list with one deterministic stream per item (grid sweeps,
//! trajectory ensembles).

use crate::rng::Seed;
use crate::stats::Welford;
use dispersal_core::Result;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// An accumulator that can absorb another instance of itself.
///
/// Merging must be associative with [`Default`] as the identity, and the
/// engine always merges in shard order, so implementations need not be
/// commutative in floating point.
pub trait Merge {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);
}

impl Merge for Welford {
    fn merge(&mut self, other: Self) {
        Welford::merge(self, &other);
    }
}

impl<A: Merge, B: Merge> Merge for (A, B) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

impl<A: Merge, B: Merge, C: Merge> Merge for (A, B, C) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
        self.2.merge(other.2);
    }
}

impl<T> Merge for Vec<T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// Mergeable event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Count(pub u64);

impl Merge for Count {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// Mergeable running sum.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sum(pub f64);

impl Sum {
    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.0 += x;
    }
}

impl Merge for Sum {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// How a trial budget maps onto deterministic RNG streams.
///
/// This is the reproducibility contract shared by every sharded
/// experiment: shard `i` (0-based) runs [`ShardPlan::shard_trials`]`(i)`
/// trials against the stream [`Seed::stream`]`(i + 1)` (stream 0 is
/// reserved for non-sharded use). Changing the thread count never changes
/// which trial sees which random numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Total trials across all shards.
    pub trials: u64,
    /// Number of shards (≥ 1; more shards than threads is fine — keep it
    /// stable for reproducibility, since it changes the stream layout).
    pub shards: u64,
    /// Master seed.
    pub seed: u64,
}

impl ShardPlan {
    /// Build a plan; a zero shard count is bumped to 1.
    pub fn new(trials: u64, shards: u64, seed: u64) -> Self {
        Self { trials, shards: shards.max(1), seed }
    }

    /// Trials assigned to shard `index`: the remainder of
    /// `trials / shards` goes to the lowest-indexed shards.
    pub fn shard_trials(&self, index: u64) -> u64 {
        let per_shard = self.trials / self.shards;
        let remainder = self.trials % self.shards;
        per_shard + u64::from(index < remainder)
    }

    /// The deterministic RNG stream for shard `index`.
    pub fn shard_rng(&self, index: u64) -> ChaCha8Rng {
        Seed(self.seed).stream(index + 1)
    }
}

/// A sharded stochastic experiment: per-shard state, a per-trial step, and
/// a mergeable output. The engine owns sharding, streams, and reduction.
pub trait Experiment: Sync {
    /// Per-shard working state (samplers, scratch buffers, a game
    /// instance, …). Built once per shard, never shared across shards.
    type State;

    /// Mergeable per-shard accumulator.
    type Output: Merge + Default + Send;

    /// Build the working state for one shard. Called once on the driver
    /// thread to validate the configuration (so shards cannot fail), then
    /// once per shard on the workers.
    fn make_state(&self) -> Result<Self::State>;

    /// Run a single trial, folding its observation into `acc`.
    fn trial(&self, state: &mut Self::State, rng: &mut ChaCha8Rng, acc: &mut Self::Output);
}

/// Execute `exp` under `plan`: shards run in parallel, each on its own
/// deterministic stream, and their outputs merge in shard order.
pub fn run<E: Experiment>(exp: &E, plan: ShardPlan) -> Result<E::Output> {
    // Validate once up front so worker shards should not fail; if a
    // non-deterministic `make_state` fails anyway, the fallible collect
    // short-circuits the first shard error back to the caller as a typed
    // `Err` instead of panicking inside a pool worker.
    exp.make_state()?;
    let outputs: Vec<E::Output> = (0..plan.shards)
        .into_par_iter()
        .map(|shard| -> Result<E::Output> {
            let mut state = exp.make_state()?;
            let mut rng = plan.shard_rng(shard);
            let mut acc = E::Output::default();
            for _ in 0..plan.shard_trials(shard) {
                exp.trial(&mut state, &mut rng, &mut acc);
            }
            Ok(acc)
        })
        .collect::<Result<Vec<E::Output>>>()?;
    let mut total = E::Output::default();
    for output in outputs {
        total.merge(output);
    }
    Ok(total)
}

/// Evaluate `eval` over `items` in parallel, handing item `i` the
/// deterministic stream `i + 1` derived from `seed`. Order-preserving;
/// on failure the lowest-indexed `Err` is returned. Note that every item
/// still executes before an error surfaces (the pool evaluates the whole
/// batch, then the collect short-circuits), so an early config error is
/// not cheap — validate inputs before fanning out.
pub fn par_map_seeded<T, U, F>(items: Vec<T>, seed: u64, eval: F) -> Result<Vec<U>>
where
    T: Send,
    U: Send,
    F: Fn(T, &mut ChaCha8Rng) -> Result<U> + Sync,
{
    items
        .into_par_iter()
        .enumerate()
        .map(|(i, item)| {
            let mut rng = Seed(seed).stream(i as u64 + 1);
            eval(item, &mut rng)
        })
        .collect()
}

/// Evaluate `eval` over `items` in parallel with no randomness involved —
/// the deterministic sibling of [`par_map_seeded`] for pure computations
/// (analytic grids, batched kernels), which should not instantiate the
/// seed-sharding contract just to ignore it. Order-preserving; on failure
/// an `Err` is returned (the lowest-indexed one under the vendored
/// sequential-collect pool — registry rayon does not specify which; same
/// whole-batch caveat as [`par_map_seeded`]).
pub fn par_map<T, U, F>(items: Vec<T>, eval: F) -> Result<Vec<U>>
where
    T: Send,
    U: Send,
    F: Fn(T) -> Result<U> + Sync,
{
    items.into_par_iter().map(eval).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn shard_plan_distributes_remainder_to_low_shards() {
        let plan = ShardPlan::new(1_003, 10, 1);
        let total: u64 = (0..plan.shards).map(|s| plan.shard_trials(s)).sum();
        assert_eq!(total, 1_003);
        assert_eq!(plan.shard_trials(0), 101);
        assert_eq!(plan.shard_trials(2), 101);
        assert_eq!(plan.shard_trials(3), 100);
        // Zero shards is bumped to one catch-all shard.
        let one = ShardPlan::new(17, 0, 1);
        assert_eq!(one.shards, 1);
        assert_eq!(one.shard_trials(0), 17);
    }

    #[test]
    fn shard_streams_match_seed_streams() {
        let plan = ShardPlan::new(10, 4, 99);
        let mut a = plan.shard_rng(2);
        let mut b = Seed(99).stream(3);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn count_and_sum_merge() {
        let mut c = Count(2);
        let c2 = Count(1);
        c.merge(c2);
        assert_eq!(c, Count(3));
        let mut s = Sum::default();
        s.add(1.5);
        s.merge(Sum(2.5));
        assert_eq!(s, Sum(4.0));
        let mut pair = (Count(1), Sum(1.0));
        pair.merge((Count(2), Sum(2.0)));
        assert_eq!(pair, (Count(3), Sum(3.0)));
    }

    #[test]
    fn vec_merge_preserves_shard_order() {
        let mut v = vec![1, 2];
        v.merge(vec![3, 4]);
        assert_eq!(v, vec![1, 2, 3, 4]);
    }

    /// A toy experiment: sum one uniform draw per trial.
    struct UniformSum;

    impl Experiment for UniformSum {
        type State = ();
        type Output = (Count, Sum);

        fn make_state(&self) -> Result<()> {
            Ok(())
        }

        fn trial(&self, _: &mut (), rng: &mut ChaCha8Rng, acc: &mut Self::Output) {
            acc.0.merge(Count(1));
            acc.1.add(rng.gen::<f64>());
        }
    }

    #[test]
    fn run_is_deterministic_and_counts_all_trials() {
        let plan = ShardPlan::new(10_000, 16, 7);
        let (count, sum) = run(&UniformSum, plan).unwrap();
        assert_eq!(count, Count(10_000));
        // Mean of U(0,1) draws.
        assert!((sum.0 / 10_000.0 - 0.5).abs() < 0.02);
        let (count2, sum2) = run(&UniformSum, plan).unwrap();
        assert_eq!(count2, Count(10_000));
        assert_eq!(sum.0.to_bits(), sum2.0.to_bits());
    }

    #[test]
    fn run_output_is_independent_of_thread_count() {
        // rayon::set_num_threads, not env mutation: setenv while pool
        // workers of concurrently-running tests call getenv is UB.
        let plan = ShardPlan::new(5_000, 8, 3);
        let mut bits = Vec::new();
        for threads in [1, 2, 8] {
            rayon::set_num_threads(threads);
            let (_, sum) = run(&UniformSum, plan).unwrap();
            bits.push(sum.0.to_bits());
        }
        rayon::set_num_threads(0);
        assert_eq!(bits[0], bits[1]);
        assert_eq!(bits[0], bits[2]);
    }

    #[test]
    fn par_map_seeded_streams_are_per_item() {
        let items: Vec<u32> = (0..6).collect();
        let a = par_map_seeded(items.clone(), 5, |_, rng| Ok(rng.gen::<u64>())).unwrap();
        let b = par_map_seeded(items, 5, |_, rng| Ok(rng.gen::<u64>())).unwrap();
        assert_eq!(a, b);
        // Item i sees stream i + 1.
        assert_eq!(a[0], Seed(5).stream(1).gen::<u64>());
        assert_eq!(a[3], Seed(5).stream(4).gen::<u64>());
    }

    #[test]
    fn par_map_preserves_order_and_propagates_errors() {
        let out = par_map((0..100u32).collect(), |x| Ok(x * 2)).unwrap();
        assert_eq!(out, (0..100u32).map(|x| x * 2).collect::<Vec<_>>());
        let err = par_map(vec![1u32, 2, 3], |x| {
            if x == 2 {
                Err(dispersal_core::Error::InvalidArgument("boom".into()))
            } else {
                Ok(x)
            }
        });
        assert!(err.is_err());
    }

    #[test]
    fn par_map_seeded_fails_fast() {
        let out = par_map_seeded(vec![1u32, 2, 3], 0, |x, _| {
            if x == 2 {
                Err(dispersal_core::Error::InvalidArgument("boom".into()))
            } else {
                Ok(x)
            }
        });
        assert!(out.is_err());
    }
}
