//! Time-varying traffic scenarios: site values drift, oscillate, or
//! shock over an epoch schedule while the population dynamics track the
//! moving equilibrium.
//!
//! A [`Scenario`] is a base [`ValueProfile`] plus a list of
//! [`TrafficEvent`]s; [`Scenario::values_at`] materializes the *physical*
//! (site-indexed) value vector of any epoch. Because [`ValueProfile`]
//! requires non-increasing values, each epoch also carries a sorted frame
//! ([`EpochProfile`]): the values sorted descending together with the
//! permutation back to physical sites. The replicator driver integrates
//! in the sorted frame and remaps the population state across epochs, so
//! a site that decays below its neighbour is handled exactly; the Moran
//! driver works on raw physical rewards and needs no sorting at all.
//!
//! Determinism: the replicator path is RNG-free; the ensemble driver runs
//! through [`engine::par_map_seeded`] on the persistent pool, so results
//! are bit-identical at any `RAYON_NUM_THREADS`; the Moran path consumes
//! one seeded stream exactly like [`crate::moran::run_moran`].

use crate::engine;
use crate::moran::{MoranConfig, MoranEngine};
use crate::replicator::{run_replicator, ReplicatorConfig};
use crate::rng::Seed;
use dispersal_core::ifd::solve_ifd_allow_degenerate;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Congestion;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};
use rand::Rng;

/// One source of traffic variation. All events act multiplicatively on
/// the base values, so any combination keeps every site value strictly
/// positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficEvent {
    /// A staggered daily cycle: site `x` is scaled by
    /// `1 + amplitude·sin(2π·(epoch/period + x/m))`. The per-site phase
    /// shift models rush hours sweeping across sites, so the equilibrium
    /// genuinely moves instead of merely rescaling.
    Daily {
        /// Oscillation strength, `|amplitude| < 1` (keeps values positive).
        amplitude: f64,
        /// Cycle length in epochs (`≥ 1`).
        period: u64,
    },
    /// Compound per-epoch drift on one site: scaled by `(1 + rate)^epoch`
    /// (`rate > −1`); negative rates model a site slowly closing down.
    Drift {
        /// Physical site index.
        site: usize,
        /// Per-epoch growth rate.
        rate: f64,
    },
    /// A persistent step change: from `epoch` onward, `site` is scaled by
    /// `factor > 0` (a road closure, a new attraction).
    Shock {
        /// First epoch at which the shock applies.
        epoch: u64,
        /// Physical site index.
        site: usize,
        /// Multiplicative factor.
        factor: f64,
    },
}

/// A schedule of time-varying site values: base profile, epoch count,
/// and the events that perturb it.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    base: ValueProfile,
    epochs: u64,
    events: Vec<TrafficEvent>,
}

/// One epoch's values in both frames: physical (site-indexed) and sorted
/// (the [`ValueProfile`] contract), plus the permutation between them.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProfile {
    /// Values in physical site order.
    pub values: Vec<f64>,
    /// The same values sorted non-increasing.
    pub profile: ValueProfile,
    /// `order[rank] = physical site index`; ties break by site index, so
    /// the permutation is deterministic.
    pub order: Vec<usize>,
}

impl Scenario {
    /// Build a scenario; events are validated against the base profile.
    pub fn new(base: ValueProfile, epochs: u64, events: Vec<TrafficEvent>) -> Result<Self> {
        if epochs == 0 {
            return Err(Error::InvalidArgument("scenario needs at least one epoch".into()));
        }
        let m = base.len();
        for event in &events {
            match *event {
                TrafficEvent::Daily { amplitude, period } => {
                    if !amplitude.is_finite() || amplitude.abs() >= 1.0 {
                        return Err(Error::InvalidArgument(format!(
                            "daily amplitude must satisfy |a| < 1, got {amplitude}"
                        )));
                    }
                    if period == 0 {
                        return Err(Error::InvalidArgument(
                            "daily period must be at least one epoch".into(),
                        ));
                    }
                }
                TrafficEvent::Drift { site, rate } => {
                    if site >= m {
                        return Err(Error::InvalidArgument(format!(
                            "drift site {site} out of range for {m} sites"
                        )));
                    }
                    if !rate.is_finite() || rate <= -1.0 {
                        return Err(Error::InvalidArgument(format!(
                            "drift rate must be finite and > -1, got {rate}"
                        )));
                    }
                }
                TrafficEvent::Shock { site, factor, .. } => {
                    if site >= m {
                        return Err(Error::InvalidArgument(format!(
                            "shock site {site} out of range for {m} sites"
                        )));
                    }
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(Error::InvalidArgument(format!(
                            "shock factor must be finite and positive, got {factor}"
                        )));
                    }
                }
            }
        }
        Ok(Self { base, epochs, events })
    }

    /// The unperturbed base profile.
    #[inline]
    pub fn base(&self) -> &ValueProfile {
        &self.base
    }

    /// Number of epochs in the schedule.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Number of sites.
    #[inline]
    pub fn sites(&self) -> usize {
        self.base.len()
    }

    /// The scheduled events.
    #[inline]
    pub fn events(&self) -> &[TrafficEvent] {
        &self.events
    }

    /// Site values of `epoch` in **physical** order: the base values with
    /// every event's multiplicative factor applied. Always strictly
    /// positive by the event validation.
    pub fn values_at(&self, epoch: u64) -> Vec<f64> {
        let m = self.base.len();
        let mut values = self.base.values().to_vec();
        for event in &self.events {
            match *event {
                TrafficEvent::Daily { amplitude, period } => {
                    for (x, v) in values.iter_mut().enumerate() {
                        let phase = epoch as f64 / period as f64 + x as f64 / m as f64;
                        *v *= 1.0 + amplitude * (std::f64::consts::TAU * phase).sin();
                    }
                }
                TrafficEvent::Drift { site, rate } => {
                    values[site] *= (1.0 + rate).powf(epoch as f64);
                }
                TrafficEvent::Shock { epoch: at, site, factor } => {
                    if epoch >= at {
                        values[site] *= factor;
                    }
                }
            }
        }
        values
    }

    /// The sorted frame of `epoch`: values as a [`ValueProfile`] plus the
    /// rank → physical-site permutation.
    pub fn epoch_profile(&self, epoch: u64) -> Result<EpochProfile> {
        let values = self.values_at(epoch);
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
        let profile = ValueProfile::new(order.iter().map(|&p| values[p]).collect())?;
        Ok(EpochProfile { values, profile, order })
    }
}

/// One epoch of replicator tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: u64,
    /// Site values of this epoch (physical order).
    pub values: Vec<f64>,
    /// Tracked population state at the end of the epoch (physical order).
    pub state: Vec<f64>,
    /// `L∞` distance of the tracked state to the epoch's own equilibrium
    /// (IFD of the frozen values) — how well the dynamics keep up.
    pub ifd_distance: f64,
    /// Replicator steps spent inside the epoch.
    pub steps: usize,
    /// Whether the intra-epoch integration reached its velocity tolerance.
    pub converged: bool,
}

/// Result of replicator tracking over a whole scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// One record per epoch, in schedule order.
    pub records: Vec<EpochRecord>,
    /// Final population state (physical order).
    pub final_state: Strategy,
}

impl ScenarioRun {
    /// The worst per-epoch equilibrium-tracking distance.
    pub fn worst_distance(&self) -> f64 {
        self.records.iter().fold(0.0f64, |a, r| a.max(r.ifd_distance))
    }
}

/// Track the moving equilibrium with replicator dynamics: each epoch
/// freezes the scenario's values, warm-starts the replicator ODE from
/// the previous epoch's population state (permuted into the epoch's
/// sorted frame), integrates under `config`, and records the distance to
/// the epoch's own IFD. RNG-free and single-pass — bit-identical at any
/// thread count by construction.
///
/// `explore ∈ [0, 1)` is the exploration floor applied at every epoch
/// boundary after the first: the warm start is mixed with the uniform
/// strategy at that rate. Pure replicator dynamics preserve extinction —
/// a site driven to (numerically) zero mass under one epoch's values can
/// never be recolonized when a later shock makes it the best site — so a
/// small floor (`1e-4` is plenty) models the mutation/immigration term
/// that keeps tracking possible. Pass `0.0` for the unmodified dynamics.
pub fn run_scenario_replicator(
    c: &dyn Congestion,
    scenario: &Scenario,
    start: &Strategy,
    k: usize,
    explore: f64,
    config: ReplicatorConfig,
) -> Result<ScenarioRun> {
    if start.len() != scenario.sites() {
        return Err(Error::DimensionMismatch { strategy: start.len(), profile: scenario.sites() });
    }
    if !explore.is_finite() || !(0.0..1.0).contains(&explore) {
        return Err(Error::InvalidArgument(format!(
            "exploration floor must be in [0, 1), got {explore}"
        )));
    }
    let m = scenario.sites();
    let uniform = Strategy::uniform(m)?;
    let mut state = start.clone();
    let mut records = Vec::with_capacity(scenario.epochs() as usize);
    for epoch in 0..scenario.epochs() {
        if epoch > 0 && explore > 0.0 {
            state = state.mix(&uniform, explore)?;
        }
        let frame = scenario.epoch_profile(epoch)?;
        let sorted_start = Strategy::new(frame.order.iter().map(|&p| state.prob(p)).collect())?;
        let run = run_replicator(c, &frame.profile, &sorted_start, k, config)?;
        let ifd = solve_ifd_allow_degenerate(c, &frame.profile, k)?;
        let ifd_distance = run.state.linf_distance(&ifd.strategy)?;
        let mut physical = vec![0.0; m];
        for (rank, &p) in frame.order.iter().enumerate() {
            physical[p] = run.state.prob(rank);
        }
        state = Strategy::new(physical)?;
        records.push(EpochRecord {
            epoch,
            values: frame.values,
            state: state.probs().to_vec(),
            ifd_distance,
            steps: run.steps,
            converged: run.converged,
        });
    }
    Ok(ScenarioRun { records, final_state: state })
}

/// Replicator tracking from `count` random interior starts, sharded over
/// the persistent pool via [`engine::par_map_seeded`]: start `i` draws
/// from deterministic stream `i + 1` of `seed`, so the ensemble is
/// bit-reproducible at any thread count. Runs return in start order.
pub fn run_scenario_replicator_ensemble(
    c: &dyn Congestion,
    scenario: &Scenario,
    k: usize,
    count: usize,
    seed: u64,
    explore: f64,
    config: ReplicatorConfig,
) -> Result<Vec<ScenarioRun>> {
    if count == 0 {
        return Err(Error::InvalidArgument("ensemble needs at least one start".into()));
    }
    let m = scenario.sites();
    engine::par_map_seeded((0..count).collect(), seed, |_: usize, rng| {
        let weights: Vec<f64> = (0..m).map(|_| 0.05 + rng.gen::<f64>()).collect();
        let start = Strategy::from_weights(weights)?;
        run_scenario_replicator(c, scenario, &start, k, explore, config)
    })
}

/// One epoch of finite-population Moran tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct MoranEpochRecord {
    /// Epoch index.
    pub epoch: u64,
    /// Site values of this epoch (physical order).
    pub values: Vec<f64>,
    /// Post-burn-in mean site frequencies inside the epoch.
    pub frequencies: Vec<f64>,
}

/// Result of Moran tracking over a whole scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMoranRun {
    /// One record per epoch, in schedule order.
    pub records: Vec<MoranEpochRecord>,
    /// Final population composition (individuals per site).
    pub final_counts: Vec<usize>,
}

/// Track the moving equilibrium with a finite population: one Moran
/// process whose population **persists across epochs** while the reward
/// matrix follows the scenario's values (physical order — the Moran
/// kernel needs no sorted frame). Each epoch runs `config.generations`
/// birth–death events and records post-burn-in mean frequencies.
/// Deterministic for a given seed: a single RNG stream threads the whole
/// schedule.
pub fn run_scenario_moran(
    c: &dyn Congestion,
    scenario: &Scenario,
    k: usize,
    config: MoranConfig,
) -> Result<ScenarioMoranRun> {
    if config.population < k.max(2) {
        return Err(Error::InvalidArgument(format!(
            "population {} must be at least max(k, 2) = {}",
            config.population,
            k.max(2)
        )));
    }
    if !(0.0..=1.0).contains(&config.mutation) {
        return Err(Error::InvalidArgument(format!(
            "mutation must be in [0,1], got {}",
            config.mutation
        )));
    }
    if config.burn_in >= config.generations {
        return Err(Error::InvalidArgument(format!(
            "burn_in {} must be below generations {}",
            config.burn_in, config.generations
        )));
    }
    let ctx = PayoffContext::new(c, k)?;
    let c_table = ctx.c_table();
    let m = scenario.sites();
    let n = config.population;
    let mut rng = Seed(config.seed).rng();
    let mut sites: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
    let rewards_at = |values: &[f64]| -> Vec<f64> {
        let mut rewards = vec![0.0; m * k];
        for (x, &v) in values.iter().enumerate() {
            for (ell, &cl) in c_table.iter().enumerate() {
                rewards[x * k + ell] = v * cl;
            }
        }
        rewards
    };
    let mut engine = MoranEngine::new(m, n, k, rewards_at(&scenario.values_at(0)));
    let mut records = Vec::with_capacity(scenario.epochs() as usize);
    for epoch in 0..scenario.epochs() {
        let values = scenario.values_at(epoch);
        if epoch > 0 {
            engine.set_rewards(rewards_at(&values));
        }
        let mut freq_acc = vec![0.0f64; m];
        let mut recorded = 0u64;
        for generation in 0..config.generations {
            engine.generation(&config, &mut sites, &mut rng);
            if generation >= config.burn_in {
                recorded += 1;
                for &s in &sites {
                    freq_acc[s] += 1.0;
                }
            }
        }
        let norm = (recorded as f64) * (n as f64);
        records.push(MoranEpochRecord {
            epoch,
            values,
            frequencies: freq_acc.iter().map(|&x| x / norm).collect(),
        });
    }
    let mut final_counts = vec![0usize; m];
    for &s in &sites {
        final_counts[s] += 1;
    }
    Ok(ScenarioMoranRun { records, final_counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::ifd::solve_ifd;
    use dispersal_core::policy::{Exclusive, Sharing};

    fn base() -> ValueProfile {
        ValueProfile::new(vec![1.0, 0.7, 0.4]).unwrap()
    }

    #[test]
    fn validates_events_and_epochs() {
        assert!(Scenario::new(base(), 0, vec![]).is_err());
        let bad = [
            TrafficEvent::Daily { amplitude: 1.0, period: 8 },
            TrafficEvent::Daily { amplitude: 0.2, period: 0 },
            TrafficEvent::Drift { site: 3, rate: 0.01 },
            TrafficEvent::Drift { site: 0, rate: -1.0 },
            TrafficEvent::Shock { epoch: 2, site: 3, factor: 0.5 },
            TrafficEvent::Shock { epoch: 2, site: 0, factor: 0.0 },
        ];
        for event in bad {
            assert!(Scenario::new(base(), 10, vec![event]).is_err(), "{event:?} accepted");
        }
        let ok = Scenario::new(
            base(),
            10,
            vec![
                TrafficEvent::Daily { amplitude: 0.3, period: 8 },
                TrafficEvent::Drift { site: 1, rate: -0.05 },
                TrafficEvent::Shock { epoch: 5, site: 2, factor: 2.0 },
            ],
        )
        .unwrap();
        assert_eq!(ok.epochs(), 10);
        assert_eq!(ok.sites(), 3);
        assert_eq!(ok.events().len(), 3);
    }

    #[test]
    fn values_follow_the_schedule_and_stay_positive() {
        let scenario = Scenario::new(
            base(),
            12,
            vec![
                TrafficEvent::Daily { amplitude: 0.5, period: 6 },
                TrafficEvent::Drift { site: 1, rate: -0.1 },
                TrafficEvent::Shock { epoch: 4, site: 2, factor: 3.0 },
            ],
        )
        .unwrap();
        // Epoch 0: daily sin at phase x/m only, drift^0 = 1, no shock yet.
        let v0 = scenario.values_at(0);
        assert!(v0.iter().all(|&v| v > 0.0 && v.is_finite()));
        // The shock lands at epoch 4 and persists.
        let before = scenario.values_at(3);
        let after = scenario.values_at(4);
        assert!(after[2] > 2.0 * before[2], "shock missing: {before:?} -> {after:?}");
        // Drift compounds: site 1 decays relative to its base share.
        let late = scenario.values_at(11);
        assert!(late[1] / base().value(1) < 0.5);
        assert!(late.iter().all(|&v| v > 0.0));
        // The sorted frame is a true permutation of the physical values.
        let frame = scenario.epoch_profile(11).unwrap();
        let mut sorted = frame.values.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        assert_eq!(frame.profile.values(), &sorted[..]);
        for (rank, &p) in frame.order.iter().enumerate() {
            assert_eq!(frame.profile.value(rank).to_bits(), frame.values[p].to_bits());
        }
    }

    #[test]
    fn static_scenario_reduces_to_plain_replicator() {
        // With no events every epoch is the base profile (already sorted),
        // so epoch 0 must reproduce run_replicator bit for bit.
        let scenario = Scenario::new(base(), 2, vec![]).unwrap();
        let start = Strategy::uniform(3).unwrap();
        let config = ReplicatorConfig { max_steps: 20_000, ..Default::default() };
        let tracked =
            run_scenario_replicator(&Exclusive, &scenario, &start, 3, 0.0, config).unwrap();
        assert!(run_scenario_replicator(&Exclusive, &scenario, &start, 3, 1.0, config).is_err());
        assert!(run_scenario_replicator(&Exclusive, &scenario, &start, 3, -0.1, config).is_err());
        let plain = run_replicator(&Exclusive, &base(), &start, 3, config).unwrap();
        assert_eq!(tracked.records[0].steps, plain.steps);
        for (a, b) in tracked.records[0].state.iter().zip(plain.state.probs().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn replicator_tracks_the_moving_equilibrium() {
        let scenario = Scenario::new(
            base(),
            8,
            vec![
                TrafficEvent::Daily { amplitude: 0.25, period: 8 },
                TrafficEvent::Shock { epoch: 4, site: 2, factor: 2.5 },
            ],
        )
        .unwrap();
        let k = 3;
        let start = Strategy::uniform(3).unwrap();
        let config = ReplicatorConfig { velocity_tol: 1e-10, ..Default::default() };
        let run = run_scenario_replicator(&Sharing, &scenario, &start, k, 1e-6, config).unwrap();
        assert_eq!(run.records.len(), 8);
        // Converged epochs sit on the epoch equilibrium even though it
        // moves (including across the epoch-4 value-order flip).
        for record in &run.records {
            assert!(record.converged, "epoch {} failed to settle", record.epoch);
            assert!(
                record.ifd_distance < 1e-4,
                "epoch {}: distance {}",
                record.epoch,
                record.ifd_distance
            );
            let sum: f64 = record.state.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert!(run.worst_distance() < 1e-4);
        // The shock makes site 2 the best site; the tracked population
        // must follow it across the sorted-frame flip.
        let ep5 = &run.records[5];
        assert!(
            ep5.state[2] > run.records[3].state[2],
            "population did not move toward the shocked site"
        );
        // And the final state matches the last epoch's own equilibrium.
        let last = scenario.epoch_profile(7).unwrap();
        let ifd = solve_ifd(&Sharing, &last.profile, k).unwrap();
        let sorted_final =
            Strategy::new(last.order.iter().map(|&p| run.final_state.prob(p)).collect()).unwrap();
        assert!(sorted_final.linf_distance(&ifd.strategy).unwrap() < 1e-4);
    }

    #[test]
    fn replicator_ensemble_is_deterministic_and_ordered() {
        let scenario =
            Scenario::new(base(), 3, vec![TrafficEvent::Daily { amplitude: 0.2, period: 3 }])
                .unwrap();
        let config = ReplicatorConfig { max_steps: 30_000, ..Default::default() };
        let a = run_scenario_replicator_ensemble(&Exclusive, &scenario, 3, 6, 99, 1e-6, config)
            .unwrap();
        let b = run_scenario_replicator_ensemble(&Exclusive, &scenario, 3, 6, 99, 1e-6, config)
            .unwrap();
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(b.iter()) {
            for (rx, ry) in x.records.iter().zip(y.records.iter()) {
                assert_eq!(rx.steps, ry.steps);
                for (p, q) in rx.state.iter().zip(ry.state.iter()) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
        assert!(
            run_scenario_replicator_ensemble(&Exclusive, &scenario, 3, 0, 99, 0.0, config).is_err()
        );
    }

    #[test]
    fn moran_population_persists_and_follows_a_shock() {
        let scenario = Scenario::new(
            ValueProfile::new(vec![1.0, 0.5]).unwrap(),
            2,
            // Epoch 1 makes site 1 four times better than site 0.
            vec![TrafficEvent::Shock { epoch: 1, site: 1, factor: 8.0 }],
        )
        .unwrap();
        let config = MoranConfig {
            population: 120,
            generations: 8_000,
            burn_in: 4_000,
            rounds_per_generation: 2,
            selection: 6.0,
            mutation: 0.01,
            seed: 31,
        };
        let run = run_scenario_moran(&Exclusive, &scenario, 2, config).unwrap();
        assert_eq!(run.records.len(), 2);
        assert_eq!(run.final_counts.iter().sum::<usize>(), 120);
        for record in &run.records {
            let total: f64 = record.frequencies.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        // Before the shock the population favors site 0; after, site 1.
        assert!(run.records[0].frequencies[0] > run.records[0].frequencies[1]);
        assert!(run.records[1].frequencies[1] > run.records[1].frequencies[0]);
        // Deterministic given the seed.
        let again = run_scenario_moran(&Exclusive, &scenario, 2, config).unwrap();
        assert_eq!(run.final_counts, again.final_counts);
        for (a, b) in run.records.iter().zip(again.records.iter()) {
            for (x, y) in a.frequencies.iter().zip(b.frequencies.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Config validation mirrors run_moran.
        let bad = MoranConfig { population: 1, ..config };
        assert!(run_scenario_moran(&Exclusive, &scenario, 2, bad).is_err());
        let bad = MoranConfig { mutation: 2.0, ..config };
        assert!(run_scenario_moran(&Exclusive, &scenario, 2, bad).is_err());
        let bad = MoranConfig { burn_in: 8_000, ..config };
        assert!(run_scenario_moran(&Exclusive, &scenario, 2, bad).is_err());
    }
}
