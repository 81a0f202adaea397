//! # dispersal-sim
//!
//! Simulation substrate for the dispersal game of Collet & Korman (SPAA
//! 2018): the "supporting simulations" layer that validates the analytic
//! machinery of [`dispersal_core`] and probes its evolutionary claims
//! empirically.
//!
//! * [`engine`] — the unified parallel execution engine: seed-sharding
//!   plans, the [`Experiment`](engine::Experiment) trait, and mergeable
//!   accumulators shared by every stochastic workload.
//! * [`oneshot`] — a single play of the game: sampling, collisions,
//!   payoffs, realized coverage.
//! * [`montecarlo`] — parallel estimation of expected coverage and
//!   payoffs with deterministic per-shard RNG streams.
//! * [`replicator`] — replicator ODE for the k-player field game; its rest
//!   points are the IFD, and trajectories converge to σ⋆ under the
//!   exclusive policy.
//! * [`dynamics`] — logit best-response and fictitious play, alternative
//!   equilibrium-selection dynamics.
//! * [`invasion`] — finite-ε mutant-invasion experiments matching Eq. (3).
//! * [`moran`] — finite-population Moran process with k-group matching.
//! * [`scenario`] — time-varying traffic schedules tracked by replicator
//!   and Moran dynamics (the population-scale scenario engine).
//! * [`stats`] / [`rng`] — Welford statistics and forkable deterministic
//!   RNG streams.

#![warn(missing_docs)]

pub mod dynamics;
pub mod engine;
pub mod invasion;
pub mod montecarlo;
pub mod moran;
pub mod oneshot;
pub mod replicator;
pub mod rng;
pub mod scenario;
pub mod stats;
pub mod sweep;

/// Common imports for simulation workflows.
pub mod prelude {
    pub use crate::dynamics::{run_fictitious_play, run_logit, DynamicsConfig, DynamicsRun};
    pub use crate::engine::{self, Count, Experiment, Merge, ShardPlan, Sum};
    pub use crate::invasion::{
        run_invasion, run_invasion_mixture, InvasionConfig, InvasionReport, MixtureInvasionReport,
    };
    pub use crate::montecarlo::{estimate_symmetric, McConfig, McReport};
    pub use crate::moran::{run_moran, MoranConfig, MoranRun};
    pub use crate::oneshot::{OneShotGame, Outcome};
    pub use crate::replicator::{
        run_replicator, run_replicator_ensemble, ReplicatorConfig, ReplicatorRun,
    };
    pub use crate::rng::Seed;
    pub use crate::scenario::{
        run_scenario_moran, run_scenario_replicator, run_scenario_replicator_ensemble,
        EpochProfile, EpochRecord, MoranEpochRecord, Scenario, ScenarioMoranRun, ScenarioRun,
        TrafficEvent,
    };
    pub use crate::stats::{Estimate, Welford};
    pub use crate::sweep::{sweep_grid, SharedGridCache, SweepCell};
}
