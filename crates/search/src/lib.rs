//! # dispersal-search
//!
//! Bayesian parallel-search substrate: the treasure-hunt game of
//! Fraigniaud–Korman–Rodeh that the paper connects to σ⋆ ("algorithm σ⋆ is
//! actually identical to the first round of the algorithm A⋆ used in \[24\]",
//! Section 2.1).
//!
//! `k` searchers open boxes in parallel rounds, without coordination; a
//! treasure is hidden per a known prior. [`astar::IteratedSigmaStar`]
//! realizes the σ⋆-per-round reconstruction of A⋆ (round 1 is *exactly*
//! σ⋆, the property the paper uses); [`baselines`] supplies uniform,
//! prior-proportional, and deterministic-sweep comparators; [`game`]
//! evaluates plans analytically and by Monte Carlo.
//!
//! The crate also hosts the *mechanism-space* search: [`mech_space`]
//! defines parameterized congestion families as subdividable parameter
//! boxes, and [`parallel`] runs a shared-tree, wave-synchronous best-first
//! search over them (virtual-loss diversified, `GBatch`-tiled, bit-
//! deterministic at any thread count).

#![warn(missing_docs)]

pub mod analysis;
pub mod astar;
pub mod baselines;
pub mod game;
pub mod mech_space;
pub mod parallel;
pub mod plan;
pub mod prior;

/// Common imports for search workflows.
pub mod prelude {
    pub use crate::analysis::{speedup_curve, SpeedupPoint};
    pub use crate::astar::{sigma_star_unsorted, IteratedSigmaStar};
    pub use crate::baselines::{ProportionalPlan, SweepPlan, UniformPlan};
    pub use crate::game::{
        evaluate_plan, simulate_detection_time, simulate_detection_time_with_memory,
        SearchEvaluation,
    };
    pub use crate::mech_space::{root_boxes, MechFamily, MechPoint, ParamBox};
    pub use crate::parallel::{
        search_mechanisms, Certificate, Objective, SearchConfig, SearchOutcome,
    };
    pub use crate::plan::{SchedulePlan, SearchPlan};
    pub use crate::prior::Prior;
}
