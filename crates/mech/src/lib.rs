//! # dispersal-mech
//!
//! Mechanism-design layer over the dispersal game: the tooling a designer
//! would use to pick a congestion policy.
//!
//! * [`catalog`] — named policy catalog + command-line spec parser.
//! * [`evaluator`] — one-call policy scorecards (equilibrium coverage,
//!   optimal coverage, SPoA, welfare, ESS probe).
//! * [`adversarial`] — parallel hill-climbing search over value profiles to
//!   lower-bound `SPoA(C)` (Theorem 6 witnesses).
//! * [`kleinberg_oren`] — the reward-design baseline of \[23\], implemented
//!   to exhibit the contrasts the paper draws (needs `k`, needs mutable
//!   rewards).
//! * [`scoring`] — scorecards for *table-specified* mechanisms (the rows
//!   of a search's `GBatch` tile), commensurable with the catalog
//!   evaluator, plus the Kleinberg–Oren baseline on the same welfare axis.
//! * [`report`] — CSV / ASCII-plot / Markdown emitters for the experiment
//!   binaries.

#![warn(missing_docs)]

pub mod adversarial;
pub mod catalog;
pub mod evaluator;
pub mod kleinberg_oren;
pub mod report;
pub mod robustness;
pub mod scoring;

/// Common imports for mechanism-design workflows.
pub mod prelude {
    pub use crate::adversarial::{adversarial_spoa, AdversarialConfig, AdversarialResult};
    pub use crate::catalog::{parse_policy, parse_profile, standard_catalog, NamedPolicy};
    pub use crate::evaluator::{evaluate_catalog, evaluate_policy, PolicyEvaluation};
    pub use crate::kleinberg_oren::{design_rewards, verify_design, RewardDesign};
    pub use crate::report::{ascii_plot, markdown_table, to_csv, Series};
    pub use crate::robustness::{
        k_misspecification_curve, value_noise_robustness, KMisspecPoint, NoiseRobustness,
    };
    pub use crate::scoring::{
        kleinberg_oren_score, score_catalog, score_table, KleinbergOrenScore, MechScore,
    };
}
