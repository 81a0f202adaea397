//! # dispersal-core
//!
//! A faithful implementation of the dispersal game of Collet & Korman,
//! *"Intense Competition can Drive Selfish Explorers to Optimize Coverage"*
//! (SPAA 2018, arXiv:1805.01319).
//!
//! `k` selfish players simultaneously choose among `M` sites of values
//! `f(1) ≥ … ≥ f(M)` without coordination. A *congestion reward policy*
//! `I(x, ℓ) = f(x)·C(ℓ)` determines the payoff of each of the `ℓ` players
//! landing on site `x`. The group-level performance of a symmetric strategy
//! `p` is its expected *coverage* `Cover(p) = Σ_x f(x)(1 − (1 − p(x))^k)`.
//!
//! The paper's central findings, all of which this crate lets you verify
//! numerically:
//!
//! * the **exclusive policy** (`C(1) = 1`, `C(ℓ) = 0` for `ℓ ≥ 2`) has a
//!   unique symmetric equilibrium [`sigma_star::sigma_star`] which is an
//!   ESS ([`ess`]) **and** is the unique coverage-optimal symmetric
//!   strategy ([`optimal`]), so its price of anarchy is exactly 1
//!   ([`spoa`]);
//! * every other congestion policy has `SPoA > 1` (Theorem 6).
//!
//! ## Quick example
//!
//! ```
//! use dispersal_core::prelude::*;
//!
//! // Two players over two sites of values (1.0, 0.3) — the left panel of
//! // the paper's Figure 1.
//! let f = ValueProfile::new(vec![1.0, 0.3])?;
//! let k = 2;
//!
//! // The ESS / equilibrium of the exclusive policy ...
//! let star = sigma_star(&f, k)?;
//! // ... is exactly the coverage-optimal symmetric strategy (Theorem 4):
//! let opt = optimal_coverage(&f, k)?;
//! let gap = (coverage(&f, &star.strategy, k)? - opt.coverage).abs();
//! assert!(gap < 1e-9);
//!
//! // The sharing policy's equilibrium covers strictly less (Theorem 6):
//! let ifd_share = solve_ifd(&Sharing, &f, k)?;
//! assert!(coverage(&f, &ifd_share.strategy, k)? < opt.coverage);
//! # Ok::<(), dispersal_core::Error>(())
//! ```

#![warn(missing_docs)]

pub mod coverage;
pub mod error;
pub mod ess;
pub mod extensions;
pub mod ifd;
pub mod kernel;
pub mod numerics;
pub mod optimal;
pub mod payoff;
pub mod policy;
pub mod pure;
pub mod sigma_star;
pub mod simd;
pub mod simplex;
pub mod spoa;
pub mod strategy;
pub mod two_by_two;
pub mod value;
pub mod welfare;

pub use error::{Error, Result};

/// One-line imports for the common workflow.
pub mod prelude {
    pub use crate::coverage::{
        coverage, coverage_many, coverage_probs, coverage_profile, miss_mass, observation1_bound,
    };
    pub use crate::error::{Error, Result};
    pub use crate::ess::{invasion_barrier, probe_ess_k, EssReport, Mixture, MutantVerdict};
    pub use crate::extensions::{capacity_coverage, solve_ifd_with_costs, CostIfd};
    pub use crate::ifd::{solve_ifd, solve_ifd_allow_degenerate, Ifd};
    pub use crate::kernel::{GScratch, GTable, GridSpec};
    pub use crate::optimal::{optimal_coverage, optimal_coverage_gradient, OptimalCoverage};
    pub use crate::payoff::PayoffContext;
    pub use crate::policy::{
        Congestion, Constant, Cooperative, Exclusive, LinearDecay, PowerLaw, Sharing,
        TableCongestion, TwoLevel,
    };
    pub use crate::pure::{
        best_response_dynamics, enumerate_pure_equilibria, is_pure_nash, rosenthal_potential,
        PureEquilibria, PureProfile,
    };
    pub use crate::sigma_star::{sigma_star, SigmaStar};
    pub use crate::spoa::{spoa, spoa_supremum_search, SpoaPoint};
    pub use crate::strategy::{Strategy, StrategySampler};
    pub use crate::two_by_two::{solve_two_by_two, TwoByTwo};
    pub use crate::value::ValueProfile;
    pub use crate::welfare::{welfare_optimum, WelfareOptimum};
}
