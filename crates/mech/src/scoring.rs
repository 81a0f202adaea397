//! Scoring *table-specified* congestion mechanisms — the evaluation
//! back end of the mechanism-space search in `dispersal-search`.
//!
//! The search proposes candidate mechanisms as coefficient tables
//! `[C(1), …, C(k)]` (the rows of a policy-major `GBatch` tile). This
//! module turns one such row into the same scorecard
//! [`crate::evaluator::evaluate_policy`] produces for catalog entries —
//! equilibrium coverage (the welfare measure), SPoA, equilibrium payoff,
//! and an ESS feasibility margin — so searched mechanisms and hand-written
//! catalog entries are compared by *identical* code paths. ESS margins run
//! through [`dispersal_core::ess::probe_ess_k`], whose ledger evaluator
//! builds the resident's binomial tables once and walks each mutant's
//! ledger only as far as its verdict needs. The welfare optimum is the
//! same for every mechanism on `(profile, k)`, so [`score_table`] takes its
//! coverage from the caller, which computes it once per catalog or search.
//!
//! Determinism contract: for a fixed `(table, profile, k, optimal
//! coverage, ess_mutants, ess_seed)` the returned score is bit-identical
//! regardless of thread count — nothing here reads ambient state, and the
//! ESS probe draws its mutants from a `ChaCha8Rng` seeded with `ess_seed`
//! alone.

use dispersal_core::coverage::coverage;
use dispersal_core::ess::probe_ess_k;
use dispersal_core::ifd::solve_ifd_allow_degenerate;
use dispersal_core::optimal::optimal_coverage;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::{Sharing, TableCongestion};
use dispersal_core::sigma_star::sigma_star;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_core::Result;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Scorecard for one table-specified mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct MechScore {
    /// Mechanism label (family spec or catalog name).
    pub name: String,
    /// Player count scored at.
    pub k: usize,
    /// Welfare: value-weighted coverage of the equilibrium (the paper's
    /// social objective — expected value discovered by the group).
    pub welfare: f64,
    /// Coverage of the welfare-optimal symmetric strategy (same for every
    /// mechanism; the SPoA numerator).
    pub optimal_coverage: f64,
    /// Selfish price of anarchy `optimal / equilibrium` coverage.
    pub spoa: f64,
    /// Common equilibrium payoff per player.
    pub equilibrium_payoff: f64,
    /// Equilibrium support size.
    pub support: usize,
    /// Worst resident-vs-mutant margin over the probed mutants
    /// (`+∞` means every probe was repelled by a wide margin; negative
    /// means an invasion was found). `0.0` when no probe ran.
    pub ess_margin: f64,
    /// Whether the equilibrium repelled every probed mutant. Degenerate
    /// mechanisms (constant `C`) are never certified.
    pub ess_passed: bool,
}

/// Score the mechanism given by `table = [C(1), …, C(k)]` on `f`.
///
/// `optimal_coverage` is `optimal_coverage(f, k)?.coverage`, the SPoA
/// numerator every mechanism on `(f, k)` shares: callers scoring many
/// tables compute it once ([`score_catalog`] and the mechanism search
/// do). `ess_mutants` random mutant strategies (drawn from a `ChaCha8Rng`
/// seeded with `ess_seed`) probe the equilibrium for invasions; pass `0`
/// to skip the probe (then `ess_passed` is `false` — an unprobed
/// mechanism is not certified).
pub fn score_table(
    name: &str,
    table: &[f64],
    f: &ValueProfile,
    k: usize,
    optimal_coverage: f64,
    ess_mutants: usize,
    ess_seed: u64,
) -> Result<MechScore> {
    let policy = TableCongestion::new(table.to_vec(), name)?;
    let ifd = solve_ifd_allow_degenerate(&policy, f, k)?;
    let welfare = coverage(f, &ifd.strategy, k)?;
    let ctx = PayoffContext::new(&policy, k)?;
    let equilibrium_payoff = ctx.symmetric_payoff(f, &ifd.strategy)?;
    let degenerate = ctx.is_degenerate();
    let (ess_passed, ess_margin) = if ess_mutants > 0 && k >= 2 && !degenerate {
        let mut rng = ChaCha8Rng::seed_from_u64(ess_seed);
        let report = probe_ess_k(&policy, f, &ifd.strategy, ess_mutants, &mut rng, k)?;
        (report.passed(), report.worst_margin)
    } else {
        (false, 0.0)
    };
    Ok(MechScore {
        name: name.to_string(),
        k,
        welfare,
        optimal_coverage,
        spoa: if welfare > 0.0 { optimal_coverage / welfare } else { f64::INFINITY },
        equilibrium_payoff,
        support: ifd.support,
        ess_margin,
        ess_passed,
    })
}

/// Score every catalog entry through the *same* pipeline as
/// [`score_table`] (via `validate_congestion`-expanded tables), so the
/// search's certificate and the catalog baseline are numerically
/// commensurable — identical mechanisms produce bit-identical welfare.
/// The optimum is computed once for the whole catalog.
pub fn score_catalog(
    f: &ValueProfile,
    k: usize,
    ess_mutants: usize,
    ess_seed: u64,
) -> Result<Vec<MechScore>> {
    let optimal = optimal_coverage(f, k)?.coverage;
    crate::catalog::standard_catalog()
        .iter()
        .map(|named| {
            let table = dispersal_core::policy::validate_congestion(named.policy.as_ref(), k)?;
            score_table(&named.name, &table, f, k, optimal, ess_mutants, ess_seed)
        })
        .collect()
}

/// The Kleinberg–Oren reward-design baseline, scored on the same welfare
/// axis: steer the *sharing* policy's equilibrium onto the
/// coverage-optimal σ⋆ by redesigning per-site rewards, then measure the
/// coverage of the induced equilibrium against the TRUE values.
#[derive(Debug, Clone, PartialEq)]
pub struct KleinbergOrenScore {
    /// Welfare (true-value coverage) of the reward-induced equilibrium.
    pub welfare: f64,
    /// L∞ distance of the induced equilibrium from the σ⋆ target.
    pub design_error: f64,
    /// The player count the design is hard-wired to (the contrast with a
    /// congestion mechanism, which needs no such knowledge).
    pub k: usize,
}

/// Run the Kleinberg–Oren construction for `(f, k)` and score it.
pub fn kleinberg_oren_score(f: &ValueProfile, k: usize) -> Result<KleinbergOrenScore> {
    let target: Strategy = sigma_star(f, k)?.strategy;
    let design = crate::kleinberg_oren::design_rewards(&Sharing, &target, k, 1.0)?;
    let induced = dispersal_core::ifd::solve_ifd(&Sharing, &design.rewards, design.k)?;
    let welfare = coverage(f, &induced.strategy, k)?;
    let design_error = induced.strategy.linf_distance(&target)?;
    Ok(KleinbergOrenScore { welfare, design_error, k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::evaluate_policy;
    use dispersal_core::policy::{validate_congestion, Exclusive};

    fn profile() -> ValueProfile {
        ValueProfile::zipf(10, 1.0, 1.0).unwrap()
    }

    #[test]
    fn exclusive_table_matches_policy_evaluator_bits() {
        // The scorer must agree with the catalog evaluator on identical
        // mechanisms: same IFD pipeline, same numbers.
        let f = profile();
        let k = 4;
        let table = validate_congestion(&Exclusive, k).unwrap();
        let opt = optimal_coverage(&f, k).unwrap().coverage;
        let score = score_table("exclusive", &table, &f, k, opt, 0, 0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let eval = evaluate_policy("exclusive", &Exclusive, &f, k, 0, &mut rng).unwrap();
        assert_eq!(score.welfare.to_bits(), eval.equilibrium_coverage.to_bits());
        assert_eq!(score.optimal_coverage.to_bits(), eval.optimal_coverage.to_bits());
        assert_eq!(score.spoa.to_bits(), eval.spoa.to_bits());
        assert_eq!(score.support, eval.ifd_support);
    }

    #[test]
    fn exclusive_passes_ess_probe_with_positive_margin_pipeline() {
        let f = profile();
        let opt = optimal_coverage(&f, 4).unwrap().coverage;
        let table = validate_congestion(&Exclusive, 4).unwrap();
        let score = score_table("exclusive", &table, &f, 4, opt, 16, 7).unwrap();
        assert!(score.ess_passed, "exclusive is the paper's ESS: {score:?}");
        assert!(score.spoa < 1.0 + 1e-6, "exclusive has unit SPoA: {}", score.spoa);
    }

    #[test]
    fn degenerate_constant_table_is_never_certified() {
        let f = profile();
        let table = vec![1.0; 4];
        let opt = optimal_coverage(&f, 4).unwrap().coverage;
        let score = score_table("constant", &table, &f, 4, opt, 16, 7).unwrap();
        assert!(!score.ess_passed);
        assert_eq!(score.ess_margin, 0.0);
    }

    #[test]
    fn score_catalog_covers_every_entry_and_is_deterministic() {
        let f = profile();
        let a = score_catalog(&f, 4, 8, 11).unwrap();
        let b = score_catalog(&f, 4, 8, 11).unwrap();
        assert_eq!(a.len(), crate::catalog::standard_catalog().len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.welfare.to_bits(), y.welfare.to_bits());
            assert_eq!(x.ess_margin.to_bits(), y.ess_margin.to_bits());
        }
    }

    #[test]
    fn kleinberg_oren_reaches_near_optimal_welfare_but_needs_k() {
        let f = profile();
        let k = 4;
        let ko = kleinberg_oren_score(&f, k).unwrap();
        let opt = optimal_coverage(&f, k).unwrap().coverage;
        assert!(ko.design_error < 1e-6, "design error {}", ko.design_error);
        assert!(
            (ko.welfare - opt).abs() < 1e-4,
            "KO should hit ~optimal coverage: {} vs {opt}",
            ko.welfare
        );
        assert_eq!(ko.k, k);
    }
}
