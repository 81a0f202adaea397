//! Test-only oracle: the ESS verdict as `LedgerEvaluator::check` computed
//! it before the verdict became lazy — the full `k`-level ledger, then
//! `verdict_from_ledger` over all of it. `verdict_from_ledger` and the
//! `probe_ess_k` loop are kept verbatim apart from crate paths; the probe
//! feeds each mutant's public `LedgerEvaluator::ledger` to the verdict and
//! also returns the ledgers it judged, so a test can tell which reports
//! rest on physically possible ledgers.
//!
//! Shared by `tests/ess_verdict_equivalence.rs` and the `ess` bench's
//! `--quick` guard, which times the lazy probe against this one.

use dispersal_core::error::Result;
use dispersal_core::ess::{EssLedger, EssReport, LedgerEvaluator, MutantVerdict, ESS_TOL};
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::Congestion;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use rand::Rng;

/// Derive the characterization verdict from a computed ledger.
pub fn verdict_from_ledger(ledger: &EssLedger) -> MutantVerdict {
    let scale = ledger
        .resident
        .iter()
        .chain(ledger.mutant.iter())
        .fold(0.0f64, |acc, v| acc.max(v.abs()))
        .max(1.0);
    for (ell, (res, mu)) in ledger.resident.iter().zip(ledger.mutant.iter()).enumerate() {
        let diff = res - mu;
        if diff > ESS_TOL * scale {
            return MutantVerdict::Repelled { m: ell, margin: diff };
        }
        if diff < -ESS_TOL * scale {
            return MutantVerdict::Invades { level: ell, deficit: -diff };
        }
    }
    MutantVerdict::Indistinguishable
}

/// `probe_ess_k` with every verdict taken from the full ledger; also
/// returns the ledger of every mutant tested, in probe order.
pub fn probe_ess_k<R: Rng + ?Sized>(
    c: &dyn Congestion,
    f: &ValueProfile,
    sigma: &Strategy,
    random_mutants: usize,
    rng: &mut R,
    k: usize,
) -> Result<(EssReport, Vec<EssLedger>)> {
    let ctx = PayoffContext::new(c, k)?;
    let m = f.len();
    let mut mutants: Vec<Strategy> = Vec::new();
    for site in 0..m {
        mutants.push(Strategy::delta(m, site)?);
    }
    mutants.push(Strategy::uniform(m)?);
    mutants.push(Strategy::proportional(f.values())?);
    for top in 1..=m {
        mutants.push(Strategy::uniform_on_top(m, top)?);
    }
    // Blends toward structured deviations keep us near sigma, where
    // first-order ties force the second-order condition to do the work.
    let anchors: Vec<Strategy> = mutants.clone();
    for anchor in &anchors {
        for &w in &[0.1, 0.5] {
            mutants.push(sigma.mix(anchor, w)?);
        }
    }
    for _ in 0..random_mutants {
        let weights: Vec<f64> = (0..m).map(|_| rng.gen::<f64>().max(1e-12)).collect();
        mutants.push(Strategy::from_weights(weights)?);
    }
    let mut report = EssReport {
        mutants_tested: 0,
        repelled: 0,
        indistinguishable: 0,
        invasions: Vec::new(),
        worst_margin: f64::INFINITY,
    };
    let mut ledgers = Vec::new();
    // One evaluator for the whole probe: the resident-only baseline DP
    // tables are built once and shared across every mutant below.
    let evaluator = LedgerEvaluator::new(&ctx, f, sigma)?;
    for (idx, pi) in mutants.iter().enumerate() {
        if pi.linf_distance(sigma)? < 1e-12 {
            continue;
        }
        report.mutants_tested += 1;
        let ledger = evaluator.ledger(pi)?;
        match verdict_from_ledger(&ledger) {
            MutantVerdict::Repelled { margin, .. } => {
                report.repelled += 1;
                report.worst_margin = report.worst_margin.min(margin);
            }
            MutantVerdict::Indistinguishable => report.indistinguishable += 1,
            MutantVerdict::Invades { deficit, .. } => report.invasions.push((idx, deficit)),
        }
        ledgers.push(ledger);
    }
    if !report.worst_margin.is_finite() {
        report.worst_margin = 0.0;
    }
    Ok((report, ledgers))
}
