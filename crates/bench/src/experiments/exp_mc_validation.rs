//! Experiment MC — Monte-Carlo validation of the analytic formulas.
//!
//! For each catalog policy on a representative instance: 10⁶ one-shot
//! plays, comparing the empirical coverage and individual payoff to Eq. (1)
//! and Eq. (2). Everything must land inside the 95% CI (+ small slack).
//! Output: `results/mc_validation.csv`.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::catalog::standard_catalog;
use dispersal_mech::report::to_csv;
use dispersal_sim::prelude::*;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let f = ValueProfile::new(vec![1.0, 0.6, 0.35, 0.15])?;
    let k = 4usize;
    let p = Strategy::new(vec![0.4, 0.3, 0.2, 0.1])?;
    let config = McConfig { trials: ctx.trials_or(1_000_000), seed: ctx.seed_or(99), shards: 64 };
    let mut rows: Vec<Vec<f64>> = Vec::new();
    println!("MC: {} one-shot plays per policy, k = {k}", config.trials);
    for named in standard_catalog() {
        let report = estimate_symmetric(&f, named.policy.as_ref(), &p, k, config)?;
        let analytic_cov = coverage(&f, &p, k)?;
        let ctx = PayoffContext::new(named.policy.as_ref(), k)?;
        let analytic_pay = ctx.symmetric_payoff(&f, &p)?;
        let cov_ok = report.coverage.covers(analytic_cov, 1e-4);
        let pay_ok = report.payoff.covers(analytic_pay, 1e-4);
        println!(
            "  {}: coverage {:.5} ± {:.5} (analytic {:.5}), payoff {:+.5} ± {:.5} (analytic {:+.5})",
            named.name,
            report.coverage.mean,
            report.coverage.ci95,
            analytic_cov,
            report.payoff.mean,
            report.payoff.ci95,
            analytic_pay
        );
        check!(cov_ok, "{}: coverage outside CI", named.name);
        check!(pay_ok, "{}: payoff outside CI", named.name);
        rows.push(vec![
            report.coverage.mean,
            report.coverage.ci95,
            analytic_cov,
            report.payoff.mean,
            report.payoff.ci95,
            analytic_pay,
        ]);
    }
    let csv = to_csv(
        &[
            "mc_coverage",
            "cov_ci95",
            "analytic_coverage",
            "mc_payoff",
            "pay_ci95",
            "analytic_payoff",
        ],
        &rows,
    );
    let path = ctx.write_result("mc_validation.csv", &csv)?;
    println!("MC: wrote {} (all estimates inside 95% CIs)", path.display());
    Ok(())
}
