//! Experiment KO2 — the Kleinberg–Oren / Vetta bound: `SPoA(C_share) ≤ 2`.
//!
//! Runs the adversarial instance search for the sharing policy at several
//! player counts; the largest ratio found must stay below 2, and should
//! grow with `k` toward its asymptote. Also demonstrates the
//! Kleinberg–Oren reward-design escape hatch: with designed rewards the
//! sharing equilibrium recovers optimal coverage (at the cost of knowing
//! `k`). Output: `results/spoa_sharing.csv`.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::adversarial::{adversarial_spoa, AdversarialConfig};
use dispersal_mech::kleinberg_oren::{design_rewards, verify_design};
use dispersal_mech::report::to_csv;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    println!("KO2: adversarial SPoA of the sharing policy (bound: 2)");
    for &k in &[2usize, 3, 5, 8] {
        let result = adversarial_spoa(
            &Sharing,
            k,
            AdversarialConfig {
                m: 6 * k,
                random_starts: 6,
                iterations: 250,
                step: 0.2,
                seed: ctx.seed_or(1234),
            },
        )?;
        println!(
            "  k = {k}: max SPoA found {:.5} (< 2: {})",
            result.best_ratio,
            result.best_ratio < 2.0
        );
        check!(result.best_ratio < 2.0 + 1e-9, "Vetta bound violated at k = {k}");
        check!(result.best_ratio > 1.0, "sharing should be suboptimal somewhere");
        rows.push(vec![k as f64, result.best_ratio, 2.0]);
    }
    // Reward-design escape hatch on a representative instance.
    let k = 4usize;
    let f = ValueProfile::zipf(12, 1.0, 0.8)?;
    let star = sigma_star(&f, k)?.strategy;
    let design = design_rewards(&Sharing, &star, k, 1.0)?;
    let err = verify_design(&Sharing, &design, &star)?;
    let opt = optimal_coverage(&f, k)?.coverage;
    let plain_eq = solve_ifd(&Sharing, &f, k)?;
    let plain_cov = coverage(&f, &plain_eq.strategy, k)?;
    println!(
        "KO2: sharing with designed rewards reaches optimal coverage {opt:.6} \
         (design error {err:.1e}); plain sharing covers {plain_cov:.6}"
    );
    check!(err < 1e-7, "designed rewards miss their target by {err:.1e}");
    let csv = to_csv(&["k", "max_spoa_found", "vetta_bound"], &rows);
    let path = ctx.write_result("spoa_sharing.csv", &csv)?;
    println!("KO2: wrote {}", path.display());
    Ok(())
}
