//! Experiment THM4 — Theorem 4: σ⋆ is the unique coverage-optimal
//! symmetric strategy.
//!
//! For a grid of instances, compares three independently computed objects:
//! the closed-form σ⋆, the KKT water-filling optimizer, and the
//! structure-free projected-gradient optimizer. All three must agree in
//! coverage to solver precision, and common heuristics must do strictly
//! worse. Output: `results/thm4.csv` + summary.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::optimal::optimal_coverage_gradient;
use dispersal_core::prelude::*;
use dispersal_mech::report::to_csv;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let instances: Vec<(String, ValueProfile, usize)> = vec![
        ("fig1-left".into(), ValueProfile::new(vec![1.0, 0.3])?, 2),
        ("fig1-right".into(), ValueProfile::new(vec![1.0, 0.5])?, 2),
        ("zipf(1.0) M=30 k=5".into(), ValueProfile::zipf(30, 1.0, 1.0)?, 5),
        ("geometric(0.8) M=12 k=4".into(), ValueProfile::geometric(12, 1.0, 0.8)?, 4),
        ("linear M=40 k=8".into(), ValueProfile::linear(40, 1.0, 0.05)?, 8),
        ("uniform M=10 k=3".into(), ValueProfile::uniform(10, 1.0)?, 3),
        ("steep geometric M=20 k=6".into(), ValueProfile::geometric(20, 2.0, 0.55)?, 6),
    ];
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut max_gap: f64 = 0.0;
    println!("THM4: sigma* vs independent optimizers");
    for (name, f, k) in &instances {
        let star = sigma_star(f, *k)?;
        let cov_star = coverage(f, &star.strategy, *k)?;
        let waterfill = optimal_coverage(f, *k)?;
        let gradient = optimal_coverage_gradient(f, *k)?;
        let gap_wf = (cov_star - waterfill.coverage).abs();
        let gap_gd = (cov_star - gradient.coverage).abs();
        // Heuristics must be strictly dominated (unless they coincide with
        // sigma*, as uniform does on a uniform profile).
        let m = f.len();
        let mut heuristic_best = f64::NEG_INFINITY;
        for s in [
            Strategy::uniform(m)?,
            Strategy::proportional(f.values())?,
            Strategy::uniform_on_top(m, (*k).min(m))?,
        ] {
            heuristic_best = heuristic_best.max(coverage(f, &s, *k)?);
        }
        max_gap = max_gap.max(gap_wf).max(gap_gd);
        rows.push(vec![*k as f64, cov_star, waterfill.coverage, gradient.coverage, heuristic_best]);
        println!(
            "  {name}: Cover(sigma*) = {cov_star:.8}, waterfill gap {gap_wf:.2e}, \
             gradient gap {gap_gd:.2e}, best heuristic {heuristic_best:.8}"
        );
        check!(gap_wf < 1e-7, "{name}: waterfill disagrees by {gap_wf}");
        check!(gap_gd < 1e-6, "{name}: gradient disagrees by {gap_gd}");
        check!(heuristic_best <= cov_star + 1e-9, "{name}: a heuristic beat sigma*");
    }
    let csv = to_csv(
        &["k", "cover_sigma_star", "cover_waterfill", "cover_gradient", "cover_best_heuristic"],
        &rows,
    );
    let path = ctx.write_result("thm4.csv", &csv)?;
    println!(
        "THM4: wrote {} (max optimizer gap {max_gap:.2e}; paper predicts identical optima)",
        path.display()
    );
    Ok(())
}
