//! Experiment ROB — robustness of the two mechanisms (Section 1.6
//! contrast, quantified): Kleinberg–Oren reward design degrades when the
//! deployed player count differs from the design-time `k`, while the
//! exclusive congestion policy is exact at every `k`; and the exclusive
//! equilibrium degrades gracefully under misperceived site values.
//!
//! Output: `results/robustness.csv`.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::report::to_csv;
use dispersal_mech::robustness::{k_misspecification_curve, value_noise_robustness};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let f = ValueProfile::zipf(12, 1.0, 0.8)?;
    let k_design = 4usize;
    println!("ROB-A: rewards designed for k = {k_design}, deployed at other k (sharing policy)");
    let curve = k_misspecification_curve(&f, k_design, &[2, 3, 4, 6, 8, 12])?;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for p in &curve {
        println!(
            "  k = {:>2}: optimal {:.4} | Kleinberg-Oren {:.4} ({:+.2}%) | exclusive {:.4} ({:+.2}%)",
            p.k_actual,
            p.optimal,
            p.kleinberg_oren,
            100.0 * (p.kleinberg_oren / p.optimal - 1.0),
            p.exclusive,
            100.0 * (p.exclusive / p.optimal - 1.0),
        );
        check!((p.exclusive - p.optimal).abs() < 1e-6, "k = {}: exclusive not optimal", p.k_actual);
        if p.k_actual != k_design {
            check!(p.kleinberg_oren < p.optimal - 1e-7, "k = {}: K-O still optimal", p.k_actual);
        }
        rows.push(vec![p.k_actual as f64, p.optimal, p.kleinberg_oren, p.exclusive]);
    }

    println!("\nROB-B: exclusive-policy efficiency under misperceived site values");
    let mut noise_rows: Vec<Vec<f64>> = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed_or(55));
    for &noise in &[0.0, 0.05, 0.1, 0.2, 0.4] {
        let r = value_noise_robustness(&f, k_design, noise, 200, &mut rng)?;
        println!(
            "  noise ±{:>4.0}%: mean efficiency {:.4}, worst {:.4} ({} samples)",
            100.0 * noise,
            r.mean_efficiency,
            r.worst_efficiency,
            r.samples
        );
        check!(r.mean_efficiency <= 1.0 + 1e-9, "noise {noise}: mean efficiency above 1");
        noise_rows.push(vec![noise, r.mean_efficiency, r.worst_efficiency]);
    }
    // Efficiency decreases (weakly) with noise.
    for w in noise_rows.windows(2) {
        check!(w[1][1] <= w[0][1] + 1e-6, "mean efficiency rose at noise {}", w[1][0]);
    }

    let mut csv = to_csv(&["k_actual", "optimal", "kleinberg_oren", "exclusive"], &rows);
    csv.push('\n');
    csv.push_str(&to_csv(&["noise", "mean_efficiency", "worst_efficiency"], &noise_rows));
    let path = ctx.write_result("robustness.csv", &csv)?;
    println!("\nROB: wrote {}", path.display());
    Ok(())
}
