//! Experiment EXT — the paper's Section 5.1 future-work extensions:
//! visit costs and capacity-limited coverage.
//!
//! * Visit costs: sweeping a travel cost on a subset of sites shows the
//!   equilibrium draining those sites, with net values equalized on the
//!   support (the IFD conditions generalize cleanly).
//! * Capacity: with per-player consumption caps, coverage saturates and
//!   the advantage of spreading shrinks — quantifying when the paper's
//!   "one player consumes the full site" assumption matters.
//!
//! Output: `results/extensions.csv`.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::extensions::{capacity_coverage, solve_ifd_with_costs};
use dispersal_core::prelude::*;
use dispersal_mech::report::to_csv;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let f = ValueProfile::new(vec![1.0, 0.8, 0.6, 0.4])?;
    let k = 4usize;
    let mut rows: Vec<Vec<f64>> = Vec::new();

    println!("EXT-A: visit costs on site 2 (0-based index 1), exclusive policy, k = {k}");
    for i in 0..=8 {
        let tax = i as f64 * 0.05;
        let costs = [0.0, tax, 0.0, 0.0];
        let ifd = solve_ifd_with_costs(&Exclusive, &f, &costs, k)?;
        let cov = coverage(&f, &ifd.strategy, k)?;
        println!(
            "  tax = {tax:.2}: p(site2) = {:.4}, support = {}, net value = {:.4}, coverage = {:.4}",
            ifd.strategy.prob(1),
            ifd.support,
            ifd.value,
            cov
        );
        rows.push(vec![tax, ifd.strategy.prob(1), ifd.value, cov]);
    }
    // Sanity: the taxed site's equilibrium probability is non-increasing.
    for w in rows.windows(2) {
        check!(w[1][1] <= w[0][1] + 1e-9, "taxed site gained visitors");
    }

    println!("\nEXT-B: capacity-limited coverage of sigma* vs point mass, k = {k}");
    let star = sigma_star(&f, k)?.strategy;
    let stacked = Strategy::delta(f.len(), 0)?;
    let mut cap_rows: Vec<Vec<f64>> = Vec::new();
    for &cap in &[0.05, 0.1, 0.2, 0.3, 0.5, 1.0] {
        let spread_cov = capacity_coverage(&f, &star, k, cap)?;
        let stack_cov = capacity_coverage(&f, &stacked, k, cap)?;
        println!(
            "  cap = {cap:.2}: sigma* extracts {spread_cov:.4}, point mass extracts {stack_cov:.4}"
        );
        cap_rows.push(vec![cap, spread_cov, stack_cov]);
    }
    // At large cap, spreading wins (the paper's regime); at tiny cap both
    // collapse to ~ k*cap.
    let first = &cap_rows[0];
    check!((first[1] - first[2]).abs() < 0.05, "tiny cap should nearly equalize");
    let last = &cap_rows[cap_rows.len() - 1];
    check!(last[1] > last[2], "large cap should favor spreading");

    let mut csv = to_csv(&["tax", "p_taxed_site", "net_value", "coverage"], &rows);
    csv.push('\n');
    csv.push_str(&to_csv(&["cap", "sigma_star_extraction", "point_mass_extraction"], &cap_rows));
    let path = ctx.write_result("extensions.csv", &csv)?;
    println!("\nEXT: wrote {}", path.display());
    Ok(())
}
