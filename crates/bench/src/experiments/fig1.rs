//! Experiment FIG1-L / FIG1-R — regenerate Figure 1 of the paper.
//!
//! Two players over two sites; the congestion function is the two-level
//! family `C_c(1) = 1, C_c(2) = c` swept over `c ∈ [−0.5, 0.5]`. For each
//! `c` we plot the coverage of (red) the ESS, i.e. the IFD of `C_c`;
//! (green) the optimal symmetric coverage (constant in `c`); and (blue) the
//! symmetric strategy maximizing individual payoff. Left panel:
//! `f = (1, 0.3)`; right panel: `f = (1, 0.5)`.
//!
//! Output: `results/fig1_left.csv`, `results/fig1_right.csv`,
//! `results/fig1.txt` (ASCII rendering), summary on stdout.

use crate::runner::{Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::report::{ascii_plot, to_csv, Series};

struct Panel {
    name: &'static str,
    f2: f64,
}

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let k = 2usize;
    let panels = [Panel { name: "left", f2: 0.3 }, Panel { name: "right", f2: 0.5 }];
    let cs: Vec<f64> = (0..=100).map(|i| -0.5 + i as f64 * 0.01).collect();
    let mut ascii_all = String::new();
    for panel in &panels {
        let f = ValueProfile::new(vec![1.0, panel.f2])?;
        let optimum = optimal_coverage(&f, k)?.coverage;
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(cs.len());
        let mut ess_cov = Vec::with_capacity(cs.len());
        let mut wel_cov = Vec::with_capacity(cs.len());
        let mut opt_cov = Vec::with_capacity(cs.len());
        for &c in &cs {
            let policy = TwoLevel::new(c)?;
            let ifd = solve_ifd(&policy, &f, k)?;
            let ess_coverage = coverage(&f, &ifd.strategy, k)?;
            let welfare = welfare_optimum(&policy, &f, k)?;
            let welfare_coverage = coverage(&f, &welfare.strategy, k)?;
            rows.push(vec![c, ess_coverage, optimum, welfare_coverage]);
            ess_cov.push(ess_coverage);
            wel_cov.push(welfare_coverage);
            opt_cov.push(optimum);
        }
        let csv =
            to_csv(&["c", "ess_coverage", "optimum_coverage", "welfare_optimum_coverage"], &rows);
        let path = ctx.write_result(&format!("fig1_{}.csv", panel.name), &csv)?;
        println!("FIG1-{}: wrote {}", panel.name, path.display());

        // The paper's headline: at c = 0 (exclusive) the ESS coverage
        // touches the optimum; elsewhere it is strictly below.
        let at_zero = ess_cov[50];
        println!(
            "  f = (1, {}): ESS coverage at c=0 is {:.6} vs optimum {:.6} (gap {:.2e})",
            panel.f2,
            at_zero,
            optimum,
            (optimum - at_zero).abs()
        );
        let plot = ascii_plot(
            &format!("Figure 1 ({}): coverage vs c, f = (1, {})", panel.name, panel.f2),
            &cs,
            &[
                Series { label: "optimum coverage".into(), glyph: '-', values: opt_cov.clone() },
                Series { label: "welfare optimum".into(), glyph: 'o', values: wel_cov.clone() },
                Series { label: "ESS (IFD of C_c)".into(), glyph: '*', values: ess_cov.clone() },
            ],
            20,
        )?;
        ascii_all.push_str(&plot);
        ascii_all.push('\n');
    }
    let path = ctx.write_result("fig1.txt", &ascii_all)?;
    println!("FIG1: ASCII panels at {}", path.display());
    print!("{ascii_all}");
    Ok(())
}
