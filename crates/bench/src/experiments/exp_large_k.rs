//! Experiment LK — large-`k` scaling, recorded: the tier-2 assertions of
//! `tests/large_k.rs` re-run as measurements (CSV + manifest), extended
//! by the `k → 10⁶` adaptive [`GridSpec::Interpolated`] grid builds.
//!
//! Three parts:
//!
//! 1. σ⋆ support growth and IFD residual through `k = 10⁴` (closed form,
//!    no kernel);
//! 2. near-exclusive congestion responses converging to `(1−q)^{k−1}`
//!    at `k ∈ {10³, 10⁴}` through the interpolated kernel;
//! 3. adaptive non-uniform grid builds at `k ∈ {10⁴, 10⁵, 10⁶}`: cell
//!    counts and the interpolation error verified against exact kernel
//!    evaluations at fresh sample points. The build time is printed, not
//!    written: a result file holds only what the same flags reproduce.
//!
//! Output: `results/large_k_sigma.csv`, `results/large_k_gcurve.csv`,
//! `results/large_k_grid.csv`.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::kernel::unit_grid;
use dispersal_core::prelude::*;
use std::time::Instant;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    // --- Part 1: σ⋆ support grows with k (Section 2.1), residual stays
    // at the Claim 7 floor. ---
    println!("LK: sigma* support growth through k = 10^4");
    let f = ValueProfile::zipf(40_000, 1.0, 1.0)?;
    let mut csv = String::from("k,support,ifd_residual\n");
    let mut prev_support = 0usize;
    for k in [10usize, 100, 1_000, 10_000] {
        let star = sigma_star(&f, k)?;
        let residual = dispersal_core::sigma_star::ifd_residual_exclusive(&f, &star.strategy, k)?;
        csv.push_str(&format!("{k},{},{residual:.3e}\n", star.support));
        println!("  k = {k}: support {} residual {residual:.1e}", star.support);
        check!(star.support > prev_support, "support must grow strictly at k = {k}");
        check!(residual < 1e-9, "k = {k}: IFD residual {residual}");
        prev_support = star.support;
    }
    let path = ctx.write_result("large_k_sigma.csv", &csv)?;
    println!("LK: wrote {}", path.display());

    // --- Part 2: near-exclusive g-curves converge to the exclusive one
    // as the power-law exponent grows, at k = 10^3 and 10^4. ---
    println!("LK: near-exclusive g-curve deviation from (1-q)^(k-1)");
    let grid = unit_grid(2048)?;
    let mut csv = String::from("k,beta,tol,deviation,grid_cells\n");
    for (k, tol, final_bound) in [(1_000usize, 1e-6, 0.04), (10_000, 1e-3, 0.04)] {
        let n = (k - 1) as i32;
        let mut prev_deviation = f64::INFINITY;
        for beta in [1.0f64, 2.0, 4.0] {
            let table =
                GTable::new(&PowerLaw { beta }, k)?.with_spec(GridSpec::Interpolated { tol })?;
            let mut scratch = table.scratch();
            let mut deviation = 0.0f64;
            for &q in &grid {
                let interp = table.eval_fast_with(&mut scratch, q);
                deviation = deviation.max((interp - (1.0 - q).powi(n)).abs());
            }
            csv.push_str(&format!("{k},{beta},{tol:.0e},{deviation:.6},{}\n", table.grid_cells()));
            println!("  k = {k} beta = {beta}: deviation {deviation:.3}");
            check!(deviation < prev_deviation, "k = {k} beta = {beta}: deviation must shrink");
            prev_deviation = deviation;
        }
        check!(prev_deviation < final_bound, "k = {k}: final deviation {prev_deviation}");
    }
    let path = ctx.write_result("large_k_gcurve.csv", &csv)?;
    println!("LK: wrote {}", path.display());

    // --- Part 3: adaptive non-uniform builds to k = 10^6. Verification
    // points are fresh (offset from any node pattern); their exact
    // evaluations are O(k) each, so the count scales with --trials. ---
    println!("LK: non-uniform grid builds at k up to 10^6");
    let samples = (ctx.trials_or(40_000) / 250).clamp(8, 160) as usize;
    let tol = 1e-9;
    let mut csv = String::from("policy,k,tol,cells,measured_error,sampled_error,scale\n");
    let policies: [(&str, &dyn Congestion); 2] =
        [("exclusive", &Exclusive), ("powerlaw_2", &PowerLaw { beta: 2.0 })];
    for (name, c) in policies {
        for k in [10_000usize, 100_000, 1_000_000] {
            let started = Instant::now();
            let table = GTable::new(c, k)?.with_spec(GridSpec::Interpolated { tol })?;
            let build_ms = started.elapsed().as_secs_f64() * 1e3;
            let scale = table.scale();
            let measured = table.grid_error().unwrap_or(f64::NAN);
            let mut scratch = table.scratch();
            let mut sampled = 0.0f64;
            for i in 0..samples {
                // Irrational stride keeps samples away from cell nodes.
                let q = ((i as f64 + 0.5) * std::f64::consts::FRAC_1_SQRT_2) % 1.0;
                let err = (table.eval_fast_with(&mut scratch, q)
                    - table.eval_with(&mut scratch, q))
                .abs();
                sampled = sampled.max(err);
            }
            csv.push_str(&format!(
                "{name},{k},{tol:.0e},{},{measured:.3e},{sampled:.3e},{scale:.3e}\n",
                table.grid_cells()
            ));
            println!(
                "  {name} k = {k}: {} cells in {build_ms:.0} ms, midpoint error {measured:.1e}, \
                 sampled error {sampled:.1e} (target {:.1e})",
                table.grid_cells(),
                tol * scale
            );
            // The build guarantees the midpoint bound; arbitrary points
            // budget the standard 4x factor over it.
            check!(measured <= tol * scale, "{name} k = {k}: build exceeded tolerance");
            check!(
                sampled <= 4.0 * tol * scale,
                "{name} k = {k}: off-midpoint error {sampled:.2e} beyond 4x budget"
            );
        }
    }
    let path = ctx.write_result("large_k_grid.csv", &csv)?;
    println!("LK: wrote {} ({samples} verification points per build)", path.display());
    Ok(())
}
