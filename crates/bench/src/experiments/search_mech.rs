//! Experiment MSRCH — parallel best-first search over mechanism space.
//!
//! Runs the shared-tree search of `dispersal_search::parallel` over the
//! piecewise / power-law / budget-normed congestion families, maximizing
//! welfare (and, in a second run, minimizing SPoA) subject to ESS
//! feasibility, then compares the certificate against (a) every
//! hand-written catalog mechanism scored through the *same* pipeline and
//! (b) the Kleinberg–Oren reward-design baseline on the same welfare
//! axis.
//!
//! Expected shape: the searched mechanism's welfare is at least the best
//! catalog entry's (the root forest contains exact catalog anchors, so
//! the catalog is representable), and Kleinberg–Oren reaches ~optimal
//! welfare but only by knowing `k` and rewriting the rewards — the
//! contrast the paper draws. Output: `results/search_mech.csv`.
//!
//! `--trials` sets the expansion budget (default 48), `--seed` the
//! search/ESS seed.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::report::to_csv;
use dispersal_mech::scoring::{kleinberg_oren_score, score_catalog};
use dispersal_search::parallel::{search_mechanisms, Objective, SearchConfig};
use std::time::Instant;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let k = 6usize;
    let f = ValueProfile::zipf(12, 1.0, 1.0)?;
    let mut cfg = SearchConfig::new(k, f.clone());
    cfg.budget = ctx.trials_or(48) as usize;
    cfg.seed = ctx.seed_or(42);

    let start = Instant::now();
    let outcome = search_mechanisms(&cfg)?;
    let elapsed = start.elapsed().as_secs_f64();
    let rate = outcome.expansions as f64 / elapsed.max(1e-9);
    let best = &outcome.best;
    println!(
        "MSRCH: welfare search: {} expansions ({} evaluations) in {elapsed:.3}s \
         = {rate:.1} expansions/sec",
        outcome.expansions, outcome.evaluations
    );
    println!(
        "MSRCH: best = {} | welfare {:.6} | SPoA {:.6} | ESS margin {:.3e} (certified: {})",
        best.spec, best.welfare, best.spoa, best.ess_margin, best.ess_passed
    );

    // The baselines, scored through the identical pipeline.
    let catalog = score_catalog(&f, k, cfg.ess_mutants, cfg.seed)?;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    println!("MSRCH: catalog baseline (same scoring pipeline):");
    for (i, s) in catalog.iter().enumerate() {
        println!(
            "  [{i}] {:<20} welfare {:.6} | SPoA {:.6} | ESS {}",
            s.name,
            s.welfare,
            s.spoa,
            if s.ess_passed { "yes" } else { "no" }
        );
        rows.push(vec![
            i as f64,
            s.welfare,
            s.spoa,
            s.ess_margin,
            f64::from(u8::from(s.ess_passed)),
        ]);
    }
    let best_catalog = catalog.iter().map(|s| s.welfare).fold(f64::NEG_INFINITY, f64::max);
    let worst_catalog = catalog.iter().map(|s| s.welfare).fold(f64::INFINITY, f64::min);
    check!(
        best.welfare >= best_catalog - 1e-9,
        "searched welfare {} fell below the best catalog entry {best_catalog} — \
         the anchors make the catalog representable, so this must not happen",
        best.welfare
    );
    check!(
        best.welfare > worst_catalog,
        "searched welfare {} does not even beat the worst catalog entry {worst_catalog}",
        best.welfare
    );
    check!(best.ess_passed, "the certificate must carry an ESS guarantee");

    // Second run: minimize SPoA instead — must reach ~unit SPoA (the
    // exclusive anchor achieves it).
    let spoa_cfg = SearchConfig { objective: Objective::Spoa, ..cfg.clone() };
    let spoa_outcome = search_mechanisms(&spoa_cfg)?;
    println!(
        "MSRCH: SPoA search: best = {} | SPoA {:.6} | welfare {:.6}",
        spoa_outcome.best.spec, spoa_outcome.best.spoa, spoa_outcome.best.welfare
    );
    check!(spoa_outcome.best.spoa < 1.0 + 1e-6, "SPoA search must reach ~1");

    // Kleinberg–Oren reward design: ~optimal welfare, but needs k and
    // mutable rewards (the paper's contrast).
    let ko = kleinberg_oren_score(&f, k)?;
    println!(
        "MSRCH: Kleinberg–Oren baseline: welfare {:.6} (design error {:.2e}, hard-wired k = {})",
        ko.welfare, ko.design_error, ko.k
    );

    rows.push(vec![-1.0, best.welfare, best.spoa, best.ess_margin, 1.0]);
    rows.push(vec![
        -2.0,
        spoa_outcome.best.welfare,
        spoa_outcome.best.spoa,
        spoa_outcome.best.ess_margin,
        1.0,
    ]);
    rows.push(vec![-3.0, ko.welfare, f64::NAN, f64::NAN, 0.0]);
    let csv = to_csv(&["entry", "welfare", "spoa", "ess_margin", "ess_passed"], &rows);
    let path = ctx.write_result("search_mech.csv", &csv)?;
    println!(
        "MSRCH: wrote {} (entry ≥ 0: catalog index; -1: searched-welfare; \
         -2: searched-spoa; -3: kleinberg-oren)",
        path.display()
    );
    Ok(())
}
