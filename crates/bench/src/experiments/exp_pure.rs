//! Experiment PURE — the Section 1.2 discussion made quantitative: the
//! dispersal game has many pure Nash equilibria (their number grows fast
//! with `k`), reaching any particular one requires coordination, and the
//! best of them (a perfect assignment) beats the best symmetric strategy.
//!
//! Output: `results/pure.csv`.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_core::pure::{best_response_dynamics, enumerate_pure_equilibria, PureProfile};
use dispersal_mech::report::to_csv;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let f = ValueProfile::new(vec![1.0, 0.9, 0.8, 0.7, 0.6])?;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    println!("PURE: pure equilibria of the exclusive policy on M = 5 near-uniform sites");
    for k in 2..=5usize {
        let pure = enumerate_pure_equilibria(&Exclusive, &f, k, 100_000)?;
        let sym = optimal_coverage(&f, k)?;
        println!(
            "  k = {k}: {} pure NE out of {} profiles; coverage range [{:.3}, {:.3}]; \
             best symmetric {:.3}",
            pure.count, pure.profiles, pure.worst_coverage, pure.best_coverage, sym.coverage
        );
        check!(pure.best_coverage >= sym.coverage - 1e-9, "k = {k}: best pure NE below symmetric");
        rows.push(vec![
            k as f64,
            pure.count as f64,
            pure.profiles as f64,
            pure.worst_coverage,
            pure.best_coverage,
            sym.coverage,
        ]);
    }
    // Equilibrium count grows with k.
    for w in rows.windows(2) {
        check!(w[1][1] >= w[0][1], "pure NE count should not shrink with k");
    }

    // The coordination problem: random-start best-response dynamics lands
    // on many different equilibria.
    let k = 4usize;
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed_or(31));
    let mut reached = std::collections::HashMap::<Vec<usize>, usize>::new();
    for _ in 0..200 {
        let start = PureProfile::new((0..k).map(|_| rng.gen_range(0..f.len())).collect(), f.len())?;
        let (eq, _) = best_response_dynamics(&Exclusive, &f, start, 10_000)?;
        let sites: Vec<usize> = (0..k).map(|i| eq.site(i)).collect();
        *reached.entry(sites).or_insert(0) += 1;
    }
    println!(
        "PURE: 200 uncoordinated best-response runs reached {} distinct pure equilibria \
         (selecting one requires coordination)",
        reached.len()
    );
    check!(reached.len() > 1, "200 uncoordinated best-response runs all reached one equilibrium");

    let csv = to_csv(
        &["k", "pure_ne_count", "profiles", "worst_coverage", "best_coverage", "best_symmetric"],
        &rows,
    );
    let path = ctx.write_result("pure.csv", &csv)?;
    println!("PURE: wrote {}", path.display());
    Ok(())
}
