//! Experiment THM3 — Theorem 3: σ⋆ is an ESS under the exclusive policy.
//!
//! Three layers of evidence:
//! 1. exact ESS-characterization checks of σ⋆ against structured + random
//!    mutants (Poisson–binomial payoffs, machine precision);
//! 2. invasion barriers `ε_π` estimated from Eq. (3);
//! 3. finite-population Monte-Carlo invasions: mutant minorities earn
//!    strictly less than σ⋆ residents.
//!
//! Output: `results/thm3.csv` + summary.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::report::to_csv;
use dispersal_sim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let instances: Vec<(String, ValueProfile, usize)> = vec![
        ("fig1-left k=2".into(), ValueProfile::new(vec![1.0, 0.3])?, 2),
        ("fig1-right k=2".into(), ValueProfile::new(vec![1.0, 0.5])?, 2),
        ("3 sites k=3".into(), ValueProfile::new(vec![1.0, 0.5, 0.25])?, 3),
        ("zipf M=8 k=4".into(), ValueProfile::zipf(8, 1.0, 1.0)?, 4),
        ("geometric M=6 k=5".into(), ValueProfile::geometric(6, 1.0, 0.7)?, 5),
    ];
    let mut rows: Vec<Vec<f64>> = Vec::new();
    println!("THM3: ESS verification of sigma* under the exclusive policy");
    for (name, f, k) in &instances {
        let star = sigma_star(f, *k)?;
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let report = probe_ess_k(&Exclusive, f, &star.strategy, 200, &mut rng, *k)?;
        check!(report.passed(), "{name}: mutants invaded: {:?}", report.invasions);

        // Invasion barrier against the uniform mutant.
        let payoff_ctx = PayoffContext::new(&Exclusive, *k)?;
        let mutant = Strategy::uniform(f.len())?;
        let invaders = Mixture::new(vec![mutant.clone()], vec![1.0])?;
        let barrier = invasion_barrier(&payoff_ctx, f, &star.strategy, &invaders, 200)?;

        // Finite-sample invasion: epsilon = 0.1 mutants.
        let inv = run_invasion(
            &Exclusive,
            f,
            &star.strategy,
            &mutant,
            *k,
            InvasionConfig {
                epsilon: 0.1,
                matches: ctx.trials_or(400_000),
                seed: ctx.seed_or(7),
                shards: 16,
            },
        )?;
        rows.push(vec![
            *k as f64,
            report.mutants_tested as f64,
            report.worst_margin,
            barrier,
            inv.advantage,
            inv.analytic_advantage,
        ]);
        println!(
            "  {name}: {} mutants probed, all repelled (worst margin {:.2e}); \
             uniform-mutant barrier eps = {barrier:.2}; empirical advantage at eps=0.1: \
             {:+.5} (analytic {:+.5})",
            report.mutants_tested, report.worst_margin, inv.advantage, inv.analytic_advantage
        );
    }
    let csv = to_csv(
        &["k", "mutants", "worst_margin", "uniform_barrier", "mc_advantage", "analytic_advantage"],
        &rows,
    );
    let path = ctx.write_result("thm3.csv", &csv)?;
    println!("THM3: wrote {} (sigma* is an ESS on every instance)", path.display());
    Ok(())
}
