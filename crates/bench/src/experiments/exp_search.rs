//! Experiment SRCH — the Bayesian-search connection (Section 2.1 of the
//! paper: σ⋆ equals the first round of A⋆).
//!
//! Verifies the round-1 identity exactly, then compares expected detection
//! times of iterated-σ⋆ against the uniform, prior-proportional, and
//! deterministic-sweep baselines across priors and searcher counts, plus a
//! memory-ful Monte-Carlo variant (searchers never re-open their own
//! boxes, as in the A⋆ model).
//!
//! Expected shape: iterated-σ⋆ dominates every *randomized* baseline at
//! every `k`; the deterministic sweep (all searchers open box `t` at round
//! `t`) gets no parallel speedup, so it wins at `k = 1`–2 on sorted priors
//! but is overtaken as `k` grows. Output: `results/search.csv`.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::report::to_csv;
use dispersal_search::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    // Round-1 identity.
    let prior = Prior::zipf(30, 1.0)?;
    let k = 4usize;
    let mut astar = IteratedSigmaStar::new(&prior, k)?;
    let round1 = astar.round(0)?;
    let direct = sigma_star(prior.profile(), k)?.strategy;
    let identity_gap = round1.linf_distance(&direct)?;
    println!("SRCH: |A*-round-1 − sigma*|_inf = {identity_gap:.2e} (paper: identical)");
    check!(identity_gap < 1e-12, "A* round 1 differs from sigma* by {identity_gap:.2e}");

    // Detection-time comparison.
    let priors: Vec<(String, Prior)> = vec![
        ("zipf(1.0) M=30".into(), Prior::zipf(30, 1.0)?),
        ("zipf(2.0) M=30".into(), Prior::zipf(30, 2.0)?),
        ("geometric(0.7) M=30".into(), Prior::geometric(30, 0.7)?),
        ("uniform M=30".into(), Prior::uniform(30)?),
    ];
    let horizon = 500usize;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    println!("SRCH: expected detection rounds (analytic; mem = MC with per-searcher memory)");
    for (name, prior) in &priors {
        let m = prior.len();
        let mut sweep_time = f64::INFINITY;
        let mut astar_times = Vec::new();
        for &k in &[1usize, 2, 4, 8] {
            let mut astar = IteratedSigmaStar::new(prior, k)?;
            let a = evaluate_plan(&mut astar, prior, k, horizon)?;
            let mut uni = UniformPlan::new(m)?;
            let u = evaluate_plan(&mut uni, prior, k, horizon)?;
            let mut prop = ProportionalPlan::new(prior)?;
            let p = evaluate_plan(&mut prop, prior, k, horizon)?;
            let mut sweep = SweepPlan::new(m)?;
            let s = evaluate_plan(&mut sweep, prior, k, horizon)?;
            let mut astar_mem = IteratedSigmaStar::new(prior, k)?;
            let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed_or(17));
            let mem = simulate_detection_time_with_memory(
                &mut astar_mem,
                prior,
                k,
                ctx.trials_or(40_000),
                horizon,
                &mut rng,
            )?;
            println!(
                "  {name}, k={k}: iterated-sigma* {:.2} (mem {:.2}) | uniform {:.2} | \
                 proportional {:.2} | sweep {:.2}",
                a.expected_rounds, mem, u.expected_rounds, p.expected_rounds, s.expected_rounds
            );
            // Iterated sigma* dominates every randomized baseline.
            check!(a.expected_rounds <= u.expected_rounds + 1e-6, "{name} k={k}: lost to uniform");
            check!(
                a.expected_rounds <= p.expected_rounds + 1e-6,
                "{name} k={k}: lost to prior-proportional"
            );
            sweep_time = s.expected_rounds; // constant in k
            astar_times.push(a.expected_rounds);
            rows.push(vec![
                k as f64,
                a.expected_rounds,
                mem,
                u.expected_rounds,
                p.expected_rounds,
                s.expected_rounds,
            ]);
        }
        // Crossover: the sweep has no parallel speedup, so enough searchers
        // overtake it.
        let best_astar = astar_times.iter().cloned().fold(f64::INFINITY, f64::min);
        check!(
            best_astar < sweep_time + 1e-6,
            "{name}: iterated-sigma* never overtook the sweep ({best_astar} vs {sweep_time})"
        );
        println!(
            "  {name}: sweep stays at {sweep_time:.2} for all k; iterated-sigma* reaches {best_astar:.2} at k=8"
        );
    }
    let csv = to_csv(
        &["k", "iterated_sigma_star", "iterated_with_memory", "uniform", "proportional", "sweep"],
        &rows,
    );
    let path = ctx.write_result("search.csv", &csv)?;
    println!("SRCH: wrote {}", path.display());
    Ok(())
}
