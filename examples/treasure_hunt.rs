//! Bayesian treasure hunt (the Section 2.1 connection to parallel search).
//!
//! `k` rescue drones sweep `M` sectors for a missing hiker whose location
//! prior decays with distance from the trailhead. Drones cannot talk to
//! each other. Each round, every drone picks a sector; the hike ends when
//! any drone hits the right sector. The iterated-σ⋆ plan (whose first
//! round is exactly the paper's σ⋆) is compared to naive dispatching.
//!
//! Run with: `cargo run --example treasure_hunt`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use selfish_explorers::prelude::*;

fn main() -> Result<()> {
    let sectors = 25usize;
    let drones = 5usize;
    let prior = Prior::geometric(sectors, 0.8)?;
    println!("{sectors} sectors, {drones} drones, geometric location prior\n");

    // The paper's identity: round 1 of the search plan is sigma* of the
    // prior.
    let mut plan = IteratedSigmaStar::new(&prior, drones)?;
    let round1 = plan.round(0)?;
    let star = sigma_star(prior.profile(), drones)?;
    assert!(round1.linf_distance(&star.strategy)? < 1e-12);
    println!(
        "round-1 plan = sigma* on the prior (support: {} of {} sectors)",
        star.support, sectors
    );

    // Compare plans analytically.
    let horizon = 300;
    let mut results: Vec<(String, f64)> = Vec::new();
    let mut iterated = IteratedSigmaStar::new(&prior, drones)?;
    results.push((
        "iterated sigma* (A* reconstruction)".into(),
        evaluate_plan(&mut iterated, &prior, drones, horizon)?.expected_rounds,
    ));
    let mut uniform = UniformPlan::new(sectors)?;
    results.push((
        "uniform dispatch".into(),
        evaluate_plan(&mut uniform, &prior, drones, horizon)?.expected_rounds,
    ));
    let mut proportional = ProportionalPlan::new(&prior)?;
    results.push((
        "prior-matching dispatch".into(),
        evaluate_plan(&mut proportional, &prior, drones, horizon)?.expected_rounds,
    ));
    let mut sweep = SweepPlan::new(sectors)?;
    results.push((
        "single-file sweep (all drones together)".into(),
        evaluate_plan(&mut sweep, &prior, drones, horizon)?.expected_rounds,
    ));
    println!("\nexpected rounds until the hiker is found:");
    for (name, rounds) in &results {
        println!("  {name:<42} {rounds:6.2}");
    }
    let best = results[0].1;
    for (name, rounds) in &results[1..] {
        assert!(best <= rounds + 1e-9, "iterated sigma* lost to {name}");
    }

    // Monte-Carlo sanity check, with drones remembering their own visits.
    let mut plan_mc = IteratedSigmaStar::new(&prior, drones)?;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let with_memory = simulate_detection_time_with_memory(
        &mut plan_mc,
        &prior,
        drones,
        30_000,
        horizon,
        &mut rng,
    )?;
    println!(
        "\nwith per-drone memory (no self-repeats) the simulated time drops to {with_memory:.2} rounds"
    );
    assert!(with_memory <= best + 0.05);
    Ok(())
}
