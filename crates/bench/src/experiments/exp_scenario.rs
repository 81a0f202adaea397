//! Experiment SCN — population-scale scenario tracking: site values
//! oscillate (staggered daily cycle), drift, and shock while replicator
//! and Moran dynamics track the moving equilibrium.
//!
//! For each policy, a [`dispersal_sim::scenario::Scenario`] freezes its
//! values epoch by epoch; the replicator warm-starts from the previous
//! epoch's population and its distance to the epoch's own IFD measures
//! tracking quality. A small random-start ensemble checks the tracked
//! state is a global attractor, and a finite-population Moran process
//! (population carried across epochs, rewards swapped per epoch) probes
//! the same schedule stochastically.
//!
//! Output: `results/scenario.csv` (replicator tracking per epoch ×
//! policy) and `results/scenario_moran.csv` (finite-population tracking).

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_sim::prelude::*;

const EPOCHS: u64 = 10;
const K: usize = 3;

fn canonical_scenario() -> Result<Scenario> {
    let base = ValueProfile::new(vec![1.0, 0.8, 0.6, 0.45, 0.3])?;
    Scenario::new(
        base,
        EPOCHS,
        vec![
            TrafficEvent::Daily { amplitude: 0.25, period: EPOCHS },
            TrafficEvent::Drift { site: 1, rate: -0.06 },
            TrafficEvent::Shock { epoch: 5, site: 4, factor: 2.2 },
        ],
    )
}

/// The epoch's IFD mapped back to physical site order.
fn physical_ifd(c: &dyn Congestion, scenario: &Scenario, epoch: u64) -> Result<Strategy> {
    let frame = scenario.epoch_profile(epoch)?;
    let ifd = solve_ifd_allow_degenerate(c, &frame.profile, K)?;
    let mut phys = vec![0.0; frame.order.len()];
    for (rank, &p) in frame.order.iter().enumerate() {
        phys[p] = ifd.strategy.prob(rank);
    }
    // Boundary equilibria can have exact zeros; from_weights needs
    // positive mass, so floor at a negligible epsilon.
    Strategy::from_weights(phys.iter().map(|&x| x.max(1e-15)).collect())
}

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let scenario = canonical_scenario()?;
    let policies: [(&str, &dyn Congestion); 2] = [("exclusive", &Exclusive), ("sharing", &Sharing)];
    let config = ReplicatorConfig { velocity_tol: 1e-10, ..Default::default() };
    // Exploration floor at epoch boundaries: boundary IFDs drive sites
    // extinct, and without a mutation/immigration term the replicator
    // could never recolonize them after the epoch-5 shock.
    let explore = 1e-4;
    let seed = ctx.seed_or(0xB0A7);

    println!("SCN: tracking a moving equilibrium over {EPOCHS} epochs (daily + drift + shock)");
    let mut csv = String::from("epoch,policy,ifd_distance,steps,converged,top_site,top_share\n");
    for (name, c) in policies {
        let start = Strategy::uniform(scenario.sites())?;
        let run = run_scenario_replicator(c, &scenario, &start, K, explore, config)?;
        for record in &run.records {
            let (top_site, top_share) = record
                .state
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(x, &s)| (x, s))
                .unwrap_or((0, 0.0));
            csv.push_str(&format!(
                "{},{},{:.3e},{},{},{},{:.6}\n",
                record.epoch,
                name,
                record.ifd_distance,
                record.steps,
                u8::from(record.converged),
                top_site,
                top_share
            ));
        }
        let worst = run.worst_distance();
        println!("  {name}: worst epoch distance to the moving IFD = {worst:.2e}");
        check!(worst < 1e-3, "{name}: replicator lost the moving equilibrium ({worst:.2e})");

        // Global attraction: random interior starts must land on the same
        // tracked state (the schedule, not the start, decides the path).
        let ensemble = run_scenario_replicator_ensemble(c, &scenario, K, 4, seed, explore, config)?;
        let mut spread = 0.0f64;
        for a in &ensemble {
            for b in &ensemble {
                spread = spread.max(a.final_state.linf_distance(&b.final_state)?);
            }
        }
        println!("  {name}: ensemble final-state spread = {spread:.2e} over 4 starts");
        check!(spread < 1e-4, "{name}: scenario tracking is start-dependent ({spread:.2e})");
    }
    let path = ctx.write_result("scenario.csv", &csv)?;
    println!("SCN: wrote {}", path.display());

    // Finite-population counterpart: one Moran population rides the whole
    // schedule, rewards following the values.
    let per_epoch = (ctx.trials_or(40_000) / EPOCHS).max(400);
    let moran = MoranConfig {
        population: 150,
        generations: per_epoch,
        burn_in: per_epoch / 4,
        rounds_per_generation: 2,
        selection: 6.0,
        mutation: 0.01,
        seed,
    };
    let run = run_scenario_moran(&Exclusive, &scenario, K, moran)?;
    let mut csv = String::from("epoch,tv_to_ifd,top_site,top_freq\n");
    for record in &run.records {
        let freqs =
            Strategy::from_weights(record.frequencies.iter().map(|&x| x.max(1e-15)).collect())?;
        let tv = freqs.tv_distance(&physical_ifd(&Exclusive, &scenario, record.epoch)?)?;
        let (top_site, top_freq) = record
            .frequencies
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(x, &s)| (x, s))
            .unwrap_or((0, 0.0));
        csv.push_str(&format!("{},{tv:.6},{top_site},{top_freq:.6}\n", record.epoch));
        let total: f64 = record.frequencies.iter().sum();
        check!((total - 1.0).abs() < 1e-9, "epoch {}: frequencies not normalized", record.epoch);
    }
    let path = ctx.write_result("scenario_moran.csv", &csv)?;
    println!(
        "SCN: wrote {} ({per_epoch} generations/epoch, population carried across epochs)",
        path.display()
    );
    Ok(())
}
