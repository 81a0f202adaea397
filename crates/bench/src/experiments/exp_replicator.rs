//! Experiment DYN — dynamic equilibrium selection: replicator, logit, and
//! fictitious-play dynamics all converge to the IFD.
//!
//! For the policy catalog × an instance grid, integrates each dynamic from
//! an interior start and reports the distance to the analytically solved
//! IFD. Output: `results/replicator.csv`.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::catalog::standard_catalog;
use dispersal_mech::report::to_csv;
use dispersal_sim::prelude::*;

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let instances: Vec<(String, ValueProfile, usize)> = vec![
        ("fig1-left k=2".into(), ValueProfile::new(vec![1.0, 0.3])?, 2),
        ("4 sites k=4".into(), ValueProfile::new(vec![1.0, 0.6, 0.3, 0.1])?, 4),
        ("zipf M=10 k=3".into(), ValueProfile::zipf(10, 1.0, 1.0)?, 3),
    ];
    let mut rows: Vec<Vec<f64>> = Vec::new();
    println!("DYN: convergence of three dynamics to the IFD");
    for (name, f, k) in &instances {
        let start = Strategy::from_weights((1..=f.len()).map(|i| 1.0 + 0.01 * i as f64).collect())?;
        for named in standard_catalog() {
            // Skip degenerate policies: their IFD is a boundary point the
            // interior dynamics only approach asymptotically.
            let ctx = PayoffContext::new(named.policy.as_ref(), *k)?;
            if ctx.is_degenerate() {
                continue;
            }
            let ifd = solve_ifd(named.policy.as_ref(), f, *k)?;
            let rep = run_replicator(
                named.policy.as_ref(),
                f,
                &start,
                *k,
                ReplicatorConfig { velocity_tol: 1e-11, ..Default::default() },
            )?;
            let rep_d = rep.state.tv_distance(&ifd.strategy)?;
            let logit = run_logit(
                named.policy.as_ref(),
                f,
                &start,
                *k,
                DynamicsConfig { beta: 400.0, max_steps: 400_000, ..Default::default() },
            )?;
            let logit_d = logit.state.tv_distance(&ifd.strategy)?;
            let fp = run_fictitious_play(
                named.policy.as_ref(),
                f,
                &start,
                *k,
                DynamicsConfig {
                    beta: 400.0,
                    max_steps: 200_000,
                    tol: 1e-10,
                    ..Default::default()
                },
            )?;
            let fp_d = fp.state.tv_distance(&ifd.strategy)?;
            rows.push(vec![*k as f64, rep_d, logit_d, fp_d]);
            println!(
                "  {name} / {}: replicator tv {rep_d:.1e}, logit tv {logit_d:.1e}, \
                 fictitious-play tv {fp_d:.1e}",
                named.name
            );
            check!(rep_d < 1e-3, "{name}/{}: replicator missed the IFD ({rep_d})", named.name);
            check!(logit_d < 0.05, "{name}/{}: logit missed the IFD ({logit_d})", named.name);
        }
    }
    let csv = to_csv(&["k", "replicator_tv", "logit_tv", "fictitious_tv"], &rows);
    let path = ctx.write_result("replicator.csv", &csv)?;
    println!("DYN: wrote {} (all dynamics land on the IFD)", path.display());
    Ok(())
}
