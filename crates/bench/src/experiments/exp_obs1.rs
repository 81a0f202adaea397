//! Experiment OBS1 — Observation 1: the optimal symmetric coverage always
//! exceeds `(1 − 1/e)·Σ_{x ≤ k} f(x)`.
//!
//! Sweeps profile families × (M, k) and tabulates the realized ratio
//! `Cover(p⋆) / Σ_{x ≤ k} f(x)` against the bound `1 − 1/e ≈ 0.6321`.
//! Output: `results/obs1.csv` + Markdown table on stdout.

use crate::runner::{check, Outcome, RunContext};
use dispersal_core::prelude::*;
use dispersal_mech::report::{markdown_table, to_csv};

pub(super) fn run(ctx: &mut RunContext) -> Outcome {
    let bound = 1.0 - (-1.0f64).exp();
    type FamilyFn = Box<dyn Fn(usize) -> Result<ValueProfile>>;
    let families: Vec<(String, FamilyFn)> = vec![
        ("uniform".into(), Box::new(|m| ValueProfile::uniform(m, 1.0))),
        ("zipf(1.0)".into(), Box::new(|m| ValueProfile::zipf(m, 1.0, 1.0))),
        ("zipf(0.3)".into(), Box::new(|m| ValueProfile::zipf(m, 1.0, 0.3))),
        ("geometric(0.9)".into(), Box::new(|m| ValueProfile::geometric(m, 1.0, 0.9))),
        ("geometric(0.5)".into(), Box::new(|m| ValueProfile::geometric(m, 1.0, 0.5))),
        ("linear(0.05)".into(), Box::new(|m| ValueProfile::linear(m, 1.0, 0.05))),
    ];
    let ms = [10usize, 100, 1000];
    let ks = [2usize, 5, 10, 50];
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut md_rows: Vec<Vec<String>> = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    let mut violations = 0usize;
    for (name, family) in &families {
        for &m in &ms {
            for &k in &ks {
                if k > m {
                    continue;
                }
                let f = family(m)?;
                let opt = optimal_coverage(&f, k)?;
                let topk = f.top_sum(k);
                let ratio = opt.coverage / topk;
                if ratio <= bound {
                    violations += 1;
                }
                worst_ratio = worst_ratio.min(ratio);
                rows.push(vec![m as f64, k as f64, ratio, bound]);
                md_rows.push(vec![
                    name.clone(),
                    m.to_string(),
                    k.to_string(),
                    format!("{ratio:.4}"),
                    format!("{bound:.4}"),
                    if ratio > bound { "ok".into() } else { "VIOLATED".into() },
                ]);
            }
        }
    }
    let csv = to_csv(&["m", "k", "coverage_over_topk", "bound"], &rows);
    let path = ctx.write_result("obs1.csv", &csv)?;
    println!(
        "{}",
        markdown_table(
            &["family", "M", "k", "Cover(p*)/top-k", "bound (1-1/e)", "status"],
            &md_rows
        )
    );
    println!("OBS1: wrote {}", path.display());
    println!(
        "OBS1: worst ratio {worst_ratio:.4} vs bound {bound:.4}; violations: {violations} (paper predicts 0)"
    );
    check!(violations == 0, "Observation 1 violated on {violations} instance(s)");
    Ok(())
}
