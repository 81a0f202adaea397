//! Oracle test: the shared water-filling core behind
//! `solve_ifd_with_context` and `solve_ifd_with_costs` returns the same
//! bits as the nested bisections it replaced (`oracle/nested_bisection.rs`):
//! strategy, value, support and residual, on seeded instances covering
//!
//! * `k ∈ {1, 2, 6, 17, 64, 256}` and `M` from 1 to 2000;
//! * zipf, geometric, linear and tied uniform-tier profiles;
//! * catalog-shaped tables, random tables with `C(k) < 0`, and
//!   near-degenerate tables;
//! * interpolated-grid contexts (`GridSpec::Interpolated { tol: 1e-9 }`,
//!   the large-`k` path);
//! * visit costs with zeros and with costs above the site value.
//!
//! The vendored proptest does not shrink, so every failure names the seed
//! and the instance. A planted-bug test runs the oracle with 89 outer
//! steps instead of 90 and requires this harness to notice. Release builds
//! (CI runs `cargo test --release -p dispersal-core --test ifd_equivalence`)
//! sweep more seeds than debug ones.

#[path = "oracle/nested_bisection.rs"]
mod nested_bisection;

use dispersal_core::error::Result;
use dispersal_core::extensions::{solve_ifd_with_costs, CostIfd};
use dispersal_core::ifd::{solve_ifd_with_context, Ifd};
use dispersal_core::kernel::GridSpec;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::TableCongestion;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Outer steps of the solvers under test.
const OUTER_ITERS: usize = 90;

/// Seeded random instances per run (on top of the fixed edge cases).
const RANDOM_INSTANCES: u64 = if cfg!(debug_assertions) { 48 } else { 400 };

const KS: [usize; 6] = [1, 2, 6, 17, 64, 256];

/// One instance, described well enough to rebuild it by hand.
struct Instance {
    seed: u64,
    label: String,
    k: usize,
    table: Vec<f64>,
    f: ValueProfile,
    grid_tol: Option<f64>,
    costs: Option<Vec<f64>>,
}

impl Instance {
    fn describe(&self) -> String {
        format!(
            "seed {} [{}] M={} k={} table={:?} grid={:?} costs={}",
            self.seed,
            self.label,
            self.f.len(),
            self.k,
            self.table,
            self.grid_tol,
            match &self.costs {
                Some(c) => format!("{c:?}"),
                None => "none".into(),
            }
        )
    }

    fn policy(&self) -> TableCongestion {
        TableCongestion::new(self.table.clone(), "instance").unwrap()
    }
}

/// `[C(1), …, C(k)]` of one of six shapes.
fn random_table(rng: &mut ChaCha8Rng, k: usize) -> (Vec<f64>, String) {
    let kind = rng.gen_range(0..6);
    let mut table = vec![1.0];
    let label = match kind {
        0 => {
            table.extend((2..=k).map(|_| 0.0));
            "exclusive".to_string()
        }
        1 => {
            table.extend((2..=k).map(|l| 1.0 / l as f64));
            "sharing".to_string()
        }
        2 => {
            let c = rng.gen_range(-1.0..1.0);
            table.extend((2..=k).map(|_| c));
            format!("two-level c={c}")
        }
        3 => {
            let beta: f64 = rng.gen_range(0.1..4.0);
            table.extend((2..=k).map(|l| (l as f64).powf(-beta)));
            format!("power-law beta={beta}")
        }
        4 => {
            // Random non-increasing steps that may end below zero.
            let floor = rng.gen_range(-2.0..0.5);
            let mut c: f64 = 1.0;
            for _ in 2..=k {
                c -= rng.gen_range(0.0..(1.0 - floor) * 2.0 / k as f64);
                table.push(c.max(floor));
            }
            format!("random floor={floor}")
        }
        _ => {
            // Near-degenerate: flat but for a tiny drop somewhere.
            let eps = [1e-3, 1e-6, 1e-9][rng.gen_range(0..3usize)];
            let at = rng.gen_range(2..=k.max(2));
            table.extend((2..=k).map(|l| if l >= at { 1.0 - eps } else { 1.0 }));
            format!("near-degenerate eps={eps} from l={at}")
        }
    };
    (table, label)
}

fn random_profile(rng: &mut ChaCha8Rng, m: usize) -> (ValueProfile, String) {
    let scale = rng.gen_range(0.1..10.0);
    match rng.gen_range(0..4) {
        0 => {
            let s = rng.gen_range(0.5..1.5);
            (ValueProfile::zipf(m, scale, s).unwrap(), format!("zipf({m}, {scale}, {s})"))
        }
        1 => {
            let rho = rng.gen_range(0.5..1.0);
            (
                ValueProfile::geometric(m, scale, rho).unwrap(),
                format!("geometric({m}, {scale}, {rho})"),
            )
        }
        2 => {
            let lo = scale * rng.gen_range(0.01..1.0);
            (ValueProfile::linear(m, scale, lo).unwrap(), format!("linear({m}, {scale}, {lo})"))
        }
        _ => {
            // Uniform tiers: runs of exactly tied values.
            let tiers = rng.gen_range(1..=4usize);
            let mut values: Vec<f64> = (0..m).map(|x| scale / (1 + x * tiers / m) as f64).collect();
            values.sort_by(|a, b| b.total_cmp(a));
            (ValueProfile::new(values).unwrap(), format!("uniform tiers={tiers} scale={scale}"))
        }
    }
}

/// Costs with exact zeros, costs above the site value, and the rest in
/// between.
fn random_costs(rng: &mut ChaCha8Rng, f: &ValueProfile) -> Vec<f64> {
    f.values()
        .iter()
        .map(|&fx| match rng.gen_range(0..4) {
            0 => 0.0,
            1 => fx * rng.gen_range(1.0..2.0),
            _ => fx * rng.gen_range(0.0..0.8),
        })
        .collect()
}

/// A seeded instance. `M` is capped per `k` so the oracle's full nested
/// bisection stays affordable in a debug build.
fn random_instance(seed: u64) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let k = KS[rng.gen_range(0..KS.len())];
    let max_m = match k {
        1 | 2 | 6 => 300,
        17 => 120,
        64 => 40,
        _ => 12,
    };
    let m = rng.gen_range(1..=max_m);
    let (table, table_label) = random_table(&mut rng, k);
    let (f, profile_label) = random_profile(&mut rng, m);
    let grid_tol = (k >= 6 && rng.gen_bool(0.3)).then_some(1e-9);
    let costs = rng.gen_bool(0.3).then(|| random_costs(&mut rng, &f));
    Instance {
        seed,
        label: format!("{table_label}; {profile_label}"),
        k,
        table,
        f,
        grid_tol,
        costs,
    }
}

/// Fixed edge cases the random sweep might miss: the largest profiles,
/// one site, `ν ≈ 0` (an outer bracket around 0, which never stalls), the
/// search's own shape, and the interpolated large-`k` path.
fn edge_instances() -> Vec<Instance> {
    let mut out = Vec::new();
    let mut push = |label: &str, k: usize, table: Vec<f64>, f: ValueProfile, grid: bool| {
        let seed = u64::MAX - out.len() as u64;
        let grid_tol = grid.then_some(1e-9);
        out.push(Instance { seed, label: label.into(), k, table, f, grid_tol, costs: None });
    };
    let exclusive = |k: usize| (1..=k).map(|l| if l == 1 { 1.0 } else { 0.0 }).collect::<Vec<_>>();
    let sharing = |k: usize| (1..=k).map(|l| 1.0 / l as f64).collect::<Vec<_>>();
    let two_level = |k: usize, c: f64| (1..=k).map(|l| if l == 1 { 1.0 } else { c }).collect();
    push(
        "one site, exclusive: nu ~ 4e-28",
        6,
        exclusive(6),
        ValueProfile::uniform(1, 1.0).unwrap(),
        false,
    );
    push(
        "one site, aggressive",
        17,
        two_level(17, -0.5),
        ValueProfile::uniform(1, 2.0).unwrap(),
        false,
    );
    push(
        "zipf(2000, 1) exclusive",
        6,
        exclusive(6),
        ValueProfile::zipf(2000, 1.0, 1.0).unwrap(),
        false,
    );
    push(
        "geometric(2000) sharing",
        2,
        sharing(2),
        ValueProfile::geometric(2000, 1.0, 0.99).unwrap(),
        false,
    );
    push("zipf(12, 1) sharing", 6, sharing(6), ValueProfile::zipf(12, 1.0, 1.0).unwrap(), false);
    push(
        "zipf(40) sharing, grid",
        256,
        sharing(256),
        ValueProfile::zipf(40, 1.0, 1.0).unwrap(),
        true,
    );
    push(
        "zipf(30) aggressive, grid",
        64,
        two_level(64, -0.3),
        ValueProfile::zipf(30, 1.0, 0.8).unwrap(),
        true,
    );
    push("tied pair, exclusive", 2, exclusive(2), ValueProfile::uniform(2, 1.0).unwrap(), false);
    out
}

/// The outputs compared bit for bit, named for the failure message.
fn ifd_fields(r: &Ifd) -> Vec<(String, f64)> {
    let mut fields = prob_fields(&r.strategy);
    fields.extend([
        ("value".into(), r.value),
        ("support".into(), r.support as f64),
        ("residual".into(), r.residual),
    ]);
    fields
}

fn cost_fields(r: &CostIfd) -> Vec<(String, f64)> {
    let mut fields = prob_fields(&r.strategy);
    fields.extend([("value".into(), r.value), ("support".into(), r.support as f64)]);
    fields
}

fn prob_fields(p: &Strategy) -> Vec<(String, f64)> {
    p.probs().iter().enumerate().map(|(x, &px)| (format!("p[{x}]"), px)).collect()
}

/// The first output that differs between the library and the oracle;
/// `None` when every bit agrees (errors must agree too).
fn first_difference<T: std::fmt::Debug>(
    new: &Result<T>,
    old: &Result<T>,
    fields: fn(&T) -> Vec<(String, f64)>,
) -> Option<String> {
    match (new, old) {
        (Ok(a), Ok(b)) => fields(a)
            .into_iter()
            .zip(fields(b))
            .find(|((_, x), (_, y))| x.to_bits() != y.to_bits())
            .map(|((name, x), (_, y))| format!("{name}: {x:e} vs oracle {y:e}")),
        (Err(a), Err(b)) if a == b => None,
        _ => Some(format!("{new:?} vs oracle {old:?}")),
    }
}

/// Solve `instance` with the library and with the oracle run for
/// `oracle_outer` steps; describe the first difference.
fn compare(instance: &Instance, oracle_outer: usize) -> Option<String> {
    let policy = instance.policy();
    let k = instance.k;
    if let Some(costs) = &instance.costs {
        let new = solve_ifd_with_costs(&policy, &instance.f, costs, k);
        let old =
            nested_bisection::solve_ifd_with_costs(&policy, &instance.f, costs, k, oracle_outer);
        return first_difference(&new, &old, cost_fields);
    }
    let mut ctx = PayoffContext::new(&policy, k).unwrap();
    if let Some(tol) = instance.grid_tol {
        ctx = ctx.with_spec(GridSpec::Interpolated { tol }).unwrap();
    }
    let new = solve_ifd_with_context(&ctx, &instance.f);
    let old = nested_bisection::solve_ifd_with_context(&ctx, &instance.f, oracle_outer);
    first_difference(&new, &old, ifd_fields)
}

fn all_instances() -> Vec<Instance> {
    let mut instances = edge_instances();
    instances.extend((0..RANDOM_INSTANCES).map(random_instance));
    instances
}

#[test]
fn water_filling_core_matches_the_nested_bisection_oracle_bit_for_bit() {
    let instances = all_instances();
    let failures: Vec<String> = instances
        .iter()
        .filter_map(|inst| {
            compare(inst, OUTER_ITERS).map(|why| format!("{}: {why}", inst.describe()))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} instances differ:\n{}",
        failures.len(),
        instances.len(),
        failures.join("\n")
    );
    // The sweep reaches every player count and both solvers.
    for k in KS {
        assert!(instances.iter().any(|i| i.k == k), "no instance at k = {k}");
    }
    assert!(instances.iter().any(|i| i.costs.is_some()));
    assert!(instances.iter().any(|i| i.grid_tol.is_some()));
}

#[test]
fn the_harness_flags_a_planted_short_outer_loop() {
    // An oracle that stops one outer step early must differ somewhere,
    // or the bit-for-bit comparison above proves nothing.
    let flagged = all_instances().iter().any(|inst| compare(inst, OUTER_ITERS - 1).is_some());
    assert!(flagged, "no instance tells 89 outer steps from 90");
}
