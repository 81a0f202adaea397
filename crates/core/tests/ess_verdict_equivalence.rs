//! Oracle test: `LedgerEvaluator::check`, which computes ledger levels
//! only until its verdict is settled, against the full-ledger verdict it
//! replaced (`oracle/full_ledger_verdict.rs`), on seeded instances
//! covering
//!
//! * `k ∈ {2, 3, 6, 17, 32, 64}` and `M` from 2 to 30;
//! * zipf, geometric and tied profiles;
//! * non-increasing tables with `C(1) = 1`, including `C(k) < 0` and drops
//!   of hundreds per step;
//! * residents: the table's IFD, σ⋆, and random strategies (some with
//!   most of their mass on one site);
//! * mutants: the probe family, blends toward each anchor at
//!   `w ∈ {0.1, 0.5, 1e-7, 1e-9}`, and random ones.
//!
//! Where the full ledger stays within `Σ_x f(x)·max|C|`, the bound every
//! physically possible ledger value obeys, `check` must return the oracle's
//! verdict bit for bit (variant, level, margin bits), and `probe_ess_k`
//! the oracle probe's report field for field. Where the rank-updated walk
//! leaves that bound, the full-ledger verdict is judged on garbage levels;
//! `check` must then match the verdict of the fresh-DP `reference_ledger`
//! in variant and level, with the margin within 1e-12 relative. One such
//! `k = 64` instance is pinned with literal numbers.
//!
//! A planted-bug test decides with the scale of the levels seen so far (no
//! bound, no fallback) and requires this harness to notice. The vendored
//! proptest does not shrink, so every failure names the seed and the
//! instance. Release builds (CI runs `cargo test --release -p
//! dispersal-core --test ess_verdict_equivalence`) sweep more seeds than
//! debug ones.

#[path = "oracle/full_ledger_verdict.rs"]
mod full_ledger_verdict;

use dispersal_core::error::Result;
use dispersal_core::ess::{
    probe_ess_k, reference_ledger, EssLedger, EssReport, LedgerEvaluator, MutantVerdict, ESS_TOL,
};
use dispersal_core::ifd::solve_ifd_allow_degenerate;
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::TableCongestion;
use dispersal_core::sigma_star::sigma_star;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use full_ledger_verdict::verdict_from_ledger;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const KS: [usize; 6] = [2, 3, 6, 17, 32, 64];

/// Seeded random instances per run, cycling through [`KS`].
const RANDOM_INSTANCES: u64 = if cfg!(debug_assertions) { 12 } else { 180 };

/// The largest `M` drawn at player count `k`. Debug builds cap it at the
/// larger `k`, where each full ledger is an `O(M·k²)` walk.
fn max_sites(k: usize) -> usize {
    match k {
        _ if !cfg!(debug_assertions) => 30,
        64 => 6,
        32 => 10,
        _ => 30,
    }
}

/// Random mutants per resident, in the sweep and in each probe.
const RANDOM_MUTANTS: usize = 8;

/// Blend weights toward each anchor: the probe's two, and two so close
/// to the resident that level differences land near the tolerance.
const BLEND_WEIGHTS: [f64; 4] = [0.1, 0.5, 1e-7, 1e-9];

/// One instance, described well enough to rebuild it by hand.
struct Instance {
    seed: u64,
    label: String,
    k: usize,
    table: Vec<f64>,
    f: ValueProfile,
    residents: Vec<(String, Strategy)>,
}

impl Instance {
    fn describe(&self) -> String {
        format!(
            "seed {} [{}] M={} k={} f={:?} table={:?}",
            self.seed,
            self.label,
            self.f.len(),
            self.k,
            self.f.values(),
            self.table
        )
    }

    fn policy(&self) -> TableCongestion {
        TableCongestion::new(self.table.clone(), "instance").unwrap()
    }

    /// `Σ_x f(x)·max_j |C_j|`: no physically possible ledger value is
    /// larger in magnitude.
    fn physical_bound(&self) -> f64 {
        let max_c = self.table.iter().fold(0.0f64, |acc, c| acc.max(c.abs()));
        self.f.values().iter().sum::<f64>() * max_c
    }
}

/// `[C(1), …, C(k)]`, non-increasing from `C(1) = 1`, of one of seven
/// shapes.
fn random_table(rng: &mut ChaCha8Rng, k: usize) -> (Vec<f64>, String) {
    let mut table = vec![1.0];
    let label = match rng.gen_range(0..7) {
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
        5 => {
            // Drops of up to hundreds per step.
            let mut c: f64 = 1.0;
            for _ in 2..=k {
                c -= rng.gen_range(0.0..300.0);
                table.push(c);
            }
            "steep".to_string()
        }
        _ => {
            // The search's piecewise family: flat to t, then a ramp.
            let t = rng.gen_range(1..=k);
            let c1 = rng.gen_range(-1.0..1.0);
            let d = rng.gen_range(0.0..50.0);
            table.extend((2..=k).map(|l| if l <= t { 1.0 } else { c1 - d * (l - t - 1) as f64 }));
            format!("piecewise t={t} c1={c1} d={d}")
        }
    };
    (table, label)
}

fn random_profile(rng: &mut ChaCha8Rng, m: usize) -> (ValueProfile, String) {
    let scale = rng.gen_range(0.1..10.0);
    match rng.gen_range(0..3) {
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
        _ => {
            // Uniform tiers: runs of exactly tied values.
            let tiers = rng.gen_range(1..=4usize);
            let mut values: Vec<f64> = (0..m).map(|x| scale / (1 + x * tiers / m) as f64).collect();
            values.sort_by(|a, b| b.total_cmp(a));
            (ValueProfile::new(values).unwrap(), format!("tiers={tiers} scale={scale}"))
        }
    }
}

/// A random strategy; `concentrated` puts most of the mass on few sites,
/// so some sites carry probabilities above ½.
fn random_strategy(rng: &mut ChaCha8Rng, m: usize, concentrated: bool) -> Strategy {
    let power = if concentrated { 6 } else { 1 };
    let mut weights: Vec<f64> = (0..m).map(|_| rng.gen::<f64>().powi(power)).collect();
    for w in weights.iter_mut() {
        if rng.gen_bool(0.2) {
            *w = 0.0;
        }
    }
    let top = rng.gen_range(0..m);
    weights[top] += 1e-3;
    Strategy::from_weights(weights).unwrap()
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = seeded(seed);
    let k = KS[(seed % KS.len() as u64) as usize];
    let m = rng.gen_range(2..=max_sites(k));
    let (table, table_label) = random_table(&mut rng, k);
    let (f, profile_label) = random_profile(&mut rng, m);
    with_residents(seed, format!("{table_label}; {profile_label}"), k, table, f, &mut rng)
}

/// The instance with its residents: the table's IFD (when it solves),
/// σ⋆, and one random strategy.
fn with_residents(
    seed: u64,
    label: String,
    k: usize,
    table: Vec<f64>,
    f: ValueProfile,
    rng: &mut ChaCha8Rng,
) -> Instance {
    let policy = TableCongestion::new(table.clone(), "instance").unwrap();
    let mut residents = Vec::new();
    if let Ok(ifd) = solve_ifd_allow_degenerate(&policy, &f, k) {
        residents.push(("ifd".to_string(), ifd.strategy));
    }
    residents.push(("sigma*".to_string(), sigma_star(&f, k).unwrap().strategy));
    let concentrated = rng.gen_bool(0.5);
    let name = if concentrated { "random concentrated" } else { "random" };
    residents.push((name.to_string(), random_strategy(rng, f.len(), concentrated)));
    Instance { seed, label, k, table, f, residents }
}

/// Fixed instances the random sweep reaches rarely: exclusive at `k = 64`
/// on three sites, where the point mass on the last site ties level 7
/// under the full ledger's scale (`≈ 1.24`, set by level 63) but not under
/// the scale of levels 0–7 (`1`).
fn edge_instances() -> Vec<Instance> {
    let k = 64;
    let exclusive: Vec<f64> = (1..=k).map(|l| if l == 1 { 1.0 } else { 0.0 }).collect();
    let f =
        ValueProfile::new(vec![2.580380957040919, 1.0937345551922437, 0.6619944577444026]).unwrap();
    let seed = u64::MAX;
    let label = "exclusive; zipf(3, 2.580380957040919, 1.238321430500089)".to_string();
    vec![with_residents(seed, label, k, exclusive, f, &mut seeded(seed))]
}

/// The probe's anchors (point masses, uniform, value-proportional, top-j
/// uniform), blends toward each at every [`BLEND_WEIGHTS`] weight, and
/// [`RANDOM_MUTANTS`] random strategies.
fn mutant_family(
    sigma: &Strategy,
    f: &ValueProfile,
    rng: &mut ChaCha8Rng,
) -> Vec<(String, Strategy)> {
    let m = f.len();
    let mut anchors = Vec::new();
    for site in 0..m {
        anchors.push((format!("delta({site})"), Strategy::delta(m, site).unwrap()));
    }
    anchors.push(("uniform".to_string(), Strategy::uniform(m).unwrap()));
    anchors.push(("proportional".to_string(), Strategy::proportional(f.values()).unwrap()));
    for top in 1..=m {
        anchors.push((format!("top({top})"), Strategy::uniform_on_top(m, top).unwrap()));
    }
    let mut out = anchors.clone();
    for (label, anchor) in &anchors {
        for w in BLEND_WEIGHTS {
            out.push((format!("blend({label}, {w:e})"), sigma.mix(anchor, w).unwrap()));
        }
    }
    for r in 0..RANDOM_MUTANTS {
        out.push((format!("random#{r}"), random_strategy(rng, m, r % 2 == 1)));
    }
    out
}

/// Every bit of a verdict that callers can read.
fn verdict_bits(v: &MutantVerdict) -> (u8, usize, u64) {
    match *v {
        MutantVerdict::Repelled { m, margin } => (0, m, margin.to_bits()),
        MutantVerdict::Indistinguishable => (1, 0, 0),
        MutantVerdict::Invades { level, deficit } => (2, level, deficit.to_bits()),
    }
}

fn report_bits(r: &EssReport) -> (usize, usize, usize, Vec<(usize, u64)>, u64) {
    (
        r.mutants_tested,
        r.repelled,
        r.indistinguishable,
        r.invasions.iter().map(|&(idx, d)| (idx, d.to_bits())).collect(),
        r.worst_margin.to_bits(),
    )
}

fn in_bound(ledger: &EssLedger, bound: f64) -> bool {
    ledger.resident.iter().chain(&ledger.mutant).all(|v| v.abs() <= bound)
}

/// Variant and level agree and the margins are within `rel` of each other.
fn close_verdicts(a: &MutantVerdict, b: &MutantVerdict, rel: f64) -> bool {
    let (va, la, ma) = verdict_bits(a);
    let (vb, lb, mb) = verdict_bits(b);
    let (ma, mb) = (f64::from_bits(ma), f64::from_bits(mb));
    va == vb && la == lb && (ma - mb).abs() <= rel * ma.abs().max(mb.abs())
}

/// Whether the lazy rule would fall back to the full ledger on `ledger`:
/// some level before the verdict is neither a tie under the scale seen so
/// far nor strict under the bound `2·Σf·max|C|`.
fn falls_back(ledger: &EssLedger, scale_bound: f64) -> bool {
    let mut scale = 1.0f64;
    for (res, mu) in ledger.resident.iter().zip(&ledger.mutant) {
        scale = scale.max(res.abs()).max(mu.abs());
        let diff = res - mu;
        if diff.abs() > ESS_TOL * scale_bound {
            return false;
        }
        if diff.abs() > ESS_TOL * scale {
            return true;
        }
    }
    false
}

/// Tallies of one sweep.
#[derive(Debug, Default)]
struct Sweep {
    verdicts: usize,
    out_of_bound: usize,
    differs_from_full: usize,
    fell_back: usize,
    probes_compared: usize,
    failures: Vec<String>,
}

/// Judge every (instance, resident, mutant) with `rule` and compare it
/// with the oracle as the module docs describe; also compare each
/// resident's `probe_ess_k` report with the oracle probe's.
fn sweep(
    instances: &[Instance],
    rule: &dyn Fn(&LedgerEvaluator<'_>, &Strategy) -> Result<MutantVerdict>,
) -> Sweep {
    let mut out = Sweep::default();
    for inst in instances {
        let policy = inst.policy();
        let ctx = PayoffContext::new(&policy, inst.k).unwrap();
        let bound = inst.physical_bound();
        for (r, (resident, sigma)) in inst.residents.iter().enumerate() {
            let evaluator = LedgerEvaluator::new(&ctx, &inst.f, sigma).unwrap();
            let mut rng = seeded(inst.seed ^ (0x5eed << 8) ^ r as u64);
            let at = format!("{}; resident {resident} {:?}", inst.describe(), sigma.probs());
            let fail = |out: &mut Sweep, what: String| out.failures.push(format!("{at}: {what}"));
            for (mutant, pi) in mutant_family(sigma, &inst.f, &mut rng) {
                out.verdicts += 1;
                let ledger = evaluator.ledger(&pi).unwrap();
                let full = verdict_from_ledger(&ledger);
                let got = match rule(&evaluator, &pi) {
                    Ok(v) => v,
                    Err(e) => {
                        fail(&mut out, format!("mutant {mutant} {:?}: error {e}", pi.probs()));
                        continue;
                    }
                };
                if falls_back(&ledger, (2.0 * bound).max(1.0)) {
                    out.fell_back += 1;
                }
                if in_bound(&ledger, bound) {
                    if verdict_bits(&got) != verdict_bits(&full) {
                        fail(
                            &mut out,
                            format!("mutant {mutant} {:?}: {got:?} vs oracle {full:?}", pi.probs()),
                        );
                    }
                    continue;
                }
                out.out_of_bound += 1;
                if verdict_bits(&got) != verdict_bits(&full) {
                    out.differs_from_full += 1;
                }
                let fresh =
                    verdict_from_ledger(&reference_ledger(&ctx, &inst.f, sigma, &pi).unwrap());
                if !close_verdicts(&got, &fresh, 1e-12) {
                    let why = format!("ledger beyond {bound:e}; {got:?} vs fresh-DP {fresh:?}");
                    let what = format!("mutant {mutant} {:?}: {why} (full: {full:?})", pi.probs());
                    fail(&mut out, what);
                }
            }
            let probe_seed = inst.seed.wrapping_mul(31).wrapping_add(r as u64);
            let lazy = probe_ess_k(
                &policy,
                &inst.f,
                sigma,
                RANDOM_MUTANTS,
                &mut seeded(probe_seed),
                inst.k,
            );
            let (oracle, ledgers) = full_ledger_verdict::probe_ess_k(
                &policy,
                &inst.f,
                sigma,
                RANDOM_MUTANTS,
                &mut seeded(probe_seed),
                inst.k,
            )
            .unwrap();
            if ledgers.iter().all(|l| in_bound(l, bound)) {
                out.probes_compared += 1;
                match lazy {
                    Ok(report) if report_bits(&report) == report_bits(&oracle) => {}
                    other => fail(
                        &mut out,
                        format!("probe seed {probe_seed}: {other:?} vs oracle {oracle:?}"),
                    ),
                }
            }
        }
    }
    out
}

fn seeded(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn all_instances() -> Vec<Instance> {
    let mut instances = edge_instances();
    instances.extend((0..RANDOM_INSTANCES).map(random_instance));
    instances
}

#[test]
fn lazy_check_matches_the_full_ledger_oracle() {
    let instances = all_instances();
    let sweep = sweep(&instances, &|ev, pi| ev.check(pi));
    assert!(
        sweep.failures.is_empty(),
        "{} of {} verdicts differ:\n{}",
        sweep.failures.len(),
        sweep.verdicts,
        sweep.failures.join("\n")
    );
    // The sweep reaches every player count, compares probes, and takes
    // the fallback.
    for k in KS {
        assert!(instances.iter().any(|i| i.k == k), "no instance at k = {k}");
    }
    assert!(sweep.probes_compared > instances.len(), "{sweep:?}");
    assert!(sweep.fell_back > 0, "no verdict fell in the fallback band: {sweep:?}");
}

/// A rule that decides with the scale of the levels seen so far — no
/// bound, no fallback — passes on most verdicts but calls a tie strict
/// whenever a later level would have raised the scale.
fn seen_scale_verdict(ev: &LedgerEvaluator<'_>, pi: &Strategy) -> Result<MutantVerdict> {
    let ledger = ev.ledger(pi)?;
    let mut scale = 1.0f64;
    for (ell, (res, mu)) in ledger.resident.iter().zip(&ledger.mutant).enumerate() {
        scale = scale.max(res.abs()).max(mu.abs());
        let diff = res - mu;
        if diff > ESS_TOL * scale {
            return Ok(MutantVerdict::Repelled { m: ell, margin: diff });
        }
        if diff < -ESS_TOL * scale {
            return Ok(MutantVerdict::Invades { level: ell, deficit: -diff });
        }
    }
    Ok(MutantVerdict::Indistinguishable)
}

#[test]
fn planted_seen_scale_rule_is_caught() {
    let instances = all_instances();
    let sweep = sweep(&instances, &seen_scale_verdict);
    assert!(sweep.fell_back > 0, "no verdict fell in the fallback band: {sweep:?}");
    assert!(
        !sweep.failures.is_empty(),
        "the seen-scale rule passed the oracle on {} verdicts",
        sweep.verdicts
    );
}

/// Sharing's IFD at `k = 64` against the point mass on its best site,
/// `σ(0) ≈ 0.514`: each level moves one more of the 63 opponent factors at
/// site 0 from `0.514` to 1, and the rank-updated walk leaves the physical
/// bound within a few dozen levels. The full ledger's scale then swallows
/// the level-1 margin, and its verdict is an invasion at level 31 that the
/// fresh-DP ledger does not show. The lazy verdict stops at level 1, where
/// the walk is still accurate, and agrees with the fresh DP. (A stable
/// walk would change the full ledger's numbers pinned here.)
#[test]
fn pinned_k64_instance_beyond_the_bound_follows_the_fresh_dp() {
    let k = 64;
    let f = ValueProfile::new(vec![
        5.121597120912691,
        2.583792607395032,
        1.3034965617989742,
        0.6576004907509877,
        0.33175262452485904,
        0.16736575691031264,
        0.08443428782599702,
        0.04259622214419674,
        0.02148935210653956,
    ])
    .unwrap();
    let table: Vec<f64> = (1..=k).map(|l| 1.0 / l as f64).collect();
    let sigma = Strategy::new(vec![
        0.5143116946759366,
        0.25946491246371667,
        0.13088083688450933,
        0.065150743956034,
        0.027849953813558762,
        0.0023418582062447184,
        0.0,
        0.0,
        0.0,
    ])
    .unwrap();
    let pi = Strategy::delta(9, 0).unwrap();
    let policy = TableCongestion::new(table, "sharing").unwrap();
    let ctx = PayoffContext::new(&policy, k).unwrap();
    let evaluator = LedgerEvaluator::new(&ctx, &f, &sigma).unwrap();

    let ledger = evaluator.ledger(&pi).unwrap();
    let bound: f64 = f.values().iter().sum();
    assert!(!in_bound(&ledger, bound), "the walk now stays within {bound}: {ledger:?}");
    let full = verdict_from_ledger(&ledger);
    assert!(matches!(full, MutantVerdict::Invades { level: 31, .. }), "full ledger: {full:?}");

    let lazy = evaluator.check(&pi).unwrap();
    assert_eq!(
        verdict_bits(&lazy),
        verdict_bits(&MutantVerdict::Repelled { m: 1, margin: 0.0022920669768483892 }),
        "lazy verdict {lazy:?}"
    );
    let fresh = verdict_from_ledger(&reference_ledger(&ctx, &f, &sigma, &pi).unwrap());
    assert!(close_verdicts(&lazy, &fresh, 1e-12), "{lazy:?} vs fresh-DP {fresh:?}");
}
