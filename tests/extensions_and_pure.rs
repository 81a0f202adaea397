//! Integration tests for the extension layers: Section 5.1 future work
//! (visit costs, capacity), the pure-equilibrium machinery of Section 1.2,
//! and the closed-form 2×2 cross-check of Figure 1.

use selfish_explorers::dispersal_core::extensions::{capacity_coverage, solve_ifd_with_costs};
use selfish_explorers::dispersal_core::pure::{
    best_response_dynamics, enumerate_pure_equilibria, is_pure_nash, rosenthal_potential,
    PureProfile,
};
use selfish_explorers::dispersal_core::two_by_two::solve_two_by_two;
use selfish_explorers::prelude::*;

#[test]
fn figure1_curves_match_closed_form_everywhere() {
    // The fig1 binary uses the general solvers; pin them against the
    // pencil-and-paper 2x2 formulas over the full c sweep.
    for f2 in [0.3, 0.5] {
        let f = ValueProfile::new(vec![1.0, f2]).unwrap();
        for i in 0..=100 {
            let c = -0.5 + i as f64 * 0.01;
            let closed = solve_two_by_two(1.0, f2, c).unwrap();
            let policy = TwoLevel::new(c).unwrap();
            let ifd = solve_ifd(&policy, &f, 2).unwrap();
            let ifd_cov = coverage(&f, &ifd.strategy, 2).unwrap();
            assert!(
                (ifd_cov - closed.ifd_coverage).abs() < 1e-7,
                "c = {c}: solver {ifd_cov} vs closed form {}",
                closed.ifd_coverage
            );
            let wel = welfare_optimum(&policy, &f, 2).unwrap();
            let wel_cov = coverage(&f, &wel.strategy, 2).unwrap();
            assert!(
                (wel_cov - closed.welfare_coverage).abs() < 1e-6,
                "c = {c}: welfare {wel_cov} vs {}",
                closed.welfare_coverage
            );
        }
    }
}

#[test]
fn visit_costs_shrink_support_monotonically() {
    let f = ValueProfile::new(vec![1.0, 0.8, 0.6, 0.4]).unwrap();
    let k = 4;
    let mut prev_p = f64::INFINITY;
    for i in 0..10 {
        let tax = i as f64 * 0.05;
        let costs = [0.0, tax, 0.0, 0.0];
        let ifd = solve_ifd_with_costs(&Exclusive, &f, &costs, k).unwrap();
        let p_taxed = ifd.strategy.prob(1);
        assert!(p_taxed <= prev_p + 1e-9, "tax {tax}: {p_taxed} > {prev_p}");
        prev_p = p_taxed;
        // The untaxed sites absorb the displaced probability.
        let total: f64 = ifd.strategy.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn capacity_interpolates_between_extremes() {
    let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
    let k = 3;
    let p = Strategy::new(vec![0.7, 0.3]).unwrap();
    let plain = coverage(&f, &p, k).unwrap();
    // Large cap -> plain coverage; small cap -> k*cap (everything consumed).
    assert!((capacity_coverage(&f, &p, k, 1e9).unwrap() - plain).abs() < 1e-9);
    let tiny = capacity_coverage(&f, &p, k, 1e-4).unwrap();
    assert!((tiny - k as f64 * 1e-4).abs() < 1e-6);
}

#[test]
fn pure_equilibria_bracket_symmetric_coverage_under_exclusive() {
    let f = ValueProfile::new(vec![1.0, 0.8, 0.55, 0.35]).unwrap();
    for k in [2usize, 3] {
        let pure = enumerate_pure_equilibria(&Exclusive, &f, k, 100_000).unwrap();
        let sym = optimal_coverage(&f, k).unwrap();
        assert!(pure.count > 0);
        assert!(pure.best_coverage >= sym.coverage - 1e-9);
        assert!((pure.best_coverage - f.top_sum(k)).abs() < 1e-9);
    }
}

#[test]
fn best_response_from_sigma_star_samples_reaches_pure_nash() {
    // Sampling a pure profile from sigma* and letting best response clean
    // it up is a natural decentralized pipeline; it always ends in a pure
    // NE (potential argument) and never loses coverage on the way for the
    // exclusive policy.
    use rand::SeedableRng;
    let f = ValueProfile::new(vec![1.0, 0.7, 0.45, 0.3]).unwrap();
    let k = 3;
    let star = StrategySampler::new(&sigma_star(&f, k).unwrap().strategy);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    for _ in 0..25 {
        let sites: Vec<usize> = (0..k).map(|_| star.sample(&mut rng)).collect();
        let start = PureProfile::new(sites, f.len()).unwrap();
        let phi_start = rosenthal_potential(&Exclusive, &f, &start).unwrap();
        let start_coverage = start.coverage(&f);
        let (eq, _) = best_response_dynamics(&Exclusive, &f, start, 10_000).unwrap();
        assert!(is_pure_nash(&Exclusive, &f, &eq).unwrap());
        let phi_eq = rosenthal_potential(&Exclusive, &f, &eq).unwrap();
        assert!(phi_eq >= phi_start - 1e-12);
        // Under the exclusive policy the potential IS the coverage, so
        // best-response cleanup never hurts the group.
        assert!(eq.coverage(&f) >= start_coverage - 1e-12);
    }
}

#[test]
fn exclusive_potential_equals_coverage() {
    // Under C_exc only the first player at a site earns anything, so
    // Rosenthal's potential collapses to the realized coverage — the
    // formal reason selfish improvement aligns with the group objective.
    let f = ValueProfile::new(vec![1.0, 0.6, 0.2]).unwrap();
    for sites in [vec![0, 0, 0], vec![0, 1, 2], vec![2, 2, 1]] {
        let profile = PureProfile::new(sites, 3).unwrap();
        let phi = rosenthal_potential(&Exclusive, &f, &profile).unwrap();
        assert!((phi - profile.coverage(&f)).abs() < 1e-12);
    }
}
