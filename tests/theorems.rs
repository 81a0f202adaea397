//! End-to-end verification of every theorem/observation in the paper,
//! across instance grids — the integration-level counterpart of the
//! experiments (`dispersal exp`).

use selfish_explorers::prelude::*;

fn instance_grid() -> Vec<(ValueProfile, usize)> {
    vec![
        (ValueProfile::new(vec![1.0, 0.3]).unwrap(), 2),
        (ValueProfile::new(vec![1.0, 0.5]).unwrap(), 2),
        (ValueProfile::zipf(20, 1.0, 1.0).unwrap(), 4),
        (ValueProfile::geometric(12, 2.0, 0.7).unwrap(), 5),
        (ValueProfile::linear(30, 1.0, 0.1).unwrap(), 7),
        (ValueProfile::uniform(8, 3.0).unwrap(), 3),
        (ValueProfile::slow_decay_witness(12, 3).unwrap(), 3),
    ]
}

#[test]
fn observation1_optimal_coverage_beats_bound() {
    for (f, k) in instance_grid() {
        let opt = optimal_coverage(&f, k).unwrap();
        let bound = observation1_bound(&f, k);
        assert!(opt.coverage > bound, "Cover(p*) = {} <= bound {bound}", opt.coverage);
    }
}

#[test]
fn observation2_ifd_unique_nash_equilibrium() {
    // The solved IFD is a Nash equilibrium, and perturbing it creates a
    // profitable deviation (uniqueness witness).
    for (f, k) in instance_grid() {
        for policy in [&Exclusive as &dyn Congestion, &Sharing] {
            let ifd = solve_ifd(policy, &f, k).unwrap();
            let gap = dispersal_core::ifd::nash_gap(policy, &f, &ifd.strategy, k).unwrap();
            assert!(gap < 1e-7, "IFD is not an equilibrium: gap {gap}");
        }
    }
}

#[test]
fn claim7_sigma_star_is_the_exclusive_ifd() {
    for (f, k) in instance_grid() {
        if k < 2 {
            continue;
        }
        let star = sigma_star(&f, k).unwrap();
        let solved = solve_ifd(&Exclusive, &f, k).unwrap();
        let d = star.strategy.linf_distance(&solved.strategy).unwrap();
        assert!(d < 1e-7, "closed form vs solver distance {d}");
        let residual =
            dispersal_core::sigma_star::ifd_residual_exclusive(&f, &star.strategy, k).unwrap();
        assert!(residual < 1e-8, "IFD residual {residual}");
    }
}

#[test]
fn theorem3_sigma_star_is_ess() {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    for (f, k) in instance_grid() {
        if f.len() > 12 {
            continue; // keep the exact Poisson-binomial checks fast
        }
        let star = sigma_star(&f, k).unwrap();
        let report = probe_ess_k(&Exclusive, &f, &star.strategy, 60, &mut rng, k).unwrap();
        assert!(report.passed(), "invasions: {:?}", report.invasions);
    }
}

#[test]
fn theorem4_sigma_star_uniquely_maximizes_coverage() {
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    for (f, k) in instance_grid() {
        let star = sigma_star(&f, k).unwrap();
        let star_cov = coverage(&f, &star.strategy, k).unwrap();
        let opt = optimal_coverage(&f, k).unwrap();
        assert!((star_cov - opt.coverage).abs() < 1e-8);
        // Random strategies never do better; strictly worse unless equal to
        // sigma* (uniqueness).
        for _ in 0..25 {
            let weights: Vec<f64> = (0..f.len()).map(|_| rng.gen::<f64>().max(1e-9)).collect();
            let p = Strategy::from_weights(weights).unwrap();
            let cov = coverage(&f, &p, k).unwrap();
            assert!(cov <= star_cov + 1e-9);
            if p.linf_distance(&star.strategy).unwrap() > 1e-3 {
                assert!(cov < star_cov, "distinct strategy tied the optimum");
            }
        }
    }
}

#[test]
fn corollary5_exclusive_spoa_is_one() {
    for (f, k) in instance_grid() {
        let point = spoa(&Exclusive, &f, k).unwrap();
        assert!((point.ratio - 1.0).abs() < 1e-6, "SPoA = {}", point.ratio);
    }
}

#[test]
fn theorem6_other_policies_strictly_above_one() {
    // On the slow-decay witness of the Section 4 proof.
    for k in [2usize, 3, 5] {
        let f = ValueProfile::slow_decay_witness(4 * k, k).unwrap();
        for policy in [
            &Sharing as &dyn Congestion,
            &TwoLevel { c: 0.4 },
            &TwoLevel { c: -0.4 },
            &PowerLaw { beta: 1.5 },
            &Cooperative { theta: 0.5 },
        ] {
            let point = spoa(policy, &f, k).unwrap();
            assert!(
                point.ratio > 1.0 + 1e-9,
                "{} at k = {k}: SPoA = {}",
                policy.name(),
                point.ratio
            );
        }
    }
}

#[test]
fn kleinberg_oren_sharing_spoa_at_most_two() {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    for k in [2usize, 4, 8] {
        let result = spoa_supremum_search(&Sharing, k, 24, 30, &mut rng).unwrap();
        assert!(result.best_ratio < 2.0, "k = {k}: ratio {}", result.best_ratio);
    }
}

#[test]
fn figure1_shape_holds() {
    // ESS coverage peaks at c = 0 and equals the optimum there, for both
    // panels of Figure 1.
    for f2 in [0.3, 0.5] {
        let f = ValueProfile::new(vec![1.0, f2]).unwrap();
        let k = 2;
        let optimum = optimal_coverage(&f, k).unwrap().coverage;
        let cov_at = |c: f64| -> f64 {
            let ifd = solve_ifd(&TwoLevel::new(c).unwrap(), &f, k).unwrap();
            coverage(&f, &ifd.strategy, k).unwrap()
        };
        let at_zero = cov_at(0.0);
        assert!((at_zero - optimum).abs() < 1e-9);
        for c in [-0.5, -0.25, 0.25, 0.5] {
            assert!(cov_at(c) < at_zero + 1e-12, "coverage at c = {c} beats c = 0");
        }
    }
}
