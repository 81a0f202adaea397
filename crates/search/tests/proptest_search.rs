//! Crate-level property tests for `dispersal-search`.

use dispersal_core::coverage::coverage;
use dispersal_search::astar::IteratedSigmaStar;
use dispersal_search::baselines::UniformPlan;
use dispersal_search::game::evaluate_plan;
use dispersal_search::mech_space::{MechFamily, MechPoint};
use dispersal_search::plan::SearchPlan;
use dispersal_search::prior::Prior;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

fn weights() -> impl PropStrategy<Value = Vec<f64>> {
    proptest::collection::vec(0.05f64..5.0, 2..=12)
}

/// Map a family selector plus unit-cube coordinates onto a mechanism
/// point inside that family's root box — `table()` must accept every
/// interior point without per-child rescue paths.
fn mech_point(family: usize, u: (f64, f64, f64)) -> MechPoint {
    match family % 3 {
        0 => MechPoint {
            family: MechFamily::Piecewise,
            params: vec![2.0 + u.0 * 14.0, -0.5 + u.1 * 1.5, u.2],
        },
        1 => MechPoint { family: MechFamily::PowerLaw, params: vec![u.0 * 6.0] },
        _ => MechPoint { family: MechFamily::BudgetNormed, params: vec![u.0 * 2.0, u.1 * 3.0] },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn round_one_maximizes_round_success(ws in weights(), k in 1usize..=6) {
        // Round 1 of the plan maximizes the single-round detection
        // probability among the tested alternatives (it IS the coverage
        // optimizer).
        let prior = Prior::from_weights(ws).unwrap();
        let mut plan = IteratedSigmaStar::new(&prior, k).unwrap();
        let round1 = plan.round(0).unwrap();
        let star_success = coverage(prior.profile(), &round1, k).unwrap();
        let m = prior.len();
        let alternatives = [
            dispersal_core::strategy::Strategy::uniform(m).unwrap(),
            dispersal_core::strategy::Strategy::delta(m, 0).unwrap(),
            dispersal_core::strategy::Strategy::uniform_on_top(m, k.min(m)).unwrap(),
        ];
        for alt in &alternatives {
            let alt_success = coverage(prior.profile(), alt, k).unwrap();
            prop_assert!(alt_success <= star_success + 1e-9);
        }
        prop_assert!(star_success > 0.0 && star_success <= 1.0 + 1e-12);
    }

    #[test]
    fn expected_rounds_at_least_one_and_success_valid(ws in weights(), k in 1usize..=5) {
        let prior = Prior::from_weights(ws).unwrap();
        let mut plan = IteratedSigmaStar::new(&prior, k).unwrap();
        let eval = evaluate_plan(&mut plan, &prior, k, 80).unwrap();
        prop_assert!(eval.expected_rounds >= 1.0 - 1e-12);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&eval.success_probability));
        prop_assert_eq!(eval.success_by_round.len(), 80);
    }

    #[test]
    fn astar_never_slower_than_uniform(ws in weights(), k in 1usize..=5) {
        let prior = Prior::from_weights(ws).unwrap();
        let m = prior.len();
        let mut astar = IteratedSigmaStar::new(&prior, k).unwrap();
        let a = evaluate_plan(&mut astar, &prior, k, 200).unwrap();
        let mut uni = UniformPlan::new(m).unwrap();
        let u = evaluate_plan(&mut uni, &prior, k, 200).unwrap();
        prop_assert!(
            a.expected_rounds <= u.expected_rounds + 1e-6,
            "astar {} vs uniform {}",
            a.expected_rounds,
            u.expected_rounds
        );
    }

    #[test]
    fn mech_family_tables_are_always_valid_congestion_tables(
        family in 0usize..3,
        u in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        k in 2usize..=16,
    ) {
        let point = mech_point(family, u);
        // Every point of every family expands to a table TableCongestion
        // accepts: C(1) = 1 exactly, every entry finite, non-increasing
        // (monotone where the family claims it). This is the invariant
        // the mechanism-space search relies on to batch arbitrary
        // sibling sets into one GBatch tile without per-child rescue
        // paths.
        let table = point.table(k).unwrap();
        prop_assert_eq!(table.len(), k);
        prop_assert_eq!(table[0].to_bits(), 1.0f64.to_bits());
        for v in &table {
            prop_assert!(v.is_finite(), "non-finite entry in {table:?}");
        }
        for w in table.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12, "increasing table {table:?}");
        }
        dispersal_core::policy::TableCongestion::new(table, point.spec()).unwrap();
    }

    #[test]
    fn mech_points_reject_non_finite_parameters(
        family in 0usize..3,
        u in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        bad_index in 0usize..3,
    ) {
        let mut broken = mech_point(family, u);
        let i = bad_index % broken.params.len();
        broken.params[i] = f64::NAN;
        prop_assert!(broken.validate().is_err());
        prop_assert!(broken.table(8).is_err());
    }

    #[test]
    fn round_distributions_always_valid(ws in weights(), k in 1usize..=4, t in 0usize..20) {
        let prior = Prior::from_weights(ws).unwrap();
        let mut plan = IteratedSigmaStar::new(&prior, k).unwrap();
        let r = plan.round(t).unwrap();
        let sum: f64 = r.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(r.probs().iter().all(|&p| p >= 0.0));
    }
}
