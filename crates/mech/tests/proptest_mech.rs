//! Crate-level property tests for `dispersal-mech`.

use dispersal_core::policy::{Congestion, Sharing, TwoLevel};
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use dispersal_mech::catalog::parse_policy;
use dispersal_mech::kleinberg_oren::{design_rewards, verify_design};
use dispersal_mech::report::{ascii_plot, to_csv, Series};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

fn simplex_point() -> impl PropStrategy<Value = Vec<f64>> {
    proptest::collection::vec(0.05f64..1.0, 2..=8).prop_map(|raw| {
        let sum: f64 = raw.iter().sum();
        let mut p: Vec<f64> = raw.into_iter().map(|x| x / sum).collect();
        // Sort non-increasing so the target has prefix support.
        p.sort_by(|a, b| b.partial_cmp(a).unwrap());
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn reward_design_hits_any_interior_prefix_target(target_probs in simplex_point(), k in 2usize..=6) {
        let target = Strategy::new(target_probs).unwrap();
        let design = design_rewards(&Sharing, &target, k, 1.0).unwrap();
        let err = verify_design(&Sharing, &design, &target).unwrap();
        prop_assert!(err < 1e-6, "design error {err}");
        // Rewards sorted non-increasing (matches ValueProfile invariant).
        let r = design.rewards.values();
        for w in r.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn two_level_spec_roundtrip(c in -5.0f64..=1.0) {
        let spec = format!("two-level:{c}");
        let parsed = parse_policy(&spec).unwrap();
        let direct = TwoLevel::new(c).unwrap();
        for ell in 1..=6usize {
            prop_assert_eq!(parsed.c(ell), direct.c(ell));
        }
    }

    #[test]
    fn csv_rows_and_columns_preserved(rows in proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, 3), 0..10)) {
        let csv = to_csv(&["a", "b", "c"], &rows);
        let lines: Vec<&str> = csv.trim().lines().collect();
        prop_assert_eq!(lines.len(), rows.len() + 1);
        for line in &lines[1..] {
            prop_assert_eq!(line.split(',').count(), 3);
        }
    }

    #[test]
    fn ascii_plot_total_glyphs_bounded(ys in proptest::collection::vec(-5.0f64..5.0, 2..40)) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let plot = ascii_plot(
            "prop",
            &xs,
            &[Series { label: "s".into(), glyph: '#', values: ys.clone() }],
            10,
        )
        .unwrap();
        // Count glyphs only inside the plot grid (lines framed by '|'),
        // not in the '#'-prefixed header/legend lines.
        let glyphs: usize = plot
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.chars().filter(|&ch| ch == '#').count())
            .sum();
        // Exactly one glyph per column (single series).
        prop_assert_eq!(glyphs, ys.len());
    }

    #[test]
    fn noise_robustness_efficiency_in_unit_interval(seed in 0u64..200, noise in 0.0f64..0.8) {
        use rand_chacha::rand_core::SeedableRng;
        let f = ValueProfile::zipf(6, 1.0, 0.9).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let r = dispersal_mech::robustness::value_noise_robustness(&f, 3, noise, 10, &mut rng).unwrap();
        prop_assert!(r.mean_efficiency <= 1.0 + 1e-9);
        prop_assert!(r.worst_efficiency > 0.0);
        prop_assert!(r.worst_efficiency <= r.mean_efficiency + 1e-12);
    }
}
