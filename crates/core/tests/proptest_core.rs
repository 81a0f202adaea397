//! Crate-level property tests for `dispersal-core`: randomized checks of
//! the numerics, the game axioms, and the solver identities.

use dispersal_core::coverage::{coverage, coverage_gradient, miss_mass};
use dispersal_core::ess::ess_ledger;
use dispersal_core::kernel::{GBatch, GTable, PbTable};
use dispersal_core::numerics::{
    binomial_pmf, binomial_pmf_vector, kahan_sum, poisson_binomial_pmf,
};
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::{Congestion, PowerLaw, Sharing, TableCongestion, TwoLevel};
use dispersal_core::pure::{rosenthal_potential, PureProfile};
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

fn values() -> impl PropStrategy<Value = Vec<f64>> {
    proptest::collection::vec(0.1f64..5.0, 2..=10)
}

/// A random validated (monotone, `C(1) = 1`) congestion table: start at 1
/// and apply non-negative decrements, which may reach negative values
/// (aggression) — every table passes `validate_congestion`.
fn monotone_c_table() -> impl PropStrategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..0.4, 0..=31).prop_map(|decrements| {
        let mut table = vec![1.0];
        for d in decrements {
            let last = *table.last().expect("non-empty");
            table.push(last - d);
        }
        table
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn binomial_pmf_vector_is_a_distribution(n in 0usize..60, p in 0.0f64..=1.0) {
        let pmf = binomial_pmf_vector(n, p);
        prop_assert_eq!(pmf.len(), n + 1);
        let total: f64 = pmf.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10);
        prop_assert!(pmf.iter().all(|&x| x >= 0.0));
        // Mean = n p.
        let mean: f64 = pmf.iter().enumerate().map(|(j, &q)| j as f64 * q).sum();
        prop_assert!((mean - n as f64 * p).abs() < 1e-8);
    }

    #[test]
    fn poisson_binomial_brute_force_agreement(probs in proptest::collection::vec(0.0f64..=1.0, 1..=6)) {
        // Enumerate all 2^n outcomes and compare.
        let n = probs.len();
        let pmf = poisson_binomial_pmf(&probs);
        let mut brute = vec![0.0; n + 1];
        for mask in 0..(1usize << n) {
            let mut prob = 1.0;
            let mut ones = 0usize;
            for (i, &p) in probs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    prob *= p;
                    ones += 1;
                } else {
                    prob *= 1.0 - p;
                }
            }
            brute[ones] += prob;
        }
        for j in 0..=n {
            prop_assert!((pmf[j] - brute[j]).abs() < 1e-10, "j = {j}: {} vs {}", pmf[j], brute[j]);
        }
    }

    #[test]
    fn kahan_matches_exact_on_small_sets(xs in proptest::collection::vec(-1e3f64..1e3, 0..50)) {
        let naive: f64 = xs.iter().sum();
        let kahan = kahan_sum(xs.iter().copied());
        prop_assert!((naive - kahan).abs() <= 1e-9 * (1.0 + naive.abs()));
    }

    #[test]
    fn g_lies_between_extreme_congestion_values(vals in values(), k in 2usize..=10, q in 0.0f64..=1.0, c in -0.9f64..1.0) {
        let _ = vals;
        let policy = TwoLevel::new(c).unwrap();
        let ctx = PayoffContext::new(&policy, k).unwrap();
        let g = ctx.g(q).unwrap();
        let (lo, hi) = (policy.c(k).min(policy.c(1)), policy.c(1).max(policy.c(k)));
        prop_assert!(g >= lo - 1e-12 && g <= hi + 1e-12, "g({q}) = {g} outside [{lo}, {hi}]");
    }

    #[test]
    fn g_monotone_decreasing_in_q(k in 2usize..=8, beta in 0.1f64..3.0, q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let ctx = PayoffContext::new(&PowerLaw::new(beta).unwrap(), k).unwrap();
        prop_assert!(ctx.g(lo_q).unwrap() >= ctx.g(hi_q).unwrap() - 1e-12);
    }

    #[test]
    fn coverage_gradient_matches_finite_difference(vals in values(), k in 1usize..=6) {
        let f = ValueProfile::from_unsorted(vals).unwrap();
        let p = Strategy::uniform(f.len()).unwrap();
        let grad = coverage_gradient(&f, &p, k).unwrap();
        let h = 1e-6;
        for x in 0..f.len() {
            let mut probs = p.probs().to_vec();
            probs[x] += h;
            let bumped: f64 = f
                .values()
                .iter()
                .zip(probs.iter())
                .map(|(&fx, &px)| fx * (1.0 - (1.0 - px).powi(k as i32)))
                .sum();
            let base = coverage(&f, &p, k).unwrap();
            let fd = (bumped - base) / h;
            prop_assert!((grad[x] - fd).abs() < 1e-3 * (1.0 + grad[x].abs()));
        }
    }

    #[test]
    fn coverage_monotone_under_pointwise_value_increase(vals in values(), k in 1usize..=6, scale in 1.01f64..3.0) {
        let f = ValueProfile::from_unsorted(vals).unwrap();
        let bigger = f.scaled(scale).unwrap();
        let p = Strategy::uniform(f.len()).unwrap();
        prop_assert!(coverage(&bigger, &p, k).unwrap() > coverage(&f, &p, k).unwrap());
    }

    #[test]
    fn miss_mass_decreases_with_k(vals in values()) {
        let f = ValueProfile::from_unsorted(vals).unwrap();
        let p = Strategy::uniform(f.len()).unwrap();
        let mut prev = f64::INFINITY;
        for k in 1..8usize {
            let t = miss_mass(&f, &p, k).unwrap();
            prop_assert!(t <= prev + 1e-12);
            prev = t;
        }
    }

    #[test]
    fn rosenthal_potential_exact_for_random_deviations(
        vals in values(),
        sites in proptest::collection::vec(0usize..10, 2..=6),
        mover in 0usize..6,
        target in 0usize..10,
    ) {
        let f = ValueProfile::from_unsorted(vals).unwrap();
        let m = f.len();
        let k = sites.len();
        let mover = mover % k;
        let target = target % m;
        let sites: Vec<usize> = sites.into_iter().map(|s| s % m).collect();
        let before = PureProfile::new(sites.clone(), m).unwrap();
        let mut moved_sites = sites.clone();
        moved_sites[mover] = target;
        let after = PureProfile::new(moved_sites, m).unwrap();
        let policy = Sharing;
        let ctx = PayoffContext::new(&policy, k).unwrap();
        let table = ctx.c_table();
        let occ_before = before.occupancy(m);
        let occ_after = after.occupancy(m);
        let pay_before = f.value(sites[mover]) * table[occ_before[sites[mover]] - 1];
        let pay_after = f.value(target) * table[occ_after[target] - 1];
        let dphi = rosenthal_potential(&policy, &f, &after).unwrap()
            - rosenthal_potential(&policy, &f, &before).unwrap();
        prop_assert!(
            (dphi - (pay_after - pay_before)).abs() < 1e-9,
            "potential not exact: dphi {dphi} vs dpay {}",
            pay_after - pay_before
        );
    }

    #[test]
    fn gtable_eval_many_matches_scalar_g(
        c_table in monotone_c_table(),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..=64),
    ) {
        let k = c_table.len();
        let policy = TableCongestion::new(c_table, "prop").unwrap();
        let ctx = PayoffContext::new(&policy, k).unwrap();
        let table = GTable::new(&policy, k).unwrap();
        let mut batch = vec![0.0; qs.len()];
        table.eval_many_with(&mut table.scratch(), &qs, &mut batch).unwrap();
        for (&q, &batched) in qs.iter().zip(batch.iter()) {
            let scalar = ctx.g(q).unwrap();
            prop_assert!(
                (batched - scalar).abs() <= 1e-13,
                "k = {k} q = {q}: batched {batched} vs scalar {scalar}"
            );
            // The fused throughput path honors the same contract.
            let fused = table.eval_fused(q);
            prop_assert!(
                (fused - scalar).abs() <= 1e-13,
                "k = {k} q = {q}: fused {fused} vs scalar {scalar}"
            );
        }
    }

    #[test]
    fn gbatch_rows_match_per_policy_tables(
        decrements in proptest::collection::vec(0.0f64..0.4, 0..=31),
        factors in proptest::collection::vec(0.1f64..1.0, 2..=6),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..=32),
    ) {
        // All rows share k = decrements.len() + 1 (one k-tile); row r
        // scales the shared decrement sequence by its own factor, giving
        // distinct monotone tables.
        let rows: Vec<Vec<f64>> = factors
            .iter()
            .map(|&s| {
                let mut table = vec![1.0];
                for &d in &decrements {
                    let last = *table.last().expect("non-empty");
                    table.push(last - s * d);
                }
                table
            })
            .collect();
        let tables: Vec<GTable> =
            rows.iter().map(|r| GTable::from_coefficients(r.clone()).unwrap()).collect();
        let batch = GBatch::from_rows(rows).unwrap();
        let mut ref_out = vec![0.0; batch.rows() * qs.len()];
        batch.eval_many_with(&mut batch.scratch(), &qs, &mut ref_out).unwrap();
        let fused_out = batch.eval_grid(&qs);
        let tol = 1e-13 * batch.scale();
        for (r, table) in tables.iter().enumerate() {
            let mut ts = table.scratch();
            for (i, &q) in qs.iter().enumerate() {
                let cell = r * qs.len() + i;
                // Reference mode is bit-identical to the per-policy path.
                let exact = table.eval_with(&mut ts, q);
                prop_assert_eq!(
                    ref_out[cell].to_bits(), exact.to_bits(),
                    "row {} q = {}: batch {} vs table {}", r, q, ref_out[cell], exact
                );
                // The GEMM path honors the per-policy fused contract.
                let fused = table.eval_fused(q);
                prop_assert!(
                    (fused_out[cell] - fused).abs() <= tol,
                    "row {} q = {}: gemm {} vs fused {}", r, q, fused_out[cell], fused
                );
            }
        }
    }

    #[test]
    fn g_nonincreasing_for_every_monotone_policy(
        c_table in monotone_c_table(),
        qs in proptest::collection::vec(0.0f64..=1.0, 2..=64),
    ) {
        let k = c_table.len();
        let policy = TableCongestion::new(c_table, "prop").unwrap();
        let table = GTable::new(&policy, k).unwrap();
        let mut sorted = qs;
        sorted.sort_by(f64::total_cmp);
        let mut values = vec![0.0; sorted.len()];
        table.eval_many_with(&mut table.scratch(), &sorted, &mut values).unwrap();
        for (w, qw) in values.windows(2).zip(sorted.windows(2)) {
            prop_assert!(
                w[1] <= w[0] + 1e-12,
                "g not nonincreasing at k = {k}: g({}) = {} > g({}) = {}",
                qw[1], w[1], qw[0], w[0]
            );
        }
    }

    #[test]
    fn pb_table_matches_scalar_pmf_and_is_a_distribution(
        probs in proptest::collection::vec(0.0f64..=1.0, 1..=128),
    ) {
        let table = PbTable::from_probs(&probs).unwrap();
        let reference = poisson_binomial_pmf(&probs);
        prop_assert_eq!(table.pmf().len(), reference.len());
        let mut total = 0.0;
        for (j, (&a, &b)) in table.pmf().iter().zip(reference.iter()).enumerate() {
            prop_assert!((a - b).abs() <= 1e-13, "pmf[{j}]: batched {a} vs scalar {b}");
            prop_assert!(a >= 0.0, "pmf[{j}] = {a} negative");
            total += a;
        }
        prop_assert!((total - 1.0).abs() <= 1e-10, "pmf sums to {total}");
    }

    #[test]
    fn pb_table_single_rank_update_matches_fresh_dp(
        base in proptest::collection::vec(0.0f64..=1.0, 1..=128),
        extra in 0.0f64..=1.0,
        pick in 0usize..128,
    ) {
        // One add-one, one remove-one, and one replace, each checked
        // against a from-scratch DP to the tight single-step bound.
        let check = |table: &PbTable, multiset: &[f64], what: &str| {
            let reference = poisson_binomial_pmf(multiset);
            for (j, (&a, &b)) in table.pmf().iter().zip(reference.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-13,
                    "{what} pmf[{j}]: updated {a} vs fresh {b}"
                );
                assert!(a >= 0.0, "{what} pmf[{j}] = {a} negative");
            }
            let total: f64 = table.pmf().iter().sum();
            assert!((total - 1.0).abs() <= 1e-10, "{what} pmf sums to {total}");
        };
        let mut table = PbTable::from_probs(&base).unwrap();
        let mut current = base;
        table.push(extra).unwrap();
        current.push(extra);
        check(&table, &current, "add-one");
        let victim = current.swap_remove(pick % current.len());
        table.remove(victim).unwrap();
        check(&table, &current, "remove-one");
        if !current.is_empty() {
            let slot = pick % current.len();
            table.replace(current[slot], extra).unwrap();
            current[slot] = extra;
            check(&table, &current, "replace");
        }
    }

    #[test]
    fn pb_table_rank_update_walks_match_fresh_dp(
        base in proptest::collection::vec(0.0f64..=1.0, 1..=48),
        edits in proptest::collection::vec((0.0f64..=1.0, 0usize..64, 0u8..3), 1..=24),
    ) {
        // Random walk of add-one / remove-one / replace rank updates,
        // compared against a from-scratch DP on the tracked multiset
        // after every step. Deconvolution round-off accumulates over the
        // walk; the contractive recurrences keep it at the 1e-12 bound
        // the k-level ESS ledger is specified to (single-step paths hold
        // 1e-13, see above).
        let mut table = PbTable::from_probs(&base).unwrap();
        let mut current = base;
        for (p, pick, op) in edits {
            match op {
                0 => {
                    table.push(p).unwrap();
                    current.push(p);
                }
                1 if !current.is_empty() => {
                    let victim = current.swap_remove(pick % current.len());
                    table.remove(victim).unwrap();
                }
                _ if !current.is_empty() => {
                    let slot = pick % current.len();
                    let old = current[slot];
                    table.replace(old, p).unwrap();
                    current[slot] = p;
                }
                _ => {}
            }
            let reference = poisson_binomial_pmf(&current);
            prop_assert_eq!(table.len(), current.len());
            let mut total = 0.0;
            for (j, (&a, &b)) in table.pmf().iter().zip(reference.iter()).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-12,
                    "after walk to {} factors pmf[{j}]: updated {a} vs fresh {b}",
                    current.len()
                );
                prop_assert!(a >= 0.0);
                total += a;
            }
            prop_assert!((total - 1.0).abs() <= 1e-10);
        }
    }

    #[test]
    fn heterogeneous_payoff_matches_pre_kernel_reference(
        vals in proptest::collection::vec(0.1f64..5.0, 2..=5),
        sigma_weights in proptest::collection::vec(0.05f64..1.0, 5),
        pi_weights in proptest::collection::vec(0.05f64..1.0, 5),
        k in 2usize..=9,
    ) {
        // Every ledger level is a heterogeneous payoff
        // E(rho; sigma^(k-1-l), pi^l), with rho = sigma in the resident
        // column and rho = pi in the mutant column.
        let f = ValueProfile::from_unsorted(vals).unwrap();
        let m = f.len();
        let sigma = Strategy::from_weights(sigma_weights[..m].to_vec()).unwrap();
        let pi = Strategy::from_weights(pi_weights[..m].to_vec()).unwrap();
        let ctx = PayoffContext::new(&Sharing, k).unwrap();
        let ledger = ess_ledger(&ctx, &f, &sigma, &pi).unwrap();
        for (l, (&res, &mu)) in ledger.resident.iter().zip(&ledger.mutant).enumerate() {
            for (rho, batched) in [(&sigma, res), (&pi, mu)] {
                // Pre-kernel reference: fresh per-site Poisson-binomial DP.
                let mut reference = 0.0;
                for x in 0..m {
                    let mut probs = vec![sigma.prob(x); k - 1 - l];
                    probs.extend(std::iter::repeat_n(pi.prob(x), l));
                    let pmf = poisson_binomial_pmf(&probs);
                    let expected_c: f64 =
                        kahan_sum(pmf.iter().zip(ctx.c_table().iter()).map(|(p, c)| p * c));
                    reference += rho.prob(x) * f.value(x) * expected_c;
                }
                prop_assert!(
                    (batched - reference).abs() <= 1e-13 * (1.0 + reference.abs()),
                    "level {l}: ledger {batched} vs scalar {reference}"
                );
            }
        }
    }

    #[test]
    fn binomial_pointwise_vs_vector(n in 0usize..40, p in 0.0f64..=1.0, j in 0usize..45) {
        let vec = binomial_pmf_vector(n, p);
        let point = binomial_pmf(n, j, p);
        if j <= n {
            prop_assert!((vec[j] - point).abs() < 1e-12);
        } else {
            prop_assert_eq!(point, 0.0);
        }
    }
}
