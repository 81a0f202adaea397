//! CI smoke test: the batched kernel cannot silently diverge from the
//! scalar reference path, checked at `k = 256` (the largest player count
//! the benches exercise). Run explicitly in CI via
//! `cargo test --release -p dispersal-core --test kernel_equivalence`.

use dispersal_core::ess::{ess_ledger, reference_ledger};
use dispersal_core::kernel::{GBatch, GTable, GridSpec};
use dispersal_core::payoff::PayoffContext;
use dispersal_core::policy::{Congestion, Exclusive, PowerLaw, Sharing, TwoLevel};
use dispersal_core::sigma_star::sigma_star;
use dispersal_core::strategy::Strategy;
use dispersal_core::value::ValueProfile;

const K: usize = 256;

fn policies() -> [&'static dyn Congestion; 4] {
    [&Exclusive, &Sharing, &TwoLevel { c: -0.4 }, &PowerLaw { beta: 2.0 }]
}

fn dense_grid() -> Vec<f64> {
    (0..=2048).map(|i| i as f64 / 2048.0).collect()
}

#[test]
fn kernel_is_bit_identical_to_scalar_g_at_k256() {
    for c in policies() {
        let ctx = PayoffContext::new(c, K).unwrap();
        let table = GTable::new(c, K).unwrap();
        let mut scratch = table.scratch();
        for &q in dense_grid().iter() {
            let scalar = ctx.g(q).unwrap();
            let batched = table.eval_with(&mut scratch, q);
            assert_eq!(
                scalar.to_bits(),
                batched.to_bits(),
                "{} q={q}: scalar {scalar} vs kernel {batched}",
                c.name()
            );
        }
    }
}

#[test]
fn kernel_prime_is_bit_identical_to_scalar_g_prime_at_k256() {
    for c in policies() {
        let ctx = PayoffContext::new(c, K).unwrap();
        let table = GTable::new(c, K).unwrap();
        let mut scratch = table.scratch();
        for &q in dense_grid().iter() {
            assert_eq!(
                ctx.g_prime(q).to_bits(),
                table.eval_prime_with(&mut scratch, q).to_bits(),
                "{} q={q}",
                c.name()
            );
        }
    }
}

#[test]
fn fused_path_is_within_contract_at_k256() {
    for c in policies() {
        let ctx = PayoffContext::new(c, K).unwrap();
        let table = GTable::new(c, K).unwrap();
        let tol = 1e-13 * table.scale();
        for &q in dense_grid().iter() {
            let scalar = ctx.g(q).unwrap();
            let fused = table.eval_fused(q);
            assert!(
                (scalar - fused).abs() <= tol,
                "{} q={q}: scalar {scalar} vs fused {fused}",
                c.name()
            );
        }
    }
}

#[test]
fn gbatch_reference_is_bit_identical_and_gemm_within_contract_at_k256() {
    // The policy-batched SoA evaluator, checked at the same k = 256 bar as
    // the per-policy kernel: reference mode bitwise against GTable's exact
    // path, fused GEMM within 1e-13 of per-policy eval_fused.
    let batch = GBatch::new(&policies(), K).unwrap();
    let qs = dense_grid();
    let mut reference = vec![0.0; batch.rows() * qs.len()];
    batch.eval_many_with(&mut batch.scratch(), &qs, &mut reference).unwrap();
    let gemm = batch.eval_grid(&qs);
    let tol = 1e-13 * batch.scale();
    for (r, c) in policies().iter().enumerate() {
        let table = GTable::new(*c, K).unwrap();
        let mut ts = table.scratch();
        for (i, &q) in qs.iter().enumerate() {
            let (got, exact) = (reference[r * qs.len() + i], table.eval_with(&mut ts, q));
            assert_eq!(
                got.to_bits(),
                exact.to_bits(),
                "row {r} q={q}: batch {got} vs exact {exact}"
            );
            let (got, fused) = (gemm[r * qs.len() + i], table.eval_fused(q));
            assert!((got - fused).abs() <= tol, "row {r} q={q}: gemm {got} vs fused {fused}");
        }
    }
}

#[test]
fn exact_tile_is_bit_identical_to_scalar_g_at_k256_and_k1000() {
    // The exact tile (GTable's one-row call and GBatch's whole batch) runs
    // its interior points through the SIMD reference lane on AVX2 hosts:
    // every point of a dense grid, off-grid points and a scratch reused
    // between both grids must keep the scalar `PayoffContext::g` bits.
    let off_grid: Vec<f64> = (0..2048).map(|i| (i as f64 + 0.37) / 2048.0).collect();
    for k in [K, 1000] {
        let batch = GBatch::new(&policies(), k).unwrap();
        let mut batch_scratch = batch.scratch();
        for qs in [dense_grid(), off_grid.clone()] {
            let mut tile = vec![0.0; batch.rows() * qs.len()];
            batch.eval_many_with(&mut batch_scratch, &qs, &mut tile).unwrap();
            for (r, c) in policies().iter().enumerate() {
                let ctx = PayoffContext::new(*c, k).unwrap();
                let mut curve = vec![0.0; qs.len()];
                ctx.kernel().eval_many_with(&mut ctx.kernel().scratch(), &qs, &mut curve).unwrap();
                for (i, &q) in qs.iter().enumerate() {
                    let scalar = ctx.g(q).unwrap().to_bits();
                    assert_eq!(
                        tile[r * qs.len() + i].to_bits(),
                        scalar,
                        "{} k={k} q={q}",
                        c.name()
                    );
                    assert_eq!(curve[i].to_bits(), scalar, "{} k={k} q={q} (GTable)", c.name());
                }
            }
        }
    }
}

#[test]
fn ess_ledger_matches_pre_kernel_path_at_k256() {
    // Acceptance check for the ESS checker at k = 256: level 0 is
    // Σ ρ(x)·f(x)·g_C(σ(x)) with GTable's bits, summed in the ledger's site
    // order, and every level is within 1e-13·S_B of the fresh per-site DP.
    let f = ValueProfile::zipf(6, 1.0, 1.0).unwrap();
    let k = K;
    let ctx = PayoffContext::new(&Exclusive, k).unwrap();
    let sigma = sigma_star(&f, k).unwrap().strategy;
    let pi = Strategy::uniform(6).unwrap();
    let fast = ess_ledger(&ctx, &f, &sigma, &pi).unwrap();
    let reference = reference_ledger(&ctx, &f, &sigma, &pi).unwrap();
    let table = ctx.kernel();
    let mut scratch = table.scratch();
    let (mut res0, mut mu0) = (0.0, 0.0);
    for x in 0..f.len() {
        let g = table.eval_with(&mut scratch, sigma.prob(x));
        if sigma.prob(x) != 0.0 {
            res0 += sigma.prob(x) * f.value(x) * g;
        }
        if pi.prob(x) != 0.0 {
            mu0 += pi.prob(x) * f.value(x) * g;
        }
    }
    assert_eq!(fast.resident[0].to_bits(), res0.to_bits());
    assert_eq!(fast.mutant[0].to_bits(), mu0.to_bits());
    // Exclusive: max|C| = 1, so S_B = max(1, 2·Σf).
    let tol = 1e-13 * (2.0 * f.values().iter().sum::<f64>()).max(1.0);
    for ell in 0..k {
        assert!(
            (fast.resident[ell] - reference.resident[ell]).abs() <= tol,
            "resident level {ell}: {} vs {}",
            fast.resident[ell],
            reference.resident[ell]
        );
        assert!(
            (fast.mutant[ell] - reference.mutant[ell]).abs() <= tol,
            "mutant level {ell}: {} vs {}",
            fast.mutant[ell],
            reference.mutant[ell]
        );
    }
}

#[test]
fn interpolation_grid_meets_bound_at_k256() {
    let table =
        GTable::new(&Sharing, K).unwrap().with_spec(GridSpec::Interpolated { tol: 1e-12 }).unwrap();
    assert!(table.grid_error().unwrap() <= 1e-12 * table.scale());
    let mut scratch = table.scratch();
    // Sample off the refinement's midpoints.
    for i in 0..1000 {
        let q = (i as f64 + 0.31) / 1000.0;
        let exact = table.eval_with(&mut scratch, q);
        let interp = table.eval_fast_with(&mut scratch, q);
        assert!((exact - interp).abs() <= 4.0 * 1e-12, "q={q}: exact {exact} vs interp {interp}");
    }
}
