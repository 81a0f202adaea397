//! Pure (asymmetric) strategy profiles and pure Nash equilibria.
//!
//! Section 1.2 of the paper contrasts symmetric mixed equilibria with pure
//! ones: the dispersal game has exponentially many pure equilibria, but
//! selecting one requires coordination, which the model forbids. This
//! module makes that discussion concrete:
//!
//! * the dispersal game under any congestion policy is a **congestion game
//!   in Rosenthal's sense** — the payoff of a player depends only on its
//!   own site and the number of players there — so it admits the exact
//!   potential `Φ(s) = Σ_x Σ_{j=1}^{ℓ_x(s)} f(x)·C(j)`;
//! * best-response dynamics strictly increases `Φ` and therefore reaches a
//!   pure Nash equilibrium in finite time;
//! * for small instances, pure equilibria can be enumerated outright,
//!   exhibiting both their abundance and the fact that the best of them
//!   (a perfect assignment) beats every symmetric strategy's coverage.

use crate::error::{Error, Result};
use crate::payoff::PayoffContext;
use crate::policy::Congestion;
use crate::value::ValueProfile;

/// A pure strategy profile: `sites[i]` is the site chosen by player `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PureProfile {
    sites: Vec<usize>,
}

impl PureProfile {
    /// Build a profile, validating site indices against `m` sites.
    pub fn new(sites: Vec<usize>, m: usize) -> Result<Self> {
        if sites.is_empty() {
            return Err(Error::InvalidPlayerCount { k: 0 });
        }
        for (i, &s) in sites.iter().enumerate() {
            if s >= m {
                return Err(Error::InvalidArgument(format!(
                    "player {i} chose site {s} out of {m}"
                )));
            }
        }
        Ok(Self { sites })
    }

    /// Number of players.
    pub fn k(&self) -> usize {
        self.sites.len()
    }

    /// Site chosen by player `i`.
    pub fn site(&self, i: usize) -> usize {
        self.sites[i]
    }

    /// Per-site occupancy over `m` sites.
    pub fn occupancy(&self, m: usize) -> Vec<usize> {
        let mut occ = vec![0usize; m];
        for &s in &self.sites {
            occ[s] += 1;
        }
        occ
    }

    /// Realized coverage of this profile.
    pub fn coverage(&self, f: &ValueProfile) -> f64 {
        let occ = self.occupancy(f.len());
        occ.iter().enumerate().filter(|(_, &n)| n > 0).map(|(x, _)| f.value(x)).sum()
    }

    /// Payoff of player `i` under policy table `c_table` (`c_table[j] =
    /// C(j+1)`).
    fn payoff_of(&self, f: &ValueProfile, c_table: &[f64], occ: &[usize], i: usize) -> f64 {
        let x = self.sites[i];
        f.value(x) * c_table[(occ[x] - 1).min(c_table.len() - 1)]
    }
}

/// Rosenthal's exact potential `Φ(s) = Σ_x Σ_{j=1}^{ℓ_x} f(x)·C(j)`.
///
/// For any unilateral deviation, the change in the deviator's payoff
/// equals the change in `Φ` — the defining property of an exact potential.
pub fn rosenthal_potential(
    c: &dyn Congestion,
    f: &ValueProfile,
    profile: &PureProfile,
) -> Result<f64> {
    let ctx = PayoffContext::new(c, profile.k())?;
    let c_table = ctx.c_table();
    let occ = profile.occupancy(f.len());
    let mut phi = 0.0;
    for (x, &ell) in occ.iter().enumerate() {
        for j in 0..ell {
            phi += f.value(x) * c_table[j.min(c_table.len() - 1)];
        }
    }
    Ok(phi)
}

/// Check whether a pure profile is a Nash equilibrium; returns the best
/// improving deviation `(player, new_site, gain)` if one exists.
pub fn best_deviation(
    c: &dyn Congestion,
    f: &ValueProfile,
    profile: &PureProfile,
) -> Result<Option<(usize, usize, f64)>> {
    let ctx = PayoffContext::new(c, profile.k())?;
    let c_table = ctx.c_table();
    let mut occ = profile.occupancy(f.len());
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..profile.k() {
        let current = profile.payoff_of(f, c_table, &occ, i);
        let home = profile.site(i);
        for y in 0..f.len() {
            if y == home {
                continue;
            }
            // Payoff if player i moves to y: occupancy there becomes occ[y]+1.
            occ[home] -= 1;
            occ[y] += 1;
            let moved = f.value(y) * c_table[(occ[y] - 1).min(c_table.len() - 1)];
            occ[home] += 1;
            occ[y] -= 1;
            let gain = moved - current;
            if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.2) {
                best = Some((i, y, gain));
            }
        }
    }
    Ok(best)
}

/// True when `profile` is a pure Nash equilibrium.
pub fn is_pure_nash(c: &dyn Congestion, f: &ValueProfile, profile: &PureProfile) -> Result<bool> {
    Ok(best_deviation(c, f, profile)?.is_none())
}

/// Run best-response dynamics from `start` until a pure Nash equilibrium
/// is reached (guaranteed by the potential argument). Returns the
/// equilibrium and the number of improving moves made.
pub fn best_response_dynamics(
    c: &dyn Congestion,
    f: &ValueProfile,
    start: PureProfile,
    max_moves: usize,
) -> Result<(PureProfile, usize)> {
    let mut profile = start;
    for moves in 0..max_moves {
        match best_deviation(c, f, &profile)? {
            None => return Ok((profile, moves)),
            Some((player, site, _)) => {
                profile.sites[player] = site;
            }
        }
    }
    Err(Error::NoConvergence { what: "best-response dynamics", residual: f64::NAN })
}

/// Summary of exhaustive pure-equilibrium enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct PureEquilibria {
    /// Number of pure Nash equilibria.
    pub count: usize,
    /// Total profiles examined (`M^k`).
    pub profiles: usize,
    /// Lowest equilibrium coverage.
    pub worst_coverage: f64,
    /// Highest equilibrium coverage.
    pub best_coverage: f64,
}

/// Enumerate all `M^k` pure profiles (small instances only: the product is
/// capped at `limit` to avoid accidental blow-ups).
pub fn enumerate_pure_equilibria(
    c: &dyn Congestion,
    f: &ValueProfile,
    k: usize,
    limit: usize,
) -> Result<PureEquilibria> {
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    let m = f.len();
    let total = m
        .checked_pow(k as u32)
        .ok_or_else(|| Error::InvalidArgument(format!("M^k overflows for M = {m}, k = {k}")))?;
    if total > limit {
        return Err(Error::InvalidArgument(format!(
            "enumeration of {total} profiles exceeds limit {limit}"
        )));
    }
    let mut count = 0usize;
    let mut worst = f64::INFINITY;
    let mut best = f64::NEG_INFINITY;
    let mut sites = vec![0usize; k];
    for code in 0..total {
        let mut rest = code;
        for slot in sites.iter_mut() {
            *slot = rest % m;
            rest /= m;
        }
        let profile = PureProfile { sites: sites.clone() };
        if is_pure_nash(c, f, &profile)? {
            count += 1;
            let cov = profile.coverage(f);
            worst = worst.min(cov);
            best = best.max(cov);
        }
    }
    Ok(PureEquilibria { count, profiles: total, worst_coverage: worst, best_coverage: best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage;
    use crate::optimal::optimal_coverage;
    use crate::policy::{Exclusive, Sharing};

    #[test]
    fn profile_validation() {
        assert!(PureProfile::new(vec![], 2).is_err());
        assert!(PureProfile::new(vec![0, 2], 2).is_err());
        let p = PureProfile::new(vec![0, 1, 0], 2).unwrap();
        assert_eq!(p.k(), 3);
        assert_eq!(p.occupancy(2), vec![2, 1]);
    }

    #[test]
    fn coverage_counts_each_site_once() {
        let f = ValueProfile::new(vec![1.0, 0.5]).unwrap();
        let p = PureProfile::new(vec![0, 0, 1], 2).unwrap();
        assert!((p.coverage(&f) - 1.5).abs() < 1e-15);
    }

    #[test]
    fn potential_is_exact() {
        // Unilateral deviation changes the deviator's payoff by exactly
        // the potential difference.
        let f = ValueProfile::new(vec![1.0, 0.6, 0.3]).unwrap();
        for c in [&Exclusive as &dyn Congestion, &Sharing] {
            let before = PureProfile::new(vec![0, 0, 1], 3).unwrap();
            let after = PureProfile::new(vec![2, 0, 1], 3).unwrap(); // player 0 moves 0 -> 2
            let phi_before = rosenthal_potential(c, &f, &before).unwrap();
            let phi_after = rosenthal_potential(c, &f, &after).unwrap();
            let ctx = PayoffContext::new(c, 3).unwrap();
            let table = ctx.c_table();
            let occ_before = before.occupancy(3);
            let occ_after = after.occupancy(3);
            let pay_before = f.value(0) * table[occ_before[0] - 1];
            let pay_after = f.value(2) * table[occ_after[2] - 1];
            assert!(
                ((phi_after - phi_before) - (pay_after - pay_before)).abs() < 1e-12,
                "{}: potential not exact",
                c.name()
            );
        }
    }

    #[test]
    fn perfect_assignment_is_pure_nash_under_exclusive() {
        let f = ValueProfile::new(vec![1.0, 0.7, 0.4, 0.2]).unwrap();
        let assignment = PureProfile::new(vec![0, 1, 2], 4).unwrap();
        assert!(is_pure_nash(&Exclusive, &f, &assignment).unwrap());
        // And its coverage is the coordination ceiling.
        assert!((assignment.coverage(&f) - f.top_sum(3)).abs() < 1e-12);
    }

    #[test]
    fn stacked_profile_is_not_nash() {
        let f = ValueProfile::new(vec![1.0, 0.7]).unwrap();
        let stacked = PureProfile::new(vec![0, 0], 2).unwrap();
        let dev = best_deviation(&Exclusive, &f, &stacked).unwrap();
        assert!(dev.is_some());
        let (_, site, gain) = dev.unwrap();
        assert_eq!(site, 1);
        assert!((gain - 0.7).abs() < 1e-12);
    }

    #[test]
    fn best_response_reaches_equilibrium_and_potential_increases() {
        let f = ValueProfile::new(vec![1.0, 0.8, 0.5, 0.2]).unwrap();
        for c in [&Exclusive as &dyn Congestion, &Sharing] {
            let start = PureProfile::new(vec![0, 0, 0, 0], 4).unwrap();
            let phi0 = rosenthal_potential(c, &f, &start).unwrap();
            let (eq, moves) = best_response_dynamics(c, &f, start, 1000).unwrap();
            assert!(is_pure_nash(c, &f, &eq).unwrap());
            assert!(moves > 0);
            let phi1 = rosenthal_potential(c, &f, &eq).unwrap();
            assert!(phi1 > phi0, "{}: potential did not increase", c.name());
        }
    }

    #[test]
    fn equilibrium_count_grows_with_k_exclusive_uniform() {
        // Under exclusive with distinct-enough sites, pure equilibria are
        // the injective assignments onto the top-k sites: their number is
        // k! * C(count of viable arrangements) — at minimum it grows like
        // the factorial of k.
        let f = ValueProfile::new(vec![1.0, 0.9, 0.8]).unwrap();
        let e2 = enumerate_pure_equilibria(&Exclusive, &f, 2, 100_000).unwrap();
        let e3 = enumerate_pure_equilibria(&Exclusive, &f, 3, 100_000).unwrap();
        assert!(e2.count > 0);
        assert!(e3.count > e2.count, "{} vs {}", e3.count, e2.count);
        // k=3, M=3 exclusive: equilibria are exactly the 3! permutations.
        assert_eq!(e3.count, 6);
    }

    #[test]
    fn best_pure_equilibrium_beats_symmetric_optimum() {
        let f = ValueProfile::new(vec![1.0, 0.7, 0.4]).unwrap();
        let k = 2;
        let pure = enumerate_pure_equilibria(&Exclusive, &f, k, 100_000).unwrap();
        let sym = optimal_coverage(&f, k).unwrap();
        assert!(
            pure.best_coverage > sym.coverage,
            "coordination should beat symmetric: {} vs {}",
            pure.best_coverage,
            sym.coverage
        );
        assert!((pure.best_coverage - f.top_sum(k)).abs() < 1e-12);
    }

    #[test]
    fn symmetric_equilibrium_coverage_between_worst_and_best_pure() {
        let f = ValueProfile::new(vec![1.0, 0.6, 0.35]).unwrap();
        let k = 3;
        let pure = enumerate_pure_equilibria(&Exclusive, &f, k, 100_000).unwrap();
        let star = crate::sigma_star::sigma_star(&f, k).unwrap();
        let sym_cov = coverage(&f, &star.strategy, k).unwrap();
        assert!(sym_cov <= pure.best_coverage + 1e-12);
        // (the symmetric optimum can be below the worst pure equilibrium
        // or above it depending on the instance; both are legitimate)
        assert!(pure.worst_coverage <= pure.best_coverage);
    }

    #[test]
    fn enumeration_guard_rails() {
        let f = ValueProfile::uniform(10, 1.0).unwrap();
        assert!(enumerate_pure_equilibria(&Exclusive, &f, 0, 1000).is_err());
        assert!(enumerate_pure_equilibria(&Exclusive, &f, 10, 1000).is_err());
    }

    #[test]
    fn sampled_symmetric_strategy_reaches_various_equilibria() {
        // From random starts, best-response dynamics lands on different
        // pure equilibria (the coordination problem of Section 1.2).
        use rand::Rng as _;
        use rand::SeedableRng as _;
        let f = ValueProfile::new(vec![1.0, 0.9, 0.8]).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut reached = std::collections::HashSet::new();
        for _ in 0..40 {
            let start = PureProfile::new((0..3).map(|_| rng.gen_range(0..3)).collect(), 3).unwrap();
            let (eq, _) = best_response_dynamics(&Exclusive, &f, start, 1000).unwrap();
            reached.insert(eq.sites.clone());
        }
        assert!(reached.len() > 1, "dynamics always found the same equilibrium");
    }
}
