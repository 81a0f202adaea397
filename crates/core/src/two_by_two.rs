//! Closed-form solutions for the Figure 1 geometry: `k = 2` players over
//! `M = 2` sites with the two-level congestion family `C_c(1) = 1`,
//! `C_c(2) = c`.
//!
//! For `k = 2` the congestion response is affine, `g(q) = 1 − q·(1 − c)`,
//! so everything is solvable by hand:
//!
//! * **IFD**: equalize `f₁·g(p) = f₂·g(1 − p)` ⇒
//!   `p = (f₁ − c·f₂) / ((1 − c)(f₁ + f₂))`, clamped to `[0, 1]`;
//! * **welfare optimum**: `U(p)` is an exact quadratic in `p`, maximized at
//!   `p = (f₁ − f₂ + 2·f₂·(1 − c)) / (2(1 − c)(f₁ + f₂))`, clamped;
//! * **coverage optimum**: `Cover(p)` is an exact quadratic too, maximized
//!   at `p = f₁ / (f₁ + f₂)` (which is σ⋆ for `k = 2, M = 2`).
//!
//! These formulas exist purely as an *independent cross-check*: the general
//! solvers never see them, and the test suite pins solver output against
//! them to machine precision.

use crate::error::{Error, Result};

/// Closed-form solution of one Figure 1 column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoByTwo {
    /// Collision payoff fraction `c` (must be `< 1` for non-degeneracy).
    pub c: f64,
    /// Top-site value `f₁`.
    pub f1: f64,
    /// Second-site value `f₂ ≤ f₁`.
    pub f2: f64,
    /// IFD probability on the top site.
    pub ifd_p1: f64,
    /// Coverage of the IFD.
    pub ifd_coverage: f64,
    /// Welfare-optimal probability on the top site.
    pub welfare_p1: f64,
    /// Coverage of the welfare optimum.
    pub welfare_coverage: f64,
    /// Coverage-optimal probability on the top site (= σ⋆).
    pub optimal_p1: f64,
    /// The optimal coverage.
    pub optimal_coverage: f64,
}

fn coverage_two(f1: f64, f2: f64, p: f64) -> f64 {
    f1 * (1.0 - (1.0 - p) * (1.0 - p)) + f2 * (1.0 - p * p)
}

/// Solve the 2-player, 2-site game in closed form.
///
/// # Errors
/// Requires `f1 ≥ f2 > 0` and `c < 1` (at `c = 1` congestion is free and
/// the equilibrium degenerates).
pub fn solve_two_by_two(f1: f64, f2: f64, c: f64) -> Result<TwoByTwo> {
    if !(f1.is_finite() && f2.is_finite() && f1 >= f2 && f2 > 0.0) {
        return Err(Error::InvalidArgument(format!("need f1 >= f2 > 0, got f1 = {f1}, f2 = {f2}")));
    }
    if !(c.is_finite() && c < 1.0) {
        return Err(Error::InvalidArgument(format!(
            "need c < 1 for a non-degenerate game, got {c}"
        )));
    }
    let a = 1.0 - c;
    // IFD: f1 (1 - a p) = f2 (1 - a (1 - p)).
    let ifd_p1 = ((f1 - c * f2) / (a * (f1 + f2))).clamp(0.0, 1.0);
    // Welfare: U(p) = p f1 (1 - a p) + (1-p) f2 (1 - a (1-p)); quadratic
    // with vertex below. The leading coefficient is -a (f1 + f2) < 0, so
    // the clamped vertex is the global maximum on [0, 1].
    let welfare_p1 = ((f1 - f2 + 2.0 * f2 * a) / (2.0 * a * (f1 + f2))).clamp(0.0, 1.0);
    // Coverage: quadratic with maximum at f1/(f1+f2).
    let optimal_p1 = f1 / (f1 + f2);
    Ok(TwoByTwo {
        c,
        f1,
        f2,
        ifd_p1,
        ifd_coverage: coverage_two(f1, f2, ifd_p1),
        welfare_p1,
        welfare_coverage: coverage_two(f1, f2, welfare_p1),
        optimal_p1,
        optimal_coverage: coverage_two(f1, f2, optimal_p1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage;
    use crate::ifd::solve_ifd;
    use crate::optimal::optimal_coverage;
    use crate::policy::TwoLevel;
    use crate::sigma_star::sigma_star;
    use crate::value::ValueProfile;
    use crate::welfare::welfare_optimum;

    fn close(x: f64, y: f64, tol: f64) {
        assert!((x - y).abs() < tol, "{x} != {y} (tol {tol})");
    }

    #[test]
    fn validates_inputs() {
        assert!(solve_two_by_two(0.5, 1.0, 0.0).is_err());
        assert!(solve_two_by_two(1.0, 0.0, 0.0).is_err());
        assert!(solve_two_by_two(1.0, 0.5, 1.0).is_err());
        assert!(solve_two_by_two(1.0, 0.5, f64::NAN).is_err());
    }

    #[test]
    fn exclusive_case_matches_sigma_star() {
        // c = 0: the IFD is sigma*, which is also the coverage optimum.
        for f2 in [0.3, 0.5, 0.9] {
            let sol = solve_two_by_two(1.0, f2, 0.0).unwrap();
            let f = ValueProfile::new(vec![1.0, f2]).unwrap();
            let star = sigma_star(&f, 2).unwrap();
            close(sol.ifd_p1, star.strategy.prob(0), 1e-12);
            close(sol.ifd_p1, sol.optimal_p1, 1e-12);
            close(sol.ifd_coverage, sol.optimal_coverage, 1e-12);
        }
    }

    #[test]
    fn closed_form_ifd_matches_general_solver_across_c() {
        for f2 in [0.3, 0.5] {
            let f = ValueProfile::new(vec![1.0, f2]).unwrap();
            for i in 0..=20 {
                let c = -0.5 + i as f64 * 0.05;
                if (c - 1.0).abs() < 1e-9 {
                    continue;
                }
                let sol = solve_two_by_two(1.0, f2, c).unwrap();
                let ifd = solve_ifd(&TwoLevel::new(c).unwrap(), &f, 2).unwrap();
                close(sol.ifd_p1, ifd.strategy.prob(0), 1e-8);
                let cov = coverage(&f, &ifd.strategy, 2).unwrap();
                close(sol.ifd_coverage, cov, 1e-8);
            }
        }
    }

    #[test]
    fn closed_form_welfare_matches_golden_section() {
        for f2 in [0.3, 0.5] {
            let f = ValueProfile::new(vec![1.0, f2]).unwrap();
            for &c in &[-0.5, -0.2, 0.0, 0.3, 0.5] {
                let sol = solve_two_by_two(1.0, f2, c).unwrap();
                let wel = welfare_optimum(&TwoLevel::new(c).unwrap(), &f, 2).unwrap();
                close(sol.welfare_p1, wel.strategy.prob(0), 1e-6);
            }
        }
    }

    #[test]
    fn closed_form_optimum_matches_waterfill() {
        for f2 in [0.25, 0.6, 1.0] {
            let f = ValueProfile::new(vec![1.0, f2]).unwrap();
            let sol = solve_two_by_two(1.0, f2, 0.2).unwrap();
            let opt = optimal_coverage(&f, 2).unwrap();
            close(sol.optimal_p1, opt.strategy.prob(0), 1e-9);
            close(sol.optimal_coverage, opt.coverage, 1e-12);
        }
    }

    #[test]
    fn figure1_peak_at_zero_analytically() {
        // d/dc of the IFD coverage at c = 0 must vanish (the peak), and the
        // coverage at c = 0 equals the optimum.
        for f2 in [0.3, 0.5] {
            let h = 1e-5;
            let at = |c: f64| solve_two_by_two(1.0, f2, c).unwrap().ifd_coverage;
            let derivative = (at(h) - at(-h)) / (2.0 * h);
            assert!(derivative.abs() < 1e-4, "dCover/dc at 0 = {derivative}");
            let sol = solve_two_by_two(1.0, f2, 0.0).unwrap();
            close(sol.ifd_coverage, sol.optimal_coverage, 1e-12);
        }
    }

    #[test]
    fn sharing_parks_everyone_on_top_site_when_values_close() {
        // c = 0.5 (sharing for k = 2), f = (1, 0.5): the clamp binds and
        // the IFD is the point mass on site 1 (coverage = f1).
        let sol = solve_two_by_two(1.0, 0.5, 0.5).unwrap();
        close(sol.ifd_p1, 1.0, 1e-12);
        close(sol.ifd_coverage, 1.0, 1e-12);
    }

    #[test]
    fn aggression_beyond_exclusive_overshoots() {
        // c < 0: the equilibrium spreads *more* than the coverage optimum
        // (p1 below optimal), which is exactly why coverage drops again —
        // the "more competition isn't better" surprise of the paper.
        let sol = solve_two_by_two(1.0, 0.3, -0.4).unwrap();
        assert!(
            sol.ifd_p1 < sol.optimal_p1,
            "aggressive equilibrium should overspread: {} vs {}",
            sol.ifd_p1,
            sol.optimal_p1
        );
        assert!(sol.ifd_coverage < sol.optimal_coverage);
    }
}
