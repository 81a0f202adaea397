//! Congestion reward policies `I(x, ℓ) = f(x) · C(ℓ)` (Section 1.1).
//!
//! A congestion function `C` maps the number of players `ℓ ≥ 1` present at a
//! site to the fraction of the site's value each of them receives. The paper
//! requires `C(1) = 1` and `C` non-increasing; `C` may be negative
//! (aggression) or exceed `1/ℓ` (cooperation). The two distinguished
//! policies are:
//!
//! * [`Exclusive`] — the "Judgment of Solomon" rule `C(1)=1, C(ℓ)=0` for
//!   `ℓ ≥ 2`, which the paper proves is the unique congestion policy whose
//!   IFD optimizes coverage (Theorems 3, 4, 6);
//! * [`Sharing`] — `C(ℓ) = 1/ℓ`, the classical scramble-competition /
//!   Kleinberg–Oren policy with `SPoA ≤ 2`.

use crate::error::{Error, Result};

/// A congestion function `C(ℓ)` for `ℓ ≥ 1`.
///
/// Implementations must satisfy `C(1) = 1` and be non-increasing; callers
/// can verify this for any given player count with [`validate_congestion`].
pub trait Congestion: Send + Sync {
    /// The value `C(ℓ)`; `ell` is the total number of players at the site,
    /// `ell ≥ 1`.
    fn c(&self, ell: usize) -> f64;

    /// Short human-readable name used in reports and plots.
    fn name(&self) -> String;

    /// Whether this is exactly the exclusive function on `[1, k]`.
    fn is_exclusive_up_to(&self, k: usize) -> bool {
        (2..=k).all(|ell| self.c(ell) == 0.0) && self.c(1) == 1.0
    }

    /// Table of `C(1..=k)` values.
    fn table(&self, k: usize) -> Vec<f64> {
        (1..=k).map(|ell| self.c(ell)).collect()
    }
}

/// Verify the congestion-policy axioms on `[1, k]`: `C(1) = 1` and
/// non-increasing. Returns the table of values on success.
pub fn validate_congestion(c: &dyn Congestion, k: usize) -> Result<Vec<f64>> {
    if k == 0 {
        return Err(Error::InvalidPlayerCount { k });
    }
    let table = c.table(k);
    if (table[0] - 1.0).abs() > 1e-12 {
        return Err(Error::BadCongestionAtOne { c1: table[0] });
    }
    for ell in 0..table.len() - 1 {
        if table[ell + 1] > table[ell] + 1e-12 {
            return Err(Error::IncreasingCongestion {
                ell: ell + 1,
                c_ell: table[ell],
                c_next: table[ell + 1],
            });
        }
    }
    Ok(table)
}

/// The exclusive ("Judgment of Solomon") policy: full reward alone, nothing
/// under any collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Exclusive;

impl Congestion for Exclusive {
    #[inline]
    fn c(&self, ell: usize) -> f64 {
        if ell == 1 {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> String {
        "exclusive".to_string()
    }
}

/// The sharing policy `C(ℓ) = 1/ℓ` (scramble competition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sharing;

impl Congestion for Sharing {
    #[inline]
    fn c(&self, ell: usize) -> f64 {
        1.0 / ell as f64
    }

    fn name(&self) -> String {
        "sharing".to_string()
    }
}

/// The constant policy `C(ℓ) ≡ 1`: every visitor obtains the full value.
/// The paper notes this has `SPoA ≈ k` and is ecologically implausible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Constant;

impl Congestion for Constant {
    #[inline]
    fn c(&self, _ell: usize) -> f64 {
        1.0
    }

    fn name(&self) -> String {
        "constant".to_string()
    }
}

/// The two-level family of Figure 1: `C(1) = 1`, `C(ℓ) = c` for `ℓ ≥ 2`.
///
/// `c = 0` is [`Exclusive`]; `c = 0.5` equals [`Sharing`] in the two-player
/// game; negative `c` models aggression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLevel {
    /// The collision payoff fraction `c = C(ℓ)` for `ℓ ≥ 2`; must be ≤ 1.
    pub c: f64,
}

impl TwoLevel {
    /// Construct, validating `c ≤ 1` (non-increasing) and finiteness.
    pub fn new(c: f64) -> Result<Self> {
        if !c.is_finite() || c > 1.0 {
            return Err(Error::InvalidArgument(format!(
                "two-level collision payoff must be finite and <= 1, got {c}"
            )));
        }
        Ok(Self { c })
    }
}

impl Congestion for TwoLevel {
    #[inline]
    fn c(&self, ell: usize) -> f64 {
        if ell == 1 {
            1.0
        } else {
            self.c
        }
    }

    fn name(&self) -> String {
        format!("two-level(c={})", self.c)
    }
}

/// Power-law congestion `C(ℓ) = ℓ^(−β)` with `β ≥ 0`.
///
/// `β = 0` is [`Constant`], `β = 1` is [`Sharing`], `β > 1` is harsher than
/// sharing, and `β → ∞` approaches [`Exclusive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLaw {
    /// Decay exponent `β ≥ 0`.
    pub beta: f64,
}

impl PowerLaw {
    /// Construct, validating `β ≥ 0`.
    pub fn new(beta: f64) -> Result<Self> {
        if !beta.is_finite() || beta < 0.0 {
            return Err(Error::InvalidArgument(format!(
                "power-law exponent must be >= 0, got {beta}"
            )));
        }
        Ok(Self { beta })
    }
}

impl Congestion for PowerLaw {
    #[inline]
    fn c(&self, ell: usize) -> f64 {
        (ell as f64).powf(-self.beta)
    }

    fn name(&self) -> String {
        format!("power-law(beta={})", self.beta)
    }
}

/// Linearly decaying congestion `C(ℓ) = 1 − slope·(ℓ − 1)`, which becomes
/// negative (aggressive) once `ℓ > 1 + 1/slope`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearDecay {
    /// Per-extra-player penalty; must be ≥ 0.
    pub slope: f64,
}

impl LinearDecay {
    /// Construct, validating `slope ≥ 0`.
    pub fn new(slope: f64) -> Result<Self> {
        if !slope.is_finite() || slope < 0.0 {
            return Err(Error::InvalidArgument(format!(
                "linear-decay slope must be >= 0, got {slope}"
            )));
        }
        Ok(Self { slope })
    }
}

impl Congestion for LinearDecay {
    #[inline]
    fn c(&self, ell: usize) -> f64 {
        1.0 - self.slope * (ell as f64 - 1.0)
    }

    fn name(&self) -> String {
        format!("linear-decay(slope={})", self.slope)
    }
}

/// Cooperative congestion: `C(ℓ) = θ/ℓ + (1−θ)·1` interpolating between
/// sharing (`θ = 1`) and constant (`θ = 0`). Every value is strictly larger
/// than the sharing fraction `1/ℓ` when `θ < 1`, modeling synergy at a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cooperative {
    /// Interpolation weight in `[0, 1]`.
    pub theta: f64,
}

impl Cooperative {
    /// Construct, validating `θ ∈ [0, 1]`.
    pub fn new(theta: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&theta) {
            return Err(Error::InvalidArgument(format!(
                "cooperative theta must be in [0,1], got {theta}"
            )));
        }
        Ok(Self { theta })
    }
}

impl Congestion for Cooperative {
    #[inline]
    fn c(&self, ell: usize) -> f64 {
        self.theta / ell as f64 + (1.0 - self.theta)
    }

    fn name(&self) -> String {
        format!("cooperative(theta={})", self.theta)
    }
}

/// A congestion function given by an explicit table of values
/// `C(1), C(2), …`; queries beyond the table repeat the final entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCongestion {
    values: Vec<f64>,
    label: String,
}

impl TableCongestion {
    /// Construct from the table `[C(1), C(2), …]`, which must be non-empty,
    /// start at 1, and be non-increasing.
    pub fn new(values: Vec<f64>, label: impl Into<String>) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::InvalidArgument("congestion table must be non-empty".into()));
        }
        if (values[0] - 1.0).abs() > 1e-12 {
            return Err(Error::BadCongestionAtOne { c1: values[0] });
        }
        for i in 0..values.len() - 1 {
            if values[i + 1] > values[i] + 1e-12 {
                return Err(Error::IncreasingCongestion {
                    ell: i + 1,
                    c_ell: values[i],
                    c_next: values[i + 1],
                });
            }
        }
        Ok(Self { values, label: label.into() })
    }
}

impl Congestion for TableCongestion {
    #[inline]
    fn c(&self, ell: usize) -> f64 {
        let idx = ell.saturating_sub(1).min(self.values.len() - 1);
        self.values[idx]
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_values() {
        let e = Exclusive;
        assert_eq!(e.c(1), 1.0);
        assert_eq!(e.c(2), 0.0);
        assert_eq!(e.c(100), 0.0);
        assert!(e.is_exclusive_up_to(10));
        assert_eq!(e.table(3), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn sharing_values() {
        let s = Sharing;
        assert_eq!(s.c(1), 1.0);
        assert_eq!(s.c(2), 0.5);
        assert_eq!(s.c(4), 0.25);
        assert!(!s.is_exclusive_up_to(3));
    }

    #[test]
    fn constant_values() {
        let c = Constant;
        assert_eq!(c.c(1), 1.0);
        assert_eq!(c.c(7), 1.0);
        assert!(!c.is_exclusive_up_to(2));
        assert!(c.is_exclusive_up_to(1));
    }

    #[test]
    fn two_level_family() {
        let t = TwoLevel::new(0.25).unwrap();
        assert_eq!(t.c(1), 1.0);
        assert_eq!(t.c(2), 0.25);
        assert_eq!(t.c(9), 0.25);
        // c = 0 coincides with exclusive.
        assert!(TwoLevel::new(0.0).unwrap().is_exclusive_up_to(20));
        // Negative c is allowed (aggression).
        assert_eq!(TwoLevel::new(-0.3).unwrap().c(2), -0.3);
        assert!(TwoLevel::new(1.5).is_err());
        assert!(TwoLevel::new(f64::NAN).is_err());
    }

    #[test]
    fn two_level_at_half_matches_sharing_for_two_players() {
        let t = TwoLevel::new(0.5).unwrap();
        let s = Sharing;
        assert_eq!(t.c(1), s.c(1));
        assert_eq!(t.c(2), s.c(2));
    }

    #[test]
    fn power_law_endpoints() {
        assert_eq!(PowerLaw::new(0.0).unwrap().c(5), 1.0);
        assert_eq!(PowerLaw::new(1.0).unwrap().c(4), 0.25);
        assert!((PowerLaw::new(2.0).unwrap().c(3) - 1.0 / 9.0).abs() < 1e-15);
        assert!(PowerLaw::new(-1.0).is_err());
    }

    #[test]
    fn linear_decay_goes_negative() {
        let l = LinearDecay::new(0.4).unwrap();
        assert_eq!(l.c(1), 1.0);
        assert!((l.c(2) - 0.6).abs() < 1e-15);
        assert!(l.c(4) < 0.0);
        assert!(LinearDecay::new(-0.1).is_err());
    }

    #[test]
    fn cooperative_dominates_sharing() {
        let co = Cooperative::new(0.5).unwrap();
        for ell in 2..10usize {
            assert!(co.c(ell) > Sharing.c(ell));
        }
        assert!(Cooperative::new(1.5).is_err());
        // theta = 1 is exactly sharing.
        let s1 = Cooperative::new(1.0).unwrap();
        for ell in 1..6usize {
            assert!((s1.c(ell) - Sharing.c(ell)).abs() < 1e-15);
        }
    }

    #[test]
    fn table_congestion() {
        let t = TableCongestion::new(vec![1.0, 0.4, 0.1], "custom").unwrap();
        assert_eq!(t.c(1), 1.0);
        assert_eq!(t.c(2), 0.4);
        assert_eq!(t.c(3), 0.1);
        assert_eq!(t.c(10), 0.1); // repeats final entry
        assert_eq!(t.name(), "custom");
        assert!(TableCongestion::new(vec![], "x").is_err());
        assert!(TableCongestion::new(vec![0.9], "x").is_err());
        assert!(TableCongestion::new(vec![1.0, 0.2, 0.5], "x").is_err());
    }

    #[test]
    fn validate_congestion_accepts_catalog() {
        for c in [
            &Exclusive as &dyn Congestion,
            &Sharing,
            &Constant,
            &TwoLevel { c: -0.5 },
            &PowerLaw { beta: 2.0 },
            &LinearDecay { slope: 0.3 },
            &Cooperative { theta: 0.7 },
        ] {
            validate_congestion(c, 8).unwrap();
        }
    }

    #[test]
    fn validate_congestion_rejects_bad_functions() {
        struct Increasing;
        impl Congestion for Increasing {
            fn c(&self, ell: usize) -> f64 {
                ell as f64 / 2.0 + 0.5
            }
            fn name(&self) -> String {
                "increasing".into()
            }
        }
        struct BadAtOne;
        impl Congestion for BadAtOne {
            fn c(&self, _ell: usize) -> f64 {
                0.5
            }
            fn name(&self) -> String {
                "bad".into()
            }
        }
        assert!(matches!(
            validate_congestion(&Increasing, 3),
            Err(Error::IncreasingCongestion { .. })
        ));
        assert!(matches!(validate_congestion(&BadAtOne, 3), Err(Error::BadCongestionAtOne { .. })));
        assert!(matches!(
            validate_congestion(&Exclusive, 0),
            Err(Error::InvalidPlayerCount { .. })
        ));
    }
}
