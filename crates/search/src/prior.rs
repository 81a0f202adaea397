//! Bayesian priors over treasure locations.
//!
//! The search game of Fraigniaud–Korman–Rodeh (\[14\], \[24\] in the paper): a
//! treasure is hidden in one of `M` boxes according to a known prior; `k`
//! searchers open boxes in parallel rounds without coordination. A
//! [`Prior`] is a normalized, non-increasing probability vector over boxes
//! — structurally a [`ValueProfile`] whose total is 1, and the paper's
//! observation is that σ⋆ on the prior *is* the first round of the optimal
//! non-coordinating algorithm A⋆.

use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};

/// A normalized prior over boxes, sorted non-increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct Prior {
    profile: ValueProfile,
}

impl Prior {
    /// Build from arbitrary positive weights: sorts and normalizes.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self> {
        let profile = ValueProfile::from_unsorted(weights)?;
        let total = profile.total();
        Ok(Self { profile: profile.scaled(1.0 / total)? })
    }

    /// Build from an already sorted profile, normalizing the total mass.
    pub fn from_profile(profile: &ValueProfile) -> Result<Self> {
        let total = profile.total();
        Ok(Self { profile: profile.scaled(1.0 / total)? })
    }

    /// Uniform prior over `m` boxes.
    pub fn uniform(m: usize) -> Result<Self> {
        Self::from_weights(vec![1.0; m.max(1)]).and_then(|p| {
            if m == 0 {
                Err(Error::EmptyProfile)
            } else {
                Ok(p)
            }
        })
    }

    /// Zipf prior with exponent `s`.
    pub fn zipf(m: usize, s: f64) -> Result<Self> {
        Self::from_profile(&ValueProfile::zipf(m, 1.0, s)?)
    }

    /// Geometric prior with ratio `rho`.
    pub fn geometric(m: usize, rho: f64) -> Result<Self> {
        Self::from_profile(&ValueProfile::geometric(m, 1.0, rho)?)
    }

    /// Number of boxes.
    pub fn len(&self) -> usize {
        self.profile.len()
    }

    /// True when there are no boxes (not constructible).
    pub fn is_empty(&self) -> bool {
        self.profile.is_empty()
    }

    /// Probability the treasure is in box `x` (0-based, sorted order).
    pub fn mass(&self, x: usize) -> f64 {
        self.profile.value(x)
    }

    /// The underlying sorted profile (for σ⋆ computations).
    pub fn profile(&self) -> &ValueProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_weights_sorts_and_normalizes() {
        let p = Prior::from_weights(vec![1.0, 3.0, 2.0]).unwrap();
        assert!((p.mass(0) - 0.5).abs() < 1e-12);
        assert!((p.mass(1) - 2.0 / 6.0).abs() < 1e-12);
        assert!((p.mass(2) - 1.0 / 6.0).abs() < 1e-12);
        let total: f64 = (0..3).map(|x| p.mass(x)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_prior() {
        let p = Prior::uniform(4).unwrap();
        for x in 0..4 {
            assert!((p.mass(x) - 0.25).abs() < 1e-12);
        }
        assert!(Prior::uniform(0).is_err());
    }

    #[test]
    fn zipf_and_geometric_normalized() {
        for p in [Prior::zipf(10, 1.0).unwrap(), Prior::geometric(10, 0.5).unwrap()] {
            let total: f64 = (0..10).map(|x| p.mass(x)).sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(!p.is_empty());
            assert_eq!(p.len(), 10);
        }
    }

    #[test]
    fn rejects_invalid_weights() {
        assert!(Prior::from_weights(vec![]).is_err());
        assert!(Prior::from_weights(vec![1.0, -1.0]).is_err());
    }
}
