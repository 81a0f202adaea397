//! Site value profiles: the function `f : [1, M] → R₊` of the paper.
//!
//! A [`ValueProfile`] owns a vector of positive site values sorted in
//! non-increasing order (`f(x) ≥ f(x+1)`), matching the paper's convention
//! that lower-index sites are at least as valuable. All solvers in this
//! crate assume that ordering, so the constructor enforces it (either by
//! validation or by sorting, depending on which builder you use).

use crate::error::{Error, Result};

/// A profile of site values, sorted non-increasing, all entries finite and
/// strictly positive.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueProfile {
    values: Vec<f64>,
}

impl ValueProfile {
    /// Build a profile from values that are already sorted non-increasing.
    ///
    /// # Errors
    /// Fails if the vector is empty, contains a non-finite or non-positive
    /// entry, or is not sorted non-increasing.
    pub fn new(values: Vec<f64>) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::EmptyProfile);
        }
        for (i, &v) in values.iter().enumerate() {
            if !v.is_finite() || v <= 0.0 {
                return Err(Error::InvalidValue { index: i, value: v });
            }
        }
        for i in 0..values.len() - 1 {
            if values[i] < values[i + 1] {
                return Err(Error::InvalidArgument(format!(
                    "values must be sorted non-increasing: f({}) = {} < f({}) = {}",
                    i + 1,
                    values[i],
                    i + 2,
                    values[i + 1]
                )));
            }
        }
        Ok(Self { values })
    }

    /// Build a profile from arbitrary positive values, sorting them into the
    /// canonical non-increasing order.
    pub fn from_unsorted(mut values: Vec<f64>) -> Result<Self> {
        values.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        Self::new(values)
    }

    /// `M` identical sites of value `v`.
    pub fn uniform(m: usize, v: f64) -> Result<Self> {
        Self::new(vec![v; m])
    }

    /// Geometric decay: `f(x) = scale · ρ^(x−1)` for `x = 1..=m`, `0 < ρ ≤ 1`.
    pub fn geometric(m: usize, scale: f64, rho: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&rho) || rho == 0.0 {
            return Err(Error::InvalidArgument(format!(
                "geometric ratio must be in (0, 1], got {rho}"
            )));
        }
        let mut values = Vec::with_capacity(m);
        let mut v = scale;
        for _ in 0..m {
            values.push(v);
            v *= rho;
        }
        Self::new(values)
    }

    /// Zipf / power-law decay: `f(x) = scale / x^s`.
    pub fn zipf(m: usize, scale: f64, s: f64) -> Result<Self> {
        if s < 0.0 {
            return Err(Error::InvalidArgument(format!("zipf exponent must be >= 0, got {s}")));
        }
        Self::new((1..=m).map(|x| scale / (x as f64).powf(s)).collect())
    }

    /// Linear decay: `f(x) = hi − (hi − lo)·(x−1)/(m−1)`, requiring
    /// `hi ≥ lo > 0`. For `m = 1` the single site has value `hi`.
    pub fn linear(m: usize, hi: f64, lo: f64) -> Result<Self> {
        if hi < lo {
            return Err(Error::InvalidArgument(format!(
                "linear profile needs hi >= lo, got {hi} < {lo}"
            )));
        }
        if m == 1 {
            return Self::new(vec![hi]);
        }
        let step = (hi - lo) / ((m - 1) as f64);
        Self::new((0..m).map(|i| hi - step * i as f64).collect())
    }

    /// The slowly-decreasing witness family used in the proof of Theorem 6:
    /// a strictly decreasing profile whose total relative decay satisfies
    /// `f(M)/f(1) > (1 − 1/(2k))^{k−1}`, which forces the IFD support to
    /// exceed `2k` sites.
    pub fn slow_decay_witness(m: usize, k: usize) -> Result<Self> {
        if k < 2 {
            return Err(Error::InvalidPlayerCount { k });
        }
        // Target total decay strictly inside the allowed band.
        let bound = (1.0 - 1.0 / (2.0 * k as f64)).powi(k as i32 - 1);
        // Strictly between bound and 1.
        let target_ratio = 0.5 * (1.0 + bound);
        // Geometric interpolation keeps the profile strictly decreasing.
        let per_step = target_ratio.powf(1.0 / ((m.max(2) - 1) as f64));
        Self::geometric(m, 1.0, per_step)
    }

    /// Number of sites `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the profile has no sites (never constructible; provided for
    /// API completeness and clippy's `len_without_is_empty`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value `f(x)` using 0-based indexing (`site ∈ [0, M)`).
    #[inline]
    pub fn value(&self, site: usize) -> f64 {
        self.values[site]
    }

    /// Borrow the raw sorted value slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sum of all site values (the full-coordination coverage ceiling when
    /// `k ≥ M`).
    pub fn total(&self) -> f64 {
        crate::numerics::kahan_sum(self.values.iter().copied())
    }

    /// Sum of the top `n` values — `Σ_{x ≤ n} f(x)` in the paper's notation
    /// (e.g. the benchmark of Observation 1 uses `n = k`).
    pub fn top_sum(&self, n: usize) -> f64 {
        crate::numerics::kahan_sum(self.values.iter().take(n).copied())
    }

    /// Rescale all values by a positive constant, preserving order.
    pub fn scaled(&self, c: f64) -> Result<Self> {
        if !c.is_finite() || c <= 0.0 {
            return Err(Error::InvalidArgument(format!("scale factor must be positive, got {c}")));
        }
        Self::new(self.values.iter().map(|v| v * c).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_sorted_positive() {
        let f = ValueProfile::new(vec![3.0, 2.0, 2.0, 0.5]).unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(f.value(0), 3.0);
        assert_eq!(f.value(3), 0.5);
        assert!(!f.is_empty());
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(ValueProfile::new(vec![]).unwrap_err(), Error::EmptyProfile);
    }

    #[test]
    fn new_rejects_nonpositive_and_nonfinite() {
        assert!(matches!(
            ValueProfile::new(vec![1.0, 0.0]),
            Err(Error::InvalidValue { index: 1, .. })
        ));
        assert!(matches!(
            ValueProfile::new(vec![1.0, -2.0]),
            Err(Error::InvalidValue { index: 1, .. })
        ));
        assert!(matches!(
            ValueProfile::new(vec![f64::NAN]),
            Err(Error::InvalidValue { index: 0, .. })
        ));
        assert!(matches!(
            ValueProfile::new(vec![f64::INFINITY]),
            Err(Error::InvalidValue { index: 0, .. })
        ));
    }

    #[test]
    fn new_rejects_unsorted() {
        assert!(ValueProfile::new(vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn from_unsorted_sorts() {
        let f = ValueProfile::from_unsorted(vec![1.0, 3.0, 2.0]).unwrap();
        assert_eq!(f.values(), &[3.0, 2.0, 1.0]);
    }

    #[test]
    fn uniform_builder() {
        let f = ValueProfile::uniform(4, 2.5).unwrap();
        assert_eq!(f.values(), &[2.5; 4]);
        assert!(ValueProfile::uniform(0, 1.0).is_err());
    }

    #[test]
    fn geometric_builder() {
        let f = ValueProfile::geometric(3, 8.0, 0.5).unwrap();
        assert_eq!(f.values(), &[8.0, 4.0, 2.0]);
        assert!(ValueProfile::geometric(3, 1.0, 0.0).is_err());
        assert!(ValueProfile::geometric(3, 1.0, 1.5).is_err());
    }

    #[test]
    fn zipf_builder() {
        let f = ValueProfile::zipf(3, 1.0, 1.0).unwrap();
        assert!((f.value(1) - 0.5).abs() < 1e-15);
        assert!((f.value(2) - 1.0 / 3.0).abs() < 1e-15);
        assert!(ValueProfile::zipf(3, 1.0, -1.0).is_err());
    }

    #[test]
    fn linear_builder() {
        let f = ValueProfile::linear(3, 1.0, 0.5).unwrap();
        assert_eq!(f.values(), &[1.0, 0.75, 0.5]);
        assert_eq!(ValueProfile::linear(1, 2.0, 1.0).unwrap().values(), &[2.0]);
        assert!(ValueProfile::linear(3, 0.5, 1.0).is_err());
    }

    #[test]
    fn slow_decay_witness_satisfies_theorem6_band() {
        for &k in &[2usize, 3, 5, 10] {
            let m = 4 * k;
            let f = ValueProfile::slow_decay_witness(m, k).unwrap();
            let bound = (1.0 - 1.0 / (2.0 * k as f64)).powi(k as i32 - 1);
            assert!(f.values().windows(2).all(|w| w[0] > w[1]), "k={k}: not strictly decreasing");
            let decay = f.value(m - 1) / f.value(0);
            assert!(decay > bound, "k={k}: {decay} <= {bound}");
        }
        assert!(ValueProfile::slow_decay_witness(10, 1).is_err());
    }

    #[test]
    fn totals_and_top_sums() {
        let f = ValueProfile::new(vec![3.0, 2.0, 1.0]).unwrap();
        assert!((f.total() - 6.0).abs() < 1e-15);
        assert!((f.top_sum(2) - 5.0).abs() < 1e-15);
        assert!((f.top_sum(10) - 6.0).abs() < 1e-15);
        assert!((f.top_sum(0)).abs() < 1e-15);
    }

    #[test]
    fn scaled_and_truncated() {
        let f = ValueProfile::new(vec![3.0, 2.0, 1.0]).unwrap();
        assert_eq!(f.scaled(2.0).unwrap().values(), &[6.0, 4.0, 2.0]);
        assert!(f.scaled(0.0).is_err());
        assert!(f.scaled(f64::NAN).is_err());
    }
}
