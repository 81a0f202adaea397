//! Mixed strategies: probability distributions over sites.
//!
//! A [`Strategy`] is a point of the `M`-simplex. It is the object every
//! player commits to in the one-shot dispersal game, and — via symmetric
//! profiles — the object whose coverage, equilibrium, and stability
//! properties the paper studies.

use crate::error::{Error, Result};
use rand::Rng;
use std::num::NonZeroU64;
use std::ops::Rem;

/// Tolerance used when validating that probabilities sum to one.
pub const NORMALIZATION_TOL: f64 = 1e-9;

/// A mixed strategy over `M` sites (0-based site indices).
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    probs: Vec<f64>,
}

impl Strategy {
    /// Build a strategy from raw probabilities.
    ///
    /// # Errors
    /// Fails if empty, if any entry is negative/non-finite, or if the sum
    /// deviates from 1 by more than [`NORMALIZATION_TOL`].
    pub fn new(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(Error::EmptyStrategy);
        }
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(Error::InvalidProbability { index: i, value: p });
            }
        }
        let sum = crate::numerics::kahan_sum(probs.iter().copied());
        if (sum - 1.0).abs() > NORMALIZATION_TOL {
            return Err(Error::NotNormalized { sum });
        }
        Ok(Self { probs })
    }

    /// Build from non-negative weights, normalizing them to sum to 1.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(Error::EmptyStrategy);
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(Error::InvalidProbability { index: i, value: w });
            }
        }
        let sum: f64 = crate::numerics::kahan_sum(weights.iter().copied());
        if sum <= 0.0 {
            return Err(Error::NotNormalized { sum });
        }
        Self::new(weights.into_iter().map(|w| w / sum).collect())
    }

    /// The uniform distribution over all `m` sites.
    pub fn uniform(m: usize) -> Result<Self> {
        if m == 0 {
            return Err(Error::EmptyStrategy);
        }
        Self::new(vec![1.0 / m as f64; m])
    }

    /// The strategy `p̂` from Observation 1: uniform over the top `n` sites
    /// of an `m`-site world (`p̂(x) = 1/n` for `x ≤ n`).
    pub fn uniform_on_top(m: usize, n: usize) -> Result<Self> {
        if m == 0 || n == 0 || n > m {
            return Err(Error::InvalidArgument(format!(
                "uniform_on_top requires 0 < n <= m, got n = {n}, m = {m}"
            )));
        }
        let mut probs = vec![0.0; m];
        for p in probs.iter_mut().take(n) {
            *p = 1.0 / n as f64;
        }
        Self::new(probs)
    }

    /// Point mass on a single site.
    pub fn delta(m: usize, site: usize) -> Result<Self> {
        if site >= m {
            return Err(Error::InvalidArgument(format!("site {site} out of range for m = {m}")));
        }
        let mut probs = vec![0.0; m];
        probs[site] = 1.0;
        Self::new(probs)
    }

    /// Probability proportional to site values (`p(x) ∝ f(x)`), a natural
    /// "matching" heuristic baseline.
    pub fn proportional(values: &[f64]) -> Result<Self> {
        Self::from_weights(values.to_vec())
    }

    /// Softmax over site values with inverse temperature `beta ≥ 0`
    /// (`beta = 0` is uniform; large `beta` approaches a point mass on the
    /// best site).
    pub fn softmax(values: &[f64], beta: f64) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::EmptyStrategy);
        }
        if !beta.is_finite() || beta < 0.0 {
            return Err(Error::InvalidArgument(format!("softmax beta must be >= 0, got {beta}")));
        }
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Self::from_weights(values.iter().map(|v| ((v - max) * beta).exp()).collect())
    }

    /// Number of sites `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when the strategy covers no sites (not constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of selecting `site` (0-based).
    #[inline]
    pub fn prob(&self, site: usize) -> f64 {
        self.probs[site]
    }

    /// Borrow the probability vector.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The support: sites with probability above `tol`.
    pub fn support(&self, tol: f64) -> Vec<usize> {
        self.probs.iter().enumerate().filter(|(_, &p)| p > tol).map(|(i, _)| i).collect()
    }

    /// Size of the support at tolerance `tol`.
    pub fn support_size(&self, tol: f64) -> usize {
        self.probs.iter().filter(|&&p| p > tol).count()
    }

    /// Total-variation distance to another strategy of the same dimension.
    pub fn tv_distance(&self, other: &Strategy) -> Result<f64> {
        if self.len() != other.len() {
            return Err(Error::DimensionMismatch { strategy: self.len(), profile: other.len() });
        }
        Ok(0.5
            * crate::numerics::kahan_sum(
                self.probs.iter().zip(other.probs.iter()).map(|(a, b)| (a - b).abs()),
            ))
    }

    /// L∞ distance to another strategy of the same dimension.
    pub fn linf_distance(&self, other: &Strategy) -> Result<f64> {
        if self.len() != other.len() {
            return Err(Error::DimensionMismatch { strategy: self.len(), profile: other.len() });
        }
        Ok(self
            .probs
            .iter()
            .zip(other.probs.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// The convex mixture `(1−eps)·self + eps·other`, the population state
    /// of the ESS invasion setting (Section 1.4).
    pub fn mix(&self, other: &Strategy, eps: f64) -> Result<Strategy> {
        if self.len() != other.len() {
            return Err(Error::DimensionMismatch { strategy: self.len(), profile: other.len() });
        }
        if !(0.0..=1.0).contains(&eps) {
            return Err(Error::InvalidArgument(format!(
                "mixture weight must be in [0,1], got {eps}"
            )));
        }
        Strategy::new(
            self.probs
                .iter()
                .zip(other.probs.iter())
                .map(|(a, b)| (1.0 - eps) * a + eps * b)
                .collect(),
        )
    }
}

/// A 64-bit divisor `n ≥ 1` fixed in advance: `w % divisor` is `w % n`,
/// computed directly (Lemire, Kaser & Kurz, "Faster Remainder by Direct
/// Computation", 2019).
///
/// `magic = ceil(2¹²⁸ / n)` is computed once; each remainder is then the
/// high 64 bits of `(magic·w mod 2¹²⁸)·n`, three multiplies and no divide.
/// With a 128-bit fraction this is exact for every 64-bit `w` and every
/// `n ≥ 1`; for `n = 1`, `magic` wraps to 0 and so does every remainder.
#[derive(Debug, Clone, Copy)]
pub struct Divisor {
    n: u64,
    magic: u128,
}

impl Divisor {
    /// Precompute the reciprocal of `n`.
    pub fn new(n: NonZeroU64) -> Self {
        let n = n.get();
        // floor((2¹²⁸ − 1) / n) + 1 = ceil(2¹²⁸ / n).
        Self { n, magic: (u128::MAX / u128::from(n)).wrapping_add(1) }
    }
}

impl Rem<Divisor> for u64 {
    type Output = u64;

    #[inline]
    fn rem(self, divisor: Divisor) -> u64 {
        let fraction = divisor.magic.wrapping_mul(u128::from(self));
        let n = u128::from(divisor.n);
        let carry = (u128::from(fraction as u64) * n) >> 64;
        (((fraction >> 64) * n + carry) >> 64) as u64
    }
}

/// `2⁵³`: a uniform `f64` in `[0, 1)` is the top 53 bits of a word
/// times `2⁻⁵³`.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// O(1) alias-method sampler for repeated draws from a fixed [`Strategy`].
///
/// Building the table is O(M); each draw is O(1), integer-only and
/// branch-free. This is the sampler the Monte-Carlo engine uses for
/// millions of one-shot trials.
///
/// # Stream contract
///
/// Each draw reads exactly two words, `w₁` then `w₂`, with
/// `RngCore::next_u64`. The column is `i = w₁ % n` (by a [`Divisor`]), and
/// the draw returns `i` when the top 53 bits of `w₂` are below
/// `ceil(prob_i·2⁵³)`, else column `i`'s alias. Here `prob_i` is the
/// column's share in Vose's table, built in `f64`.
///
/// This is the same site as `gen_range(0..n)` followed by
/// `gen::<f64>() < prob_i`. That float is exactly `(w₂ >> 11)·2⁻⁵³`, and
/// `prob_i·2⁵³` is exact too, so the float compare is
/// `(w₂ >> 11) < prob_i·2⁵³` between exact numbers; with an integer on the
/// left it holds exactly when `(w₂ >> 11) < ceil(prob_i·2⁵³)`.
#[derive(Debug, Clone)]
pub struct StrategySampler {
    /// Per column: `(ceil(prob·2⁵³), alias)`.
    columns: Vec<(u64, usize)>,
    n: Divisor,
}

impl StrategySampler {
    /// Precompute the alias table (Vose's algorithm).
    pub fn new(strategy: &Strategy) -> Self {
        let n = strategy.len();
        // `work[i]` is column i's mass left to place, in units of 1/n.
        let mut work: Vec<f64> = strategy.probs().iter().map(|&p| p * n as f64).collect();
        // A column never paired as the small side (Vose's leftovers, and
        // the one popped when the other stack ran out) keeps its whole
        // mass: a share of 1, which every 53-bit draw is below.
        let mut columns = vec![(1u64 << 53, 0); n];
        let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| work[i] < 1.0);
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            columns[s] = ((work[s] * TWO_POW_53).ceil() as u64, l);
            work[l] = (work[l] + work[s]) - 1.0;
            if work[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // A strategy has at least one site.
        let n = NonZeroU64::new(n as u64).unwrap_or(NonZeroU64::MIN);
        Self { columns, n: Divisor::new(n) }
    }

    /// Draw one site index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let column = (rng.next_u64() % self.n) as usize;
        let (threshold, alias) = self.columns[column];
        if rng.next_u64() >> 11 < threshold {
            column
        } else {
            alias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn new_validates() {
        assert!(Strategy::new(vec![0.5, 0.5]).is_ok());
        assert_eq!(Strategy::new(vec![]).unwrap_err(), Error::EmptyStrategy);
        assert!(matches!(Strategy::new(vec![0.5, -0.5]), Err(Error::InvalidProbability { .. })));
        assert!(matches!(Strategy::new(vec![0.5, 0.4]), Err(Error::NotNormalized { .. })));
        assert!(matches!(
            Strategy::new(vec![f64::NAN, 1.0]),
            Err(Error::InvalidProbability { .. })
        ));
    }

    #[test]
    fn from_weights_normalizes() {
        let s = Strategy::from_weights(vec![2.0, 6.0]).unwrap();
        assert!((s.prob(0) - 0.25).abs() < 1e-15);
        assert!((s.prob(1) - 0.75).abs() < 1e-15);
        assert!(Strategy::from_weights(vec![0.0, 0.0]).is_err());
        assert!(Strategy::from_weights(vec![]).is_err());
    }

    #[test]
    fn uniform_and_top() {
        let u = Strategy::uniform(4).unwrap();
        assert_eq!(u.probs(), &[0.25; 4]);
        assert!(Strategy::uniform(0).is_err());
        let t = Strategy::uniform_on_top(5, 2).unwrap();
        assert_eq!(t.probs(), &[0.5, 0.5, 0.0, 0.0, 0.0]);
        assert!(Strategy::uniform_on_top(3, 0).is_err());
        assert!(Strategy::uniform_on_top(3, 4).is_err());
    }

    #[test]
    fn delta_strategy() {
        let d = Strategy::delta(3, 1).unwrap();
        assert_eq!(d.probs(), &[0.0, 1.0, 0.0]);
        assert!(Strategy::delta(3, 3).is_err());
    }

    #[test]
    fn proportional_and_softmax() {
        let p = Strategy::proportional(&[1.0, 3.0]).unwrap();
        assert!((p.prob(1) - 0.75).abs() < 1e-15);
        let s0 = Strategy::softmax(&[5.0, 1.0], 0.0).unwrap();
        assert!((s0.prob(0) - 0.5).abs() < 1e-15);
        let sk = Strategy::softmax(&[5.0, 1.0], 50.0).unwrap();
        assert!(sk.prob(0) > 0.999999);
        assert!(Strategy::softmax(&[], 1.0).is_err());
        assert!(Strategy::softmax(&[1.0], -1.0).is_err());
    }

    #[test]
    fn support_and_entropy() {
        let s = Strategy::new(vec![0.5, 0.5, 0.0]).unwrap();
        assert_eq!(s.support(1e-12), vec![0, 1]);
        assert_eq!(s.support_size(1e-12), 2);
    }

    #[test]
    fn distances() {
        let a = Strategy::new(vec![1.0, 0.0]).unwrap();
        let b = Strategy::new(vec![0.0, 1.0]).unwrap();
        assert!((a.tv_distance(&b).unwrap() - 1.0).abs() < 1e-15);
        assert!((a.linf_distance(&b).unwrap() - 1.0).abs() < 1e-15);
        let c = Strategy::uniform(3).unwrap();
        assert!(a.tv_distance(&c).is_err());
        assert!(a.linf_distance(&c).is_err());
    }

    #[test]
    fn mixture() {
        let a = Strategy::new(vec![1.0, 0.0]).unwrap();
        let b = Strategy::new(vec![0.0, 1.0]).unwrap();
        let m = a.mix(&b, 0.25).unwrap();
        assert!((m.prob(0) - 0.75).abs() < 1e-15);
        assert!(a.mix(&b, 1.5).is_err());
        let c = Strategy::uniform(3).unwrap();
        assert!(a.mix(&c, 0.5).is_err());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn alias_sampler_matches_distribution() {
        let s = Strategy::new(vec![0.2, 0.5, 0.3]).unwrap();
        let sampler = StrategySampler::new(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 200_000usize;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - s.prob(i)).abs() < 0.01, "site {i}: {freq} vs {}", s.prob(i));
        }
    }

    #[test]
    fn alias_sampler_handles_point_mass() {
        let s = Strategy::delta(5, 3).unwrap();
        let sampler = StrategySampler::new(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(sampler.sample(&mut rng), 3);
        }
    }

    #[test]
    fn alias_sampler_single_site() {
        let s = Strategy::uniform(1).unwrap();
        let sampler = StrategySampler::new(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(sampler.sample(&mut rng), 0);
    }
}
