//! Streaming statistics for simulation outputs: Welford accumulation and
//! normal-approximation confidence intervals.

/// Numerically stable streaming mean/variance accumulator (Welford).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merge another accumulator (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }

    /// Normal-approximation confidence interval half-width at the given
    /// z-score (1.96 ≈ 95%).
    pub fn ci_half_width(&self, z: f64) -> f64 {
        z * self.std_error()
    }
}

/// A summarized estimate: mean with a 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate.
    pub mean: f64,
    /// 95% normal CI half-width.
    pub ci95: f64,
    /// Number of samples.
    pub n: u64,
}

impl Estimate {
    /// Summarize a Welford accumulator.
    pub fn from_welford(w: &Welford) -> Self {
        Self { mean: w.mean(), ci95: w.ci_half_width(1.96), n: w.count() }
    }

    /// Whether `target` lies within the confidence interval (with an extra
    /// absolute slack for discrete-grid effects).
    pub fn covers(&self, target: f64, slack: f64) -> bool {
        (self.mean - target).abs() <= self.ci95 + slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Seed;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() as f64 - 1.0);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
        let mut w1 = Welford::new();
        w1.push(3.0);
        assert_eq!(w1.mean(), 3.0);
        assert_eq!(w1.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = Welford::new();
        for &x in &data {
            seq.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - seq.mean()).abs() < 1e-10);
        assert!((left.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(left.count(), seq.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(2.0);
        let b = Welford::new();
        let mut c = a;
        c.merge(&b);
        assert_eq!(c, a);
        let mut d = Welford::new();
        d.merge(&a);
        assert_eq!(d, a);
    }

    #[test]
    fn estimate_covers() {
        let mut w = Welford::new();
        let mut rng = Seed(4).rng();
        for _ in 0..10_000 {
            w.push(rand::Rng::gen::<f64>(&mut rng));
        }
        let est = Estimate::from_welford(&w);
        assert!(est.covers(0.5, 0.01), "mean {} ci {}", est.mean, est.ci95);
        assert!(!est.covers(0.9, 0.0));
    }
}
