//! Stable combinatorial numerics shared by the analytic evaluators.
//!
//! Everything here is exact-in-expectation combinatorics: binomial
//! coefficients in log space, binomial/Bernstein probability masses, and the
//! Poisson–binomial distribution (the law of a sum of independent but
//! *non-identical* Bernoulli variables). The latter is what lets the ESS
//! checker evaluate multi-opponent payoffs `E(ρ; σ^a, π^b)` exactly instead
//! of by Monte Carlo.

/// Natural log of `n!` via the Stirling-free product for small `n` and a
/// cached table. `n` never exceeds a few thousand in this crate, so a plain
/// iterative sum is both exact enough and fast.
pub fn ln_factorial(n: usize) -> f64 {
    // Compensated sum of ln(i): thousands of similar-magnitude terms
    // accumulate here, and `float-reduction` holds this file to the
    // order-robust helpers.
    kahan_sum((2..=n).map(|i| (i as f64).ln()))
}

/// Natural log of the binomial coefficient `C(n, k)`.
pub fn ln_binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// The binomial probability mass `P[Bin(n, p) = j]`, computed stably.
///
/// Returns 0 for `j > n`. Handles the boundary probabilities `p = 0` and
/// `p = 1` exactly.
pub fn binomial_pmf(n: usize, j: usize, p: f64) -> f64 {
    if j > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if j == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if j == n { 1.0 } else { 0.0 };
    }
    let ln_pmf = ln_binomial(n, j) + (j as f64) * p.ln() + ((n - j) as f64) * (1.0 - p).ln();
    ln_pmf.exp()
}

/// The full binomial PMF vector `[P[Bin(n,p) = j]]_{j=0..=n}` computed with
/// a single forward recurrence (faster and smoother than `n+1` independent
/// log-space evaluations).
pub fn binomial_pmf_vector(n: usize, p: f64) -> Vec<f64> {
    let mut pmf = vec![0.0; n + 1];
    if p <= 0.0 {
        pmf[0] = 1.0;
        return pmf;
    }
    if p >= 1.0 {
        pmf[n] = 1.0;
        return pmf;
    }
    // Start at the mode in log space to avoid underflow at either tail.
    let mode = (((n + 1) as f64) * p).floor().min(n as f64) as usize;
    let ln_mode =
        ln_binomial(n, mode) + (mode as f64) * p.ln() + ((n - mode) as f64) * (1.0 - p).ln();
    pmf[mode] = ln_mode.exp();
    // pmf[j+1]/pmf[j] = (n-j)/(j+1) * p/(1-p)
    let ratio = p / (1.0 - p);
    for j in mode..n {
        pmf[j + 1] = pmf[j] * ((n - j) as f64) / ((j + 1) as f64) * ratio;
    }
    for j in (0..mode).rev() {
        pmf[j] = pmf[j + 1] * ((j + 1) as f64) / ((n - j) as f64) / ratio;
    }
    pmf
}

/// One in-place step of the Poisson–binomial convolution DP: fold a single
/// `Bernoulli(p)` coin into `pmf`, which currently holds the PMF of `count`
/// coins in `pmf[0..=count]` (entries above are ignored and overwritten at
/// `count + 1`). Requires `pmf.len() >= count + 2`.
///
/// This is the shared primitive behind [`poisson_binomial_pmf`] and the
/// batched [`crate::kernel::PbTable`] — both perform the *identical*
/// floating-point operation sequence, so a table built by repeated pushes
/// is bit-identical to the one-shot DP.
pub fn convolve_bernoulli(pmf: &mut [f64], count: usize, p: f64) {
    debug_assert!((0.0..=1.0).contains(&p), "bernoulli prob out of range: {p}");
    debug_assert!(pmf.len() >= count + 2, "pmf buffer too small for convolution step");
    // Dispatched through `simd::convolve_step`; the AVX2 lane is
    // bit-identical to the scalar downward recurrence (elementwise over
    // the previous round's values, no FMA), so every bitwise contract
    // on this primitive holds on either lane.
    crate::simd::convolve_step(pmf, count, p);
}

/// Exact Poisson–binomial PMF: the distribution of `Σ_i X_i` where
/// `X_i ~ Bernoulli(probs[i])` independently.
///
/// Runs the standard O(n²) convolution DP, which is exact (no FFT round-off)
/// and fast for the population sizes used here (`n = k − 1 ≤ a few hundred`).
pub fn poisson_binomial_pmf(probs: &[f64]) -> Vec<f64> {
    let n = probs.len();
    let mut pmf = vec![0.0; n + 1];
    pmf[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        convolve_bernoulli(&mut pmf, i, p);
    }
    pmf
}

/// Simple scalar bisection on a monotone (non-increasing) function.
///
/// Finds `x ∈ [lo, hi]` with `f(x) ≈ target`, assuming `f(lo) ≥ target ≥
/// f(hi)` up to numerical slack. Returns the midpoint after `iters`
/// halvings; 100 iterations give ~2⁻¹⁰⁰ relative interval width.
pub fn bisect_decreasing<F: FnMut(f64) -> f64>(
    mut f: F,
    mut lo: f64,
    mut hi: f64,
    target: f64,
    iters: usize,
) -> f64 {
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        if f(mid) >= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Incremental Kahan-compensated accumulator.
///
/// The streaming form of [`kahan_sum`]: `push` performs exactly the same
/// floating-point operation sequence per term, so the running [`value`]
/// after `i` pushes is bit-identical to `kahan_sum` over the first `i`
/// items. Prefix-sum tables (e.g. the log-factorial row behind
/// `GTable`) lean on that equivalence to stay bit-identical to the
/// one-shot helpers.
///
/// [`value`]: Kahan::value
#[derive(Debug, Clone, Copy, Default)]
pub struct Kahan {
    sum: f64,
    comp: f64,
}

impl Kahan {
    /// Fresh accumulator at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one term into the compensated sum.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let y = x - self.comp;
        let t = self.sum + y;
        self.comp = (t - self.sum) - y;
        self.sum = t;
    }

    /// The compensated running total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum
    }
}

/// Kahan-compensated sum, used where thousands of similar-magnitude terms
/// accumulate (coverage over large `M`).
pub fn kahan_sum<I: IntoIterator<Item = f64>>(items: I) -> f64 {
    let mut acc = Kahan::new();
    for x in items {
        acc.push(x);
    }
    acc.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn ln_factorial_small_values() {
        assert_close(ln_factorial(0), 0.0, 1e-12);
        assert_close(ln_factorial(1), 0.0, 1e-12);
        assert_close(ln_factorial(5), 120f64.ln(), 1e-12);
        assert_close(ln_factorial(10), 3628800f64.ln(), 1e-10);
    }

    #[test]
    fn ln_binomial_matches_pascal() {
        for n in 0..20usize {
            for k in 0..=n {
                let direct = {
                    // Pascal's triangle by u128 arithmetic.
                    let mut c: u128 = 1;
                    for i in 0..k {
                        c = c * ((n - i) as u128) / ((i + 1) as u128);
                    }
                    c as f64
                };
                assert_close(ln_binomial(n, k).exp(), direct, direct * 1e-10 + 1e-10);
            }
        }
    }

    #[test]
    fn ln_binomial_out_of_range() {
        assert_eq!(ln_binomial(3, 4), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &n in &[0usize, 1, 2, 7, 33] {
            for &p in &[0.0, 0.1, 0.5, 0.73, 1.0] {
                let total: f64 = (0..=n).map(|j| binomial_pmf(n, j, p)).sum();
                assert_close(total, 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn binomial_pmf_degenerate_probabilities() {
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 1, 0.0), 0.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert_eq!(binomial_pmf(5, 4, 1.0), 0.0);
        assert_eq!(binomial_pmf(5, 6, 0.5), 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn binomial_pmf_vector_matches_pointwise() {
        for &n in &[0usize, 1, 4, 17, 64] {
            for &p in &[0.0, 0.02, 0.3, 0.5, 0.97, 1.0] {
                let vec = binomial_pmf_vector(n, p);
                assert_eq!(vec.len(), n + 1);
                for j in 0..=n {
                    assert_close(vec[j], binomial_pmf(n, j, p), 1e-12);
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn poisson_binomial_matches_binomial_when_iid() {
        let p = 0.37;
        let n = 9;
        let pmf = poisson_binomial_pmf(&vec![p; n]);
        for j in 0..=n {
            assert_close(pmf[j], binomial_pmf(n, j, p), 1e-12);
        }
    }

    #[test]
    fn poisson_binomial_empty() {
        let pmf = poisson_binomial_pmf(&[]);
        assert_eq!(pmf, vec![1.0]);
    }

    #[test]
    fn poisson_binomial_mean_is_sum_of_probs() {
        let probs = [0.1, 0.9, 0.33, 0.5, 0.02];
        let pmf = poisson_binomial_pmf(&probs);
        let mean: f64 = pmf.iter().enumerate().map(|(j, p)| j as f64 * p).sum();
        assert_close(mean, probs.iter().sum(), 1e-12);
    }

    #[test]
    fn poisson_binomial_mixed_exact_two() {
        // Two coins 0.5 and 0.25: P[0]=0.375, P[1]=0.5, P[2]=0.125.
        let pmf = poisson_binomial_pmf(&[0.5, 0.25]);
        assert_close(pmf[0], 0.375, 1e-15);
        assert_close(pmf[1], 0.5, 1e-15);
        assert_close(pmf[2], 0.125, 1e-15);
    }

    #[test]
    fn poisson_binomial_expectation_linear_function() {
        // E[L] via the table expectation with h(j) = j.
        let probs = [0.2, 0.7, 0.4];
        let h: Vec<f64> = (0..=3).map(|j| j as f64).collect();
        let table = crate::kernel::PbTable::from_probs(&probs).unwrap();
        assert_close(table.expectation(&h), 1.3, 1e-12);
    }

    #[test]
    fn bisect_finds_root_of_decreasing_function() {
        // f(x) = 2 - x on [0, 2], target 0.5 -> x = 1.5.
        let x = bisect_decreasing(|x| 2.0 - x, 0.0, 2.0, 0.5, 80);
        assert_close(x, 1.5, 1e-12);
    }

    #[test]
    fn kahan_sum_is_accurate() {
        // 1 + 1e-16 added 1e5 times loses the small term in naive order.
        let items = std::iter::once(1.0).chain(std::iter::repeat_n(1e-16, 100_000));
        let s = kahan_sum(items);
        assert_close(s, 1.0 + 1e-11, 1e-14);
    }

    // `miri_*` tests form the CI Miri subset: small, allocation-light
    // exercises of the unsafe-adjacent numerics (slice indexing, in-place
    // DP updates) that finish in seconds under the interpreter.

    #[test]
    fn miri_kahan_incremental_matches_one_shot() {
        let items = [1.0, 1e-16, -0.25, 3.5, 1e-16];
        let mut acc = Kahan::new();
        for (i, &x) in items.iter().enumerate() {
            acc.push(x);
            let prefix = kahan_sum(items[..=i].iter().copied());
            assert_eq!(acc.value().to_bits(), prefix.to_bits());
        }
    }

    #[test]
    fn miri_convolve_bernoulli_in_place() {
        let mut pmf = vec![1.0, 0.0, 0.0];
        convolve_bernoulli(&mut pmf, 0, 0.25);
        convolve_bernoulli(&mut pmf, 1, 0.5);
        assert_close(pmf[0], 0.375, 1e-15);
        assert_close(pmf[1], 0.5, 1e-15);
        assert_close(pmf[2], 0.125, 1e-15);
    }

    #[test]
    fn miri_binomial_pmf_vector_small() {
        let pmf = binomial_pmf_vector(3, 0.5);
        for (j, &p) in pmf.iter().enumerate() {
            assert_close(p, binomial_pmf(3, j, 0.5), 1e-14);
        }
        assert_close(kahan_sum(pmf.iter().copied()), 1.0, 1e-14);
    }
}
