//! Order statistics for latency samples.
//!
//! Tails follow one rule everywhere: report the highest percentile, up to
//! p99, that still has at least [`MIN_BEYOND`] samples beyond it, and
//! print the sample count beside it. With fewer than 1000 samples the
//! reported tail is therefore below p99, and says so.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(p · n)` (1-based), clamped to `[1, n]`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The 1-based nearest rank of the reported tail for `n` samples: the
/// p99 rank `ceil(0.99 n)`, lowered until at least `MIN_BEYOND` samples
/// lie beyond it. `None` when `n` is too small for a tail above the
/// median.
pub fn tail_rank(n: usize) -> Option<usize> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    Some(((99 * n).div_ceil(100)).min(n - MIN_BEYOND))
}

/// Rule-based tail of a sample, with its level and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub tail: f64,
    /// Percentile of `tail` as a fraction (0.99 for p99).
    pub tail_level: f64,
}

/// Summarize `values` (any order). Errors when the sample is too small
/// to report a tail by the rule.
pub fn summarize(values: &[f64]) -> Result<Summary, String> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = tail_rank(n).ok_or_else(|| {
        format!("{n} samples cannot support a tail percentile (need {})", 2 * MIN_BEYOND)
    })?;
    Ok(Summary { n, tail: sorted[rank - 1], tail_level: rank as f64 / n as f64 })
}

/// Median of a non-empty sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 20..3000usize {
            let rank = tail_rank(n).unwrap();
            assert!(n - rank >= MIN_BEYOND, "n={n}: rank {rank} leaves {} beyond", n - rank);
            // Never above p99.
            assert!(rank * 100 <= 99 * n + 99, "n={n}: rank {rank} is above p99");
        }
        assert_eq!(tail_rank(19), None);
    }

    #[test]
    fn tail_is_the_highest_qualifying_percentile() {
        // Below 1000 samples one more rank would leave only nine beyond.
        for n in [20usize, 25, 37, 250, 999] {
            assert_eq!(n - tail_rank(n).unwrap(), MIN_BEYOND, "n={n}");
        }
        // From 1000 samples on the cap binds: exactly p99.
        assert_eq!(tail_rank(1000), Some(990));
        assert_eq!(tail_rank(5000), Some(4950));
        assert_eq!(tail_rank(25), Some(15), "25 samples support p60");
    }

    #[test]
    fn summary_reports_tail_and_count() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(median(&values), 500.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_level, 0.99);
        let few = summarize(&values[..25]).unwrap();
        assert_eq!(few.tail_level, 0.6);
        assert!(summarize(&values[..10]).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
