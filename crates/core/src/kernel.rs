//! Batched evaluation kernel for the congestion response `g_C`.
//!
//! Everything in this workspace — site values `ν_p(x) = f(x)·g_C(p(x))`
//! (Eq. 2–3), IFD water-filling, welfare gradients, replicator dynamics,
//! and every experiment — bottoms out in the Bernstein-form sum
//! `g_C(q) = Σ_{j=0}^{k−1} C(j+1)·b_{j,k−1}(q)`. The scalar reference path
//! ([`crate::payoff::PayoffContext::g`]) rebuilds the binomial PMF from
//! scratch on every call, which costs `O(k)` *logarithm evaluations* per
//! point (three `ln_factorial` walks to seed the start-at-the-mode
//! recurrence) plus a fresh allocation. A parameter sweep over a 1k-point
//! grid at `k = 64` redoes that identical setup work millions of times.
//!
//! [`GTable`] hoists the per-`(C, k)` work out of the loop:
//!
//! * **Setup, once, `O(k)`** — the prefix-sum `ln`-factorial row, from
//!   which every walk reads `ln C(m, j)` for its degree `m` (`k − 1` for
//!   `g`, `k − 2` for `g'`), plus the forward differences
//!   `C(j+2) − C(j+1)` that are the Bernstein coefficients of `g'`.
//! * **Per point, `O(k)`, allocation-free** — two `ln` calls and one
//!   `exp` seed the PMF at its mode; the up/down ratio recurrence fills a
//!   caller-owned [`GScratch`]; a Kahan dot against the coefficient table
//!   finishes. The float operations are *exactly* those of the scalar
//!   path, so results are **bit-identical** to `PayoffContext::g` — the
//!   fast path cannot silently diverge.
//! * **Per grid, eight points per pass** — the batched reference calls
//!   ([`GTable::eval_many_with`], [`GBatch::eval_many_with`]) share one
//!   exact tile routine. On the AVX2 lane it walks eight interior points
//!   at once, one per f64 slot of two 4-wide registers, with the same
//!   seeds, the same operations in the same order and a Kahan dot per
//!   slot ([`crate::simd`]'s reference lane), so the bits are those of
//!   the per-point path; the endpoints and the last fewer-than-eight
//!   points run the per-point code, which is the whole scalar lane. A
//!   lone `k = 64` tile over the 257-point unit grid takes about 60 µs
//!   instead of about 225 µs (2-vCPU x86-64 VM).
//! * **Per point, `O(k)`, fused** — [`GTable::eval_fused`] trades bit
//!   identity for throughput: pre-divided recurrence factors (no serial
//!   division chain) and the coefficient dot product fused into the
//!   Bernstein walk. Agrees with the reference to `O(k·ε)` ≈ 1e-14 and
//!   needs no scratch at all.
//! * **Per point, `O(1)`, optional** — [`GTable::with_spec`] with
//!   [`GridSpec::Interpolated`] densifies `g` onto a cubic-Hermite grid
//!   (exact values *and* exact derivatives at the nodes) whose cells are
//!   bisected only where the measured interpolation error exceeds a
//!   caller-supplied bound. Grid evaluation is a bucket lookup plus a
//!   cubic — independent of `k`.
//!
//! The degree-raising view: `b_{j,n}` satisfies the ratio recurrence
//! `b_{j+1,n}(q) = b_{j,n}(q)·(n−j)/(j+1)·q/(1−q)`, which walks the whole
//! Bernstein row from a single seeded term without touching a factorial.
//!
//! ## The policy-batched sibling: [`GBatch`]
//!
//! `GTable` amortizes per-`(C, k)` setup across many points of one
//! policy. Multi-policy workloads — SPoA-vs-`k` panels, the mechanism
//! catalog in `dispersal-mech`, response-grid sweeps — evaluate the *same*
//! q-grid against *many* policies, and the Bernstein basis column
//! `b_{j,k−1}(q)` they all dot against depends only on `(q, k)`.
//! [`GBatch`] stores the policies as a policy-major coefficient matrix
//! (rows zero-padded to a small block width), builds that shared column
//! once per point, and finishes every policy with a blocked matrix–vector
//! product — a GEMM, the exact shape a wgpu/CUDA backend consumes. Mixed
//! player counts split into one `GBatch` per `k` (*k-tiles*). Like
//! `GTable` it has a bit-identical reference mode
//! ([`GBatch::eval_many_with`], the exact tile above with one row per
//! policy) and a fused throughput mode
//! ([`GBatch::eval_fused_many_into`]); both evaluate a whole q-grid,
//! usually the uniform [`unit_grid`].
//!
//! ## The ESS ledger
//!
//! The ESS conditions need a site's occupancy when `n − ℓ` opponents
//! visit with `σ(x)` and `ℓ` with `π(x)`. That law is
//! `Bin(n − ℓ, σ(x)) ⊛ Bin(ℓ, π(x))`, so [`crate::ess::LedgerEvaluator`]
//! needs no table of its own: it folds the `π(x)` side into the
//! coefficients (one de Casteljau step per level) and runs the PMF walk
//! behind [`GTable::eval_with`] at degree `n − ℓ`.

pub mod cache;

use crate::error::{Error, Result};
use crate::numerics::kahan_sum;
use crate::policy::Congestion;
use crate::simd;

/// The uniform q-grid over `[0, 1]`: the `resolution + 1` points
/// `i / resolution` for `i = 0..=resolution`, the grid every response
/// curve, catalog scan and daemon tile is evaluated on. A zero
/// resolution is [`Error::InvalidArgument`].
pub fn unit_grid(resolution: usize) -> Result<Vec<f64>> {
    if resolution == 0 {
        return Err(Error::InvalidArgument("grid resolution must be >= 1".into()));
    }
    Ok((0..=resolution).map(|i| i as f64 / resolution as f64).collect())
}

/// Caller-owned scratch buffer for allocation-free kernel evaluation.
///
/// One scratch serves both `g` and `g'` queries of the table it was
/// created for (it is sized for the larger row). Scratches are cheap to
/// create but are meant to be reused across a whole batch, shard, or
/// solver run; evaluation needs `&mut` access, so give each worker its
/// own via [`GTable::scratch`] rather than contending over one.
///
/// The exact tile ([`GTable::eval_many_with`], [`GBatch::eval_many_with`])
/// on the AVX2 lane also keeps its eight interleaved PMF columns here:
/// `8·k` values (64 MB at `k = 10⁶`), allocated on the first call that
/// runs a lane pass and reused after that.
#[derive(Debug, Clone)]
pub struct GScratch {
    pmf: Vec<f64>,
    lanes: Vec<f64>,
}

/// Grid configuration for `O(1)` interpolated `g`-evaluation — the single
/// configuration surface shared by [`GTable::with_spec`],
/// [`crate::payoff::PayoffContext::with_spec`], and the sweep-layer grid
/// caches. Tolerance validation lives in exactly one place
/// ([`GridSpec::validate`]); every grid-configuring entry point reports
/// the same [`Error::InvalidTolerance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridSpec {
    /// No interpolation grid: every evaluation runs the exact `O(k)`
    /// kernel (and [`GTable::eval_fast_with`] stays bit-identical to the
    /// scalar reference).
    Exact,
    /// Adaptive cubic-Hermite grid: bisection refines where `g` is stiff
    /// (the near-exclusive boundary layer whose width shrinks like `1/k`)
    /// and leaves flat regions coarse, until the midpoint-measured error
    /// of every cell is at most `tol ×` [`GTable::scale`]. Large-`k`
    /// builds (`k → 10⁶`) meet `tol` with a few hundred nodes.
    Interpolated {
        /// Relative error bound for the subdivision loop.
        tol: f64,
    },
}

impl GridSpec {
    /// Validate the spec — the one typed tolerance-validation path. A
    /// non-finite or non-positive tolerance is [`Error::InvalidTolerance`];
    /// [`GridSpec::Exact`] is always valid.
    pub fn validate(&self) -> Result<()> {
        match *self {
            GridSpec::Exact => Ok(()),
            GridSpec::Interpolated { tol } if tol.is_finite() && tol > 0.0 => Ok(()),
            GridSpec::Interpolated { tol } => Err(Error::InvalidTolerance { tol }),
        }
    }
}

/// Evaluate the cubic Hermite basis at local coordinate `t ∈ [0, 1]` with
/// node values `y0, y1` and *pre-scaled* node derivatives `d0, d1`
/// (already multiplied by the cell width). Shared by grid evaluation and
/// the refinement loop, so both run the exact same operation sequence.
#[inline]
fn hermite_eval(t: f64, y0: f64, d0: f64, y1: f64, d1: f64) -> f64 {
    let t2 = t * t;
    let t3 = t2 * t;
    let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
    let h10 = t3 - 2.0 * t2 + t;
    let h01 = -2.0 * t3 + 3.0 * t2;
    let h11 = t3 - t2;
    h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1
}

/// One cell of a [`NonUniformGrid`], laid out for evaluation: its left
/// node, reciprocal width, and both end nodes' exact values and
/// derivatives, the derivatives pre-scaled by the width.
#[derive(Debug, Clone, Copy)]
struct Cell {
    x0: f64,
    inv_h: f64,
    y0: f64,
    d0: f64,
    y1: f64,
    d1: f64,
}

/// Non-uniform cubic-Hermite grid over `[0, 1]`, built by adaptive
/// bisection with exact values and derivatives at every node.
///
/// Bisecting `[0, 1]` makes every node a dyadic rational and every cell
/// width an exact power of two, which gives an `O(1)` cell lookup: a
/// uniform bucket array over `[0, 1]` (a power-of-two count, so
/// `q · buckets` is exact) names the cell holding each bucket's left
/// edge, and only that bucket's few cells are searched. The stored
/// reciprocal widths are exact too, so `(q − x₀)·(1/h)` is bit-identical
/// to `(q − x₀)/h`.
#[derive(Debug, Clone)]
struct NonUniformGrid {
    /// Cells in ascending order; the last one ends at `q = 1`.
    cells: Vec<Cell>,
    /// `first[b]` is the cell holding `b / (first.len() − 1)`, so a `q`
    /// in bucket `b` lies in one of the cells `first[b] ..= first[b+1]`.
    first: Vec<u32>,
    /// First stride of the in-bucket search: the largest power of two not
    /// above the widest bucket's `first[b+1] − first[b]` (0 when no bucket
    /// holds an interior node). Fixed per grid, so the search loop runs
    /// the same trip count for every `q`.
    stride: usize,
    measured_error: f64,
}

impl NonUniformGrid {
    /// Index the ascending cells of a finished bisection grid. Buckets
    /// are as narrow as the narrowest cell, so each holds at most one
    /// interior node and the search is a single probe, up to
    /// `MAX_BUCKETS`; grids finer than that (the boundary layers of
    /// `k ≳ 10³`) take a few more probes.
    fn new(cells: Vec<Cell>, measured_error: f64) -> Self {
        /// Bucket budget (256 KiB of index): one probe per lookup whenever
        /// the narrowest cell is at least 2⁻¹⁶ wide, which covers Sharing
        /// at `tol = 1e-12` through `k = 256`.
        const MAX_BUCKETS: usize = 1 << 16;
        let finest = cells.iter().fold(1.0f64, |acc, c| acc.max(c.inv_h));
        let buckets = (finest as usize).clamp(1, MAX_BUCKETS);
        let mut first = Vec::with_capacity(buckets + 1);
        let mut cell = 0;
        for b in 0..=buckets {
            let edge = b as f64 / buckets as f64;
            while cell + 1 < cells.len() && cells[cell + 1].x0 <= edge {
                cell += 1;
            }
            // Cell indices fit: the bisection caps the cell count at 2¹⁶.
            first.push(cell as u32);
        }
        let widest = first.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0);
        let stride = (widest + 1).next_power_of_two() / 2;
        Self { cells, first, stride, measured_error }
    }

    /// The cell holding `q ∈ [0, 1]`: the last node at or below `q`,
    /// clamped to the final cell at `q = 1` (which reads the closing entry
    /// `first[buckets]`). Strides halving from `stride` sum to at least any
    /// bucket's span, so the loop is a binary search over the bucket's
    /// cells; a probe past the bucket starts beyond `q` and is rejected.
    #[inline]
    fn cell(&self, q: f64) -> usize {
        let buckets = (self.first.len() - 1) as f64;
        let last = self.cells.len() - 1;
        let mut cell = self.first[(q * buckets) as usize] as usize;
        let mut stride = self.stride;
        while stride > 0 {
            let probe = (cell + stride).min(last);
            if self.cells[probe].x0 <= q {
                cell = probe;
            }
            stride /= 2;
        }
        cell
    }

    /// Evaluate the interpolant at `q ∈ [0, 1]`.
    fn eval(&self, q: f64) -> f64 {
        let c = &self.cells[self.cell(q)];
        hermite_eval((q - c.x0) * c.inv_h, c.y0, c.d0, c.y1, c.d1)
    }
}

/// Precomputed batched evaluator for one congestion response `g_C` at a
/// fixed player count `k` (polynomial degree `n = k − 1`).
///
/// See the [module docs](self) for the design; the practical contract is:
///
/// * [`GTable::eval_with`] / [`GTable::eval_many_with`] are bit-identical
///   to [`crate::payoff::PayoffContext::g`] on `[0, 1]` and allocation-free
///   given a reused [`GScratch`] (on the AVX2 lane `eval_many_with`
///   allocates the scratch's `8·k` lane buffer once, on its first pass of
///   eight points);
/// * [`GTable::eval_prime_with`] is bit-identical to
///   [`crate::payoff::PayoffContext::g_prime`];
/// * after [`GTable::with_spec`] with [`GridSpec::Interpolated`],
///   [`GTable::eval_fast_with`] answers in `O(1)`; [`GTable::grid_error`]
///   reports the error *measured at cell midpoints* (where the
///   cubic-Hermite error kernel peaks for smooth `g`) — treat it as an
///   estimate and budget a small multiple (the tests use 4×) at
///   arbitrary `q`.
#[derive(Debug, Clone)]
pub struct GTable {
    /// Bernstein coefficients of `g`: `coeffs[j] = C(j + 1)`, degree
    /// `n = coeffs.len() − 1`.
    coeffs: Vec<f64>,
    /// Forward differences `coeffs[j+1] − coeffs[j]` — up to the factor
    /// `n`, the Bernstein coefficients of `g'` (length `n`).
    dcoeffs: Vec<f64>,
    /// `ln j!` for `j = 0..=n`: seeds the PMF walks of `g` (degree `n`)
    /// and `g'` (degree `n − 1`).
    ln_fact: Vec<f64>,
    /// Pre-divided upward recurrence factors `(n − j)/(j + 1)` for the
    /// fused path (length `n`).
    up: Vec<f64>,
    /// Pre-divided downward recurrence factors `(j + 1)/(n − j)` for the
    /// fused path (length `n`).
    down: Vec<f64>,
    /// Optional O(1) interpolation grid.
    grid: Option<NonUniformGrid>,
}

/// Fill `out[0..=n]` with the binomial PMF `P[Bin(n, q) = j]`, given the
/// log-factorial row `ln_fact` (`ln j!` for `j = 0..=n` at least) and
/// `logs = (ln q, ln(1 − q))`. Operation-for-operation the same as
/// [`crate::numerics::binomial_pmf_vector`], with the three
/// `ln_factorial` walks replaced by table reads. [`GTable::eval_with`],
/// the exact tile's per-point code and [`crate::ess::LedgerEvaluator`]
/// all run this walk; the ledger takes each site's logs once and calls
/// it at every level's degree.
pub(crate) fn fill_pmf(ln_fact: &[f64], q: f64, logs: (f64, f64), out: &mut [f64]) {
    let n = out.len() - 1;
    if q <= 0.0 {
        out.fill(0.0);
        out[0] = 1.0;
        return;
    }
    if q >= 1.0 {
        out.fill(0.0);
        out[n] = 1.0;
        return;
    }
    let (mode, b_mode) = seed_mode(ln_fact, n, q, logs);
    out[mode] = b_mode;
    let ratio = q / (1.0 - q);
    for j in mode..n {
        out[j + 1] = out[j] * ((n - j) as f64) / ((j + 1) as f64) * ratio;
    }
    for j in (0..mode).rev() {
        out[j] = out[j + 1] * ((j + 1) as f64) / ((n - j) as f64) / ratio;
    }
}

/// `(ln q, ln(1 − q))`, the two logs a PMF walk at `q` is seeded with.
#[inline]
pub(crate) fn pmf_logs(q: f64) -> (f64, f64) {
    (q.ln(), (1.0 - q).ln())
}

/// Seed a degree-`n` Bernstein/PMF walk at its mode for `q ∈ (0, 1)`:
/// `(mode, b_mode)` from the log-factorial row and `logs = (ln q,
/// ln(1 − q))`. Every walk in this module — [`fill_pmf`],
/// [`GTable::eval_fused`], and [`GBatch`]'s shared basis column — starts
/// from this exact operation sequence, which is what keeps their
/// cross-contracts (bitwise / 1e-13) stable.
#[inline]
fn seed_mode(ln_fact: &[f64], n: usize, q: f64, (ln_q, ln_1mq): (f64, f64)) -> (usize, f64) {
    let mode = (((n + 1) as f64) * q).floor().min(n as f64) as usize;
    let ln_binom = ln_fact[n] - ln_fact[mode] - ln_fact[n - mode];
    let ln_mode = ln_binom + (mode as f64) * ln_q + ((n - mode) as f64) * ln_1mq;
    (mode, ln_mode.exp())
}

/// Pre-divided fused-walk ratio factors for degree `n`:
/// upward `(n−j)/(j+1)` and downward `(j+1)/(n−j)`, `j = 0..n`.
fn fused_factors(n: usize) -> (Vec<f64>, Vec<f64>) {
    let up = (0..n).map(|j| ((n - j) as f64) / ((j + 1) as f64)).collect();
    let down = (0..n).map(|j| ((j + 1) as f64) / ((n - j) as f64)).collect();
    (up, down)
}

/// Reject non-finite congestion coefficients (shared by [`GTable`] and
/// [`GBatch`] construction so both report the same error).
fn check_finite_coeffs(coeffs: &[f64]) -> Result<()> {
    if let Some((j, &v)) = coeffs.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        return Err(Error::InvalidArgument(format!(
            "congestion coefficient C({}) = {v} is not finite",
            j + 1
        )));
    }
    Ok(())
}

/// Reject mismatched batched-slice lengths with the typed error path.
fn check_len(what: &'static str, expected: usize, got: usize) -> Result<()> {
    if expected != got {
        return Err(Error::LengthMismatch { what, expected, got });
    }
    Ok(())
}

/// `ln j!` for `j = 0..=n`, one prefix-sum pass over `ln(i)`. The prefix
/// runs through the same incremental [`crate::numerics::Kahan`]
/// accumulator as [`crate::numerics::ln_factorial`]'s compensated sum, so
/// every `ln C(m, j)` the walks read off it, `ln_fact[m] − ln_fact[j] −
/// ln_fact[m − j]`, is bit-identical to `ln_binomial(m, j)`.
fn ln_factorial_row(n: usize) -> Vec<f64> {
    let mut ln_fact = vec![0.0; n + 1];
    let mut acc = crate::numerics::Kahan::new();
    for (i, slot) in ln_fact.iter_mut().enumerate().skip(2) {
        acc.push((i as f64).ln());
        *slot = acc.value();
    }
    ln_fact
}

/// The exact reference tile behind [`GTable::eval_many_with`] (one row)
/// and [`GBatch::eval_many_with`]: `out[r·qs.len() + i] = g_{C_r}(qs[i])`
/// for each coefficient row `coeffs[r·k .. (r+1)·k]`, where
/// `k = ln_fact.len()`. Each point's PMF is [`fill_pmf`]'s and each row
/// is finished with [`GTable::eval_with`]'s Kahan dot.
///
/// On the AVX2 lane the interior points (`0 < q < 1`, `k > 1`) go eight
/// at a time through [`simd::ref_walk8_avx2`] and [`simd::ref_dot8_avx2`]:
/// each slot is seeded by [`seed_mode`] and repeats the per-point
/// operations, so every output has the per-point bits. The endpoints,
/// non-finite `q`, `k = 1` and the last fewer-than-eight interior points
/// run the per-point code, which is the whole scalar lane.
fn reference_tile(
    ln_fact: &[f64],
    coeffs: &[f64],
    scratch: &mut GScratch,
    qs: &[f64],
    out: &mut [f64],
) {
    let k = ln_fact.len();
    let lanes_on = k > 1 && simd::active_lane() == simd::Lane::Avx2;
    let mut pending = [0usize; simd::REF_LANES];
    let mut filled = 0;
    for (i, &q) in qs.iter().enumerate() {
        debug_assert!((-1e-12..=1.0 + 1e-12).contains(&q), "q out of range: {q}");
        let q = q.clamp(0.0, 1.0);
        if lanes_on && q > 0.0 && q < 1.0 {
            pending[filled] = i;
            filled += 1;
            if filled == simd::REF_LANES {
                reference_pass(ln_fact, coeffs, scratch, qs, &pending, out);
                filled = 0;
            }
        } else {
            reference_point(ln_fact, coeffs, scratch, qs, i, out);
        }
    }
    for &i in &pending[..filled] {
        reference_point(ln_fact, coeffs, scratch, qs, i, out);
    }
}

/// The per-point reference code of [`reference_tile`] at `qs[i]`.
fn reference_point(
    ln_fact: &[f64],
    coeffs: &[f64],
    scratch: &mut GScratch,
    qs: &[f64],
    i: usize,
    out: &mut [f64],
) {
    let k = ln_fact.len();
    let pmf = &mut scratch.pmf[..k];
    let q = qs[i].clamp(0.0, 1.0);
    fill_pmf(ln_fact, q, pmf_logs(q), pmf);
    for (r, row) in coeffs.chunks_exact(k).enumerate() {
        out[r * qs.len() + i] = kahan_sum(pmf.iter().zip(row.iter()).map(|(p, c)| p * c));
    }
}

/// One AVX2 pass of [`reference_tile`] over the eight interior points
/// `qs[pending[l]]`.
fn reference_pass(
    ln_fact: &[f64],
    coeffs: &[f64],
    scratch: &mut GScratch,
    qs: &[f64],
    pending: &[usize; simd::REF_LANES],
    out: &mut [f64],
) {
    let k = ln_fact.len();
    let n = k - 1;
    let mut seeds = simd::RefSeeds {
        modes: [0; simd::REF_LANES],
        b_modes: [0.0; simd::REF_LANES],
        ratios: [0.0; simd::REF_LANES],
    };
    for (l, &i) in pending.iter().enumerate() {
        let q = qs[i];
        (seeds.modes[l], seeds.b_modes[l]) = seed_mode(ln_fact, n, q, pmf_logs(q));
        seeds.ratios[l] = q / (1.0 - q);
    }
    if scratch.lanes.len() < simd::REF_LANES * k {
        scratch.lanes = vec![0.0; simd::REF_LANES * k];
    }
    simd::ref_walk8_avx2(&mut scratch.lanes, n, &seeds);
    for (r, row) in coeffs.chunks_exact(k).enumerate() {
        let g = simd::ref_dot8_avx2(&scratch.lanes, row);
        for (&i, v) in pending.iter().zip(g) {
            out[r * qs.len() + i] = v;
        }
    }
}

impl GTable {
    /// Build a table for policy `c` and `k ≥ 1` players, validating the
    /// congestion axioms (`C(1) = 1`, non-increasing).
    pub fn new(c: &dyn Congestion, k: usize) -> Result<Self> {
        let coeffs = crate::policy::validate_congestion(c, k)?;
        Self::from_coefficients(coeffs)
    }

    /// Build a table directly from the coefficient vector
    /// `[C(1), …, C(k)]` without the `C(1) = 1` normalization check —
    /// the entry point for scaled policies (e.g. reward-designed tables
    /// with `C(1) = 10⁹`). Entries must be finite and the vector
    /// non-empty.
    pub fn from_coefficients(coeffs: Vec<f64>) -> Result<Self> {
        if coeffs.is_empty() {
            return Err(Error::InvalidPlayerCount { k: 0 });
        }
        check_finite_coeffs(&coeffs)?;
        let n = coeffs.len() - 1;
        let dcoeffs: Vec<f64> = coeffs.windows(2).map(|w| w[1] - w[0]).collect();
        let ln_fact = ln_factorial_row(n);
        let (up, down) = fused_factors(n);
        Ok(Self { coeffs, dcoeffs, ln_fact, up, down, grid: None })
    }

    /// Player count `k` this table evaluates for.
    #[inline]
    pub fn k(&self) -> usize {
        self.coeffs.len()
    }

    /// The Bernstein coefficient table `[C(1), …, C(k)]`.
    #[inline]
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// `ln j!` for `j = 0..k`, the row every PMF walk of this table is
    /// seeded from ([`fill_pmf`]).
    #[inline]
    pub(crate) fn ln_factorials(&self) -> &[f64] {
        &self.ln_fact
    }

    /// `g(0) = C(1)` — exact, free.
    #[inline]
    pub fn at_zero(&self) -> f64 {
        self.coeffs[0]
    }

    /// `g(1) = C(k)` — exact, free.
    #[inline]
    pub fn at_one(&self) -> f64 {
        // Non-empty by construction (k >= 1 is validated at build time).
        self.coeffs[self.coeffs.len() - 1]
    }

    /// Magnitude scale of the coefficients (used for relative error
    /// bounds): `max_j |C(j)|`, floored at 1.
    pub fn scale(&self) -> f64 {
        self.coeffs.iter().fold(1.0f64, |acc, &c| acc.max(c.abs()))
    }

    /// A scratch buffer sized for this table.
    pub fn scratch(&self) -> GScratch {
        GScratch { pmf: vec![0.0; self.coeffs.len()], lanes: Vec::new() }
    }

    /// Exact `g(q)` using caller-owned scratch: `O(k)` flops, two `ln`,
    /// one `exp`, zero allocation. `q` is clamped into `[0, 1]` (callers
    /// wanting range *errors* go through
    /// [`crate::payoff::PayoffContext::g`]).
    pub fn eval_with(&self, scratch: &mut GScratch, q: f64) -> f64 {
        debug_assert!((-1e-12..=1.0 + 1e-12).contains(&q), "q out of range: {q}");
        let q = q.clamp(0.0, 1.0);
        let pmf = &mut scratch.pmf[..self.coeffs.len()];
        fill_pmf(&self.ln_fact, q, pmf_logs(q), pmf);
        kahan_sum(pmf.iter().zip(self.coeffs.iter()).map(|(p, c)| p * c))
    }

    /// Exact `g(q)`; allocates a fresh scratch (convenience — batch and
    /// solver loops should hold a [`GScratch`] and use
    /// [`Self::eval_with`]).
    pub fn eval(&self, q: f64) -> f64 {
        self.eval_with(&mut self.scratch(), q)
    }

    /// Batched exact evaluation into `out` (`out.len() == qs.len()`),
    /// reusing `scratch` across all points: every entry has the bits of
    /// [`Self::eval_with`] at that point. On the AVX2 lane interior
    /// points run eight at a time (a one-row exact tile, see
    /// [`GBatch::eval_many_with`]). A length mismatch is reported as
    /// [`Error::LengthMismatch`] and leaves `out` untouched.
    pub fn eval_many_with(
        &self,
        scratch: &mut GScratch,
        qs: &[f64],
        out: &mut [f64],
    ) -> Result<()> {
        check_len("GTable::eval_many_with", qs.len(), out.len())?;
        reference_tile(&self.ln_fact, &self.coeffs, scratch, qs, out);
        Ok(())
    }

    /// Throughput-oriented exact `g(q)`: the same start-at-the-mode
    /// Bernstein recurrence, but with pre-divided step factors (no serial
    /// division chain), the dot product fused into the walk (no second
    /// pass, no scratch at all), and plain summation instead of Kahan.
    ///
    /// Results agree with [`Self::eval_with`] to a relative `O(k·ε)`
    /// (≈ 1e-14 at `k = 256`, far inside the 1e-13 contract tested in CI)
    /// but are **not bit-identical** — use this for new bulk workloads,
    /// and `eval_with` where reproducibility against the scalar reference
    /// matters. Roughly 4–5× faster again than `eval_with` at `k = 64`.
    pub fn eval_fused(&self, q: f64) -> f64 {
        debug_assert!((-1e-12..=1.0 + 1e-12).contains(&q), "q out of range: {q}");
        let q = q.clamp(0.0, 1.0);
        let n = self.coeffs.len() - 1;
        if n == 0 || q <= 0.0 {
            return self.coeffs[0];
        }
        if q >= 1.0 {
            return self.coeffs[n];
        }
        let (mode, b_mode) = seed_mode(&self.ln_fact, n, q, pmf_logs(q));
        let ratio = q / (1.0 - q);
        let inv_ratio = (1.0 - q) / q;
        simd::fused_dot(&self.coeffs, &self.up, &self.down, mode, b_mode, ratio, inv_ratio)
    }

    /// Batched [`Self::eval_fused`] into `out` (`out.len() == qs.len()`);
    /// mismatched lengths are [`Error::LengthMismatch`].
    pub fn eval_fused_many_into(&self, qs: &[f64], out: &mut [f64]) -> Result<()> {
        check_len("GTable::eval_fused_many_into", qs.len(), out.len())?;
        for (slot, &q) in out.iter_mut().zip(qs.iter()) {
            *slot = self.eval_fused(q);
        }
        Ok(())
    }

    /// Exact derivative `g'(q)` with caller-owned scratch — bit-identical
    /// to [`crate::payoff::PayoffContext::g_prime`].
    pub fn eval_prime_with(&self, scratch: &mut GScratch, q: f64) -> f64 {
        let n = self.coeffs.len() - 1;
        if n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let pmf = &mut scratch.pmf[..n];
        fill_pmf(&self.ln_fact, q, pmf_logs(q), pmf);
        // g'(q) = n Σ_i b_{i,n-1}(q) (C(i+2) − C(i+1)), same accumulation
        // order as the scalar reference.
        let mut acc = 0.0;
        for (b, d) in pmf.iter().zip(self.dcoeffs.iter()) {
            acc += b * d;
        }
        n as f64 * acc
    }

    /// Attach (or detach) an interpolation grid per `spec` — the single
    /// grid-configuration entry point behind [`GridSpec`]:
    ///
    /// * [`GridSpec::Exact`] removes any attached grid;
    /// * [`GridSpec::Interpolated`] runs adaptive bisection that refines
    ///   only where the Hermite midpoint error exceeds
    ///   `tol × `[`Self::scale`], so [`Self::eval_fast_with`] then answers
    ///   in `O(1)` per point. The tolerance is per-call: sweeps and
    ///   plotting paths typically pass `1e-9` (cheap grids), equivalence
    ///   tests `1e-12`.
    ///
    /// Tolerances are validated once, in [`GridSpec::validate`]
    /// ([`Error::InvalidTolerance`]); a build that cannot meet the bound
    /// within its budget is [`Error::NoConvergence`].
    pub fn with_spec(mut self, spec: GridSpec) -> Result<Self> {
        spec.validate()?;
        self.grid = match spec {
            GridSpec::Exact => None,
            GridSpec::Interpolated { tol } => Some(self.build_grid(tol)?),
        };
        Ok(self)
    }

    /// The adaptive-bisection build behind [`GridSpec::Interpolated`]
    /// (`tol` already validated). Deterministic depth-first subdivision:
    /// each segment is tested at its midpoint against the Hermite
    /// interpolant through its endpoints; failing segments split in two
    /// (midpoint values and derivatives are exact kernel evaluations and
    /// are reused as the children's shared endpoint), passing segments
    /// become cells. The left child is processed first, so cells come out
    /// in ascending order without a sort.
    fn build_grid(&self, tol: f64) -> Result<NonUniformGrid> {
        /// A pending segment: endpoint positions, exact values, exact
        /// derivatives.
        struct Seg {
            x0: f64,
            y0: f64,
            d0: f64,
            x1: f64,
            y1: f64,
            d1: f64,
        }
        /// Cell budget: a backstop far above any practical build (the
        /// k = 10⁶ boundary layer needs a few hundred cells at 1e-9).
        const MAX_CELLS: usize = 1 << 16;
        /// Narrowest cell the subdivision may produce before declaring
        /// non-convergence (the error is then round-off-dominated).
        const MIN_WIDTH: f64 = 1e-12;
        let target = tol * self.scale();
        let mut scratch = self.scratch();
        let mut stack = vec![Seg {
            x0: 0.0,
            y0: self.eval_with(&mut scratch, 0.0),
            d0: self.eval_prime_with(&mut scratch, 0.0),
            x1: 1.0,
            y1: self.eval_with(&mut scratch, 1.0),
            d1: self.eval_prime_with(&mut scratch, 1.0),
        }];
        let mut cells = Vec::new();
        let mut worst = 0.0f64;
        while let Some(seg) = stack.pop() {
            let h = seg.x1 - seg.x0;
            let m = 0.5 * (seg.x0 + seg.x1);
            let ym = self.eval_with(&mut scratch, m);
            let interp = hermite_eval(0.5, seg.y0, seg.d0 * h, seg.y1, seg.d1 * h);
            let err = (interp - ym).abs();
            if err <= target || h <= MIN_WIDTH {
                if err > target {
                    return Err(Error::NoConvergence {
                        what: "g-table grid refinement",
                        residual: err,
                    });
                }
                worst = worst.max(err);
                cells.push(Cell {
                    x0: seg.x0,
                    inv_h: 1.0 / h,
                    y0: seg.y0,
                    d0: seg.d0 * h,
                    y1: seg.y1,
                    d1: seg.d1 * h,
                });
                if cells.len() > MAX_CELLS {
                    return Err(Error::NoConvergence {
                        what: "g-table grid refinement",
                        residual: worst,
                    });
                }
            } else {
                let dm = self.eval_prime_with(&mut scratch, m);
                // Push right first so the left child pops (and emits)
                // first — ascending cell order by construction.
                stack.push(Seg { x0: m, y0: ym, d0: dm, x1: seg.x1, y1: seg.y1, d1: seg.d1 });
                stack.push(Seg { x0: seg.x0, y0: seg.y0, d0: seg.d0, x1: m, y1: ym, d1: dm });
            }
        }
        Ok(NonUniformGrid::new(cells, worst))
    }

    /// The attached grid's worst error measured at cell midpoints
    /// (absolute), if a grid was built. An estimate of the true bound:
    /// off-midpoint error can exceed it by a small factor (tests budget
    /// 4×).
    pub fn grid_error(&self) -> Option<f64> {
        self.grid.as_ref().map(|g| g.measured_error)
    }

    /// Number of grid cells (the node count minus one; 0 without a grid).
    pub fn grid_cells(&self) -> usize {
        self.grid.as_ref().map_or(0, |g| g.cells.len())
    }

    /// `O(1)` interpolated `g(q)` when a grid is attached; falls back to
    /// the exact `O(k)` path otherwise. Both branches share one contract:
    /// `q` within round-off of `[0, 1]` is clamped, debug builds assert
    /// the range.
    pub fn eval_fast_with(&self, scratch: &mut GScratch, q: f64) -> f64 {
        debug_assert!((-1e-12..=1.0 + 1e-12).contains(&q), "q out of range: {q}");
        match &self.grid {
            Some(grid) => grid.eval(q.clamp(0.0, 1.0)),
            None => self.eval_with(scratch, q),
        }
    }

    /// Batched fast evaluation into `out` (grid-backed when available);
    /// mismatched lengths are [`Error::LengthMismatch`].
    pub fn eval_fast_many_with(
        &self,
        scratch: &mut GScratch,
        qs: &[f64],
        out: &mut [f64],
    ) -> Result<()> {
        check_len("GTable::eval_fast_many_with", qs.len(), out.len())?;
        match &self.grid {
            Some(grid) => {
                for (slot, &q) in out.iter_mut().zip(qs.iter()) {
                    debug_assert!((-1e-12..=1.0 + 1e-12).contains(&q), "q out of range: {q}");
                    *slot = grid.eval(q.clamp(0.0, 1.0));
                }
                Ok(())
            }
            None => self.eval_many_with(scratch, qs, out),
        }
    }
}

/// Row-block width of the policy-major GEMM in [`GBatch`]: the coefficient
/// matrix is padded with zero rows to a multiple of this, so the inner
/// product always runs a full block of independent accumulators (ILP
/// instead of one serial add chain) and the row loop needs no scalar tail.
/// Shared with [`crate::simd`] — one AVX2 register per block row.
const GEMM_BLOCK: usize = simd::GEMV_BLOCK;

/// Structure-of-arrays evaluator for *many* congestion policies sharing
/// one player count `k` — the policy-batched sibling of [`GTable`].
///
/// A [`GTable`] amortizes per-`(C, k)` setup across many `q` points; a
/// `GBatch` amortizes the per-`q` work across many policies. It holds a
/// **policy-major coefficient matrix** (row `r` = policy `r`'s Bernstein
/// coefficients `[C_r(1), …, C_r(k)]`, rows zero-padded to the GEMM block
/// width), and evaluates a whole q-grid against every row at once:
///
/// ```text
///            shared basis column          policy-major matrix
///   q ──►  [b₀(q) … b_{k−1}(q)]ᵀ   ×   [ C₀(1) … C₀(k) ]      ┐
///          (one Bernstein walk,        [ C₁(1) … C₁(k) ]      │ rows =
///           reused by every row)       [   ⋮        ⋮  ]      │ policies
///                                      [ C_{P−1}(1) … ]      ┘
///                                      [ 0 … 0 (padding to a ]
///                                      [ multiple of 4 rows) ]
/// ```
///
/// Per grid point the binomial Bernstein column is built **once** (the
/// same ratio recurrence [`GTable`] uses, into a caller-owned
/// [`GScratch`]), then a blocked matrix–vector product finishes all
/// policies — `O(k)` transcendentals per point *total* instead of per
/// policy, and the dot products run `GEMM_BLOCK` independent accumulator
/// chains. Mixed-`k` workloads split into one `GBatch` per `k` (a
/// *k-tile*), since the Bernstein degree is `k − 1`.
///
/// Two modes, mirroring [`GTable`]'s contract:
///
/// * [`GBatch::eval_many_with`] — reference mode:
///   the shared column is the exact binomial PMF of [`GTable::eval_with`]
///   and each row is finished with the same Kahan dot, so every output is
///   **bit-identical** to the corresponding per-policy
///   [`GTable::eval_with`] (and therefore to the scalar
///   [`crate::payoff::PayoffContext::g`]). On the AVX2 lane eight
///   interior points share each pass (eight columns, one per f64 slot),
///   with the per-point operations in the per-point order.
/// * [`GBatch::eval_fused_many_into`] / [`GBatch::eval_grid`] — the
///   GEMM fast path: the column is built with [`GTable::eval_fused`]'s
///   pre-divided factors and rows are finished with plain blocked dots.
///   Agrees with per-policy `eval_fused` to `O(k·ε)` (CI enforces
///   1e-13 × [`GBatch::scale`] at `k = 256`).
///
/// This layout — shared basis column × policy-major matrix — is the
/// staging ground for a wgpu/CUDA GEMM backend.
#[derive(Debug, Clone)]
pub struct GBatch {
    /// Policy-major coefficient matrix, row-major storage: row `r` lives
    /// at `coeffs[r·k .. (r+1)·k]`; rows `rows..padded` are zero padding.
    coeffs: Vec<f64>,
    /// Real policy count (rows of the matrix that carry data; the
    /// storage above holds `rows.div_ceil(GEMM_BLOCK) · GEMM_BLOCK` rows).
    rows: usize,
    /// Player count shared by every row (columns of the matrix).
    k: usize,
    /// `ln j!` for `j = 0..k` — the shared basis walk's seed row
    /// (identical to the one every per-policy [`GTable`] at this `k`
    /// builds).
    ln_fact: Vec<f64>,
    /// Pre-divided upward factors `(n−j)/(j+1)` for the fused basis walk.
    up: Vec<f64>,
    /// Pre-divided downward factors `(j+1)/(n−j)` for the fused walk.
    down: Vec<f64>,
}

impl GBatch {
    /// Build a batch over `policies`, all evaluated at the same `k ≥ 1`,
    /// validating the congestion axioms per policy (`C(1) = 1`,
    /// non-increasing) exactly like [`GTable::new`].
    pub fn new(policies: &[&dyn Congestion], k: usize) -> Result<Self> {
        let rows: Vec<Vec<f64>> = policies
            .iter()
            .map(|c| crate::policy::validate_congestion(*c, k))
            .collect::<Result<_>>()?;
        Self::from_rows(rows)
    }

    /// Build a batch directly from coefficient rows `[C(1), …, C(k)]`
    /// (one per policy, no `C(1) = 1` normalization check — the entry
    /// point for scaled/designed tables). Every row must be non-empty,
    /// finite, and the same length; a length disagreement is
    /// [`Error::LengthMismatch`] against the first row.
    pub fn from_rows(rows_in: Vec<Vec<f64>>) -> Result<Self> {
        if rows_in.is_empty() {
            return Err(Error::InvalidArgument("GBatch needs at least one policy row".into()));
        }
        let k = rows_in[0].len();
        if k == 0 {
            return Err(Error::InvalidPlayerCount { k: 0 });
        }
        for row in &rows_in {
            check_len("GBatch::from_rows", k, row.len())?;
            check_finite_coeffs(row)?;
        }
        let rows = rows_in.len();
        let padded = rows.div_ceil(GEMM_BLOCK) * GEMM_BLOCK;
        let mut coeffs = vec![0.0; padded * k];
        for (r, row) in rows_in.iter().enumerate() {
            coeffs[r * k..(r + 1) * k].copy_from_slice(row);
        }
        let ln_fact = ln_factorial_row(k - 1);
        let (up, down) = fused_factors(k - 1);
        Ok(Self { coeffs, rows, k, ln_fact, up, down })
    }

    /// Number of policies (real rows; padding rows are not counted).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Player count `k` shared by every row.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `r`'s coefficient table `[C_r(1), …, C_r(k)]`
    /// ([`Error::InvalidArgument`] for `r ≥` [`Self::rows`]).
    pub fn row_coefficients(&self, r: usize) -> Result<&[f64]> {
        if r >= self.rows {
            return Err(Error::InvalidArgument(format!(
                "row {r} out of range for a {}-row batch",
                self.rows
            )));
        }
        Ok(&self.coeffs[r * self.k..(r + 1) * self.k])
    }

    /// Magnitude scale across the whole batch (for relative error
    /// bounds): `max_{r,j} |C_r(j)|`, floored at 1.
    pub fn scale(&self) -> f64 {
        self.coeffs.iter().fold(1.0f64, |acc, &c| acc.max(c.abs()))
    }

    /// A scratch buffer sized for this batch's shared basis column.
    pub fn scratch(&self) -> GScratch {
        GScratch { pmf: vec![0.0; self.k], lanes: Vec::new() }
    }

    /// The fused GEMM at one point: fill the shared Bernstein column at
    /// `q` — the exact `b` sequence [`GTable::eval_fused`] walks
    /// (pre-divided factors, no serial division chain) — then finish every
    /// row with the blocked product into `out[..rows]`, dispatched through
    /// [`crate::simd::gemv_block4`] (AVX2 + FMA when the host has it, the
    /// scalar unroll otherwise).
    fn fused_point(&self, scratch: &mut GScratch, q: f64, out: &mut [f64]) {
        debug_assert!((-1e-12..=1.0 + 1e-12).contains(&q), "q out of range: {q}");
        let q = q.clamp(0.0, 1.0);
        let n = self.k - 1;
        let basis = &mut scratch.pmf[..self.k];
        if n == 0 || q <= 0.0 {
            basis.fill(0.0);
            basis[0] = 1.0;
        } else if q >= 1.0 {
            basis.fill(0.0);
            basis[n] = 1.0;
        } else {
            let (mode, b_mode) = seed_mode(&self.ln_fact, n, q, pmf_logs(q));
            let ratio = q / (1.0 - q);
            let inv_ratio = (1.0 - q) / q;
            simd::fused_fill(basis, &self.up, &self.down, mode, b_mode, ratio, inv_ratio);
        }
        simd::gemv_block4(&self.coeffs, self.k, self.rows, basis, out);
    }

    /// Reference-mode grid evaluation, **policy-major** output:
    /// `out[r · qs.len() + i] = g_{C_r}(qs[i])`, every entry bit-identical
    /// to the per-policy [`GTable::eval_with`]. `out.len()` must be
    /// `rows × qs.len()`.
    ///
    /// The exact tile: each point's PMF column is built once and shared
    /// by every row. On the AVX2 lane the interior points run eight at a
    /// time, one per f64 slot, with the per-point operations in the
    /// per-point order ([`crate::simd`]'s reference lane), so the bits
    /// are the same on either lane.
    pub fn eval_many_with(
        &self,
        scratch: &mut GScratch,
        qs: &[f64],
        out: &mut [f64],
    ) -> Result<()> {
        check_len("GBatch::eval_many_with", self.rows * qs.len(), out.len())?;
        let rows = &self.coeffs[..self.rows * self.k];
        reference_tile(&self.ln_fact, rows, scratch, qs, out);
        Ok(())
    }

    /// Fused-GEMM grid evaluation, policy-major output
    /// (`out[r · qs.len() + i]`): one basis walk and one blocked product
    /// per grid point for the whole batch. `out.len()` must be
    /// `rows × qs.len()`.
    pub fn eval_fused_many_into(
        &self,
        scratch: &mut GScratch,
        qs: &[f64],
        out: &mut [f64],
    ) -> Result<()> {
        check_len("GBatch::eval_fused_many_into", self.rows * qs.len(), out.len())?;
        let nq = qs.len();
        let mut col = vec![0.0; self.rows];
        for (i, &q) in qs.iter().enumerate() {
            self.fused_point(scratch, q, &mut col);
            for (r, &v) in col.iter().enumerate() {
                out[r * nq + i] = v;
            }
        }
        Ok(())
    }

    /// Convenience fused-GEMM grid evaluation, allocating the policy-major
    /// output matrix (`rows × qs.len()`).
    pub fn eval_grid(&self, qs: &[f64]) -> Vec<f64> {
        let mut scratch = self.scratch();
        let mut out = vec![0.0; self.rows * qs.len()];
        // `out` is sized to rows × qs.len() above, so the only failure
        // mode (a length mismatch) cannot occur; discarding the `Result`
        // keeps this convenience wrapper panic-free.
        self.eval_fused_many_into(&mut scratch, qs, &mut out).unwrap_or_default();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payoff::PayoffContext;
    use crate::policy::{Exclusive, PowerLaw, Sharing, TableCongestion, TwoLevel};
    use crate::value::ValueProfile;

    #[test]
    fn eval_is_bit_identical_to_scalar_g() {
        for c in [
            &Exclusive as &dyn Congestion,
            &Sharing,
            &TwoLevel { c: -0.4 },
            &PowerLaw { beta: 2.5 },
        ] {
            for k in [1usize, 2, 5, 17, 64] {
                let ctx = PayoffContext::new(c, k).unwrap();
                let table = GTable::new(c, k).unwrap();
                let mut scratch = table.scratch();
                for &q in unit_grid(257).unwrap().iter() {
                    let scalar = ctx.g(q).unwrap();
                    let fast = table.eval_with(&mut scratch, q);
                    assert_eq!(
                        scalar.to_bits(),
                        fast.to_bits(),
                        "{} k={k} q={q}: {scalar} vs {fast}",
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn eval_prime_is_bit_identical_to_scalar_g_prime() {
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.25 }] {
            for k in [1usize, 2, 7, 33] {
                let ctx = PayoffContext::new(c, k).unwrap();
                let table = GTable::new(c, k).unwrap();
                let mut scratch = table.scratch();
                for &q in unit_grid(101).unwrap().iter() {
                    let a = ctx.g_prime(q);
                    let b = table.eval_prime_with(&mut scratch, q);
                    assert_eq!(a.to_bits(), b.to_bits(), "{} k={k} q={q}", c.name());
                }
            }
        }
    }

    #[test]
    fn fused_path_matches_reference_to_contract() {
        for c in [
            &Exclusive as &dyn Congestion,
            &Sharing,
            &TwoLevel { c: -0.4 },
            &PowerLaw { beta: 2.5 },
        ] {
            for k in [1usize, 2, 17, 64, 256] {
                let table = GTable::new(c, k).unwrap();
                let mut scratch = table.scratch();
                let tol = 1e-13 * table.scale();
                for &q in unit_grid(257).unwrap().iter() {
                    let reference = table.eval_with(&mut scratch, q);
                    let fused = table.eval_fused(q);
                    assert!(
                        (reference - fused).abs() <= tol,
                        "{} k={k} q={q}: {reference} vs {fused}",
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_many_matches_pointwise_and_checks_len() {
        let table = GTable::new(&Sharing, 24).unwrap();
        let qs = unit_grid(63).unwrap();
        let mut out = vec![0.0; qs.len()];
        table.eval_fused_many_into(&qs, &mut out).unwrap();
        for (&q, &v) in qs.iter().zip(out.iter()) {
            assert_eq!(v.to_bits(), table.eval_fused(q).to_bits());
        }
    }

    #[test]
    fn many_entry_points_report_length_mismatch_as_typed_error() {
        let table = GTable::new(&Sharing, 8).unwrap();
        let mut scratch = table.scratch();
        let qs = unit_grid(10).unwrap();
        let mut short = vec![0.0; qs.len() - 1];
        let expect_mismatch = |r: Result<()>| match r {
            Err(Error::LengthMismatch { expected, got, .. }) => {
                assert_eq!(expected, qs.len());
                assert_eq!(got, qs.len() - 1);
            }
            other => panic!("expected LengthMismatch, got {other:?}"),
        };
        expect_mismatch(table.eval_many_with(&mut scratch, &qs, &mut short));
        expect_mismatch(table.eval_fused_many_into(&qs, &mut short));
        expect_mismatch(table.eval_fast_many_with(&mut scratch, &qs, &mut short));
        // The failed calls must not have touched the output buffer.
        assert!(short.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn endpoints_are_exact() {
        let table = GTable::new(&Sharing, 6).unwrap();
        assert_eq!(table.at_zero(), 1.0);
        assert_eq!(table.at_one(), 1.0 / 6.0);
        assert_eq!(table.eval(0.0), 1.0);
        assert_eq!(table.eval(1.0), 1.0 / 6.0);
    }

    #[test]
    fn eval_many_matches_pointwise() {
        let table = GTable::new(&Sharing, 12).unwrap();
        let qs = unit_grid(99).unwrap();
        let mut batch = vec![0.0; qs.len()];
        table.eval_many_with(&mut table.scratch(), &qs, &mut batch).unwrap();
        for (&q, &v) in qs.iter().zip(batch.iter()) {
            assert_eq!(v.to_bits(), table.eval(q).to_bits(), "q={q}");
        }
    }

    #[test]
    fn single_player_table_is_constant() {
        let table = GTable::new(&Sharing, 1).unwrap();
        let mut s = table.scratch();
        for &q in &[0.0, 0.3, 1.0] {
            assert_eq!(table.eval_with(&mut s, q), 1.0);
            assert_eq!(table.eval_prime_with(&mut s, q), 0.0);
        }
    }

    #[test]
    fn from_coefficients_validates() {
        assert!(GTable::from_coefficients(vec![]).is_err());
        assert!(GTable::from_coefficients(vec![1.0, f64::NAN]).is_err());
        assert!(GTable::from_coefficients(vec![1.0, f64::INFINITY]).is_err());
        // Scaled (C(1) ≠ 1) tables are allowed here.
        let t = GTable::from_coefficients(vec![1e9, 5e8, 0.0]).unwrap();
        assert_eq!(t.eval(0.0), 1e9);
        assert_eq!(t.scale(), 1e9);
    }

    fn gridded(c: &dyn Congestion, k: usize, tol: f64) -> GTable {
        GTable::new(c, k).unwrap().with_spec(GridSpec::Interpolated { tol }).unwrap()
    }

    #[test]
    fn grid_meets_error_bound() {
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.4 }] {
            for k in [2usize, 16, 64] {
                let table = gridded(c, k, 1e-12);
                assert!(table.grid.is_some());
                assert!(table.grid_error().unwrap() <= 1e-12 * table.scale());
                let mut scratch = table.scratch();
                // Off-midpoint sample points (not used during refinement).
                for i in 0..400 {
                    let q = (i as f64 + 0.37) / 400.0;
                    let exact = table.eval_with(&mut scratch, q);
                    let interp = table.eval_fast_with(&mut scratch, q);
                    assert!(
                        (exact - interp).abs() <= 4.0 * 1e-12 * table.scale(),
                        "{} k={k} q={q}: exact {exact} interp {interp}",
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn grid_is_exact_at_nodes_and_endpoints() {
        let table = gridded(&Sharing, 8, 1e-12);
        let mut s = table.scratch();
        assert_eq!(table.eval_fast_with(&mut s, 0.0), table.eval_with(&mut s, 0.0));
        assert_eq!(table.eval_fast_with(&mut s, 1.0), table.eval_with(&mut s, 1.0));
    }

    #[test]
    fn grid_rejects_bad_tolerance() {
        let table = GTable::new(&Sharing, 4).unwrap();
        assert!(table.clone().with_spec(GridSpec::Interpolated { tol: 0.0 }).is_err());
        assert!(table.with_spec(GridSpec::Interpolated { tol: f64::NAN }).is_err());
    }

    #[test]
    fn grid_spec_validation_is_the_single_tolerance_path() {
        assert!(GridSpec::Exact.validate().is_ok());
        assert!(GridSpec::Interpolated { tol: 1e-9 }.validate().is_ok());
        for bad in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                GridSpec::Interpolated { tol: bad }.validate(),
                Err(Error::InvalidTolerance { .. })
            ));
            // with_spec reports the same typed error without building.
            let table = GTable::new(&Sharing, 4).unwrap();
            assert!(matches!(
                table.with_spec(GridSpec::Interpolated { tol: bad }),
                Err(Error::InvalidTolerance { .. })
            ));
        }
    }

    #[test]
    fn with_spec_exact_detaches_the_grid() {
        let base = GTable::new(&Sharing, 16).unwrap();
        let gridded = base.clone().with_spec(GridSpec::Interpolated { tol: 1e-10 }).unwrap();
        assert!(gridded.grid.is_some());
        // Exact spec detaches the grid and restores the reference path.
        let detached = gridded.with_spec(GridSpec::Exact).unwrap();
        assert!(detached.grid.is_none());
        let mut s = detached.scratch();
        assert_eq!(detached.eval_fast_with(&mut s, 0.42).to_bits(), base.eval(0.42).to_bits());
    }

    /// The binary-search cell lookup and width division the bucket index
    /// and stored reciprocals replaced, kept as the bit-for-bit reference
    /// for [`NonUniformGrid::eval`] over the node positions `xs`.
    fn binary_search_eval(grid: &NonUniformGrid, xs: &[f64], q: f64) -> f64 {
        let last = xs.len() - 2;
        let cell = match xs.binary_search_by(|x| x.total_cmp(&q)) {
            Ok(i) => i.min(last),
            Err(i) => i.saturating_sub(1).min(last),
        };
        let h = xs[cell + 1] - xs[cell];
        let t = (q - xs[cell]) / h;
        let c = &grid.cells[cell];
        hermite_eval(t, c.y0, c.d0, c.y1, c.d1)
    }

    #[test]
    fn bucket_lookup_is_bit_identical_to_binary_search() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.4 }] {
            for k in [2usize, 64, 512, 2048] {
                let table = gridded(c, k, 1e-9);
                let grid = table.grid.as_ref().unwrap();
                let mut xs: Vec<f64> = grid.cells.iter().map(|c| c.x0).collect();
                xs.push(1.0);
                let mut qs = vec![0.0, 1.0];
                qs.extend_from_slice(&xs);
                qs.extend(xs.windows(2).map(|w| 0.5 * (w[0] + w[1])));
                qs.extend((0..10_000).map(|_| rng.gen::<f64>()));
                for q in qs {
                    assert_eq!(
                        grid.eval(q).to_bits(),
                        binary_search_eval(grid, &xs, q).to_bits(),
                        "{} k={k} q={q}",
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn nonuniform_grid_meets_error_bound_off_midpoint() {
        for c in [&Exclusive as &dyn Congestion, &Sharing, &TwoLevel { c: -0.4 }] {
            for k in [2usize, 64, 512] {
                let tol = 1e-9;
                let table = gridded(c, k, tol);
                assert!(table.grid.is_some());
                assert!(table.grid_error().unwrap() <= tol * table.scale());
                let mut scratch = table.scratch();
                // Off-midpoint sample points (not used during refinement);
                // budget the same 4× the tight-tolerance test uses.
                for i in 0..400 {
                    let q = (i as f64 + 0.37) / 400.0;
                    let exact = table.eval_with(&mut scratch, q);
                    let interp = table.eval_fast_with(&mut scratch, q);
                    assert!(
                        (exact - interp).abs() <= 4.0 * tol * table.scale(),
                        "{} k={k} q={q}: exact {exact} interp {interp}",
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn nonuniform_grid_is_exact_at_endpoints() {
        let table = gridded(&Exclusive, 128, 1e-9);
        let mut s = table.scratch();
        assert_eq!(table.eval_fast_with(&mut s, 0.0).to_bits(), table.eval(0.0).to_bits());
        assert_eq!(table.eval_fast_with(&mut s, 1.0).to_bits(), table.eval(1.0).to_bits());
    }

    #[test]
    fn nonuniform_build_is_deterministic() {
        let a = gridded(&Sharing, 256, 1e-10);
        let b = gridded(&Sharing, 256, 1e-10);
        assert_eq!(a.grid_cells(), b.grid_cells());
        let (mut sa, mut sb) = (a.scratch(), b.scratch());
        for i in 0..=997 {
            let q = i as f64 / 997.0;
            assert_eq!(
                a.eval_fast_with(&mut sa, q).to_bits(),
                b.eval_fast_with(&mut sb, q).to_bits()
            );
        }
    }

    #[test]
    fn fast_eval_without_grid_falls_back_to_exact() {
        let table = GTable::new(&Sharing, 9).unwrap();
        let mut s = table.scratch();
        assert_eq!(
            table.eval_fast_with(&mut s, 0.42).to_bits(),
            table.eval_with(&mut s, 0.42).to_bits()
        );
    }

    #[test]
    fn table_congestion_roundtrip() {
        let policy = TableCongestion::new(vec![1.0, 0.5, 0.2, 0.2], "custom").unwrap();
        let ctx = PayoffContext::new(&policy, 4).unwrap();
        let table = GTable::new(&policy, 4).unwrap();
        for &q in unit_grid(50).unwrap().iter() {
            assert_eq!(ctx.g(q).unwrap().to_bits(), table.eval(q).to_bits());
        }
    }

    /// Five catalog-like policies (odd count, so the GEMM padding rows are
    /// exercised: 5 real rows pad to 8).
    fn batch_policies() -> Vec<&'static dyn Congestion> {
        vec![
            &Exclusive,
            &Sharing,
            &TwoLevel { c: -0.4 },
            &TwoLevel { c: 0.3 },
            &PowerLaw { beta: 2.5 },
        ]
    }

    #[test]
    fn gbatch_reference_mode_is_bit_identical_to_per_policy_tables() {
        let qs = unit_grid(101).unwrap();
        for k in [1usize, 2, 5, 17, 64] {
            let policies = batch_policies();
            let batch = GBatch::new(&policies, k).unwrap();
            assert_eq!(batch.rows(), policies.len());
            assert_eq!(batch.k(), k);
            let mut out = vec![0.0; policies.len() * qs.len()];
            batch.eval_many_with(&mut batch.scratch(), &qs, &mut out).unwrap();
            for (r, c) in policies.iter().enumerate() {
                let table = GTable::new(*c, k).unwrap();
                let mut ts = table.scratch();
                for (i, &q) in qs.iter().enumerate() {
                    assert_eq!(
                        out[r * qs.len() + i].to_bits(),
                        table.eval_with(&mut ts, q).to_bits(),
                        "row {r} k={k} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn gbatch_fused_matches_per_policy_eval_fused_to_contract() {
        let qs = unit_grid(257).unwrap();
        for k in [1usize, 2, 17, 64, 256] {
            let policies = batch_policies();
            let batch = GBatch::new(&policies, k).unwrap();
            let out = batch.eval_grid(&qs);
            let tol = 1e-13 * batch.scale();
            for (r, c) in policies.iter().enumerate() {
                let table = GTable::new(*c, k).unwrap();
                for (i, &q) in qs.iter().enumerate() {
                    let (fused, reference) = (out[r * qs.len() + i], table.eval_fused(q));
                    assert!(
                        (fused - reference).abs() <= tol,
                        "row {r} k={k} q={q}: {fused} vs {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn gbatch_grid_is_policy_major_and_matches_pointwise() {
        let policies = batch_policies();
        let batch = GBatch::new(&policies, 24).unwrap();
        let qs = unit_grid(63).unwrap();
        let mut scratch = batch.scratch();
        // Each mode's grid is bit-identical, cell by cell, to the same mode
        // run on a one-point grid.
        let mut ref_grid = vec![0.0; batch.rows() * qs.len()];
        batch.eval_many_with(&mut scratch, &qs, &mut ref_grid).unwrap();
        let mut fused_grid = vec![0.0; batch.rows() * qs.len()];
        batch.eval_fused_many_into(&mut scratch, &qs, &mut fused_grid).unwrap();
        assert_eq!(batch.eval_grid(&qs), fused_grid);
        let mut point = vec![0.0; batch.rows()];
        for (i, &q) in qs.iter().enumerate() {
            batch.eval_many_with(&mut scratch, &[q], &mut point).unwrap();
            for r in 0..batch.rows() {
                assert_eq!(ref_grid[r * qs.len() + i].to_bits(), point[r].to_bits());
            }
            batch.eval_fused_many_into(&mut scratch, &[q], &mut point).unwrap();
            for r in 0..batch.rows() {
                assert_eq!(fused_grid[r * qs.len() + i].to_bits(), point[r].to_bits());
            }
        }
    }

    #[test]
    fn gbatch_single_player_is_constant() {
        let batch = GBatch::new(&batch_policies(), 1).unwrap();
        let qs = [0.0, 0.4, 1.0];
        let out = batch.eval_grid(&qs);
        for r in 0..batch.rows() {
            for i in 0..qs.len() {
                assert_eq!(out[r * qs.len() + i], batch.row_coefficients(r).unwrap()[0], "row {r}");
            }
        }
    }

    #[test]
    fn gbatch_validates_rows_and_lengths() {
        assert!(GBatch::from_rows(vec![]).is_err());
        assert!(GBatch::from_rows(vec![vec![]]).is_err());
        assert!(GBatch::from_rows(vec![vec![1.0, 0.5], vec![1.0, f64::NAN]]).is_err());
        // Mixed k is a typed length mismatch — mixed player counts go in
        // separate k-tiles.
        assert!(matches!(
            GBatch::from_rows(vec![vec![1.0, 0.5], vec![1.0, 0.5, 0.2]]),
            Err(Error::LengthMismatch { expected: 2, got: 3, .. })
        ));
        // Scaled (C(1) != 1) rows are allowed, and scale() sees them.
        let batch = GBatch::from_rows(vec![vec![1e9, 5e8], vec![1.0, 0.5]]).unwrap();
        assert_eq!(batch.scale(), 1e9);
        assert_eq!(batch.row_coefficients(1).unwrap(), &[1.0, 0.5]);
        assert!(batch.row_coefficients(2).is_err());
        // Output-length mismatches are typed errors on every entry point.
        let mut scratch = batch.scratch();
        let mut short = vec![0.0; 1];
        let qs = [0.25, 0.75];
        assert!(matches!(
            batch.eval_many_with(&mut scratch, &qs, &mut short),
            Err(Error::LengthMismatch { expected: 4, got: 1, .. })
        ));
        assert!(matches!(
            batch.eval_fused_many_into(&mut scratch, &qs, &mut short),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn unit_grid_is_uniform_and_rejects_zero_resolution() {
        assert_eq!(unit_grid(1).unwrap(), vec![0.0, 1.0]);
        assert_eq!(unit_grid(4).unwrap(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert!(matches!(unit_grid(0), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn kernel_speeds_site_value_identity() {
        // ν(x) = f(x)·g(p(x)) through the batched path equals the scalar
        // definition.
        let f = ValueProfile::zipf(30, 1.0, 1.0).unwrap();
        let ctx = PayoffContext::new(&Sharing, 8).unwrap();
        let p = crate::strategy::Strategy::proportional(f.values()).unwrap();
        let nu = ctx.site_values(&f, &p).unwrap();
        for (x, &v) in nu.iter().enumerate() {
            let expect = f.value(x) * ctx.g(p.prob(x)).unwrap();
            assert_eq!(v.to_bits(), expect.to_bits(), "site {x}");
        }
    }

    #[test]
    fn miri_gtable_eval_small() {
        // Tiny end-to-end table evaluation for the Miri CI subset: builds
        // the k = 3 sharing table and checks one interior point against
        // the scalar Bernstein form.
        let table = GTable::new(&Sharing, 3).unwrap();
        let mut scratch = table.scratch();
        let q = 0.25;
        let expect: f64 = crate::numerics::kahan_sum(
            (0..=2).map(|j| crate::numerics::binomial_pmf(2, j, q) * 1.0 / (j as f64 + 1.0)),
        );
        assert!((table.eval_with(&mut scratch, q) - expect).abs() < 1e-12);
    }
}
