//! Runtime-dispatched SIMD kernels for the evaluation hot loops.
//!
//! The 4-wide *scalar* unrolls that [`crate::kernel`] has always run —
//! the `GEMM_BLOCK` policy-major matvec, the fused Bernstein basis
//! walk, and the Poisson–binomial rank-update convolution — graduate
//! here to explicit x86-64 AVX2/FMA intrinsics. The scalar paths are
//! kept as always-compiled fallbacks (they *are* the original kernels,
//! moved verbatim) and every AVX2 path is reachable only through
//! runtime feature detection, so the same binary runs everywhere.
//!
//! ## Lane selection
//!
//! [`active_lane`] decides once per process, in order:
//!
//! 1. the `DISPERSAL_FORCE_SCALAR=1` environment variable (read once)
//!    pins [`Lane::Scalar`] — the debugging/CI switch;
//! 2. `is_x86_feature_detected!("avx2") && ("fma")` picks
//!    [`Lane::Avx2`];
//! 3. anything else (non-x86-64 targets, Miri, older CPUs) runs
//!    [`Lane::Scalar`].
//!
//! ## Numerical contracts
//!
//! * [`convolve_step`] is **bit-identical** across lanes: the scalar
//!   recurrence `pmf[j]·(1−p) + pmf[j−1]·p` is elementwise over the
//!   *previous* values, so a plain (non-FMA) vectorization performs the
//!   exact same two roundings per element. Every bitwise `PbTable`
//!   contract therefore holds on either lane, and `simd_seam` tests
//!   assert the lanes agree bit-for-bit.
//! * The reference tile ([`ref_walk8_avx2`] + [`ref_dot8_avx2`]) is
//!   **bit-identical** to the per-point reference code in the same way.
//!   The exact `GTable`/`GBatch` tile dispatches its interior points
//!   here eight at a time, one point per f64 slot of two 4-wide groups.
//!   Each slot walks its binomial PMF in the scalar operation order
//!   (`pmf·(n−j)/(j+1)·ratio` up, `pmf·(j+1)/(n−j)/ratio` down, plain
//!   mul/div, no FMA) and finishes each coefficient row with its own
//!   Kahan dot in index order. So the lane changes how many points run
//!   at once, never a rounding; `simd_seam` compares it with the scalar
//!   lane ([`ref_walk8_scalar`] + [`ref_dot8_scalar`]) and with the
//!   per-point `GTable::eval_with` bit for bit.
//! * [`gemv_block4`], [`fused_fill`], and [`fused_dot`] feed only the
//!   *fused* evaluation paths, whose documented contract is agreement
//!   with the scalar reference to ≤ 1e-13 × scale — FMA contraction and
//!   blocked re-association stay far inside that bound (`O(k·ε)`), and
//!   the seam tests enforce it directly.
//!
//! Determinism caveat: lane choice is per-process state, like a build
//! flag — a fused-path result archived on an AVX2 host differs from a
//! scalar host's in the last bits (within contract). Reference-path
//! outputs are identical everywhere.

use std::sync::OnceLock;

/// Width shared by the blocked GEMV and `GBatch`'s row padding (4 f64
/// lanes = one 256-bit AVX2 register per accumulator).
pub const GEMV_BLOCK: usize = 4;

/// Instruction lane the dispatched kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Always-compiled scalar fallback (the original 4-wide unrolls).
    Scalar,
    /// x86-64 AVX2 + FMA intrinsics, runtime-detected.
    Avx2,
}

impl Lane {
    /// Stable name for logs and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Scalar => "scalar",
            Lane::Avx2 => "avx2",
        }
    }
}

/// Whether the `DISPERSAL_FORCE_SCALAR` environment variable pins the
/// scalar lane. Read once.
pub fn force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("DISPERSAL_FORCE_SCALAR")
            .map(|v| matches!(v.trim(), "1" | "true" | "yes" | "on"))
            .unwrap_or(false)
    })
}

/// Whether this host can run the AVX2 lane (detection only — ignores
/// [`force_scalar`]; use [`active_lane`] for the dispatch decision).
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// The lane the dispatched kernels use, decided once per process.
pub fn active_lane() -> Lane {
    static LANE: OnceLock<Lane> = OnceLock::new();
    *LANE.get_or_init(
        || {
            if force_scalar() || !avx2_available() {
                Lane::Scalar
            } else {
                Lane::Avx2
            }
        },
    )
}

// ---------------------------------------------------------------------------
// Blocked GEMV (GBatch's policy-major matvec)
// ---------------------------------------------------------------------------

/// `out[r] = Σ_j basis[j] · matrix[r·cols + j]` for `r < rows`, over a
/// row-major matrix zero-padded to a multiple of
/// [`GEMV_BLOCK`] rows. Dispatched on [`active_lane`]; fused-path
/// contract (≤ 1e-13 × scale vs the scalar lane).
pub fn gemv_block4(matrix: &[f64], cols: usize, rows: usize, basis: &[f64], out: &mut [f64]) {
    match active_lane() {
        Lane::Scalar => gemv_block4_scalar(matrix, cols, rows, basis, out),
        Lane::Avx2 => gemv_block4_avx2(matrix, cols, rows, basis, out),
    }
}

/// Scalar lane of [`gemv_block4`]: the original `GEMM_BLOCK` unroll —
/// four independent accumulator chains per row block.
pub fn gemv_block4_scalar(
    matrix: &[f64],
    cols: usize,
    rows: usize,
    basis: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(basis.len(), cols);
    let mut r = 0;
    while r < rows {
        let base = r * cols;
        let block = &matrix[base..base + GEMV_BLOCK * cols];
        let (r0, rest) = block.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let mut acc = [0.0f64; GEMV_BLOCK];
        for (j, &b) in basis.iter().enumerate() {
            acc[0] += b * r0[j];
            acc[1] += b * r1[j];
            acc[2] += b * r2[j];
            acc[3] += b * r3[j];
        }
        for (lane, &a) in acc.iter().enumerate() {
            if r + lane < rows {
                out[r + lane] = a;
            }
        }
        r += GEMV_BLOCK;
    }
}

/// AVX2 + FMA lane of [`gemv_block4`] (one 256-bit accumulator per row
/// of the block, shared basis load). Falls back to the scalar lane when
/// the host lacks AVX2/FMA, so it is always safe to call — seam tests
/// use it to compare lanes directly regardless of the dispatch choice.
pub fn gemv_block4_avx2(matrix: &[f64], cols: usize, rows: usize, basis: &[f64], out: &mut [f64]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() {
        debug_assert_eq!(basis.len(), cols);
        debug_assert!(matrix.len() >= rows.div_ceil(GEMV_BLOCK) * GEMV_BLOCK * cols);
        // SAFETY: AVX2 + FMA presence was runtime-checked above; slice
        // bounds are asserted by the debug checks and upheld by the
        // callers' padded layouts (checked indexing inside on release
        // paths would defeat the kernel, so the unsafe block's contract
        // is the padded `rows.div_ceil(4)·4 × cols` matrix shape).
        unsafe { avx2::gemv_block4(matrix, cols, rows, basis, out) };
        return;
    }
    gemv_block4_scalar(matrix, cols, rows, basis, out);
}

// ---------------------------------------------------------------------------
// Fused Bernstein basis walk (fill and fused dot)
// ---------------------------------------------------------------------------

/// Fill `basis` with the fused-path Bernstein column: `basis[mode] =
/// b_mode`, then the pre-divided two-sided ratio walk (`up[j]·ratio`
/// upward, `down[j]·inv_ratio` downward). Dispatched on
/// [`active_lane`]; fused-path contract.
pub fn fused_fill(
    basis: &mut [f64],
    up: &[f64],
    down: &[f64],
    mode: usize,
    b_mode: f64,
    ratio: f64,
    inv_ratio: f64,
) {
    match active_lane() {
        Lane::Scalar => fused_fill_scalar(basis, up, down, mode, b_mode, ratio, inv_ratio),
        Lane::Avx2 => fused_fill_avx2(basis, up, down, mode, b_mode, ratio, inv_ratio),
    }
}

/// Scalar lane of [`fused_fill`]: the original serial walk.
pub fn fused_fill_scalar(
    basis: &mut [f64],
    up: &[f64],
    down: &[f64],
    mode: usize,
    b_mode: f64,
    ratio: f64,
    inv_ratio: f64,
) {
    let n = basis.len() - 1;
    basis[mode] = b_mode;
    for j in mode..n {
        basis[j + 1] = basis[j] * up[j] * ratio;
    }
    for j in (0..mode).rev() {
        basis[j] = basis[j + 1] * down[j] * inv_ratio;
    }
}

/// AVX2 + FMA lane of [`fused_fill`]: 4-step factor chunks turned into
/// in-register prefix products. Falls back to scalar off-AVX2 hosts.
pub fn fused_fill_avx2(
    basis: &mut [f64],
    up: &[f64],
    down: &[f64],
    mode: usize,
    b_mode: f64,
    ratio: f64,
    inv_ratio: f64,
) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() {
        // SAFETY: AVX2 + FMA runtime-checked; `up`/`down` have length
        // ≥ n and `basis` length n + 1 by the kernel layouts.
        unsafe { avx2::fused_fill(basis, up, down, mode, b_mode, ratio, inv_ratio) };
        return;
    }
    fused_fill_scalar(basis, up, down, mode, b_mode, ratio, inv_ratio);
}

/// The fused evaluation walk with the dot product fused in: returns
/// `Σ_j b_j · coeffs[j]` where `b` is the column [`fused_fill`] would
/// write, without materializing it. Dispatched on [`active_lane`];
/// fused-path contract.
pub fn fused_dot(
    coeffs: &[f64],
    up: &[f64],
    down: &[f64],
    mode: usize,
    b_mode: f64,
    ratio: f64,
    inv_ratio: f64,
) -> f64 {
    match active_lane() {
        Lane::Scalar => fused_dot_scalar(coeffs, up, down, mode, b_mode, ratio, inv_ratio),
        Lane::Avx2 => fused_dot_avx2(coeffs, up, down, mode, b_mode, ratio, inv_ratio),
    }
}

/// Scalar lane of [`fused_dot`]: the original `GTable::eval_fused`
/// two-sided walk with plain summation.
pub fn fused_dot_scalar(
    coeffs: &[f64],
    up: &[f64],
    down: &[f64],
    mode: usize,
    b_mode: f64,
    ratio: f64,
    inv_ratio: f64,
) -> f64 {
    let n = coeffs.len() - 1;
    let mut sum = b_mode * coeffs[mode];
    let mut b = b_mode;
    for j in mode..n {
        b = b * up[j] * ratio;
        sum += b * coeffs[j + 1];
    }
    b = b_mode;
    for j in (0..mode).rev() {
        b = b * down[j] * inv_ratio;
        sum += b * coeffs[j];
    }
    sum
}

/// AVX2 + FMA lane of [`fused_dot`]: prefix-product chunks with an FMA
/// dot accumulator. Falls back to scalar off-AVX2 hosts.
pub fn fused_dot_avx2(
    coeffs: &[f64],
    up: &[f64],
    down: &[f64],
    mode: usize,
    b_mode: f64,
    ratio: f64,
    inv_ratio: f64,
) -> f64 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() {
        // SAFETY: AVX2 + FMA runtime-checked; `up`/`down` have length
        // ≥ n = coeffs.len() − 1 by the kernel layouts.
        return unsafe { avx2::fused_dot(coeffs, up, down, mode, b_mode, ratio, inv_ratio) };
    }
    fused_dot_scalar(coeffs, up, down, mode, b_mode, ratio, inv_ratio)
}

// ---------------------------------------------------------------------------
// Poisson–binomial convolution step (bit-identical lanes)
// ---------------------------------------------------------------------------

/// One in-place Bernoulli convolution step (fold `Bernoulli(p)` into a
/// `count`-coin PMF). Dispatched on [`active_lane`]; **bit-identical**
/// across lanes — see the module docs.
pub fn convolve_step(pmf: &mut [f64], count: usize, p: f64) {
    match active_lane() {
        Lane::Scalar => convolve_step_scalar(pmf, count, p),
        Lane::Avx2 => convolve_step_avx2(pmf, count, p),
    }
}

/// Scalar lane of [`convolve_step`]: the original downward recurrence.
pub fn convolve_step_scalar(pmf: &mut [f64], count: usize, p: f64) {
    debug_assert!(pmf.len() >= count + 2);
    for j in (0..=count + 1).rev() {
        let stay = if j <= count { pmf[j] * (1.0 - p) } else { 0.0 };
        let step = if j > 0 { pmf[j - 1] * p } else { 0.0 };
        pmf[j] = stay + step;
    }
}

/// AVX2 lane of [`convolve_step`]. Deliberately **without FMA**: each
/// element is `pmf[j]·(1−p) + pmf[j−1]·p` with the same two roundings
/// as the scalar lane, so the lanes agree bit-for-bit (asserted by the
/// seam tests). Falls back to scalar off-AVX2 hosts.
pub fn convolve_step_avx2(pmf: &mut [f64], count: usize, p: f64) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() {
        debug_assert!(pmf.len() >= count + 2);
        // SAFETY: AVX2 runtime-checked; buffer length asserted above
        // (callers guarantee `pmf.len() ≥ count + 2`).
        unsafe { avx2::convolve_step(pmf, count, p) };
        return;
    }
    convolve_step_scalar(pmf, count, p);
}

// ---------------------------------------------------------------------------
// Reference Bernstein tile (bit-identical lanes)
// ---------------------------------------------------------------------------

/// Points one pass of the reference tile evaluates: two interleaved
/// 4-wide AVX2 groups, one point per f64 slot.
pub const REF_LANES: usize = 8;

/// Per-slot seeds of one reference pass over [`REF_LANES`] interior
/// points `q ∈ (0, 1)`: the PMF's mode index and value at the mode (the
/// scalar seed of `GTable::eval_with`, computed outside this module) and
/// the walk ratio `q/(1 − q)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefSeeds {
    /// Mode index of each slot's PMF (at most the degree `n`).
    pub modes: [usize; REF_LANES],
    /// PMF value at each slot's mode.
    pub b_modes: [f64; REF_LANES],
    /// Each slot's ratio `q/(1 − q)`.
    pub ratios: [f64; REF_LANES],
}

/// Scalar lane of the reference walk: fill `lanes[j·8 + l]`, `j = 0..=n`,
/// with slot `l`'s degree-`n` binomial PMF, walking up and down from the
/// seeded mode with exactly the per-point reference operations
/// (`pmf·(n−j)/(j+1)·ratio` up, `pmf·(j+1)/(n−j)/ratio` down).
/// `lanes` must hold at least `8·(n + 1)` values and every mode must be
/// at most `n`.
pub fn ref_walk8_scalar(lanes: &mut [f64], n: usize, seeds: &RefSeeds) {
    for l in 0..REF_LANES {
        let (mode, ratio) = (seeds.modes[l], seeds.ratios[l]);
        let at = |j: usize| j * REF_LANES + l;
        lanes[at(mode)] = seeds.b_modes[l];
        for j in mode..n {
            lanes[at(j + 1)] = lanes[at(j)] * ((n - j) as f64) / ((j + 1) as f64) * ratio;
        }
        for j in (0..mode).rev() {
            lanes[at(j)] = lanes[at(j + 1)] * ((j + 1) as f64) / ((n - j) as f64) / ratio;
        }
    }
}

/// AVX2 lane of [`ref_walk8_scalar`], **bit-identical** to it: both
/// groups step every slot at once, and a per-slot mask leaves a slot at
/// its seed until the walk reaches its mode. Plain mul/div, no FMA.
/// Falls back to the scalar lane off AVX2 hosts, and when `lanes` is
/// too short or a mode exceeds `n`.
pub fn ref_walk8_avx2(lanes: &mut [f64], n: usize, seeds: &RefSeeds) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available()
        && lanes.len() >= REF_LANES * (n + 1)
        && seeds.modes.iter().all(|&mode| mode <= n)
    {
        // SAFETY: AVX2 runtime-checked; every access is to
        // `lanes[0 .. 8·(n+1)]`, in bounds by the length and mode checks
        // above. Every slot the walk reads was written earlier in this
        // call, so no value survives from an earlier call: the upward
        // pass carries each slot in registers and writes rows `lo ..= n`
        // (`lo` the lowest mode), and the downward pass reads back (to
        // keep a slot already at or past its mode) only rows `≥ lo`.
        unsafe { avx2::ref_walk8(lanes, n, seeds) };
        return;
    }
    ref_walk8_scalar(lanes, n, seeds);
}

/// Scalar lane of the reference dot: for each slot `l`, the Kahan sum
/// over `j = 0..coeffs.len()` of `lanes[j·8 + l]·coeffs[j]`, in index
/// order — the reference row dot of `GTable::eval_with`. `lanes` must
/// hold at least `8·coeffs.len()` values.
pub fn ref_dot8_scalar(lanes: &[f64], coeffs: &[f64]) -> [f64; REF_LANES] {
    let mut acc = [crate::numerics::Kahan::new(); REF_LANES];
    for (column, &c) in lanes.chunks_exact(REF_LANES).zip(coeffs) {
        for (slot, &b) in acc.iter_mut().zip(column) {
            slot.push(b * c);
        }
    }
    acc.map(|slot| slot.value())
}

/// AVX2 lane of [`ref_dot8_scalar`], **bit-identical** to it: the Kahan
/// update `y = x − c; t = s + y; c = (t − s) − y; s = t` runs on all
/// eight slots at once. Falls back to the scalar lane off AVX2 hosts
/// and when `lanes` is too short.
pub fn ref_dot8_avx2(lanes: &[f64], coeffs: &[f64]) -> [f64; REF_LANES] {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2_available() && lanes.len() >= REF_LANES * coeffs.len() {
        // SAFETY: AVX2 runtime-checked; the dot reads
        // `lanes[0 .. 8·coeffs.len()]`, in bounds by the check above.
        return unsafe { avx2::ref_dot8(lanes, coeffs) };
    }
    ref_dot8_scalar(lanes, coeffs)
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2 {
    use super::{RefSeeds, GEMV_BLOCK, REF_LANES};
    use core::arch::x86_64::*;

    /// In-register prefix product of a 4-lane factor vector:
    /// `[f0, f0·f1, f0·f1·f2, f0·f1·f2·f3]`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn cumprod4(f: __m256d) -> __m256d {
        let ones = _mm256_set1_pd(1.0);
        // [1, f0, f1, f2]
        let shifted = _mm256_permute4x64_pd(f, 0b10_01_00_00);
        let s1 = _mm256_blend_pd(shifted, ones, 0b0001);
        // [f0, f0f1, f1f2, f2f3]
        let p1 = _mm256_mul_pd(f, s1);
        // [1, 1, f0, f0f1]
        let s2 = _mm256_permute2f128_pd(ones, p1, 0x20);
        _mm256_mul_pd(p1, s2)
    }

    /// Reverse the four lanes: `[v3, v2, v1, v0]`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn reverse4(v: __m256d) -> __m256d {
        _mm256_permute4x64_pd(v, 0b00_01_10_11)
    }

    /// Spill a vector to an array (lane extraction / ordered horizontal
    /// reduction without shuffle gymnastics).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn to_array(v: __m256d) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), v);
        out
    }

    /// # Safety
    /// AVX2 + FMA must be available; `matrix` holds
    /// `rows.div_ceil(4)·4 × cols` elements, `basis` holds `cols`,
    /// `out` holds ≥ `rows`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemv_block4(
        matrix: &[f64],
        cols: usize,
        rows: usize,
        basis: &[f64],
        out: &mut [f64],
    ) {
        let bp = basis.as_ptr();
        let mut r = 0;
        while r < rows {
            let row0 = matrix.as_ptr().add(r * cols);
            let row1 = row0.add(cols);
            let row2 = row1.add(cols);
            let row3 = row2.add(cols);
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut acc2 = _mm256_setzero_pd();
            let mut acc3 = _mm256_setzero_pd();
            let mut j = 0;
            while j + 4 <= cols {
                let b = _mm256_loadu_pd(bp.add(j));
                acc0 = _mm256_fmadd_pd(b, _mm256_loadu_pd(row0.add(j)), acc0);
                acc1 = _mm256_fmadd_pd(b, _mm256_loadu_pd(row1.add(j)), acc1);
                acc2 = _mm256_fmadd_pd(b, _mm256_loadu_pd(row2.add(j)), acc2);
                acc3 = _mm256_fmadd_pd(b, _mm256_loadu_pd(row3.add(j)), acc3);
                j += 4;
            }
            let mut sums = [0.0f64; GEMV_BLOCK];
            for (lane, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                let t = to_array(acc);
                sums[lane] = (t[0] + t[1]) + (t[2] + t[3]);
            }
            for jj in j..cols {
                let b = *bp.add(jj);
                sums[0] += b * *row0.add(jj);
                sums[1] += b * *row1.add(jj);
                sums[2] += b * *row2.add(jj);
                sums[3] += b * *row3.add(jj);
            }
            for (lane, &s) in sums.iter().enumerate() {
                if r + lane < rows {
                    out[r + lane] = s;
                }
            }
            r += GEMV_BLOCK;
        }
    }

    /// # Safety
    /// AVX2 + FMA must be available; `up`/`down` hold ≥ `basis.len()−1`
    /// factors.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fused_fill(
        basis: &mut [f64],
        up: &[f64],
        down: &[f64],
        mode: usize,
        b_mode: f64,
        ratio: f64,
        inv_ratio: f64,
    ) {
        let n = basis.len() - 1;
        basis[mode] = b_mode;
        // Upward: basis[j+1] = basis[j] · up[j] · ratio, j = mode..n.
        let rv = _mm256_set1_pd(ratio);
        let mut b = b_mode;
        let mut j = mode;
        while j + 4 <= n {
            let f = _mm256_mul_pd(_mm256_loadu_pd(up.as_ptr().add(j)), rv);
            let c = cumprod4(f);
            let bv = _mm256_mul_pd(_mm256_set1_pd(b), c);
            _mm256_storeu_pd(basis.as_mut_ptr().add(j + 1), bv);
            b = to_array(bv)[3];
            j += 4;
        }
        while j < n {
            b = b * up[j] * ratio;
            basis[j + 1] = b;
            j += 1;
        }
        // Downward: basis[j] = basis[j+1] · down[j] · inv_ratio,
        // j = mode−1..0, processed in descending 4-chunks.
        let iv = _mm256_set1_pd(inv_ratio);
        b = b_mode;
        let mut hi = mode; // next write is basis[hi - 1]
        while hi >= 4 {
            // Factors for indices hi−1, hi−2, hi−3, hi−4 in walk order.
            let f_mem = _mm256_mul_pd(_mm256_loadu_pd(down.as_ptr().add(hi - 4)), iv);
            let c = cumprod4(reverse4(f_mem));
            let bv_desc = _mm256_mul_pd(_mm256_set1_pd(b), c);
            // Back to memory order for the store at basis[hi−4..hi].
            _mm256_storeu_pd(basis.as_mut_ptr().add(hi - 4), reverse4(bv_desc));
            b = to_array(bv_desc)[3];
            hi -= 4;
        }
        while hi > 0 {
            b = b * down[hi - 1] * inv_ratio;
            basis[hi - 1] = b;
            hi -= 1;
        }
    }

    /// # Safety
    /// AVX2 + FMA must be available; `up`/`down` hold ≥
    /// `coeffs.len()−1` factors.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fused_dot(
        coeffs: &[f64],
        up: &[f64],
        down: &[f64],
        mode: usize,
        b_mode: f64,
        ratio: f64,
        inv_ratio: f64,
    ) -> f64 {
        let n = coeffs.len() - 1;
        let mut sum = b_mode * coeffs[mode];
        // Upward walk with the dot fused in.
        let rv = _mm256_set1_pd(ratio);
        let mut acc = _mm256_setzero_pd();
        let mut b = b_mode;
        let mut j = mode;
        while j + 4 <= n {
            let f = _mm256_mul_pd(_mm256_loadu_pd(up.as_ptr().add(j)), rv);
            let c = cumprod4(f);
            let bv = _mm256_mul_pd(_mm256_set1_pd(b), c);
            acc = _mm256_fmadd_pd(bv, _mm256_loadu_pd(coeffs.as_ptr().add(j + 1)), acc);
            b = to_array(bv)[3];
            j += 4;
        }
        while j < n {
            b = b * up[j] * ratio;
            sum += b * coeffs[j + 1];
            j += 1;
        }
        // Downward walk.
        let iv = _mm256_set1_pd(inv_ratio);
        b = b_mode;
        let mut hi = mode;
        while hi >= 4 {
            let f_mem = _mm256_mul_pd(_mm256_loadu_pd(down.as_ptr().add(hi - 4)), iv);
            let c = cumprod4(reverse4(f_mem));
            let bv_desc = _mm256_mul_pd(_mm256_set1_pd(b), c);
            acc = _mm256_fmadd_pd(
                reverse4(bv_desc),
                _mm256_loadu_pd(coeffs.as_ptr().add(hi - 4)),
                acc,
            );
            b = to_array(bv_desc)[3];
            hi -= 4;
        }
        while hi > 0 {
            b = b * down[hi - 1] * inv_ratio;
            sum += b * coeffs[hi - 1];
            hi -= 1;
        }
        let t = to_array(acc);
        sum + ((t[0] + t[1]) + (t[2] + t[3]))
    }

    /// # Safety
    /// AVX2 must be available; `lanes.len() ≥ 8·(n + 1)` and every mode
    /// is at most `n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ref_walk8(lanes: &mut [f64], n: usize, seeds: &RefSeeds) {
        let modes = seeds.modes.map(|m| m as f64);
        let (lo, hi) = seeds.modes.iter().fold((n, 0), |(lo, hi), &m| (lo.min(m), hi.max(m)));
        let base = lanes.as_mut_ptr();
        let (mode_a, mode_b) =
            (_mm256_loadu_pd(modes.as_ptr()), _mm256_loadu_pd(modes.as_ptr().add(4)));
        let seed_a = _mm256_loadu_pd(seeds.b_modes.as_ptr());
        let seed_b = _mm256_loadu_pd(seeds.b_modes.as_ptr().add(4));
        let ratio_a = _mm256_loadu_pd(seeds.ratios.as_ptr());
        let ratio_b = _mm256_loadu_pd(seeds.ratios.as_ptr().add(4));
        // Upward: row `lo` holds every slot's seed, and a slot keeps its
        // seed until `j` reaches its mode, so row `mode` holds the seed
        // and the rows above it the scalar `pmf·(n−j)/(j+1)·ratio` walk.
        let (mut cur_a, mut cur_b) = (seed_a, seed_b);
        _mm256_storeu_pd(base.add(lo * REF_LANES), cur_a);
        _mm256_storeu_pd(base.add(lo * REF_LANES + 4), cur_b);
        for j in lo..n {
            let jv = _mm256_set1_pd(j as f64);
            let num = _mm256_set1_pd((n - j) as f64);
            let den = _mm256_set1_pd((j + 1) as f64);
            let step_a = _mm256_mul_pd(_mm256_div_pd(_mm256_mul_pd(cur_a, num), den), ratio_a);
            let step_b = _mm256_mul_pd(_mm256_div_pd(_mm256_mul_pd(cur_b, num), den), ratio_b);
            cur_a = _mm256_blendv_pd(cur_a, step_a, _mm256_cmp_pd(jv, mode_a, _CMP_GE_OQ));
            cur_b = _mm256_blendv_pd(cur_b, step_b, _mm256_cmp_pd(jv, mode_b, _CMP_GE_OQ));
            _mm256_storeu_pd(base.add((j + 1) * REF_LANES), cur_a);
            _mm256_storeu_pd(base.add((j + 1) * REF_LANES + 4), cur_b);
        }
        // Downward from each slot's seed: `pmf·(j+1)/(n−j)/ratio` below
        // the mode. A slot at or past its mode keeps the row the upward
        // pass wrote; below `lo` every slot is below its mode.
        let (mut cur_a, mut cur_b) = (seed_a, seed_b);
        for j in (0..hi).rev() {
            let jv = _mm256_set1_pd(j as f64);
            let num = _mm256_set1_pd((j + 1) as f64);
            let den = _mm256_set1_pd((n - j) as f64);
            let step_a = _mm256_div_pd(_mm256_div_pd(_mm256_mul_pd(cur_a, num), den), ratio_a);
            let step_b = _mm256_div_pd(_mm256_div_pd(_mm256_mul_pd(cur_b, num), den), ratio_b);
            let below_a = _mm256_cmp_pd(jv, mode_a, _CMP_LT_OQ);
            let below_b = _mm256_cmp_pd(jv, mode_b, _CMP_LT_OQ);
            cur_a = _mm256_blendv_pd(cur_a, step_a, below_a);
            cur_b = _mm256_blendv_pd(cur_b, step_b, below_b);
            let row = base.add(j * REF_LANES);
            if j >= lo {
                let kept_a = _mm256_loadu_pd(row);
                let kept_b = _mm256_loadu_pd(row.add(4));
                _mm256_storeu_pd(row, _mm256_blendv_pd(kept_a, cur_a, below_a));
                _mm256_storeu_pd(row.add(4), _mm256_blendv_pd(kept_b, cur_b, below_b));
            } else {
                _mm256_storeu_pd(row, cur_a);
                _mm256_storeu_pd(row.add(4), cur_b);
            }
        }
    }

    /// # Safety
    /// AVX2 must be available; `lanes.len() ≥ 8·coeffs.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ref_dot8(lanes: &[f64], coeffs: &[f64]) -> [f64; REF_LANES] {
        let base = lanes.as_ptr();
        let (mut sum_a, mut comp_a) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut sum_b, mut comp_b) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm256_set1_pd(c);
            let y_a =
                _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(base.add(j * REF_LANES)), cv), comp_a);
            let y_b = _mm256_sub_pd(
                _mm256_mul_pd(_mm256_loadu_pd(base.add(j * REF_LANES + 4)), cv),
                comp_b,
            );
            let t_a = _mm256_add_pd(sum_a, y_a);
            let t_b = _mm256_add_pd(sum_b, y_b);
            comp_a = _mm256_sub_pd(_mm256_sub_pd(t_a, sum_a), y_a);
            comp_b = _mm256_sub_pd(_mm256_sub_pd(t_b, sum_b), y_b);
            sum_a = t_a;
            sum_b = t_b;
        }
        let mut out = [0.0f64; REF_LANES];
        _mm256_storeu_pd(out.as_mut_ptr(), sum_a);
        _mm256_storeu_pd(out.as_mut_ptr().add(4), sum_b);
        out
    }

    /// # Safety
    /// AVX2 must be available; `pmf.len() ≥ count + 2`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn convolve_step(pmf: &mut [f64], count: usize, p: f64) {
        // Top boundary (j = count + 1): stay term is zero.
        let mut j = count + 1;
        pmf[j] = pmf[j - 1] * p;
        j -= 1;
        // Vector middle: elements [j−3 ..= j] need j ≤ count (stay term
        // reads pmf[j]) and j ≥ 4 (step term reads pmf[j−4] for the
        // lowest lane). Plain mul/mul/add — NOT fmadd — so each element
        // gets the scalar lane's exact two roundings.
        let pv = _mm256_set1_pd(p);
        let sv = _mm256_set1_pd(1.0 - p);
        let base = pmf.as_mut_ptr();
        while j >= 4 {
            let stay = _mm256_loadu_pd(base.add(j - 3));
            let step = _mm256_loadu_pd(base.add(j - 4));
            let res = _mm256_add_pd(_mm256_mul_pd(stay, sv), _mm256_mul_pd(step, pv));
            _mm256_storeu_pd(base.add(j - 3), res);
            j -= 4;
        }
        // Scalar bottom (j ..= 0), including the j = 0 no-step boundary.
        loop {
            let stay = pmf[j] * (1.0 - p);
            let step = if j > 0 { pmf[j - 1] * p } else { 0.0 };
            pmf[j] = stay + step;
            if j == 0 {
                return;
            }
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_name_is_stable() {
        assert_eq!(Lane::Scalar.name(), "scalar");
        assert_eq!(Lane::Avx2.name(), "avx2");
        // Whatever the host picks, the choice is cached and consistent.
        assert_eq!(active_lane(), active_lane());
    }

    #[test]
    fn convolve_lanes_are_bit_identical() {
        // Deterministic ugly probabilities; bitwise comparison per step.
        let mut a = vec![0.0f64; 34];
        let mut b = vec![0.0f64; 34];
        a[0] = 1.0;
        b[0] = 1.0;
        for i in 0..32usize {
            let p = ((i as f64) * 0.619_f64).fract();
            convolve_step_scalar(&mut a, i, p);
            convolve_step_avx2(&mut b, i, p);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "coin {i}");
            }
        }
    }

    #[test]
    fn gemv_lanes_agree_within_contract() {
        let rows = 7usize;
        let cols = 19usize;
        let padded = rows.div_ceil(GEMV_BLOCK) * GEMV_BLOCK;
        let mut matrix = vec![0.0f64; padded * cols];
        for (i, m) in matrix.iter_mut().enumerate().take(rows * cols) {
            *m = ((i as f64) * 0.37).sin();
        }
        let basis: Vec<f64> = (0..cols).map(|j| ((j as f64) * 0.51).cos()).collect();
        let mut out_s = vec![0.0f64; rows];
        let mut out_v = vec![0.0f64; rows];
        gemv_block4_scalar(&matrix, cols, rows, &basis, &mut out_s);
        gemv_block4_avx2(&matrix, cols, rows, &basis, &mut out_v);
        for (s, v) in out_s.iter().zip(out_v.iter()) {
            assert!((s - v).abs() <= 1e-13 * s.abs().max(1.0), "{s} vs {v}");
        }
    }
}
