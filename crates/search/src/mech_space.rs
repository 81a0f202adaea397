//! Parameterized congestion-mechanism families and the box-subdivision
//! geometry the mechanism-space search explores.
//!
//! Three families, each mapping a low-dimensional parameter vector to a
//! coefficient table `[C(1), …, C(k)]` (always `C(1) = 1`, always
//! non-increasing, always finite — the invariants `TableCongestion`
//! demands and the crate's proptests pin):
//!
//! * **piecewise** `(t, c₁, d)` — `C(ℓ) = c₁` for `2 ≤ ℓ ≤ t`, dropping
//!   to `c₁ − d` beyond. Contains the paper's distinguished policies as
//!   exact points: `c₁ = 0, d = 0` is *exclusive*, `t = k, d = 0` is
//!   *two-level:c₁*.
//! * **power-law** `(β)` — `C(ℓ) = ℓ^{−β}`; `β = 1` is *sharing* (up to
//!   `powf` rounding).
//! * **budget-normed** `(B, γ)` — a tail budget `B` spread over levels
//!   `2..k` proportionally to `ℓ^{−γ}` and clamped to `C(ℓ) ≤ 1`:
//!   `C(ℓ) = min(1, B·ℓ^{−γ} / Σ_{j=2..k} j^{−γ})`.
//!
//! The search space is a forest of axis-aligned parameter boxes
//! ([`ParamBox`]); expanding a node splits its box along the longest
//! (normalized) dimension and evaluates the children's center points as
//! one batched kernel tile.

use dispersal_core::{Error, Result};

/// A parameterized congestion family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechFamily {
    /// `(t, c1, d)`: plateau `c1` through level `t`, then `c1 − d`.
    Piecewise,
    /// `(beta)`: `C(ℓ) = ℓ^{−β}`.
    PowerLaw,
    /// `(B, gamma)`: normalized `ℓ^{−γ}` tail scaled to budget `B`.
    BudgetNormed,
}

impl MechFamily {
    /// Number of parameters of this family.
    pub fn dims(&self) -> usize {
        match self {
            MechFamily::Piecewise => 3,
            MechFamily::PowerLaw => 1,
            MechFamily::BudgetNormed => 2,
        }
    }

    /// Stable identifier used in specs, CSVs, and certificates.
    pub fn label(&self) -> &'static str {
        match self {
            MechFamily::Piecewise => "piecewise",
            MechFamily::PowerLaw => "power-law",
            MechFamily::BudgetNormed => "budget-normed",
        }
    }
}

/// One concrete mechanism: a family plus a parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct MechPoint {
    /// The family.
    pub family: MechFamily,
    /// Parameters, in the family's canonical order.
    pub params: Vec<f64>,
}

impl MechPoint {
    /// Validate dimensionality and finiteness.
    pub fn validate(&self) -> Result<()> {
        if self.params.len() != self.family.dims() {
            return Err(Error::InvalidArgument(format!(
                "{} expects {} parameters, got {}",
                self.family.label(),
                self.family.dims(),
                self.params.len()
            )));
        }
        for (index, &value) in self.params.iter().enumerate() {
            if !value.is_finite() {
                return Err(Error::InvalidValue { index, value });
            }
        }
        Ok(())
    }

    /// Human/machine-readable spec, e.g. `piecewise:t=4,c1=0.25,d=0.1`.
    pub fn spec(&self) -> String {
        match self.family {
            MechFamily::Piecewise => format!(
                "piecewise:t={},c1={},d={}",
                round_level(self.params[0]),
                self.params[1],
                self.params[2]
            ),
            MechFamily::PowerLaw => format!("power-law:beta={}", self.params[0]),
            MechFamily::BudgetNormed => {
                format!("budget-normed:B={},gamma={}", self.params[0], self.params[1])
            }
        }
    }

    /// Expand into the coefficient table `[C(1), …, C(k)]`.
    ///
    /// Guaranteed (and proptested): `C(1) = 1`, every entry finite, and
    /// the table non-increasing — so the table is always accepted by
    /// `TableCongestion`/`GBatch` regardless of where in its box the
    /// parameter point sits.
    pub fn table(&self, k: usize) -> Result<Vec<f64>> {
        self.validate()?;
        if k == 0 {
            return Err(Error::InvalidPlayerCount { k });
        }
        let mut table = Vec::with_capacity(k);
        table.push(1.0);
        match self.family {
            MechFamily::Piecewise => {
                let t = round_level(self.params[0]);
                let c1 = self.params[1].min(1.0);
                let d = self.params[2].max(0.0);
                for ell in 2..=k {
                    table.push(if ell <= t { c1 } else { c1 - d });
                }
            }
            MechFamily::PowerLaw => {
                let beta = self.params[0].max(0.0);
                for ell in 2..=k {
                    table.push((ell as f64).powf(-beta));
                }
            }
            MechFamily::BudgetNormed => {
                let budget = self.params[0].max(0.0);
                let gamma = self.params[1].max(0.0);
                let norm: f64 = (2..=k).map(|j| (j as f64).powf(-gamma)).sum();
                for ell in 2..=k {
                    let share = if norm > 0.0 { (ell as f64).powf(-gamma) / norm } else { 0.0 };
                    table.push((budget * share).min(1.0));
                }
            }
        }
        Ok(table)
    }
}

/// Round a continuous "level" parameter to its plateau length `≥ 2`.
fn round_level(t: f64) -> usize {
    t.round().max(2.0) as usize
}

/// An axis-aligned box of parameters within one family.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBox {
    /// The family the box parameterizes.
    pub family: MechFamily,
    /// Per-dimension lower bounds.
    pub lo: Vec<f64>,
    /// Per-dimension upper bounds (`lo[i] ≤ hi[i]`; equality makes the
    /// box a single anchor point).
    pub hi: Vec<f64>,
}

impl ParamBox {
    /// Construct, validating shape and ordering.
    pub fn new(family: MechFamily, lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.len() != family.dims() || hi.len() != family.dims() {
            return Err(Error::InvalidArgument(format!(
                "{} box needs {} bounds, got lo={} hi={}",
                family.label(),
                family.dims(),
                lo.len(),
                hi.len()
            )));
        }
        for (index, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            if !l.is_finite() {
                return Err(Error::InvalidValue { index, value: l });
            }
            if !h.is_finite() || h < l {
                return Err(Error::InvalidValue { index, value: h });
            }
        }
        Ok(Self { family, lo, hi })
    }

    /// A zero-volume box anchored at `point` — used to seed the search
    /// with exact catalog-equivalent mechanisms.
    pub fn anchor(point: &MechPoint) -> Result<Self> {
        point.validate()?;
        Self::new(point.family, point.params.clone(), point.params.clone())
    }

    /// The default search box for `family` at player count `k`.
    pub fn root(family: MechFamily, k: usize) -> Result<Self> {
        match family {
            MechFamily::Piecewise => {
                Self::new(family, vec![2.0, -0.5, 0.0], vec![k.max(2) as f64, 1.0, 1.0])
            }
            MechFamily::PowerLaw => Self::new(family, vec![0.0], vec![6.0]),
            MechFamily::BudgetNormed => Self::new(family, vec![0.0, 0.0], vec![2.0, 3.0]),
        }
    }

    /// The box's center point — the representative the search scores.
    pub fn center(&self) -> MechPoint {
        let params = self.lo.iter().zip(self.hi.iter()).map(|(&l, &h)| l + 0.5 * (h - l)).collect();
        MechPoint { family: self.family, params }
    }

    /// Normalized edge lengths (relative to the family's root box), so
    /// "longest dimension" is meaningful across differently-scaled axes.
    fn normalized_edges(&self, k: usize) -> Result<Vec<f64>> {
        let root = ParamBox::root(self.family, k)?;
        Ok(self
            .lo
            .iter()
            .zip(self.hi.iter())
            .zip(root.lo.iter().zip(root.hi.iter()))
            .map(|((&l, &h), (&rl, &rh))| {
                let scale = (rh - rl).max(1e-12);
                (h - l) / scale
            })
            .collect())
    }

    /// Largest normalized edge — the search's refinement-progress measure.
    pub fn diameter(&self, k: usize) -> Result<f64> {
        Ok(self.normalized_edges(k)?.iter().cloned().fold(0.0, f64::max))
    }

    /// Split into `children ≥ 2` slabs along the longest normalized
    /// dimension (deterministic: ties break to the lowest axis index).
    /// A zero-volume anchor box returns no children.
    pub fn split(&self, children: usize, k: usize) -> Result<Vec<ParamBox>> {
        let edges = self.normalized_edges(k)?;
        let mut axis = 0usize;
        for (i, &e) in edges.iter().enumerate() {
            if e > edges[axis] {
                axis = i;
            }
        }
        if edges[axis] <= 0.0 {
            return Ok(Vec::new());
        }
        let n = children.max(2);
        let lo = self.lo[axis];
        let width = (self.hi[axis] - lo) / n as f64;
        (0..n)
            .map(|i| {
                let mut child_lo = self.lo.clone();
                let mut child_hi = self.hi.clone();
                child_lo[axis] = lo + i as f64 * width;
                child_hi[axis] =
                    if i + 1 == n { self.hi[axis] } else { lo + (i + 1) as f64 * width };
                ParamBox::new(self.family, child_lo, child_hi)
            })
            .collect()
    }
}

/// The root forest the search starts from: one full-range box per family
/// plus zero-volume anchors at the catalog-equivalent parameter points
/// (exclusive, the two-level ladder, the catalog's power-law exponents).
/// The anchors make the hand-written catalog *representable*: the search
/// can never score below the best catalog mechanism it can express.
pub fn root_boxes(k: usize) -> Result<Vec<ParamBox>> {
    let kf = k.max(2) as f64;
    let mut roots = vec![
        ParamBox::root(MechFamily::Piecewise, k)?,
        ParamBox::root(MechFamily::PowerLaw, k)?,
        ParamBox::root(MechFamily::BudgetNormed, k)?,
    ];
    // exclusive == piecewise(t=k, c1=0, d=0)
    roots.push(ParamBox::anchor(&MechPoint {
        family: MechFamily::Piecewise,
        params: vec![kf, 0.0, 0.0],
    })?);
    // two-level:c == piecewise(t=k, c1=c, d=0)
    for c in [-0.5, -0.25, 0.25, 0.5] {
        roots.push(ParamBox::anchor(&MechPoint {
            family: MechFamily::Piecewise,
            params: vec![kf, c, 0.0],
        })?);
    }
    // catalog power-law entries (sharing is beta = 1 up to powf rounding)
    for beta in [0.5, 1.0, 2.0] {
        roots.push(ParamBox::anchor(&MechPoint {
            family: MechFamily::PowerLaw,
            params: vec![beta],
        })?);
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_core::policy::{validate_congestion, Exclusive, TableCongestion, TwoLevel};

    #[test]
    fn piecewise_anchor_reproduces_exclusive_bits() {
        let k = 6;
        let anchor = MechPoint { family: MechFamily::Piecewise, params: vec![k as f64, 0.0, 0.0] };
        let table = anchor.table(k).unwrap();
        let reference = validate_congestion(&Exclusive, k).unwrap();
        assert_eq!(table.len(), reference.len());
        for (a, b) in table.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn piecewise_anchor_reproduces_two_level_bits() {
        let k = 5;
        for c in [-0.5, 0.25] {
            let anchor =
                MechPoint { family: MechFamily::Piecewise, params: vec![k as f64, c, 0.0] };
            let table = anchor.table(k).unwrap();
            let reference = validate_congestion(&TwoLevel { c }, k).unwrap();
            for (a, b) in table.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn every_family_table_is_accepted_by_table_congestion() {
        let k = 8;
        for bx in root_boxes(k).unwrap() {
            let table = bx.center().table(k).unwrap();
            TableCongestion::new(table, bx.center().spec()).unwrap();
        }
    }

    #[test]
    fn split_covers_the_box_and_anchors_are_terminal() {
        let k = 8;
        let root = ParamBox::root(MechFamily::Piecewise, k).unwrap();
        let children = root.split(4, k).unwrap();
        assert_eq!(children.len(), 4);
        // The split axis is the normalized-longest: children partition it.
        assert_eq!(children[0].lo, root.lo);
        assert_eq!(children[3].hi, root.hi);
        let anchor =
            ParamBox::anchor(&MechPoint { family: MechFamily::PowerLaw, params: vec![1.0] })
                .unwrap();
        assert!(anchor.split(4, k).unwrap().is_empty());
        assert_eq!(anchor.diameter(k).unwrap(), 0.0);
    }

    #[test]
    fn budget_normed_is_monotone_and_clamped() {
        let k = 10;
        let point = MechPoint { family: MechFamily::BudgetNormed, params: vec![1.8, 0.7] };
        let table = point.table(k).unwrap();
        assert_eq!(table[0], 1.0);
        for w in table.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "not monotone: {table:?}");
        }
        assert!(table.iter().all(|v| v.is_finite() && *v <= 1.0));
    }

    #[test]
    fn validation_rejects_bad_points_and_boxes() {
        let bad = MechPoint { family: MechFamily::PowerLaw, params: vec![f64::NAN] };
        assert!(bad.table(4).is_err());
        let wrong_dims = MechPoint { family: MechFamily::Piecewise, params: vec![1.0] };
        assert!(wrong_dims.validate().is_err());
        assert!(ParamBox::new(MechFamily::PowerLaw, vec![2.0], vec![1.0]).is_err());
        let point = MechPoint { family: MechFamily::PowerLaw, params: vec![1.0] };
        assert!(point.table(0).is_err());
    }
}
