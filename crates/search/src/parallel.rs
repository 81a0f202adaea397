//! Shared-tree parallel best-first search over mechanism space.
//!
//! The searcher grows one shared tree of [`ParamBox`] nodes. Each
//! iteration selects a **wave** of up to `wave` frontier nodes by
//! best-first priority, expands it, and merges the children back in wave
//! order. One expansion = one policy-major `GBatch` tile: the children of
//! a node are evaluated as a single batched response matrix (one shared
//! Bernstein basis column for the whole sibling set). The tiles are built
//! in wave order on the calling thread; then **one** fan-out on the
//! persistent work-stealing pool (`dispersal_sim::engine::par_map`) scores
//! every child of the wave as its own item, exactly, with
//! [`dispersal_mech::scoring::score_table`] — whose ESS probe computes
//! each mutant's ledger levels only as far as its verdict needs. The root
//! boxes are tiled and fanned out the same way. The welfare optimum, the
//! SPoA numerator every candidate shares, is computed once per search.
//!
//! **Virtual loss** (the holmes `ParallelMonteCarloSearchServer` trick,
//! adapted to waves): when a node is claimed for the current wave, its
//! parent takes a temporary score penalty, pushing later picks in the
//! *same* wave away from the claimed node's siblings and into different
//! subtrees — workers diverge without locking the frontier. Losses are
//! cleared at the wave barrier, so they shape concurrency, never totals.
//!
//! **Determinism contract** (pinned by `determinism_mech_search` tests):
//! selection is a sequential scan with total tie-breaks (objective score,
//! then batched response mass, then lowest node id), scored children come
//! back in submission order (`par_map` is order-preserving) and regroup by
//! parent, and per-node ESS seeds derive only from `(seed, parent id,
//! child index)` — so the certificate is bit-identical for a fixed seed at
//! any `RAYON_NUM_THREADS`, including 1, 2 and 8.

use crate::mech_space::{root_boxes, MechPoint, ParamBox};
use dispersal_core::kernel::{unit_grid, GBatch};
use dispersal_core::optimal::optimal_coverage;
use dispersal_core::value::ValueProfile;
use dispersal_core::{Error, Result};
use dispersal_mech::scoring::{score_table, MechScore};
use dispersal_sim::engine;
use std::collections::BTreeMap;

/// What the search maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximize equilibrium welfare (value-weighted coverage).
    Welfare,
    /// Minimize the selfish price of anarchy.
    Spoa,
}

impl Objective {
    /// Parse `"welfare"` / `"spoa"`.
    pub fn parse(spec: &str) -> Result<Self> {
        match spec {
            "welfare" => Ok(Objective::Welfare),
            "spoa" => Ok(Objective::Spoa),
            other => {
                Err(Error::InvalidArgument(format!("unknown objective '{other}' (welfare|spoa)")))
            }
        }
    }

    /// Higher-is-better score of a scorecard under this objective.
    fn score(&self, ms: &MechScore) -> f64 {
        match self {
            Objective::Welfare => ms.welfare,
            Objective::Spoa => -ms.spoa,
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Player count the mechanisms are designed for.
    pub k: usize,
    /// Site-value profile welfare is measured against.
    pub profile: ValueProfile,
    /// Objective to optimize (always subject to ESS feasibility when
    /// `ess_mutants > 0`).
    pub objective: Objective,
    /// Expansion budget: total number of tree nodes expanded.
    pub budget: usize,
    /// Wave width: frontier nodes expanded concurrently per iteration.
    pub wave: usize,
    /// Children per expansion (slabs the node's box is split into).
    pub children: usize,
    /// Random mutant strategies probed per candidate for ESS
    /// feasibility; `0` skips the probe (certificates then carry no ESS
    /// guarantee).
    pub ess_mutants: usize,
    /// Master seed; with `budget`, `wave`, `children` it fully
    /// determines the certificate bits.
    pub seed: u64,
}

impl SearchConfig {
    /// Conventional defaults for everything but the game itself.
    pub fn new(k: usize, profile: ValueProfile) -> Self {
        SearchConfig {
            k,
            profile,
            objective: Objective::Welfare,
            budget: 48,
            wave: 4,
            children: 4,
            ess_mutants: 16,
            seed: 42,
        }
    }
}

/// The best-found mechanism with its certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Family spec of the winning point, e.g. `piecewise:t=8,c1=0,d=0`.
    pub spec: String,
    /// Family label.
    pub family: String,
    /// Raw parameter vector.
    pub params: Vec<f64>,
    /// Welfare (equilibrium value-weighted coverage).
    pub welfare: f64,
    /// Coverage of the welfare optimum (shared SPoA numerator).
    pub optimal_coverage: f64,
    /// Selfish price of anarchy.
    pub spoa: f64,
    /// Worst resident-vs-mutant ESS margin over the probed mutants.
    pub ess_margin: f64,
    /// Whether every probed mutant was repelled.
    pub ess_passed: bool,
    /// Id of the tree node that produced the point.
    pub node_id: usize,
}

/// Search result: the certificate plus tree statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Best-found mechanism.
    pub best: Certificate,
    /// Nodes expanded (≤ budget).
    pub expansions: usize,
    /// Candidate mechanisms scored (root bootstrap + children).
    pub evaluations: usize,
    /// Frontier nodes left unexpanded when the budget ran out.
    pub frontier_remaining: usize,
}

/// One node of the shared tree.
#[derive(Debug, Clone)]
struct Node {
    parent: Option<usize>,
    bx: ParamBox,
    /// Objective score of the box center (`-inf` if infeasible).
    score: f64,
    /// Mean batched response `g` over the tile grid — the deterministic
    /// tie-break between equal-score plateau siblings.
    response_mass: f64,
    /// Normalized longest edge; refinement stops below `MIN_DIAMETER`.
    diameter: f64,
}

/// The shared best-first tree: nodes, the unexpanded frontier, and the
/// per-wave virtual-loss ledger.
#[derive(Debug, Default)]
pub struct SharedTree {
    nodes: Vec<Node>,
    frontier: Vec<usize>,
    /// Virtual losses keyed by *parent* id (`usize::MAX` for roots):
    /// claiming a node discounts its siblings for the rest of the wave.
    virtual_loss: BTreeMap<usize, u32>,
}

/// Refinement floor: boxes whose normalized longest edge is below this
/// are scored but never re-expanded.
const MIN_DIAMETER: f64 = 1e-3;
/// Exploration bonus per unit of normalized box diameter, as a fraction
/// of the profile's total value (the welfare scale).
const EXPLORE_BONUS: f64 = 0.02;
/// Virtual-loss penalty per claimed sibling, same scale.
const VIRTUAL_LOSS_PENALTY: f64 = 0.05;

impl SharedTree {
    fn parent_key(&self, id: usize) -> usize {
        self.nodes[id].parent.unwrap_or(usize::MAX)
    }

    /// Effective best-first priority of a frontier node during wave
    /// selection.
    fn priority(&self, id: usize, scale: f64) -> f64 {
        let node = &self.nodes[id];
        let loss = *self.virtual_loss.get(&self.parent_key(id)).unwrap_or(&0);
        node.score + EXPLORE_BONUS * scale * node.diameter
            - VIRTUAL_LOSS_PENALTY * scale * loss as f64
    }

    /// Claim up to `want` nodes for one wave. Deterministic: a
    /// sequential scan picks the maximum `(priority, response_mass,
    /// lowest id)` each time, then charges a virtual loss against the
    /// claimed node's parent so the next pick diverges from its
    /// siblings.
    fn select_wave(&mut self, want: usize, scale: f64) -> Vec<(usize, ParamBox)> {
        let mut wave = Vec::new();
        while wave.len() < want && !self.frontier.is_empty() {
            let mut best_pos = 0usize;
            let mut best_key = (f64::NEG_INFINITY, f64::NEG_INFINITY, usize::MAX);
            for (pos, &id) in self.frontier.iter().enumerate() {
                let key = (self.priority(id, scale), self.nodes[id].response_mass, id);
                // Total order: higher priority, then higher response
                // mass, then *lower* id.
                let better = key.0 > best_key.0
                    || (key.0 == best_key.0
                        && (key.1 > best_key.1 || (key.1 == best_key.1 && key.2 < best_key.2)));
                if better {
                    best_key = key;
                    best_pos = pos;
                }
            }
            let id = self.frontier.remove(best_pos);
            *self.virtual_loss.entry(self.parent_key(id)).or_insert(0) += 1;
            wave.push((id, self.nodes[id].bx.clone()));
        }
        // Wave barrier: losses shaped this wave's divergence only.
        self.virtual_loss.clear();
        wave
    }
}

/// One child of a sibling tile. The serial tile pass fills in everything
/// but `score`; the pool then scores each child as its own item.
struct ChildEval {
    bx: ParamBox,
    point: MechPoint,
    /// The child's row of the sibling tile, `[C(1), …, C(k)]`.
    table: Vec<f64>,
    ess_seed: u64,
    response_mass: f64,
    diameter: f64,
    /// The scorecard; `None` before scoring and for children whose
    /// equilibrium fails to solve (infeasible, still counted).
    score: Option<MechScore>,
}

/// Derive the per-candidate ESS seed from the tree coordinates alone
/// (splitmix64), so scoring is independent of thread schedule.
fn child_seed(seed: u64, parent: usize, child: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul((parent as u64).wrapping_add(1)))
        .wrapping_add(0x632be59bd9b4e019u64.wrapping_mul((child as u64).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Build a sibling set of boxes as **one** policy-major `GBatch` tile:
/// every child is a row, and the response matrix shares one Bernstein
/// basis column per grid point. Each child keeps its row's coefficients
/// for the exact scorer, its mean response, its diameter and the ESS seed
/// of its tree coordinates.
fn tile_boxes(
    cfg: &SearchConfig,
    parent: Option<usize>,
    boxes: Vec<ParamBox>,
) -> Result<Vec<ChildEval>> {
    if boxes.is_empty() {
        return Ok(Vec::new());
    }
    let points: Vec<MechPoint> = boxes.iter().map(ParamBox::center).collect();
    let tables: Result<Vec<Vec<f64>>> = points.iter().map(|p| p.table(cfg.k)).collect();
    let batch = GBatch::from_rows(tables?)?;
    // The batched response tile: one fused pass over all children.
    let qs = unit_grid(RESPONSE_GRID)?;
    let grid = batch.eval_grid(&qs);
    let parent_id = parent.unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(boxes.len());
    for (r, (bx, point)) in boxes.into_iter().zip(points).enumerate() {
        let row = &grid[r * qs.len()..(r + 1) * qs.len()];
        let response_mass = row.iter().sum::<f64>() / qs.len() as f64;
        let table = batch.row_coefficients(r)?.to_vec();
        let diameter = bx.diameter(cfg.k)?;
        let ess_seed = child_seed(cfg.seed, parent_id, r);
        out.push(ChildEval { bx, point, table, ess_seed, response_mass, diameter, score: None });
    }
    Ok(out)
}

/// Score every child of a wave's sibling sets (or of the roots) with
/// [`score_table`], each child its own pool item, and regroup the results
/// by set in order. `par_map` preserves submission order, so merges and
/// node ids do not depend on the schedule.
fn score_sets(
    cfg: &SearchConfig,
    optimal_coverage: f64,
    sets: Vec<Vec<ChildEval>>,
) -> Result<Vec<Vec<ChildEval>>> {
    let sizes: Vec<usize> = sets.iter().map(Vec::len).collect();
    let children: Vec<ChildEval> = sets.into_iter().flatten().collect();
    let scored = engine::par_map(children, |mut child| {
        child.score = score_table(
            &child.point.spec(),
            &child.table,
            &cfg.profile,
            cfg.k,
            optimal_coverage,
            cfg.ess_mutants,
            child.ess_seed,
        )
        .ok();
        Ok(child)
    })?;
    let mut scored = scored.into_iter();
    Ok(sizes.into_iter().map(|n| scored.by_ref().take(n).collect()).collect())
}

const RESPONSE_GRID: usize = 32;

fn validate(cfg: &SearchConfig) -> Result<()> {
    if cfg.k == 0 {
        return Err(Error::InvalidPlayerCount { k: cfg.k });
    }
    if cfg.budget == 0 || cfg.wave == 0 || cfg.children < 2 {
        return Err(Error::InvalidArgument(
            "search needs budget ≥ 1, wave ≥ 1, children ≥ 2".into(),
        ));
    }
    Ok(())
}

/// Run the parallel best-first search and return the best certificate.
///
/// Bootstraps the tree with [`root_boxes`] (full family ranges plus
/// exact catalog anchors, one batched tile whose rows are scored on the
/// pool), then expands waves until the budget is spent or the frontier
/// drains.
pub fn search_mechanisms(cfg: &SearchConfig) -> Result<SearchOutcome> {
    validate(cfg)?;
    let scale: f64 = cfg.profile.values().iter().sum();
    // Every candidate's SPoA numerator: one optimum per search.
    let optimal = optimal_coverage(&cfg.profile, cfg.k)?.coverage;
    let mut tree = SharedTree::default();
    let mut best: Option<(f64, Certificate)> = None;
    let mut evaluations = 0usize;

    // Wave 0: every root box center in one batched tile, each scored as
    // its own pool item.
    let roots = tile_boxes(cfg, None, root_boxes(cfg.k)?)?;
    for rooted in score_sets(cfg, optimal, vec![roots])? {
        merge_children(cfg, &mut tree, &mut best, &mut evaluations, None, rooted);
    }

    let mut expansions = 0usize;
    while expansions < cfg.budget && !tree.frontier.is_empty() {
        let want = cfg.wave.min(cfg.budget - expansions);
        let wave = tree.select_wave(want, scale);
        if wave.is_empty() {
            break;
        }
        expansions += wave.len();
        // Each expansion's sibling tile is built in wave order; then all of
        // the wave's children fan out together on the persistent
        // work-stealing pool.
        let mut parents = Vec::with_capacity(wave.len());
        let mut sets = Vec::with_capacity(wave.len());
        for (id, bx) in wave {
            sets.push(tile_boxes(cfg, Some(id), bx.split(cfg.children, cfg.k)?)?);
            parents.push(id);
        }
        for (parent, children) in parents.into_iter().zip(score_sets(cfg, optimal, sets)?) {
            merge_children(cfg, &mut tree, &mut best, &mut evaluations, Some(parent), children);
        }
    }

    let frontier_remaining = tree.frontier.len();
    match best {
        Some((_, certificate)) => {
            Ok(SearchOutcome { best: certificate, expansions, evaluations, frontier_remaining })
        }
        None => Err(Error::InvalidArgument(
            "search scored no feasible mechanism (ESS probe rejected every candidate)".into(),
        )),
    }
}

/// Merge one expansion's children into the shared tree, in child order:
/// assign ids, update the incumbent certificate, and enqueue boxes still
/// worth refining.
fn merge_children(
    cfg: &SearchConfig,
    tree: &mut SharedTree,
    best: &mut Option<(f64, Certificate)>,
    evaluations: &mut usize,
    parent: Option<usize>,
    children: Vec<ChildEval>,
) {
    for child in children {
        let id = tree.nodes.len();
        *evaluations += 1;
        let mut node_score = f64::NEG_INFINITY;
        if let Some(ms) = &child.score {
            node_score = cfg.objective.score(ms);
            let certified = ms.ess_passed || cfg.ess_mutants == 0;
            let improves = match best {
                None => true,
                Some((incumbent, _)) => node_score > *incumbent,
            };
            if certified && improves {
                *best = Some((
                    node_score,
                    Certificate {
                        spec: ms.name.clone(),
                        family: child.point.family.label().to_string(),
                        params: child.point.params.clone(),
                        welfare: ms.welfare,
                        optimal_coverage: ms.optimal_coverage,
                        spoa: ms.spoa,
                        ess_margin: ms.ess_margin,
                        ess_passed: ms.ess_passed,
                        node_id: id,
                    },
                ));
            }
        }
        let expandable = child.score.is_some() && child.diameter > MIN_DIAMETER;
        tree.nodes.push(Node {
            parent,
            bx: child.bx,
            score: node_score,
            response_mass: child.response_mass,
            diameter: child.diameter,
        });
        if expandable {
            tree.frontier.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersal_mech::scoring::score_catalog;

    fn tiny_config() -> SearchConfig {
        SearchConfig {
            budget: 6,
            wave: 3,
            children: 3,
            ess_mutants: 8,
            ..SearchConfig::new(6, ValueProfile::zipf(10, 1.0, 1.0).unwrap())
        }
    }

    fn certificate_bits(outcome: &SearchOutcome) -> Vec<u64> {
        let c = &outcome.best;
        let mut bits = vec![
            c.welfare.to_bits(),
            c.optimal_coverage.to_bits(),
            c.spoa.to_bits(),
            c.ess_margin.to_bits(),
            c.node_id as u64,
            u64::from(c.ess_passed),
        ];
        bits.extend(c.params.iter().map(|p| p.to_bits()));
        bits
    }

    #[test]
    fn search_beats_or_matches_the_catalog() {
        let cfg = tiny_config();
        let outcome = search_mechanisms(&cfg).unwrap();
        let catalog = score_catalog(&cfg.profile, cfg.k, cfg.ess_mutants, cfg.seed).unwrap();
        let best_catalog = catalog.iter().map(|s| s.welfare).fold(f64::NEG_INFINITY, f64::max);
        assert!(
            outcome.best.welfare >= best_catalog - 1e-9,
            "searched {} < catalog best {best_catalog}",
            outcome.best.welfare
        );
        assert!(outcome.best.ess_passed);
        assert_eq!(outcome.expansions, cfg.budget);
        assert!(outcome.evaluations > cfg.budget);
    }

    #[test]
    fn certificates_are_bit_identical_across_thread_counts() {
        let cfg = tiny_config();
        rayon::set_num_threads(1);
        let single = search_mechanisms(&cfg).unwrap();
        // 2 is the benchmark host's pool width; 8 oversubscribes it.
        for threads in [2, 8] {
            rayon::set_num_threads(threads);
            let many = search_mechanisms(&cfg).unwrap();
            assert_eq!(single.best.spec, many.best.spec, "{threads} threads");
            assert_eq!(certificate_bits(&single), certificate_bits(&many), "{threads} threads");
            assert_eq!(single.expansions, many.expansions, "{threads} threads");
            assert_eq!(single.evaluations, many.evaluations, "{threads} threads");
        }
    }

    #[test]
    fn spoa_objective_reaches_unit_spoa() {
        let cfg = SearchConfig { objective: Objective::Spoa, ..tiny_config() };
        let outcome = search_mechanisms(&cfg).unwrap();
        // The exclusive anchor has SPoA ≈ 1, the best possible.
        assert!(outcome.best.spoa < 1.0 + 1e-6, "spoa {}", outcome.best.spoa);
    }

    #[test]
    fn score_sets_regroups_every_set_in_order() {
        // Sibling sets of different sizes, an empty one among them (a
        // zero-volume anchor does not split), fanned out together.
        let cfg = tiny_config();
        let optimal = optimal_coverage(&cfg.profile, cfg.k).unwrap().coverage;
        let roots = root_boxes(cfg.k).unwrap();
        let anchor = roots.iter().position(|bx| bx.split(cfg.children, cfg.k).unwrap().is_empty());
        let picks = [0, anchor.expect("the root forest has anchors"), 1];
        let sets: Vec<Vec<ChildEval>> = picks
            .iter()
            .map(|&id| {
                let children = roots[id].split(cfg.children, cfg.k).unwrap();
                tile_boxes(&cfg, Some(id), children).unwrap()
            })
            .collect();
        let seeds = |sets: &[Vec<ChildEval>]| -> Vec<Vec<u64>> {
            sets.iter().map(|set| set.iter().map(|c| c.ess_seed).collect()).collect()
        };
        let before = seeds(&sets);
        assert!(before[1].is_empty() && !before[0].is_empty() && !before[2].is_empty());
        let scored = score_sets(&cfg, optimal, sets).unwrap();
        assert_eq!(seeds(&scored), before);
        for child in scored.iter().flatten() {
            let ms = child.score.as_ref().expect("search-family tables solve");
            assert_eq!(ms.name, child.point.spec(), "a child must carry its own scorecard");
        }
    }

    #[test]
    fn virtual_loss_spreads_a_wave_across_parents() {
        // Build a frontier of two sibling pairs with near-equal scores;
        // a 2-wave must claim one node from each pair, not both
        // top-scored siblings.
        let cfg = tiny_config();
        let mut tree = SharedTree::default();
        let bx = ParamBox::root(crate::mech_space::MechFamily::PowerLaw, cfg.k).unwrap();
        for (id, (parent, score)) in
            [(Some(10), 1.00), (Some(10), 0.99), (Some(11), 0.98), (Some(11), 0.97)]
                .into_iter()
                .enumerate()
        {
            tree.nodes.push(Node {
                parent,
                bx: bx.clone(),
                score,
                response_mass: 0.0,
                diameter: 0.0,
            });
            tree.frontier.push(id);
        }
        let wave = tree.select_wave(2, 1.0);
        let parents: Vec<Option<usize>> =
            wave.iter().map(|(id, _)| tree.nodes[*id].parent).collect();
        assert_eq!(parents, vec![Some(10), Some(11)], "virtual loss must diversify the wave");
    }

    #[test]
    fn config_validation() {
        let mut cfg = tiny_config();
        cfg.budget = 0;
        assert!(search_mechanisms(&cfg).is_err());
        let mut cfg = tiny_config();
        cfg.children = 1;
        assert!(search_mechanisms(&cfg).is_err());
        let mut cfg = tiny_config();
        cfg.k = 0;
        assert!(search_mechanisms(&cfg).is_err());
        assert!(Objective::parse("welfare").is_ok());
        assert!(Objective::parse("spoa").is_ok());
        assert!(Objective::parse("entropy").is_err());
    }
}
