//! Per-layer probes: the benchmark times calls into each layer's public
//! functions from its own code, on inputs shaped like the workloads'.
//! Nothing here runs inside the daemon or changes the library.

use crate::compute::{search_config, McGame, MC_SHARDS};
use crate::gen::{self, Kind, Mix, Rng};
use dispersal_core::ess::probe_ess_k;
use dispersal_core::ifd::solve_ifd_allow_degenerate;
use dispersal_core::kernel::GBatch;
use dispersal_core::optimal::optimal_coverage;
use dispersal_core::policy::{Congestion, TableCongestion};
use dispersal_mech::catalog::parse_policy;
use dispersal_search::mech_space::{root_boxes, ParamBox};
use dispersal_serve::batch::{eval_exact_tile, eval_interp_tile, plan_groups, ResponseJob};
use dispersal_serve::protocol::{self, parse_line};
use dispersal_sim::engine;
use dispersal_sim::sweep::SharedGridCache;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean cost of one call and how many calls it averages.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Mean per call, in the unit of the metric it feeds.
    pub mean: f64,
    pub samples: u64,
}

/// Time `op` over `inputs`, cycling through them until `budget` has
/// passed (and each input has run at least once).
fn time_each<T>(inputs: &[T], budget: Duration, mut op: impl FnMut(&T)) -> Cost {
    crate::watchdog::beat();
    let started = Instant::now();
    let mut calls = 0u64;
    'outer: loop {
        for input in inputs {
            op(input);
            calls += 1;
            if calls >= inputs.len() as u64 && started.elapsed() >= budget {
                break 'outer;
            }
        }
    }
    Cost { mean: started.elapsed().as_secs_f64() * 1e6 / calls as f64, samples: calls }
}

const BUDGET: Duration = Duration::from_millis(150);
/// Trivial `par_map` calls timed for the dispatch cost.
const DISPATCHES: u64 = 200;

/// Serve-side layer costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    pub parse: Cost,
    pub reply: Cost,
    pub plan: Cost,
    /// Exact tile per admission group, on the observed group shapes.
    pub tile: Cost,
    /// The same per row.
    pub tile_row_us: f64,
    /// A lone request's tile (one row, k = 64).
    pub tile_lone: Cost,
    pub grid_lookup: Cost,
    /// Cold grid build, ms.
    pub grid_build_ms: Cost,
}

/// The result value the daemon builds for an exact response.
fn response_value(policy: &dyn Congestion, k: usize, g: &[f64]) -> Value {
    let qs: Vec<f64> = (0..=gen::RESOLUTION).map(|i| i as f64 / gen::RESOLUTION as f64).collect();
    protocol::object(vec![
        ("policy", Value::Str(policy.name())),
        ("k", Value::UInt(k as u64)),
        ("qs", protocol::float_array(&qs)),
        ("g", protocol::float_array(g)),
    ])
}

fn seeded_policies(seed: u64, n: usize) -> Result<Vec<Box<dyn Congestion>>, String> {
    let mut rng = Rng::stream(seed, 0x9011);
    (0..n)
        .map(|_| {
            let spec = format!("power:{:.6}", 0.25 + 3.75 * rng.unit());
            parse_policy(&spec).map_err(|e| e.to_string())
        })
        .collect()
}

/// Probe the serve layers. `per_admission` is the mean number of
/// requests per admission batch the daemon saw under the burst; the
/// exact group shapes follow from it and the mix shares.
pub fn serve_layers(seed: u64, per_admission: f64) -> Result<ServeLayers, String> {
    let mut out = ServeLayers::default();
    let mut mix = Mix::new(seed, 0x300);
    let lines: Vec<String> = (0..2000).map(|id| mix.next(id).line).collect();
    out.parse = time_each(&lines, BUDGET, |line| {
        let _ = black_box(parse_line(black_box(line)));
    });

    let policies = seeded_policies(seed, 64)?;
    let mut values = Vec::new();
    for (i, p) in policies.iter().enumerate() {
        let k = gen::EXACT_SHARES[i % gen::EXACT_SHARES.len()].0;
        let g = eval_exact_tile(&[p.as_ref()], k, gen::RESOLUTION).map_err(|e| e.to_string())?;
        values.push(response_value(p.as_ref(), k, &g[0]));
    }
    // ok_reply consumes its value: time it over pre-built copies.
    let copies: Vec<Value> = values.iter().cycle().take(1500).cloned().collect();
    let started = Instant::now();
    for (id, v) in copies.into_iter().enumerate() {
        black_box(protocol::ok_reply(id as u64, v));
    }
    out.reply = Cost { mean: started.elapsed().as_secs_f64() * 1e6 / 1500.0, samples: 1500 };

    let batch = per_admission.round().max(1.0) as usize;
    let mut mix = Mix::new(seed, 0x301);
    let batches: Vec<Vec<ResponseJob>> = (0..200)
        .map(|b| {
            (0..batch)
                .filter_map(|j| match mix.next((b * batch + j) as u64).kind {
                    Kind::Exact { k, .. } => {
                        Some(ResponseJob { k, resolution: gen::RESOLUTION, tol: None })
                    }
                    Kind::Interp => Some(ResponseJob {
                        k: gen::TOL_K,
                        resolution: gen::RESOLUTION,
                        tol: Some(gen::TOL),
                    }),
                    _ => None,
                })
                .collect()
        })
        .collect();
    out.plan = time_each(&batches, BUDGET, |jobs| {
        black_box(plan_groups(black_box(jobs)));
    });

    // Observed exact group shapes: each exact player count's share of an
    // admission batch, at least one row.
    let shapes: Vec<(usize, usize)> = gen::EXACT_SHARES
        .iter()
        .map(|&(k, share)| (k, (per_admission * share).round().max(1.0) as usize))
        .collect();
    let refs: Vec<&dyn Congestion> = policies.iter().map(|p| p.as_ref()).collect();
    let mut rows = 0u64;
    out.tile = time_each(&shapes, BUDGET, |&(k, n)| {
        rows += n as u64;
        black_box(eval_exact_tile(&refs[..n.min(refs.len())], k, gen::RESOLUTION).ok());
    });
    out.tile_row_us = out.tile.mean * out.tile.samples as f64 / rows as f64;
    out.tile_lone = time_each(&refs[..8], BUDGET, |p| {
        black_box(eval_exact_tile(&[*p], gen::TOL_K, gen::RESOLUTION).ok());
    });

    let warm = SharedGridCache::new();
    for p in &refs[..8] {
        eval_interp_tile(&[*p], gen::TOL_K, gen::RESOLUTION, gen::TOL, &warm)
            .map_err(|e| e.to_string())?;
    }
    out.grid_lookup = time_each(&refs[..8], BUDGET, |p| {
        black_box(eval_interp_tile(&[*p], gen::TOL_K, gen::RESOLUTION, gen::TOL, &warm).ok());
    });
    let cold = time_each(&refs[8..16], BUDGET, |p| {
        let cache = SharedGridCache::new();
        black_box(eval_interp_tile(&[*p], gen::TOL_K, gen::RESOLUTION, gen::TOL, &cache).ok());
    });
    out.grid_build_ms = Cost { mean: cold.mean / 1e3, samples: cold.samples };
    Ok(out)
}

/// Search-side layer costs, per call.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchLayers {
    /// `ParamBox::split` plus `center` and `MechPoint::table` per child,
    /// per expansion.
    pub split: Cost,
    /// `GBatch::from_rows` + `eval_grid` per sibling set.
    pub sibling_tile: Cost,
    /// Per candidate.
    pub ifd: Cost,
    pub ess: Cost,
    pub opt: Cost,
}

/// Probe the search layers on the boxes a search expands first: the root
/// forest, split breadth-first.
pub fn search_layers(seed: u64) -> Result<SearchLayers, String> {
    let cfg = search_config(seed)?;
    let k = cfg.k;
    let e = |e: dispersal_core::Error| e.to_string();
    let mut boxes: Vec<ParamBox> = root_boxes(k).map_err(e)?;
    let mut expansions: Vec<ParamBox> = Vec::new();
    let mut next = 0;
    while expansions.len() < cfg.budget && next < boxes.len() {
        let bx = boxes[next].clone();
        next += 1;
        let children = bx.split(cfg.children, k).map_err(e)?;
        if !children.is_empty() {
            boxes.extend(children);
            expansions.push(bx);
        }
    }
    let mut out = SearchLayers::default();
    let mut sibling_tables: Vec<Vec<Vec<f64>>> = Vec::new();
    out.split = time_each(&expansions, BUDGET, |bx| {
        let tables: Vec<Vec<f64>> = bx
            .split(cfg.children, k)
            .map(|children| children.iter().filter_map(|c| c.center().table(k).ok()).collect())
            .unwrap_or_default();
        if sibling_tables.len() < expansions.len() {
            sibling_tables.push(tables.clone());
        }
        black_box(tables);
    });
    let qs: Vec<f64> = (0..=32).map(|i| f64::from(i) / 32.0).collect();
    out.sibling_tile = time_each(&sibling_tables, BUDGET, |tables| {
        if let Ok(batch) = GBatch::from_rows(tables.clone()) {
            black_box(batch.eval_grid(&qs));
        }
    });
    let candidates: Vec<TableCongestion> = sibling_tables
        .iter()
        .flatten()
        .enumerate()
        .filter_map(|(i, t)| TableCongestion::new(t.clone(), format!("candidate-{i}")).ok())
        .collect();
    let f = &cfg.profile;
    out.ifd = time_each(&candidates, BUDGET, |c| {
        black_box(solve_ifd_allow_degenerate(c, f, k).ok());
    });
    let equilibria: Vec<(&TableCongestion, dispersal_core::strategy::Strategy)> = candidates
        .iter()
        .filter_map(|c| solve_ifd_allow_degenerate(c, f, k).ok().map(|ifd| (c, ifd.strategy)))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    out.ess = time_each(&equilibria, BUDGET, |(c, sigma)| {
        black_box(probe_ess_k(*c, f, sigma, cfg.ess_mutants, &mut rng, k).ok());
    });
    out.opt = time_each(&[()], BUDGET, |_| {
        black_box(optimal_coverage(f, k).ok());
    });
    Ok(out)
}

/// Engine and pool layer costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineLayers {
    /// One trial on one thread and one shard, ns.
    pub trial_ns: Cost,
    /// Per-shard set-up (runs with one trial per shard), µs.
    pub shard_setup: Cost,
    /// A trivial 64-item `par_map` at the default width.
    pub dispatch: Cost,
}

pub fn engine_layers(game: &McGame, seed: u64) -> Result<EngineLayers, String> {
    const TRIALS: u64 = 100_000;
    let mut err = None;
    let (trial, setup) = crate::compute::with_threads(1, || {
        let trial = time_each(&[()], BUDGET, |_| {
            if let Err(e) = game.estimate(TRIALS, 1, seed) {
                err = Some(e);
            }
        });
        let setup = time_each(&[()], BUDGET, |_| {
            if let Err(e) = game.estimate(MC_SHARDS, MC_SHARDS, seed) {
                err = Some(e);
            }
        });
        (trial, setup)
    });
    if let Some(e) = err {
        return Err(e);
    }
    let trial_ns = trial.mean * 1e3 / TRIALS as f64;
    let shard_us = (setup.mean - MC_SHARDS as f64 * trial_ns / 1e3) / MC_SHARDS as f64;
    // A fixed, small number of dispatches: at the end of each job both
    // workers try to steal, and the vendored pool holds a worker's own
    // deque lock while it locks the other's, so each dispatch is a small
    // chance of deadlock.
    let items: Vec<u64> = (0..64).collect();
    let started = Instant::now();
    for _ in 0..DISPATCHES {
        black_box(engine::par_map(items.clone(), |x| Ok(black_box(x) + 1)).ok());
    }
    let dispatch = Cost {
        mean: started.elapsed().as_secs_f64() * 1e6 / DISPATCHES as f64,
        samples: DISPATCHES,
    };
    Ok(EngineLayers {
        trial_ns: Cost { mean: trial_ns, samples: trial.samples * TRIALS },
        shard_setup: Cost { mean: shard_us, samples: setup.samples * MC_SHARDS },
        dispatch,
    })
}
