//! Baseline non-coordinating search plans to compare against iterated σ⋆.

use crate::plan::SearchPlan;
use crate::prior::Prior;
use dispersal_core::strategy::Strategy;
use dispersal_core::{Error, Result};

/// Every round, every searcher samples uniformly over all boxes.
#[derive(Debug, Clone)]
pub struct UniformPlan {
    m: usize,
}

impl UniformPlan {
    /// Build over `m ≥ 1` boxes.
    pub fn new(m: usize) -> Result<Self> {
        if m == 0 {
            return Err(Error::InvalidArgument("uniform plan needs at least one box".into()));
        }
        Ok(Self { m })
    }
}

impl SearchPlan for UniformPlan {
    fn round(&mut self, _t: usize) -> Result<Strategy> {
        Strategy::uniform(self.m)
    }

    fn name(&self) -> String {
        "uniform".to_string()
    }
}

/// Every round, every searcher samples proportionally to the prior — the
/// "probability matching" heuristic.
#[derive(Debug, Clone)]
pub struct ProportionalPlan {
    strategy: Strategy,
}

impl ProportionalPlan {
    /// Build over a prior. Fails only if the prior's masses do not form a
    /// distribution (cannot happen for a validated [`Prior`]).
    pub fn new(prior: &Prior) -> Result<Self> {
        let probs: Vec<f64> = (0..prior.len()).map(|x| prior.mass(x)).collect();
        Ok(Self { strategy: Strategy::new(probs)? })
    }
}

impl SearchPlan for ProportionalPlan {
    fn round(&mut self, _t: usize) -> Result<Strategy> {
        Ok(self.strategy.clone())
    }

    fn name(&self) -> String {
        "prior-proportional".to_string()
    }
}

/// Deterministic sweep: in round `t` everyone opens box `t mod M` — the
/// fully-colliding baseline a coordinated group would never use, isolating
/// the cost of total overlap.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    m: usize,
}

impl SweepPlan {
    /// Build over `m ≥ 1` boxes.
    pub fn new(m: usize) -> Result<Self> {
        if m == 0 {
            return Err(Error::InvalidArgument("sweep plan needs at least one box".into()));
        }
        Ok(Self { m })
    }
}

impl SearchPlan for SweepPlan {
    fn round(&mut self, t: usize) -> Result<Strategy> {
        Strategy::delta(self.m, t % self.m)
    }

    fn name(&self) -> String {
        "deterministic-sweep".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_plan_rounds() {
        let mut plan = UniformPlan::new(4).unwrap();
        let r = plan.round(0).unwrap();
        assert_eq!(r.probs(), &[0.25; 4]);
        assert_eq!(plan.name(), "uniform");
    }

    #[test]
    fn proportional_plan_matches_prior() {
        let prior = Prior::from_weights(vec![3.0, 1.0]).unwrap();
        let mut plan = ProportionalPlan::new(&prior).unwrap();
        let r = plan.round(5).unwrap();
        assert!((r.prob(0) - 0.75).abs() < 1e-12);
        assert_eq!(plan.name(), "prior-proportional");
    }

    #[test]
    fn sweep_plan_cycles() {
        let mut plan = SweepPlan::new(3).unwrap();
        assert_eq!(plan.round(0).unwrap().prob(0), 1.0);
        assert_eq!(plan.round(1).unwrap().prob(1), 1.0);
        assert_eq!(plan.round(3).unwrap().prob(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "uniform plan needs at least one box")]
    fn uniform_plan_rejects_zero_boxes() {
        assert!(SweepPlan::new(0).is_err());
        UniformPlan::new(0).unwrap();
    }
}
