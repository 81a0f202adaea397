//! Search plans: per-round sampling distributions for non-coordinating
//! searchers.
//!
//! A [`SearchPlan`] produces, for each round `t`, the distribution from
//! which *every* searcher independently samples its box to open that round
//! (the searchers cannot coordinate, so within a round they are exchangeable
//! — exactly the symmetric-strategy restriction of the dispersal game).

use dispersal_core::strategy::Strategy;
use dispersal_core::{Error, Result};

/// A (possibly adaptive) plan assigning a sampling distribution to every
/// round. Plans observe only *time*, not outcomes: the searchers learn
/// nothing before the treasure is found, matching the model of \[24\].
pub trait SearchPlan {
    /// The distribution for round `t` (0-based). Fallible: adaptive plans
    /// (e.g. iterated σ⋆) recompute posteriors whose validation can fail.
    fn round(&mut self, t: usize) -> Result<Strategy>;

    /// Human-readable name for reports.
    fn name(&self) -> String;
}

/// A plan given by a fixed precomputed schedule; repeats the last round's
/// distribution if queried beyond the schedule.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    label: String,
    rounds: Vec<Strategy>,
}

impl SchedulePlan {
    /// Build from an explicit non-empty schedule.
    pub fn new(label: impl Into<String>, rounds: Vec<Strategy>) -> Result<Self> {
        if rounds.is_empty() {
            return Err(Error::InvalidArgument("schedule must contain at least one round".into()));
        }
        Ok(Self { label: label.into(), rounds })
    }

    /// Number of distinct scheduled rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the schedule is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

impl SearchPlan for SchedulePlan {
    fn round(&mut self, t: usize) -> Result<Strategy> {
        Ok(self.rounds[t.min(self.rounds.len() - 1)].clone())
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_last_round() {
        let a = Strategy::delta(2, 0).unwrap();
        let b = Strategy::delta(2, 1).unwrap();
        let mut plan = SchedulePlan::new("test", vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(plan.round(0).unwrap(), a);
        assert_eq!(plan.round(1).unwrap(), b);
        assert_eq!(plan.round(7).unwrap(), b);
        assert_eq!(plan.name(), "test");
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "schedule must contain at least one round")]
    fn empty_schedule_panics() {
        SchedulePlan::new("empty", vec![]).unwrap();
    }
}
