//! Deterministic cost injection: a parseable schedule of virtual-cluster
//! faults whose cost md-insight prices against a fault-free twin.
//!
//! ## Fault-spec grammar
//!
//! A plan is a comma-separated list of events:
//!
//! ```text
//! rank-stall:<rank>@<step>            transient stall (0.25 s) on one rank
//! rank-slow:<rank>x<factor>@<step>    compute slowdown from <step> onward
//! ```
//!
//! Example: `rank-stall:2@50,rank-slow:3x4@0`.
//!
//! Both kinds perturb the [`md_parallel::VirtualCluster`] timing model (the
//! paper's Fig. 4/5 imbalance mechanism, on demand); they never touch
//! physics.

use crate::{ResilienceError, Result};
use md_core::CoreError;
use md_parallel::ClusterFaults;

/// Stall duration applied by `rank-stall` events.
pub const STALL_SECONDS: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq)]
struct StallEvent {
    rank: usize,
    step: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct SlowEvent {
    rank: usize,
    factor: f64,
    from_step: u64,
}

/// A parsed, deterministic fault schedule, queried by the virtual cluster
/// through [`ClusterFaults`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    stalls: Vec<StallEvent>,
    slows: Vec<SlowEvent>,
}

impl FaultPlan {
    /// Parses the comma-separated fault-spec grammar (see module docs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] describing the offending
    /// event on any grammar violation.
    pub fn parse(spec: &str) -> Result<Self> {
        let bad = |event: &str, why: &str| {
            ResilienceError::Core(CoreError::InvalidParameter {
                name: "faults",
                reason: format!("bad fault event {event:?}: {why}"),
            })
        };
        let mut plan = FaultPlan::default();
        for event in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, rest) = event
                .split_once(':')
                .ok_or_else(|| bad(event, "expected `kind:args`"))?;
            let (target, step) = rest
                .split_once('@')
                .ok_or_else(|| bad(event, "expected `...@<step>`"))?;
            let step: u64 = step
                .parse()
                .map_err(|_| bad(event, "step must be an unsigned integer"))?;
            let rank = |rank: &str| {
                rank.parse::<usize>()
                    .map_err(|_| bad(event, "rank must be an unsigned integer"))
            };
            match kind {
                "rank-stall" => plan.stalls.push(StallEvent {
                    rank: rank(target)?,
                    step,
                }),
                "rank-slow" => {
                    let (r, factor) = target
                        .split_once('x')
                        .ok_or_else(|| bad(event, "expected `<rank>x<factor>`"))?;
                    let r = rank(r)?;
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| bad(event, "factor must be a number"))?;
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(bad(event, "factor must be positive and finite"));
                    }
                    plan.slows.push(SlowEvent {
                        rank: r,
                        factor,
                        from_step: step,
                    });
                }
                _ => return Err(bad(event, "unknown kind (rank-stall, rank-slow)")),
            }
        }
        Ok(plan)
    }

    /// Whether the plan schedules no fault at all.
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty() && self.slows.is_empty()
    }

    /// The latest step any fault fires at (slowdowns count their start
    /// step), for sizing a modeled run that must cover the schedule.
    pub fn max_step(&self) -> Option<u64> {
        self.stalls
            .iter()
            .map(|e| e.step)
            .chain(self.slows.iter().map(|s| s.from_step))
            .max()
    }
}

impl ClusterFaults for FaultPlan {
    fn compute_scale(&self, rank: usize, step: u64) -> f64 {
        // Slowdowns persist from their start step (throttling does not heal
        // itself); multiple matching events compound.
        self.slows
            .iter()
            .filter(|s| s.rank == rank && step >= s.from_step)
            .map(|s| s.factor)
            .product()
    }

    fn stall_seconds(&self, rank: usize, step: u64) -> f64 {
        self.stalls
            .iter()
            .filter(|s| s.rank == rank && s.step == step)
            .map(|_| STALL_SECONDS)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse("rank-stall:2@50, rank-slow:1x2.5@10").unwrap();
        assert_eq!(plan.stall_seconds(2, 50), STALL_SECONDS);
        assert_eq!(plan.stall_seconds(2, 51), 0.0);
        assert_eq!(plan.stall_seconds(1, 50), 0.0);
        assert_eq!(plan.compute_scale(1, 9), 1.0);
        assert_eq!(plan.compute_scale(1, 10), 2.5);
        assert_eq!(plan.compute_scale(1, 99), 2.5, "slowdowns persist");
        assert_eq!(plan.max_step(), Some(50));
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_and_whitespace_specs_are_healthy() {
        for spec in ["", "  ", " , "] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert!(plan.is_empty(), "{spec:?}");
            assert_eq!(plan.max_step(), None);
        }
    }

    #[test]
    fn bad_grammar_is_a_typed_error() {
        for spec in [
            "rank-stall",
            "rank-stall:2",
            "rank-stall:x@5",
            "rank-stall:2@-1",
            "rank-slow:1@10",
            "rank-slow:x1x2@10",
            "rank-slow:1x-2@10",
            "rank-slow:1x0@10",
            "rank-slow:1xinf@10",
            "rank-slow:1xinfx@10",
            "rank-slow:1x2@",
            "gamma-ray:1@2",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                matches!(
                    err,
                    ResilienceError::Core(CoreError::InvalidParameter { name: "faults", .. })
                ),
                "{spec:?} -> {err}"
            );
        }
    }

    #[test]
    fn compounding_slowdowns_multiply() {
        let plan = FaultPlan::parse("rank-slow:1x2@10,rank-slow:1x3@20").unwrap();
        assert_eq!(plan.compute_scale(1, 15), 2.0);
        assert_eq!(plan.compute_scale(1, 25), 6.0);
    }
}
