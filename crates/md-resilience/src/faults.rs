//! Deterministic fault injection: a parseable schedule of cluster and
//! engine faults.
//!
//! ## Fault-spec grammar
//!
//! A plan is a comma-separated list of events:
//!
//! ```text
//! rank-stall:<rank>@<step>            transient stall (0.25 s) on one rank
//! rank-slow:<rank>x<factor>@<step>    compute slowdown from <step> onward
//! halo-drop:<rank>@<step>             halo message to <rank> lost once
//! halo-dup:<rank>@<step>              halo payload delivered twice
//! halo-corrupt:<rank>@<step>          halo payload corrupted in flight once
//! rank-crash:<rank>@<step>            fail-stop: the rank dies at <step>
//! force-flip:<atom>@<step>            exponent bit-flip in one force value
//! ```
//!
//! Example: `rank-stall:2@50,force-flip:17@80`.
//!
//! Cluster faults perturb the [`md_parallel::VirtualCluster`] timing model
//! (the paper's Fig. 4/5 imbalance mechanism, on demand); they never touch
//! physics. The `force-flip` engine fault corrupts one force component in
//! the *real* engine — the watchdog must catch it and the recovery ladder
//! must roll it back. Engine faults are consumed once: after a rollback the
//! retry proceeds past the injection step cleanly, modeling a transient
//! soft error rather than a stuck-at fault.

use crate::{ResilienceError, Result};
use md_core::{CoreError, Simulation};
use md_parallel::ClusterFaults;

/// Stall duration applied by `rank-stall` events.
pub const STALL_SECONDS: f64 = 0.25;

/// Mask saturating the exponent field of an `f64`: the corrupted value is
/// ±Inf (zero mantissa) or NaN — guaranteed non-finite, the worst-case
/// single-word corruption a force array can absorb.
const EXPONENT_SATURATE: u64 = 0x7FF0_0000_0000_0000;

/// A transient single-bit-pattern corruption of one atom's force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineFault {
    /// Atom whose force is corrupted.
    pub atom: usize,
    /// Step *before* which the corruption lands (it is consumed by that
    /// step's initial integration).
    pub step: u64,
}

impl EngineFault {
    /// Applies the bit-flip to the simulation's current force array.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the atom index is out of
    /// range.
    pub fn inject(&self, sim: &mut Simulation) -> Result<()> {
        let n = sim.atoms().len();
        if self.atom >= n {
            return Err(ResilienceError::Core(CoreError::InvalidParameter {
                name: "force-flip atom",
                reason: format!("atom {} out of range (deck has {n} atoms)", self.atom),
            }));
        }
        let f = &mut sim.atoms_mut().f_mut()[self.atom];
        f.x = f64::from_bits(f.x.to_bits() | EXPONENT_SATURATE);
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RankEvent {
    rank: usize,
    step: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct SlowEvent {
    rank: usize,
    factor: f64,
    from_step: u64,
}

/// A parsed, deterministic fault schedule.
///
/// Implements [`ClusterFaults`] for the timing-model faults; engine faults
/// are exposed via [`FaultPlan::engine_faults`] for the resilient runner to
/// inject (and consume) itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    stalls: Vec<RankEvent>,
    slows: Vec<SlowEvent>,
    halo_drops: Vec<RankEvent>,
    halo_dups: Vec<RankEvent>,
    halo_corrupts: Vec<RankEvent>,
    crashes: Vec<RankEvent>,
    engine: Vec<EngineFault>,
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
            match kind {
                "rank-stall" | "halo-drop" | "halo-dup" | "halo-corrupt" | "rank-crash" => {
                    let rank: usize = target
                        .parse()
                        .map_err(|_| bad(event, "rank must be an unsigned integer"))?;
                    let ev = RankEvent { rank, step };
                    match kind {
                        "rank-stall" => plan.stalls.push(ev),
                        "halo-drop" => plan.halo_drops.push(ev),
                        "halo-corrupt" => plan.halo_corrupts.push(ev),
                        "rank-crash" => plan.crashes.push(ev),
                        _ => plan.halo_dups.push(ev),
                    }
                }
                "rank-slow" => {
                    let (rank, factor) = target
                        .split_once('x')
                        .ok_or_else(|| bad(event, "expected `<rank>x<factor>`"))?;
                    let rank: usize = rank
                        .parse()
                        .map_err(|_| bad(event, "rank must be an unsigned integer"))?;
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| bad(event, "factor must be a number"))?;
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(bad(event, "factor must be positive and finite"));
                    }
                    plan.slows.push(SlowEvent {
                        rank,
                        factor,
                        from_step: step,
                    });
                }
                "force-flip" => {
                    let atom: usize = target
                        .parse()
                        .map_err(|_| bad(event, "atom must be an unsigned integer"))?;
                    plan.engine.push(EngineFault { atom, step });
                }
                _ => {
                    return Err(bad(
                        event,
                        "unknown kind (rank-stall, rank-slow, halo-drop, halo-dup, \
                         halo-corrupt, rank-crash, force-flip)",
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Engine-side faults (force bit-flips), in spec order.
    pub fn engine_faults(&self) -> &[EngineFault] {
        &self.engine
    }

    /// Scheduled fail-stop events as `(rank, step)` pairs, in spec order.
    /// The resilient runner walks these to drive the degraded-mode shrink.
    pub fn crashes(&self) -> Vec<(usize, u64)> {
        self.crashes.iter().map(|e| (e.rank, e.step)).collect()
    }

    /// Whether the plan contains comm-health faults (crashes or in-flight
    /// corruption) that the detection layer must be armed for.
    pub fn has_comm_faults(&self) -> bool {
        !(self.crashes.is_empty() && self.halo_corrupts.is_empty())
    }

    /// Whether the plan perturbs the virtual-cluster timing model at all
    /// (if not, there is no reason to attach it to a model run).
    pub fn has_cluster_faults(&self) -> bool {
        !(self.stalls.is_empty()
            && self.slows.is_empty()
            && self.halo_drops.is_empty()
            && self.halo_dups.is_empty()
            && self.halo_corrupts.is_empty()
            && self.crashes.is_empty())
    }

    /// Whether the plan is entirely empty.
    pub fn is_empty(&self) -> bool {
        !self.has_cluster_faults() && self.engine.is_empty()
    }

    /// The latest step any cluster fault fires at (slowdowns count their
    /// start step), for sizing a modeled run that must cover the schedule.
    pub fn max_cluster_step(&self) -> Option<u64> {
        self.stalls
            .iter()
            .chain(&self.halo_drops)
            .chain(&self.halo_dups)
            .chain(&self.halo_corrupts)
            .chain(&self.crashes)
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

    fn drop_halo(&self, rank: usize, step: u64) -> bool {
        self.halo_drops
            .iter()
            .any(|e| e.rank == rank && e.step == step)
    }

    fn duplicate_halo(&self, rank: usize, step: u64) -> bool {
        self.halo_dups
            .iter()
            .any(|e| e.rank == rank && e.step == step)
    }

    fn crash_rank(&self, rank: usize, step: u64) -> bool {
        // Fail-stop is permanent: dead ranks stay dead.
        self.crashes
            .iter()
            .any(|e| e.rank == rank && step >= e.step)
    }

    fn corrupt_halo(&self, rank: usize, step: u64) -> bool {
        self.halo_corrupts
            .iter()
            .any(|e| e.rank == rank && e.step == step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::Threads;
    use md_workloads::{build_deck_with, Benchmark};

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse(
            "rank-stall:2@50, rank-slow:1x2.5@10, halo-drop:0@7, halo-dup:3@9, force-flip:17@80",
        )
        .unwrap();
        assert_eq!(plan.stall_seconds(2, 50), STALL_SECONDS);
        assert_eq!(plan.stall_seconds(2, 51), 0.0);
        assert_eq!(plan.stall_seconds(1, 50), 0.0);
        assert_eq!(plan.compute_scale(1, 9), 1.0);
        assert_eq!(plan.compute_scale(1, 10), 2.5);
        assert_eq!(plan.compute_scale(1, 99), 2.5, "slowdowns persist");
        assert!(plan.drop_halo(0, 7) && !plan.drop_halo(0, 8));
        assert!(plan.duplicate_halo(3, 9) && !plan.duplicate_halo(2, 9));
        assert_eq!(plan.engine_faults(), &[EngineFault { atom: 17, step: 80 }]);
        assert!(plan.has_cluster_faults() && !plan.is_empty());
    }

    #[test]
    fn empty_and_whitespace_specs_are_healthy() {
        for spec in ["", "  ", " , "] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert!(plan.is_empty(), "{spec:?}");
        }
    }

    #[test]
    fn bad_grammar_is_a_typed_error() {
        for spec in [
            "rank-stall",
            "rank-stall:2",
            "rank-stall:x@5",
            "rank-slow:1@10",
            "rank-slow:1x-2@10",
            "rank-slow:1xinfx@10",
            "force-flip:a@80",
            "halo-drop:1@",
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
    fn parses_comm_fault_kinds() {
        let plan = FaultPlan::parse("rank-crash:3@15, halo-corrupt:2@8").unwrap();
        assert!(plan.has_comm_faults() && plan.has_cluster_faults());
        assert_eq!(plan.crashes(), vec![(3, 15)]);
        assert!(!plan.crash_rank(3, 14), "alive before the crash step");
        assert!(
            plan.crash_rank(3, 15) && plan.crash_rank(3, 99),
            "fail-stop"
        );
        assert!(!plan.crash_rank(2, 15));
        assert!(plan.corrupt_halo(2, 8) && !plan.corrupt_halo(2, 9));
        assert_eq!(plan.max_cluster_step(), Some(15));

        let healthy = FaultPlan::parse("rank-stall:2@50").unwrap();
        assert!(!healthy.has_comm_faults());
    }

    #[test]
    fn compounding_slowdowns_multiply() {
        let plan = FaultPlan::parse("rank-slow:1x2@10,rank-slow:1x3@20").unwrap();
        assert_eq!(plan.compute_scale(1, 15), 2.0);
        assert_eq!(plan.compute_scale(1, 25), 6.0);
    }

    #[test]
    fn force_flip_injects_nonfinite_exponent() {
        let mut deck = build_deck_with(Benchmark::Lj, 1, 3, Threads::serial()).unwrap();
        deck.simulation.step().unwrap();
        let before = deck.simulation.atoms().f()[5].x;
        assert!(before.is_finite() && before != 0.0);
        let fault = EngineFault { atom: 5, step: 1 };
        fault.inject(&mut deck.simulation).unwrap();
        let after = deck.simulation.atoms().f()[5].x;
        assert!(
            !after.is_finite(),
            "exponent flip of a normal is non-finite"
        );

        let oob = EngineFault {
            atom: usize::MAX,
            step: 1,
        };
        assert!(oob.inject(&mut deck.simulation).is_err());
    }
}
