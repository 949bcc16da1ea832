//! Rollback-and-retry recovery driving the watchdog and checkpoints.
//!
//! The [`ResilientRunner`] advances a deck step by step, snapshotting the
//! full dynamic state in memory at a configurable cadence. When the
//! watchdog reports a violation (or the engine's own step errors), the
//! runner rolls the simulation back to the last healthy snapshot and
//! retries under an escalating mitigation ladder:
//!
//! 1. **Rebuild the neighbor list** — clears a stale-list artifact and
//!    perturbs the summation schedule past a transient corruption.
//! 2. **Shrink the timestep** (× `dt_backoff`) — buys integration headroom
//!    when the blow-up is a genuine stiffness/stability problem.
//! 3. **Tighten the k-space accuracy** — for long-range decks whose drift
//!    traces back to mesh error (a no-op notch elsewhere).
//!
//! Retries are bounded by [`RecoveryPolicy::max_retries`]; exhaustion
//! aborts with a structured [`FailureReport`] carried inside
//! [`ResilienceError::Unrecoverable`]. A clean stretch of steps resets the
//! ladder, so isolated transients pay one rung each rather than marching
//! the run toward abort.
//!
//! A fourth, final rung exists outside the escalation ladder: the
//! **degraded-mode shrink**. When the fault plan fail-stops a rank
//! (`rank-crash`) and the runner is armed via
//! [`ResilientRunner::with_cluster`], the run rolls back to the last
//! healthy snapshot, re-decomposes the box over one fewer rank, and
//! continues on the survivors, emitting a structured [`ShrinkReport`].
//! The shrink touches no physics knob, so the post-shrink trajectory is
//! bitwise identical to a crash-free run.

use crate::checkpoint::CheckpointManager;
use crate::faults::FaultPlan;
use crate::watchdog::{HealthEvent, Watchdog};
use crate::{ResilienceError, Result};
use md_core::wire::{crc32, Reader, Writer};
use md_core::CoreError;
use md_parallel::WorkloadCensus;
use md_workloads::Deck;

/// Knobs for the rollback-and-retry driver.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Total rollbacks allowed before the run aborts with a
    /// [`FailureReport`].
    pub max_retries: u32,
    /// In-memory snapshot cadence in steps (also the rollback granularity).
    pub snapshot_every: u64,
    /// Timestep multiplier applied by the shrink-timestep rung.
    pub dt_backoff: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 4,
            snapshot_every: 10,
            dt_backoff: 0.5,
        }
    }
}

/// One rung of the mitigation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mitigation {
    /// Force a neighbor-list rebuild at the rolled-back positions.
    RebuildNeighbors,
    /// Multiply the timestep by [`RecoveryPolicy::dt_backoff`].
    ShrinkTimestep,
    /// Tighten the long-range solver's accuracy target one notch.
    TightenKspace,
    /// Re-decompose over one fewer rank after a fail-stop crash (the final
    /// rung, driven by `rank-crash` events rather than the ladder).
    ShrinkCluster,
}

/// Ladder order: cheap and reversible first.
const LADDER: [Mitigation; 3] = [
    Mitigation::RebuildNeighbors,
    Mitigation::ShrinkTimestep,
    Mitigation::TightenKspace,
];

impl std::fmt::Display for Mitigation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mitigation::RebuildNeighbors => "rebuild-neighbors",
            Mitigation::ShrinkTimestep => "shrink-timestep",
            Mitigation::TightenKspace => "tighten-kspace",
            Mitigation::ShrinkCluster => "shrink-cluster",
        })
    }
}

/// Structured description of an unrecoverable run.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Step index at which the final violation was observed.
    pub step: u64,
    /// The violations observed at that step.
    pub events: Vec<HealthEvent>,
    /// Mitigations applied before giving up, in order.
    pub mitigations: Vec<Mitigation>,
    /// Rollbacks performed before giving up.
    pub rollbacks: u32,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecoverable at step {} after {} rollback(s)",
            self.step, self.rollbacks
        )?;
        if !self.mitigations.is_empty() {
            write!(f, " (tried:")?;
            for m in &self.mitigations {
                write!(f, " {m}")?;
            }
            write!(f, ")")?;
        }
        write!(f, ": ")?;
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{ev}")?;
        }
        Ok(())
    }
}

/// Magic tag framing a wire-encoded [`ShrinkReport`].
const SHRINK_TAG: u32 = 0x4d44_5352; // "MDSR"

/// Wire format version of [`ShrinkReport::encode`].
const SHRINK_VERSION: u32 = 1;

/// Structured record of one degraded-mode shrink: which rank died, where
/// the run rolled back to, and how the decomposition's modeled imbalance
/// changed when the box was re-split over the survivors.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkReport {
    /// Step the crash was scheduled at.
    pub step: u64,
    /// Snapshot step the run rolled back to before re-decomposing.
    pub rollback_step: u64,
    /// The fail-stopped rank.
    pub failed_rank: usize,
    /// Rank count before the shrink.
    pub ranks_before: usize,
    /// Rank count after the shrink.
    pub ranks_after: usize,
    /// Comm retry budget peers spent detecting the silence.
    pub retries_spent: u32,
    /// Census imbalance (`max/mean` owned atoms) of the pre-shrink
    /// decomposition, measured at the rolled-back positions.
    pub imbalance_before: f64,
    /// Census imbalance of the shrunken decomposition.
    pub imbalance_after: f64,
}

impl ShrinkReport {
    /// Measures the before/after decomposition census at the deck's current
    /// (rolled-back) positions and fills in the report.
    fn measure(
        deck: &Deck,
        step: u64,
        rollback_step: u64,
        failed_rank: usize,
        ranks_before: usize,
        retries_spent: u32,
    ) -> Result<Self> {
        let bx = *deck.simulation.sim_box();
        let x = deck.simulation.atoms().x();
        // Owned-atom imbalance only (a zero ghost cutoff), both rank counts
        // in one pass.
        let censuses = WorkloadCensus::measure_all(&bx, &[ranks_before, ranks_before - 1], x, 0.0)?;
        let (before, after) = (&censuses[0].1, &censuses[1].1);
        Ok(ShrinkReport {
            step,
            rollback_step,
            failed_rank,
            ranks_before,
            ranks_after: ranks_before - 1,
            retries_spent,
            imbalance_before: before.imbalance(),
            imbalance_after: after.imbalance(),
        })
    }

    /// Serializes the report (tagged, versioned, CRC-32 trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(SHRINK_TAG);
        w.u32(SHRINK_VERSION);
        w.u64(self.step);
        w.u64(self.rollback_step);
        w.usize(self.failed_rank);
        w.usize(self.ranks_before);
        w.usize(self.ranks_after);
        w.u32(self.retries_spent);
        w.f64(self.imbalance_before);
        w.f64(self.imbalance_after);
        let crc = crc32(w.bytes());
        w.u32(crc);
        w.into_bytes()
    }

    /// Deserializes a report produced by [`ShrinkReport::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptState`] on truncation, a bad tag or
    /// version, or a CRC-32 mismatch.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let corrupt = |detail: String| {
            ResilienceError::Core(CoreError::CorruptState {
                what: "shrink report",
                detail,
            })
        };
        if data.len() < 4 {
            return Err(corrupt("shorter than the CRC trailer".into()));
        }
        let (body, trailer) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
        if crc32(body) != stored {
            return Err(corrupt("CRC-32 mismatch".into()));
        }
        let mut r = Reader::new(body, "shrink report");
        if r.u32()? != SHRINK_TAG {
            return Err(corrupt("bad tag".into()));
        }
        let version = r.u32()?;
        if version != SHRINK_VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let report = ShrinkReport {
            step: r.u64()?,
            rollback_step: r.u64()?,
            failed_rank: r.usize()?,
            ranks_before: r.usize()?,
            ranks_after: r.usize()?,
            retries_spent: r.u32()?,
            imbalance_before: r.f64()?,
            imbalance_after: r.f64()?,
        };
        r.expect_exhausted()?;
        Ok(report)
    }
}

impl std::fmt::Display for ShrinkReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} failed at step {}; rolled back to step {} and re-decomposed over {} ranks \
             (imbalance {:.3} -> {:.3})",
            self.failed_rank,
            self.step,
            self.rollback_step,
            self.ranks_after,
            self.imbalance_before,
            self.imbalance_after
        )
    }
}

/// What a resilient run did, for callers and the harness to report.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Steps actually advanced (net of rollbacks).
    pub steps_run: u64,
    /// Health events observed (including those recovered from).
    pub violations: u64,
    /// Rollbacks performed.
    pub rollbacks: u32,
    /// Mitigations applied, in order.
    pub mitigations: Vec<Mitigation>,
    /// Disk checkpoints written.
    pub checkpoints_written: u64,
    /// Degraded-mode shrinks performed, in order.
    pub shrinks: Vec<ShrinkReport>,
}

impl RunSummary {
    /// Whether the run hit violations and still completed.
    pub fn recovered(&self) -> bool {
        self.violations > 0
    }
}

/// The rollback-and-retry driver. Owns the watchdog, the fault plan's
/// engine-side schedule, the in-memory snapshot, and (optionally) a disk
/// [`CheckpointManager`].
pub struct ResilientRunner {
    policy: RecoveryPolicy,
    watchdog: Watchdog,
    plan: FaultPlan,
    /// Consumed-once flags, one per `plan.engine_faults()` entry.
    consumed: Vec<bool>,
    /// Last healthy `(step, state)` snapshot.
    snapshot: Option<(u64, Vec<u8>)>,
    checkpoints: Option<(CheckpointManager, u64)>,
    /// Surviving virtual-cluster rank count, when the degraded-mode shrink
    /// is armed via [`ResilientRunner::with_cluster`].
    cluster_ranks: Option<usize>,
    /// Comm retry budget recorded in each [`ShrinkReport`].
    max_rank_retries: u32,
    /// Handled-once flags, one per `plan.crashes()` entry.
    crash_handled: Vec<bool>,
}

impl ResilientRunner {
    /// Creates a runner. `plan`'s engine faults will be injected (once
    /// each) at their scheduled steps; pass `FaultPlan::default()` for a
    /// healthy run.
    pub fn new(policy: RecoveryPolicy, watchdog: Watchdog, plan: FaultPlan) -> Self {
        let consumed = vec![false; plan.engine_faults().len()];
        let crash_handled = vec![false; plan.crashes().len()];
        ResilientRunner {
            policy,
            watchdog,
            plan,
            consumed,
            snapshot: None,
            checkpoints: None,
            cluster_ranks: None,
            max_rank_retries: 3,
            crash_handled,
        }
    }

    /// Arms the degraded-mode shrink: the virtual cluster starts with
    /// `ranks` ranks, and each `rank-crash` fault in the plan rolls the run
    /// back to the last snapshot and re-decomposes over one fewer rank.
    /// `max_rank_retries` is the comm retry budget peers spend detecting
    /// the silence, recorded in each [`ShrinkReport`].
    pub fn with_cluster(mut self, ranks: usize, max_rank_retries: u32) -> Self {
        self.cluster_ranks = Some(ranks);
        self.max_rank_retries = max_rank_retries;
        self
    }

    /// Also write disk checkpoints through `manager` (at its own cadence),
    /// stamping them with `seed` as the deck-recipe seed.
    pub fn with_checkpoints(mut self, manager: CheckpointManager, seed: u64) -> Self {
        self.checkpoints = Some((manager, seed));
        self
    }

    /// The watchdog (e.g. to read `events_seen` after a run).
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Advances `deck` by `nsteps` net steps, recovering from violations
    /// per the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ResilienceError::Unrecoverable`] when the retry budget is
    /// exhausted, and propagates checkpoint I/O or rollback-restore
    /// failures directly.
    pub fn run(&mut self, deck: &mut Deck, nsteps: u64) -> Result<RunSummary> {
        let start = deck.simulation.step_index();
        let target = start + nsteps;
        let mut summary = RunSummary::default();
        // Ladder position; resets after a clean snapshot interval.
        let mut escalation: usize = 0;

        self.snapshot = Some((start, deck.simulation.save_state()));

        while deck.simulation.step_index() < target {
            let step = deck.simulation.step_index();

            // Fail-stop crashes due at or before this step trigger the
            // final rung: roll back and shrink the cluster (handled once
            // per event; ignored when the shrink is not armed).
            let crashes = self.plan.crashes();
            for i in 0..crashes.len() {
                let (rank, crash_step) = crashes[i];
                if crash_step > step || self.crash_handled[i] {
                    continue;
                }
                self.crash_handled[i] = true;
                let Some(ranks_now) = self.cluster_ranks else {
                    continue;
                };
                let event = HealthEvent::RankFailed {
                    rank,
                    retries: self.max_rank_retries,
                };
                deck.simulation.recorder().count(0, event.counter(), 1.0);
                summary.violations += 1;
                if ranks_now <= 1 || summary.rollbacks >= self.policy.max_retries {
                    return Err(ResilienceError::Unrecoverable(Box::new(FailureReport {
                        step,
                        events: vec![event],
                        mitigations: summary.mitigations.clone(),
                        rollbacks: summary.rollbacks,
                    })));
                }
                // Roll back to the last healthy snapshot; the survivors
                // replay the lost steps, so the post-shrink trajectory is
                // bitwise the crash-free one (no physics knob moves).
                let (snap_step, state) = self
                    .snapshot
                    .as_ref()
                    .expect("snapshot taken before stepping");
                let snap_step = *snap_step;
                deck.simulation.load_state(state)?;
                self.watchdog.reset_reference();
                summary.rollbacks += 1;
                let rec = deck.simulation.recorder();
                rec.count(0, "recovery_rollback", 1.0);
                rec.count(0, "recovery_mitigation", 1.0);
                rec.count(0, "recovery_shrink", 1.0);
                let report = ShrinkReport::measure(
                    deck,
                    crash_step,
                    snap_step,
                    rank,
                    ranks_now,
                    self.max_rank_retries,
                )?;
                self.cluster_ranks = Some(ranks_now - 1);
                summary.mitigations.push(Mitigation::ShrinkCluster);
                summary.shrinks.push(report);
            }
            // The rollback may have rewound past `step`; re-read it.
            let step = deck.simulation.step_index();

            // Inject engine faults due before this step (consumed once).
            for (i, fault) in self.plan.engine_faults().iter().enumerate() {
                if fault.step == step && !self.consumed[i] {
                    self.consumed[i] = true;
                    fault.inject(&mut deck.simulation)?;
                }
            }

            let mut events = match deck.simulation.step() {
                Ok(()) => self.watchdog.check(&deck.simulation),
                Err(e) => vec![HealthEvent::StepFailed {
                    message: e.to_string(),
                }],
            };
            // A step error is also mirrored to the health counters.
            if let Some(HealthEvent::StepFailed { .. }) = events.first() {
                let ev = &events[0];
                deck.simulation.recorder().count(0, ev.counter(), 1.0);
            }

            if events.is_empty() {
                let step = deck.simulation.step_index();
                if self.policy.snapshot_every > 0 && step.is_multiple_of(self.policy.snapshot_every)
                {
                    self.snapshot = Some((step, deck.simulation.save_state()));
                    // A full clean interval: the transient is behind us.
                    escalation = 0;
                    if let Some((mgr, seed)) = &self.checkpoints {
                        if mgr.due(step) {
                            mgr.save(deck, *seed)?;
                            summary.checkpoints_written += 1;
                        }
                    }
                }
                continue;
            }

            summary.violations += events.len() as u64;
            if summary.rollbacks >= self.policy.max_retries || escalation >= LADDER.len() {
                return Err(ResilienceError::Unrecoverable(Box::new(FailureReport {
                    step: deck.simulation.step_index(),
                    events: std::mem::take(&mut events),
                    mitigations: summary.mitigations.clone(),
                    rollbacks: summary.rollbacks,
                })));
            }

            // Roll back to the last healthy snapshot and escalate.
            let (snap_step, state) = self
                .snapshot
                .as_ref()
                .expect("snapshot taken before stepping");
            deck.simulation.load_state(state)?;
            debug_assert_eq!(deck.simulation.step_index(), *snap_step);
            self.watchdog.reset_reference();
            summary.rollbacks += 1;
            deck.simulation
                .recorder()
                .count(0, "recovery_rollback", 1.0);

            let rung = LADDER[escalation];
            escalation += 1;
            match rung {
                Mitigation::RebuildNeighbors => deck.simulation.force_neighbor_rebuild()?,
                Mitigation::ShrinkTimestep => {
                    let dt = deck.simulation.dt() * self.policy.dt_backoff;
                    deck.simulation.set_dt(dt)?;
                }
                Mitigation::TightenKspace => {
                    // Decks without a long-range solver burn the rung as a
                    // plain retry; the next escalation aborts.
                    let _ = deck.simulation.tighten_kspace()?;
                }
                // Driven by rank-crash events above, never by the ladder.
                Mitigation::ShrinkCluster => unreachable!("not a ladder rung"),
            }
            summary.mitigations.push(rung);
            deck.simulation
                .recorder()
                .count(0, "recovery_mitigation", 1.0);
        }

        summary.steps_run = deck.simulation.step_index() - start;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::WatchdogConfig;
    use md_core::Threads;
    use md_workloads::{build_deck_with, Benchmark};

    fn lj(seed: u64) -> Deck {
        build_deck_with(Benchmark::Lj, 1, seed, Threads::serial()).unwrap()
    }

    fn fingerprint(deck: &Deck) -> Vec<u64> {
        deck.simulation
            .atoms()
            .x()
            .iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    }

    #[test]
    fn healthy_run_matches_plain_run_bitwise() {
        let mut plain = lj(5);
        plain.simulation.run(20).unwrap();

        let mut guarded = lj(5);
        let mut runner = ResilientRunner::new(
            RecoveryPolicy::default(),
            Watchdog::new(WatchdogConfig::default()),
            FaultPlan::default(),
        );
        let summary = runner.run(&mut guarded, 20).unwrap();
        assert_eq!(summary.steps_run, 20);
        assert_eq!(summary.violations, 0);
        assert!(!summary.recovered());
        assert_eq!(fingerprint(&plain), fingerprint(&guarded));
    }

    #[test]
    fn recovers_from_injected_force_flip() {
        let mut deck = lj(5);
        let plan = FaultPlan::parse("force-flip:3@7").unwrap();
        let mut runner = ResilientRunner::new(
            RecoveryPolicy {
                snapshot_every: 5,
                ..RecoveryPolicy::default()
            },
            Watchdog::new(WatchdogConfig::default()),
            plan,
        );
        let summary = runner.run(&mut deck, 20).unwrap();
        assert_eq!(summary.steps_run, 20, "run completes without help");
        assert!(summary.violations > 0, "the flip was detected");
        assert!(summary.rollbacks >= 1, "and rolled back");
        assert!(summary.recovered());
        assert_eq!(deck.simulation.step_index(), 20);
        // The post-recovery state is healthy.
        assert!(deck
            .simulation
            .atoms()
            .f()
            .iter()
            .all(|f| { f.x.is_finite() && f.y.is_finite() && f.z.is_finite() }));
    }

    #[test]
    fn retry_budget_exhaustion_is_a_structured_failure() {
        let mut deck = lj(5);
        // Flips on consecutive steps outnumber a 1-retry budget.
        let plan = FaultPlan::parse("force-flip:1@3,force-flip:2@4").unwrap();
        let mut runner = ResilientRunner::new(
            RecoveryPolicy {
                max_retries: 1,
                snapshot_every: 50,
                ..RecoveryPolicy::default()
            },
            Watchdog::new(WatchdogConfig::default()),
            plan,
        );
        let err = runner.run(&mut deck, 20).unwrap_err();
        match err {
            ResilienceError::Unrecoverable(report) => {
                assert_eq!(report.rollbacks, 1);
                assert!(!report.events.is_empty());
                let text = report.to_string();
                assert!(text.contains("unrecoverable"), "{text}");
                assert!(text.contains("rebuild-neighbors"), "{text}");
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    #[test]
    fn ladder_escalates_in_order() {
        let mut deck = lj(5);
        // Three faults, each caught and rolled back: the ladder should walk
        // rebuild -> shrink -> tighten before any reset.
        let plan = FaultPlan::parse("force-flip:1@3,force-flip:2@4,force-flip:3@5").unwrap();
        let mut runner = ResilientRunner::new(
            RecoveryPolicy {
                max_retries: 10,
                snapshot_every: 50, // no clean-interval reset inside the burst
                ..RecoveryPolicy::default()
            },
            Watchdog::new(WatchdogConfig::default()),
            plan,
        );
        let summary = runner.run(&mut deck, 20).unwrap();
        assert_eq!(
            summary.mitigations,
            vec![
                Mitigation::RebuildNeighbors,
                Mitigation::ShrinkTimestep,
                Mitigation::TightenKspace,
            ]
        );
        assert_eq!(summary.rollbacks, 3);
        assert_eq!(deck.simulation.step_index(), 20);
    }

    #[test]
    fn rank_crash_shrinks_and_matches_clean_trajectory_bitwise() {
        let mut clean = lj(5);
        clean.simulation.run(20).unwrap();

        let mut deck = lj(5);
        let plan = FaultPlan::parse("rank-crash:1@7").unwrap();
        let mut runner = ResilientRunner::new(
            RecoveryPolicy {
                snapshot_every: 5,
                ..RecoveryPolicy::default()
            },
            Watchdog::new(WatchdogConfig::default()),
            plan,
        )
        .with_cluster(8, 3);
        let summary = runner.run(&mut deck, 20).unwrap();
        assert_eq!(summary.steps_run, 20);
        assert_eq!(summary.rollbacks, 1);
        assert_eq!(summary.mitigations, vec![Mitigation::ShrinkCluster]);
        assert_eq!(summary.shrinks.len(), 1);
        let report = &summary.shrinks[0];
        assert_eq!(report.failed_rank, 1);
        assert_eq!(report.step, 7);
        assert_eq!(report.rollback_step, 5, "last snapshot before the crash");
        assert_eq!(report.ranks_before, 8);
        assert_eq!(report.ranks_after, 7);
        assert_eq!(report.retries_spent, 3);
        assert!(report.imbalance_before >= 1.0 && report.imbalance_after >= 1.0);
        // The shrink touches no physics knob: the post-shrink trajectory is
        // bitwise the crash-free one.
        assert_eq!(fingerprint(&clean), fingerprint(&deck));
        // And the shrink is deterministic across two identical runs.
        let mut again = lj(5);
        let mut runner2 = ResilientRunner::new(
            RecoveryPolicy {
                snapshot_every: 5,
                ..RecoveryPolicy::default()
            },
            Watchdog::new(WatchdogConfig::default()),
            FaultPlan::parse("rank-crash:1@7").unwrap(),
        )
        .with_cluster(8, 3);
        let summary2 = runner2.run(&mut again, 20).unwrap();
        assert_eq!(summary.shrinks, summary2.shrinks);
        assert_eq!(fingerprint(&deck), fingerprint(&again));
    }

    #[test]
    fn crash_with_one_rank_left_is_a_structured_failure() {
        let mut deck = lj(5);
        let plan = FaultPlan::parse("rank-crash:1@5,rank-crash:0@9").unwrap();
        let mut runner = ResilientRunner::new(
            RecoveryPolicy {
                snapshot_every: 5,
                ..RecoveryPolicy::default()
            },
            Watchdog::new(WatchdogConfig::default()),
            plan,
        )
        .with_cluster(2, 3);
        let err = runner.run(&mut deck, 20).unwrap_err();
        match err {
            ResilienceError::Unrecoverable(report) => {
                assert!(matches!(
                    report.events[..],
                    [HealthEvent::RankFailed { rank: 0, .. }]
                ));
                assert_eq!(report.mitigations, vec![Mitigation::ShrinkCluster]);
                let text = report.to_string();
                assert!(text.contains("declared failed"), "{text}");
                assert!(text.contains("shrink-cluster"), "{text}");
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    #[test]
    fn crashes_without_an_armed_cluster_are_ignored() {
        let mut deck = lj(5);
        let plan = FaultPlan::parse("rank-crash:1@7").unwrap();
        let mut runner = ResilientRunner::new(
            RecoveryPolicy::default(),
            Watchdog::new(WatchdogConfig::default()),
            plan,
        );
        let summary = runner.run(&mut deck, 20).unwrap();
        assert_eq!(summary.rollbacks, 0);
        assert!(summary.shrinks.is_empty());
    }

    #[test]
    fn shrink_report_round_trips_and_rejects_corruption() {
        let report = ShrinkReport {
            step: 42,
            rollback_step: 40,
            failed_rank: 3,
            ranks_before: 8,
            ranks_after: 7,
            retries_spent: 3,
            imbalance_before: 1.25,
            imbalance_after: 1.125,
        };
        let bytes = report.encode();
        assert_eq!(ShrinkReport::decode(&bytes).unwrap(), report);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(ShrinkReport::decode(&bad).is_err(), "byte {i} undetected");
        }
        assert!(ShrinkReport::decode(&bytes[..bytes.len() - 5]).is_err());
    }

    #[test]
    fn disk_checkpoints_are_written_at_cadence() {
        let dir = std::env::temp_dir().join(format!("mdres_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(&dir, 10, 0).unwrap();
        let mut deck = lj(5);
        let mut runner = ResilientRunner::new(
            RecoveryPolicy {
                snapshot_every: 5,
                ..RecoveryPolicy::default()
            },
            Watchdog::new(WatchdogConfig::default()),
            FaultPlan::default(),
        )
        .with_checkpoints(mgr, 5);
        let summary = runner.run(&mut deck, 20).unwrap();
        assert_eq!(summary.checkpoints_written, 2, "steps 10 and 20");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
