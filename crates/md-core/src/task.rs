//! The LAMMPS task taxonomy (Table 1 of the paper) and per-task time ledgers.
//!
//! Every phase of a timestep is attributed to one of eight computational
//! tasks. Both the real engine (wall-clock seconds) and the virtual cluster
//! (simulated seconds) account their time through [`TaskLedger`], so the
//! harness can regenerate the runtime-breakdown figures (Figs. 3, 7, 11)
//! from either source.

use std::time::Instant;

/// The computational tasks of a LAMMPS timestep (paper Table 1).
///
/// The variants map onto the steps of the reference timestep structure
/// (paper Figure 1): `Modify` covers fixes including time integration (II),
/// `Neigh` is neighbor-list construction (III), `Comm` is inter-processor
/// exchange (IV), `Pair` is the pairwise potential (V), `Kspace` the
/// long-range solver (VI), `Bond` the bonded forces (VII), and `Output` the
/// thermodynamic output (VIII). Everything else is `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Computation of bonded forces.
    Bond,
    /// Inter-processor communication of atoms and their properties.
    Comm,
    /// Computation of long-range interaction forces.
    Kspace,
    /// Fixes and computes invoked by fixes (integration, SHAKE, thermostats).
    Modify,
    /// Neighbor-list construction.
    Neigh,
    /// Output of thermodynamic info and dump files.
    Output,
    /// Computation of the pairwise potential.
    Pair,
    /// All other tasks.
    Other,
}

impl TaskKind {
    /// All tasks in the alphabetical order the paper's figure legends use.
    pub const ALL: [TaskKind; 8] = [
        TaskKind::Bond,
        TaskKind::Comm,
        TaskKind::Kspace,
        TaskKind::Modify,
        TaskKind::Neigh,
        TaskKind::Other,
        TaskKind::Output,
        TaskKind::Pair,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::Bond => "Bond",
            TaskKind::Comm => "Comm",
            TaskKind::Kspace => "Kspace",
            TaskKind::Modify => "Modify",
            TaskKind::Neigh => "Neigh",
            TaskKind::Output => "Output",
            TaskKind::Pair => "Pair",
            TaskKind::Other => "Other",
        }
    }

    /// Index of this task in [`TaskKind::ALL`].
    pub fn index(self) -> usize {
        TaskKind::ALL
            .iter()
            .position(|&t| t == self)
            .expect("task in ALL")
    }
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated time per task, in seconds (wall-clock or simulated).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskLedger {
    seconds: [f64; 8],
    /// Number of timed phases attributed to each task. Unlike `seconds`
    /// (wall clock, noisy), the counts are exact integers: the
    /// thread-invariance suite asserts they are identical across thread
    /// counts, proving the threaded kernels execute the same step structure.
    counts: [u64; 8],
}

impl TaskLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TaskLedger::default()
    }

    /// Adds `seconds` to `task` and counts the phase.
    #[inline]
    pub fn add(&mut self, task: TaskKind, seconds: f64) {
        self.seconds[task.index()] += seconds;
        self.counts[task.index()] += 1;
    }

    /// Time accumulated for `task`.
    pub fn seconds(&self, task: TaskKind) -> f64 {
        self.seconds[task.index()]
    }

    /// Number of timed phases attributed to `task`.
    pub fn count(&self, task: TaskKind) -> u64 {
        self.counts[task.index()]
    }

    /// Per-task phase counts in [`TaskKind::ALL`] order (the deterministic
    /// step-structure fingerprint used by `tests/thread_invariance.rs`).
    pub fn step_counts(&self) -> [u64; 8] {
        self.counts
    }

    /// Total time across all tasks.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Percentage share of `task` (0..=100).
    ///
    /// Returns `0.0` whenever [`TaskLedger::total`] is zero — a freshly
    /// created ledger, one that was [`TaskLedger::reset`], or one where
    /// every recorded duration was zero. The shares therefore do **not**
    /// sum to 100 in that case (they sum to 0).
    pub fn percent(&self, task: TaskKind) -> f64 {
        let t = self.total();
        if t > 0.0 {
            100.0 * self.seconds(task) / t
        } else {
            0.0
        }
    }

    /// Times a closure and attributes the elapsed wall-clock time to `task`.
    pub fn time<T>(&mut self, task: TaskKind, body: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = body();
        self.add(task, t0.elapsed().as_secs_f64());
        out
    }

    /// The componentwise difference `self - before` (seconds and counts),
    /// for reporting only one run's share of a cumulative ledger.
    /// Saturates at zero; `before` is expected to be a prior snapshot.
    pub fn delta_since(&self, before: &TaskLedger) -> TaskLedger {
        let mut out = TaskLedger::new();
        for i in 0..8 {
            out.seconds[i] = (self.seconds[i] - before.seconds[i]).max(0.0);
            out.counts[i] = self.counts[i].saturating_sub(before.counts[i]);
        }
        out
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &TaskLedger) {
        for i in 0..8 {
            self.seconds[i] += other.seconds[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// Per-task maximum over a set of ledgers (the per-rank *worst case*:
    /// with bulk-synchronous ranks, the slowest rank in each task bounds the
    /// step, so `max_across` of the rank ledgers is the critical-path view
    /// the paper's imbalance analysis compares against the mean).
    ///
    /// Returns an empty ledger for an empty slice.
    pub fn max_across(ledgers: &[TaskLedger]) -> TaskLedger {
        let mut out = TaskLedger::new();
        for l in ledgers {
            for i in 0..8 {
                out.seconds[i] = out.seconds[i].max(l.seconds[i]);
                out.counts[i] = out.counts[i].max(l.counts[i]);
            }
        }
        out
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.seconds = [0.0; 8];
        self.counts = [0; 8];
    }

    /// `(task, seconds)` pairs in legend order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskKind, f64)> + '_ {
        TaskKind::ALL.iter().map(move |&t| (t, self.seconds(t)))
    }

    /// Appends the ledger for a checkpoint (seconds then counts, in
    /// [`TaskKind::ALL`] order).
    pub fn state_save(&self, w: &mut crate::wire::Writer) {
        w.f64s(&self.seconds);
        w.u64s(&self.counts);
    }

    /// Restores a ledger written by [`TaskLedger::state_save`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CorruptState`] on a malformed blob.
    pub fn state_load(&mut self, r: &mut crate::wire::Reader<'_>) -> crate::error::Result<()> {
        let corrupt = |n: usize| crate::CoreError::CorruptState {
            what: "task ledger",
            detail: format!("expected 8 slots, found {n}"),
        };
        let seconds = r.f64s()?;
        self.seconds = seconds.try_into().map_err(|v: Vec<f64>| corrupt(v.len()))?;
        let counts = r.u64s()?;
        self.counts = counts.try_into().map_err(|v: Vec<u64>| corrupt(v.len()))?;
        Ok(())
    }
}

impl std::fmt::Display for TaskLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total();
        write!(f, "total {total:.4}s [")?;
        let mut first = true;
        for (t, s) in self.iter() {
            if s > 0.0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{t} {:.1}%", 100.0 * s / total)?;
                first = false;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_and_percentages() {
        let mut l = TaskLedger::new();
        l.add(TaskKind::Pair, 3.0);
        l.add(TaskKind::Neigh, 1.0);
        assert_eq!(l.total(), 4.0);
        assert_eq!(l.percent(TaskKind::Pair), 75.0);
        assert_eq!(l.percent(TaskKind::Kspace), 0.0);
    }

    #[test]
    fn time_closure_attributes_wall_clock() {
        let mut l = TaskLedger::new();
        let out = l.time(TaskKind::Other, || {
            std::hint::black_box((0..10_000).sum::<u64>())
        });
        assert_eq!(out, 49_995_000);
        assert!(l.seconds(TaskKind::Other) > 0.0);
    }

    #[test]
    fn counts_track_phases_exactly() {
        let mut l = TaskLedger::new();
        l.add(TaskKind::Pair, 0.5);
        l.add(TaskKind::Pair, 0.0); // zero-duration phases still count
        l.add(TaskKind::Neigh, 0.1);
        assert_eq!(l.count(TaskKind::Pair), 2);
        assert_eq!(l.count(TaskKind::Neigh), 1);
        assert_eq!(l.count(TaskKind::Bond), 0);
        let mut other = TaskLedger::new();
        other.add(TaskKind::Pair, 1.0);
        l.merge(&other);
        assert_eq!(l.count(TaskKind::Pair), 3);
        l.reset();
        assert_eq!(l.step_counts(), [0; 8]);
    }

    #[test]
    fn merge_sums_componentwise() {
        let mut a = TaskLedger::new();
        a.add(TaskKind::Bond, 1.0);
        let mut b = TaskLedger::new();
        b.add(TaskKind::Bond, 2.0);
        b.add(TaskKind::Comm, 0.5);
        a.merge(&b);
        assert_eq!(a.seconds(TaskKind::Bond), 3.0);
        assert_eq!(a.seconds(TaskKind::Comm), 0.5);
    }

    #[test]
    fn all_covers_every_label_once() {
        let labels: std::collections::HashSet<_> =
            TaskKind::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn empty_ledger_percent_is_zero() {
        let l = TaskLedger::new();
        assert_eq!(l.percent(TaskKind::Pair), 0.0);
        // Zero-duration entries leave total() at zero too; shares stay 0.
        let mut z = TaskLedger::new();
        z.add(TaskKind::Pair, 0.0);
        assert_eq!(z.percent(TaskKind::Pair), 0.0);
    }

    #[test]
    fn max_across_takes_componentwise_maximum() {
        let mut a = TaskLedger::new();
        a.add(TaskKind::Pair, 3.0);
        a.add(TaskKind::Comm, 0.2);
        let mut b = TaskLedger::new();
        b.add(TaskKind::Pair, 1.0);
        b.add(TaskKind::Comm, 0.9);
        b.add(TaskKind::Kspace, 0.4);
        let m = TaskLedger::max_across(&[a, b]);
        assert_eq!(m.seconds(TaskKind::Pair), 3.0);
        assert_eq!(m.seconds(TaskKind::Comm), 0.9);
        assert_eq!(m.seconds(TaskKind::Kspace), 0.4);
        assert_eq!(m.seconds(TaskKind::Bond), 0.0);
        // Empty input gives an empty ledger.
        assert_eq!(TaskLedger::max_across(&[]), TaskLedger::new());
    }

    #[test]
    fn observe_task_labels_match_taxonomy_order() {
        // md-observe is a leaf crate and cannot see TaskKind; its slot
        // order is a mirror of TaskKind::ALL, pinned here.
        assert_eq!(md_observe::NUM_TASKS, TaskKind::ALL.len());
        for (i, t) in TaskKind::ALL.iter().enumerate() {
            assert_eq!(md_observe::TASK_LABELS[i], t.label(), "slot {i}");
            assert_eq!(t.index(), i);
        }
    }
}
