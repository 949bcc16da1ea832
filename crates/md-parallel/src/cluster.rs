//! The virtual cluster: MPI ranks on simulated clocks.
//!
//! Each rank owns a virtual clock (seconds of simulated wall time), a
//! per-task ledger ([`md_core::TaskLedger`]) and a per-MPI-function ledger
//! ([`crate::MpiLedger`]). Compute advances one clock; communication
//! operations synchronize clocks bulk-synchronously through a
//! latency/bandwidth [`LinkModel`]. Skew between clocks at a synchronization
//! point becomes `MPI_Wait` time — which is exactly how the paper's "MPI
//! imbalance" metric arises from heterogeneous per-rank work.

use crate::mpi::{MpiFunction, MpiLedger};
use md_core::{TaskKind, TaskLedger};
use md_observe::Recorder;
use std::sync::Arc;

/// First trace lane used by virtual ranks (lane 0 is the real engine).
const RANK_LANE_BASE: u32 = 1;

/// Simulated seconds → trace microseconds.
const US: f64 = 1e6;

/// A latency/bandwidth model of one communication link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Per-message latency, seconds.
    pub latency: f64,
    /// Sustained bandwidth, bytes/second.
    pub bandwidth: f64,
}

impl LinkModel {
    /// Transfer time of `bytes` over this link.
    pub fn transfer(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

/// One virtual MPI rank.
#[derive(Debug, Clone, Default)]
struct VirtualRank {
    clock: f64,
    tasks: TaskLedger,
    mpi: MpiLedger,
}

/// A deterministic fault model queried by the virtual cluster.
///
/// Both queries are pure functions of `(rank, step)`, so an injected fault
/// schedule is reproducible run to run. Defaults model a healthy cluster.
pub trait ClusterFaults: Send + Sync {
    /// Multiplier on rank `rank`'s compute time at `step` (`> 1` models a
    /// degraded core, thermal throttling, or a noisy neighbor).
    fn compute_scale(&self, _rank: usize, _step: u64) -> f64 {
        1.0
    }

    /// Extra seconds rank `rank`'s clock stalls at the top of `step`
    /// (transient hang: page fault storm, OS jitter, GC on a shared node).
    fn stall_seconds(&self, _rank: usize, _step: u64) -> f64 {
        0.0
    }
}

/// One timestep's critical-path attribution: the rank whose work bounded
/// the step (ties go to the lowest rank) and the task that rank spent the
/// most time in while doing so. A sequence of these is the chain of
/// (rank, task) pairs that bulk-synchronous execution actually waited on —
/// the per-step refinement of [`TaskLedger::max_across`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalStep {
    /// Timestep index.
    pub step: u64,
    /// Rank whose clock bounded the step.
    pub rank: usize,
    /// Simulated seconds the cluster-wide frontier advanced this step.
    pub seconds: f64,
    /// The bounding rank's dominant task during the step.
    pub task: TaskKind,
    /// Seconds the bounding rank spent in that dominant task.
    pub task_seconds: f64,
}

/// Per-step snapshot taken at `begin_step` so the closing bookkeeping can
/// compute deltas.
#[derive(Debug, Clone)]
struct OpenStep {
    step: u64,
    start_max_clock: f64,
    tasks: Vec<TaskLedger>,
    /// Per-rank skew-wait seconds at step open, so closing can separate
    /// work from time spent waiting on slower ranks.
    skews: Vec<f64>,
}

/// A set of virtual ranks evolving bulk-synchronously.
#[derive(Clone)]
pub struct VirtualCluster {
    ranks: Vec<VirtualRank>,
    recorder: Recorder,
    faults: Option<Arc<dyn ClusterFaults>>,
    /// Step index faults are queried at (set by [`VirtualCluster::begin_step`]).
    current_step: u64,
    /// Whether per-step critical-path records are kept.
    track_steps: bool,
    /// The step currently being accumulated (tracking only).
    open_step: Option<OpenStep>,
    /// Closed per-step critical-path records (tracking only).
    critical: Vec<CriticalStep>,
}

impl std::fmt::Debug for VirtualCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualCluster")
            .field("ranks", &self.ranks)
            .field("current_step", &self.current_step)
            .field("faults", &self.faults.is_some())
            .finish_non_exhaustive()
    }
}

impl VirtualCluster {
    /// Creates `n` ranks with zeroed clocks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cluster needs at least one rank");
        VirtualCluster {
            ranks: vec![VirtualRank::default(); n],
            recorder: Recorder::disabled(),
            faults: None,
            current_step: 0,
            track_steps: false,
            open_step: None,
            critical: Vec::new(),
        }
    }

    /// Attaches a fault model. Subsequent compute and halo operations are
    /// perturbed according to the model at the step index most recently
    /// passed to [`VirtualCluster::begin_step`].
    pub fn set_faults(&mut self, faults: Arc<dyn ClusterFaults>) {
        self.faults = Some(faults);
    }

    /// Step index faults are currently queried at.
    pub fn current_step(&self) -> u64 {
        self.current_step
    }

    /// Marks the beginning of timestep `step` and applies any scheduled
    /// rank stalls: a stalled rank's clock silently advances before it does
    /// any work, which downstream synchronization points convert into
    /// `MPI_Wait` on every *other* rank — the paper's imbalance mechanism,
    /// triggered by a fault instead of a decomposition artifact.
    pub fn begin_step(&mut self, step: u64) {
        self.current_step = step;
        if self.track_steps {
            self.close_open_step();
            self.open_step = Some(OpenStep {
                step,
                start_max_clock: self.max_clock(),
                tasks: self.ranks.iter().map(|r| r.tasks.clone()).collect(),
                skews: self.ranks.iter().map(|r| r.mpi.skew_seconds()).collect(),
            });
        }
        let Some(faults) = self.faults.clone() else {
            return;
        };
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            let stall = faults.stall_seconds(r, step);
            if stall > 0.0 {
                let lane = Self::lane(r);
                self.recorder.record_span_at(
                    lane,
                    "fault",
                    "rank_stall",
                    rank.clock * US,
                    stall * US,
                );
                self.recorder.count(lane, "fault_rank_stall", 1.0);
                rank.clock += stall;
                rank.tasks.add(TaskKind::Other, stall);
            }
        }
    }

    /// Attaches an observability recorder. Every rank gets its own trace
    /// lane (`1..=nranks`, lane 0 is the real engine); compute and MPI
    /// operations are recorded as spans at *simulated* timestamps, so the
    /// exported Chrome trace shows the paper's imbalance as a timeline.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        for r in 0..self.nranks() {
            recorder.set_lane_name(Self::lane(r), format!("rank {r}"));
        }
        if self.track_steps {
            recorder.set_lane_name(self.critical_lane(), "critical_path");
        }
        self.recorder = recorder;
    }

    /// Trace lane of rank `r`.
    fn lane(r: usize) -> u32 {
        RANK_LANE_BASE + r as u32
    }

    /// Trace lane of the critical-path timeline (one past the rank lanes).
    pub fn critical_lane(&self) -> u32 {
        RANK_LANE_BASE + self.nranks() as u32
    }

    /// Turns on per-step critical-path tracking: every
    /// [`VirtualCluster::begin_step`] closes the previous step into a
    /// [`CriticalStep`] record (call [`VirtualCluster::finish_step_tracking`]
    /// after the last step), and each record is also emitted as a span on a
    /// dedicated `critical_path` trace lane at simulated timestamps.
    pub fn enable_step_tracking(&mut self) {
        self.track_steps = true;
        self.recorder
            .set_lane_name(self.critical_lane(), "critical_path");
    }

    /// Closes the step currently being tracked (the per-step loop only
    /// opens steps; the last one has no successor to close it).
    pub fn finish_step_tracking(&mut self) {
        self.close_open_step();
    }

    /// The per-step critical-path records collected so far.
    pub fn critical_path(&self) -> &[CriticalStep] {
        &self.critical
    }

    /// Folds the open step (if any) into a [`CriticalStep`]: the rank that
    /// did the most *work* this step — ledger time minus skew-wait, i.e. the
    /// rank everyone else waited on — bounded it; its largest per-task time
    /// delta since the step opened names the bounding task. (Raw clocks
    /// can't be compared here: synchronization points equalize them, so the
    /// slowest rank's clock is no higher than its waiters'.)
    fn close_open_step(&mut self) {
        let Some(open) = self.open_step.take() else {
            return;
        };
        let work = |r: usize| {
            let busy = self.ranks[r].tasks.delta_since(&open.tasks[r]).total();
            let waited = self.ranks[r].mpi.skew_seconds() - open.skews[r];
            (busy - waited).max(0.0)
        };
        let bound = (0..self.nranks())
            .max_by(|&a, &b| {
                work(a)
                    .partial_cmp(&work(b))
                    .expect("finite seconds")
                    // Ties go to the lowest rank.
                    .then(b.cmp(&a))
            })
            .expect("at least one rank");
        let delta = self.ranks[bound].tasks.delta_since(&open.tasks[bound]);
        let (task, task_seconds) = TaskKind::ALL
            .iter()
            .map(|&t| (t, delta.seconds(t)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite seconds"))
            .expect("eight tasks");
        let seconds = (self.max_clock() - open.start_max_clock).max(0.0);
        if seconds > 0.0 {
            self.recorder.record_span_at(
                self.critical_lane(),
                "critical",
                task.label(),
                open.start_max_clock * US,
                seconds * US,
            );
        }
        self.critical.push(CriticalStep {
            step: open.step,
            rank: bound,
            seconds,
            task,
            task_seconds,
        });
    }

    /// Per-rank task ledgers, rank order (owned snapshot).
    pub fn rank_task_ledgers(&self) -> Vec<TaskLedger> {
        self.ranks.iter().map(|r| r.tasks.clone()).collect()
    }

    /// Per-rank MPI ledgers, rank order (owned snapshot).
    pub fn rank_mpi_ledgers(&self) -> Vec<MpiLedger> {
        self.ranks.iter().map(|r| r.mpi.clone()).collect()
    }

    /// Per-rank virtual clocks, rank order.
    pub fn rank_clocks(&self) -> Vec<f64> {
        self.ranks.iter().map(|r| r.clock).collect()
    }

    /// Rank count.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Advances rank `r` by `seconds` of compute attributed to `task`.
    ///
    /// An attached fault model may scale the time (rank slowdown faults).
    pub fn compute(&mut self, r: usize, task: TaskKind, seconds: f64) {
        let seconds = match &self.faults {
            Some(f) => {
                let scale = f.compute_scale(r, self.current_step);
                if scale != 1.0 {
                    self.recorder.count(Self::lane(r), "fault_rank_slow", 1.0);
                }
                seconds * scale
            }
            None => seconds,
        };
        let rank = &mut self.ranks[r];
        self.recorder.record_span_at(
            Self::lane(r),
            "task",
            task.label(),
            rank.clock * US,
            seconds * US,
        );
        rank.clock += seconds;
        rank.tasks.add(task, seconds);
    }

    /// Models `MPI_Init`: every rank pays `base + per_rank · P` seconds
    /// (the paper observes the per-rank `MPI_Init` cost *grows* with the
    /// number of processes).
    pub fn mpi_init(&mut self, base: f64, per_rank: f64) {
        let p = self.nranks() as f64;
        let cost = base + per_rank * p;
        let rec = self.recorder.clone();
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            rec.record_span_at(Self::lane(r), "mpi", "MPI_Init", rank.clock * US, cost * US);
            rank.clock += cost;
            rank.mpi.add(MpiFunction::Init, cost);
            rank.tasks.add(TaskKind::Other, cost);
        }
    }

    /// Models one halo-exchange phase: every rank does a paired
    /// `MPI_Sendrecv` with partners `partners[r]`, moving `bytes[r]` each
    /// way. Ranks must first catch up to the slowest partner (skew becomes
    /// `MPI_Wait`), then pay the transfer.
    ///
    /// Exchange time is attributed to the `Comm` task.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the rank count.
    pub fn halo_exchange(&mut self, partners: &[Vec<usize>], bytes: &[f64], link: LinkModel) {
        assert_eq!(partners.len(), self.nranks(), "partners per rank");
        assert_eq!(bytes.len(), self.nranks(), "bytes per rank");
        let clocks: Vec<f64> = self.ranks.iter().map(|r| r.clock).collect();
        for r in 0..self.nranks() {
            let mut sync_to = clocks[r];
            let mut any_partner = false;
            for &p in &partners[r] {
                if p == r {
                    continue;
                }
                sync_to = sync_to.max(clocks[p]);
                any_partner = true;
            }
            let wait = sync_to - clocks[r];
            // Volume: what this rank sends plus what it receives.
            let recv: f64 = partners[r]
                .iter()
                .filter(|&&p| p != r)
                .map(|&p| bytes[p] / partners[p].len().max(1) as f64)
                .sum();
            let xfer = if any_partner {
                link.transfer(bytes[r] + recv)
            } else {
                0.0
            };
            let lane = Self::lane(r);
            let rank = &mut self.ranks[r];
            if wait + xfer > 0.0 {
                // Enclosing task span; the MPI spans below nest inside it.
                self.recorder.record_span_at(
                    lane,
                    "task",
                    "Comm",
                    clocks[r] * US,
                    (wait + xfer) * US,
                );
            }
            rank.clock = sync_to + xfer;
            if wait > 0.0 {
                self.recorder
                    .record_span_at(lane, "mpi", "MPI_Wait", clocks[r] * US, wait * US);
                rank.mpi.add(MpiFunction::Wait, wait);
                rank.mpi.add_skew(wait);
                rank.tasks.add(TaskKind::Comm, wait);
            }
            if xfer > 0.0 {
                self.recorder
                    .record_span_at(lane, "mpi", "MPI_Sendrecv", sync_to * US, xfer * US);
                rank.mpi.add(MpiFunction::Sendrecv, xfer);
                rank.tasks.add(TaskKind::Comm, xfer);
            }
        }
    }

    /// Models an `MPI_Allreduce` of `bytes` per rank: a full synchronization
    /// (skew → `MPI_Wait`) followed by a `log2(P)`-stage butterfly.
    ///
    /// The reduction time is attributed to `task` (thermo reductions are
    /// `Output`, FFT norms are `Kspace`, ...).
    pub fn allreduce(&mut self, bytes: f64, link: LinkModel, task: TaskKind) {
        let max_clock = self.max_clock();
        let stages = (self.nranks() as f64).log2().ceil().max(1.0);
        let cost = stages * link.transfer(bytes);
        let rec = self.recorder.clone();
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            let lane = Self::lane(r);
            let wait = max_clock - rank.clock;
            rec.record_span_at(
                lane,
                "task",
                task.label(),
                rank.clock * US,
                (wait.max(0.0) + cost) * US,
            );
            if wait > 0.0 {
                rec.record_span_at(lane, "mpi", "MPI_Wait", rank.clock * US, wait * US);
                rank.mpi.add(MpiFunction::Wait, wait);
                rank.mpi.add_skew(wait);
                rank.tasks.add(task, wait);
            }
            rec.record_span_at(lane, "mpi", "MPI_Allreduce", max_clock * US, cost * US);
            rank.clock = max_clock + cost;
            rank.mpi.add(MpiFunction::Allreduce, cost);
            rank.tasks.add(task, cost);
        }
    }

    /// Models the all-to-all transposes of a distributed 3D FFT: each rank
    /// sends `bytes_per_rank` to every other rank, `rounds` times. Transfer
    /// time is `MPI_Send`, synchronization skew is `MPI_Wait`; everything is
    /// attributed to `Kspace`.
    pub fn fft_transpose(&mut self, bytes_per_rank: f64, rounds: usize, link: LinkModel) {
        if self.nranks() <= 1 {
            return;
        }
        let max_clock = self.max_clock();
        let p = self.nranks() as f64;
        // Each round: (P-1) messages pipelined; model as latency·(P-1) plus
        // the full volume over the shared link.
        let per_round = (p - 1.0) * link.latency + (p - 1.0) * bytes_per_rank / link.bandwidth;
        let cost = rounds as f64 * per_round;
        let rec = self.recorder.clone();
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            let lane = Self::lane(r);
            let wait = max_clock - rank.clock;
            rec.record_span_at(
                lane,
                "task",
                TaskKind::Kspace.label(),
                rank.clock * US,
                (wait.max(0.0) + cost) * US,
            );
            if wait > 0.0 {
                rec.record_span_at(lane, "mpi", "MPI_Wait", rank.clock * US, wait * US);
                rank.mpi.add(MpiFunction::Wait, wait);
                rank.mpi.add_skew(wait);
                rank.tasks.add(TaskKind::Kspace, wait);
            }
            rec.record_span_at(lane, "mpi", "MPI_Send", max_clock * US, cost * US);
            rank.clock = max_clock + cost;
            rank.mpi.add(MpiFunction::Send, cost);
            rank.tasks.add(TaskKind::Kspace, cost);
        }
    }

    /// The latest rank clock.
    pub fn max_clock(&self) -> f64 {
        self.ranks.iter().map(|r| r.clock).fold(0.0, f64::max)
    }

    /// The earliest rank clock.
    pub fn min_clock(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.clock)
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean rank clock.
    pub fn mean_clock(&self) -> f64 {
        self.ranks.iter().map(|r| r.clock).sum::<f64>() / self.nranks() as f64
    }

    /// Task ledger of rank `r`.
    pub fn task_ledger(&self, r: usize) -> &TaskLedger {
        &self.ranks[r].tasks
    }

    /// MPI ledger of rank `r`.
    pub fn mpi_ledger(&self, r: usize) -> &MpiLedger {
        &self.ranks[r].mpi
    }

    /// Task ledger averaged across ranks.
    pub fn mean_task_ledger(&self) -> TaskLedger {
        let mut sum = TaskLedger::new();
        for r in &self.ranks {
            sum.merge(&r.tasks);
        }
        let p = self.nranks() as f64;
        let mut mean = TaskLedger::new();
        for (t, s) in sum.iter() {
            mean.add(t, s / p);
        }
        mean
    }

    /// MPI ledger averaged across ranks.
    pub fn mean_mpi_ledger(&self) -> MpiLedger {
        let mut sum = MpiLedger::new();
        for r in &self.ranks {
            sum.merge(&r.mpi);
        }
        let p = self.nranks() as f64;
        let mut mean = MpiLedger::new();
        for (f, s) in sum.iter() {
            mean.add(f, s / p);
        }
        mean.add_skew(sum.skew_seconds() / p);
        mean
    }

    /// Percentage of mean total time that is skew-induced waiting
    /// (the paper's "MPI imbalance", Figure 4 bottom).
    pub fn mpi_imbalance_percent(&self) -> f64 {
        let total = self.mean_clock();
        if total > 0.0 {
            100.0 * self.mean_mpi_ledger().skew_seconds() / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINK: LinkModel = LinkModel {
        latency: 1e-6,
        bandwidth: 10e9,
    };

    #[test]
    fn compute_advances_one_clock() {
        let mut c = VirtualCluster::new(4);
        c.compute(2, TaskKind::Pair, 1.5);
        assert_eq!(c.max_clock(), 1.5);
        assert_eq!(c.min_clock(), 0.0);
        assert_eq!(c.task_ledger(2).seconds(TaskKind::Pair), 1.5);
    }

    #[test]
    fn balanced_halo_exchange_has_no_wait() {
        let mut c = VirtualCluster::new(4);
        for r in 0..4 {
            c.compute(r, TaskKind::Pair, 1.0);
        }
        let partners = vec![vec![1], vec![0], vec![3], vec![2]];
        c.halo_exchange(&partners, &[1000.0; 4], LINK);
        for r in 0..4 {
            assert_eq!(c.mpi_ledger(r).seconds(MpiFunction::Wait), 0.0);
            assert!(c.mpi_ledger(r).seconds(MpiFunction::Sendrecv) > 0.0);
        }
        assert!((c.max_clock() - c.min_clock()).abs() < 1e-15);
    }

    #[test]
    fn skewed_compute_creates_wait_on_the_fast_rank() {
        let mut c = VirtualCluster::new(2);
        c.compute(0, TaskKind::Pair, 2.0);
        c.compute(1, TaskKind::Pair, 1.0);
        c.halo_exchange(&[vec![1], vec![0]], &[100.0; 2], LINK);
        assert_eq!(c.mpi_ledger(0).seconds(MpiFunction::Wait), 0.0);
        assert!((c.mpi_ledger(1).seconds(MpiFunction::Wait) - 1.0).abs() < 1e-12);
        assert!((c.mpi_ledger(1).skew_seconds() - 1.0).abs() < 1e-12);
        assert!(c.mpi_imbalance_percent() > 0.0);
    }

    #[test]
    fn allreduce_synchronizes_everyone() {
        let mut c = VirtualCluster::new(8);
        for r in 0..8 {
            c.compute(r, TaskKind::Pair, r as f64 * 0.1);
        }
        c.allreduce(64.0, LINK, TaskKind::Output);
        assert!((c.max_clock() - c.min_clock()).abs() < 1e-15);
        // Slowest rank waited zero; fastest waited the spread.
        assert_eq!(c.mpi_ledger(7).seconds(MpiFunction::Wait), 0.0);
        assert!((c.mpi_ledger(0).seconds(MpiFunction::Wait) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn fft_transpose_cost_scales_with_ranks() {
        let cost = |p: usize| {
            let mut c = VirtualCluster::new(p);
            c.fft_transpose(1e6, 2, LINK);
            c.max_clock()
        };
        assert_eq!(cost(1), 0.0);
        assert!(cost(16) > cost(4));
    }

    #[test]
    fn mean_ledgers_average_over_ranks() {
        let mut c = VirtualCluster::new(2);
        c.compute(0, TaskKind::Pair, 4.0);
        c.compute(1, TaskKind::Pair, 2.0);
        let mean = c.mean_task_ledger();
        assert!((mean.seconds(TaskKind::Pair) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn init_cost_grows_with_rank_count() {
        let mut small = VirtualCluster::new(4);
        small.mpi_init(0.1, 0.01);
        let mut big = VirtualCluster::new(64);
        big.mpi_init(0.1, 0.01);
        assert!(
            big.mpi_ledger(0).seconds(MpiFunction::Init)
                > small.mpi_ledger(0).seconds(MpiFunction::Init)
        );
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = VirtualCluster::new(0);
    }

    /// Fault plan for tests: rank 1 stalls at step 3 and runs 2x slow at
    /// step 5.
    struct TestFaults;

    impl ClusterFaults for TestFaults {
        fn compute_scale(&self, rank: usize, step: u64) -> f64 {
            if rank == 1 && step == 5 {
                2.0
            } else {
                1.0
            }
        }
        fn stall_seconds(&self, rank: usize, step: u64) -> f64 {
            if rank == 1 && step == 3 {
                0.25
            } else {
                0.0
            }
        }
    }

    #[test]
    fn step_tracking_names_the_bounding_rank_and_task() {
        let rec = Recorder::default();
        let mut c = VirtualCluster::new(3);
        c.enable_step_tracking();
        c.set_recorder(rec.clone());
        // Step 0: rank 2 does the most Pair work and bounds the step.
        c.begin_step(0);
        for r in 0..3 {
            c.compute(r, TaskKind::Pair, 1.0 + r as f64);
        }
        // Step 1: rank 0 dominates with Kspace.
        c.begin_step(1);
        c.compute(0, TaskKind::Kspace, 5.0);
        c.compute(1, TaskKind::Pair, 0.5);
        c.finish_step_tracking();

        let path = c.critical_path();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].step, 0);
        assert_eq!(path[0].rank, 2);
        assert_eq!(path[0].task, TaskKind::Pair);
        assert!((path[0].seconds - 3.0).abs() < 1e-12, "frontier advance");
        assert!((path[0].task_seconds - 3.0).abs() < 1e-12);
        assert_eq!(path[1].rank, 0);
        assert_eq!(path[1].task, TaskKind::Kspace);
        // Frontier moved from 3.0 (rank 2) to 6.0 (rank 0's clock 1+5).
        assert!((path[1].seconds - 3.0).abs() < 1e-12);

        // The critical lane carries one span per step at simulated time.
        let lane = c.critical_lane();
        let spans: Vec<_> = rec
            .events()
            .into_iter()
            .filter(|e| e.lane == lane)
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "Pair");
        assert_eq!(spans[1].name, "Kspace");
        assert_eq!(spans[0].cat, "critical");
        let snap = rec.snapshot();
        assert_eq!(
            snap.lanes.get(&lane).map(String::as_str),
            Some("critical_path")
        );
    }

    #[test]
    fn step_tracking_sees_through_synchronization() {
        // An allreduce equalizes every clock, so clock comparison would
        // hand the step to rank 0; the slow rank must still be named.
        let mut c = VirtualCluster::new(4);
        c.enable_step_tracking();
        for step in 0..3 {
            c.begin_step(step);
            for r in 0..4 {
                let cost = if r == 2 { 4.0 } else { 1.0 };
                c.compute(r, TaskKind::Pair, cost);
            }
            c.allreduce(64.0, LINK, TaskKind::Output);
            assert!((c.max_clock() - c.min_clock()).abs() < 1e-12);
        }
        c.finish_step_tracking();
        let path = c.critical_path();
        assert_eq!(path.len(), 3);
        for s in path {
            assert_eq!(s.rank, 2, "slow rank bounds every synchronized step");
            assert_eq!(s.task, TaskKind::Pair);
        }
    }

    #[test]
    fn step_tracking_ties_go_to_the_lowest_rank() {
        let mut c = VirtualCluster::new(4);
        c.enable_step_tracking();
        c.begin_step(0);
        for r in 0..4 {
            c.compute(r, TaskKind::Neigh, 2.0);
        }
        c.finish_step_tracking();
        assert_eq!(c.critical_path()[0].rank, 0);
        assert_eq!(c.critical_path()[0].task, TaskKind::Neigh);
    }

    #[test]
    fn untracked_cluster_keeps_no_per_step_records() {
        let mut c = VirtualCluster::new(2);
        c.begin_step(0);
        c.compute(0, TaskKind::Pair, 1.0);
        c.finish_step_tracking();
        assert!(c.critical_path().is_empty());
    }

    #[test]
    fn rank_snapshots_match_ledger_accessors() {
        let mut c = VirtualCluster::new(2);
        c.compute(0, TaskKind::Pair, 2.0);
        c.compute(1, TaskKind::Bond, 1.0);
        let tasks = c.rank_task_ledgers();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].seconds(TaskKind::Pair), 2.0);
        assert_eq!(tasks[1].seconds(TaskKind::Bond), 1.0);
        assert_eq!(c.rank_clocks(), vec![2.0, 1.0]);
        assert_eq!(c.rank_mpi_ledgers().len(), 2);
    }

    #[test]
    fn rank_stall_advances_clock_and_skews_partners() {
        let rec = Recorder::default();
        let mut c = VirtualCluster::new(2);
        c.set_recorder(rec.clone());
        c.set_faults(Arc::new(TestFaults));
        c.begin_step(3);
        assert_eq!(c.current_step(), 3);
        // Rank 1 stalled 0.25 s before doing any work.
        assert!((c.max_clock() - 0.25).abs() < 1e-15);
        assert_eq!(c.min_clock(), 0.0);
        assert_eq!(rec.counter_value("fault_rank_stall"), Some(1.0));
        // Equal compute + halo exchange: the stall surfaces as rank 0 skew.
        for r in 0..2 {
            c.compute(r, TaskKind::Pair, 1.0);
        }
        c.halo_exchange(&[vec![1], vec![0]], &[100.0; 2], LINK);
        assert!((c.mpi_ledger(0).skew_seconds() - 0.25).abs() < 1e-12);
        assert_eq!(c.mpi_ledger(1).skew_seconds(), 0.0);
    }

    #[test]
    fn compute_scale_slows_the_faulted_rank_only() {
        let rec = Recorder::default();
        let mut c = VirtualCluster::new(2);
        c.set_recorder(rec.clone());
        c.set_faults(Arc::new(TestFaults));
        c.begin_step(5);
        c.compute(0, TaskKind::Pair, 1.0);
        c.compute(1, TaskKind::Pair, 1.0);
        assert_eq!(c.task_ledger(0).seconds(TaskKind::Pair), 1.0);
        assert_eq!(c.task_ledger(1).seconds(TaskKind::Pair), 2.0);
        assert_eq!(rec.counter_value("fault_rank_slow"), Some(1.0));
        // Off-schedule steps are unperturbed.
        c.begin_step(6);
        c.compute(1, TaskKind::Pair, 1.0);
        assert_eq!(c.task_ledger(1).seconds(TaskKind::Pair), 3.0);
    }

    #[test]
    fn recorder_gets_per_rank_lanes_at_simulated_time() {
        let rec = Recorder::default();
        let mut c = VirtualCluster::new(2);
        c.set_recorder(rec.clone());
        c.mpi_init(0.1, 0.0);
        c.compute(0, TaskKind::Pair, 2.0);
        c.compute(1, TaskKind::Pair, 1.0);
        c.halo_exchange(&[vec![1], vec![0]], &[100.0; 2], LINK);

        let events = rec.events();
        // Ranks 0 and 1 map to lanes 1 and 2; the engine lane 0 is unused.
        let lanes: std::collections::HashSet<u32> = events.iter().map(|e| e.lane).collect();
        assert_eq!(lanes, [1u32, 2].into_iter().collect());
        // The skewed rank 1 waited; its MPI_Wait span starts at its own
        // simulated clock (0.1 init + 1.0 compute = 1.1 s → 1.1e6 µs).
        let wait = events
            .iter()
            .find(|e| e.name == "MPI_Wait")
            .expect("skew produces an MPI_Wait span");
        assert_eq!(wait.lane, 2);
        assert!((wait.ts_us - 1.1e6).abs() < 1.0, "ts {}", wait.ts_us);
        assert!((wait.dur_us - 1.0e6).abs() < 1.0, "dur {}", wait.dur_us);
        // Comm task spans and MPI_Sendrecv spans are both present.
        assert!(events.iter().any(|e| e.cat == "task" && e.name == "Comm"));
        assert!(events.iter().any(|e| e.name == "MPI_Sendrecv"));
        assert!(events.iter().any(|e| e.name == "MPI_Init"));
        // Ledger bookkeeping is unchanged by tracing.
        assert!((c.mpi_ledger(1).skew_seconds() - 1.0).abs() < 1e-12);
    }
}
