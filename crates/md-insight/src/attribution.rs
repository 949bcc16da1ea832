//! Per-task bottleneck attribution and load-imbalance metrics.
//!
//! Five views, all over the eight-task LAMMPS taxonomy:
//!
//! - [`Breakdown`]: where the time went (shares + dominant task), from
//!   either a [`TaskLedger`] or a window of [`StepSample`]s (Fig. 3).
//! - [`ImbalanceReport`]: per-task spread across virtual ranks using the
//!   LAMMPS `%varavg` convention — `100 · (max − avg) / avg` — plus a
//!   suspect-rank attribution based on per-rank *compute* time (waiting
//!   shows up as `Comm` on the healthy ranks, so the culprit is the rank
//!   whose non-communication time sticks out, not the ones stuck in
//!   `MPI_Wait`).
//! - [`MpiTable`]: per-MPI-function overhead across ranks (Figs. 4–5).
//! - [`FaultCost`]: per-task per-step seconds an injected fault added,
//!   read off the same modeled run without faults (its fault-free twin).
//! - [`GpuAttribution`]: per-device kernel-vs-memcpy-vs-idle shares and
//!   PCIe traffic from the GPU model's traced offload schedule (Figs. 7–9).

use md_core::{TaskKind, TaskLedger};
use md_model::gpu::GpuTimeline;
use md_observe::StepSample;
use md_parallel::{MpiFunction, MpiLedger};

/// One task's share of a breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskShare {
    /// The task.
    pub task: TaskKind,
    /// Seconds attributed to it.
    pub seconds: f64,
    /// Share of the task total, 0..=100.
    pub percent: f64,
}

/// Where the time went: per-task shares plus the dominant task.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Shares in [`TaskKind::ALL`] (legend) order; percents sum to ~100.
    pub shares: Vec<TaskShare>,
    /// Sum over all tasks, seconds.
    pub total_seconds: f64,
    /// The task with the largest share.
    pub dominant: TaskKind,
    /// Its share, 0..=100.
    pub dominant_percent: f64,
    /// Steps the breakdown covers (0 when built from a bare ledger).
    pub steps: usize,
}

impl Breakdown {
    fn from_seconds(seconds: [f64; 8], steps: usize) -> Breakdown {
        let total: f64 = seconds.iter().sum();
        let shares: Vec<TaskShare> = TaskKind::ALL
            .iter()
            .zip(seconds)
            .map(|(&task, s)| TaskShare {
                task,
                seconds: s,
                percent: if total > 0.0 { 100.0 * s / total } else { 0.0 },
            })
            .collect();
        let top = shares
            .iter()
            .max_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite"))
            .expect("eight tasks");
        Breakdown {
            dominant: top.task,
            dominant_percent: top.percent,
            shares,
            total_seconds: total,
            steps,
        }
    }

    /// Breakdown of an accumulated ledger (`steps` is informational).
    pub fn from_ledger(ledger: &TaskLedger, steps: usize) -> Breakdown {
        let mut seconds = [0.0; 8];
        for (i, (_, s)) in ledger.iter().enumerate() {
            seconds[i] = s;
        }
        Breakdown::from_seconds(seconds, steps)
    }

    /// Breakdown summed over a window of per-step samples.
    pub fn from_step_samples(samples: &[StepSample]) -> Breakdown {
        let mut seconds = [0.0; 8];
        for s in samples {
            for (acc, v) in seconds.iter_mut().zip(&s.task_seconds) {
                *acc += v;
            }
        }
        Breakdown::from_seconds(seconds, samples.len())
    }
}

/// One task's spread across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskImbalance {
    /// The task.
    pub task: TaskKind,
    /// Mean seconds across ranks.
    pub avg: f64,
    /// Maximum across ranks.
    pub max: f64,
    /// Minimum across ranks.
    pub min: f64,
    /// LAMMPS-style `%varavg`: `100 · (max − avg) / avg` (0 when avg = 0).
    pub varavg_percent: f64,
}

/// Fractional compute-time excess over the mean above which the slowest
/// rank is named the imbalance suspect.
const SUSPECT_EXCESS_FRACTION: f64 = 0.05;

/// Names the rank whose busy time exceeds the mean by more than
/// [`SUSPECT_EXCESS_FRACTION`], if any; of tied ranks, the lowest.
fn suspect_rank(busy: &[f64]) -> Option<usize> {
    if busy.len() < 2 {
        return None;
    }
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    if mean <= 0.0 {
        return None;
    }
    let (max_rank, max_busy) = busy.iter().copied().enumerate().fold(
        (0, f64::MIN),
        |acc, (r, b)| if b > acc.1 { (r, b) } else { acc },
    );
    ((max_busy - mean) / mean > SUSPECT_EXCESS_FRACTION).then_some(max_rank)
}

/// Load-imbalance attribution across virtual ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceReport {
    /// Rank count.
    pub nranks: usize,
    /// Per-task spread, [`TaskKind::ALL`] order.
    pub per_task: Vec<TaskImbalance>,
    /// Per-rank compute seconds (total minus `Comm` minus `Other`): the
    /// waiting that imbalance *causes* is excluded so the rank that causes
    /// it stands out.
    pub rank_compute_seconds: Vec<f64>,
    /// The imbalance source: the rank whose `rank_compute_seconds` exceed
    /// the mean by more than 5 % (the lowest such rank on a tie).
    pub suspect_rank: Option<usize>,
    /// The largest compute time's excess over the mean, percent.
    pub suspect_excess_percent: f64,
    /// The compute task with the worst `%varavg` among tasks carrying at
    /// least 1% of the mean compute time.
    pub worst_task: Option<TaskKind>,
    /// Its `%varavg`.
    pub worst_varavg_percent: f64,
}

impl ImbalanceReport {
    /// Computes the spread of per-rank ledgers (e.g.
    /// `CpuRunResult::rank_tasks`).
    ///
    /// # Panics
    ///
    /// Panics if `ledgers` is empty.
    pub fn from_rank_ledgers(ledgers: &[TaskLedger]) -> ImbalanceReport {
        assert!(!ledgers.is_empty(), "imbalance needs at least one rank");
        let n = ledgers.len() as f64;
        let per_task: Vec<TaskImbalance> = TaskKind::ALL
            .iter()
            .map(|&task| {
                let mut sum = 0.0;
                let mut max = f64::MIN;
                let mut min = f64::MAX;
                for l in ledgers {
                    let s = l.seconds(task);
                    sum += s;
                    max = max.max(s);
                    min = min.min(s);
                }
                let avg = sum / n;
                TaskImbalance {
                    task,
                    avg,
                    max,
                    min,
                    varavg_percent: if avg > 0.0 {
                        100.0 * (max - avg) / avg
                    } else {
                        0.0
                    },
                }
            })
            .collect();

        let rank_compute_seconds: Vec<f64> = ledgers
            .iter()
            .map(|l| l.total() - l.seconds(TaskKind::Comm) - l.seconds(TaskKind::Other))
            .collect();
        let mean = rank_compute_seconds.iter().sum::<f64>() / n;
        let max_compute = rank_compute_seconds
            .iter()
            .copied()
            .fold(f64::MIN, f64::max);
        let excess = if mean > 0.0 {
            (max_compute - mean) / mean
        } else {
            0.0
        };
        let suspect_rank = suspect_rank(&rank_compute_seconds);

        let mean_compute_total = mean.max(f64::MIN_POSITIVE);
        let worst = per_task
            .iter()
            .filter(|t| {
                t.task != TaskKind::Comm
                    && t.task != TaskKind::Other
                    && t.avg > 0.01 * mean_compute_total
            })
            .max_by(|a, b| {
                a.varavg_percent
                    .partial_cmp(&b.varavg_percent)
                    .expect("finite varavg")
            });
        ImbalanceReport {
            nranks: ledgers.len(),
            suspect_rank,
            suspect_excess_percent: 100.0 * excess,
            worst_task: worst.map(|t| t.task),
            worst_varavg_percent: worst.map_or(0.0, |t| t.varavg_percent),
            per_task,
            rank_compute_seconds,
        }
    }
}

/// One MPI function's overhead across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpiRow {
    /// The function.
    pub function: MpiFunction,
    /// Mean seconds across ranks.
    pub mean_seconds: f64,
    /// Maximum seconds on any rank.
    pub max_seconds: f64,
    /// Share of mean total MPI time, 0..=100.
    pub percent_of_mpi: f64,
}

/// Per-MPI-function overhead table (the Figs. 4–5 view).
#[derive(Debug, Clone, PartialEq)]
pub struct MpiTable {
    /// Rows in [`MpiFunction::ALL`] (legend) order.
    pub rows: Vec<MpiRow>,
    /// Mean total MPI seconds per rank.
    pub total_mean_seconds: f64,
    /// Mean skew-wait seconds per rank (the paper's "MPI imbalance").
    pub skew_mean_seconds: f64,
}

impl MpiTable {
    /// Builds the table from per-rank MPI ledgers.
    ///
    /// # Panics
    ///
    /// Panics if `ledgers` is empty.
    pub fn from_rank_ledgers(ledgers: &[MpiLedger]) -> MpiTable {
        assert!(!ledgers.is_empty(), "MPI table needs at least one rank");
        let n = ledgers.len() as f64;
        let total_mean = ledgers.iter().map(MpiLedger::total).sum::<f64>() / n;
        let skew_mean = ledgers.iter().map(MpiLedger::skew_seconds).sum::<f64>() / n;
        let rows = MpiFunction::ALL
            .iter()
            .map(|&function| {
                let mut sum = 0.0;
                let mut max = 0.0f64;
                for l in ledgers {
                    let s = l.seconds(function);
                    sum += s;
                    max = max.max(s);
                }
                let mean = sum / n;
                MpiRow {
                    function,
                    mean_seconds: mean,
                    max_seconds: max,
                    percent_of_mpi: if total_mean > 0.0 {
                        100.0 * mean / total_mean
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        MpiTable {
            rows,
            total_mean_seconds: total_mean,
            skew_mean_seconds: skew_mean,
        }
    }
}

/// One task's per-step seconds in a faulted run and in its fault-free twin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// The task.
    pub task: TaskKind,
    /// Seconds per step without faults.
    pub twin: f64,
    /// Seconds per step with faults.
    pub faulted: f64,
    /// `faulted − twin`.
    pub delta: f64,
}

/// What injected faults cost, task by task: the faulted run against its
/// twin, the same model and options run without faults. Modeled costs are
/// bit-deterministic, so the twin repeats exactly and the delta is the
/// faults' alone.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCost {
    /// Tasks with per-step work, largest delta first.
    pub tasks: Vec<TaskCost>,
    /// The twin's seconds per step, summed over those tasks.
    pub twin_step: f64,
    /// The faulted run's seconds per step, summed over those tasks.
    pub faulted_step: f64,
}

impl FaultCost {
    /// Compares two ledgers scaled to the same `steps` (e.g.
    /// `CpuRunResult::tasks` of both runs).
    pub fn from_ledgers(faulted: &TaskLedger, twin: &TaskLedger, steps: u64) -> FaultCost {
        let steps = steps.max(1) as f64;
        let mut tasks: Vec<TaskCost> = TaskKind::ALL
            .iter()
            // Other holds one-time init cost, not per-step work.
            .filter(|&&task| task != TaskKind::Other)
            .map(|&task| {
                let (faulted, twin) = (faulted.seconds(task) / steps, twin.seconds(task) / steps);
                TaskCost {
                    task,
                    twin,
                    faulted,
                    delta: faulted - twin,
                }
            })
            .filter(|c| c.twin != 0.0 || c.faulted != 0.0)
            .collect();
        tasks.sort_by(|a, b| b.delta.total_cmp(&a.delta));
        FaultCost {
            twin_step: tasks.iter().map(|c| c.twin).sum(),
            faulted_step: tasks.iter().map(|c| c.faulted).sum(),
            tasks,
        }
    }

    /// What the faults added to a step, seconds.
    pub fn step_delta(&self) -> f64 {
        self.faulted_step - self.twin_step
    }

    /// Renders the per-task table, largest delta first.
    pub fn render(&self) -> String {
        let mut out = String::from("task          twin s/step  faulted s/step       delta\n");
        let rows = self
            .tasks
            .iter()
            .map(|c| (c.task.label(), c.twin, c.faulted, c.delta));
        let total = (
            "total",
            self.twin_step,
            self.faulted_step,
            self.step_delta(),
        );
        for (label, twin, faulted, delta) in rows.chain([total]) {
            out.push_str(&format!(
                "{label:<8} {twin:>16.3e} {faulted:>15.3e} {delta:>+11.3e}\n"
            ));
        }
        out
    }
}

/// One modeled device's activity decomposition over a traced window: how
/// much of the wall-clock window the device spent in compute kernels, in
/// PCIe copies, and idle (waiting for the host segment or another device's
/// longer round). This is the analyzed form of the paper's Figure 8 stacks
/// — "memcpy-bound" is `memcpy_percent_of_active > 50`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceBreakdown {
    /// Device id.
    pub device: usize,
    /// Seconds in compute kernels (everything that is not a PCIe copy,
    /// including `[CUDA memset]` — it runs on the device).
    pub kernel_seconds: f64,
    /// Seconds in HtoD/DtoH copies.
    pub memcpy_seconds: f64,
    /// Seconds the device sat idle within the window.
    pub idle_seconds: f64,
    /// `kernel_seconds + memcpy_seconds`.
    pub active_seconds: f64,
    /// Memcpy share of *active* device time, 0..=100 (the Figure 8 metric).
    pub memcpy_percent_of_active: f64,
    /// Kernel share of active device time, 0..=100.
    pub kernel_percent_of_active: f64,
    /// Idle share of the whole window, 0..=100.
    pub idle_percent: f64,
    /// Mean host→device payload per step, bytes.
    pub htod_bytes_per_step: f64,
    /// Mean device→host payload per step, bytes.
    pub dtoh_bytes_per_step: f64,
}

/// Per-device attribution of a traced GPU-model run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuAttribution {
    /// Devices in id order.
    pub devices: Vec<DeviceBreakdown>,
    /// Steps the window covers.
    pub steps: usize,
    /// Wall-clock seconds of the window.
    pub total_seconds: f64,
    /// Mean memcpy share of active time across devices, 0..=100.
    pub mean_memcpy_percent: f64,
}

impl GpuAttribution {
    /// Decomposes a traced offload schedule per device.
    pub fn from_timeline(timeline: &GpuTimeline) -> GpuAttribution {
        let window: f64 = timeline.steps.iter().map(|s| s.seconds()).sum();
        let nsteps = timeline.steps.len();
        let mut kernel = vec![0.0f64; timeline.gpus];
        let mut memcpy = vec![0.0f64; timeline.gpus];
        // PCIe payload per direction, attributed to the device that moved it.
        let mut htod = vec![0.0f64; timeline.gpus];
        let mut dtoh = vec![0.0f64; timeline.gpus];
        for step in &timeline.steps {
            for seg in &step.segments {
                if seg.kind.is_memcpy() {
                    memcpy[seg.device] += seg.seconds;
                    if seg.kind == md_model::KernelKind::MemcpyHtoD {
                        htod[seg.device] += seg.bytes as f64;
                    } else {
                        dtoh[seg.device] += seg.bytes as f64;
                    }
                } else {
                    kernel[seg.device] += seg.seconds;
                }
            }
        }
        let steps_f = (nsteps as f64).max(1.0);
        let devices: Vec<DeviceBreakdown> = (0..timeline.gpus)
            .map(|d| {
                let active = kernel[d] + memcpy[d];
                let idle = (window - active).max(0.0);
                DeviceBreakdown {
                    device: d,
                    kernel_seconds: kernel[d],
                    memcpy_seconds: memcpy[d],
                    idle_seconds: idle,
                    active_seconds: active,
                    memcpy_percent_of_active: if active > 0.0 {
                        100.0 * memcpy[d] / active
                    } else {
                        0.0
                    },
                    kernel_percent_of_active: if active > 0.0 {
                        100.0 * kernel[d] / active
                    } else {
                        0.0
                    },
                    idle_percent: if window > 0.0 {
                        100.0 * idle / window
                    } else {
                        0.0
                    },
                    htod_bytes_per_step: htod[d] / steps_f,
                    dtoh_bytes_per_step: dtoh[d] / steps_f,
                }
            })
            .collect();
        let mean_memcpy = if devices.is_empty() {
            0.0
        } else {
            devices
                .iter()
                .map(|d| d.memcpy_percent_of_active)
                .sum::<f64>()
                / devices.len() as f64
        };
        GpuAttribution {
            devices,
            steps: nsteps,
            total_seconds: window,
            mean_memcpy_percent: mean_memcpy,
        }
    }

    /// Renders the per-device table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} device(s), {} steps, {:.6} s window\n\
             device   kernel s     memcpy s     idle s   memcpy%  idle%  HtoD B/step  DtoH B/step\n",
            self.devices.len(),
            self.steps,
            self.total_seconds
        );
        for d in &self.devices {
            out.push_str(&format!(
                "gpu {:<3} {:>10.6} {:>12.6} {:>10.6} {:>8.1} {:>6.1} {:>12.0} {:>12.0}\n",
                d.device,
                d.kernel_seconds,
                d.memcpy_seconds,
                d.idle_seconds,
                d.memcpy_percent_of_active,
                d.idle_percent,
                d.htod_bytes_per_step,
                d.dtoh_bytes_per_step
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(pairs: &[(TaskKind, f64)]) -> TaskLedger {
        let mut l = TaskLedger::new();
        for &(t, s) in pairs {
            l.add(t, s);
        }
        l
    }

    #[test]
    fn breakdown_finds_the_dominant_task() {
        let l = ledger(&[(TaskKind::Pair, 8.0), (TaskKind::Neigh, 2.0)]);
        let b = Breakdown::from_ledger(&l, 100);
        assert_eq!(b.dominant, TaskKind::Pair);
        assert!((b.dominant_percent - 80.0).abs() < 1e-12);
        assert!((b.total_seconds - 10.0).abs() < 1e-12);
        let sum: f64 = b.shares.iter().map(|s| s.percent).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_from_step_samples_sums_the_window() {
        let mut s1 = StepSample::default();
        s1.task_seconds[TaskKind::Pair.index()] = 2.0;
        let mut s2 = StepSample::default();
        s2.task_seconds[TaskKind::Kspace.index()] = 5.0;
        let b = Breakdown::from_step_samples(&[s1, s2]);
        assert_eq!(b.steps, 2);
        assert_eq!(b.dominant, TaskKind::Kspace);
        assert!((b.total_seconds - 7.0).abs() < 1e-12);
    }

    #[test]
    fn varavg_matches_the_lammps_definition() {
        // Ranks spend 1, 1, 1, 5 seconds in Pair: avg 2, max 5.
        let ledgers: Vec<TaskLedger> = [1.0, 1.0, 1.0, 5.0]
            .iter()
            .map(|&s| ledger(&[(TaskKind::Pair, s)]))
            .collect();
        let r = ImbalanceReport::from_rank_ledgers(&ledgers);
        let pair = &r.per_task[TaskKind::Pair.index()];
        assert!(
            (pair.varavg_percent - 150.0).abs() < 1e-9,
            "%varavg = 100·(5−2)/2"
        );
        assert_eq!(pair.max, 5.0);
        assert_eq!(pair.min, 1.0);
        assert_eq!(r.suspect_rank, Some(3));
        assert!((r.suspect_excess_percent - 150.0).abs() < 1e-9);
        assert_eq!(r.worst_task, Some(TaskKind::Pair));
    }

    #[test]
    fn waiting_ranks_are_not_the_suspect() {
        // Rank 0 computes 4 s; ranks 1–3 compute 1 s and wait 3 s in Comm.
        // The suspect must be the slow computer, not the waiters.
        let ledgers = vec![
            ledger(&[(TaskKind::Pair, 4.0)]),
            ledger(&[(TaskKind::Pair, 1.0), (TaskKind::Comm, 3.0)]),
            ledger(&[(TaskKind::Pair, 1.0), (TaskKind::Comm, 3.0)]),
            ledger(&[(TaskKind::Pair, 1.0), (TaskKind::Comm, 3.0)]),
        ];
        let r = ImbalanceReport::from_rank_ledgers(&ledgers);
        assert_eq!(r.suspect_rank, Some(0));
    }

    #[test]
    fn balanced_ranks_have_no_suspect() {
        let ledgers = vec![ledger(&[(TaskKind::Pair, 2.0)]); 4];
        let r = ImbalanceReport::from_rank_ledgers(&ledgers);
        assert_eq!(r.suspect_rank, None);
        assert_eq!(r.per_task[TaskKind::Pair.index()].varavg_percent, 0.0);
    }

    #[test]
    fn tied_ranks_name_the_lowest_as_suspect() {
        // Ranks 1 and 2 tie for the most compute; the first is named.
        let ledgers: Vec<TaskLedger> = [1.0, 4.0, 4.0, 1.0]
            .iter()
            .map(|&s| ledger(&[(TaskKind::Pair, s)]))
            .collect();
        let r = ImbalanceReport::from_rank_ledgers(&ledgers);
        assert_eq!(r.suspect_rank, Some(1));
        assert!((r.suspect_excess_percent - 60.0).abs() < 1e-9);
    }

    #[test]
    fn fault_cost_ranks_per_step_deltas_and_skips_init() {
        let twin = ledger(&[
            (TaskKind::Pair, 8.0),
            (TaskKind::Comm, 2.0),
            (TaskKind::Other, 5.0),
        ]);
        let faulted = ledger(&[
            (TaskKind::Pair, 10.0),
            (TaskKind::Comm, 20.0),
            (TaskKind::Neigh, 1.0),
            (TaskKind::Other, 5.0),
        ]);
        let cost = FaultCost::from_ledgers(&faulted, &twin, 1000);
        let order: Vec<TaskKind> = cost.tasks.iter().map(|c| c.task).collect();
        assert_eq!(order, [TaskKind::Comm, TaskKind::Pair, TaskKind::Neigh]);
        assert_eq!(cost.tasks[0].twin, 2.0e-3);
        assert_eq!(cost.tasks[0].faulted, 20.0e-3);
        assert!((cost.tasks[0].delta - 18.0e-3).abs() < 1e-15);
        assert!((cost.twin_step - 10.0e-3).abs() < 1e-15);
        assert!((cost.step_delta() - 21.0e-3).abs() < 1e-15);
        let rendered = cost.render();
        assert!(rendered.lines().nth(1).unwrap().starts_with("Comm"));
        assert!(rendered.contains("total"));
        assert!(!rendered.contains("Other"));
    }

    #[test]
    fn device_breakdown_decomposes_a_synthetic_timeline() {
        use md_model::gpu::{GpuSegment, GpuStepSchedule};
        use md_model::KernelKind;
        // One device, one step: 1 s HtoD (100 B), 2 s kernel, 1 s DtoH
        // (50 B), then a 1 s host segment → 5 s window, 1 s idle.
        let seg = |kind, start, seconds, bytes| GpuSegment {
            device: 0,
            rank: 0,
            kind,
            start_seconds: start,
            seconds,
            bytes,
        };
        let timeline = GpuTimeline {
            benchmark: md_workloads::Benchmark::Lj,
            gpus: 1,
            host_ranks: 1,
            steps: vec![GpuStepSchedule {
                step: 0,
                start_seconds: 0.0,
                host_seconds: 1.0,
                device_seconds: 4.0,
                device_busy: vec![4.0],
                htod_bytes: 100,
                dtoh_bytes: 50,
                segments: vec![
                    seg(KernelKind::MemcpyHtoD, 0.0, 1.0, 100),
                    seg(KernelKind::KLjFast, 1.0, 2.0, 0),
                    seg(KernelKind::MemcpyDtoH, 3.0, 1.0, 50),
                ],
            }],
        };
        let a = GpuAttribution::from_timeline(&timeline);
        assert_eq!(a.steps, 1);
        assert!((a.total_seconds - 5.0).abs() < 1e-12);
        let d = &a.devices[0];
        assert!((d.memcpy_seconds - 2.0).abs() < 1e-12);
        assert!((d.kernel_seconds - 2.0).abs() < 1e-12);
        assert!((d.idle_seconds - 1.0).abs() < 1e-12);
        assert!((d.memcpy_percent_of_active - 50.0).abs() < 1e-9);
        assert!((d.idle_percent - 20.0).abs() < 1e-9);
        assert!((d.htod_bytes_per_step - 100.0).abs() < 1e-12);
        assert!((d.dtoh_bytes_per_step - 50.0).abs() < 1e-12);
        let rendered = a.render();
        assert!(rendered.contains("gpu 0"));
    }

    #[test]
    fn empty_timeline_yields_a_degenerate_attribution() {
        let timeline = GpuTimeline {
            benchmark: md_workloads::Benchmark::Lj,
            gpus: 1,
            host_ranks: 6,
            steps: Vec::new(),
        };
        let a = GpuAttribution::from_timeline(&timeline);
        assert_eq!(a.steps, 0);
        assert_eq!(a.total_seconds, 0.0);
        assert_eq!(a.devices[0].memcpy_percent_of_active, 0.0);
        assert_eq!(a.mean_memcpy_percent, 0.0);
    }

    #[test]
    fn suspect_rank_names_the_straggler() {
        assert_eq!(suspect_rank(&[1.0, 1.0, 4.0, 1.0]), Some(2));
        assert_eq!(suspect_rank(&[1.0, 1.0, 1.0, 1.0]), None, "balanced");
        assert_eq!(suspect_rank(&[1.0]), None, "single rank");
        assert_eq!(suspect_rank(&[0.0, 0.0]), None, "no work yet");
    }

    #[test]
    fn mpi_table_means_and_shares() {
        let mut a = MpiLedger::new();
        a.add(MpiFunction::Wait, 3.0);
        a.add_skew(3.0);
        let mut b = MpiLedger::new();
        b.add(MpiFunction::Sendrecv, 1.0);
        let t = MpiTable::from_rank_ledgers(&[a, b]);
        assert!((t.total_mean_seconds - 2.0).abs() < 1e-12);
        assert!((t.skew_mean_seconds - 1.5).abs() < 1e-12);
        let wait = t
            .rows
            .iter()
            .find(|r| r.function == MpiFunction::Wait)
            .unwrap();
        assert!((wait.mean_seconds - 1.5).abs() < 1e-12);
        assert_eq!(wait.max_seconds, 3.0);
        assert!((wait.percent_of_mpi - 75.0).abs() < 1e-9);
    }
}
