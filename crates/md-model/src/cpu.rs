//! The CPU-instance model: a virtual dual-socket Xeon 8358 node running a
//! LAMMPS-style timestep over MPI ranks.
//!
//! The model executes the paper's Figure-1 timestep on a
//! [`VirtualCluster`]: every rank gets per-task compute times derived from
//! its *measured* share of the workload (owned atoms, ghost atoms from the
//! real decomposition census), communication synchronizes the virtual
//! clocks, and the resulting ledgers regenerate the CPU figures (3–6, 10–12,
//! 14–15).

use crate::calib::{self, PrecisionMode};
use crate::workload::WorkloadProfile;
use md_core::{Result, SimBox, TaskKind, TaskLedger};
use md_parallel::{Decomposition, MpiLedger, VirtualCluster, WorkloadCensus};
use md_workloads::Benchmark;

/// Options of one modeled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuRunOptions {
    /// MPI ranks (= physical cores used; the paper pins one rank per core).
    pub ranks: usize,
    /// Timesteps the modeled experiment runs (the paper uses 10k for the
    /// MPI profiling figures).
    pub steps: u64,
    /// Pairwise floating-point strategy.
    pub precision: PrecisionMode,
    /// Thermo output cadence.
    pub thermo_every: u64,
    /// Steps actually simulated on virtual clocks; ledgers are scaled up to
    /// `steps` (they are periodic after warm-up).
    pub sim_steps: u64,
    /// Whether to keep per-rank ledgers and per-step critical-path records
    /// in the result (md-insight's inputs; off by default because the
    /// figure sweeps run thousands of models and only need the means).
    pub collect_rank_stats: bool,
}

impl Default for CpuRunOptions {
    fn default() -> Self {
        CpuRunOptions {
            ranks: 1,
            steps: 10_000,
            precision: PrecisionMode::Mixed,
            thermo_every: 100,
            sim_steps: 120,
            collect_rank_stats: false,
        }
    }
}

/// Result of one modeled run.
#[derive(Debug, Clone)]
pub struct CpuRunResult {
    /// Benchmark identity.
    pub benchmark: Benchmark,
    /// Size label (k atoms).
    pub size_k: usize,
    /// Ranks used.
    pub ranks: usize,
    /// Modeled timesteps per second (the paper's TS/s).
    pub ts_per_sec: f64,
    /// Seconds per timestep (steady state, slowest rank).
    pub step_seconds: f64,
    /// Total modeled wall time (init + steps).
    pub total_seconds: f64,
    /// Mean per-task ledger over the whole run (seconds).
    pub tasks: TaskLedger,
    /// Mean per-MPI-function ledger (seconds).
    pub mpi: MpiLedger,
    /// MPI share of total time (Figure 4, top).
    pub mpi_time_percent: f64,
    /// Skew-wait share of total time (Figure 4, bottom).
    pub mpi_imbalance_percent: f64,
    /// Modeled node power draw (W).
    pub watts: f64,
    /// Energy efficiency (TS/s/W, Figure 6 middle).
    pub ts_per_sec_per_watt: f64,
    /// Per-rank task ledgers over the *simulated* window (`sim_steps`
    /// steps, unscaled — md-insight compares shares across ranks, not
    /// absolutes). Empty unless [`CpuRunOptions::collect_rank_stats`].
    pub rank_tasks: Vec<TaskLedger>,
    /// Per-rank MPI ledgers over the simulated window (unscaled). Empty
    /// unless [`CpuRunOptions::collect_rank_stats`].
    pub rank_mpi: Vec<MpiLedger>,
    /// Per-rank virtual clocks at the end of the simulated window. Empty
    /// unless [`CpuRunOptions::collect_rank_stats`].
    pub rank_clocks: Vec<f64>,
    /// Per-step critical-path records over the simulated window. Empty
    /// unless [`CpuRunOptions::collect_rank_stats`].
    pub critical_path: Vec<md_parallel::CriticalStep>,
}

impl CpuRunResult {
    /// Parallel efficiency vs. a 1-rank result: `P_n / (P_1 · n)`.
    pub fn parallel_efficiency(&self, single: &CpuRunResult) -> f64 {
        self.ts_per_sec / (single.ts_per_sec * self.ranks as f64)
    }
}

/// Deterministic per-(rank, step) jitter in `[-1, 1]` (splitmix64). Shared
/// with the GPU model's traced schedule so both instances perturb their
/// virtual clocks from the same stream.
pub(crate) fn jitter(rank: usize, step: u64) -> f64 {
    let mut z = (rank as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(step.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(0x94d049bb133111eb);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// The CPU-instance performance model.
#[derive(Clone, Default)]
pub struct CpuModel {
    recorder: Option<md_observe::Recorder>,
    faults: Option<std::sync::Arc<dyn md_parallel::ClusterFaults>>,
    pair_rate_scale: Option<f64>,
}

impl std::fmt::Debug for CpuModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuModel")
            .field("recorder", &self.recorder)
            .field("faults", &self.faults.is_some())
            .field("pair_rate_scale", &self.pair_rate_scale)
            .finish()
    }
}

impl CpuModel {
    /// Creates the model (all parameters live in [`crate::calib`]).
    pub fn new() -> Self {
        CpuModel::default()
    }

    /// Attaches an observability recorder: every modeled run hands it to
    /// its [`VirtualCluster`], producing one trace lane per rank with
    /// per-task and per-MPI-function spans at simulated timestamps.
    pub fn set_recorder(&mut self, recorder: md_observe::Recorder) {
        self.recorder = Some(recorder);
    }

    /// Attaches a fault model: every modeled run hands it to its
    /// [`VirtualCluster`], so rank slowdowns and stalls perturb the
    /// simulated clocks (and surface as imbalance).
    pub fn set_faults(&mut self, faults: std::sync::Arc<dyn md_parallel::ClusterFaults>) {
        self.faults = Some(faults);
    }

    /// Recalibrates the CPU pair-kernel rate by a measured multiplier: the
    /// [`crate::calib::cpu_pair_seconds`] table was tuned against the scalar
    /// reference kernels, so a harness that runs the lane-blocked path feeds
    /// the measured scalar/lanes speedup here as `1 / speedup`. Values
    /// outside `(0, ∞)` are ignored (the calibration table stands).
    pub fn recalibrate_pair_rate(&mut self, scale: f64) {
        if scale.is_finite() && scale > 0.0 {
            self.pair_rate_scale = Some(scale);
        }
    }

    /// The active pair-rate multiplier (1.0 unless recalibrated).
    pub fn pair_rate_scale(&self) -> f64 {
        self.pair_rate_scale.unwrap_or(1.0)
    }

    /// Runs the model for `profile` decomposed over real positions.
    ///
    /// `positions` must be the particle positions of the profile's system at
    /// the profile's scale (used for the exact per-rank census).
    ///
    /// # Errors
    ///
    /// Propagates decomposition failures.
    pub fn simulate(
        &self,
        profile: &WorkloadProfile,
        bx: &SimBox,
        positions: &[md_core::V3],
        opts: &CpuRunOptions,
    ) -> Result<CpuRunResult> {
        let decomp = Decomposition::new(*bx, opts.ranks)?;
        let census = WorkloadCensus::measure(&decomp, positions, profile.ghost_cutoff);
        self.simulate_with_census(profile, &decomp, &census, opts)
    }

    /// Runs the model with an already-measured census (lets callers sweep
    /// options without re-counting ghosts).
    ///
    /// # Errors
    ///
    /// Returns an error if the census rank count disagrees with the options.
    pub fn simulate_with_census(
        &self,
        profile: &WorkloadProfile,
        decomp: &Decomposition,
        census: &WorkloadCensus,
        opts: &CpuRunOptions,
    ) -> Result<CpuRunResult> {
        let p = opts.ranks;
        if census.nranks() != p {
            return Err(md_core::CoreError::LengthMismatch {
                what: "census ranks",
                expected: p,
                found: census.nranks(),
            });
        }
        let bench = profile.benchmark;
        let mut cluster = VirtualCluster::new(p);
        if let Some(rec) = &self.recorder {
            cluster.set_recorder(rec.clone());
        }
        if let Some(faults) = &self.faults {
            cluster.set_faults(faults.clone());
        }
        if opts.collect_rank_stats {
            cluster.enable_step_tracking();
            if let Some(rec) = &self.recorder {
                // Re-announce lanes so the critical_path lane gets named
                // even when the recorder was attached first.
                cluster.set_recorder(rec.clone());
            }
        }
        cluster.mpi_init(
            calib::MPI_INIT_BASE_SECONDS,
            calib::MPI_INIT_PER_RANK_SECONDS,
        );
        let init_clock = cluster.max_clock();

        // Per-rank static cost inputs.
        let precision_factor = calib::cpu_precision_factor(opts.precision);
        let pair_rate = calib::cpu_pair_seconds(bench) * precision_factor * self.pair_rate_scale();
        let per_atom_pairs = if profile.newton {
            profile.stored_neighbors / 2.0
        } else {
            profile.stored_neighbors
        };
        let jitter_amp = calib::cpu_jitter_amplitude(bench);
        let fix_cost = calib::cpu_fix_seconds(bench);
        let npt = matches!(bench, Benchmark::Rhodo);
        let kspace = profile.kspace;
        let loads = census.loads();
        let partners: Vec<Vec<usize>> = (0..p).map(|r| decomp.face_neighbors(r).to_vec()).collect();

        for step in 0..opts.sim_steps {
            cluster.begin_step(step);
            for (r, load) in loads.iter().enumerate() {
                let owned = load.owned as f64;
                let jit = 1.0 + jitter_amp * jitter(r, step);

                // V: pairwise forces.
                cluster.compute(r, TaskKind::Pair, pair_rate * per_atom_pairs * owned * jit);

                // III: neighbor maintenance (amortized over the rebuild
                // cadence; rebuild steps also touch the ghosts).
                let neigh_per_build = (calib::CPU_NEIGH_CANDIDATE_SECONDS
                    * calib::NEIGH_SEARCH_FACTOR
                    * profile.stored_neighbors
                    * (owned + load.ghosts as f64)
                    + calib::CPU_NEIGH_BIN_SECONDS * (owned + load.ghosts as f64))
                    * precision_factor;
                cluster.compute(
                    r,
                    TaskKind::Neigh,
                    neigh_per_build / profile.rebuild_interval * jit,
                );

                // VII: bonded forces.
                if profile.bonded_per_atom > 0.0 {
                    cluster.compute(
                        r,
                        TaskKind::Bond,
                        calib::CPU_BOND_SECONDS * profile.bonded_per_atom * owned,
                    );
                }

                // II + fixes: integration, thermostats, SHAKE, NPT.
                let mut modify = calib::CPU_INTEGRATE_SECONDS * owned
                    + fix_cost * owned
                    + calib::CPU_SHAKE_SECONDS * profile.constraints_per_atom * owned;
                if npt {
                    modify += calib::CPU_NPT_SECONDS * owned;
                }
                cluster.compute(r, TaskKind::Modify, modify);

                // VI: k-space mesh work (assignment + interpolation) and the
                // rank's FFT share.
                if let Some(ks) = kspace {
                    let weights = (ks.order * ks.order * ks.order) as f64;
                    let mesh = calib::CPU_MESH_SECONDS * 2.0 * weights * owned * precision_factor;
                    let g = ks.grid_points as f64;
                    let fft = calib::CPU_FFT_SECONDS * 4.0 * g * g.log2() / p as f64;
                    cluster.compute(r, TaskKind::Kspace, mesh + fft);
                }

                // IV: ghost pack/unpack (Comm work outside MPI).
                if p > 1 {
                    cluster.compute(
                        r,
                        TaskKind::Comm,
                        calib::CPU_PACK_SECONDS * load.ghosts as f64,
                    );
                }
            }

            // K-space all-to-all transposes (Figure 12: MPI_Send grows with
            // tighter thresholds).
            if let Some(ks) = kspace {
                if p > 1 {
                    let bytes_per_rank = ks.grid_points as f64 * 16.0 / p as f64;
                    cluster.fft_transpose(bytes_per_rank, 2, calib::CPU_LINK);
                }
            }

            // Halo exchange: forward positions (+ reverse forces with Newton).
            if p > 1 {
                let bytes: Vec<f64> = loads
                    .iter()
                    .map(|l| {
                        l.ghosts as f64
                            * (calib::FORWARD_BYTES_PER_GHOST
                                + if profile.newton {
                                    calib::REVERSE_BYTES_PER_GHOST
                                } else {
                                    0.0
                                })
                    })
                    .collect();
                cluster.halo_exchange(&partners, &bytes, calib::CPU_LINK);
            }

            // VIII: thermodynamic output.
            if opts.thermo_every > 0 && (step + 1) % opts.thermo_every == 0 {
                for (r, load) in loads.iter().enumerate() {
                    cluster.compute(
                        r,
                        TaskKind::Output,
                        calib::CPU_OUTPUT_SECONDS * load.owned as f64,
                    );
                }
                if p > 1 {
                    cluster.allreduce(128.0, calib::CPU_LINK, TaskKind::Output);
                }
            }
        }

        cluster.finish_step_tracking();

        // Scale the periodic per-step ledgers from sim_steps to steps.
        let scale = opts.steps as f64 / opts.sim_steps as f64;
        let step_seconds = (cluster.max_clock() - init_clock) / opts.sim_steps as f64;
        let total_seconds = init_clock + step_seconds * opts.steps as f64;
        let mut tasks = TaskLedger::new();
        for (t, s) in cluster.mean_task_ledger().iter() {
            // Init time sits in Other and must not be scaled.
            let s = if t == TaskKind::Other {
                s
            } else {
                (s - 0.0) * scale
            };
            tasks.add(t, s);
        }
        let mut mpi = MpiLedger::new();
        let mean = cluster.mean_mpi_ledger();
        for (f, s) in mean.iter() {
            let s = if f == md_parallel::MpiFunction::Init {
                s
            } else {
                s * scale
            };
            mpi.add(f, s);
        }
        mpi.add_skew(mean.skew_seconds() * scale);

        let ts_per_sec = if step_seconds > 0.0 {
            1.0 / step_seconds
        } else {
            0.0
        };
        let watts = crate::power::cpu_node_watts(bench, p);
        let mpi_total = mpi.total();
        let (rank_tasks, rank_mpi, rank_clocks, critical_path) = if opts.collect_rank_stats {
            (
                cluster.rank_task_ledgers(),
                cluster.rank_mpi_ledgers(),
                cluster.rank_clocks(),
                cluster.critical_path().to_vec(),
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new(), Vec::new())
        };
        Ok(CpuRunResult {
            benchmark: bench,
            size_k: profile.natoms / 1000,
            ranks: p,
            ts_per_sec,
            step_seconds,
            total_seconds,
            tasks,
            mpi,
            mpi_time_percent: 100.0 * mpi_total / total_seconds,
            mpi_imbalance_percent: 100.0 * mean.skew_seconds() * scale / total_seconds,
            watts,
            ts_per_sec_per_watt: ts_per_sec / watts,
            rank_tasks,
            rank_mpi,
            rank_clocks,
            critical_path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_workloads::build_positions;

    fn run(bench: Benchmark, scale: usize, ranks: usize) -> CpuRunResult {
        let profile = WorkloadProfile::measure(bench, 40, 1)
            .unwrap()
            .at_scale(scale)
            .unwrap();
        let (bx, x) = build_positions(bench, scale, 1).unwrap();
        let model = CpuModel::new();
        let opts = CpuRunOptions {
            ranks,
            sim_steps: 60,
            ..CpuRunOptions::default()
        };
        model.simulate(&profile, &bx, &x, &opts).unwrap()
    }

    #[test]
    fn lj_pair_dominates_at_one_rank() {
        let r = run(Benchmark::Lj, 1, 1);
        assert!(
            r.tasks.percent(TaskKind::Pair) > 60.0,
            "Pair share {:.1}%",
            r.tasks.percent(TaskKind::Pair)
        );
    }

    #[test]
    fn chain_spends_less_in_pair_than_lj() {
        let lj = run(Benchmark::Lj, 1, 1);
        let chain = run(Benchmark::Chain, 1, 1);
        assert!(
            chain.tasks.percent(TaskKind::Pair) < lj.tasks.percent(TaskKind::Pair),
            "chain {:.1}% vs lj {:.1}%",
            chain.tasks.percent(TaskKind::Pair),
            lj.tasks.percent(TaskKind::Pair)
        );
    }

    #[test]
    fn scaling_improves_throughput() {
        let r1 = run(Benchmark::Lj, 1, 1);
        let r16 = run(Benchmark::Lj, 1, 16);
        assert!(r16.ts_per_sec > 6.0 * r1.ts_per_sec);
        let eff = r16.parallel_efficiency(&r1);
        assert!(eff > 0.4 && eff <= 1.05, "efficiency {eff}");
    }

    #[test]
    fn comm_share_grows_with_ranks_for_small_systems() {
        let r4 = run(Benchmark::Lj, 1, 4);
        let r64 = run(Benchmark::Lj, 1, 64);
        assert!(
            r64.tasks.percent(TaskKind::Comm) > r4.tasks.percent(TaskKind::Comm),
            "{:.1}% vs {:.1}%",
            r64.tasks.percent(TaskKind::Comm),
            r4.tasks.percent(TaskKind::Comm)
        );
    }

    #[test]
    fn chute_is_most_imbalanced() {
        let chute = run(Benchmark::Chute, 1, 16);
        let lj = run(Benchmark::Lj, 1, 16);
        assert!(
            chute.mpi_imbalance_percent > lj.mpi_imbalance_percent,
            "chute {:.2}% vs lj {:.2}%",
            chute.mpi_imbalance_percent,
            lj.mpi_imbalance_percent
        );
    }

    #[test]
    fn rank_stats_are_opt_in_and_cover_the_window() {
        let profile = WorkloadProfile::measure(Benchmark::Lj, 40, 1).unwrap();
        let (bx, x) = build_positions(Benchmark::Lj, 1, 1).unwrap();
        let model = CpuModel::new();
        let base = CpuRunOptions {
            ranks: 8,
            sim_steps: 30,
            ..CpuRunOptions::default()
        };
        let lean = model.simulate(&profile, &bx, &x, &base).unwrap();
        assert!(lean.rank_tasks.is_empty() && lean.critical_path.is_empty());

        let opts = CpuRunOptions {
            collect_rank_stats: true,
            ..base
        };
        let full = model.simulate(&profile, &bx, &x, &opts).unwrap();
        assert_eq!(full.rank_tasks.len(), 8);
        assert_eq!(full.rank_mpi.len(), 8);
        assert_eq!(full.rank_clocks.len(), 8);
        assert_eq!(full.critical_path.len(), 30, "one record per sim step");
        for cs in &full.critical_path {
            assert!(cs.rank < 8);
            assert!(cs.seconds >= 0.0);
        }
        // Collecting stats must not change the modeled numbers.
        assert_eq!(full.ts_per_sec, lean.ts_per_sec);
        assert_eq!(full.tasks, lean.tasks);
    }

    #[test]
    fn double_precision_is_slower() {
        let profile = WorkloadProfile::measure(Benchmark::Lj, 40, 1).unwrap();
        let (bx, x) = build_positions(Benchmark::Lj, 1, 1).unwrap();
        let model = CpuModel::new();
        let mk = |precision| CpuRunOptions {
            ranks: 8,
            precision,
            sim_steps: 40,
            ..CpuRunOptions::default()
        };
        let s = model
            .simulate(&profile, &bx, &x, &mk(PrecisionMode::Single))
            .unwrap();
        let d = model
            .simulate(&profile, &bx, &x, &mk(PrecisionMode::Double))
            .unwrap();
        assert!(s.ts_per_sec > d.ts_per_sec);
    }
}
