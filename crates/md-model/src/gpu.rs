//! The GPU-instance model: 8× V100 with the LAMMPS GPU package's offload
//! structure.
//!
//! Per the reference package (paper Section 6): each MPI rank owns a
//! subdomain and offloads neighbor build, pair forces, and (for Rhodopsin)
//! the PPPM mesh kernels to its assigned device; several ranks time-multiplex
//! one device; positions go host→device and forces device→host every step;
//! fixes (SHAKE!), bonded forces, the FFT, and MPI communication stay on the
//! host. This is exactly the data-movement-bound structure whose breakdown
//! the paper's Figures 7–9 and 13 characterize.
//!
//! Two views of the same model:
//!
//! * [`GpuModel::simulate`] — the closed-form steady-state means (ledgers,
//!   TS/s, utilization) that regenerate the figures;
//! * [`GpuModel::simulate_traced`] — the same per-rank costs laid out as an
//!   explicit step-by-step offload schedule ([`GpuTimeline`]): every kernel
//!   and PCIe copy gets a start time and duration on its device, host
//!   segments close each step, and (with a recorder attached) every device
//!   gets its own md-observe trace lane at simulated time. md-insight's
//!   per-device attribution and host↔device critical path consume this.

use crate::calib::{self, PrecisionMode};
use crate::workload::WorkloadProfile;
use md_core::{Result, SimBox, TaskKind, TaskLedger};
use md_observe::Recorder;
use md_parallel::{Decomposition, RankLoad, WorkloadCensus};
use md_workloads::Benchmark;

/// GPU kernels and data-movement primitives of the paper's Figure 8 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// `[CUDA memcpy DtoH]`.
    MemcpyDtoH,
    /// `[CUDA memcpy HtoD]`.
    MemcpyHtoD,
    /// `[CUDA memset]`.
    Memset,
    /// `calc_neigh_list_cell`.
    CalcNeighListCell,
    /// `k_lj_fast`.
    KLjFast,
    /// `kernel_info`.
    KernelInfo,
    /// `kernel_special`.
    KernelSpecial,
    /// `kernel_zero`.
    KernelZero,
    /// `transpose`.
    Transpose,
    /// `k_eam_fast`.
    KEamFast,
    /// `k_energy_fast`.
    KEnergyFast,
    /// `interp`.
    Interp,
    /// `k_charmm_long`.
    KCharmmLong,
    /// `make_rho`.
    MakeRho,
    /// `particle_map`.
    ParticleMap,
}

impl KernelKind {
    /// All kernels in the paper's legend order.
    pub const ALL: [KernelKind; 15] = [
        KernelKind::MemcpyDtoH,
        KernelKind::MemcpyHtoD,
        KernelKind::Memset,
        KernelKind::CalcNeighListCell,
        KernelKind::KLjFast,
        KernelKind::KernelInfo,
        KernelKind::KernelSpecial,
        KernelKind::KernelZero,
        KernelKind::Transpose,
        KernelKind::KEamFast,
        KernelKind::KEnergyFast,
        KernelKind::Interp,
        KernelKind::KCharmmLong,
        KernelKind::MakeRho,
        KernelKind::ParticleMap,
    ];

    /// Legend label matching the paper's Figure 8.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::MemcpyDtoH => "[CUDA memcpy DtoH]",
            KernelKind::MemcpyHtoD => "[CUDA memcpy HtoD]",
            KernelKind::Memset => "[CUDA memset]",
            KernelKind::CalcNeighListCell => "calc_neigh_list_cell",
            KernelKind::KLjFast => "k_lj_fast",
            KernelKind::KernelInfo => "kernel_info",
            KernelKind::KernelSpecial => "kernel_special",
            KernelKind::KernelZero => "kernel_zero",
            KernelKind::Transpose => "transpose",
            KernelKind::KEamFast => "k_eam_fast",
            KernelKind::KEnergyFast => "k_energy_fast",
            KernelKind::Interp => "interp",
            KernelKind::KCharmmLong => "k_charmm_long",
            KernelKind::MakeRho => "make_rho",
            KernelKind::ParticleMap => "particle_map",
        }
    }

    /// Whether this is a PCIe copy (the HtoD/DtoH halves of the paper's
    /// memcpy-domination finding; `[CUDA memset]` is device-local and does
    /// not count).
    pub fn is_memcpy(self) -> bool {
        matches!(self, KernelKind::MemcpyDtoH | KernelKind::MemcpyHtoD)
    }

    fn index(self) -> usize {
        KernelKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("in ALL")
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Seconds of device activity per kernel (one device, one step).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelLedger {
    seconds: [f64; 15],
}

impl KernelLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        KernelLedger::default()
    }

    /// Adds time to a kernel.
    pub fn add(&mut self, kind: KernelKind, seconds: f64) {
        self.seconds[kind.index()] += seconds;
    }

    /// Time of one kernel.
    pub fn seconds(&self, kind: KernelKind) -> f64 {
        self.seconds[kind.index()]
    }

    /// Total device-activity time.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Share of one kernel (0..=100).
    pub fn percent(&self, kind: KernelKind) -> f64 {
        let t = self.total();
        if t > 0.0 {
            100.0 * self.seconds(kind) / t
        } else {
            0.0
        }
    }

    /// `(kernel, seconds)` pairs in legend order.
    pub fn iter(&self) -> impl Iterator<Item = (KernelKind, f64)> + '_ {
        KernelKind::ALL.iter().map(move |&k| (k, self.seconds(k)))
    }
}

/// Options of one modeled GPU run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuRunOptions {
    /// Devices used (1, 2, 4, 6, 8 in the paper).
    pub gpus: usize,
    /// Pair-kernel floating-point strategy (a compile flag in LAMMPS).
    pub precision: PrecisionMode,
}

impl Default for GpuRunOptions {
    fn default() -> Self {
        GpuRunOptions {
            gpus: 1,
            precision: PrecisionMode::Mixed,
        }
    }
}

/// Result of one modeled GPU run.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Benchmark identity.
    pub benchmark: Benchmark,
    /// Size label (k atoms).
    pub size_k: usize,
    /// Devices used.
    pub gpus: usize,
    /// Host MPI ranks driving the devices.
    pub host_ranks: usize,
    /// Timesteps per second.
    pub ts_per_sec: f64,
    /// Seconds per timestep.
    pub step_seconds: f64,
    /// Mean per-task ledger (one step).
    pub tasks: TaskLedger,
    /// Device-activity ledger (one device, one step).
    pub kernels: KernelLedger,
    /// Mean device utilization (busy / step).
    pub device_utilization: f64,
    /// Node power (W).
    pub watts: f64,
    /// Energy efficiency (TS/s/W).
    pub ts_per_sec_per_watt: f64,
}

impl GpuRunResult {
    /// Parallel efficiency vs. a 1-device result.
    pub fn parallel_efficiency(&self, single: &GpuRunResult) -> f64 {
        self.ts_per_sec / (single.ts_per_sec * self.gpus as f64)
    }
}

// ---------------------------------------------------------------------------
// The traced offload schedule (device lanes, md-insight's input)
// ---------------------------------------------------------------------------

/// First md-observe trace lane used for modeled devices: device `d` records
/// on lane `DEVICE_LANE_BASE + d`, named `"gpu d"`. Far above the virtual
/// cluster's rank lanes (1..=nranks, plus its critical-path lane) so the two
/// models can share one recorder without colliding.
pub const DEVICE_LANE_BASE: u32 = 1024;

/// Lane carrying the GPU model's per-step host segments (`"gpu host"`):
/// integration, fixes, bonded forces, host FFT, MPI — everything the GPU
/// package leaves on the CPU.
pub const GPU_HOST_LANE: u32 = DEVICE_LANE_BASE - 1;

/// Simulated seconds → trace microseconds.
const US: f64 = 1e6;

/// One scheduled device operation (kernel or PCIe copy) of the traced
/// offload schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSegment {
    /// Device executing the operation.
    pub device: usize,
    /// Host rank that enqueued it.
    pub rank: usize,
    /// Kernel or copy kind.
    pub kind: KernelKind,
    /// Absolute simulated start time, seconds.
    pub start_seconds: f64,
    /// Duration, seconds.
    pub seconds: f64,
    /// PCIe payload bytes (memcpys only; 0 for kernels).
    pub bytes: u64,
}

/// One step of the traced offload schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuStepSchedule {
    /// Step index.
    pub step: u64,
    /// Absolute simulated start of the step, seconds.
    pub start_seconds: f64,
    /// The step's host segment: starts when the busiest device round
    /// retires, lasts until the slowest host rank finishes.
    pub host_seconds: f64,
    /// The busiest device's round (device side of the step), seconds.
    pub device_seconds: f64,
    /// Per-device busy time this step, seconds.
    pub device_busy: Vec<f64>,
    /// Host→device payload scheduled this step, bytes.
    pub htod_bytes: u64,
    /// Device→host payload scheduled this step, bytes.
    pub dtoh_bytes: u64,
    /// Device operations in schedule order (devices interleaved, each
    /// device's operations contiguous in time).
    pub segments: Vec<GpuSegment>,
}

impl GpuStepSchedule {
    /// The step's duration: busiest device round plus host segment.
    pub fn seconds(&self) -> f64 {
        self.device_seconds + self.host_seconds
    }
}

/// The step-by-step offload schedule of a traced GPU-model run: what
/// md-insight's [`DeviceBreakdown`] and host↔device critical path consume,
/// and what the recorder's device lanes visualize.
///
/// [`DeviceBreakdown`]: https://docs.rs/md-insight
#[derive(Debug, Clone, PartialEq)]
pub struct GpuTimeline {
    /// Benchmark identity.
    pub benchmark: Benchmark,
    /// Devices.
    pub gpus: usize,
    /// Host ranks driving them.
    pub host_ranks: usize,
    /// Per-step schedules, in step order.
    pub steps: Vec<GpuStepSchedule>,
}

impl GpuTimeline {
    /// Total simulated wall time of the traced window, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.steps.iter().map(GpuStepSchedule::seconds).sum()
    }
}

/// A traced GPU-model run: the closed-form result plus the schedule that
/// realizes it.
#[derive(Debug, Clone)]
pub struct GpuTracedRun {
    /// The closed-form steady-state result (identical to
    /// [`GpuModel::simulate`] on the same inputs).
    pub result: GpuRunResult,
    /// The per-step offload schedule.
    pub timeline: GpuTimeline,
}

/// One scheduled device operation: `(kind, seconds, payload bytes)`.
type DeviceOp = (KernelKind, f64, u64);

/// Everything one rank schedules in one steady-state step: individual
/// device-op durations and host-side task costs. One source of truth shared
/// by the closed-form ledger path and the traced schedule path, so the two
/// stay in exact agreement.
struct GpuRankCost {
    zero: f64,
    /// Total pair-kernel time (split 0.62/0.38 for EAM at the use site).
    pair: f64,
    neigh: f64,
    info: f64,
    transpose: f64,
    memset: f64,
    /// `kernel_special` (Rhodo only; 0 otherwise).
    special: f64,
    htod_atoms: f64,
    dtoh_atoms: f64,
    htod_atom_bytes: u64,
    dtoh_atom_bytes: u64,
    /// PPPM device kernels (0 without k-space).
    map: f64,
    rho: f64,
    interp: f64,
    mesh_dtoh: f64,
    mesh_htod: f64,
    mesh_dtoh_bytes: u64,
    mesh_htod_bytes: u64,
    host_modify: f64,
    host_bond: f64,
    host_comm: f64,
    host_kspace: f64,
    host_output: f64,
}

impl GpuRankCost {
    /// Host-side seconds of this rank's step.
    fn host_total(&self) -> f64 {
        self.host_modify + self.host_bond + self.host_comm + self.host_kspace + self.host_output
    }

    /// Device operations in schedule order — positions in, build/compute,
    /// PPPM mesh round-trip, forces out: `(kind, seconds, bytes)`.
    fn device_ops(&self, bench: Benchmark) -> Vec<DeviceOp> {
        let mut ops = Vec::with_capacity(14);
        ops.push((
            KernelKind::MemcpyHtoD,
            self.htod_atoms,
            self.htod_atom_bytes,
        ));
        ops.push((KernelKind::KernelZero, self.zero, 0));
        ops.push((KernelKind::CalcNeighListCell, self.neigh, 0));
        match bench {
            Benchmark::Eam => {
                ops.push((KernelKind::KEamFast, 0.62 * self.pair, 0));
                ops.push((KernelKind::KEnergyFast, 0.38 * self.pair, 0));
            }
            Benchmark::Rhodo => ops.push((KernelKind::KCharmmLong, self.pair, 0)),
            _ => ops.push((KernelKind::KLjFast, self.pair, 0)),
        }
        ops.push((KernelKind::KernelInfo, self.info, 0));
        ops.push((KernelKind::Transpose, self.transpose, 0));
        ops.push((KernelKind::Memset, self.memset, 0));
        if self.special > 0.0 {
            ops.push((KernelKind::KernelSpecial, self.special, 0));
        }
        if self.map > 0.0 {
            ops.push((KernelKind::ParticleMap, self.map, 0));
            ops.push((KernelKind::MakeRho, self.rho, 0));
            ops.push((KernelKind::MemcpyDtoH, self.mesh_dtoh, self.mesh_dtoh_bytes));
            ops.push((KernelKind::MemcpyHtoD, self.mesh_htod, self.mesh_htod_bytes));
            ops.push((KernelKind::Interp, self.interp, 0));
        }
        ops.push((
            KernelKind::MemcpyDtoH,
            self.dtoh_atoms,
            self.dtoh_atom_bytes,
        ));
        ops
    }
}

/// Computes one rank's steady-state step costs (the body of the paper's
/// Figure-8 schedule). Every expression matches the calibrated model
/// exactly; both simulation paths consume these values.
#[allow(clippy::too_many_arguments)]
fn gpu_rank_cost(
    profile: &WorkloadProfile,
    bench: Benchmark,
    load: &RankLoad,
    ranks: usize,
    pair_rate: f64,
    atom_bytes_factor: f64,
    per_atom_pairs: f64,
) -> GpuRankCost {
    let launch = calib::GPU_KERNEL_LAUNCH_SECONDS;
    let hk = calib::GPU_HOUSEKEEPING_SECONDS;
    let owned = load.owned as f64;
    let nall = owned + load.ghosts as f64;

    let zero = launch + hk * nall;
    let pair = launch + pair_rate * per_atom_pairs * owned;
    let neigh = (launch
        + calib::GPU_NEIGH_CANDIDATE_SECONDS
            * calib::NEIGH_SEARCH_FACTOR
            * profile.stored_neighbors
            * nall)
        / profile.rebuild_interval;
    let info = launch + hk * owned * 0.2;
    let transpose = launch + hk * nall * 0.5;
    let memset = launch + hk * nall * 0.3;
    let special = if bench == Benchmark::Rhodo {
        launch + hk * nall
    } else {
        0.0
    };

    // -- atom-data movement --
    let htod_atoms = calib::PCIE_LATENCY * calib::PCIE_TRANSFERS_PER_STEP / 2.0
        + nall * calib::HTOD_BYTES_PER_ATOM * atom_bytes_factor / calib::PCIE_BANDWIDTH;
    let dtoh_atoms = calib::PCIE_LATENCY * calib::PCIE_TRANSFERS_PER_STEP / 2.0
        + owned * calib::DTOH_BYTES_PER_ATOM * atom_bytes_factor / calib::PCIE_BANDWIDTH;
    let htod_atom_bytes = (nall * calib::HTOD_BYTES_PER_ATOM * atom_bytes_factor) as u64;
    let dtoh_atom_bytes = (owned * calib::DTOH_BYTES_PER_ATOM * atom_bytes_factor) as u64;

    // -- PPPM mesh on the device, FFT on the host --
    let (mut map, mut rho, mut interp) = (0.0, 0.0, 0.0);
    let (mut mesh_dtoh, mut mesh_htod) = (0.0, 0.0);
    let (mut mesh_dtoh_bytes, mut mesh_htod_bytes) = (0u64, 0u64);
    let mut host_kspace = 0.0;
    if let Some(ks) = profile.kspace {
        let weights = (ks.order * ks.order * ks.order) as f64;
        map = launch + 0.1e-9 * owned;
        rho = launch + calib::GPU_MESH_SECONDS * weights * owned;
        interp = launch + calib::GPU_MESH_SECONDS * weights * owned;

        // Mesh bricks cross PCIe as strided slab copies: the charge
        // density goes out, three field components come back (the
        // HtoD growth of Section 7). Each z-plane pays a DMA setup.
        let g_per_rank = ks.grid_points as f64 / ranks as f64;
        let planes = ks.grid[2] as f64 * calib::PCIE_MESH_PLANE_LATENCY;
        mesh_dtoh = g_per_rank * 4.0 / calib::PCIE_MESH_BANDWIDTH + planes;
        mesh_htod = g_per_rank * 3.0 * 4.0 / calib::PCIE_MESH_BANDWIDTH + 3.0 * planes;
        mesh_dtoh_bytes = (g_per_rank * 4.0) as u64;
        mesh_htod_bytes = (g_per_rank * 3.0 * 4.0) as u64;

        // Host FFT share.
        let g = ks.grid_points as f64;
        host_kspace =
            calib::CPU_FFT_SECONDS * calib::GPU_HOST_SLOWDOWN * 4.0 * g * g.log2() / ranks as f64;
    }

    // -- host work --
    let slow = calib::GPU_HOST_SLOWDOWN;
    let mut host_modify = calib::CPU_INTEGRATE_SECONDS * slow * owned
        + calib::CPU_SHAKE_SECONDS * slow * profile.constraints_per_atom * owned;
    if bench == Benchmark::Rhodo {
        host_modify += calib::CPU_NPT_SECONDS * slow * owned;
    }
    host_modify += calib::cpu_fix_seconds(bench) * slow * owned;
    let host_bond = calib::CPU_BOND_SECONDS * slow * profile.bonded_per_atom * owned;
    let host_comm = if ranks > 1 {
        calib::CPU_PACK_SECONDS * slow * load.ghosts as f64
            + calib::CPU_LINK.transfer(
                load.ghosts as f64
                    * (calib::FORWARD_BYTES_PER_GHOST + calib::REVERSE_BYTES_PER_GHOST),
            )
    } else {
        0.0
    };
    let host_output = calib::CPU_OUTPUT_SECONDS * slow * owned / 100.0;

    GpuRankCost {
        zero,
        pair,
        neigh,
        info,
        transpose,
        memset,
        special,
        htod_atoms,
        dtoh_atoms,
        htod_atom_bytes,
        dtoh_atom_bytes,
        map,
        rho,
        interp,
        mesh_dtoh,
        mesh_htod,
        mesh_dtoh_bytes,
        mesh_htod_bytes,
        host_modify,
        host_bond,
        host_comm,
        host_kspace,
        host_output,
    }
}

/// The GPU-instance performance model.
#[derive(Debug, Clone, Default)]
pub struct GpuModel {
    recorder: Option<Recorder>,
}

impl GpuModel {
    /// Creates the model.
    pub fn new() -> Self {
        GpuModel::default()
    }

    /// Attaches an observability recorder: traced runs
    /// ([`GpuModel::simulate_traced`]) then emit one lane per device
    /// (`"gpu 0"`, `"gpu 1"`, ...) with kernel and memcpy spans at
    /// simulated time, a `"gpu host"` lane with the per-step host segments,
    /// and cumulative `gpu_pcie_htod_bytes` / `gpu_pcie_dtoh_bytes`
    /// counters.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Runs the model over real positions.
    ///
    /// # Errors
    ///
    /// Returns an error if the benchmark is unsupported by the GPU package
    /// (Chute) or decomposition fails.
    pub fn simulate(
        &self,
        profile: &WorkloadProfile,
        bx: &SimBox,
        positions: &[md_core::V3],
        opts: &GpuRunOptions,
    ) -> Result<GpuRunResult> {
        let ranks = (calib::RANKS_PER_GPU * opts.gpus).min(calib::MAX_GPU_HOST_RANKS);
        let decomp = Decomposition::new(*bx, ranks)?;
        let census = WorkloadCensus::measure(&decomp, positions, profile.ghost_cutoff);
        self.simulate_with_census(profile, &census, opts)
    }

    /// Runs the model and lays the per-rank costs out as an explicit
    /// offload schedule over `sim_steps` steps: per-device trace lanes (if
    /// a recorder is attached), a [`GpuTimeline`] for md-insight, and the
    /// untouched closed-form result. Kernel and copy durations carry a
    /// deterministic per-(rank, step) jitter
    /// ([`calib::GPU_JITTER_AMPLITUDE`]) so the traced critical path can
    /// move between devices; the closed-form means are computed without it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GpuModel::simulate`].
    pub fn simulate_traced(
        &self,
        profile: &WorkloadProfile,
        bx: &SimBox,
        positions: &[md_core::V3],
        opts: &GpuRunOptions,
        sim_steps: u64,
    ) -> Result<GpuTracedRun> {
        let ranks = (calib::RANKS_PER_GPU * opts.gpus).min(calib::MAX_GPU_HOST_RANKS);
        let decomp = Decomposition::new(*bx, ranks)?;
        let census = WorkloadCensus::measure(&decomp, positions, profile.ghost_cutoff);
        let result = self.simulate_with_census(profile, &census, opts)?;
        let timeline = self.trace_schedule(profile, &census, opts, sim_steps);
        Ok(GpuTracedRun { result, timeline })
    }

    /// Runs the model with an already-measured census over
    /// `min(6·gpus, 48)` host ranks.
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported benchmarks or a census/rank mismatch.
    pub fn simulate_with_census(
        &self,
        profile: &WorkloadProfile,
        census: &WorkloadCensus,
        opts: &GpuRunOptions,
    ) -> Result<GpuRunResult> {
        let bench = profile.benchmark;
        if !bench.gpu_supported() {
            return Err(md_core::CoreError::InvalidParameter {
                name: "benchmark",
                reason: format!("the reference GPU package lacks the {} pair style", bench),
            });
        }
        let ranks = (calib::RANKS_PER_GPU * opts.gpus).min(calib::MAX_GPU_HOST_RANKS);
        if census.nranks() != ranks {
            return Err(md_core::CoreError::LengthMismatch {
                what: "census ranks",
                expected: ranks,
                found: census.nranks(),
            });
        }
        let ranks_per_gpu = ranks / opts.gpus;
        let pair_rate =
            calib::gpu_pair_seconds(bench) * calib::gpu_precision_factor(opts.precision);
        // fp64 atom data is twice as wide on the PCIe link; the FFT mesh
        // stays fp32 (the paper's build uses -DFFT_SINGLE).
        let atom_bytes_factor = opts.precision.compute_width() as f64 / 4.0;
        let per_atom_pairs = profile.stored_neighbors / 2.0; // GPU package: half lists
        let loads = census.loads();

        let mut kernels = KernelLedger::new();
        let mut tasks = TaskLedger::new();
        let mut max_host = 0.0f64;
        let mut device_busy = vec![0.0f64; opts.gpus];
        // Device Kspace/Pair/Neigh attribution accumulators.
        let mut dev_pair = 0.0;
        let mut dev_neigh = 0.0;
        let mut dev_kspace = 0.0;

        for (r, load) in loads.iter().enumerate() {
            let device = r / ranks_per_gpu;
            let c = gpu_rank_cost(
                profile,
                bench,
                load,
                ranks,
                pair_rate,
                atom_bytes_factor,
                per_atom_pairs,
            );

            // -- device kernels --
            let mut dev = 0.0;
            kernels.add(KernelKind::KernelZero, c.zero);
            dev += c.zero;

            match bench {
                Benchmark::Eam => {
                    kernels.add(KernelKind::KEamFast, 0.62 * c.pair);
                    kernels.add(KernelKind::KEnergyFast, 0.38 * c.pair);
                }
                Benchmark::Rhodo => kernels.add(KernelKind::KCharmmLong, c.pair),
                _ => kernels.add(KernelKind::KLjFast, c.pair),
            }
            dev += c.pair;
            dev_pair += c.pair;

            kernels.add(KernelKind::CalcNeighListCell, c.neigh);
            dev += c.neigh;
            dev_neigh += c.neigh;

            kernels.add(KernelKind::KernelInfo, c.info);
            kernels.add(KernelKind::Transpose, c.transpose);
            kernels.add(KernelKind::Memset, c.memset);
            dev += c.info + c.transpose + c.memset;

            if bench == Benchmark::Rhodo {
                kernels.add(KernelKind::KernelSpecial, c.special);
                dev += c.special;
            }

            // -- atom-data movement --
            kernels.add(KernelKind::MemcpyHtoD, c.htod_atoms);
            kernels.add(KernelKind::MemcpyDtoH, c.dtoh_atoms);
            dev += c.htod_atoms + c.dtoh_atoms;
            dev_pair += c.htod_atoms + c.dtoh_atoms;

            // -- PPPM mesh on the device, FFT on the host --
            if profile.kspace.is_some() {
                kernels.add(KernelKind::ParticleMap, c.map);
                kernels.add(KernelKind::MakeRho, c.rho);
                kernels.add(KernelKind::Interp, c.interp);
                dev += c.map + c.rho + c.interp;
                dev_kspace += c.map + c.rho + c.interp;

                kernels.add(KernelKind::MemcpyDtoH, c.mesh_dtoh);
                kernels.add(KernelKind::MemcpyHtoD, c.mesh_htod);
                dev += c.mesh_dtoh + c.mesh_htod;
                dev_kspace += c.mesh_dtoh + c.mesh_htod;
            }

            device_busy[device] += dev;

            // -- host work --
            let host = c.host_modify + c.host_bond + c.host_comm + c.host_kspace + c.host_output;
            max_host = max_host.max(host);

            tasks.add(TaskKind::Modify, c.host_modify / ranks as f64);
            tasks.add(TaskKind::Bond, c.host_bond / ranks as f64);
            tasks.add(TaskKind::Comm, c.host_comm / ranks as f64);
            tasks.add(TaskKind::Kspace, c.host_kspace / ranks as f64);
            tasks.add(TaskKind::Output, c.host_output / ranks as f64);
        }

        // Device sharing: every rank waits for its device's full round.
        let max_device = device_busy.iter().copied().fold(0.0, f64::max);
        let step_seconds = max_host + max_device;

        // Attribute device time to tasks (mean per rank).
        let p = ranks as f64;
        tasks.add(TaskKind::Pair, dev_pair / p);
        tasks.add(TaskKind::Neigh, dev_neigh / p);
        tasks.add(TaskKind::Kspace, dev_kspace / p);
        let misc = kernels.seconds(KernelKind::KernelZero)
            + kernels.seconds(KernelKind::KernelInfo)
            + kernels.seconds(KernelKind::Transpose)
            + kernels.seconds(KernelKind::Memset)
            + kernels.seconds(KernelKind::KernelSpecial);
        tasks.add(TaskKind::Other, misc / p);

        // Utilization counts *compute kernels* only (the paper's nvidia-smi
        // utilization excludes pure DMA windows on average).
        let compute_kernel_time: f64 = KernelKind::ALL
            .iter()
            .filter(|k| {
                !matches!(
                    k,
                    KernelKind::MemcpyDtoH | KernelKind::MemcpyHtoD | KernelKind::Memset
                )
            })
            .map(|&k| kernels.seconds(k))
            .sum();
        let device_utilization =
            (compute_kernel_time / opts.gpus as f64 / step_seconds).clamp(0.0, 1.0);

        let ts_per_sec = 1.0 / step_seconds;
        let watts = crate::power::gpu_node_watts(bench, opts.gpus, device_utilization, ranks);
        Ok(GpuRunResult {
            benchmark: bench,
            size_k: profile.natoms / 1000,
            gpus: opts.gpus,
            host_ranks: ranks,
            ts_per_sec,
            step_seconds,
            tasks,
            kernels,
            device_utilization,
            watts,
            ts_per_sec_per_watt: ts_per_sec / watts,
        })
    }

    /// Lays the per-rank costs out as a step-by-step schedule: per device,
    /// its ranks' operation chains run back to back (the time-multiplexed
    /// round); the host segment closes the step once the busiest device
    /// retires. Spans land on the device lanes if a recorder is attached.
    fn trace_schedule(
        &self,
        profile: &WorkloadProfile,
        census: &WorkloadCensus,
        opts: &GpuRunOptions,
        sim_steps: u64,
    ) -> GpuTimeline {
        let bench = profile.benchmark;
        let ranks = census.nranks();
        let ranks_per_gpu = ranks / opts.gpus;
        let pair_rate =
            calib::gpu_pair_seconds(bench) * calib::gpu_precision_factor(opts.precision);
        let atom_bytes_factor = opts.precision.compute_width() as f64 / 4.0;
        let per_atom_pairs = profile.stored_neighbors / 2.0;

        let rank_ops: Vec<(Vec<DeviceOp>, f64)> = census
            .loads()
            .iter()
            .map(|load| {
                let c = gpu_rank_cost(
                    profile,
                    bench,
                    load,
                    ranks,
                    pair_rate,
                    atom_bytes_factor,
                    per_atom_pairs,
                );
                (c.device_ops(bench), c.host_total())
            })
            .collect();

        let rec = self.recorder.as_ref().filter(|r| r.is_enabled());
        if let Some(rec) = rec {
            rec.set_lane_name(GPU_HOST_LANE, "gpu host");
            for d in 0..opts.gpus {
                rec.set_lane_name(DEVICE_LANE_BASE + d as u32, format!("gpu {d}"));
            }
        }

        let mut clock = 0.0f64;
        let mut steps = Vec::with_capacity(sim_steps as usize);
        for step in 0..sim_steps {
            let mut segments = Vec::new();
            let mut device_busy = vec![0.0f64; opts.gpus];
            let mut htod_bytes = 0u64;
            let mut dtoh_bytes = 0u64;
            for (d, busy) in device_busy.iter_mut().enumerate() {
                let mut cursor = clock;
                for r in (d * ranks_per_gpu)..((d + 1) * ranks_per_gpu).min(ranks) {
                    let jit = 1.0 + calib::GPU_JITTER_AMPLITUDE * crate::cpu::jitter(r, step);
                    for &(kind, seconds, bytes) in &rank_ops[r].0 {
                        let dur = seconds * jit;
                        segments.push(GpuSegment {
                            device: d,
                            rank: r,
                            kind,
                            start_seconds: cursor,
                            seconds: dur,
                            bytes,
                        });
                        if let Some(rec) = rec {
                            rec.record_span_at(
                                DEVICE_LANE_BASE + d as u32,
                                "gpu",
                                kind.label(),
                                cursor * US,
                                dur * US,
                            );
                        }
                        match kind {
                            KernelKind::MemcpyHtoD => htod_bytes += bytes,
                            KernelKind::MemcpyDtoH => dtoh_bytes += bytes,
                            _ => {}
                        }
                        cursor += dur;
                    }
                }
                *busy = cursor - clock;
            }
            let device_seconds = device_busy.iter().copied().fold(0.0, f64::max);
            let host_start = clock + device_seconds;
            let mut host_seconds = 0.0f64;
            for (r, (_, host)) in rank_ops.iter().enumerate() {
                let jit = 1.0 + calib::GPU_JITTER_AMPLITUDE * crate::cpu::jitter(r, step);
                host_seconds = host_seconds.max(host * jit);
            }
            if let Some(rec) = rec {
                rec.record_span_at(
                    GPU_HOST_LANE,
                    "gpu_host",
                    "host",
                    host_start * US,
                    host_seconds * US,
                );
                rec.count(GPU_HOST_LANE, "gpu_pcie_htod_bytes", htod_bytes as f64);
                rec.count(GPU_HOST_LANE, "gpu_pcie_dtoh_bytes", dtoh_bytes as f64);
            }
            steps.push(GpuStepSchedule {
                step,
                start_seconds: clock,
                host_seconds,
                device_seconds,
                device_busy,
                htod_bytes,
                dtoh_bytes,
                segments,
            });
            clock = host_start + host_seconds;
        }
        GpuTimeline {
            benchmark: bench,
            gpus: opts.gpus,
            host_ranks: ranks,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_workloads::build_positions;

    fn run(bench: Benchmark, scale: usize, gpus: usize) -> GpuRunResult {
        let profile = WorkloadProfile::measure(bench, 40, 1)
            .unwrap()
            .at_scale(scale)
            .unwrap();
        let (bx, x) = build_positions(bench, scale, 1).unwrap();
        GpuModel::new()
            .simulate(
                &profile,
                &bx,
                &x,
                &GpuRunOptions {
                    gpus,
                    precision: PrecisionMode::Mixed,
                },
            )
            .unwrap()
    }

    fn traced(bench: Benchmark, gpus: usize, sim_steps: u64) -> GpuTracedRun {
        let profile = WorkloadProfile::measure(bench, 40, 1).unwrap();
        let (bx, x) = build_positions(bench, 1, 1).unwrap();
        GpuModel::new()
            .simulate_traced(
                &profile,
                &bx,
                &x,
                &GpuRunOptions {
                    gpus,
                    precision: PrecisionMode::Mixed,
                },
                sim_steps,
            )
            .unwrap()
    }

    #[test]
    fn chute_is_rejected() {
        let profile = WorkloadProfile::measure(Benchmark::Chute, 40, 1).unwrap();
        let (bx, x) = build_positions(Benchmark::Chute, 1, 1).unwrap();
        let err = GpuModel::new()
            .simulate(&profile, &bx, &x, &GpuRunOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("pair style"));
    }

    #[test]
    fn memcpy_dominates_device_activity() {
        // Paper Section 6.1: the majority of device-active time is memory
        // movement for most benchmarks.
        let r = run(Benchmark::Lj, 1, 1);
        let memcpy =
            r.kernels.percent(KernelKind::MemcpyHtoD) + r.kernels.percent(KernelKind::MemcpyDtoH);
        assert!(memcpy > 30.0, "memcpy share {memcpy:.1}%");
    }

    #[test]
    fn eam_splits_into_two_kernels() {
        let r = run(Benchmark::Eam, 1, 1);
        assert!(r.kernels.seconds(KernelKind::KEamFast) > 0.0);
        assert!(r.kernels.seconds(KernelKind::KEnergyFast) > 0.0);
        assert_eq!(r.kernels.seconds(KernelKind::KLjFast), 0.0);
    }

    #[test]
    fn multi_gpu_efficiency_is_poor() {
        let r1 = run(Benchmark::Lj, 1, 1);
        let r8 = run(Benchmark::Lj, 1, 8);
        let eff = r8.parallel_efficiency(&r1);
        assert!(
            eff < 0.7,
            "32k atoms on 8 GPUs should scale poorly, eff {eff:.2}"
        );
        assert!(
            r8.ts_per_sec >= r1.ts_per_sec * 0.8,
            "still no catastrophic slowdown"
        );
    }

    #[test]
    fn device_utilization_is_low() {
        let r = run(Benchmark::Lj, 2, 4);
        assert!(
            r.device_utilization < 0.7,
            "utilization {:.2} should reflect the data-movement bottleneck",
            r.device_utilization
        );
    }

    #[test]
    fn rhodo_moves_mesh_traffic() {
        let r = run(Benchmark::Rhodo, 1, 2);
        assert!(r.kernels.seconds(KernelKind::MakeRho) > 0.0);
        assert!(r.kernels.seconds(KernelKind::ParticleMap) > 0.0);
        assert!(r.kernels.seconds(KernelKind::Interp) > 0.0);
        assert!(r.tasks.seconds(TaskKind::Kspace) > 0.0);
    }

    #[test]
    fn double_precision_slows_lj_markedly() {
        // The paper's Figure 16 effect is clearest at the large size, where
        // kernel and transfer volumes dominate the per-rank latency floor.
        let profile = WorkloadProfile::measure(Benchmark::Lj, 40, 1)
            .unwrap()
            .at_scale(4)
            .unwrap();
        let (bx, x) = build_positions(Benchmark::Lj, 4, 1).unwrap();
        let model = GpuModel::new();
        let s = model
            .simulate(
                &profile,
                &bx,
                &x,
                &GpuRunOptions {
                    gpus: 8,
                    precision: PrecisionMode::Single,
                },
            )
            .unwrap();
        let d = model
            .simulate(
                &profile,
                &bx,
                &x,
                &GpuRunOptions {
                    gpus: 8,
                    precision: PrecisionMode::Double,
                },
            )
            .unwrap();
        let ratio = s.ts_per_sec / d.ts_per_sec;
        assert!(ratio > 1.12, "single/double ratio {ratio:.3}");
    }

    #[test]
    fn traced_run_reproduces_the_closed_form_result() {
        let plain = run(Benchmark::Lj, 1, 2);
        let t = traced(Benchmark::Lj, 2, 8);
        assert_eq!(t.result.step_seconds, plain.step_seconds);
        assert_eq!(t.result.kernels, plain.kernels);
        assert_eq!(t.timeline.steps.len(), 8);
        assert_eq!(t.timeline.gpus, 2);
        assert_eq!(t.timeline.host_ranks, 12);
    }

    #[test]
    fn schedule_is_contiguous_and_ordered_per_device() {
        let t = traced(Benchmark::Lj, 2, 4);
        for step in &t.timeline.steps {
            assert!(step.device_seconds > 0.0 && step.host_seconds > 0.0);
            assert_eq!(step.device_busy.len(), 2);
            for d in 0..2 {
                let segs: Vec<&GpuSegment> =
                    step.segments.iter().filter(|s| s.device == d).collect();
                assert!(!segs.is_empty());
                // Back-to-back: each segment starts where the previous ended.
                for w in segs.windows(2) {
                    assert!(
                        (w[1].start_seconds - (w[0].start_seconds + w[0].seconds)).abs() < 1e-12
                    );
                }
                // The first op a rank schedules is the position upload, the
                // last is the force download.
                assert_eq!(segs.first().unwrap().kind, KernelKind::MemcpyHtoD);
                assert_eq!(segs.last().unwrap().kind, KernelKind::MemcpyDtoH);
                let busy: f64 = segs.iter().map(|s| s.seconds).sum();
                assert!((busy - step.device_busy[d]).abs() < 1e-9 * busy.max(1.0));
            }
        }
        // Steps are contiguous in simulated time.
        for w in t.timeline.steps.windows(2) {
            assert!((w[1].start_seconds - (w[0].start_seconds + w[0].seconds())).abs() < 1e-12);
        }
    }

    #[test]
    fn traced_memcpys_carry_byte_counts() {
        let t = traced(Benchmark::Lj, 1, 2);
        for step in &t.timeline.steps {
            assert!(step.htod_bytes > 0 && step.dtoh_bytes > 0);
            for s in &step.segments {
                assert_eq!(s.kind.is_memcpy(), s.bytes > 0, "{:?}", s.kind);
            }
        }
    }

    #[test]
    fn recorder_gets_device_lanes_and_byte_counters() {
        let rec = Recorder::new(md_observe::ObserveConfig::default());
        let profile = WorkloadProfile::measure(Benchmark::Lj, 40, 1).unwrap();
        let (bx, x) = build_positions(Benchmark::Lj, 1, 1).unwrap();
        let mut model = GpuModel::new();
        model.set_recorder(rec.clone());
        let t = model
            .simulate_traced(&profile, &bx, &x, &GpuRunOptions::default(), 3)
            .unwrap();
        let snap = rec.snapshot();
        assert_eq!(
            snap.lanes.get(&DEVICE_LANE_BASE).map(String::as_str),
            Some("gpu 0")
        );
        assert_eq!(
            snap.lanes.get(&GPU_HOST_LANE).map(String::as_str),
            Some("gpu host")
        );
        let device_spans = snap
            .events
            .iter()
            .filter(|e| e.lane == DEVICE_LANE_BASE && e.cat == "gpu")
            .count();
        let expected: usize = t.timeline.steps.iter().map(|s| s.segments.len()).sum();
        assert_eq!(device_spans, expected);
        let htod: f64 = t.timeline.steps.iter().map(|s| s.htod_bytes as f64).sum();
        assert_eq!(snap.counters["gpu_pcie_htod_bytes"], htod);
        assert!(snap.counters["gpu_pcie_dtoh_bytes"] > 0.0);
    }
}
