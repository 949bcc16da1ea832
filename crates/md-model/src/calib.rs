//! Calibration constants for the instance models.
//!
//! Every constant is a physical rate (seconds per operation, bytes per
//! element, watts) tuned so the model reproduces the anchor numbers the
//! paper reports in prose (DESIGN.md §4 lists them). The *shapes* of the
//! figures — who wins, where communication overtakes compute, how the error
//! threshold moves work between tasks — emerge from the operation counts,
//! not from these constants.

use md_parallel::LinkModel;
use md_workloads::Benchmark;

/// Floating-point strategy of the modeled pair kernels (paper Section 8).
///
/// The engine itself computes in `f64`; this axis only selects the
/// paper-anchored factors below ([`cpu_precision_factor`],
/// [`gpu_precision_factor`]) and the GPU's per-atom byte width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecisionMode {
    /// `f32` arithmetic, `f32` accumulation.
    Single,
    /// `f32` arithmetic, `f64` force accumulation (the LAMMPS default).
    #[default]
    Mixed,
    /// `f64` arithmetic throughout.
    Double,
}

impl PrecisionMode {
    /// All modes, in the order the paper reports them.
    pub const ALL: [PrecisionMode; 3] = [
        PrecisionMode::Single,
        PrecisionMode::Mixed,
        PrecisionMode::Double,
    ];

    /// Short lowercase label used in figure legends ("single", "mixed", "double").
    pub fn label(self) -> &'static str {
        match self {
            PrecisionMode::Single => "single",
            PrecisionMode::Mixed => "mixed",
            PrecisionMode::Double => "double",
        }
    }

    /// Bytes per scalar moved through the arithmetic units.
    pub fn compute_width(self) -> usize {
        match self {
            PrecisionMode::Single | PrecisionMode::Mixed => 4,
            PrecisionMode::Double => 8,
        }
    }
}

impl std::fmt::Display for PrecisionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-benchmark CPU kernel rates (seconds per pair interaction).
///
/// EAM pays two passes over the neighbor list; the granular history style
/// pays hash-map bookkeeping per contact; CHARMM reads its damped Coulomb
/// factors from a table (LAMMPS's `pair_modify table`, and the engine's
/// `md_potentials::LjCharmmCoulLong`), so a pair costs about an LJ pair.
pub fn cpu_pair_seconds(benchmark: Benchmark) -> f64 {
    match benchmark {
        Benchmark::Lj => 5.6e-9,
        Benchmark::Chain => 7.0e-9,
        Benchmark::Eam => 9.0e-9,
        Benchmark::Chute => 8.0e-9,
        Benchmark::Rhodo => 5.5e-9,
    }
}

/// Per-atom Modify cost of the benchmark's fixes: Langevin pays a Gaussian
/// RNG per atom per step; the chute's gravity/wall/freeze trio is cheap.
pub fn cpu_fix_seconds(benchmark: Benchmark) -> f64 {
    match benchmark {
        Benchmark::Chain => 60.0e-9,
        Benchmark::Chute => 35.0e-9,
        _ => 0.0,
    }
}

/// Precision multiplier on the CPU pair kernel (paper Section 8: the INTEL
/// package computes in single/mixed/double).
pub fn cpu_precision_factor(mode: PrecisionMode) -> f64 {
    match mode {
        PrecisionMode::Single => 0.97,
        PrecisionMode::Mixed => 1.0,
        PrecisionMode::Double => 1.17,
    }
}

/// Neighbor-list construction: seconds per *candidate* pair examined; the
/// bin search examines ~2.5× the stored pairs.
pub const CPU_NEIGH_CANDIDATE_SECONDS: f64 = 1.4e-9;
/// Candidate-to-stored overcount of the 27-cell stencil.
pub const NEIGH_SEARCH_FACTOR: f64 = 2.5;
/// Per-atom binning cost per rebuild.
pub const CPU_NEIGH_BIN_SECONDS: f64 = 12.0e-9;

/// Seconds per bonded term (bond/angle/dihedral).
pub const CPU_BOND_SECONDS: f64 = 35.0e-9;

/// Integration cost per atom per step (velocity-Verlet halves + PBC).
pub const CPU_INTEGRATE_SECONDS: f64 = 14.0e-9;
/// SHAKE cost per constraint per step (a few sweeps).
pub const CPU_SHAKE_SECONDS: f64 = 60.0e-9;
/// Nose-Hoover NPT overhead per atom per step.
pub const CPU_NPT_SECONDS: f64 = 12.0e-9;

/// PPPM charge assignment + field interpolation, seconds per atom per
/// stencil weight (order³ weights, two passes).
pub const CPU_MESH_SECONDS: f64 = 1.5e-9;
/// FFT cost per point·log2(point), covering the 4 transforms per step plus
/// the memory-bound pack/transpose passes of a distributed 3D FFT.
pub const CPU_FFT_SECONDS: f64 = 2.0e-9;

/// Thermo/output cost per atom at an output step.
pub const CPU_OUTPUT_SECONDS: f64 = 4.0e-9;

/// Ghost pack/unpack cost per ghost atom per step (counted as Comm work,
/// outside MPI).
pub const CPU_PACK_SECONDS: f64 = 22.0e-9;
/// Bytes exchanged per ghost atom in the forward (position) communication.
pub const FORWARD_BYTES_PER_GHOST: f64 = 24.0;
/// Bytes per ghost atom in the reverse (force) communication (Newton on).
pub const REVERSE_BYTES_PER_GHOST: f64 = 24.0;

/// Intra-node MPI link (shared-memory transport).
pub const CPU_LINK: LinkModel = LinkModel {
    latency: 1.5e-6,
    bandwidth: 11.0e9,
};

/// `MPI_Init` cost: `base + per_rank · P` seconds on every rank (the paper
/// observes per-rank init time *growing* with the process count).
pub const MPI_INIT_BASE_SECONDS: f64 = 0.08;
/// See [`MPI_INIT_BASE_SECONDS`].
pub const MPI_INIT_PER_RANK_SECONDS: f64 = 0.012;

/// Per-benchmark multiplicative compute jitter amplitude: cache/TLB noise,
/// bursty rebuilds, and density fluctuations that the census cannot see.
/// This is what separates the imbalance ordering of Figure 4 (bottom):
/// chute ≫ chain > rhodo > lj ≈ eam.
pub fn cpu_jitter_amplitude(benchmark: Benchmark) -> f64 {
    match benchmark {
        Benchmark::Lj => 0.006,
        Benchmark::Eam => 0.005,
        Benchmark::Chain => 0.10,
        Benchmark::Chute => 0.12,
        Benchmark::Rhodo => 0.03,
    }
}

/// Mean physical-core utilization by benchmark (paper Section 5.2: chute
/// 24%, lj 48%, chain 56%, eam 63%, rhodo 83%) — drives the power model.
pub fn cpu_core_utilization(benchmark: Benchmark) -> f64 {
    match benchmark {
        Benchmark::Chute => 0.24,
        Benchmark::Lj => 0.48,
        Benchmark::Chain => 0.56,
        Benchmark::Eam => 0.63,
        Benchmark::Rhodo => 0.83,
    }
}

// ---------------------------------------------------------------------------
// GPU instance constants
// ---------------------------------------------------------------------------

/// MPI ranks sharing one device (the LAMMPS GPU guide recommends
/// oversubscription; the paper found ≤48 total ranks useful on 52 threads).
pub const RANKS_PER_GPU: usize = 6;
/// Upper bound on host ranks of the GPU instance.
pub const MAX_GPU_HOST_RANKS: usize = 48;

/// GPU pair-kernel rate (seconds per pair, fp32).
pub fn gpu_pair_seconds(benchmark: Benchmark) -> f64 {
    match benchmark {
        Benchmark::Lj => 0.07e-9,
        Benchmark::Chain => 0.12e-9,
        // Split into k_eam_fast + k_energy_fast, individually slower than
        // the charmm kernel (paper Section 6.1).
        Benchmark::Eam => 0.16e-9,
        Benchmark::Rhodo => 0.12e-9,
        Benchmark::Chute => f64::INFINITY, // unsupported (gran/hooke)
    }
}

/// fp64 slowdown of the pair kernels (V100 fp64 = fp32/2, plus register
/// pressure).
pub fn gpu_precision_factor(mode: PrecisionMode) -> f64 {
    match mode {
        PrecisionMode::Single => 0.93,
        PrecisionMode::Mixed => 1.0,
        PrecisionMode::Double => 1.9,
    }
}

/// GPU neighbor-build kernel rate (seconds per candidate pair).
pub const GPU_NEIGH_CANDIDATE_SECONDS: f64 = 0.10e-9;
/// GPU mesh kernels (make_rho / particle_map / interp), seconds per
/// atom-weight operation.
pub const GPU_MESH_SECONDS: f64 = 0.25e-9;
/// Fixed per-kernel launch overhead.
pub const GPU_KERNEL_LAUNCH_SECONDS: f64 = 8.0e-6;
/// Small bookkeeping kernels (zero/info/special/transpose) per atom.
pub const GPU_HOUSEKEEPING_SECONDS: f64 = 0.15e-9;

/// Effective PCIe 3.0 x16 bandwidth per transfer (fragmented transfers —
/// the paper observes the link is *under-utilized*).
pub const PCIE_BANDWIDTH: f64 = 12.0e9;
/// Effective PCIe bandwidth for PPPM mesh bricks: strided slab copies run
/// far below the link rate, which is what makes the tight-error-threshold
/// HtoD traffic "shadow all other CUDA calls" (paper Section 7).
pub const PCIE_MESH_BANDWIDTH: f64 = 0.3e9;
/// Per-z-plane DMA setup cost of the strided mesh-brick copies; with tight
/// error thresholds the plane count explodes and this term dominates.
pub const PCIE_MESH_PLANE_LATENCY: f64 = 5.0e-6;
/// Per-memcpy latency (driver + DMA setup).
pub const PCIE_LATENCY: f64 = 50.0e-6;
/// Host↔device transfers per rank per step (positions, forces, energies,
/// neighbor metadata, ...).
pub const PCIE_TRANSFERS_PER_STEP: f64 = 8.0;
/// Bytes per atom moved host→device each step (fp32 positions + type).
pub const HTOD_BYTES_PER_ATOM: f64 = 12.0;
/// Bytes per atom moved device→host each step (fp32 forces (+ energies)).
pub const DTOH_BYTES_PER_ATOM: f64 = 12.0;

/// Host CPU of the GPU instance is slower than the CPU instance
/// (2.0 vs 2.6 GHz base, older core): scale host-side costs.
pub const GPU_HOST_SLOWDOWN: f64 = 1.45;

/// Per-(rank, step) jitter amplitude of the traced GPU offload schedule:
/// kernel and copy durations wobble a few percent step to step (clock
/// boost, PCIe arbitration), which is what lets the traced critical path
/// move between devices without changing the closed-form means.
pub const GPU_JITTER_AMPLITUDE: f64 = 0.04;

// ---------------------------------------------------------------------------
// Power model (paper: powerstat / nvidia-smi at 0.5 s sampling)
// ---------------------------------------------------------------------------

/// Platform power floor (fans, DRAM, board) in watts.
pub const PLATFORM_IDLE_W: f64 = 80.0;
/// Idle power per CPU socket.
pub const SOCKET_IDLE_W: f64 = 45.0;
/// Idle power per GPU device.
pub const GPU_IDLE_W: f64 = 25.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_ordering_matches_paper() {
        // chute 24% < lj 48% < chain 56% < eam 63% < rhodo 83%.
        let u = cpu_core_utilization;
        assert!(u(Benchmark::Chute) < u(Benchmark::Lj));
        assert!(u(Benchmark::Lj) < u(Benchmark::Chain));
        assert!(u(Benchmark::Chain) < u(Benchmark::Eam));
        assert!(u(Benchmark::Eam) < u(Benchmark::Rhodo));
    }

    #[test]
    fn chute_has_no_gpu_kernel() {
        assert!(gpu_pair_seconds(Benchmark::Chute).is_infinite());
        assert!(gpu_pair_seconds(Benchmark::Lj).is_finite());
    }

    #[test]
    fn double_precision_costs_more() {
        assert!(
            cpu_precision_factor(PrecisionMode::Double)
                > cpu_precision_factor(PrecisionMode::Single)
        );
        assert!(gpu_precision_factor(PrecisionMode::Double) > 1.5);
    }

    #[test]
    fn mode_widths() {
        assert_eq!(PrecisionMode::Single.compute_width(), 4);
        assert_eq!(PrecisionMode::Mixed.compute_width(), 4);
        assert_eq!(PrecisionMode::Double.compute_width(), 8);
    }

    #[test]
    fn labels_are_stable() {
        for m in PrecisionMode::ALL {
            assert_eq!(m.to_string(), m.label());
        }
    }

    #[test]
    fn jitter_ordering_drives_figure4() {
        let j = cpu_jitter_amplitude;
        assert!(j(Benchmark::Chute) > j(Benchmark::Chain));
        assert!(j(Benchmark::Chain) > j(Benchmark::Rhodo));
        assert!(j(Benchmark::Rhodo) > j(Benchmark::Lj));
    }
}
