//! The experiment context: caches measured profiles, generated systems, and
//! decomposition censuses so the figure generators and benches don't redo
//! expensive work.
//!
//! This mirrors the paper's automation framework (their Figure 2): the
//! "profiling experiment" path measures real runs; the "benchmarking
//! experiment" path sweeps the parameter space through the instance models.

use md_core::{Result, SimBox, V3};
use md_model::calib::gpu_host_ranks;
use md_model::{
    CpuModel, CpuRunOptions, CpuRunResult, GpuModel, GpuRunOptions, GpuRunResult, PrecisionMode,
    WorkloadProfile,
};
use md_parallel::{Decomposition, WorkloadCensus};
use md_workloads::{build_positions, Benchmark};
use std::collections::HashMap;
use std::sync::Mutex;

/// Paper sweep: MPI process counts on the CPU instance.
pub const CPU_PROCS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Paper sweep: MPI process counts in the MPI-overhead figures (Figs. 4–5).
pub const MPI_PROCS: [usize; 5] = [4, 8, 16, 32, 64];
/// Paper sweep: GPU device counts.
pub const GPU_DEVICES: [usize; 5] = [1, 2, 4, 6, 8];
/// Paper sweep: k-space relative error thresholds (Section 7).
pub const KSPACE_ERRORS: [f64; 4] = [1e-4, 1e-5, 1e-6, 1e-7];

/// Steps of real simulation used to measure each benchmark's profile.
const PROFILE_STEPS: u64 = 30;
/// Deterministic seed for every deck in the harness.
pub const SEED: u64 = 2022;

/// Scales included in a run (1..=4 for the full paper sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// All four paper sizes (32k..2048k atoms).
    Full,
    /// Only the two smaller sizes — quick CI runs.
    Quick,
}

impl Fidelity {
    /// The replication factors this fidelity sweeps.
    pub fn scales(self) -> &'static [usize] {
        match self {
            Fidelity::Full => &[1, 2, 3, 4],
            Fidelity::Quick => &[1, 2],
        }
    }
}

/// Caching experiment context.
pub struct ExperimentContext {
    fidelity: Fidelity,
    cpu_model: CpuModel,
    gpu_model: GpuModel,
    profiles: Mutex<HashMap<Benchmark, WorkloadProfile>>,
    #[allow(clippy::type_complexity)]
    systems: Mutex<HashMap<(Benchmark, usize), (SimBox, Vec<V3>)>>,
    #[allow(clippy::type_complexity)]
    censuses: Mutex<HashMap<(Benchmark, usize, usize), (Decomposition, WorkloadCensus)>>,
}

impl std::fmt::Debug for ExperimentContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentContext")
            .field("fidelity", &self.fidelity)
            .finish_non_exhaustive()
    }
}

impl ExperimentContext {
    /// Creates a context at the given fidelity.
    pub fn new(fidelity: Fidelity) -> Self {
        ExperimentContext {
            fidelity,
            cpu_model: CpuModel::new(),
            gpu_model: GpuModel::new(),
            profiles: Mutex::new(HashMap::new()),
            systems: Mutex::new(HashMap::new()),
            censuses: Mutex::new(HashMap::new()),
        }
    }

    /// Replication factors in this context's sweeps.
    pub fn scales(&self) -> &'static [usize] {
        self.fidelity.scales()
    }

    /// The measured base profile of a benchmark (cached).
    ///
    /// # Errors
    ///
    /// Propagates deck construction failures.
    pub fn profile(&self, benchmark: Benchmark) -> Result<WorkloadProfile> {
        if let Some(p) = self.profiles.lock().expect("poisoned").get(&benchmark) {
            return Ok(p.clone());
        }
        let p = WorkloadProfile::measure(benchmark, PROFILE_STEPS, SEED)?;
        self.profiles
            .lock()
            .expect("poisoned")
            .insert(benchmark, p.clone());
        Ok(p)
    }

    /// Box and positions of a benchmark at a scale (cached).
    ///
    /// # Errors
    ///
    /// Propagates generator failures.
    pub fn system(&self, benchmark: Benchmark, scale: usize) -> Result<(SimBox, Vec<V3>)> {
        if let Some(s) = self
            .systems
            .lock()
            .expect("poisoned")
            .get(&(benchmark, scale))
        {
            return Ok(s.clone());
        }
        let mut s = build_positions(benchmark, scale, SEED)?;
        thermal_smear(&mut s.1, &s.0, SEED ^ 0x5eed);
        self.systems
            .lock()
            .expect("poisoned")
            .insert((benchmark, scale), s.clone());
        Ok(s)
    }

    /// Decomposition + census of a benchmark at a scale over `ranks` (cached).
    ///
    /// A miss measures `ranks` together with every rank count of the
    /// paper's sweeps for this deck that is not cached yet — [`CPU_PROCS`],
    /// plus the GPU host ranks over [`GPU_DEVICES`] if the deck runs on the
    /// GPU package — in one binned pass over the positions, so the rest of
    /// a (deck, scale) sweep finds its censuses cached.
    ///
    /// # Errors
    ///
    /// Propagates decomposition failures.
    pub fn census(
        &self,
        benchmark: Benchmark,
        scale: usize,
        ranks: usize,
    ) -> Result<(Decomposition, WorkloadCensus)> {
        let wanted = {
            let cache = self.censuses.lock().expect("poisoned");
            if let Some(c) = cache.get(&(benchmark, scale, ranks)) {
                return Ok(c.clone());
            }
            let mut wanted = vec![ranks];
            for p in sweep_ranks(benchmark) {
                if !wanted.contains(&p) && !cache.contains_key(&(benchmark, scale, p)) {
                    wanted.push(p);
                }
            }
            wanted
        };
        let (bx, x) = self.system(benchmark, scale)?;
        let profile = self.profile(benchmark)?;
        let mut measured = WorkloadCensus::measure_all(&bx, &wanted, &x, profile.ghost_cutoff)?;
        let mut cache = self.censuses.lock().expect("poisoned");
        for (&p, entry) in wanted.iter().zip(&measured) {
            cache.insert((benchmark, scale, p), entry.clone());
        }
        Ok(measured.swap_remove(0))
    }

    /// One modeled CPU run at the paper's defaults.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn cpu_run(
        &self,
        benchmark: Benchmark,
        scale: usize,
        ranks: usize,
    ) -> Result<CpuRunResult> {
        self.cpu_run_with(benchmark, scale, ranks, PrecisionMode::Mixed, None)
    }

    /// One modeled CPU run with precision and (for rhodo) an explicit
    /// k-space error threshold.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn cpu_run_with(
        &self,
        benchmark: Benchmark,
        scale: usize,
        ranks: usize,
        precision: PrecisionMode,
        kspace_error: Option<f64>,
    ) -> Result<CpuRunResult> {
        let mut profile = self.profile(benchmark)?.at_scale(scale)?;
        if let Some(err) = kspace_error {
            profile = profile.with_kspace_error(err)?;
        }
        let (decomp, census) = self.census(benchmark, scale, ranks)?;
        let opts = CpuRunOptions {
            ranks,
            precision,
            ..CpuRunOptions::default()
        };
        self.cpu_model
            .simulate_with_census(&profile, &decomp, &census, &opts)
    }

    /// One modeled GPU run at the paper's defaults.
    ///
    /// # Errors
    ///
    /// Propagates model failures (including unsupported benchmarks).
    pub fn gpu_run(&self, benchmark: Benchmark, scale: usize, gpus: usize) -> Result<GpuRunResult> {
        self.gpu_run_with(benchmark, scale, gpus, PrecisionMode::Mixed, None)
    }

    /// One modeled GPU run with precision and k-space error override.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn gpu_run_with(
        &self,
        benchmark: Benchmark,
        scale: usize,
        gpus: usize,
        precision: PrecisionMode,
        kspace_error: Option<f64>,
    ) -> Result<GpuRunResult> {
        let mut profile = self.profile(benchmark)?.at_scale(scale)?;
        if let Some(err) = kspace_error {
            profile = profile.with_kspace_error(err)?;
        }
        let ranks = gpu_host_ranks(gpus);
        let (_, census) = self.census(benchmark, scale, ranks)?;
        let opts = GpuRunOptions { gpus, precision };
        self.gpu_model
            .simulate_with_census(&profile, &census, &opts)
    }
}

/// Every rank count the paper's sweeps decompose `benchmark` over.
fn sweep_ranks(benchmark: Benchmark) -> impl Iterator<Item = usize> {
    let gpu = GPU_DEVICES
        .into_iter()
        .filter(move |_| benchmark.gpu_supported())
        .map(gpu_host_ranks);
    CPU_PROCS.into_iter().chain(gpu)
}

/// Displaces positions by a small thermal amplitude (5% of the mean
/// inter-particle spacing) so the decomposition census reflects a *running*
/// system rather than a perfect generated lattice — without this, atoms
/// sitting exactly on subdomain boundaries produce spurious ±one-plane load
/// imbalance that thermal motion washes out in reality.
fn thermal_smear(x: &mut [md_core::V3], bx: &SimBox, seed: u64) {
    if x.is_empty() {
        return;
    }
    let spacing = (bx.volume() / x.len() as f64).cbrt();
    let sigma = 0.05 * spacing;
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*; cheap, deterministic, good enough for a smear.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    for p in x.iter_mut() {
        p.x += sigma * next();
        p.y += sigma * next();
        p.z += sigma * next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_are_reused() {
        let ctx = ExperimentContext::new(Fidelity::Quick);
        let p1 = ctx.profile(Benchmark::Lj).unwrap();
        let p2 = ctx.profile(Benchmark::Lj).unwrap();
        assert_eq!(p1, p2);
        let (d1, c1) = ctx.census(Benchmark::Lj, 1, 8).unwrap();
        let (_, c2) = ctx.census(Benchmark::Lj, 1, 8).unwrap();
        assert_eq!(c1.loads(), c2.loads());
        assert_eq!(d1.nranks(), 8);
    }

    #[test]
    fn a_batch_filled_entry_equals_a_fresh_measure() {
        let ctx = ExperimentContext::new(Fidelity::Quick);
        // One miss fills every sweep rank count of (lj, 1).
        ctx.census(Benchmark::Lj, 1, 8).unwrap();
        let (bx, x) = ctx.system(Benchmark::Lj, 1).unwrap();
        let cutoff = ctx.profile(Benchmark::Lj).unwrap().ghost_cutoff;
        let cached = ctx.censuses.lock().unwrap().clone();
        assert_eq!(
            cached.len(),
            12,
            "7 CPU process counts + 5 GPU host rank counts"
        );
        for p in sweep_ranks(Benchmark::Lj) {
            let (d, census) = &cached[&(Benchmark::Lj, 1, p)];
            let fresh = Decomposition::new(bx, p).unwrap();
            assert_eq!(d.grid(), fresh.grid(), "{p} ranks");
            let measured = WorkloadCensus::measure(&fresh, &x, cutoff);
            assert_eq!(census.loads(), measured.loads(), "{p} ranks");
        }
    }

    #[test]
    fn quick_fidelity_limits_scales() {
        assert_eq!(Fidelity::Quick.scales(), &[1, 2]);
        assert_eq!(Fidelity::Full.scales(), &[1, 2, 3, 4]);
    }

    #[test]
    fn cpu_and_gpu_runs_work_end_to_end() {
        let ctx = ExperimentContext::new(Fidelity::Quick);
        let cpu = ctx.cpu_run(Benchmark::Lj, 1, 4).unwrap();
        assert!(cpu.ts_per_sec > 0.0);
        let gpu = ctx.gpu_run(Benchmark::Lj, 1, 1).unwrap();
        assert!(gpu.ts_per_sec > 0.0);
    }
}
