//! The EAM benchmark: a copper metallic solid (LAMMPS `bench/in.eam`).
//!
//! 32000·s³ Cu atoms on the experimental fcc lattice (a = 3.615 Å) with the
//! Sutton-Chen analytic EAM, metal units, a 4.95 Å force cutoff and 1.0 Å
//! skin, velocities created at 1600 K, NVE integration at dt = 5 fs.

use crate::lattice::fcc;
use md_core::compute::seed_velocities;
use md_core::{AtomStore, Result, SimBox, Simulation, Threads, UnitSystem, Vec3, V3};
use md_potentials::SuttonChenEam;

/// Copper fcc lattice constant (Å).
pub const LATTICE_A: f64 = 3.615;
/// Initial temperature (K).
pub const TEMPERATURE: f64 = 1600.0;
/// Force cutoff (Å), per the paper's Table 2.
pub const CUTOFF: f64 = 4.95;
/// Neighbor skin (Å).
pub const SKIN: f64 = 1.0;
/// Timestep (ps).
pub const DT: f64 = 0.005;
/// Copper atomic mass (g/mol).
pub const MASS_CU: f64 = 63.546;

/// Positions and box at replication factor `scale`.
pub fn positions(scale: usize) -> (SimBox, Vec<V3>) {
    let cells = 20 * scale;
    fcc(cells, cells, cells, LATTICE_A)
}

/// Builds the runnable deck.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build(scale: usize, seed: u64) -> Result<Simulation> {
    build_with(scale, seed, Threads::from_env()?)
}

/// Builds the runnable deck with an explicit threading knob (the two-pass
/// EAM kernel threads per density/embedding/force chunk).
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build_with(scale: usize, seed: u64, threads: Threads) -> Result<Simulation> {
    build_tuned(scale, seed, crate::DeckTuning::with_threads(threads)?)
}

/// Builds the runnable deck with the full in-core tuning knob set.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build_tuned(scale: usize, seed: u64, tuning: crate::DeckTuning) -> Result<Simulation> {
    let (bx, x) = positions(scale);
    let mut atoms = AtomStore::with_capacity(x.len());
    for p in x {
        atoms.push(p, Vec3::zero(), 0);
    }
    atoms.set_masses(vec![MASS_CU]);
    let units = UnitSystem::metal();
    seed_velocities(&mut atoms, &units, TEMPERATURE, seed);
    Simulation::builder(bx, atoms, units)
        .pair(crate::wrap_pair(SuttonChenEam::copper(), tuning.threads)?)
        .threads(tuning.threads)
        .kernel_path(tuning.kernel)
        .sort_every(tuning.sort_every)
        .skin(SKIN)
        .dt(DT)
        .thermo_every(100)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_size_is_32k() {
        let (_, x) = positions(1);
        assert_eq!(x.len(), 32_000);
    }

    #[test]
    fn neighbor_count_matches_table2() {
        // Table 2: ~45 neighbors/atom (42 fcc shells within 4.95 Å + skin).
        let sim = build(1, 2).unwrap();
        let nbr = sim.neighbor_list().unwrap().stats().neighbors_within_cutoff;
        assert!((35.0..=55.0).contains(&nbr), "neighbors/atom {nbr}");
    }

    #[test]
    fn solid_stays_bound_under_dynamics() {
        let mut sim = build(1, 2).unwrap();
        let e0 = sim.thermo();
        assert!(e0.potential < 0.0, "cohesive lattice must bind");
        sim.run(10).unwrap();
        let e1 = sim.thermo();
        // Energy approximately conserved (NVE, 5 fs steps at 1600 K).
        let rel = ((e1.total_energy() - e0.total_energy()) / e0.total_energy()).abs();
        assert!(rel < 1e-2, "energy drift {rel}");
    }
}
