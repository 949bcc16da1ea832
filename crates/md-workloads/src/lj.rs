//! The LJ benchmark: a 3D Lennard-Jones melt (LAMMPS `bench/in.lj`).
//!
//! 32000·s³ atoms on an fcc lattice at reduced density 0.8442, temperature
//! 1.44, `lj/cut` at 2.5σ with a 0.3σ skin, NVE integration, dt = 0.005τ.

use crate::lattice::{fcc, fcc_lattice_constant};
use md_core::compute::seed_velocities;
use md_core::{AtomStore, Result, SimBox, Simulation, Threads, UnitSystem, Vec3, V3};
use md_potentials::LjCut;

/// Reduced density of the melt.
pub const DENSITY: f64 = 0.8442;
/// Initial reduced temperature.
pub const TEMPERATURE: f64 = 1.44;
/// Pair cutoff in σ.
pub const CUTOFF: f64 = 2.5;
/// Neighbor skin in σ.
pub const SKIN: f64 = 0.3;
/// Timestep in τ.
pub const DT: f64 = 0.005;

/// Positions and box at replication factor `scale`.
pub fn positions(scale: usize) -> (SimBox, Vec<V3>) {
    let cells = 20 * scale;
    fcc(cells, cells, cells, fcc_lattice_constant(DENSITY))
}

/// Builds the runnable deck.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build(scale: usize, seed: u64) -> Result<Simulation> {
    build_with(scale, seed, Threads::from_env()?)
}

/// Builds the runnable deck with an explicit threading knob.
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
    atoms.set_masses(vec![1.0]);
    let units = UnitSystem::lj();
    seed_velocities(&mut atoms, &units, TEMPERATURE, seed);
    let lj = LjCut::new(1, &[(0, 0, 1.0, 1.0)], CUTOFF)?;
    Simulation::builder(bx, atoms, units)
        .pair(crate::wrap_pair(lj, tuning.threads)?)
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
        let (bx, x) = positions(1);
        assert_eq!(x.len(), 32_000);
        assert!((x.len() as f64 / bx.volume() - DENSITY).abs() < 1e-9);
    }

    #[test]
    fn melt_runs_and_conserves_energy() {
        let mut sim = build(1, 7).unwrap();
        let e0 = sim.thermo().total_energy();
        sim.run(20).unwrap();
        let e1 = sim.thermo().total_energy();
        let rel = ((e1 - e0) / e0).abs();
        // Plain truncated (unshifted) LJ drifts slightly as pairs cross the
        // cutoff, as in LAMMPS; require better than half a percent.
        assert!(rel < 5e-3, "energy drift {rel} over 20 steps");
    }

    #[test]
    fn every_step_either_rebuilds_or_counts_a_skipped_check() {
        // One forced build at set-up, then one displacement check per step.
        let steps = 20usize;
        let mut sim = build(1, 7).unwrap();
        sim.run(steps as u64).unwrap();
        let stats = sim.neighbor_list().unwrap().stats();
        assert!(stats.builds > 1, "no rebuild in {steps} steps");
        assert!(stats.skipped_checks > 0, "no kept list in {steps} steps");
        assert_eq!(stats.builds + stats.skipped_checks, steps + 1);
    }

    #[test]
    fn neighbor_count_matches_table2() {
        // Table 2: ~55 neighbors/atom for the LJ melt (cutoff + skin).
        let sim = build(1, 7).unwrap();
        let nbr = sim.neighbor_list().unwrap().stats().neighbors_within_cutoff;
        assert!((45.0..=65.0).contains(&nbr), "neighbors/atom {nbr}");
    }

    #[test]
    fn initial_temperature_is_144() {
        let sim = build(1, 3).unwrap();
        assert!((sim.thermo().temperature - TEMPERATURE).abs() < 1e-6);
    }
}
