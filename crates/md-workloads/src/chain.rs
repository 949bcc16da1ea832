//! The Chain benchmark: a bead-spring polymer melt with 100-mer chains
//! (LAMMPS `bench/in.chain`, the Kremer-Grest model).
//!
//! FENE bonds with a WCA (purely repulsive LJ) pair interaction, NVE
//! integration with a Langevin thermostat at T\* = 1.0. Chains are laid out
//! as serpentine walks over a simple-cubic lattice at the melt density, so
//! every initial bond length sits safely inside the FENE well.

use md_core::compute::seed_velocities;
use md_core::{AtomStore, Result, SimBox, Simulation, Threads, UnitSystem, Vec3, V3};
use md_potentials::{FeneBond, LjCut};

/// Reduced bead density.
pub const DENSITY: f64 = 0.8442;
/// Beads per chain.
pub const CHAIN_LENGTH: usize = 100;
/// WCA cutoff, `2^{1/6}σ` (Table 2 rounds it to 1.12σ).
pub const CUTOFF: f64 = 1.122_462_048_309_373;
/// Neighbor skin in σ.
pub const SKIN: f64 = 0.4;
/// Timestep in τ.
pub const DT: f64 = 0.012;
/// Thermostat target temperature.
pub const TEMPERATURE: f64 = 1.0;
/// Langevin damping time.
pub const LANGEVIN_DAMP: f64 = 10.0;

/// Serpentine lattice walk: `50s × 40s × 16s` sites visited so consecutive
/// sites are always nearest neighbors.
fn serpentine(scale: usize) -> (SimBox, Vec<V3>) {
    let (nx, ny, nz) = (50 * scale, 40 * scale, 16 * scale);
    let a = (1.0 / DENSITY).powf(1.0 / 3.0);
    let bx = SimBox::orthogonal(nx as f64 * a, ny as f64 * a, nz as f64 * a);
    let mut x = Vec::with_capacity(nx * ny * nz);
    for cz in 0..nz {
        for wy in 0..ny {
            // Serpentine in y per z-layer.
            let cy = if cz % 2 == 0 { wy } else { ny - 1 - wy };
            for wx in 0..nx {
                // Serpentine in x per row.
                let cx = if wy % 2 == 0 { wx } else { nx - 1 - wx };
                x.push(Vec3::new(
                    (cx as f64 + 0.5) * a,
                    (cy as f64 + 0.5) * a,
                    (cz as f64 + 0.5) * a,
                ));
            }
        }
    }
    (bx, x)
}

/// Positions and box at replication factor `scale`.
pub fn positions(scale: usize) -> (SimBox, Vec<V3>) {
    serpentine(scale)
}

/// Builds the runnable deck.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build(scale: usize, seed: u64) -> Result<Simulation> {
    build_with(scale, seed, Threads::from_env()?)
}

/// Builds the runnable deck with an explicit threading knob (the WCA pair
/// kernel and neighbor builds thread; bonded terms stay serial).
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
    let threads = tuning.threads;
    let (bx, x) = positions(scale);
    let n = x.len();
    debug_assert_eq!(n % CHAIN_LENGTH, 0);
    let mut atoms = AtomStore::with_capacity(n);
    for (i, p) in x.into_iter().enumerate() {
        let molecule = (i / CHAIN_LENGTH) as u32;
        atoms.push_full(p, Vec3::zero(), 0, 0.0, 0.0, molecule);
    }
    atoms.set_masses(vec![1.0]);
    // Bond consecutive beads within each chain.
    for i in 0..n - 1 {
        if i / CHAIN_LENGTH == (i + 1) / CHAIN_LENGTH {
            atoms.add_bond(0, i as u32, (i + 1) as u32);
        }
    }
    // LAMMPS `special_bonds fene` = 0 1 1: exclude only 1-2 pairs.
    atoms.build_exclusions(true, false, false);
    let units = UnitSystem::lj();
    seed_velocities(&mut atoms, &units, TEMPERATURE, seed);
    let wca = LjCut::new(1, &[(0, 0, 1.0, 1.0)], CUTOFF)?;
    Simulation::builder(bx, atoms, units)
        .pair(crate::wrap_pair(wca, threads)?)
        .threads(threads)
        .kernel_path(tuning.kernel)
        .sort_every(tuning.sort_every)
        .bond(Box::new(FeneBond::kremer_grest()))
        .fix(Box::new(md_core::Langevin::new(
            TEMPERATURE,
            LANGEVIN_DAMP,
            seed ^ 0x9e37,
        )?))
        .skin(SKIN)
        .dt(DT)
        .thermo_every(100)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_size_and_chain_count() {
        let (_, x) = positions(1);
        assert_eq!(x.len(), 32_000);
        assert_eq!(x.len() / CHAIN_LENGTH, 320);
    }

    #[test]
    fn consecutive_beads_are_lattice_neighbors() {
        let (bx, x) = positions(1);
        let a = (1.0 / DENSITY).powf(1.0 / 3.0);
        for w in x.windows(2) {
            let d = bx.min_image(w[1], w[0]).norm();
            assert!(
                d < 1.01 * a,
                "serpentine step of length {d} (lattice constant {a})"
            );
        }
    }

    #[test]
    fn bonds_stay_inside_fene_well() {
        let mut sim = build(1, 5).unwrap();
        sim.run(30).unwrap();
        let atoms = sim.atoms();
        let bx = *sim.sim_box();
        let mut rmax = 0.0f64;
        for b in atoms.bonds() {
            let r = bx
                .min_image(atoms.x()[b.i as usize], atoms.x()[b.j as usize])
                .norm();
            rmax = rmax.max(r);
        }
        assert!(
            rmax < 1.5,
            "max bond length {rmax} must stay under R0 = 1.5"
        );
    }

    #[test]
    fn neighbor_count_matches_table2() {
        // Table 2: ~5 neighbors/atom for Chain (tiny WCA cutoff, 1-2 excluded).
        let sim = build(1, 5).unwrap();
        let nbr = sim.neighbor_list().unwrap().stats().neighbors_within_cutoff;
        assert!((2.0..=9.0).contains(&nbr), "neighbors/atom {nbr}");
    }

    #[test]
    fn bond_count_is_99_per_chain() {
        let sim = build(1, 5).unwrap();
        assert_eq!(sim.atoms().bonds().len(), 320 * 99);
    }
}
