//! The Rhodopsin benchmark: an all-atom solvated biomolecular system
//! (LAMMPS `bench/in.rhodo`), reproduced here as a *synthetic* bio-like deck.
//!
//! The original simulates the rhodopsin protein in a solvated lipid bilayer
//! (CHARMM force field, PPPM at 1e-4, NPT, SHAKE) — input data we cannot
//! redistribute. The substitute preserves every workload-relevant property
//! (see DESIGN.md): biological atom density 0.1 atoms/Å³, 8–10 Å LJ
//! switching with 10 Å Coulomb cutoff and 2 Å skin (≈440 neighbors/atom),
//! partial charges with PPPM long-range electrostatics, SHAKE-constrained
//! hydrogen-like bonds, bonded terms including dihedrals, and Nose-Hoover
//! NPT integration at a 2 fs timestep.

use md_core::compute::seed_velocities;
use md_core::constraint::{Shake, ShakeParams};
use md_core::integrate::{NoseHooverNpt, NptParams};
use md_core::{AtomStore, KspaceStyle, Result, SimBox, Simulation, Threads, UnitSystem, Vec3, V3};
use md_kspace::Pppm;
use md_potentials::LjCharmmCoulLong;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inner LJ switching radius (Å).
pub const INNER_LJ: f64 = 8.0;
/// Outer LJ cutoff (Å).
pub const OUTER_LJ: f64 = 10.0;
/// Coulomb real-space cutoff (Å).
pub const CUT_COUL: f64 = 10.0;
/// Neighbor skin (Å).
pub const SKIN: f64 = 2.0;
/// Default PPPM relative force-error threshold (Table 2).
pub const KSPACE_ERROR: f64 = 1.0e-4;
/// Timestep (fs).
pub const DT: f64 = 2.0;
/// NPT temperature set point (K).
pub const TEMPERATURE: f64 = 300.0;
/// NPT pressure set point (atm).
pub const PRESSURE: f64 = 1.0;

/// Water O-H constrained bond length (Å).
const R_OH: f64 = 0.9572;
/// Water H-H constrained distance (rigid TIP3P geometry, Å).
const R_HH: f64 = 1.5139;

/// Base lattice: 16 × 20 × 34 molecule sites; 320 chains of 10 beads each
/// occupy 4 stacked sites, 9600 waters occupy one site each
/// (3·9600 + 10·320 = 32000 atoms).
const BASE_DIMS: (usize, usize, usize) = (16, 20, 34);
const CHAINS_PER_CELL: usize = 320;
const CHAIN_BEADS: usize = 10;

/// Site spacing that realizes 0.1 atoms/Å³.
fn spacing() -> f64 {
    // atoms per site-volume: 32000 atoms in 16·20·34 = 10880 sites.
    let sites = (BASE_DIMS.0 * BASE_DIMS.1 * BASE_DIMS.2) as f64;
    (32_000.0 / (0.1 * sites)).powf(1.0 / 3.0)
}

/// Internal: builds atoms + topology + constraint list.
fn assemble(scale: usize, seed: u64) -> (SimBox, AtomStore, Vec<ShakeParams>) {
    let (nx, ny, nz) = (
        BASE_DIMS.0 * scale,
        BASE_DIMS.1 * scale,
        BASE_DIMS.2 * scale,
    );
    let a = spacing();
    let bx = SimBox::orthogonal(nx as f64 * a, ny as f64 * a, nz as f64 * a);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut atoms = AtomStore::with_capacity(32_000 * scale.pow(3));
    let mut shake = Vec::new();
    // Types: 0 = water O, 1 = water H, 2 = chain bead.
    // Choose chain columns deterministically: chains stack along z in runs
    // of 4 sites; distribute them over the first columns of the grid.
    let nchains = CHAINS_PER_CELL * scale.pow(3);
    let columns = nx * ny;
    let chain_cols: usize = nchains.div_ceil(nz / 4);
    let mut chains_placed = 0usize;
    let mut molecule: u32 = 0;
    for iy in 0..ny {
        for ix in 0..nx {
            let col = iy * nx + ix;
            let col_is_chain = col < chain_cols;
            let mut iz = 0usize;
            while iz < nz {
                let cx = (ix as f64 + 0.5) * a;
                let cy = (iy as f64 + 0.5) * a;
                let cz = (iz as f64 + 0.5) * a;
                if col_is_chain && chains_placed < nchains && iz + 4 <= nz {
                    // A 10-bead zigzag chain centered in its 4-stacked-site
                    // block: dz = 1 Å leaves a full lattice gap (~3.2 Å) to
                    // the water molecules above and below.
                    let dz = 1.0;
                    let block_center = (iz as f64 + 2.0) * a;
                    let z0 = block_center - 0.5 * dz * (CHAIN_BEADS - 1) as f64;
                    let first = atoms.len() as u32;
                    for b in 0..CHAIN_BEADS {
                        let off = if b % 2 == 0 { 0.3 } else { -0.3 };
                        let q = if b % 2 == 0 { 0.25 } else { -0.25 };
                        atoms.push_full(
                            Vec3::new(cx + off, cy, z0 + b as f64 * dz),
                            Vec3::zero(),
                            2,
                            q,
                            0.0,
                            molecule,
                        );
                    }
                    for b in 0..CHAIN_BEADS as u32 - 1 {
                        atoms.add_bond(0, first + b, first + b + 1);
                    }
                    for b in 0..CHAIN_BEADS as u32 - 2 {
                        atoms.add_angle(0, first + b, first + b + 1, first + b + 2);
                    }
                    for b in 0..CHAIN_BEADS as u32 - 3 {
                        atoms.add_dihedral(
                            0,
                            first + b,
                            first + b + 1,
                            first + b + 2,
                            first + b + 3,
                        );
                    }
                    molecule += 1;
                    chains_placed += 1;
                    iz += 4;
                } else {
                    // A rigid water: O plus two H, orientation jittered.
                    let o = atoms.len() as u32;
                    let theta: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
                    let half = 104.52f64.to_radians() / 2.0;
                    let dir1 = Vec3::new(
                        (theta + half).cos() * R_OH,
                        (theta + half).sin() * R_OH,
                        0.0,
                    );
                    let dir2 = Vec3::new(
                        (theta - half).cos() * R_OH,
                        (theta - half).sin() * R_OH,
                        0.0,
                    );
                    let xo = Vec3::new(cx, cy, cz);
                    atoms.push_full(xo, Vec3::zero(), 0, -0.834, 0.0, molecule);
                    atoms.push_full(xo + dir1, Vec3::zero(), 1, 0.417, 0.0, molecule);
                    atoms.push_full(xo + dir2, Vec3::zero(), 1, 0.417, 0.0, molecule);
                    atoms.add_bond(1, o, o + 1);
                    atoms.add_bond(1, o, o + 2);
                    atoms.add_angle(1, o + 1, o, o + 2);
                    shake.push(ShakeParams {
                        i: o,
                        j: o + 1,
                        length: R_OH,
                    });
                    shake.push(ShakeParams {
                        i: o,
                        j: o + 2,
                        length: R_OH,
                    });
                    shake.push(ShakeParams {
                        i: o + 1,
                        j: o + 2,
                        length: R_HH,
                    });
                    molecule += 1;
                    iz += 1;
                }
            }
        }
    }
    let _ = columns;
    // O, H, chain bead.
    atoms.set_masses(vec![15.9994, 1.008, 12.011]);
    // CHARMM exclusions: 1-2, 1-3, 1-4 all excluded.
    atoms.build_exclusions(true, true, true);
    (bx, atoms, shake)
}

/// Positions and box at replication factor `scale`.
pub fn positions(scale: usize, seed: u64) -> (SimBox, Vec<V3>) {
    let (bx, atoms, _) = assemble(scale, seed);
    (bx, atoms.x().to_vec())
}

/// Builds the runnable deck at the default 1e-4 k-space error threshold.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build(scale: usize, seed: u64) -> Result<Simulation> {
    build_with(scale, seed, Threads::from_env()?)
}

/// Builds the runnable deck with an explicit threading knob (CHARMM pair
/// kernel, neighbor builds, and the PPPM solver all thread).
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build_with(scale: usize, seed: u64, threads: Threads) -> Result<Simulation> {
    build_full(
        scale,
        seed,
        KSPACE_ERROR,
        crate::DeckTuning::with_threads(threads)?,
    )
}

/// Builds the runnable deck with the full in-core tuning knob set.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build_tuned(scale: usize, seed: u64, tuning: crate::DeckTuning) -> Result<Simulation> {
    build_full(scale, seed, KSPACE_ERROR, tuning)
}

/// Builds the deck with an explicit k-space error threshold (the paper's
/// Section 7 sweeps 1e-4 … 1e-7).
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build_with_error(scale: usize, seed: u64, kspace_error: f64) -> Result<Simulation> {
    build_full(scale, seed, kspace_error, crate::DeckTuning::from_env()?)
}

fn build_full(
    scale: usize,
    seed: u64,
    kspace_error: f64,
    tuning: crate::DeckTuning,
) -> Result<Simulation> {
    let threads = tuning.threads;
    let (bx, mut atoms, shake) = assemble(scale, seed);
    let units = UnitSystem::real();
    seed_velocities(&mut atoms, &units, TEMPERATURE, seed);

    let mut pair = LjCharmmCoulLong::new(
        3,
        &[
            (0, 0.1521, 3.1507), // water O
            (1, 0.0460, 1.0),    // water H (small core)
            (2, 0.0700, 3.55),   // chain bead
        ],
        INNER_LJ,
        OUTER_LJ,
        CUT_COUL,
    )?;
    let mut pppm = Pppm::new(CUT_COUL, kspace_error, 5);
    pppm.set_qqr2e(units.qqr2e);
    pppm.setup(&bx, atoms.charges())?;
    pair.set_g_ewald(pppm.g_ewald());

    Simulation::builder(bx, atoms, units)
        .pair(crate::wrap_pair(pair, threads)?)
        .threads(threads)
        .kernel_path(tuning.kernel)
        .sort_every(tuning.sort_every)
        .bond(Box::new(md_potentials::HarmonicBond::new(&[
            (300.0, 1.166), // chain backbone (zigzag: sqrt(1.0² + 0.6²))
            (450.0, R_OH),  // water O-H (SHAKE keeps it rigid; term is benign)
        ])?))
        .angle(Box::new(md_potentials::HarmonicAngle::new(&[
            (40.0, 120.0),  // chain
            (55.0, 104.52), // water
        ])?))
        .dihedral(Box::new(md_potentials::CharmmDihedral::new(&[(
            1.0, 2, 180.0,
        )])?))
        .kspace(Box::new(pppm))
        .integrator(Box::new(NoseHooverNpt::new(NptParams {
            t_target: TEMPERATURE,
            t_damp: 100.0,
            p_target: PRESSURE,
            p_damp: 1000.0,
        })?))
        .shake(Shake::new(shake, 1e-6, 100))
        .skin(SKIN)
        .dt(DT)
        .thermo_every(50)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_size_is_32k_and_neutral() {
        let (bx, atoms, shake) = assemble(1, 9);
        assert_eq!(atoms.len(), 32_000);
        let qsum: f64 = atoms.charges().iter().sum();
        assert!(qsum.abs() < 1e-9, "net charge {qsum}");
        // Density 0.1 atoms/Å³.
        let rho = atoms.len() as f64 / bx.volume();
        assert!((rho - 0.1).abs() < 1e-3, "density {rho}");
        // 3 constraints per water.
        assert_eq!(shake.len() % 3, 0);
    }

    #[test]
    fn topology_counts() {
        let (_, atoms, _) = assemble(1, 9);
        // 320 chains: 9 bonds, 8 angles, 7 dihedrals each;
        // 9600 waters: 2 bonds, 1 angle each.
        assert_eq!(atoms.bonds().len(), 320 * 9 + 9600 * 2);
        assert_eq!(atoms.angles().len(), 320 * 8 + 9600);
        assert_eq!(atoms.dihedrals().len(), 320 * 7);
    }

    #[test]
    fn neighbor_count_matches_table2() {
        // Table 2: ~440 neighbors/atom within the 10 Å cutoff at 0.1 Å⁻³
        // (the skin adds more; accept a generous band).
        let sim = build(1, 9).unwrap();
        let nbr = sim.neighbor_list().unwrap().stats().neighbors_within_cutoff;
        assert!((350.0..=520.0).contains(&nbr), "neighbors/atom {nbr}");
    }

    #[test]
    fn deck_runs_with_shake_and_pppm() {
        let mut sim = build(1, 9).unwrap();
        sim.run(3).unwrap();
        // SHAKE held the water geometry.
        let atoms = sim.atoms();
        let bx = *sim.sim_box();
        // First water of the deck is the first non-chain molecule; find an
        // O (type 0) and check its two H neighbors by index.
        let o = atoms.kinds().iter().position(|&t| t == 0).expect("a water");
        let r1 = bx.min_image(atoms.x()[o], atoms.x()[o + 1]).norm();
        assert!((r1 - R_OH).abs() < 1e-3, "O-H length {r1}");
        // K-space was active.
        assert!(sim.energy().ecoul.abs() > 0.0);
    }
}
