//! The Chute benchmark: granular chute flow (LAMMPS `bench/in.chute`).
//!
//! A bed of granular spheres on a 26°-inclined chute: gravity drives the
//! flow, a frozen bottom particle layer plus a Hookean granular wall confine
//! it, and the `gran/hooke/history` pair style tracks per-contact tangential
//! history. Periodic in x/y, fixed (shrink-wrapped in LAMMPS, walled here)
//! in z. This is the one benchmark without Newton's-third-law pair halving
//! and the one the reference GPU package cannot run. The list is rebuilt as
//! `in.chute` asks (`check` defaults to `yes`); this line is quoted from
//! memory of the LAMMPS distribution, not from a copy of the file:
//!
//! ```text
//! neigh_modify every 1 delay 0
//! ```

use md_core::{
    AtomStore, NeighborPolicy, Result, SimBox, Simulation, Threads, UnitSystem, Vec3, V3,
};
use md_potentials::{Freeze, GranHookeHistory, GranWall, Gravity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Normal spring constant.
pub const KN: f64 = 2000.0;
/// Normal damping.
pub const GAMMA_N: f64 = 50.0;
/// Coulomb friction coefficient.
pub const XMU: f64 = 0.5;
/// Particle diameter (reduced units).
pub const DIAMETER: f64 = 1.0;
/// Chute inclination (degrees).
pub const CHUTE_ANGLE: f64 = 26.0;
/// Timestep.
pub const DT: f64 = 0.0001;
/// Neighbor skin.
pub const SKIN: f64 = 0.1;
/// Neighbor rebuild cadence: `neigh_modify every 1 delay 0` (check yes).
pub const NEIGH_MODIFY: NeighborPolicy = NeighborPolicy::new(1, 0, true);

/// Base grid: 40 × 40 columns × 20 layers = 32000 particles.
const BASE_XY: usize = 40;
const BASE_LAYERS: usize = 20;

/// Positions and box at replication factor `scale` (jitter seeded).
pub fn positions(scale: usize, seed: u64) -> (SimBox, Vec<V3>) {
    let (nx, ny, nlayer) = (BASE_XY * scale, BASE_XY * scale, BASE_LAYERS * scale);
    // Modest head room above the bed: LAMMPS shrink-wraps the z boundary
    // around the flow, so the decomposition never owns large empty slabs.
    let lz = 1.25 * nlayer as f64;
    let bx = SimBox::orthogonal(nx as f64, ny as f64, lz).with_periodicity(true, true, false);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(nx * ny * nlayer);
    for layer in 0..nlayer {
        for iy in 0..ny {
            for ix in 0..nx {
                // Slight jitter breaks the crystalline symmetry; the bottom
                // (frozen) layer stays exact.
                let (jx, jy) = if layer == 0 {
                    (0.0, 0.0)
                } else {
                    (rng.gen::<f64>() * 0.1 - 0.05, rng.gen::<f64>() * 0.1 - 0.05)
                };
                x.push(Vec3::new(
                    ix as f64 + 0.5 + jx,
                    iy as f64 + 0.5 + jy,
                    0.5 + 0.95 * layer as f64,
                ));
            }
        }
    }
    (bx, x)
}

/// Builds the runnable deck.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build(scale: usize, seed: u64) -> Result<Simulation> {
    build_with(scale, seed, Threads::from_env()?)
}

/// Builds the runnable deck with an explicit threading knob. The granular
/// pair style mutates per-contact tangential history during `compute`, so
/// it is not chunk-safe and stays serial — only the neighbor-list builds
/// thread (which are pure-integer and bitwise invariant anyway).
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build_with(scale: usize, seed: u64, threads: Threads) -> Result<Simulation> {
    build_tuned(scale, seed, crate::DeckTuning::with_threads(threads)?)
}

/// Builds the runnable deck with the full in-core tuning knob set. The
/// granular style has no lanes kernel and vetoes reordering (contact history
/// sits beside the list rows and is matched to them by atom index), so the
/// kernel/sort knobs are effectively inert
/// here — passing them anyway keeps the deck interface uniform.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn build_tuned(scale: usize, seed: u64, tuning: crate::DeckTuning) -> Result<Simulation> {
    let threads = tuning.threads;
    let (bx, x) = positions(scale, seed);
    let nx = BASE_XY * scale;
    let ny = BASE_XY * scale;
    let mut atoms = AtomStore::with_capacity(x.len());
    for (i, p) in x.into_iter().enumerate() {
        // Layer 0 is the frozen base (type 1); the rest flows (type 0).
        let kind = if i < nx * ny { 1 } else { 0 };
        atoms.push_full(p, Vec3::zero(), kind, 0.0, 0.5 * DIAMETER, 0);
    }
    atoms.set_masses(vec![1.0, 1.0]);
    let units = UnitSystem::lj();
    let gran = GranHookeHistory::new(KN, GAMMA_N, XMU, DIAMETER)?;
    Simulation::builder(bx, atoms, units)
        .pair(Box::new(gran))
        .threads(threads)
        .kernel_path(tuning.kernel)
        .sort_every(tuning.sort_every)
        .fix(Box::new(Gravity::chute(1.0, CHUTE_ANGLE)))
        .fix(Box::new(GranWall::new(0.0, KN, GAMMA_N)))
        .fix(Box::new(Freeze::new(1)))
        .skin(SKIN)
        .neighbor_policy(NEIGH_MODIFY)
        .dt(DT)
        .thermo_every(1000)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_size_is_32k() {
        let (_, x) = positions(1, 1);
        assert_eq!(x.len(), 32_000);
    }

    #[test]
    fn neighbor_count_matches_table2() {
        // Table 2: ~7 neighbors/atom (contact-range cutoff).
        let sim = build(1, 1).unwrap();
        let nbr = sim.neighbor_list().unwrap().stats().neighbors_per_atom;
        assert!((4.0..=12.0).contains(&nbr), "neighbors/atom {nbr}");
    }

    #[test]
    fn flow_starts_moving_downhill_while_base_stays_frozen() {
        let mut sim = build(1, 1).unwrap();
        sim.run(200).unwrap();
        let atoms = sim.atoms();
        let n_base = 40 * 40;
        // Frozen base: zero velocity.
        for i in 0..n_base {
            assert!(atoms.v()[i].norm() < 1e-12, "base particle {i} moved");
        }
        // Flowing particles drift along +x (gravity tilt direction).
        let mean_vx: f64 =
            atoms.v()[n_base..].iter().map(|v| v.x).sum::<f64>() / (atoms.len() - n_base) as f64;
        assert!(
            mean_vx > 0.0,
            "mean flow velocity {mean_vx} should be downhill"
        );
    }

    #[test]
    fn uses_full_neighbor_list() {
        use md_core::neighbor::NeighborListKind;
        let sim = build(1, 1).unwrap();
        assert_eq!(sim.neighbor_list().unwrap().kind(), NeighborListKind::Full);
    }
}
