//! # md-core — the verlette molecular-dynamics engine core
//!
//! This crate implements the structural skeleton of a classical MD code in the
//! spirit of LAMMPS, as characterized by Peverelli et al., *"Characterizing
//! Molecular Dynamics Simulation on Commodity Platforms"* (IISWC 2022):
//!
//! * a simulation box with periodic boundary conditions ([`SimBox`]),
//! * a structure-of-arrays atom store with molecular topology ([`AtomStore`]),
//! * cell-binned Verlet neighbor lists with a skin distance ([`NeighborList`]),
//! * velocity-Verlet NVE and Nose-Hoover style NPT integration,
//! * a Langevin thermostat and SHAKE bond constraints,
//! * the LAMMPS task taxonomy (Pair / Bond / Kspace / Neigh / Comm / Modify /
//!   Output / Other) with per-task timing ledgers ([`TaskLedger`]),
//! * and the [`Simulation`] driver that stitches a timestep together in the
//!   order of Figure 1 of the paper.
//!
//! Force fields live in `md-potentials`; long-range solvers in `md-kspace`;
//! the domain-decomposed virtual cluster in `md-parallel`.
//!
//! ## Example
//!
//! ```rust
//! use md_core::{AtomStore, SimBox, Vec3};
//!
//! // An empty cubic box, 10x10x10 in reduced units, fully periodic.
//! let bx = SimBox::cubic(10.0);
//! let mut atoms = AtomStore::new();
//! atoms.push(Vec3::new(1.0, 2.0, 3.0), Vec3::zero(), 0);
//! assert_eq!(atoms.len(), 1);
//! assert!((bx.volume() - 1000.0).abs() < 1e-12);
//! ```

pub mod atoms;
pub mod compute;
pub mod constraint;
pub mod error;
pub mod force;
pub mod integrate;
pub mod kernel;
pub mod math;
pub mod neighbor;
pub mod simbox;
pub mod simulation;
pub mod sort;
pub mod task;
pub mod thermostat;
pub mod threads;
pub mod units;
pub mod vec3;
pub mod wire;

pub use atoms::{Angle, AtomStore, Bond, Dihedral};
pub use compute::{kinetic_energy, remove_drift, temperature, ThermoState};
pub use constraint::{Shake, ShakeParams};
pub use error::{CoreError, Result};
pub use force::{
    AngleStyle, BondStyle, DihedralStyle, EnergyVirial, Fix, KspaceStyle, PairStyle, PairSystem,
};
pub use integrate::{Integrator, NoseHooverNpt, NptParams, VelocityVerlet};
pub use kernel::{KernelPath, LaneAccum, LaneGather, LANES};
pub use neighbor::{NeighborBuildStats, NeighborList, NeighborListKind, NeighborPolicy};
pub use simbox::SimBox;
pub use simulation::{Simulation, SimulationBuilder, StepReport};
pub use task::{TaskKind, TaskLedger};
pub use thermostat::Langevin;
pub use threads::Threads;
pub use units::UnitSystem;
pub use vec3::Vec3;

/// Convenience alias for the engine's vector (always `f64`).
pub type V3 = Vec3<f64>;
