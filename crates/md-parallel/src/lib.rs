//! # md-parallel — the virtual cluster substrate
//!
//! The paper characterizes LAMMPS' MPI parallelization: a 3D spatial
//! decomposition of the simulation box, ghost-atom halo exchange each
//! timestep, and global reductions (plus all-to-all transposes inside the
//! 3D FFT). This crate rebuilds that machinery twice over:
//!
//! * **Real decomposition** — [`Decomposition`] partitions a box into a
//!   LAMMPS-style processor grid, [`ghost`] constructs actual ghost-atom
//!   copies, and the test suite proves decomposed forces equal the
//!   single-process result.
//! * **Virtual execution** — [`VirtualCluster`] runs MPI ranks on *virtual
//!   clocks*: per-rank compute advances a rank's clock, halo exchanges and
//!   allreduces synchronize clocks through a latency/bandwidth link model,
//!   and every second is attributed to a task ([`md_core::TaskKind`]) and an
//!   MPI function ([`MpiFunction`]) ledger. The host machine's core count is
//!   irrelevant — this is how a 64-rank Xeon node is characterized on a
//!   1-core box (see DESIGN.md).
//!
//! [`WorkloadCensus`] bridges the two: it measures, from the *real* particle
//! positions of a benchmark system, exactly how many owned atoms, ghost
//! atoms, and interaction pairs every rank of a `P`-way decomposition gets.

pub mod census;
pub mod cluster;
pub mod comm;
pub mod decomposition;
pub mod ghost;
pub mod mpi;

pub use census::{replan_loads, suspect_rank, RankLoad, WorkloadCensus, SUSPECT_EXCESS_FRACTION};
pub use cluster::{ClusterFaults, CriticalStep, LinkModel, VirtualCluster};
pub use comm::{frame_ghost_payload, verify_ghost_payload};
pub use decomposition::{Decomposition, ProcGrid};
pub use ghost::GhostExchange;
pub use mpi::{MpiFunction, MpiLedger};
