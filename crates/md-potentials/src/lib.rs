//! # md-potentials — force fields for the verlette benchmark suite
//!
//! Implements every interaction the paper's five benchmarks need
//! (Table 2 of the paper):
//!
//! | Benchmark | Pair style                  | Bonded styles             |
//! |-----------|-----------------------------|---------------------------|
//! | LJ        | [`LjCut`]                   | —                         |
//! | Chain     | [`LjCut`] (WCA cutoff)      | [`FeneBond`]              |
//! | EAM       | [`SuttonChenEam`]           | —                         |
//! | Chute     | [`GranHookeHistory`]        | —                         |
//! | Rhodopsin | [`LjCharmmCoulLong`]        | [`HarmonicBond`], [`HarmonicAngle`], [`CharmmDihedral`] |
//!
//! plus the fixes the decks use: [`Gravity`], [`GranWall`], [`Freeze`]
//! (the Langevin thermostat lives in `md-core`).
//!
//! Every style computes in `f64`; the paper's Section 8 precision study
//! (single / mixed / double) is priced by `md_model`, not run here.
//!
//! ## Example
//!
//! ```rust
//! use md_potentials::LjCut;
//! use md_core::PairStyle;
//!
//! // One atom type: ε = σ = 1, cutoff 2.5 σ.
//! let lj = LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap();
//! assert_eq!(lj.cutoff(), 2.5);
//! ```

pub mod bonded;
pub mod charmm;
pub mod eam;
pub mod fixes;
pub mod granular;
pub mod lj;
pub mod mixing;
pub mod threaded;

pub use bonded::{CharmmDihedral, FeneBond, HarmonicAngle, HarmonicBond};
pub use charmm::LjCharmmCoulLong;
pub use eam::SuttonChenEam;
pub use fixes::{Freeze, Gravity};
pub use granular::{GranHookeHistory, GranWall};
pub use lj::LjCut;
pub use mixing::MixingRule;
pub use threaded::{ChunkTeam, Threadable, Threaded};
