//! # md-workloads — the five-benchmark MD suite of the paper
//!
//! Builds runnable decks for the experiments of Table 2:
//!
//! | Benchmark | System | Force field | Integration |
//! |-----------|--------|-------------|-------------|
//! | [`Benchmark::Lj`]    | 3D Lennard-Jones melt (fcc, ρ\*=0.8442)   | `lj/cut` 2.5σ        | NVE |
//! | [`Benchmark::Chain`] | bead-spring polymer melt, 100-mer chains  | FENE + WCA           | NVE + Langevin |
//! | [`Benchmark::Eam`]   | copper fcc solid                          | EAM (Sutton-Chen Cu) | NVE |
//! | [`Benchmark::Chute`] | granular chute flow                       | `gran/hooke/history` | NVE + gravity |
//! | [`Benchmark::Rhodo`] | solvated bio-like system (paper: rhodopsin protein in lipid bilayer) | CHARMM LJ + Coulomb, PPPM 1e-4 | NPT + SHAKE |
//!
//! The Rhodopsin deck is a synthetic substitution (no protein data bank
//! access): a charge-neutral solvated system matched to the original's
//! density, cutoffs, neighbor count, constraint and long-range settings —
//! see DESIGN.md for the substitution argument.
//!
//! Sizes follow the paper: the 32k-atom base replicated `s³`-fold for
//! `s ∈ {1, 2, 3, 4}` gives 32k, 256k, 864k, and 2048k atoms.
//!
//! ## Example
//!
//! ```rust
//! use md_workloads::{Benchmark, build_deck};
//!
//! # fn main() -> Result<(), md_core::CoreError> {
//! let mut deck = build_deck(Benchmark::Lj, 1, 42)?;
//! assert_eq!(deck.simulation.atoms().len(), 32_000);
//! deck.simulation.run(1)?;
//! # Ok(())
//! # }
//! ```

pub mod chain;
pub mod chute;
pub mod eam;
pub mod io;
pub mod lattice;
pub mod lj;
pub mod rhodo;
pub mod taxonomy;

pub use taxonomy::{DeckInfo, TAXONOMY};

use md_core::force::PairStyle;
use md_core::{CoreError, KernelPath, Result, Simulation, Threads};
use md_potentials::{Threadable, Threaded};

/// In-core tuning knobs shared by every deck builder: the thread team, the
/// pair-kernel path (scalar reference vs lane-blocked), and the Morton
/// atom-sort cadence. [`DeckTuning::with_threads`] fills the kernel and sort
/// knobs from the environment (`MD_KERNEL`, `MD_SORT_EVERY`) so existing
/// thread-only call sites pick them up transparently;
/// [`SimulationBuilder`](md_core::SimulationBuilder) downgrades both to the
/// scalar/no-sort reference under deterministic mode. A variable that is set
/// to something unreadable is an error naming it, never a silent default —
/// so every builder that reads the environment ([`build_deck`],
/// [`build_deck_with`], the per-deck `build`/`build_with`) returns it.
#[derive(Debug, Clone, Copy)]
pub struct DeckTuning {
    /// Shared-memory thread team.
    pub threads: Threads,
    /// Pair-kernel inner-loop selection.
    pub kernel: KernelPath,
    /// Steps between Morton sorts (0 disables; applied at rebuilds).
    pub sort_every: u64,
}

impl DeckTuning {
    /// Explicit threads; kernel path and sort cadence from the environment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming `MD_KERNEL` or
    /// `MD_SORT_EVERY` if it is set to something unreadable.
    pub fn with_threads(threads: Threads) -> Result<Self> {
        Ok(DeckTuning {
            threads,
            kernel: KernelPath::from_env()?,
            sort_every: md_core::sort::sort_every_from_env()?,
        })
    }

    /// Everything from the environment (`MD_THREADS`, `MD_DETERMINISTIC`,
    /// `MD_KERNEL`, `MD_SORT_EVERY`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the first of the four
    /// that is set to something unreadable.
    pub fn from_env() -> Result<Self> {
        Self::with_threads(Threads::from_env()?)
    }

    /// Replaces the kernel path.
    pub fn kernel(mut self, kernel: KernelPath) -> Self {
        self.kernel = kernel;
        self
    }

    /// Replaces the sort cadence.
    pub fn sort_every(mut self, every: u64) -> Self {
        self.sort_every = every;
        self
    }
}

/// Boxes `style` for the builder, wrapping it in [`Threaded`] when the
/// threading knob is active (more than one thread, or deterministic mode so
/// even one thread follows the fixed-chunk reduction order).
pub(crate) fn wrap_pair<P: Threadable + 'static>(
    style: P,
    threads: Threads,
) -> Result<Box<dyn PairStyle>> {
    if threads.active() {
        Ok(Box::new(Threaded::with_mode(style, threads)?))
    } else {
        Ok(Box::new(style))
    }
}

/// The five benchmarks of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Bead-spring polymer melt with FENE bonds.
    Chain,
    /// Granular chute flow with frictional history.
    Chute,
    /// Copper solid with the embedded-atom method.
    Eam,
    /// Lennard-Jones melt.
    Lj,
    /// Solvated bio-like system with long-range electrostatics (the paper's
    /// all-atom rhodopsin protein in a lipid bilayer).
    Rhodo,
}

impl Benchmark {
    /// All benchmarks, in the paper's alphabetical figure order.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::Chain,
        Benchmark::Chute,
        Benchmark::Eam,
        Benchmark::Lj,
        Benchmark::Rhodo,
    ];

    /// Lowercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Chain => "chain",
            Benchmark::Chute => "chute",
            Benchmark::Eam => "eam",
            Benchmark::Lj => "lj",
            Benchmark::Rhodo => "rhodo",
        }
    }

    /// Parses a benchmark name.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| CoreError::InvalidParameter {
                name: "benchmark",
                reason: format!("unknown benchmark {name:?}"),
            })
    }

    /// Whether the LAMMPS GPU package supports this benchmark (it lacks the
    /// `gran/hooke` pair style, so Chute is CPU-only — paper Section 6).
    pub fn gpu_supported(self) -> bool {
        !matches!(self, Benchmark::Chute)
    }

    /// Whether this benchmark computes long-range (k-space) forces.
    pub fn has_kspace(self) -> bool {
        matches!(self, Benchmark::Rhodo)
    }

    /// Whether this benchmark computes bonded forces.
    pub fn has_bonds(self) -> bool {
        matches!(self, Benchmark::Chain | Benchmark::Rhodo)
    }

    /// Whether the pair computation exploits Newton's third law
    /// (half neighbor lists). Chute does not (paper Section 3).
    pub fn newton_pairs(self) -> bool {
        !matches!(self, Benchmark::Chute)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The paper's four problem sizes, as the replication factor `s` of the
/// 32k-atom base (atoms = 32000·s³).
pub const SCALES: [usize; 4] = [1, 2, 3, 4];

/// Atom count at replication factor `scale`.
pub fn atoms_at_scale(scale: usize) -> usize {
    32_000 * scale * scale * scale
}

/// Size label in the paper's "k atoms" convention (32, 256, 864, 2048).
pub fn size_label(scale: usize) -> usize {
    atoms_at_scale(scale) / 1000
}

/// A fully constructed, runnable benchmark deck.
pub struct Deck {
    /// Which benchmark this is.
    pub benchmark: Benchmark,
    /// Replication factor (1, 2, 3, 4).
    pub scale: usize,
    /// The ready-to-run simulation.
    pub simulation: Simulation,
    /// Static deck characteristics (the Table 2 row).
    pub info: DeckInfo,
}

impl std::fmt::Debug for Deck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deck")
            .field("benchmark", &self.benchmark)
            .field("scale", &self.scale)
            .field("atoms", &self.simulation.atoms().len())
            .finish()
    }
}

/// Builds a runnable deck for `benchmark` at replication factor `scale`
/// (1..=4), deterministically seeded. Threading comes from the environment
/// (`MD_THREADS`, `MD_DETERMINISTIC`); use [`build_deck_with`] to set it
/// explicitly.
///
/// # Errors
///
/// Returns an error if `scale` is outside 1..=4 or construction fails.
pub fn build_deck(benchmark: Benchmark, scale: usize, seed: u64) -> Result<Deck> {
    build_deck_with(benchmark, scale, seed, Threads::from_env()?)
}

/// Builds a runnable deck with an explicit shared-memory threading knob.
/// Every hot kernel the benchmark owns — pair forces (LJ, CHARMM, EAM),
/// neighbor-list builds, and PPPM for Rhodopsin — honors it; Chute's
/// granular pair style keeps per-contact mutable history and stays serial
/// (only its neighbor builds thread).
///
/// # Errors
///
/// Returns an error if `scale` is outside 1..=4 or construction fails.
pub fn build_deck_with(
    benchmark: Benchmark,
    scale: usize,
    seed: u64,
    threads: Threads,
) -> Result<Deck> {
    build_deck_tuned(benchmark, scale, seed, DeckTuning::with_threads(threads)?)
}

/// Builds a runnable deck with the full in-core tuning knob set: threads,
/// pair-kernel path, and Morton sort cadence (see [`DeckTuning`]).
///
/// # Errors
///
/// Returns an error if `scale` is outside 1..=4 or construction fails.
pub fn build_deck_tuned(
    benchmark: Benchmark,
    scale: usize,
    seed: u64,
    tuning: DeckTuning,
) -> Result<Deck> {
    if !(1..=4).contains(&scale) {
        return Err(CoreError::InvalidParameter {
            name: "scale",
            reason: format!("replication factor {scale} outside 1..=4"),
        });
    }
    let simulation = match benchmark {
        Benchmark::Lj => lj::build_tuned(scale, seed, tuning)?,
        Benchmark::Chain => chain::build_tuned(scale, seed, tuning)?,
        Benchmark::Eam => eam::build_tuned(scale, seed, tuning)?,
        Benchmark::Chute => chute::build_tuned(scale, seed, tuning)?,
        Benchmark::Rhodo => rhodo::build_tuned(scale, seed, tuning)?,
    };
    Ok(Deck {
        benchmark,
        scale,
        simulation,
        info: taxonomy::info(benchmark),
    })
}

/// Builds only the particle positions and box of a deck (cheap; used by the
/// decomposition census at large scales where a full simulation is not
/// needed).
///
/// # Errors
///
/// Returns an error if `scale` is outside 1..=4.
pub fn build_positions(
    benchmark: Benchmark,
    scale: usize,
    seed: u64,
) -> Result<(md_core::SimBox, Vec<md_core::V3>)> {
    if !(1..=4).contains(&scale) {
        return Err(CoreError::InvalidParameter {
            name: "scale",
            reason: format!("replication factor {scale} outside 1..=4"),
        });
    }
    Ok(match benchmark {
        Benchmark::Lj => lj::positions(scale),
        Benchmark::Chain => chain::positions(scale),
        Benchmark::Eam => eam::positions(scale),
        Benchmark::Chute => chute::positions(scale, seed),
        Benchmark::Rhodo => rhodo::positions(scale, seed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.name()).unwrap(), b);
        }
        assert!(Benchmark::parse("nope").is_err());
    }

    #[test]
    fn scales_match_paper_sizes() {
        assert_eq!(SCALES.map(size_label), [32, 256, 864, 2048]);
    }

    #[test]
    fn chute_is_the_gpu_exception() {
        assert!(!Benchmark::Chute.gpu_supported());
        assert_eq!(
            Benchmark::ALL.iter().filter(|b| b.gpu_supported()).count(),
            4
        );
    }

    #[test]
    fn feature_flags_match_table2() {
        assert!(Benchmark::Rhodo.has_kspace());
        assert!(!Benchmark::Lj.has_kspace());
        assert!(Benchmark::Chain.has_bonds());
        assert!(!Benchmark::Chute.newton_pairs());
    }

    #[test]
    fn build_deck_rejects_bad_scale() {
        assert!(build_deck(Benchmark::Lj, 0, 1).is_err());
        assert!(build_deck(Benchmark::Lj, 5, 1).is_err());
    }
}
