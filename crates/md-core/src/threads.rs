//! The engine's shared-memory `Threads(n)` knob.
//!
//! The paper's Section 2.2 contrasts LAMMPS's two intra-node parallelization
//! levels — MPI spatial decomposition and OpenMP loop threading. `md-parallel`
//! models the former; this knob drives the latter on the *real* engine: the
//! pair kernels (`md-potentials::threaded`), the neighbor-list build
//! (`md-core::neighbor`), and the PPPM solver (`md-kspace`) all accept a
//! thread-team configuration through [`crate::SimulationBuilder::threads`].
//!
//! ## Determinism contract
//!
//! With `deterministic` set, every parallel reduction uses a *fixed-order*
//! chunk decomposition whose shape is independent of the thread count: the
//! atom range is split into [`Threads::DET_CHUNKS`] chunks, each chunk's
//! partial sum is accumulated in serial order, and the partials are reduced
//! in ascending chunk order. Running the same deck at 1, 2, or 4 threads
//! then reproduces the exact same floating-point operation tree, so the
//! trajectories match **bitwise** (locked in by `tests/thread_invariance.rs`).
//! In fast mode the chunk count equals the thread count, which removes the
//! redundant buffer traffic but lets results drift across thread counts at
//! the fp-associativity level (still deterministic for a *fixed* count).

/// Shared-memory thread-team configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Threads {
    /// Worker threads for the hot kernels (1 = serial).
    pub count: usize,
    /// Fixed-order reductions: bitwise thread-count-invariant trajectories.
    pub deterministic: bool,
}

impl Threads {
    /// Fixed chunk count used by deterministic-mode reductions. The chunk
    /// decomposition (and therefore the reduction tree) must not depend on
    /// the thread count, so deterministic runs use this many chunks
    /// regardless of `count`; thread counts above it gain nothing.
    pub const DET_CHUNKS: usize = 16;

    /// Serial execution (the default everywhere).
    pub fn serial() -> Self {
        Threads {
            count: 1,
            deterministic: false,
        }
    }

    /// `n` threads in fast mode (per-count-deterministic reductions).
    pub fn fast(n: usize) -> Self {
        Threads {
            count: n.max(1),
            deterministic: false,
        }
    }

    /// `n` threads with bitwise thread-count-invariant reductions.
    pub fn deterministic(n: usize) -> Self {
        Threads {
            count: n.max(1),
            deterministic: true,
        }
    }

    /// Reads the knob from the environment: `MD_THREADS` (thread count,
    /// default 1) and `MD_DETERMINISTIC` (`1`/`true`/`on` switches the
    /// fixed-order reductions on). This is what the CI thread matrix sets.
    pub fn from_env() -> Self {
        let count = std::env::var("MD_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(1)
            .max(1);
        let deterministic = matches!(
            std::env::var("MD_DETERMINISTIC").as_deref(),
            Ok("1") | Ok("true") | Ok("on")
        );
        Threads {
            count,
            deterministic,
        }
    }

    /// Whether any kernel should take its threaded path. Deterministic mode
    /// counts as active even at one thread: the fixed-chunk reduction must
    /// run so a 1-thread trajectory is comparable to an n-thread one.
    pub fn active(self) -> bool {
        self.count > 1 || self.deterministic
    }

    /// The reduction chunk count this configuration implies.
    pub fn chunks(self) -> usize {
        if self.deterministic {
            Self::DET_CHUNKS
        } else {
            self.count
        }
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::serial()
    }
}

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} thread{}{}",
            self.count,
            if self.count == 1 { "" } else { "s" },
            if self.deterministic {
                " (deterministic)"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_inactive_fast_multi_is_active() {
        assert!(!Threads::serial().active());
        assert!(!Threads::fast(1).active());
        assert!(Threads::fast(2).active());
    }

    #[test]
    fn deterministic_is_active_even_single_threaded() {
        assert!(Threads::deterministic(1).active());
        assert_eq!(Threads::deterministic(1).chunks(), Threads::DET_CHUNKS);
        assert_eq!(Threads::deterministic(4).chunks(), Threads::DET_CHUNKS);
        assert_eq!(Threads::fast(4).chunks(), 4);
    }

    #[test]
    fn zero_counts_clamp_to_one() {
        assert_eq!(Threads::fast(0).count, 1);
        assert_eq!(Threads::deterministic(0).count, 1);
    }

    #[test]
    fn display_names_the_mode() {
        assert_eq!(Threads::serial().to_string(), "1 thread");
        assert_eq!(
            Threads::deterministic(4).to_string(),
            "4 threads (deterministic)"
        );
    }
}
