//! # md-resilience — fault tolerance for the verlette engine
//!
//! The paper's characterization assumes healthy hardware; long MD campaigns
//! on commodity platforms do not get that luxury. This crate adds the four
//! robustness pillars the harness drives:
//!
//! * **Checkpoint/restart** ([`checkpoint`]) — versioned, CRC-checksummed
//!   snapshots of the full [`md_core::Simulation`] dynamic state, written
//!   atomically (temp-file + rename). A run restored from a checkpoint
//!   continues **bitwise identically** to one that was never interrupted
//!   (at the thread count it recorded, serial or threaded) —
//!   `tests/resilience_roundtrip.rs` locks this in for all five decks.
//! * **Numerical watchdog** ([`watchdog`]) — a per-step health monitor
//!   (non-finite forces/positions, runaway displacement, energy-drift
//!   budget, escaped atoms, temperature spikes) that raises typed
//!   [`watchdog::HealthEvent`]s and md-observe counters instead of letting
//!   the engine run off a numerical cliff.
//! * **Recovery policies** ([`recovery`]) — on a health violation, roll the
//!   simulation back to the last in-memory snapshot and retry under an
//!   escalating mitigation ladder (rebuild neighbor lists → shrink the
//!   timestep → tighten the k-space accuracy target), aborting with a
//!   structured [`recovery::FailureReport`] once the ladder is exhausted.
//! * **Fault injection** ([`faults`]) — a deterministic, parseable
//!   [`faults::FaultPlan`] that perturbs the virtual cluster (rank stalls,
//!   slowdowns, dropped/duplicated/corrupted halo messages, fail-stop rank
//!   crashes) and the real engine (force bit-flips), so the watchdog and
//!   recovery paths are exercised on demand (`run_deck --faults ...`).
//!
//! A fifth pillar rides on the four: the **degraded-mode shrink**. A
//! `rank-crash` fault fail-stops a virtual rank; the comm-health layer in
//! md-parallel detects the silence (deadline timeouts, retry budget), and
//! [`recovery::ResilientRunner::with_cluster`] answers by rolling back to
//! the last checkpoint and re-decomposing over N−1 ranks, emitting a
//! structured [`recovery::ShrinkReport`].

pub mod checkpoint;
pub mod faults;
pub mod recovery;
pub mod watchdog;

pub use checkpoint::{Checkpoint, CheckpointHeader, CheckpointManager};
pub use faults::{EngineFault, FaultPlan};
pub use recovery::{
    FailureReport, Mitigation, RecoveryPolicy, ResilientRunner, RunSummary, ShrinkReport,
};
pub use watchdog::{HealthEvent, Watchdog, WatchdogConfig};

use std::path::PathBuf;

/// Errors raised by the resilience layer.
#[derive(Debug)]
pub enum ResilienceError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// An engine-level error (corrupt state, invalid parameter, ...).
    Core(md_core::CoreError),
    /// The recovery ladder was exhausted without a clean retry.
    Unrecoverable(Box<FailureReport>),
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            ResilienceError::Core(e) => write!(f, "{e}"),
            ResilienceError::Unrecoverable(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for ResilienceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilienceError::Io { source, .. } => Some(source),
            ResilienceError::Core(e) => Some(e),
            ResilienceError::Unrecoverable(_) => None,
        }
    }
}

impl From<md_core::CoreError> for ResilienceError {
    fn from(e: md_core::CoreError) -> Self {
        ResilienceError::Core(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ResilienceError>;
