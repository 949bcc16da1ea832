//! # md-resilience — checkpoint/resume for the verlette engine
//!
//! The paper's characterization assumes healthy hardware. What this crate
//! keeps serves two measurements of that characterization:
//!
//! * **Checkpoint/resume** ([`checkpoint`]) — versioned, CRC-checksummed
//!   snapshots of the full [`md_core::Simulation`] dynamic state, written
//!   atomically (temp-file + rename). A run restored from a checkpoint
//!   continues **bitwise identically** to one that was never interrupted
//!   (at the thread count it recorded, serial or threaded) —
//!   `tests/resilience_roundtrip.rs` locks this in for all five decks.
//! * **Cost injection** ([`faults`]) — a deterministic, parseable
//!   [`faults::FaultPlan`] of `rank-stall` and `rank-slow` events that
//!   perturbs the virtual cluster's clocks, so md-insight's `fault.cost`
//!   finding has a known injected cost to attribute (`run_deck --faults
//!   ...`).
//!
//! [`watchdog`] is the per-step numerical health check `mdbench` times
//! (`resilience.watchdog_check_us`); no run path calls it.

pub mod checkpoint;
pub mod faults;
pub mod watchdog;

pub use checkpoint::{Checkpoint, CheckpointHeader, CheckpointManager};
pub use faults::FaultPlan;
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
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilienceError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            ResilienceError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ResilienceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilienceError::Io { source, .. } => Some(source),
            ResilienceError::Core(e) => Some(e),
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
