//! Error types for the core engine.

use std::fmt;

/// Convenience result alias used across `md-core`.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors produced by the core MD engine.
///
/// All variants carry enough context to be actionable without a debugger; the
/// `Display` form is lowercase and without trailing punctuation per Rust API
/// guidelines (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The simulation box is invalid (non-positive extent, bad tilt, ...).
    InvalidBox {
        /// Human-readable reason.
        reason: String,
    },
    /// A per-atom array had an unexpected length.
    LengthMismatch {
        /// What was being validated.
        what: &'static str,
        /// Expected number of entries.
        expected: usize,
        /// Number of entries found.
        found: usize,
    },
    /// The requested cutoff does not fit the box under minimum-image PBC.
    CutoffTooLarge {
        /// Requested interaction range (cutoff + skin).
        range: f64,
        /// Smallest periodic box extent.
        min_extent: f64,
    },
    /// An atom type index is out of range for a parameter table.
    UnknownAtomType {
        /// Offending type index.
        atom_type: u32,
        /// Number of types the table was built for.
        ntypes: usize,
    },
    /// An iterative solver (SHAKE, barostat, ...) failed to converge.
    NoConvergence {
        /// Which solver failed.
        what: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
    /// A configuration value is outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A serialized state blob failed validation (truncation, bad magic,
    /// version or checksum mismatch, inconsistent lengths).
    CorruptState {
        /// What was being decoded (e.g. `checkpoint`, `neighbor list`).
        what: &'static str,
        /// Human-readable reason.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidBox { reason } => write!(f, "invalid simulation box: {reason}"),
            CoreError::LengthMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "length mismatch for {what}: expected {expected}, found {found}"
            ),
            CoreError::CutoffTooLarge { range, min_extent } => write!(
                f,
                "interaction range {range} exceeds half the smallest box extent {min_extent}"
            ),
            CoreError::UnknownAtomType { atom_type, ntypes } => {
                write!(f, "atom type {atom_type} out of range for {ntypes} types")
            }
            CoreError::NoConvergence {
                what,
                iterations,
                residual,
            } => write!(
                f,
                "{what} failed to converge after {iterations} iterations (residual {residual:e})"
            ),
            CoreError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            CoreError::CorruptState { what, detail } => {
                write!(f, "corrupt {what} state: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// The environment knob `name` read through `parse`: `default` when the
/// variable is unset.
///
/// # Errors
///
/// See [`parse_knob`].
pub(crate) fn env_knob<T>(
    name: &'static str,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T> {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, value.as_deref(), default, parse)
}

/// The pure half of [`env_knob`]: `value` is what the environment holds for
/// `name` (`None` = unset, which is `default`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] naming the variable when it is set
/// to something `parse` refuses, so a typo never falls back to the default
/// without a word.
pub(crate) fn parse_knob<T>(
    name: &'static str,
    value: Option<&str>,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T> {
    let Some(value) = value else {
        return Ok(default);
    };
    parse(value.trim()).ok_or_else(|| CoreError::InvalidParameter {
        name,
        reason: format!("cannot use the environment value `{value}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_period() {
        let e = CoreError::LengthMismatch {
            what: "velocities",
            expected: 10,
            found: 9,
        };
        let s = e.to_string();
        assert!(s.starts_with("length mismatch"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
