//! The counter-naming convention.
//!
//! Counters and gauges registered through [`crate::Recorder::count`] /
//! [`crate::Recorder::gauge`] share one flat namespace across the engine,
//! the resilience layer, and the analysis layer, so names carry a subsystem
//! prefix (see the crate-level docs for the full convention):
//!
//! | prefix       | owner          | examples                                |
//! |--------------|----------------|-----------------------------------------|
//! | `health_`    | md-resilience  | `health_nonfinite_force`                |
//! | `fault_`     | md-parallel    | `fault_rank_stall`, `fault_rank_slow`   |
//! | `insight_`   | md-insight     | `insight_findings`                      |
//! | `imbalance_` | md-insight     | `imbalance_worst_varavg_pct`            |
//! | `gpu_`       | md-model       | `gpu_pcie_htod_bytes`                   |
//!
//! Three engine-core counters predate the convention and are grandfathered
//! as exact names: `neighbor_rebuilds`, `pair_interactions`, `energy_drift`.
//! Anything else is a convention violation;
//! [`counter_name_allowed`] is the single source of truth and is asserted
//! over every counter of a real instrumented run by
//! `tests/insight_analysis.rs`.

/// Subsystem prefixes a counter or gauge name may start with.
pub const ALLOWED_COUNTER_PREFIXES: [&str; 5] =
    ["health_", "fault_", "insight_", "imbalance_", "gpu_"];

/// Engine-core counter names that predate the prefix convention.
pub const ENGINE_COUNTER_NAMES: [&str; 3] =
    ["neighbor_rebuilds", "pair_interactions", "energy_drift"];

/// Whether `name` follows the counter-naming convention: one of the
/// [`ALLOWED_COUNTER_PREFIXES`] or an exact [`ENGINE_COUNTER_NAMES`] entry.
pub fn counter_name_allowed(name: &str) -> bool {
    ENGINE_COUNTER_NAMES.contains(&name)
        || ALLOWED_COUNTER_PREFIXES.iter().any(|p| name.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every counter/gauge name the production crates register today. New
    /// call sites must be added here (and follow the convention) — this is
    /// the registry half of the satellite check; the integration half
    /// asserts a live run's counter map in `tests/insight_analysis.rs`.
    const PRODUCTION_COUNTERS: [&str; 17] = [
        "neighbor_rebuilds",
        "pair_interactions",
        "energy_drift",
        "health_nonfinite_force",
        "health_nonfinite_state",
        "health_displacement_spike",
        "health_energy_drift",
        "health_temperature_spike",
        "health_escaped_atom",
        "fault_rank_stall",
        "fault_rank_slow",
        "imbalance_repartitions",
        "insight_findings",
        "imbalance_suspect_rank",
        "imbalance_worst_varavg_pct",
        "gpu_pcie_htod_bytes",
        "gpu_pcie_dtoh_bytes",
    ];

    #[test]
    fn every_registered_counter_matches_an_allowed_prefix() {
        for name in PRODUCTION_COUNTERS {
            assert!(
                counter_name_allowed(name),
                "{name} violates the counter-naming convention"
            );
        }
    }

    #[test]
    fn off_convention_names_are_rejected() {
        for name in ["rebuilds", "drift", "", "healthiness", "Insight_x"] {
            assert!(!counter_name_allowed(name), "{name:?} should be rejected");
        }
    }
}
