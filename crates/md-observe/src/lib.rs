//! # md-observe — per-step tracing, counters, and trace export
//!
//! Observability layer for the MD engine and the virtual cluster, built for
//! the paper's characterization workflow ("Characterizing Molecular Dynamics
//! Simulation on Commodity Platforms", IISWC 2022): the study's core output
//! is a per-task time breakdown (LAMMPS' `Pair`/`Bond`/`Kspace`/`Neigh`/
//! `Comm`/`Modify`/`Output`/`Other` taxonomy) plus per-rank MPI timelines,
//! so this crate records exactly those shapes and exports them in formats a
//! performance engineer can open directly.
//!
//! Pieces:
//!
//! - [`Recorder`] — shared sink for typed spans, counters, gauges, and
//!   histograms. Cloning is an `Arc` bump. When disabled, every hook is a
//!   single relaxed atomic load: no allocation, no lock, no clock read, so
//!   the engine keeps its instrumentation wired permanently.
//! - [`StepSeries`] / [`StepSample`] — ring-buffered per-timestep series of
//!   the eight task timings plus engine counters (neighbor rebuilds, ghost
//!   counts, pair-interaction counts, energy drift).
//! - [`LogHistogram`] — log-bucketed latency/interval distributions with
//!   p50/p95/p99 summaries.
//! - [`export`] — Chrome `trace_event` JSON (one lane per virtual rank,
//!   viewable in `chrome://tracing` / Perfetto), JSONL metrics, and a
//!   human-readable end-of-run profile report.
//! - [`Json`] — a small strict JSON parser so tests can validate exported
//!   traces without external dependencies.
//!
//! md-observe is a leaf crate: the engine crates depend on it, never the
//! reverse. The [`TASK_LABELS`] order mirrors `md_core::TaskKind::ALL` and
//! is cross-checked by a test on the md-core side.
//!
//! ## Counter-naming convention
//!
//! Counters and gauges share one flat namespace across every crate that
//! holds a [`Recorder`] clone, so names must carry a subsystem prefix:
//!
//! - `health_*` — md-resilience watchdog events
//!   (`health_nonfinite_force`, `health_energy_drift`, ...)
//! - `fault_*` — injected-fault occurrences on the virtual cluster
//!   (`fault_rank_stall`, `fault_rank_slow`)
//! - `insight_*` — md-insight analysis outputs (`insight_findings`)
//! - `imbalance_*` — md-insight load-imbalance attribution
//!   (`imbalance_suspect_rank`, `imbalance_worst_varavg_pct`)
//! - `gpu_*` — GPU-model device lanes and PCIe traffic
//!   (`gpu_pcie_htod_bytes`, `gpu_pcie_dtoh_bytes`)
//!
//! Three engine-core counters predate the convention and are grandfathered
//! as exact names: `neighbor_rebuilds`, `pair_interactions`,
//! `energy_drift`. [`names::counter_name_allowed`] is the machine-checkable
//! form; `tests/insight_analysis.rs` asserts it over the counters of a real
//! instrumented run.

pub mod export;
pub mod hist;
pub mod json;
pub mod names;
pub mod recorder;
pub mod series;

pub use export::{chrome_trace_json, metrics_jsonl, text_report};
pub use hist::{HistSummary, LogHistogram};
pub use json::Json;
pub use names::{counter_name_allowed, ALLOWED_COUNTER_PREFIXES, ENGINE_COUNTER_NAMES};
pub use recorder::{ObserveConfig, ObserveSnapshot, Phase, Recorder, SpanGuard, TraceEvent};
pub use series::{StepSample, StepSeries, NUM_TASKS, TASK_LABELS};
