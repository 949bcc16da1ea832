//! # md-insight — online bottleneck attribution
//!
//! The paper's contribution is *analysis* of raw timings: per-task runtime
//! breakdowns (Fig. 3), per-MPI-function overhead and per-rank imbalance
//! (Figs. 4–5), scaling curves (Figs. 6–10). md-observe records those raw
//! shapes; this crate closes the loop by turning them into typed findings a
//! harness (or CI job) can assert on:
//!
//! - [`attribution`] — per-task bottleneck shares and dominant-task
//!   detection from step samples or ledgers; a LAMMPS-style `%varavg`
//!   load-imbalance metric per task across virtual ranks
//!   ([`ImbalanceReport`] names the suspect rank); per-MPI-function
//!   overhead tables ([`MpiTable`], the Figs. 4–5 view); what injected
//!   faults cost per task against the same modeled run without them
//!   ([`FaultCost`]); per-device kernel/memcpy/idle decomposition of the GPU
//!   model's traced schedule ([`GpuAttribution`], the Figs. 7–9 view).
//! - [`critical_path`] — summarizes the virtual cluster's per-step
//!   [`md_parallel::CriticalStep`] records: which rank/task chain actually
//!   bounded the run ([`CriticalPathSummary`]); extends the same question
//!   across the host↔device boundary of the GPU model's traced offload
//!   schedule ([`DeviceCriticalPath`] — a step's path can bounce
//!   host → copy → kernel → copy → host).
//! - [`export`] — OpenMetrics text snapshots and folded-stack (flamegraph)
//!   output from an [`md_observe::ObserveSnapshot`], with strict parsers so
//!   tests can round-trip both formats.
//! - [`report`] — assembles everything into an [`InsightReport`] with a
//!   severity-ranked findings list and a human-readable rendering (the
//!   end-of-run characterization report `run_deck --insight` prints).
//!
//! md-insight consumes data *after* it is recorded: it adds zero per-step
//! work to the engine (`overhead_guard` holds the disabled md-observe hooks
//! it reads from to ≤ 2 % of an LJ step).

pub mod attribution;
pub mod critical_path;
pub mod export;
pub mod report;

pub use attribution::{
    Breakdown, DeviceBreakdown, FaultCost, GpuAttribution, ImbalanceReport, MpiRow, MpiTable,
    TaskCost, TaskImbalance, TaskShare,
};
pub use critical_path::{BoundSegment, CriticalPathSummary, DeviceCriticalPath, DeviceStepBound};
pub use export::{folded_stacks, openmetrics, parse_folded, parse_openmetrics, OpenMetric};
pub use report::{Finding, InsightReport, Severity};
