//! # md-model — calibrated instance models of the paper's two platforms
//!
//! The paper measures LAMMPS on a dual-socket Xeon 8358 node and an 8×V100
//! node. This crate reproduces those measurements *in silico*:
//!
//! * [`Instance`] — the Table 3 platform descriptions;
//! * [`WorkloadProfile`] — per-benchmark operation counts **measured** from
//!   real engine runs of the 32k decks and scaled analytically;
//! * [`CpuModel`] — virtual-clock execution of the LAMMPS timestep across
//!   MPI ranks with the exact per-rank atom/ghost census (Figures 3–6,
//!   10–12, 14–15);
//! * [`GpuModel`] — the GPU package's offload schedule (kernels, PCIe
//!   traffic, device time-multiplexing; Figures 7–9, 13, 16);
//! * [`power`] — the `powerstat`/`nvidia-smi` energy model.
//!
//! All tunable constants live in [`calib`] with their calibration rationale;
//! see DESIGN.md for the anchor numbers from the paper's prose.

pub mod calib;
pub mod cpu;
pub mod gpu;
pub mod instance;
pub mod multinode;
pub mod power;
pub mod workload;

pub use calib::PrecisionMode;
pub use cpu::{CpuModel, CpuRunOptions, CpuRunResult, RepartitionEvent};
pub use gpu::{
    GpuModel, GpuRunOptions, GpuRunResult, GpuSegment, GpuStepSchedule, GpuTimeline, GpuTracedRun,
    KernelKind, KernelLedger, DEVICE_LANE_BASE, GPU_HOST_LANE,
};
pub use instance::{CpuSpec, GpuSpec, Instance};
pub use multinode::{Interconnect, MultiNodeModel, MultiNodeResult};
pub use workload::{KspaceWork, WorkloadProfile};
