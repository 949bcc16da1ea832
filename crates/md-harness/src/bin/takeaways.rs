//! Prints the paper's Section 10 takeaway numbers from the models:
//! simulated nanoseconds per day for the flagship Rhodopsin experiment, the
//! GPU utilization story, and the distance to milliseconds-scale experiments.
//!
//! ```text
//! cargo run --release -p md-harness --bin takeaways [--quick]
//! ```

use md_harness::{ExperimentContext, Fidelity};
use md_workloads::Benchmark;

fn main() -> Result<(), md_core::CoreError> {
    let quick = std::env::args().any(|a| a == "--quick");
    let fidelity = if quick {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    let scale = if quick { 2 } else { 4 };
    let ctx = ExperimentContext::new(fidelity);

    println!("== Takeaways (paper Section 10) ==\n");

    // Rhodopsin wall-clock rates: the paper reports ~2 ns/day on the CPU
    // node and ~2.8 ns/day on the 8-GPU node for 2 million atoms.
    let fs_per_step = md_workloads::rhodo::DT; // 2 fs
    let ns_per_day = |ts_per_sec: f64| ts_per_sec * fs_per_step * 86_400.0 / 1.0e6;
    let cpu = ctx.cpu_run(Benchmark::Rhodo, scale, 64)?;
    let gpu = ctx.gpu_run(Benchmark::Rhodo, scale, 8)?;
    println!(
        "rhodopsin {}k atoms, CPU node (64 ranks):  {:6.2} TS/s  = {:5.2} ns/day (paper: ~2)",
        md_workloads::size_label(scale),
        cpu.ts_per_sec,
        ns_per_day(cpu.ts_per_sec)
    );
    println!(
        "rhodopsin {}k atoms, GPU node (8 devices): {:6.2} TS/s  = {:5.2} ns/day (paper: ~2.8)",
        md_workloads::size_label(scale),
        gpu.ts_per_sec,
        ns_per_day(gpu.ts_per_sec)
    );
    println!(
        "mean device utilization at 8 GPUs: {:.0}% (paper: ~30%)",
        100.0 * gpu.device_utilization
    );

    // Distance to drug-discovery timescales.
    let target_ms = 1.0;
    let days = target_ms * 1.0e6 / ns_per_day(gpu.ts_per_sec).max(1e-12);
    println!(
        "\nat that rate, one millisecond of simulated time needs {:.0} years of\nwall clock — the gap to DSAs the paper's introduction quantifies",
        days / 365.0
    );

    Ok(())
}
