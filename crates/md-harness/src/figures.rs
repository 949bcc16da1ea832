//! Generators for every figure of the paper's evaluation (Figs. 3–16).
//!
//! Each generator sweeps the same parameter grid as the corresponding paper
//! figure and returns the series as a [`TextTable`] (one row per plotted
//! point), which the `figures` binary prints and saves as CSV. Absolute
//! numbers come from the calibrated instance models; see EXPERIMENTS.md for
//! the paper-vs-reproduced comparison.

use crate::context::{ExperimentContext, CPU_PROCS, GPU_DEVICES, KSPACE_ERRORS, MPI_PROCS};
use crate::render::{fnum, TextTable};
use crate::Figure;
use md_core::{Result, TaskKind};
use md_model::{KernelKind, PrecisionMode};
use md_parallel::MpiFunction;
use md_workloads::{size_label, Benchmark};

fn task_header() -> Vec<String> {
    let mut h = vec![
        "benchmark".to_string(),
        "size_k".to_string(),
        "procs".to_string(),
    ];
    h.extend(TaskKind::ALL.iter().map(|t| format!("{t} %")));
    h
}

fn task_row(
    bench: Benchmark,
    size_k: usize,
    procs: usize,
    tasks: &md_core::TaskLedger,
) -> Vec<String> {
    let mut row = vec![bench.to_string(), size_k.to_string(), procs.to_string()];
    row.extend(TaskKind::ALL.iter().map(|&t| fnum(tasks.percent(t))));
    row
}

/// Figure 3: breakdown of CPU execution time by task, all benchmarks ×
/// sizes × MPI processes.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig03(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(task_header());
    for bench in Benchmark::ALL {
        for &scale in ctx.scales() {
            for &p in &CPU_PROCS {
                let r = ctx.cpu_run(bench, scale, p)?;
                t.row(task_row(bench, size_label(scale), p, &r.tasks));
            }
        }
    }
    Ok(Figure {
        id: "fig03".to_string(),
        caption: "Fig. 3: CPU execution-time breakdown by task".to_string(),
        table: t,
    })
}

/// Figure 4: total MPI overhead and MPI imbalance percentage.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig04(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new([
        "benchmark",
        "size_k",
        "procs",
        "mpi_time %",
        "mpi_imbalance %",
    ]);
    for bench in Benchmark::ALL {
        for &scale in ctx.scales() {
            for &p in &MPI_PROCS {
                let r = ctx.cpu_run(bench, scale, p)?;
                t.row([
                    format!("{bench}-long"),
                    size_label(scale).to_string(),
                    p.to_string(),
                    fnum(r.mpi_time_percent),
                    fnum(r.mpi_imbalance_percent),
                ]);
            }
        }
    }
    Ok(Figure {
        id: "fig04".to_string(),
        caption: "Fig. 4: total MPI overhead and MPI imbalance, averaged over ranks".to_string(),
        table: t,
    })
}

fn mpi_header() -> Vec<String> {
    let mut h = vec![
        "benchmark".to_string(),
        "size_k".to_string(),
        "procs".to_string(),
    ];
    h.extend(MpiFunction::ALL.iter().map(|f| format!("{f} %")));
    h
}

/// Figure 5: MPI overhead broken down by MPI function.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig05(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(mpi_header());
    for bench in Benchmark::ALL {
        for &scale in ctx.scales() {
            for &p in &MPI_PROCS {
                let r = ctx.cpu_run(bench, scale, p)?;
                let mut row = vec![
                    format!("{bench}-long"),
                    size_label(scale).to_string(),
                    p.to_string(),
                ];
                row.extend(MpiFunction::ALL.iter().map(|&f| fnum(r.mpi.percent(f))));
                t.row(row);
            }
        }
    }
    Ok(Figure {
        id: "fig05".to_string(),
        caption: "Fig. 5: MPI overhead breakdown by MPI function".to_string(),
        table: t,
    })
}

/// Figure 6: CPU performance, energy efficiency, parallel efficiency.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig06(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new([
        "benchmark",
        "size_k",
        "procs",
        "TS/s",
        "TS/s/W",
        "parallel_eff %",
    ]);
    for bench in Benchmark::ALL {
        for &scale in ctx.scales() {
            let single = ctx.cpu_run(bench, scale, 1)?;
            for &p in &CPU_PROCS {
                let r = ctx.cpu_run(bench, scale, p)?;
                t.row([
                    bench.to_string(),
                    size_label(scale).to_string(),
                    p.to_string(),
                    fnum(r.ts_per_sec),
                    fnum(r.ts_per_sec_per_watt),
                    fnum(100.0 * r.parallel_efficiency(&single)),
                ]);
            }
        }
    }
    Ok(Figure {
        id: "fig06".to_string(),
        caption: "Fig. 6: CPU performance / energy efficiency / parallel efficiency".to_string(),
        table: t,
    })
}

/// Figure 7: GPU execution-time breakdown by task (no Chute — the GPU
/// package lacks its pair style).
///
/// # Errors
///
/// Propagates model failures.
pub fn fig07(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(task_header());
    for bench in Benchmark::ALL.into_iter().filter(|b| b.gpu_supported()) {
        for &scale in ctx.scales() {
            for &g in &GPU_DEVICES {
                let r = ctx.gpu_run(bench, scale, g)?;
                t.row(task_row(bench, size_label(scale), g, &r.tasks));
            }
        }
    }
    Ok(Figure {
        id: "fig07".to_string(),
        caption: "Fig. 7: GPU execution-time breakdown by task".to_string(),
        table: t,
    })
}

/// Figure 8: GPU kernels and data-movement breakdown.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig08(ctx: &ExperimentContext) -> Result<Figure> {
    let mut header = vec![
        "benchmark".to_string(),
        "size_k".to_string(),
        "gpus".to_string(),
    ];
    header.extend(KernelKind::ALL.iter().map(|k| format!("{k} %")));
    let mut t = TextTable::new(header);
    for bench in Benchmark::ALL.into_iter().filter(|b| b.gpu_supported()) {
        for &scale in ctx.scales() {
            for &g in &GPU_DEVICES {
                let r = ctx.gpu_run(bench, scale, g)?;
                let mut row = vec![
                    bench.to_string(),
                    size_label(scale).to_string(),
                    g.to_string(),
                ];
                row.extend(KernelKind::ALL.iter().map(|&k| fnum(r.kernels.percent(k))));
                t.row(row);
            }
        }
    }
    Ok(Figure {
        id: "fig08".to_string(),
        caption: "Fig. 8: GPU kernel and data-movement breakdown".to_string(),
        table: t,
    })
}

/// Figure 9: GPU performance, energy efficiency, parallel efficiency.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig09(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new([
        "benchmark",
        "size_k",
        "gpus",
        "TS/s",
        "TS/s/W",
        "parallel_eff %",
        "device_util %",
    ]);
    for bench in Benchmark::ALL.into_iter().filter(|b| b.gpu_supported()) {
        for &scale in ctx.scales() {
            let single = ctx.gpu_run(bench, scale, 1)?;
            for &g in &GPU_DEVICES {
                let r = ctx.gpu_run(bench, scale, g)?;
                t.row([
                    bench.to_string(),
                    size_label(scale).to_string(),
                    g.to_string(),
                    fnum(r.ts_per_sec),
                    fnum(r.ts_per_sec_per_watt),
                    fnum(100.0 * r.parallel_efficiency(&single)),
                    fnum(100.0 * r.device_utilization),
                ]);
            }
        }
    }
    Ok(Figure {
        id: "fig09".to_string(),
        caption: "Fig. 9: GPU performance / energy efficiency / parallel efficiency".to_string(),
        table: t,
    })
}

fn err_label(err: f64) -> String {
    if (err - 1e-4).abs() < 1e-12 {
        "rhodo".to_string()
    } else {
        format!("rhodo-e-{}", (-err.log10()).round() as i32)
    }
}

/// Figure 10: rhodopsin CPU performance and parallel efficiency vs the
/// k-space error threshold.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig10(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(["benchmark", "size_k", "procs", "TS/s", "parallel_eff %"]);
    for &err in &KSPACE_ERRORS {
        for &scale in ctx.scales() {
            let single =
                ctx.cpu_run_with(Benchmark::Rhodo, scale, 1, PrecisionMode::Mixed, Some(err))?;
            for &p in &CPU_PROCS {
                let r =
                    ctx.cpu_run_with(Benchmark::Rhodo, scale, p, PrecisionMode::Mixed, Some(err))?;
                t.row([
                    err_label(err),
                    size_label(scale).to_string(),
                    p.to_string(),
                    fnum(r.ts_per_sec),
                    fnum(100.0 * r.parallel_efficiency(&single)),
                ]);
            }
        }
    }
    Ok(Figure {
        id: "fig10".to_string(),
        caption: "Fig. 10: rhodopsin CPU performance vs k-space error threshold".to_string(),
        table: t,
    })
}

/// Figure 11: rhodopsin CPU task breakdown vs the k-space error threshold.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig11(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(task_header());
    for &err in &KSPACE_ERRORS {
        if (err - 1e-5).abs() < 1e-12 {
            continue; // the paper's Fig. 11 omits 1e-5 (similar to 1e-6)
        }
        for &scale in ctx.scales() {
            for &p in &CPU_PROCS[1..] {
                let r =
                    ctx.cpu_run_with(Benchmark::Rhodo, scale, p, PrecisionMode::Mixed, Some(err))?;
                let mut row = task_row(Benchmark::Rhodo, size_label(scale), p, &r.tasks);
                row[0] = err_label(err);
                t.row(row);
            }
        }
    }
    Ok(Figure {
        id: "fig11".to_string(),
        caption: "Fig. 11: rhodopsin CPU task breakdown vs k-space error threshold".to_string(),
        table: t,
    })
}

/// Figure 12: rhodopsin MPI function breakdown vs the k-space error
/// threshold.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig12(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(mpi_header());
    for &err in &KSPACE_ERRORS {
        for &scale in ctx.scales() {
            for &p in &MPI_PROCS {
                let r =
                    ctx.cpu_run_with(Benchmark::Rhodo, scale, p, PrecisionMode::Mixed, Some(err))?;
                let mut row = vec![err_label(err), size_label(scale).to_string(), p.to_string()];
                row.extend(MpiFunction::ALL.iter().map(|&f| fnum(r.mpi.percent(f))));
                t.row(row);
            }
        }
    }
    Ok(Figure {
        id: "fig12".to_string(),
        caption: "Fig. 12: rhodopsin MPI function breakdown vs k-space error threshold".to_string(),
        table: t,
    })
}

/// Figure 13: rhodopsin GPU performance and parallel efficiency vs the
/// k-space error threshold.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig13(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(["benchmark", "size_k", "gpus", "TS/s", "parallel_eff %"]);
    for &err in &KSPACE_ERRORS {
        for &scale in ctx.scales() {
            let single =
                ctx.gpu_run_with(Benchmark::Rhodo, scale, 1, PrecisionMode::Mixed, Some(err))?;
            for &g in &GPU_DEVICES {
                let r =
                    ctx.gpu_run_with(Benchmark::Rhodo, scale, g, PrecisionMode::Mixed, Some(err))?;
                t.row([
                    err_label(err),
                    size_label(scale).to_string(),
                    g.to_string(),
                    fnum(r.ts_per_sec),
                    fnum(100.0 * r.parallel_efficiency(&single)),
                ]);
            }
        }
    }
    Ok(Figure {
        id: "fig13".to_string(),
        caption: "Fig. 13: rhodopsin GPU performance vs k-space error threshold".to_string(),
        table: t,
    })
}

/// Figure 14: rhodopsin MPI overhead and imbalance vs the k-space error
/// threshold (the paper omits 1e-5, similar to 1e-6).
///
/// # Errors
///
/// Propagates model failures.
pub fn fig14(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new([
        "benchmark",
        "size_k",
        "procs",
        "mpi_time %",
        "mpi_imbalance %",
    ]);
    for &err in &KSPACE_ERRORS {
        if (err - 1e-5).abs() < 1e-12 {
            continue;
        }
        for &scale in ctx.scales() {
            for &p in &MPI_PROCS {
                let r =
                    ctx.cpu_run_with(Benchmark::Rhodo, scale, p, PrecisionMode::Mixed, Some(err))?;
                t.row([
                    err_label(err),
                    size_label(scale).to_string(),
                    p.to_string(),
                    fnum(r.mpi_time_percent),
                    fnum(r.mpi_imbalance_percent),
                ]);
            }
        }
    }
    Ok(Figure {
        id: "fig14".to_string(),
        caption: "Fig. 14: rhodopsin MPI overhead and imbalance vs k-space error threshold"
            .to_string(),
        table: t,
    })
}

fn precision_label(bench: Benchmark, mode: PrecisionMode) -> String {
    match mode {
        PrecisionMode::Mixed => bench.to_string(),
        other => format!("{bench}-{other}"),
    }
}

/// Figure 15: LJ and rhodopsin CPU performance at single/mixed/double
/// precision.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig15(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(["benchmark", "size_k", "procs", "TS/s"]);
    for bench in [Benchmark::Lj, Benchmark::Rhodo] {
        for mode in PrecisionMode::ALL {
            for &scale in ctx.scales() {
                for &p in &CPU_PROCS {
                    let r = ctx.cpu_run_with(bench, scale, p, mode, None)?;
                    t.row([
                        precision_label(bench, mode),
                        size_label(scale).to_string(),
                        p.to_string(),
                        fnum(r.ts_per_sec),
                    ]);
                }
            }
        }
    }
    Ok(Figure {
        id: "fig15".to_string(),
        caption: "Fig. 15: CPU performance at single/mixed/double precision".to_string(),
        table: t,
    })
}

/// Figure 16: LJ and rhodopsin GPU performance at single/mixed/double
/// precision.
///
/// # Errors
///
/// Propagates model failures.
pub fn fig16(ctx: &ExperimentContext) -> Result<Figure> {
    let mut t = TextTable::new(["benchmark", "size_k", "gpus", "TS/s"]);
    for bench in [Benchmark::Lj, Benchmark::Rhodo] {
        for mode in PrecisionMode::ALL {
            for &scale in ctx.scales() {
                for &g in &GPU_DEVICES {
                    let r = ctx.gpu_run_with(bench, scale, g, mode, None)?;
                    t.row([
                        precision_label(bench, mode),
                        size_label(scale).to_string(),
                        g.to_string(),
                        fnum(r.ts_per_sec),
                    ]);
                }
            }
        }
    }
    Ok(Figure {
        id: "fig16".to_string(),
        caption: "Fig. 16: GPU performance at single/mixed/double precision".to_string(),
        table: t,
    })
}

/// Every figure generator, keyed by id, in paper order.
pub type Generator = fn(&ExperimentContext) -> Result<Figure>;

/// `(id, generator)` pairs for Figures 3–16.
pub const GENERATORS: [(&str, Generator); 14] = [
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
];
