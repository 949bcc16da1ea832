//! Prints the model's outputs next to the paper's anchor numbers
//! (DESIGN.md §4) so calibration drift is visible at a glance.
//!
//! ```text
//! cargo run --release -p md-harness --bin calibrate [--quick]
//! ```

use md_core::TaskKind;
use md_harness::{ExperimentContext, Fidelity};
use md_model::{KernelKind, PrecisionMode};
use md_workloads::Benchmark;

fn row(name: &str, paper: f64, ours: f64) {
    let ratio = if paper != 0.0 { ours / paper } else { f64::NAN };
    println!("{name:<52} paper {paper:>10.2}   ours {ours:>10.2}   ratio {ratio:>5.2}");
}

fn main() -> Result<(), md_core::CoreError> {
    let quick = std::env::args().any(|a| a == "--quick");
    let fidelity = if quick {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    let ctx = ExperimentContext::new(fidelity);
    let big = if quick { 2 } else { 4 }; // 256k in quick mode, 2048k full

    println!("== CPU anchors ==");
    let rhodo64 = ctx.cpu_run(Benchmark::Rhodo, big, 64)?;
    let rhodo1 = ctx.cpu_run(Benchmark::Rhodo, big, 1)?;
    if !quick {
        row("rhodo 2048k 64p TS/s (e-4)", 10.77, rhodo64.ts_per_sec);
        row(
            "rhodo 2048k par-eff % (e-4)",
            74.29,
            100.0 * rhodo64.parallel_efficiency(&rhodo1),
        );
        let tight64 =
            ctx.cpu_run_with(Benchmark::Rhodo, big, 64, PrecisionMode::Mixed, Some(1e-7))?;
        let tight1 =
            ctx.cpu_run_with(Benchmark::Rhodo, big, 1, PrecisionMode::Mixed, Some(1e-7))?;
        row("rhodo 2048k 64p TS/s (e-7)", 3.54, tight64.ts_per_sec);
        row(
            "rhodo 2048k par-eff % (e-7)",
            56.54,
            100.0 * tight64.parallel_efficiency(&tight1),
        );
        let lj_s = ctx.cpu_run_with(Benchmark::Lj, big, 64, PrecisionMode::Single, None)?;
        let lj_d = ctx.cpu_run_with(Benchmark::Lj, big, 64, PrecisionMode::Double, None)?;
        row("lj 2048k 64p TS/s single", 115.2, lj_s.ts_per_sec);
        row("lj 2048k 64p TS/s double", 98.9, lj_d.ts_per_sec);
        let rh_s = ctx.cpu_run_with(Benchmark::Rhodo, big, 64, PrecisionMode::Single, None)?;
        let rh_d = ctx.cpu_run_with(Benchmark::Rhodo, big, 64, PrecisionMode::Double, None)?;
        row("rhodo 2048k 64p TS/s single", 11.5, rh_s.ts_per_sec);
        row("rhodo 2048k 64p TS/s double", 8.4, rh_d.ts_per_sec);
    }
    let chute64 = ctx.cpu_run(Benchmark::Chute, 1, 64)?;
    row("chute 32k 64p TS/s", 10697.0, chute64.ts_per_sec);

    println!("\n== per-benchmark 32k sweep (TS/s @ 1 / 16 / 64 ranks; Pair% @1) ==");
    for b in Benchmark::ALL {
        let r1 = ctx.cpu_run(b, 1, 1)?;
        let r16 = ctx.cpu_run(b, 1, 16)?;
        let r64 = ctx.cpu_run(b, 1, 64)?;
        println!(
            "{b:<7} {:>9.1} {:>9.1} {:>9.1}   Pair {:>5.1}%  Neigh {:>5.1}%  Comm@64 {:>5.1}%  imb@64 {:>5.2}%  eff@64 {:>5.1}%",
            r1.ts_per_sec,
            r16.ts_per_sec,
            r64.ts_per_sec,
            r1.tasks.percent(TaskKind::Pair),
            r1.tasks.percent(TaskKind::Neigh),
            r64.tasks.percent(TaskKind::Comm),
            r64.mpi_imbalance_percent,
            100.0 * r64.parallel_efficiency(&r1),
        );
    }

    println!("\n== rhodo k-space grids (scale {big}) ==");
    {
        let profile =
            md_model::WorkloadProfile::measure(Benchmark::Rhodo, 30, 2022)?.at_scale(big)?;
        for err in [1e-4, 1e-5, 1e-6, 1e-7] {
            let ks = profile
                .with_kspace_error(err)?
                .kspace
                .expect("rhodo kspace");
            println!(
                "  err {err:>7.0e}: grid {:?} = {} points",
                ks.grid, ks.grid_points
            );
        }
    }

    println!("\n== GPU anchors ==");
    for b in [
        Benchmark::Lj,
        Benchmark::Chain,
        Benchmark::Eam,
        Benchmark::Rhodo,
    ] {
        let g1 = ctx.gpu_run(b, big, 1)?;
        let g8 = ctx.gpu_run(b, big, 8)?;
        println!(
            "{b:<7} TS/s @1/8 gpus: {:>8.1} {:>8.1}   eff@8 {:>5.1}%  util@8 {:>5.1}%  Pair% {:>5.1}  memcpy% {:>5.1}",
            g1.ts_per_sec,
            g8.ts_per_sec,
            100.0 * g8.parallel_efficiency(&g1),
            100.0 * g8.device_utilization,
            g8.tasks.percent(TaskKind::Pair),
            g8.kernels.percent(KernelKind::MemcpyHtoD) + g8.kernels.percent(KernelKind::MemcpyDtoH),
        );
    }
    if !quick {
        let lj_s = ctx.gpu_run_with(Benchmark::Lj, big, 8, PrecisionMode::Single, None)?;
        let lj_d = ctx.gpu_run_with(Benchmark::Lj, big, 8, PrecisionMode::Double, None)?;
        row("lj 2048k 8gpu TS/s single", 170.0, lj_s.ts_per_sec);
        row("lj 2048k 8gpu TS/s double", 121.6, lj_d.ts_per_sec);
        let rh_s = ctx.gpu_run_with(Benchmark::Rhodo, big, 8, PrecisionMode::Single, None)?;
        let rh_d = ctx.gpu_run_with(Benchmark::Rhodo, big, 8, PrecisionMode::Double, None)?;
        row("rhodo 2048k 8gpu TS/s single", 17.1, rh_s.ts_per_sec);
        row("rhodo 2048k 8gpu TS/s double", 16.5, rh_d.ts_per_sec);
        let coarse =
            ctx.gpu_run_with(Benchmark::Rhodo, big, 8, PrecisionMode::Mixed, Some(1e-4))?;
        let tight = ctx.gpu_run_with(Benchmark::Rhodo, big, 8, PrecisionMode::Mixed, Some(1e-7))?;
        row("rhodo 2048k 8gpu TS/s (e-4)", 16.09, coarse.ts_per_sec);
        row("rhodo 2048k 8gpu TS/s (e-7)", 0.46, tight.ts_per_sec);
    }
    Ok(())
}
