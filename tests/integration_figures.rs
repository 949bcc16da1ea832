//! Shape-fidelity integration tests: the regenerated figures must show the
//! paper's qualitative findings (who wins, orderings, crossovers), per the
//! reproduction contract in DESIGN.md.
//!
//! These run at `Fidelity::Quick` (32k and 256k sizes) so CI stays fast; the
//! full sweep is produced by the `figures` binary and the benches.

use md_core::TaskKind;
use md_harness::{ExperimentContext, Fidelity};
use md_model::PrecisionMode;
use md_workloads::Benchmark;
use std::sync::OnceLock;

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::new(Fidelity::Quick))
}

/// Paper Section 5: with one MPI process, the LJ experiment spends over 75%
/// of its runtime in Pair; Chain and Chute (5 and 7 neighbors/atom) spend
/// significantly less.
#[test]
fn pair_share_follows_neighbor_count() {
    let lj = ctx().cpu_run(Benchmark::Lj, 1, 1).unwrap();
    let chain = ctx().cpu_run(Benchmark::Chain, 1, 1).unwrap();
    let chute = ctx().cpu_run(Benchmark::Chute, 1, 1).unwrap();
    assert!(
        lj.tasks.percent(TaskKind::Pair) > 70.0,
        "lj Pair share {:.1}%",
        lj.tasks.percent(TaskKind::Pair)
    );
    assert!(chain.tasks.percent(TaskKind::Pair) < lj.tasks.percent(TaskKind::Pair) - 15.0);
    assert!(chute.tasks.percent(TaskKind::Pair) < lj.tasks.percent(TaskKind::Pair) - 15.0);
}

/// Paper Section 5: communication starts to dominate for smaller systems
/// with high parallelization.
#[test]
fn comm_dominates_small_systems_at_high_rank_counts() {
    let small_p64 = ctx().cpu_run(Benchmark::Lj, 1, 64).unwrap();
    let small_p4 = ctx().cpu_run(Benchmark::Lj, 1, 4).unwrap();
    let big_p64 = ctx().cpu_run(Benchmark::Lj, 2, 64).unwrap();
    assert!(small_p64.tasks.percent(TaskKind::Comm) > small_p4.tasks.percent(TaskKind::Comm));
    assert!(small_p64.tasks.percent(TaskKind::Comm) > big_p64.tasks.percent(TaskKind::Comm));
}

/// Paper Figure 4: MPI overhead decreases with system size; chain and chute
/// show much more imbalance than lj and eam.
#[test]
fn mpi_overhead_and_imbalance_shapes() {
    let small = ctx().cpu_run(Benchmark::Lj, 1, 32).unwrap();
    let big = ctx().cpu_run(Benchmark::Lj, 2, 32).unwrap();
    assert!(
        small.mpi_time_percent > big.mpi_time_percent,
        "{:.1}% vs {:.1}%",
        small.mpi_time_percent,
        big.mpi_time_percent
    );
    let chute = ctx().cpu_run(Benchmark::Chute, 1, 32).unwrap();
    let chain = ctx().cpu_run(Benchmark::Chain, 1, 32).unwrap();
    let eam = ctx().cpu_run(Benchmark::Eam, 1, 32).unwrap();
    assert!(chute.mpi_imbalance_percent > eam.mpi_imbalance_percent * 2.0);
    assert!(chain.mpi_imbalance_percent > eam.mpi_imbalance_percent);
}

/// Paper Figure 6: rhodopsin is by far the slowest experiment; chute has the
/// best small-system performance.
#[test]
fn cpu_performance_ordering() {
    let mut ts = std::collections::HashMap::new();
    for b in Benchmark::ALL {
        ts.insert(b, ctx().cpu_run(b, 1, 64).unwrap().ts_per_sec);
    }
    let rhodo = ts[&Benchmark::Rhodo];
    for b in Benchmark::ALL {
        if b != Benchmark::Rhodo {
            assert!(ts[&b] > 3.0 * rhodo, "{b} at {} vs rhodo {rhodo}", ts[&b]);
        }
    }
    let max = ts.values().copied().fold(0.0f64, f64::max);
    assert_eq!(
        ts[&Benchmark::Chute],
        max,
        "chute leads small systems: {ts:?}"
    );
}

/// Paper Section 6: multi-GPU strong scaling is considerably worse than the
/// CPU MPI scaling; EAM outperforms Chain on the GPU instance (contrary to
/// the CPU instance).
#[test]
fn gpu_scaling_and_eam_vs_chain_inversion() {
    let cpu1 = ctx().cpu_run(Benchmark::Lj, 2, 1).unwrap();
    let cpu64 = ctx().cpu_run(Benchmark::Lj, 2, 64).unwrap();
    let cpu_eff = cpu64.parallel_efficiency(&cpu1);
    let gpu1 = ctx().gpu_run(Benchmark::Lj, 2, 1).unwrap();
    let gpu8 = ctx().gpu_run(Benchmark::Lj, 2, 8).unwrap();
    let gpu_eff = gpu8.parallel_efficiency(&gpu1);
    assert!(
        gpu_eff < cpu_eff,
        "GPU efficiency {gpu_eff:.2} should trail CPU {cpu_eff:.2}"
    );

    // CPU: chain beats eam; GPU: eam catches up or wins (pair offload suits
    // EAM; neighbor/bond work drags chain).
    let cpu_eam = ctx().cpu_run(Benchmark::Eam, 2, 64).unwrap().ts_per_sec;
    let cpu_chain = ctx().cpu_run(Benchmark::Chain, 2, 64).unwrap().ts_per_sec;
    let gpu_eam = ctx().gpu_run(Benchmark::Eam, 2, 8).unwrap().ts_per_sec;
    let gpu_chain = ctx().gpu_run(Benchmark::Chain, 2, 8).unwrap().ts_per_sec;
    let cpu_ratio = cpu_eam / cpu_chain;
    let gpu_ratio = gpu_eam / gpu_chain;
    assert!(
        gpu_ratio > cpu_ratio,
        "EAM must gain on Chain when offloaded: cpu {cpu_ratio:.2} vs gpu {gpu_ratio:.2}"
    );
}

/// Paper Section 7: lowering the error threshold increases k-space runtime
/// share and reduces performance on both instances; the GPU collapse is far
/// more dramatic.
#[test]
fn error_threshold_sensitivity() {
    let coarse = ctx()
        .cpu_run_with(Benchmark::Rhodo, 2, 64, PrecisionMode::Mixed, Some(1e-4))
        .unwrap();
    let tight = ctx()
        .cpu_run_with(Benchmark::Rhodo, 2, 64, PrecisionMode::Mixed, Some(1e-7))
        .unwrap();
    assert!(tight.ts_per_sec < coarse.ts_per_sec);
    assert!(tight.tasks.percent(TaskKind::Kspace) > coarse.tasks.percent(TaskKind::Kspace));

    let g_coarse = ctx()
        .gpu_run_with(Benchmark::Rhodo, 2, 8, PrecisionMode::Mixed, Some(1e-4))
        .unwrap();
    let g_tight = ctx()
        .gpu_run_with(Benchmark::Rhodo, 2, 8, PrecisionMode::Mixed, Some(1e-7))
        .unwrap();
    let cpu_drop = coarse.ts_per_sec / tight.ts_per_sec;
    let gpu_drop = g_coarse.ts_per_sec / g_tight.ts_per_sec;
    assert!(
        gpu_drop > cpu_drop,
        "GPU collapse ({gpu_drop:.1}x) must exceed CPU ({cpu_drop:.1}x)"
    );
    // And the HtoD traffic must grow (Section 7's memcpy observation).
    use md_model::KernelKind;
    assert!(
        g_tight.kernels.seconds(KernelKind::MemcpyHtoD)
            > g_coarse.kernels.seconds(KernelKind::MemcpyHtoD)
    );
}

/// Paper Section 8: double precision costs performance everywhere; the LJ
/// benchmark on the GPU is the most sensitive, rhodopsin on the GPU barely
/// moves.
#[test]
fn precision_sensitivity_shapes() {
    let cpu_s = ctx()
        .cpu_run_with(Benchmark::Lj, 2, 64, PrecisionMode::Single, None)
        .unwrap();
    let cpu_d = ctx()
        .cpu_run_with(Benchmark::Lj, 2, 64, PrecisionMode::Double, None)
        .unwrap();
    assert!(cpu_s.ts_per_sec > cpu_d.ts_per_sec);

    // The GPU sensitivity is clearest at the large size (paper Section 8:
    // "the LJ benchmark on GPU being the most sensitive"); small systems sit
    // on the PCIe latency floor where precision barely matters.
    let lj_s = ctx()
        .gpu_run_with(Benchmark::Lj, 4, 8, PrecisionMode::Single, None)
        .unwrap();
    let lj_d = ctx()
        .gpu_run_with(Benchmark::Lj, 4, 8, PrecisionMode::Double, None)
        .unwrap();
    let rhodo_s = ctx()
        .gpu_run_with(Benchmark::Rhodo, 4, 8, PrecisionMode::Single, None)
        .unwrap();
    let rhodo_d = ctx()
        .gpu_run_with(Benchmark::Rhodo, 4, 8, PrecisionMode::Double, None)
        .unwrap();
    let lj_ratio = lj_s.ts_per_sec / lj_d.ts_per_sec;
    let rhodo_ratio = rhodo_s.ts_per_sec / rhodo_d.ts_per_sec;
    assert!(lj_ratio > 1.15, "lj GPU single/double ratio {lj_ratio:.2}");
    assert!(
        rhodo_ratio < lj_ratio - 0.02,
        "rhodo ({rhodo_ratio:.2}) must be less precision-sensitive than lj ({lj_ratio:.2})"
    );
}

/// Table 2 check: measured neighbors/atom reproduce the paper's ordering and
/// magnitudes.
#[test]
fn table2_neighbor_counts() {
    let f = md_harness::tables::table2(ctx()).unwrap();
    assert_eq!(f.table.len(), 5);
    let get = |name: &str| -> f64 {
        f.table
            .rows()
            .iter()
            .find(|r| r[0] == name)
            .expect("row exists")[6]
            .parse()
            .expect("numeric")
    };
    assert!(get("rhodo") > 300.0);
    assert!((40.0..=70.0).contains(&get("lj")));
    assert!((30.0..=60.0).contains(&get("eam")));
    assert!(get("chain") < 10.0);
    assert!(get("chute") < 12.0);
}
