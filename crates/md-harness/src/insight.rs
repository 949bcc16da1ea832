//! Harness-side glue for md-insight: turns one modeled cluster run (plus
//! whatever the recorder retained from the real-engine run) into the
//! end-of-run characterization report, prices injected faults against the
//! run's fault-free twin, and writes the export artifacts (`report.txt`,
//! `metrics.om`, `folded.txt`) for `--insight <dir>`.

use std::path::Path;
use std::time::Instant;

use md_core::KernelPath;
use md_insight::{
    folded_stacks, openmetrics, Breakdown, CriticalPathSummary, DeviceCriticalPath, FaultCost,
    GpuAttribution, ImbalanceReport, InsightReport, MpiTable,
};
use md_model::gpu::GpuTimeline;
use md_model::CpuRunResult;
use md_observe::Recorder;
use md_workloads::Deck;

/// Assembles the analysis sections from a modeled run (which must have been
/// produced with `collect_rank_stats`) and the recorder's retained step
/// samples from the real-engine run, then finalizes the findings list.
pub fn analyze(result: &CpuRunResult, recorder: &Recorder) -> InsightReport {
    let snapshot = recorder.snapshot();
    let mut report = InsightReport {
        model_breakdown: Some(Breakdown::from_ledger(&result.tasks, 0)),
        ..InsightReport::default()
    };
    if !snapshot.steps.is_empty() {
        report.breakdown = Some(Breakdown::from_step_samples(&snapshot.steps));
    }
    if !result.rank_tasks.is_empty() {
        report.imbalance = Some(ImbalanceReport::from_rank_ledgers(&result.rank_tasks));
    }
    if !result.rank_mpi.is_empty() {
        report.mpi = Some(MpiTable::from_rank_ledgers(&result.rank_mpi));
    }
    if !result.critical_path.is_empty() {
        report.critical = Some(CriticalPathSummary::from_steps(
            &result.critical_path,
            result.ranks,
        ));
    }
    report.finalize();
    report
}

/// Attaches the GPU model's traced offload schedule to the report: the
/// per-device kernel/memcpy/idle breakdown and the host↔device critical
/// path, then re-finalizes so "memcpy-bound" findings rank next to the
/// imbalance ones.
pub fn attach_gpu(report: &mut InsightReport, timeline: &GpuTimeline) {
    report.gpu = Some(GpuAttribution::from_timeline(timeline));
    report.device_critical = Some(DeviceCriticalPath::from_timeline(timeline));
    report.finalize();
}

/// Attaches what the injected faults cost: `faulted` against `twin`, the
/// same model and options run without faults, both scaled to `steps`
/// modeled steps. Re-finalizes so the `fault.cost` finding ranks with the
/// rest.
pub fn attach_fault_cost(
    report: &mut InsightReport,
    faulted: &CpuRunResult,
    twin: &CpuRunResult,
    steps: u64,
) {
    report.fault_cost = Some(FaultCost::from_ledgers(&faulted.tasks, &twin.tasks, steps));
    report.finalize();
}

/// Seconds per pair-force evaluation through the scalar and through the
/// lanes kernel, `(scalar, lanes)`, on the deck in hand: the minimum of
/// three interleaved [`md_core::Simulation::pair_probe`] timings per path,
/// on the current positions and neighbor list. `lanes / scalar` is the
/// multiplier [`md_model::CpuModel::recalibrate_pair_rate`] takes, because
/// the model's ns/pair table was tuned against the scalar kernels. `None`
/// when the deck runs the scalar kernel: nothing to recalibrate. Probing
/// leaves the simulation's forces, energies and trajectory untouched.
///
/// # Errors
///
/// Propagates `pair_probe`'s error (no pair style).
pub fn probe_lanes_vs_scalar(deck: &mut Deck) -> md_core::Result<Option<(f64, f64)>> {
    if !deck.simulation.kernel_path().is_lanes() {
        return Ok(None);
    }
    let sim = &mut deck.simulation;
    let (mut scalar, mut lanes) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        for (path, best) in [
            (KernelPath::Scalar, &mut scalar),
            (KernelPath::Lanes, &mut lanes),
        ] {
            let t0 = Instant::now();
            std::hint::black_box(sim.pair_probe(path)?);
            *best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    Ok(Some((scalar, lanes)))
}

/// Writes the `--insight <dir>` artifacts: the rendered report, an
/// OpenMetrics snapshot (after publishing the report's headline gauges),
/// and folded stacks for flamegraph tooling.
pub fn write_outputs(
    dir: &Path,
    report: &InsightReport,
    recorder: &Recorder,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    report.publish_counters(recorder);
    let snapshot = recorder.snapshot();
    for (name, content) in [
        ("report.txt", report.render()),
        ("metrics.om", openmetrics(&snapshot)),
        ("folded.txt", folded_stacks(&snapshot)),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::{TaskKind, Threads};
    use md_model::{CpuModel, CpuRunOptions, WorkloadProfile};
    use md_observe::ObserveConfig;
    use md_workloads::{build_deck_tuned, build_positions, Benchmark, DeckTuning};

    fn simulate(model: &CpuModel) -> CpuRunResult {
        let profile = WorkloadProfile::measure(Benchmark::Lj, 10, 1).expect("profile");
        let (bx, x) = build_positions(Benchmark::Lj, 1, 1).expect("positions");
        let opts = CpuRunOptions {
            ranks: 4,
            sim_steps: 20,
            thermo_every: 10,
            collect_rank_stats: true,
            ..CpuRunOptions::default()
        };
        model.simulate(&profile, &bx, &x, &opts).expect("simulate")
    }

    fn modeled_run(recorder: &Recorder) -> CpuRunResult {
        let mut model = CpuModel::new();
        model.set_recorder(recorder.clone());
        simulate(&model)
    }

    #[test]
    fn analyze_produces_every_model_section() {
        let recorder = Recorder::new(ObserveConfig::default());
        let result = modeled_run(&recorder);
        let report = analyze(&result, &recorder);
        assert!(report.model_breakdown.is_some());
        assert!(report.imbalance.is_some());
        assert!(report.mpi.is_some());
        assert!(report.critical.is_some());
        assert!(!report.findings.is_empty());
        assert!(
            !report.has_critical(),
            "healthy run has no critical finding"
        );
    }

    #[test]
    fn attach_gpu_adds_device_sections_and_findings() {
        use md_model::{GpuModel, GpuRunOptions};
        let recorder = Recorder::new(ObserveConfig::default());
        let result = modeled_run(&recorder);
        let mut report = analyze(&result, &recorder);
        let profile = WorkloadProfile::measure(Benchmark::Lj, 10, 1).expect("profile");
        let (bx, x) = build_positions(Benchmark::Lj, 1, 1).expect("positions");
        let traced = GpuModel::new()
            .simulate_traced(&profile, &bx, &x, &GpuRunOptions::default(), 10)
            .expect("traced run");
        attach_gpu(&mut report, &traced.timeline);
        assert!(report.gpu.is_some());
        assert!(report.device_critical.is_some());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind.starts_with("gpu.") || f.kind.starts_with("critical_path.device")));
        let rendered = report.render();
        assert!(rendered.contains("per-device breakdown"));
    }

    fn serial(kernel: KernelPath) -> DeckTuning {
        DeckTuning {
            threads: Threads::serial(),
            kernel,
            sort_every: 0,
        }
    }

    #[test]
    fn lanes_probe_measures_the_deck_and_leaves_its_trajectory_alone() {
        let build = || build_deck_tuned(Benchmark::Eam, 1, 3, serial(KernelPath::Lanes)).unwrap();
        let (mut probed, mut twin) = (build(), build());
        let (scalar, lanes) = probe_lanes_vs_scalar(&mut probed)
            .expect("eam has a pair style")
            .expect("a lanes deck is measured");
        let scale = lanes / scalar;
        assert!(scale.is_finite() && scale > 0.2 && scale < 5.0, "{scale}");

        let state = |sim: &md_core::Simulation| -> Vec<u64> {
            let atoms = sim.atoms();
            [atoms.x(), atoms.v(), atoms.f()]
                .into_iter()
                .flatten()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .chain([sim.thermo().total_energy().to_bits()])
                .collect()
        };
        probed.simulation.run(1).unwrap();
        twin.simulation.run(1).unwrap();
        assert_eq!(state(&probed.simulation), state(&twin.simulation));
    }

    #[test]
    fn a_deck_on_the_scalar_kernel_is_not_probed() {
        for (benchmark, asked) in [
            (Benchmark::Lj, KernelPath::Scalar),
            (Benchmark::Chute, KernelPath::Lanes),
        ] {
            let mut deck = build_deck_tuned(benchmark, 1, 3, serial(asked)).unwrap();
            assert_eq!(probe_lanes_vs_scalar(&mut deck).unwrap(), None);
        }
    }

    #[test]
    fn recalibration_scales_modeled_pair_seconds_and_nothing_else() {
        let profile = WorkloadProfile::measure(Benchmark::Lj, 10, 1).expect("profile");
        let (bx, x) = build_positions(Benchmark::Lj, 1, 1).expect("positions");
        let opts = CpuRunOptions {
            ranks: 1,
            sim_steps: 20,
            ..CpuRunOptions::default()
        };
        let scale = 0.75;
        let base = CpuModel::new().simulate(&profile, &bx, &x, &opts).unwrap();
        let mut model = CpuModel::new();
        model.recalibrate_pair_rate(scale);
        let scaled = model.simulate(&profile, &bx, &x, &opts).unwrap();
        let (pair, want) = (
            scaled.tasks.seconds(TaskKind::Pair),
            scale * base.tasks.seconds(TaskKind::Pair),
        );
        assert!(want > 0.0 && ((pair - want) / want).abs() <= 1e-12);
        for task in [TaskKind::Neigh, TaskKind::Modify] {
            assert_eq!(
                scaled.tasks.seconds(task).to_bits(),
                base.tasks.seconds(task).to_bits(),
                "{task}"
            );
        }
    }

    #[test]
    fn a_healthy_runs_twin_is_bit_identical() {
        // The twin is the configured model cloned before the recorder is
        // attached, as run_deck builds it.
        let recorder = Recorder::new(ObserveConfig::default());
        let mut model = CpuModel::new();
        let twin_model = model.clone();
        model.set_recorder(recorder.clone());
        let (run, twin) = (simulate(&model), simulate(&twin_model));
        assert_eq!(run.step_seconds.to_bits(), twin.step_seconds.to_bits());
        for task in TaskKind::ALL {
            assert_eq!(
                run.tasks.seconds(task).to_bits(),
                twin.tasks.seconds(task).to_bits(),
                "{task}"
            );
        }

        let mut report = analyze(&run, &recorder);
        assert_eq!(report.imbalance.as_ref().unwrap().suspect_rank, None);
        attach_fault_cost(&mut report, &run, &twin, CpuRunOptions::default().steps);
        let cost = report.fault_cost.as_ref().expect("fault-cost section");
        assert!(cost.tasks.iter().all(|c| c.delta == 0.0));
        assert_eq!(cost.step_delta(), 0.0);
    }

    #[test]
    fn observations_are_per_step_and_deterministic() {
        // The fault-cost rows are a run's per-step modeled costs.
        let recorder = Recorder::new(ObserveConfig::default());
        let (a, b) = (modeled_run(&recorder), modeled_run(&recorder));
        let steps = CpuRunOptions::default().steps;
        let cost = FaultCost::from_ledgers(&a.tasks, &b.tasks, steps);
        assert!(
            cost.tasks
                .iter()
                .all(|c| c.faulted.to_bits() == c.twin.to_bits()),
            "modeled costs are bit-deterministic"
        );
        let pair = cost
            .tasks
            .iter()
            .find(|c| c.task == TaskKind::Pair)
            .expect("Pair row");
        assert_eq!(pair.twin, a.tasks.seconds(TaskKind::Pair) / steps as f64);
        assert!(cost.twin_step > 0.0);
        assert!(
            cost.tasks.iter().all(|c| c.task != TaskKind::Other),
            "init cost excluded"
        );
    }
}
