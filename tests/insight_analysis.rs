//! End-to-end validation of the md-insight analysis layer: a modeled
//! 8-rank cluster with a `rank-slow` fault injected must have the analyzer
//! attribute the imbalance to the slowed rank and price the fault against
//! the same run without it (its fault-free twin), both through the library
//! API and through the `run_deck --insight` CLI (whose OpenMetrics and
//! folded-stack artifacts must round-trip the strict parsers).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use md_core::TaskKind;
use md_harness::insight;
use md_insight::{parse_folded, parse_openmetrics};
use md_model::{CpuModel, CpuRunOptions, CpuRunResult, WorkloadProfile};
use md_observe::{counter_name_allowed, ObserveConfig, Recorder};
use md_resilience::FaultPlan;
use md_workloads::{build_positions, Benchmark};

/// Matches run_deck's deck-recipe seed.
const DECK_SEED: u64 = 2022;

/// Matches run_deck's simulated-window floor.
const MODEL_SIM_STEPS: u64 = 60;

const SLOWED_RANK: usize = 3;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the modeled 8-rank LJ cluster the same way `run_deck --insight`
/// does, optionally under the `rank-slow:3x4@0` fault and with a recorder.
fn model_lj(faulted: bool, recorder: Option<&Recorder>) -> (CpuRunResult, u64) {
    let profile = WorkloadProfile::measure(Benchmark::Lj, 20, 1).expect("profile");
    let (bx, x) = build_positions(Benchmark::Lj, 1, DECK_SEED).expect("positions");
    let mut model = CpuModel::new();
    if let Some(recorder) = recorder {
        model.set_recorder(recorder.clone());
    }
    if faulted {
        let plan = FaultPlan::parse(&format!("rank-slow:{SLOWED_RANK}x4@0")).expect("fault plan");
        model.set_faults(Arc::new(plan));
    }
    let opts = CpuRunOptions {
        ranks: 8,
        sim_steps: MODEL_SIM_STEPS,
        thermo_every: 10,
        collect_rank_stats: true,
        ..CpuRunOptions::default()
    };
    let result = model.simulate(&profile, &bx, &x, &opts).expect("simulate");
    (result, opts.steps)
}

#[test]
fn rank_slow_fault_is_attributed_to_the_slowed_rank() {
    let recorder = Recorder::new(ObserveConfig::default());
    let (result, _) = model_lj(true, Some(&recorder));
    let report = insight::analyze(&result, &recorder);

    let imb = report.imbalance.as_ref().expect("imbalance section");
    assert_eq!(
        imb.suspect_rank,
        Some(SLOWED_RANK),
        "4x-slowed rank must be named the imbalance source \
         (compute: {:?})",
        imb.rank_compute_seconds
    );
    assert!(
        imb.suspect_excess_percent > 10.0,
        "a 4x slowdown is far past the threshold, got {:.1}%",
        imb.suspect_excess_percent
    );

    let cp = report.critical.as_ref().expect("critical-path section");
    let (top_rank, _) = cp.top_rank.expect("someone bounds the run");
    assert_eq!(
        top_rank, SLOWED_RANK,
        "the slowed rank bounds the critical path"
    );

    assert!(report.has_critical());
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == "imbalance.suspect_rank"
                && f.message.contains(&format!("rank {SLOWED_RANK}"))),
        "findings must name the rank: {:?}",
        report.findings
    );

    // Published headline gauges follow the counter-naming convention.
    report.publish_counters(&recorder);
    let snap = recorder.snapshot();
    for name in snap.counters.keys() {
        assert!(counter_name_allowed(name), "counter {name} off-convention");
    }
    assert_eq!(snap.counters["imbalance_suspect_rank"], SLOWED_RANK as f64);
}

#[test]
fn healthy_run_is_balanced_and_matches_its_fault_free_twin() {
    let recorder = Recorder::new(ObserveConfig::default());
    let (result, steps) = model_lj(false, Some(&recorder));
    let (twin, _) = model_lj(false, None);
    let mut report = insight::analyze(&result, &recorder);
    let imb = report.imbalance.as_ref().expect("imbalance section");
    assert_eq!(imb.suspect_rank, None, "healthy run has no suspect");

    insight::attach_fault_cost(&mut report, &result, &twin, steps);
    let cost = report.fault_cost.as_ref().expect("fault-cost section");
    assert!(
        cost.tasks.iter().all(|c| c.delta == 0.0),
        "modeled costs are deterministic, so a healthy run must match:\n{}",
        cost.render()
    );
}

#[test]
fn faulted_run_costs_more_than_its_fault_free_twin() {
    let recorder = Recorder::new(ObserveConfig::default());
    let (result, steps) = model_lj(true, Some(&recorder));
    let (twin, _) = model_lj(false, None);
    assert!(
        result.step_seconds > twin.step_seconds,
        "{} vs {}",
        result.step_seconds,
        twin.step_seconds
    );

    let mut report = insight::analyze(&result, &recorder);
    insight::attach_fault_cost(&mut report, &result, &twin, steps);
    let cost = report.fault_cost.as_ref().expect("fault-cost section");
    let top: Vec<TaskKind> = cost.tasks.iter().take(2).map(|c| c.task).collect();
    assert_eq!(
        top,
        [TaskKind::Comm, TaskKind::Pair],
        "skew reappears as waiting on the partners, then the slowed rank's own \
         work:\n{}",
        cost.render()
    );
    assert!(cost.step_delta() > 0.0);
    let finding = report
        .findings
        .iter()
        .find(|f| f.kind == "fault.cost")
        .expect("fault.cost finding");
    assert!(
        finding.message.contains("most of it in Comm"),
        "{}",
        finding.message
    );
}

/// Runs `run_deck <deck> --steps 10 --faults rank-slow:3x4@0
/// --insight <dir>` and returns its output and the insight directory.
fn run_deck_rank_slow(deck: &str) -> (Output, PathBuf) {
    let out_dir = std::env::temp_dir().join(format!("md-insight-{deck}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let output = Command::new(env!("CARGO_BIN_EXE_run_deck"))
        .current_dir(repo_root())
        .args([
            deck,
            "--steps",
            "10",
            "--thermo",
            "10",
            "--faults",
            &format!("rank-slow:{SLOWED_RANK}x4@0"),
            "--insight",
        ])
        .arg(&out_dir)
        .output()
        .expect("run_deck executes");
    (output, out_dir)
}

#[test]
fn run_deck_insight_cli_reports_the_fault_and_exports_round_trip() {
    let (output, out_dir) = run_deck_rank_slow("lj");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert!(
        output.status.success(),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains(&format!("rank {SLOWED_RANK}")),
        "report must name the slowed rank.\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("fault.cost"),
        "report must price the fault.\nstdout:\n{stdout}"
    );

    let report_txt =
        std::fs::read_to_string(out_dir.join("report.txt")).expect("report.txt written");
    assert!(report_txt.contains(&format!("rank {SLOWED_RANK}")));
    assert!(report_txt.contains("critical path"));

    let metrics_om =
        std::fs::read_to_string(out_dir.join("metrics.om")).expect("metrics.om written");
    let metrics = parse_openmetrics(&metrics_om).expect("OpenMetrics round-trips");
    let suspect = metrics
        .iter()
        .find(|m| m.name == "md_imbalance_suspect_rank")
        .expect("suspect-rank gauge exported");
    assert_eq!(suspect.value, SLOWED_RANK as f64);

    let folded_txt =
        std::fs::read_to_string(out_dir.join("folded.txt")).expect("folded.txt written");
    let folded = parse_folded(&folded_txt).expect("folded stacks round-trip");
    assert!(!folded.is_empty(), "traced run produces stacks");
    let critical_lane: Vec<_> = folded
        .iter()
        .filter(|(frames, _)| frames[0] == "critical_path")
        .collect();
    let lanes_seen: BTreeSet<String> = folded.iter().map(|(f, _)| f[0].clone()).collect();
    assert!(
        !critical_lane.is_empty(),
        "critical-path lane present in folded output, saw lanes {lanes_seen:?}"
    );

    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn a_fault_on_a_non_lj_deck_is_priced_against_its_twin() {
    let (output, out_dir) = run_deck_rank_slow("eam");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("fault-free twin"), "stdout:\n{stdout}");
    let report_txt =
        std::fs::read_to_string(out_dir.join("report.txt")).expect("report.txt written");
    assert!(report_txt.contains("fault.cost"), "report:\n{report_txt}");
    let _ = std::fs::remove_dir_all(&out_dir);
}
