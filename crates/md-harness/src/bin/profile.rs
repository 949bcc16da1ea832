//! The paper's Figure-2 "profiling experiment" mode on the *real* engine:
//! run every benchmark deck for a fixed number of steps on this host and
//! report the wall-clock task breakdowns, neighbor statistics, and
//! thermodynamic sanity — the measured counterpart of the modeled Figure 3.
//!
//! ```text
//! cargo run --release -p md-harness --bin profile [--steps N]
//!     [--threads T] [--deterministic] [--trace out.json] [--metrics out.jsonl]
//!     [--analyze]
//! ```
//!
//! `--threads T` runs the hot kernels on `T` shared-memory threads (traced
//! runs then also get per-thread fork/join lanes); `--deterministic` pins
//! the parallel reductions to a fixed-chunk order. Defaults come from
//! `MD_THREADS` / `MD_DETERMINISTIC`.
//!
//! With `--trace`, every step is recorded through `md-observe` and the run
//! ends with a Chrome `trace_event` JSON (open in `chrome://tracing` or
//! Perfetto): lane 0 is the real engine (all eight task categories plus the
//! PPPM kernel sub-spans), lanes 1.. are the ranks of a modeled 8-rank
//! virtual cluster with per-MPI-function spans at simulated timestamps.
//! `--metrics` additionally writes per-step JSONL samples. Recording can
//! also be switched on without flags via `MD_OBSERVE=1` (capacities:
//! `MD_OBSERVE_STEPS`, `MD_OBSERVE_EVENTS`).
//!
//! `--analyze` collects per-rank stats and critical-path records from the
//! modeled cluster run and prints the md-insight characterization report
//! (bottleneck attribution, `%varavg` load imbalance, per-MPI-function
//! overhead, critical path). It also runs the traced GPU-instance model so
//! the report carries the per-device kernel/memcpy/idle breakdown and the
//! host↔device critical path, and traced runs gain one lane per modeled
//! device.

use md_core::TaskKind;
use md_harness::insight;
use md_harness::render::{fnum, TextTable};
use md_model::{
    CpuModel, CpuRunOptions, CpuRunResult, GpuModel, GpuRunOptions, GpuTracedRun, WorkloadProfile,
};
use md_observe::{chrome_trace_json, metrics_jsonl, text_report, ObserveConfig, Recorder};
use md_workloads::{build_deck_tuned, build_positions, Benchmark, DeckTuning};

fn main() {
    let mut steps: u64 = 20;
    // All four environment knobs up front: a typo in one of them ends the
    // run here instead of failing every deck build below.
    let mut tuning = DeckTuning::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let threads = &mut tuning.threads;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut analyze = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--steps" => {
                steps = value(&mut args).parse().unwrap_or_else(|_| {
                    eprintln!("--steps requires a number");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                threads.count = value(&mut args).parse().unwrap_or_else(|_| {
                    eprintln!("--threads requires a number");
                    std::process::exit(2);
                });
                if threads.count == 0 {
                    eprintln!("--threads requires at least 1");
                    std::process::exit(2);
                }
            }
            "--deterministic" => threads.deterministic = true,
            "--trace" => trace_path = Some(value(&mut args)),
            "--metrics" => metrics_path = Some(value(&mut args)),
            "--analyze" => analyze = true,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let mut cfg = ObserveConfig::from_env();
    cfg.enabled = cfg.enabled || trace_path.is_some() || metrics_path.is_some() || analyze;
    let recorder = Recorder::new(cfg);

    let mut header: Vec<String> = vec![
        "benchmark".into(),
        "TS/s (host)".into(),
        "nbr/atom".into(),
        "rebuilds".into(),
    ];
    header.extend(TaskKind::ALL.iter().map(|t| format!("{t} %")));
    let mut table = TextTable::new(header);

    eprintln!(
        "[profile] hot kernels on {}, {} kernel, target features {}",
        tuning.threads,
        tuning.kernel,
        md_core::kernel::target_features()
    );
    for bench in Benchmark::ALL {
        eprint!("[profile] {bench}: building ... ");
        let mut deck = match build_deck_tuned(bench, 1, 2022, tuning) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("failed: {e}");
                continue;
            }
        };
        deck.simulation.set_recorder(recorder.clone());
        eprint!("running {steps} steps ... ");
        let report = match deck.simulation.run(steps) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("failed: {e}");
                continue;
            }
        };
        eprintln!("{:.1} TS/s", report.ts_per_sec);
        let nbr = deck
            .simulation
            .neighbor_list()
            .map_or(0.0, |n| n.stats().neighbors_within_cutoff);
        let mut row = vec![
            bench.to_string(),
            fnum(report.ts_per_sec),
            fnum(nbr),
            report.neighbor_builds.to_string(),
        ];
        row.extend(
            TaskKind::ALL
                .iter()
                .map(|&t| fnum(report.ledger.percent(t))),
        );
        table.row(row);
    }

    println!("\n== Real-engine task profile, 32k decks, {steps} steps each ==");
    println!("(host wall clock on this machine; the paper's Xeon 8358 sweep is `figures fig03`)\n");
    println!("{table}");

    if recorder.is_enabled() {
        // Add per-rank lanes: a short modeled 8-rank LJ run on the virtual
        // cluster, traced at simulated timestamps.
        eprintln!("[profile] tracing 8-rank virtual cluster (modeled lj) ...");
        match trace_cluster(&recorder, analyze) {
            Ok(result) => {
                if analyze {
                    let mut report = insight::analyze(&result, &recorder);
                    eprintln!("[profile] tracing GPU-instance model (modeled lj, 1 device) ...");
                    match trace_gpu(&recorder) {
                        Ok(traced) => insight::attach_gpu(&mut report, &traced.timeline),
                        Err(e) => eprintln!("[profile] GPU trace failed: {e}"),
                    }
                    println!("\n{}", report.render());
                }
            }
            Err(e) => eprintln!("[profile] cluster trace failed: {e}"),
        }

        if let Some(path) = &trace_path {
            match std::fs::write(path, chrome_trace_json(&recorder)) {
                Ok(()) => eprintln!(
                    "[profile] wrote {path} ({} events) — open in chrome://tracing or Perfetto",
                    recorder.event_count()
                ),
                Err(e) => {
                    eprintln!("[profile] cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &metrics_path {
            match std::fs::write(path, metrics_jsonl(&recorder)) {
                Ok(()) => eprintln!("[profile] wrote {path}"),
                Err(e) => {
                    eprintln!("[profile] cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        println!("{}", text_report(&recorder));
    }
}

/// Runs the CPU model for LJ over 8 virtual ranks with `recorder` attached,
/// so the exported trace gets per-rank lanes (`rank 0`..`rank 7`). With
/// `collect_rank_stats`, the result also carries per-rank ledgers and
/// critical-path records for the insight analyzer.
fn trace_cluster(recorder: &Recorder, collect_rank_stats: bool) -> md_core::Result<CpuRunResult> {
    let profile = WorkloadProfile::measure(Benchmark::Lj, 40, 1)?;
    let (bx, x) = build_positions(Benchmark::Lj, 1, 1)?;
    let mut model = CpuModel::new();
    model.set_recorder(recorder.clone());
    let opts = CpuRunOptions {
        ranks: 8,
        sim_steps: 40,
        // Short traced window: make sure a thermo allreduce (the modeled
        // Output task) lands inside it.
        thermo_every: 10,
        collect_rank_stats,
        ..CpuRunOptions::default()
    };
    model.simulate(&profile, &bx, &x, &opts)
}

/// Runs the traced GPU-instance model for LJ with `recorder` attached, so
/// the exported trace gets device lanes (`gpu 0`, `gpu host`) and the
/// analyzer gets a [`md_model::gpu::GpuTimeline`].
fn trace_gpu(recorder: &Recorder) -> md_core::Result<GpuTracedRun> {
    let profile = WorkloadProfile::measure(Benchmark::Lj, 40, 1)?;
    let (bx, x) = build_positions(Benchmark::Lj, 1, 1)?;
    let mut model = GpuModel::new();
    model.set_recorder(recorder.clone());
    model.simulate_traced(&profile, &bx, &x, &GpuRunOptions::default(), 40)
}
