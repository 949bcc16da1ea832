//! Runs a real benchmark deck on the actual engine — the "profiling
//! experiment" path of the paper's framework (their Figure 2 A).
//!
//! ```text
//! run_deck <benchmark> [--steps N] [--scale S] [--thermo N]
//!          [--threads T] [--deterministic]
//!          [--kernel scalar|lanes] [--sort-every N]
//!          [--dump traj.xyz] [--write-data out.data]
//!          [--checkpoint-every N] [--checkpoint-dir DIR]
//!          [--checkpoint-retain K] [--resume]
//!          [--faults SPEC] [--trace out.json]
//!          [--comm-timeout SECS] [--max-rank-retries K]
//!          [--repartition-every N]
//!          [--insight DIR] [--baselines DIR] [--update-baselines]
//!          [--gpu-insight]
//! ```
//!
//! `--threads T` runs the hot kernels (pair, neighbor build, PPPM) on `T`
//! shared-memory threads; `--deterministic` switches the parallel
//! reductions to a fixed-chunk order so any thread count reproduces the
//! serial trajectory bitwise. Defaults come from `MD_THREADS` /
//! `MD_DETERMINISTIC`.
//!
//! `--kernel lanes` selects the lane-blocked (autovectorized) pair kernels
//! with padded neighbor rows; `--sort-every N` Morton-reorders the atoms at
//! the first neighbor rebuild at or after every N steps. Defaults come from
//! `MD_KERNEL` / `MD_SORT_EVERY`; `--deterministic` forces the scalar path
//! and disables sorting (the bitwise reference contract). A deck that ran
//! the lanes path times both kernels on itself after the last step (three
//! interleaved pair probes, minimum per path) and prints the two times; the
//! modeled cluster's CPU ns/pair is recalibrated by that lanes/scalar ratio.
//!
//! ## Resilience
//!
//! `--checkpoint-every N` writes a checksummed checkpoint every N steps to
//! `--checkpoint-dir` (default `checkpoints/`), keeping the newest
//! `--checkpoint-retain` files (default 3). `--resume` restarts from the
//! newest checkpoint in that directory, with the scale, threads, kernel
//! path and sort cadence recorded in it (the flags and `MD_*` variables for
//! those are not consulted, and the banner prints what the restored deck
//! runs with); `--steps` stays the *total* step target, so a resumed run
//! finishes exactly where an uninterrupted one would — bitwise, at the
//! recorded thread count.
//!
//! `--faults SPEC` injects a deterministic fault schedule (see the
//! md-resilience grammar): engine faults (`force-flip:<atom>@<step>`) are
//! caught by the numerical watchdog and rolled back under the recovery
//! ladder; cluster faults (`rank-stall:<rank>@<step>`, `rank-slow`,
//! `halo-drop`, `halo-dup`, `halo-corrupt`, `rank-crash`) additionally
//! drive a modeled 8-rank virtual cluster whose per-rank lanes land in
//! `--trace` output.
//!
//! ## Self-healing cluster
//!
//! A `rank-crash:<rank>@<step>` fault fail-stops a virtual rank. The
//! comm-health layer detects the silence on the modeled cluster (deadline
//! timeouts, seeded retry/backoff, per-rank retry budgets — tune with
//! `--comm-timeout` and `--max-rank-retries`), and the resilient runner
//! answers on the engine side: roll back to the last snapshot, re-decompose
//! over N−1 ranks, and continue — the post-shrink trajectory is bitwise the
//! crash-free one, because the shrink touches no physics knob. Every shrink
//! prints a `[recovery] shrink:` line and is serialized (CRC-checked wire
//! format) to `<checkpoint-dir>/shrink.reports`. When the cluster cannot
//! shrink further the run exits 4 with a structured failure report.
//! `halo-corrupt:<rank>@<step>` flips a byte in a framed ghost payload; the
//! CRC check catches it and a budgeted retry re-transfers the halo.
//!
//! `--repartition-every N` turns on imbalance-aware repartitioning in the
//! modeled cluster: every N steps the census names the suspect rank and the
//! owned-atom loads are re-split in inverse proportion to the measured
//! per-atom rates; the insight report ranks a `repartition.effective`
//! finding when each re-split shrank the windowed compute `%varavg`.
//!
//! ## Analysis
//!
//! `--insight DIR` runs the md-insight analyzer after the run: the modeled
//! 8-rank cluster executes with per-rank stats and critical-path tracking,
//! and DIR receives `report.txt` (the characterization report, also printed),
//! `metrics.om` (OpenMetrics snapshot), and `folded.txt` (folded stacks for
//! flamegraph tooling). Modeled per-task step costs are compared against
//! `--baselines DIR` (default `baselines/`) per deck; `--update-baselines`
//! folds this run into the stored baseline (refused under fault injection,
//! which would poison it). The process exits 3 when a perf regression is
//! detected (4 when a rank crash is unrecoverable), so CI can gate on it.
//!
//! `--gpu-insight` additionally runs the traced GPU-instance model on the
//! same deck: every modeled device gets its own trace lane (kernels and
//! PCIe copies at simulated time; visible in `--trace` output), and the
//! characterization report gains a per-device kernel/memcpy/idle breakdown
//! plus a host↔device critical path, so "memcpy-bound" findings rank next
//! to the imbalance ones (the paper's Figs. 7–9 mechanisms). Works with or
//! without `--insight DIR`; without it the GPU-only report is printed.

use md_core::{KernelPath, TaskKind, Threads};
use md_harness::insight;
use md_model::{
    CpuModel, CpuRunOptions, CpuRunResult, GpuModel, GpuRunOptions, GpuTracedRun, WorkloadProfile,
};
use md_observe::{chrome_trace_json, ObserveConfig, Recorder};
use md_resilience::{
    Checkpoint, CheckpointManager, FaultPlan, RecoveryPolicy, ResilienceError, ResilientRunner,
    ShrinkReport, Watchdog, WatchdogConfig,
};
use md_workloads::io::{write_data, AtomStyle, XyzDump};
use md_workloads::{build_deck_tuned, build_positions, Benchmark, Deck, DeckTuning};
use std::path::PathBuf;
use std::sync::Arc;

/// Deck-recipe seed used by every harness run (and stamped into
/// checkpoints, so a resume rebuilds the same deck).
const DECK_SEED: u64 = 2022;

struct Args {
    benchmark: Benchmark,
    steps: u64,
    scale: usize,
    thermo: u64,
    threads: Threads,
    kernel: KernelPath,
    sort_every: u64,
    dump: Option<PathBuf>,
    write_data_path: Option<PathBuf>,
    checkpoint_every: u64,
    checkpoint_dir: PathBuf,
    checkpoint_retain: usize,
    resume: bool,
    faults: FaultPlan,
    trace: Option<PathBuf>,
    comm_timeout: f64,
    max_rank_retries: u32,
    repartition_every: u64,
    insight: Option<PathBuf>,
    baselines: PathBuf,
    update_baselines: bool,
    gpu_insight: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let bench_name = args.next().ok_or_else(|| {
        "usage: run_deck <lj|chain|eam|chute|rhodo> [--steps N] [--scale S] \
         [--thermo N] [--threads T] [--deterministic] \
         [--kernel scalar|lanes] [--sort-every N] [--dump FILE] \
         [--write-data FILE] [--checkpoint-every N] [--checkpoint-dir DIR] \
         [--checkpoint-retain K] [--resume] [--faults SPEC] [--trace FILE] \
         [--comm-timeout SECS] [--max-rank-retries K] [--repartition-every N] \
         [--insight DIR] [--baselines DIR] [--update-baselines] [--gpu-insight]"
            .to_string()
    })?;
    let benchmark = Benchmark::parse(&bench_name).map_err(|e| e.to_string())?;
    // The flags below override the environment's knobs; a knob set to
    // something unreadable ends the run here.
    let env = DeckTuning::from_env().map_err(|e| e.to_string())?;
    let mut out = Args {
        benchmark,
        steps: 100,
        scale: 1,
        thermo: 20,
        threads: env.threads,
        kernel: env.kernel,
        sort_every: env.sort_every,
        dump: None,
        write_data_path: None,
        checkpoint_every: 0,
        checkpoint_dir: PathBuf::from("checkpoints"),
        checkpoint_retain: 3,
        resume: false,
        faults: FaultPlan::default(),
        trace: None,
        comm_timeout: 0.0,
        max_rank_retries: 3,
        repartition_every: 0,
        insight: None,
        baselines: PathBuf::from("baselines"),
        update_baselines: false,
        gpu_insight: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--steps" => out.steps = value("--steps")?.parse().map_err(|e| format!("{e}"))?,
            "--scale" => out.scale = value("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--thermo" => out.thermo = value("--thermo")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                out.threads.count = value("--threads")?.parse().map_err(|e| format!("{e}"))?;
                if out.threads.count == 0 {
                    return Err("--threads requires at least 1".to_string());
                }
            }
            "--deterministic" => out.threads.deterministic = true,
            "--kernel" => out.kernel = value("--kernel")?.parse()?,
            "--sort-every" => {
                out.sort_every = value("--sort-every")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--dump" => out.dump = Some(PathBuf::from(value("--dump")?)),
            "--write-data" => out.write_data_path = Some(PathBuf::from(value("--write-data")?)),
            "--checkpoint-every" => {
                out.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--checkpoint-dir" => {
                out.checkpoint_dir = PathBuf::from(value("--checkpoint-dir")?);
            }
            "--checkpoint-retain" => {
                out.checkpoint_retain = value("--checkpoint-retain")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--resume" => out.resume = true,
            "--faults" => {
                out.faults = FaultPlan::parse(&value("--faults")?).map_err(|e| e.to_string())?;
            }
            "--trace" => out.trace = Some(PathBuf::from(value("--trace")?)),
            "--comm-timeout" => {
                out.comm_timeout = value("--comm-timeout")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if out.comm_timeout < 0.0 {
                    return Err("--comm-timeout must be >= 0".to_string());
                }
            }
            "--max-rank-retries" => {
                out.max_rank_retries = value("--max-rank-retries")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--repartition-every" => {
                out.repartition_every = value("--repartition-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--insight" => out.insight = Some(PathBuf::from(value("--insight")?)),
            "--baselines" => out.baselines = PathBuf::from(value("--baselines")?),
            "--update-baselines" => out.update_baselines = true,
            "--gpu-insight" => out.gpu_insight = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Builds the deck fresh, or restores it from the newest checkpoint when
/// `--resume` is given (falling back to a fresh build if none exists yet,
/// so a resume-first invocation still works).
fn obtain_deck(args: &Args) -> Deck {
    if args.resume {
        let mgr = CheckpointManager::new(&args.checkpoint_dir, 0, 0)
            .unwrap_or_else(|e| fail(format!("checkpoint dir: {e}")));
        match mgr.latest() {
            Ok(Some(path)) => {
                let ckpt = Checkpoint::read_from(&path)
                    .unwrap_or_else(|e| fail(format!("cannot resume: {e}")));
                if ckpt.header.benchmark != args.benchmark {
                    fail(format!(
                        "cannot resume: checkpoint is for {}, requested {}",
                        ckpt.header.benchmark, args.benchmark
                    ));
                }
                let deck = ckpt
                    .restore()
                    .unwrap_or_else(|e| fail(format!("cannot resume: {e}")));
                println!(
                    "resumed from {} at step {}",
                    path.display(),
                    deck.simulation.step_index()
                );
                return deck;
            }
            Ok(None) => eprintln!(
                "no checkpoint in {}; starting fresh",
                args.checkpoint_dir.display()
            ),
            Err(e) => fail(format!("cannot list checkpoints: {e}")),
        }
    }
    let tuning = DeckTuning {
        threads: args.threads,
        kernel: args.kernel,
        sort_every: args.sort_every,
    };
    build_deck_tuned(args.benchmark, args.scale, DECK_SEED, tuning)
        .unwrap_or_else(|e| fail(format!("deck construction failed: {e}")))
}

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut deck = obtain_deck(&args);
    // From here on the flags read what the simulation runs with, not what
    // was asked for: the builder downgrades some requests, and a resumed
    // deck takes its scale and tuning from the checkpoint.
    args.scale = deck.scale;
    args.threads = deck.simulation.threads();
    args.kernel = deck.simulation.kernel_path();
    args.sort_every = deck.simulation.sort_every();
    let resilient = args.checkpoint_every > 0
        || args.resume
        || !args.faults.engine_faults().is_empty()
        || !args.faults.crashes().is_empty();

    println!(
        "running {} at scale {} ({} atoms), {} steps, {}, {} kernel{}, target features {}",
        args.benchmark,
        args.scale,
        deck.simulation.atoms().len(),
        args.steps,
        args.threads,
        args.kernel,
        if args.sort_every > 0 {
            format!(", sort every {}", args.sort_every)
        } else {
            String::new()
        },
        md_core::kernel::target_features()
    );
    let mut dump = args
        .dump
        .as_deref()
        .map(|p| XyzDump::create(p).unwrap_or_else(|e| fail(format!("cannot create dump: {e}"))));

    // Health/fault counters, trace lanes, and the insight analyzer need an
    // enabled recorder.
    let mut cfg = ObserveConfig::from_env();
    cfg.enabled = cfg.enabled
        || resilient
        || !args.faults.is_empty()
        || args.trace.is_some()
        || args.insight.is_some()
        || args.gpu_insight;
    let recorder = Recorder::new(cfg);
    if recorder.is_enabled() {
        deck.simulation.set_recorder(recorder.clone());
    }

    let mut runner = resilient.then(|| {
        let policy = RecoveryPolicy {
            snapshot_every: if args.checkpoint_every > 0 {
                args.checkpoint_every
            } else {
                10
            },
            ..RecoveryPolicy::default()
        };
        let mut r = ResilientRunner::new(
            policy,
            Watchdog::new(WatchdogConfig::default()),
            args.faults.clone(),
        );
        if !args.faults.crashes().is_empty() {
            // Arm the degraded-mode shrink: the harness models 8 ranks, and
            // a crashed one is rolled past by re-decomposing over N−1.
            r = r.with_cluster(8, args.max_rank_retries);
        }
        if args.checkpoint_every > 0 {
            let mgr = CheckpointManager::new(
                &args.checkpoint_dir,
                args.checkpoint_every,
                args.checkpoint_retain,
            )
            .unwrap_or_else(|e| fail(format!("checkpoint dir: {e}")));
            r = r.with_checkpoints(mgr, DECK_SEED);
        }
        r
    });

    println!("{}", deck.simulation.thermo());
    let mut violations = 0u64;
    let mut rollbacks = 0u32;
    let mut checkpoints_written = 0u64;
    let mut shrinks: Vec<ShrinkReport> = Vec::new();
    // `--steps` is the total target, so a resumed run finishes the same
    // trajectory an uninterrupted one would.
    while deck.simulation.step_index() < args.steps {
        let burst = args
            .thermo
            .max(1)
            .min(args.steps - deck.simulation.step_index());
        if let Some(runner) = runner.as_mut() {
            match runner.run(&mut deck, burst) {
                Ok(summary) => {
                    violations += summary.violations;
                    rollbacks += summary.rollbacks;
                    checkpoints_written += summary.checkpoints_written;
                    for m in &summary.mitigations {
                        println!("  [recovery] rolled back, mitigation: {m}");
                    }
                    for s in &summary.shrinks {
                        println!(
                            "  [recovery] rank {} declared failed after {} exhausted retries",
                            s.failed_rank, s.retries_spent
                        );
                        println!("  [recovery] shrink: {s}");
                    }
                    shrinks.extend(summary.shrinks);
                }
                Err(ResilienceError::Unrecoverable(report)) => {
                    eprintln!("unrecoverable: {report}");
                    std::process::exit(4);
                }
                Err(e) => fail(format!("unrecoverable: {e}")),
            }
        } else if let Err(e) = deck.simulation.run(burst) {
            fail(format!("step failed: {e}"));
        }
        println!("{}", deck.simulation.thermo());
        if let Some(d) = dump.as_mut() {
            if let Err(e) = d.write_frame(deck.simulation.atoms(), deck.simulation.step_index()) {
                fail(format!("dump failed: {e}"));
            }
        }
    }

    println!("\ntask breakdown (Table 1 taxonomy):");
    let ledger = deck.simulation.ledger();
    for task in TaskKind::ALL {
        let pct = ledger.percent(task);
        if pct > 0.05 {
            println!("  {:<8} {:>5.1}%", task.label(), pct);
        }
    }
    if let Some(nl) = deck.simulation.neighbor_list() {
        let s = nl.stats();
        println!(
            "neighbor list: {} builds, {:.1} stored nbr/atom, {:.1} within cutoff",
            s.builds, s.neighbors_per_atom, s.neighbors_within_cutoff
        );
    }

    if resilient {
        println!(
            "resilience: {violations} violation(s), {rollbacks} rollback(s), \
             {checkpoints_written} checkpoint(s) written"
        );
        for counter in [
            "health_nonfinite_force",
            "health_nonfinite_state",
            "health_displacement_spike",
            "health_energy_drift",
            "health_temperature_spike",
            "health_escaped_atom",
            "health_step_error",
            "health_rank_failed",
            "recovery_rollback",
            "recovery_mitigation",
            "recovery_shrink",
        ] {
            if let Some(v) = recorder.counter_value(counter) {
                println!("  {counter:<28} {v:.0}");
            }
        }
        if !shrinks.is_empty() {
            let path = args.checkpoint_dir.join("shrink.reports");
            match write_shrink_reports(&path, &shrinks) {
                Ok(()) => println!(
                    "wrote {} shrink report(s) to {}",
                    shrinks.len(),
                    path.display()
                ),
                Err(e) => fail(format!("cannot write {}: {e}", path.display())),
            }
        }
    }

    // The model's ns/pair table was tuned against the scalar kernels, so a
    // deck that ran the lanes path measures on itself what that path costs
    // relative to scalar; the modeled cluster below runs at that rate.
    let pair_rate_scale = insight::probe_lanes_vs_scalar(&mut deck)
        .unwrap_or_else(|e| fail(format!("pair probe failed: {e}")))
        .map(|(scalar, lanes)| {
            println!(
                "pair probe on this deck: scalar {:.2} ms, lanes {:.2} ms per evaluation \
                 (lanes/scalar {:.3})",
                scalar * 1e3,
                lanes * 1e3,
                lanes / scalar
            );
            lanes / scalar
        });

    // The modeled 8-rank cluster runs when cluster faults need replaying
    // and/or the insight analyzer needs per-rank stats.
    let model_run = if args.faults.has_cluster_faults() || args.insight.is_some() {
        match run_model_cluster(&args, &recorder, pair_rate_scale) {
            Ok(run) => Some(run),
            Err(e) => fail(format!("modeled cluster run failed: {e}")),
        }
    } else {
        None
    };

    // The traced GPU-instance model runs on the same deck: device lanes
    // land in `--trace` output, the timeline feeds the report's per-device
    // sections.
    let gpu_run: Option<GpuTracedRun> = if args.gpu_insight {
        match run_gpu_model(&args, &recorder) {
            Ok(run) => Some(run),
            Err(e) => fail(format!("modeled GPU run failed: {e}")),
        }
    } else {
        None
    };

    let mut regressed = false;
    if let Some(dir) = &args.insight {
        let (result, model_steps) = model_run.as_ref().expect("insight forces a model run");
        let mut report = insight::analyze(result, &recorder);
        if let Some(gpu) = &gpu_run {
            insight::attach_gpu(&mut report, &gpu.timeline);
        }
        let obs = insight::observations(result, *model_steps);
        let update = args.update_baselines;
        if update && !args.faults.is_empty() {
            fail("--update-baselines under --faults would poison the baseline; refusing");
        }
        match insight::check_regression(
            &mut report,
            &args.benchmark.to_string(),
            &obs,
            &args.baselines,
            update,
        ) {
            Ok(r) => regressed = r,
            Err(e) => fail(format!("regression check failed: {e}")),
        }
        if let Err(e) = insight::write_outputs(dir, &report, &recorder) {
            fail(format!("cannot write insight outputs: {e}"));
        }
        println!("\n{}", report.render());
        println!(
            "wrote insight report to {} (report.txt, metrics.om, folded.txt)",
            dir.display()
        );
        if update {
            println!(
                "updated baseline {}",
                args.baselines
                    .join(format!("{}.json", args.benchmark))
                    .display()
            );
        }
    }

    // Without `--insight` the GPU sections still deserve a report.
    if args.insight.is_none() {
        if let Some(gpu) = &gpu_run {
            let mut report = md_insight::InsightReport::default();
            insight::attach_gpu(&mut report, &gpu.timeline);
            println!("\n{}", report.render());
        }
    }

    if let Some(path) = &args.trace {
        match std::fs::write(path, chrome_trace_json(&recorder)) {
            Ok(()) => println!(
                "wrote {} ({} events) — open in chrome://tracing or Perfetto",
                path.display(),
                recorder.event_count()
            ),
            Err(e) => fail(format!("cannot write {}: {e}", path.display())),
        }
    }

    if let Some(path) = &args.write_data_path {
        let style = if args.benchmark == Benchmark::Rhodo {
            AtomStyle::Full
        } else {
            AtomStyle::Atomic
        };
        let bx = *deck.simulation.sim_box();
        if let Err(e) = write_data(path, &bx, deck.simulation.atoms(), style) {
            fail(format!("write-data failed: {e}"));
        }
        println!("wrote restartable data file to {}", path.display());
    }
    if let Some(d) = &dump {
        println!("wrote {} trajectory frames", d.frames());
    }
    if regressed {
        eprintln!("perf regression detected; exiting 3");
        std::process::exit(3);
    }
}

/// Serializes the run's shrink reports: a `u32` count, then each report as
/// a length-prefixed [`ShrinkReport::encode`] blob (tagged, versioned,
/// CRC-checked), little-endian throughout.
fn write_shrink_reports(path: &std::path::Path, shrinks: &[ShrinkReport]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(
        &u32::try_from(shrinks.len())
            .expect("few shrinks")
            .to_le_bytes(),
    );
    for s in shrinks {
        let blob = s.encode();
        buf.extend_from_slice(&u32::try_from(blob.len()).expect("small blob").to_le_bytes());
        buf.extend_from_slice(&blob);
    }
    std::fs::write(path, buf)
}

/// Simulated-window length of the traced GPU-instance model (fixed so the
/// device-lane trace and per-device shares are deck-reproducible).
const GPU_MODEL_SIM_STEPS: u64 = 40;

/// Runs the traced GPU-instance model (1 device, mixed precision) on the
/// benchmark's reference deck: device lanes land on the recorder, and the
/// returned timeline feeds the report's per-device breakdown and
/// host↔device critical path.
fn run_gpu_model(args: &Args, recorder: &Recorder) -> md_core::Result<GpuTracedRun> {
    println!("\nmodeled GPU instance ({GPU_MODEL_SIM_STEPS} simulated steps, 1 device):");
    let profile = WorkloadProfile::measure(args.benchmark, 20, 1)?;
    let (bx, x) = build_positions(args.benchmark, 1, DECK_SEED)?;
    let mut model = GpuModel::new();
    model.set_recorder(recorder.clone());
    let traced = model.simulate_traced(
        &profile,
        &bx,
        &x,
        &GpuRunOptions::default(),
        GPU_MODEL_SIM_STEPS,
    )?;
    println!(
        "  modeled {:.1} TS/s on {} device(s), {} host ranks, device utilization {:.0}%",
        traced.result.ts_per_sec,
        traced.result.gpus,
        traced.result.host_ranks,
        100.0 * traced.result.device_utilization
    );
    for counter in ["gpu_pcie_htod_bytes", "gpu_pcie_dtoh_bytes"] {
        if let Some(v) = recorder.counter_value(counter) {
            println!("  {counter:<20} {v:.0}");
        }
    }
    Ok(traced)
}

/// Simulated-window floor for the modeled cluster, so baseline comparisons
/// always average over the same number of modeled steps regardless of the
/// fault schedule's horizon.
const MODEL_SIM_STEPS: u64 = 60;

/// Runs the modeled 8-rank virtual cluster, replaying the cluster-side
/// fault schedule if one is set: stalls skew the faulted rank's clock
/// (partners absorb it in MPI_Wait — the paper's Fig. 4/5 imbalance
/// mechanism), halo faults cost extra link transfers. Per-rank lanes land
/// in `--trace` output, injections surface as `fault_*` counters, and
/// per-rank ledgers plus critical-path records feed the insight analyzer.
/// `pair_rate_scale` is this run's measured lanes/scalar pair-kernel ratio
/// (`None` on the scalar path: the calibration table stands). Returns the
/// result and the modeled step count its ledgers are scaled to.
fn run_model_cluster(
    args: &Args,
    recorder: &Recorder,
    pair_rate_scale: Option<f64>,
) -> md_core::Result<(CpuRunResult, u64)> {
    // Cover the whole fault schedule plus slack so skew is visible
    // downstream, but never less than the fixed baseline window.
    let horizon = args
        .faults
        .max_cluster_step()
        .map_or(0, |s| s + 10)
        .max(MODEL_SIM_STEPS);
    println!("\nmodeled 8-rank cluster ({horizon} simulated steps):");
    let profile = WorkloadProfile::measure(args.benchmark, 20, 1)?;
    let (bx, x) = build_positions(args.benchmark, 1, DECK_SEED)?;
    let mut model = CpuModel::new();
    if let Some(scale) = pair_rate_scale {
        model.recalibrate_pair_rate(scale);
        println!("  pair rate recalibrated by this run's lanes/scalar ratio {scale:.3}");
    }
    model.set_recorder(recorder.clone());
    if args.faults.has_cluster_faults() {
        model.set_faults(Arc::new(args.faults.clone()));
    }
    // Police the modeled exchanges when asked to, or whenever the fault
    // schedule carries comm faults the detection layer must catch.
    if args.comm_timeout > 0.0 || args.faults.has_comm_faults() {
        model.set_comm_policy(md_parallel::CommPolicy {
            timeout_seconds: if args.comm_timeout > 0.0 {
                args.comm_timeout
            } else {
                md_parallel::CommPolicy::default().timeout_seconds
            },
            max_rank_retries: args.max_rank_retries,
            seed: DECK_SEED,
            ..md_parallel::CommPolicy::default()
        });
    }
    let opts = CpuRunOptions {
        ranks: 8,
        sim_steps: horizon,
        thermo_every: 10,
        collect_rank_stats: args.insight.is_some(),
        repartition_every: args.repartition_every,
        ..CpuRunOptions::default()
    };
    let result = model.simulate(&profile, &bx, &x, &opts)?;
    println!(
        "  modeled {:.1} TS/s over {} ranks",
        result.ts_per_sec, opts.ranks
    );
    for counter in [
        "fault_rank_stall",
        "fault_rank_slow",
        "fault_halo_drop",
        "fault_halo_dup",
        "fault_halo_corrupt",
        "fault_rank_crash",
        "comm_timeout",
        "comm_corrupt",
        "comm_retry",
        "comm_budget_exhausted",
        "imbalance_repartitions",
    ] {
        if let Some(v) = recorder.counter_value(counter) {
            println!("  {counter:<22} {v:.0}");
        }
    }
    for &r in &result.failed_ranks {
        println!("  [comm] modeled rank {r} declared failed (retry budget exhausted)");
    }
    for ev in &result.repartitions {
        println!(
            "  [repartition] step {}: rank {} suspect, moved {} atoms, \
             %varavg {:.1} -> {:.1}",
            ev.step,
            ev.suspect_rank,
            ev.moved_atoms,
            ev.varavg_before_percent,
            ev.varavg_after_percent
        );
    }
    Ok((result, opts.steps))
}
