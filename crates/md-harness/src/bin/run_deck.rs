//! Runs a real benchmark deck on the actual engine — the "profiling
//! experiment" path of the paper's framework (their Figure 2 A).
//!
//! ```text
//! run_deck <benchmark> [--steps N] [--scale S] [--thermo N]
//!          [--threads T] [--kernel scalar|lanes] [--sort-every N]
//!          [--dump traj.xyz] [--write-data out.data]
//!          [--checkpoint-every N] [--checkpoint-dir DIR]
//!          [--checkpoint-retain K] [--resume]
//!          [--faults SPEC] [--trace out.json]
//!          [--insight DIR] [--gpu-insight]
//! ```
//!
//! `--threads T` runs the hot kernels (pair, neighbor build, PPPM) on `T`
//! shared-memory threads (default `MD_THREADS`, else 1). A run repeats
//! bitwise at a fixed thread count; another count agrees to floating-point
//! reassociation in the pair sums.
//!
//! `--kernel lanes` selects the lane-blocked (autovectorized) pair kernels
//! with padded neighbor rows; `--sort-every N` Morton-reorders the atoms at
//! the first neighbor rebuild at or after every N steps. Defaults come from
//! `MD_KERNEL` / `MD_SORT_EVERY`. A deck that ran the lanes path times both
//! kernels on itself after the last step (three interleaved pair probes,
//! minimum per path) and prints the two times; the modeled cluster's CPU
//! ns/pair is recalibrated by that lanes/scalar ratio.
//!
//! ## Checkpoint/resume
//!
//! `--checkpoint-every N` writes a checksummed checkpoint every N steps to
//! `--checkpoint-dir` (default `checkpoints/`), keeping the newest
//! `--checkpoint-retain` files (default 3). `--resume` restarts from the
//! newest checkpoint in that directory, with the scale, threads, kernel
//! path and sort cadence recorded in it (the flags and `MD_*` variables for
//! those are not consulted, and the banner prints what the restored deck
//! runs with); `--steps` stays the *total* step target, so a resumed run
//! finishes exactly where an uninterrupted one would — bitwise, at the
//! recorded thread count. Writing a checkpoint moves no bit of the
//! trajectory.
//!
//! ## Cost injection
//!
//! `--faults SPEC` injects a deterministic schedule of cluster faults (see
//! the md-resilience grammar): `rank-stall:<rank>@<step>` and
//! `rank-slow:<rank>x<factor>@<step>` perturb the clocks of a modeled
//! 8-rank virtual cluster whose per-rank lanes land in `--trace` output;
//! the engine's trajectory is untouched.
//!
//! ## Analysis
//!
//! `--insight DIR` runs the md-insight analyzer after the run: the modeled
//! 8-rank cluster executes with per-rank stats and critical-path tracking,
//! and DIR receives `report.txt` (the characterization report, also printed),
//! `metrics.om` (OpenMetrics snapshot), and `folded.txt` (folded stacks for
//! flamegraph tooling). Under cluster faults the same model also runs once
//! without them (its fault-free twin, same options, no recorder), and the
//! report ranks a `fault.cost` finding: what the faults added to a modeled
//! step, task by task.
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
use md_resilience::{Checkpoint, CheckpointManager, FaultPlan};
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
    insight: Option<PathBuf>,
    gpu_insight: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let bench_name = args.next().ok_or_else(|| {
        "usage: run_deck <lj|chain|eam|chute|rhodo> [--steps N] [--scale S] \
         [--thermo N] [--threads T] [--kernel scalar|lanes] [--sort-every N] \
         [--dump FILE] [--write-data FILE] [--checkpoint-every N] [--checkpoint-dir DIR] \
         [--checkpoint-retain K] [--resume] [--faults SPEC] [--trace FILE] \
         [--insight DIR] [--gpu-insight]"
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
        insight: None,
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
            "--insight" => out.insight = Some(PathBuf::from(value("--insight")?)),
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

    println!(
        "running {} at scale {} ({} atoms), {} steps, {}, {} kernel{}, target features {}, lanes {}",
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
        md_core::kernel::target_features(),
        md_core::kernel::lane_isa()
    );
    let mut dump = args
        .dump
        .as_deref()
        .map(|p| XyzDump::create(p).unwrap_or_else(|e| fail(format!("cannot create dump: {e}"))));

    // Fault counters, trace lanes, and the insight analyzer need an enabled
    // recorder.
    let mut cfg = ObserveConfig::from_env();
    cfg.enabled = cfg.enabled
        || !args.faults.is_empty()
        || args.trace.is_some()
        || args.insight.is_some()
        || args.gpu_insight;
    let recorder = Recorder::new(cfg);
    if recorder.is_enabled() {
        deck.simulation.set_recorder(recorder.clone());
    }

    let checkpoints = (args.checkpoint_every > 0).then(|| {
        CheckpointManager::new(
            &args.checkpoint_dir,
            args.checkpoint_every,
            args.checkpoint_retain,
        )
        .unwrap_or_else(|e| fail(format!("checkpoint dir: {e}")))
    });

    println!("{}", deck.simulation.thermo());
    let mut checkpoints_written = 0u64;
    // `--steps` is the total target, so a resumed run finishes the same
    // trajectory an uninterrupted one would.
    while deck.simulation.step_index() < args.steps {
        let end = (deck.simulation.step_index() + args.thermo.max(1)).min(args.steps);
        // A burst stops early at each step a checkpoint is due.
        while deck.simulation.step_index() < end {
            let from = deck.simulation.step_index();
            let to = checkpoints
                .as_ref()
                .and_then(|mgr| (from + 1..=end).find(|&s| mgr.due(s)))
                .unwrap_or(end);
            if let Err(e) = deck.simulation.run(to - from) {
                fail(format!("step failed: {e}"));
            }
            if let Some(mgr) = checkpoints.as_ref().filter(|mgr| mgr.due(to)) {
                if let Err(e) = mgr.save(&deck, DECK_SEED) {
                    fail(format!("checkpoint failed: {e}"));
                }
                checkpoints_written += 1;
            }
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
            "neighbor list: {} builds ({} dangerous) on neigh_modify {}, {:.1} stored \
             nbr/atom, {:.1} within cutoff (+{:.1} excluded)",
            s.builds,
            s.dangerous_builds,
            deck.simulation.neighbor_policy(),
            s.neighbors_per_atom,
            s.neighbors_within_cutoff,
            s.excluded_within_cutoff
        );
    }

    if checkpoints.is_some() {
        println!(
            "wrote {checkpoints_written} checkpoint(s) to {}",
            args.checkpoint_dir.display()
        );
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
    let model_run = if !args.faults.is_empty() || args.insight.is_some() {
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

    if let Some(dir) = &args.insight {
        let (result, twin, model_steps) = model_run.as_ref().expect("insight forces a model run");
        let mut report = insight::analyze(result, &recorder);
        if let Some(twin) = twin {
            insight::attach_fault_cost(&mut report, result, twin, *model_steps);
        }
        if let Some(gpu) = &gpu_run {
            insight::attach_gpu(&mut report, &gpu.timeline);
        }
        if let Err(e) = insight::write_outputs(dir, &report, &recorder) {
            fail(format!("cannot write insight outputs: {e}"));
        }
        println!("\n{}", report.render());
        println!(
            "wrote insight report to {} (report.txt, metrics.om, folded.txt)",
            dir.display()
        );
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

/// Simulated-window floor for the modeled cluster, so a short or empty
/// fault schedule still leaves the imbalance and critical-path statistics
/// enough steps to settle.
const MODEL_SIM_STEPS: u64 = 60;

/// Runs the modeled 8-rank virtual cluster, replaying the fault schedule if
/// one is set: stalls and slowdowns skew the faulted rank's clock (partners
/// absorb it in MPI_Wait — the paper's Fig. 4/5 imbalance mechanism).
/// Per-rank lanes land in `--trace` output, injections surface as
/// `fault_*` counters, and
/// per-rank ledgers plus critical-path records feed the insight analyzer.
/// `pair_rate_scale` is this run's measured lanes/scalar pair-kernel ratio
/// (`None` on the scalar path: the calibration table stands). Returns the
/// result, its fault-free twin when `--insight` prices cluster faults, and
/// the modeled step count both runs' ledgers are scaled to.
fn run_model_cluster(
    args: &Args,
    recorder: &Recorder,
    pair_rate_scale: Option<f64>,
) -> md_core::Result<(CpuRunResult, Option<CpuRunResult>, u64)> {
    // Cover the whole fault schedule plus slack so skew is visible
    // downstream, but never less than the window floor.
    let horizon = args
        .faults
        .max_step()
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
    // The fault-free twin is this model before it gets the faults and the
    // recorder, so trace lanes and counters describe only the faulted run.
    let twin_model = (args.insight.is_some() && !args.faults.is_empty()).then(|| model.clone());
    model.set_recorder(recorder.clone());
    if !args.faults.is_empty() {
        model.set_faults(Arc::new(args.faults.clone()));
    }
    let opts = CpuRunOptions {
        ranks: 8,
        sim_steps: horizon,
        thermo_every: 10,
        collect_rank_stats: args.insight.is_some(),
        ..CpuRunOptions::default()
    };
    let result = model.simulate(&profile, &bx, &x, &opts)?;
    println!(
        "  modeled {:.1} TS/s over {} ranks",
        result.ts_per_sec, opts.ranks
    );
    for counter in ["fault_rank_stall", "fault_rank_slow"] {
        if let Some(v) = recorder.counter_value(counter) {
            println!("  {counter:<22} {v:.0}");
        }
    }
    let twin = twin_model
        .map(|twin| twin.simulate(&profile, &bx, &x, &opts))
        .transpose()?;
    if let Some(twin) = &twin {
        println!("  fault-free twin: modeled {:.1} TS/s", twin.ts_per_sec);
    }
    Ok((result, twin, opts.steps))
}
