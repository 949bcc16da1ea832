//! The six deck workloads: build a paper deck through
//! `md_workloads::build_deck_tuned`, warm it up, and time every
//! `Simulation::step()` of a fixed-length window. The timed pass does that
//! several times over on decks built afresh from the same seed and adds the
//! correctness checks; the traced pass runs one window of half the steps,
//! reads the engine's task ledger over it and runs the layer probes.

use crate::manifest::DeckSpec;
use crate::report::{Outcome, Repeat};
use crate::{host, layers, spans, stats, RunArgs};
use md_core::{KernelPath, Simulation, TaskKind, TaskLedger, ThermoState, Threads};
use md_observe::Recorder;
use md_workloads::{build_deck_tuned, Benchmark, Deck, DeckTuning};
use std::ops::Range;
use std::time::Instant;

/// Relative NVE total-energy drift allowed over the window; the value of
/// `LJ_NVE_DRIFT_BOUND` in the repo's `tests/integration_engine.rs`.
const NVE_DRIFT_BOUND: f64 = 2e-2;
/// Lanes against scalar pair forces, relative RMS. Loose enough for a later
/// mixed-precision path, tight enough to catch a broken kernel; the tier-1
/// tests keep the 1e-10 contract.
const LANES_RMS_BOUND: f64 = 1e-6;
/// Fewest window steps, whatever `--seconds` says.
const MIN_STEPS: u64 = 4;

/// Steps of one repeat of the timed pass: the run's steps shared out among
/// the repeats.
pub fn repeat_steps(spec: &DeckSpec, seconds: f64) -> u64 {
    ((spec.steps_per_second * seconds / spec.repeats as f64).round() as u64).max(MIN_STEPS)
}

/// Steps of the traced pass's one window: half the timed pass's steps.
pub fn traced_steps(spec: &DeckSpec, seconds: f64) -> u64 {
    ((spec.steps_per_second * seconds / 2.0).round() as u64).max(MIN_STEPS)
}

fn tuning(spec: &DeckSpec, threads_used: usize) -> DeckTuning {
    DeckTuning {
        threads: if threads_used > 1 {
            Threads::fast(threads_used)
        } else {
            Threads::serial()
        },
        kernel: spec.kernel,
        sort_every: spec.sort_every,
    }
}

/// One timed window of `steps` calls to `Simulation::step()`.
struct Window {
    step_seconds: Vec<f64>,
    wall_seconds: f64,
    failed: u64,
    ledger: TaskLedger,
    /// Whether each step rebuilt the neighbor list.
    rebuilt: Vec<bool>,
    before: ThermoState,
    after: ThermoState,
}

fn builds(sim: &Simulation) -> usize {
    sim.neighbor_list().map_or(0, |n| n.stats().builds)
}

/// With tracing on, only every other step is recorded as a span: the
/// unrecorded steps between them, on the same stretch of trajectory, are the
/// reference the tracing overhead is measured against.
fn run_window(sim: &mut Simulation, steps: u64, rec: &Recorder) -> Window {
    let before = sim.thermo();
    let ledger_before = sim.ledger().clone();
    let mut builds_so_far = builds(sim);
    let unrecorded = Recorder::disabled();
    let mut step_seconds = Vec::with_capacity(steps as usize);
    let mut rebuilt = Vec::with_capacity(steps as usize);
    let mut failed = 0;
    let start = Instant::now();
    for i in 0..steps {
        let rec = if i % 2 == 0 { rec } else { &unrecorded };
        let (result, seconds) = spans::call(rec, "md-core", "step", || sim.step());
        if let Err(e) = result {
            // The state after a failed step is not a trajectory worth timing.
            eprintln!("mdbench: step {} failed: {e}", sim.step_index());
            failed += 1;
            break;
        }
        step_seconds.push(seconds);
        let builds_now = builds(sim);
        rebuilt.push(builds_now > builds_so_far);
        builds_so_far = builds_now;
    }
    Window {
        step_seconds,
        wall_seconds: start.elapsed().as_secs_f64(),
        failed,
        ledger: sim.ledger().delta_since(&ledger_before),
        rebuilt,
        before,
        after: sim.thermo(),
    }
}

/// Checks on the window's end state: thermo finite, atoms conserved, and on
/// NVE decks the energy drift bound.
fn check_window(out: &mut Outcome, spec: &DeckSpec, deck: &Deck, atoms_before: usize, w: &Window) {
    let t = &w.after;
    let values = [t.temperature, t.kinetic, t.potential, t.pressure, t.volume];
    out.check(
        "thermo_finite",
        values.iter().all(|v| v.is_finite()),
        format!("T {} E {}", t.temperature, t.total_energy()),
    );
    let atoms = deck.simulation.atoms().len();
    out.check(
        "atoms_conserved",
        atoms == atoms_before,
        format!("{atoms_before} -> {atoms}"),
    );
    if spec.nve {
        let (e0, e1) = (w.before.total_energy(), w.after.total_energy());
        let drift = ((e1 - e0) / e0).abs();
        out.check(
            "nve_energy_drift",
            drift < NVE_DRIFT_BOUND,
            format!(
                "{drift:.3e} over {} steps (bound {NVE_DRIFT_BOUND:e})",
                w.step_seconds.len()
            ),
        );
    }
}

fn thermo_bits(t: &ThermoState) -> [u64; 6] {
    [
        t.step,
        t.temperature.to_bits(),
        t.kinetic.to_bits(),
        t.potential.to_bits(),
        t.pressure.to_bits(),
        t.volume.to_bits(),
    ]
}

/// `load_state(save_state())` must leave the next step's thermo bitwise
/// equal to the step taken without the round trip.
fn check_state_round_trip(out: &mut Outcome, sim: &mut Simulation) -> Result<(), String> {
    let err = |e| format!("state round trip: {e}");
    let state = sim.save_state();
    sim.step().map_err(err)?;
    let direct = sim.thermo();
    sim.load_state(&state).map_err(err)?;
    sim.step().map_err(err)?;
    let reloaded = sim.thermo();
    out.check(
        "state_round_trip_bitwise",
        thermo_bits(&direct) == thermo_bits(&reloaded),
        format!("E {} vs {}", direct.total_energy(), reloaded.total_energy()),
    );
    Ok(())
}

/// The lanes kernel must agree with the scalar reference on the same
/// configuration. Chute has no lanes path.
fn check_lanes_agree(
    out: &mut Outcome,
    spec: &DeckSpec,
    sim: &mut Simulation,
) -> Result<(), String> {
    if spec.benchmark == Benchmark::Chute {
        return Ok(());
    }
    let err = |e| format!("pair probe: {e}");
    let (scalar, _) = sim.pair_probe(KernelPath::Scalar).map_err(err)?;
    let (lanes, _) = sim.pair_probe(KernelPath::Lanes).map_err(err)?;
    let diff2: f64 = scalar
        .iter()
        .zip(&lanes)
        .map(|(a, b)| (*a - *b).norm2())
        .sum();
    let ref2: f64 = scalar.iter().map(|a| a.norm2()).sum();
    let rms = (diff2 / ref2).sqrt();
    out.check(
        "lanes_match_scalar",
        rms < LANES_RMS_BOUND,
        format!("relative RMS {rms:.3e} (bound {LANES_RMS_BOUND:e})"),
    );
    Ok(())
}

/// Builds the deck and runs the warm-up steps: everything between workload
/// start and window start.
fn set_up(
    spec: &DeckSpec,
    seed: u64,
    threads_used: usize,
    rec: &Recorder,
) -> Result<(Deck, f64, f64), String> {
    let _phase = spans::phase(rec, "setup");
    let start = Instant::now();
    let (deck, build_seconds) = spans::call(rec, "md-workloads", "build_deck_tuned", || {
        build_deck_tuned(spec.benchmark, spec.scale, seed, tuning(spec, threads_used))
    });
    let mut deck = deck.map_err(|e| format!("deck construction failed: {e}"))?;
    let (warm, _) = spans::call(rec, "md-core", "run_warmup", || {
        deck.simulation.run(spec.warm_steps)
    });
    warm.map_err(|e| format!("warm-up failed: {e}"))?;
    Ok((deck, build_seconds, start.elapsed().as_secs_f64()))
}

/// The steps of a window that `ops_per_s` counts: from the first step that
/// rebuilt the neighbor list up to, not including, the last one that did, so
/// whole rebuild cycles and nothing else. A window of fixed length holds one
/// rebuild more or fewer from seed to seed, which on `lj_large_mt` is a
/// tenth of its time. A window with fewer than two rebuilds (`chute_flow`
/// rebuilds once per ~100 steps, a repeat of `rhodo_bio` holds one rebuild)
/// counts whole.
fn whole_cycles(rebuilt: &[bool]) -> Range<usize> {
    let first = rebuilt.iter().position(|&r| r);
    let last = rebuilt.iter().rposition(|&r| r);
    match (first, last) {
        (Some(first), Some(last)) if first < last => first..last,
        _ => 0..rebuilt.len(),
    }
}

/// The timed pass: `spec.repeats` repeats of set-up plus window, every one
/// on a deck built afresh from the same seed, so each does the same work
/// step for step (checked) and they differ only by what the host did
/// meanwhile. The peak RSS is read when the first window ends, before a
/// second deck exists.
fn run_timed(
    spec: &DeckSpec,
    args: &RunArgs,
    threads_used: usize,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let steps = repeat_steps(spec, args.seconds);
    let mut repeats = Vec::with_capacity(spec.repeats);
    let mut peak_rss_mb = None;
    // Rebuild steps and end state of the first repeat.
    let mut reference: Option<(Vec<bool>, [u64; 6])> = None;
    let mut same_work = true;
    for _ in 0..spec.repeats {
        let (mut deck, _, setup_seconds) = set_up(spec, args.seed, threads_used, rec)?;
        let atoms_before = deck.simulation.atoms().len();
        let w = run_window(&mut deck.simulation, steps, rec);
        if peak_rss_mb.is_none() {
            peak_rss_mb =
                Some(host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?);
        }
        out.ops += w.step_seconds.len() as u64 + w.failed;
        out.ops_failed += w.failed;
        check_window(out, spec, &deck, atoms_before, &w);
        let end_state = thermo_bits(&w.after);
        match &reference {
            None => reference = Some((w.rebuilt, end_state)),
            Some((rebuilt, state)) => same_work &= *rebuilt == w.rebuilt && *state == end_state,
        }
        repeats.push(Repeat {
            op_seconds: w.step_seconds,
            wall_seconds: w.wall_seconds,
            setup_seconds,
        });
    }
    let (rebuilt, _) = reference.ok_or("a deck workload needs at least one repeat")?;
    let peak_rss_mb = peak_rss_mb.expect("read after the first window");
    out.check(
        "repeats_bitwise_equal",
        same_work,
        format!(
            "{} repeats, {} rebuilds each",
            repeats.len(),
            rebuilt.iter().filter(|&&r| r).count()
        ),
    );
    out.set_end_to_end(&repeats, whole_cycles(&rebuilt), peak_rss_mb);
    Ok(())
}

pub fn run(spec: &DeckSpec, args: &RunArgs, rec: &Recorder) -> Result<Outcome, String> {
    let threads_used = spec.threads.min(host::nproc());
    let mut out = Outcome::new(threads_used);
    if !args.trace {
        run_timed(spec, args, threads_used, rec, &mut out)?;
        return Ok(out);
    }

    // Traced pass: half the window, spans on every other step.
    let (mut deck, build_seconds, _) = set_up(spec, args.seed, threads_used, rec)?;
    let atoms_before = deck.simulation.atoms().len();
    let w = {
        let _phase = spans::phase(rec, "window");
        run_window(&mut deck.simulation, traced_steps(spec, args.seconds), rec)
    };
    out.ops = w.step_seconds.len() as u64 + w.failed;
    out.ops_failed = w.failed;
    check_window(&mut out, spec, &deck, atoms_before, &w);

    let every_other = |first: usize| -> Vec<f64> {
        w.step_seconds
            .iter()
            .skip(first)
            .step_by(2)
            .copied()
            .collect()
    };
    let window_p50 = stats::median(&w.step_seconds);
    out.set_traced_window(&w.step_seconds, w.wall_seconds);
    out.set(
        "trace.overhead_pct",
        (stats::median(&every_other(0)) / stats::median(&every_other(1)) - 1.0) * 100.0,
    );
    out.set(
        "trace.ledger_coverage_pct",
        w.ledger.total() / w.wall_seconds * 100.0,
    );
    out.set("workloads.build_deck_s", build_seconds);

    let task = |k: TaskKind| w.ledger.seconds(k);
    let named = [
        ("core.task_neigh_s", TaskKind::Neigh),
        ("core.task_modify_s", TaskKind::Modify),
        ("potentials.task_pair_s", TaskKind::Pair),
        ("potentials.task_bond_s", TaskKind::Bond),
        ("kspace.task_kspace_s", TaskKind::Kspace),
    ];
    for (name, kind) in named {
        out.set(name, task(kind));
    }
    // Output, Comm and the ledger's own Other: what the named tasks leave.
    let named_total: f64 = named.iter().map(|(_, k)| task(*k)).sum();
    out.set("core.task_other_s", w.ledger.total() - named_total);
    let rebuilds = w.rebuilt.iter().filter(|&&r| r).count();
    out.set("core.neigh_rebuilds", rebuilds as f64);
    if let Some(nl) = deck.simulation.neighbor_list() {
        out.set("core.neigh_stored_per_atom", nl.stats().neighbors_per_atom);
    }
    out.set(
        "core.sorts_performed",
        deck.simulation.sorts_performed() as f64,
    );

    {
        let _phase = spans::phase(rec, "probes");
        layers::deck_probes(&mut out, spec, args, &mut deck, window_p50, rec)?;
    }
    let _phase = spans::phase(rec, "checks");
    check_state_round_trip(&mut out, &mut deck.simulation)?;
    check_lanes_agree(&mut out, spec, &mut deck.simulation)?;
    Ok(out)
}
