//! Layer probes of the traced pass on a deck: each calls one crate's public
//! API a fixed number of times on the warmed deck and reports the median.
//! They run after the traced window, so nothing here touches an end-to-end
//! number.

use crate::manifest::DeckSpec;
use crate::report::Outcome;
use crate::{spans, stats, RunArgs};
use md_core::{KernelPath, KspaceStyle, Simulation, Vec3};
use md_kspace::fft::Direction;
use md_kspace::{Complex, Fft3d, Pppm};
use md_observe::Recorder;
use md_resilience::{Checkpoint, Watchdog, WatchdogConfig};
use md_workloads::rhodo::{CUT_COUL, KSPACE_ERROR};
use md_workloads::{Benchmark, Deck};
use std::hint::black_box;

/// Steps run with an enabled recorder attached for the md-observe probe.
const RECORDER_STEPS: u64 = 50;
/// `Watchdog::check` calls timed for the md-resilience probe.
const WATCHDOG_CHECKS: usize = 20;
/// Accuracy of the FFT-bound PPPM probe (the deck default is spread- and
/// interpolation-bound), so a gain for one that costs the other shows.
const TIGHT_KSPACE_ERROR: f64 = 1e-6;
/// Repetitions of the probes that cost a step or more each (sort, state
/// round trip, PPPM, FFT); every deck's `probe_reps` is at least this.
const HEAVY_PROBE_REPS: usize = 3;
/// Steps between sort probes, so each sort meets a changed order.
const STEPS_BETWEEN_SORTS: u64 = 2;

pub fn deck_probes(
    out: &mut Outcome,
    spec: &DeckSpec,
    args: &RunArgs,
    deck: &mut Deck,
    window_p50: f64,
    rec: &Recorder,
) -> Result<(), String> {
    // First, while the neighbor rows are still as the window left them: a
    // lanes probe below pads them for good.
    if spec.io_probes {
        observe_probe(out, &mut deck.simulation, window_p50, rec)?;
        resilience_probe(out, args, deck, rec)?;
    }
    core_probes(out, spec, &mut deck.simulation, rec)?;
    pair_probes(out, spec, &mut deck.simulation, rec)?;
    if spec.benchmark.has_kspace() {
        kspace_probes(out, &deck.simulation, rec)?;
    }
    Ok(())
}

fn core_probes(
    out: &mut Outcome,
    spec: &DeckSpec,
    sim: &mut Simulation,
    rec: &Recorder,
) -> Result<(), String> {
    let mut build = Vec::new();
    for _ in 0..spec.probe_reps {
        let (r, s) = spans::call(rec, "md-core", "force_neighbor_rebuild", || {
            sim.force_neighbor_rebuild()
        });
        r.map_err(|e| format!("neighbor rebuild probe: {e}"))?;
        build.push(s);
    }
    out.set_median("core.neigh_build_ms", &build, 1e3);
    let pairs = sim.neighbor_list().map_or(0, |n| n.len());
    if pairs > 0 {
        out.set(
            "core.neigh_build_ns_per_pair",
            stats::median(&build) * 1e9 / pairs as f64,
        );
    }

    // Only where the workload sorts: a sort would change an unsorted
    // deck's memory order for every probe after it.
    if spec.sort_every > 0 {
        let mut sort = Vec::new();
        for _ in 0..HEAVY_PROBE_REPS {
            sim.run(STEPS_BETWEEN_SORTS)
                .map_err(|e| format!("sort probe steps: {e}"))?;
            let (r, s) = spans::call(rec, "md-core", "sort_atoms_now", || sim.sort_atoms_now());
            r.map_err(|e| format!("sort probe: {e}"))?;
            sort.push(s);
        }
        out.set_median("core.sort_ms", &sort, 1e3);
    }

    let (mut save, mut load) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..HEAVY_PROBE_REPS {
        let (state, s) = spans::call(rec, "md-core", "save_state", || sim.save_state());
        save.push(s);
        bytes = state.len();
        let (r, s) = spans::call(rec, "md-core", "load_state", || sim.load_state(&state));
        r.map_err(|e| format!("load_state probe: {e}"))?;
        load.push(s);
    }
    out.set_median("core.save_state_ms", &save, 1e3);
    out.set_median("core.load_state_ms", &load, 1e3);
    out.set("core.state_bytes", bytes as f64);
    Ok(())
}

fn pair_probes(
    out: &mut Outcome,
    spec: &DeckSpec,
    sim: &mut Simulation,
    rec: &Recorder,
) -> Result<(), String> {
    let has_lanes = spec.benchmark != Benchmark::Chute;
    let probe = |sim: &mut Simulation, path: KernelPath, name: &'static str| {
        let (r, s) = spans::call(rec, "md-potentials", name, || sim.pair_probe(path));
        black_box(r.map_err(|e| format!("pair probe: {e}"))?);
        Ok::<f64, String>(s)
    };
    // One discarded probe per path: the first lanes probe pads the rows.
    probe(sim, KernelPath::Scalar, "pair_probe_scalar")?;
    if has_lanes {
        probe(sim, KernelPath::Lanes, "pair_probe_lanes")?;
    }
    let (mut scalar, mut lanes) = (Vec::new(), Vec::new());
    for _ in 0..spec.probe_reps {
        scalar.push(probe(sim, KernelPath::Scalar, "pair_probe_scalar")?);
        if has_lanes {
            lanes.push(probe(sim, KernelPath::Lanes, "pair_probe_lanes")?);
        }
    }
    let scalar_s = stats::median(&scalar);
    out.set_median("potentials.pair_scalar_ms", &scalar, 1e3);
    let mut kernel_s = scalar_s;
    if has_lanes {
        let lanes_s = stats::median(&lanes);
        out.set_median("potentials.pair_lanes_ms", &lanes, 1e3);
        out.set("potentials.lanes_over_scalar", lanes_s / scalar_s);
        if spec.kernel.is_lanes() {
            kernel_s = lanes_s;
        }
    }
    let Some(nl) = sim.neighbor_list() else {
        return Ok(());
    };
    let n = nl.natoms();
    out.set("potentials.pairs_per_eval", nl.len() as f64);
    out.set(
        "potentials.pair_ns_per_pair",
        scalar_s * 1e9 / nl.len() as f64,
    );
    // Bytes the kernel must touch at least once per evaluation, from array
    // sizes: its neighbor rows (padded where the lanes path reads padding)
    // plus one position read and one force write per atom. Cache misses are
    // not in it.
    let row_entries: usize = if has_lanes && nl.padding() > 1 {
        (0..n).map(|i| nl.padded_neighbors(i).len()).sum()
    } else {
        nl.len()
    };
    let bytes = row_entries * size_of::<u32>() + n * 2 * size_of::<Vec3<f64>>();
    out.set("potentials.pair_bytes_computed", bytes as f64);
    out.set(
        "potentials.pair_gb_per_s_computed",
        bytes as f64 / kernel_s / 1e9,
    );
    Ok(())
}

fn pppm_probe(
    sim: &Simulation,
    relative_error: f64,
    names: (&'static str, &'static str),
    reps: usize,
    rec: &Recorder,
) -> Result<(f64, Vec<f64>, [usize; 3]), String> {
    let bx = *sim.sim_box();
    let (x, q) = (sim.atoms().x(), sim.atoms().charges());
    let mut pppm = Pppm::new(CUT_COUL, relative_error, 5);
    pppm.set_qqr2e(sim.units().qqr2e);
    pppm.set_threads(sim.threads());
    let (r, setup_s) = spans::call(rec, "md-kspace", names.0, || pppm.setup(&bx, q));
    r.map_err(|e| format!("pppm setup at {relative_error:e}: {e}"))?;
    let mut compute = Vec::new();
    let mut f = vec![Vec3::zero(); x.len()];
    for _ in 0..reps {
        let (e, s) = spans::call(rec, "md-kspace", names.1, || {
            pppm.compute(&bx, x, q, &mut f)
        });
        black_box(e);
        compute.push(s);
    }
    Ok((setup_s, compute, pppm.grid()))
}

fn kspace_probes(out: &mut Outcome, sim: &Simulation, rec: &Recorder) -> Result<(), String> {
    let reps = HEAVY_PROBE_REPS;
    let (setup_s, compute, grid) =
        pppm_probe(sim, KSPACE_ERROR, ("pppm_setup", "pppm_compute"), reps, rec)?;
    out.set("kspace.pppm_setup_ms", setup_s * 1e3);
    out.set_median("kspace.pppm_compute_ms", &compute, 1e3);
    out.set("kspace.grid_points", grid.iter().product::<usize>() as f64);

    let names = ("pppm_tight_setup", "pppm_tight_compute");
    let (_, compute, grid) = pppm_probe(sim, TIGHT_KSPACE_ERROR, names, reps, rec)?;
    out.set_median("kspace.pppm_tight_compute_ms", &compute, 1e3);
    out.set(
        "kspace.tight_grid_points",
        grid.iter().product::<usize>() as f64,
    );

    let mut fft = Fft3d::new(grid[0], grid[1], grid[2]).map_err(|e| format!("fft plan: {e}"))?;
    fft.set_threads(sim.threads().count);
    let mut mesh: Vec<Complex> = (0..fft.len())
        .map(|i| Complex::new((i % 17) as f64 - 8.0, (i % 5) as f64))
        .collect();
    let mut round_trip = Vec::new();
    for _ in 0..reps {
        let (r, s) = spans::call(rec, "md-kspace", "fft3d_forward_inverse", || {
            fft.transform(&mut mesh, Direction::Forward)?;
            fft.transform(&mut mesh, Direction::Inverse)
        });
        r.map_err(|e| format!("fft probe: {e}"))?;
        round_trip.push(s);
    }
    black_box(&mesh);
    out.set_median("kspace.fft3d_ms", &round_trip, 1e3);
    Ok(())
}

fn resilience_probe(
    out: &mut Outcome,
    args: &RunArgs,
    deck: &Deck,
    rec: &Recorder,
) -> Result<(), String> {
    let err = |e| format!("checkpoint probe: {e}");
    let dir = args
        .out_dir()
        .join(format!("checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("probe.mdchk");
    let (write, write_s) = spans::call(rec, "md-resilience", "checkpoint_capture_write", || {
        Checkpoint::capture(deck, args.seed).write_to(&path)
    });
    let bytes = std::fs::metadata(&path).map(|m| m.len());
    let (read, read_s) = spans::call(rec, "md-resilience", "checkpoint_read", || {
        Checkpoint::read_from(&path)
    });
    // Remove the scratch directory before reporting any failure above.
    let _ = std::fs::remove_dir_all(&dir);
    write.map_err(err)?;
    let read = read.map_err(err)?;
    out.check(
        "checkpoint_round_trip",
        read.state == deck.simulation.save_state(),
        format!("{} state bytes", read.state.len()),
    );
    out.set("resilience.checkpoint_write_ms", write_s * 1e3);
    out.set("resilience.checkpoint_read_ms", read_s * 1e3);
    out.set(
        "resilience.checkpoint_bytes",
        bytes.map_err(|e| format!("checkpoint probe: {e}"))? as f64,
    );

    let mut dog = Watchdog::new(WatchdogConfig::default());
    let mut checks = Vec::new();
    let mut events = 0;
    for _ in 0..WATCHDOG_CHECKS {
        let (found, s) = spans::call(rec, "md-resilience", "watchdog_check", || {
            dog.check(&deck.simulation)
        });
        events += found.len();
        checks.push(s);
    }
    out.check(
        "watchdog_quiet_on_healthy_deck",
        events == 0,
        format!("{events} health events"),
    );
    out.set_median("resilience.watchdog_check_us", &checks, 1e6);
    Ok(())
}

/// Steps with an enabled `Recorder` attached against the traced window's
/// own median: what md-observe's hooks cost when they are on.
fn observe_probe(
    out: &mut Outcome,
    sim: &mut Simulation,
    window_p50: f64,
    rec: &Recorder,
) -> Result<(), String> {
    let recorder = Recorder::default();
    sim.set_recorder(recorder.clone());
    let mut steps = Vec::new();
    for _ in 0..RECORDER_STEPS {
        let (r, s) = spans::call(rec, "md-core", "step_recorded", || sim.step());
        r.map_err(|e| format!("recorded step: {e}"))?;
        steps.push(s);
    }
    sim.set_recorder(Recorder::disabled());
    out.set(
        "observe.recorder_overhead_pct",
        (stats::median(&steps) / window_p50 - 1.0) * 100.0,
    );
    out.samples("observe.recorder_overhead_pct", steps.len());
    out.set("observe.events_recorded", recorder.event_count() as f64);
    let (json, export_s) = spans::call(rec, "md-observe", "chrome_trace_json", || {
        md_observe::chrome_trace_json(&recorder)
    });
    black_box(json);
    out.set("observe.export_ms", export_s * 1e3);
    Ok(())
}
