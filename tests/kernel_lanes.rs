//! Lanes-vs-scalar agreement on the real benchmark decks. Each deck runs its
//! trajectory on the scalar reference kernel; at fixed checkpoints both
//! kernel paths are probed on the *same* configuration via
//! `Simulation::pair_probe` and their pair forces and energies must agree to
//! 1e-10 relative (the ISSUE floor; the kernels actually agree to ~1e-12 —
//! the lanes paths reorder accumulation but evaluate identical arithmetic).
//!
//! Probing rather than running two trajectories sidesteps chaotic
//! divergence: after a few hundred steps any rounding difference amplifies
//! into O(1) position differences that say nothing about kernel correctness.
//!
//! Chute's granular style is scalar-only (per-contact mutable history vetoes
//! a lane-blocked form), and rhodo's CHARMM style has no lane body (it lost
//! to scalar on every ISA), so their lanes probes fall through to scalar and
//! the comparison is trivially exact — the tests still pin that contract.

use md_core::{EnergyVirial, KernelPath, Threads, LANES, V3};
use md_resilience::Checkpoint;
use md_workloads::{build_deck_tuned, Benchmark, DeckTuning};

const REL_TOL: f64 = 1e-10;

fn steps_for(benchmark: Benchmark) -> (u64, u64) {
    // (total steps, probe interval); rhodopsin is ~11x an LJ step (debug build).
    match benchmark {
        Benchmark::Rhodo => (10, 5),
        _ => (50, 10),
    }
}

fn assert_probe_agreement(
    benchmark: Benchmark,
    step: u64,
    scalar: &(Vec<V3>, EnergyVirial),
    lanes: &(Vec<V3>, EnergyVirial),
) {
    let (fs, es) = scalar;
    let (fl, el) = lanes;
    for (name, a, b) in [
        ("evdwl", es.evdwl, el.evdwl),
        ("ecoul", es.ecoul, el.ecoul),
        ("virial", es.virial, el.virial),
    ] {
        assert!(
            (a - b).abs() <= REL_TOL * a.abs().max(1.0),
            "{benchmark} step {step} {name}: scalar {a} vs lanes {b}"
        );
    }
    for (i, (a, b)) in fs.iter().zip(fl).enumerate() {
        for axis in 0..3 {
            let scale = a[axis].abs().max(b[axis].abs()).max(1.0);
            assert!(
                (a[axis] - b[axis]).abs() <= REL_TOL * scale,
                "{benchmark} step {step} force atom {i} axis {axis}: \
                 scalar {} vs lanes {}",
                a[axis],
                b[axis]
            );
        }
    }
}

fn assert_lanes_matches_scalar(benchmark: Benchmark) {
    // Two identical decks advanced in lockstep, each probed exactly once per
    // checkpoint: the granular style's compute mutates contact history, so
    // probing the same deck twice would compare two different states.
    let build = || {
        let tuning = DeckTuning {
            threads: Threads::serial(),
            kernel: KernelPath::Scalar,
            sort_every: 0,
        };
        build_deck_tuned(benchmark, 1, 2022, tuning).expect("deck builds")
    };
    let mut deck_s = build();
    let mut deck_l = build();
    let (total, every) = steps_for(benchmark);
    let mut step = 0;
    loop {
        let scalar = deck_s
            .simulation
            .pair_probe(KernelPath::Scalar)
            .expect("scalar probe");
        let lanes = deck_l
            .simulation
            .pair_probe(KernelPath::Lanes)
            .expect("lanes probe");
        assert_probe_agreement(benchmark, step, &scalar, &lanes);
        if step >= total {
            break;
        }
        deck_s.simulation.run(every).expect("deck runs");
        deck_l.simulation.run(every).expect("deck runs");
        step += every;
    }
}

#[test]
fn lj_deck_lanes_matches_scalar() {
    assert_lanes_matches_scalar(Benchmark::Lj);
}

#[test]
fn chain_deck_lanes_matches_scalar() {
    assert_lanes_matches_scalar(Benchmark::Chain);
}

#[test]
fn eam_deck_lanes_matches_scalar() {
    assert_lanes_matches_scalar(Benchmark::Eam);
}

#[test]
fn chute_deck_lanes_matches_scalar() {
    assert_lanes_matches_scalar(Benchmark::Chute);
}

#[test]
fn rhodo_deck_lanes_matches_scalar() {
    assert_lanes_matches_scalar(Benchmark::Rhodo);
}

/// A deck reports the kernel its pair style runs, not the one asked for:
/// asked for lanes, chute's granular style and rhodo's CHARMM style (neither
/// has a lane body) build a scalar deck on unpadded rows and checkpoint it
/// as scalar, while LJ and EAM run their lanes kernels on rows padded to
/// `LANES`.
#[test]
fn a_deck_reports_the_kernel_its_style_runs() {
    for (benchmark, runs, padding) in [
        (Benchmark::Lj, KernelPath::Lanes, LANES),
        (Benchmark::Eam, KernelPath::Lanes, LANES),
        (Benchmark::Chute, KernelPath::Scalar, 0),
        (Benchmark::Rhodo, KernelPath::Scalar, 0),
    ] {
        let tuning = DeckTuning {
            threads: Threads::serial(),
            kernel: KernelPath::Lanes,
            sort_every: 0,
        };
        let deck = build_deck_tuned(benchmark, 1, 2022, tuning).expect("deck builds");
        let sim = &deck.simulation;
        assert_eq!(sim.kernel_path(), runs, "{benchmark}");
        let nl = sim.neighbor_list().expect("decks have a pair style");
        assert_eq!(nl.padding(), padding, "{benchmark}");
        let written = Checkpoint::decode(&Checkpoint::capture(&deck, 2022).encode())
            .expect("checkpoint decodes");
        assert_eq!(written.header.kernel, runs, "{benchmark}");
    }
}
