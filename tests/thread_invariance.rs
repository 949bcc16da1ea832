//! The threading contract, deck by deck. At a fixed thread count a run
//! repeats bit for bit: every pair reduction cuts its rows with
//! `Threads::stripe`, one chunk per worker, and adds the chunks in order.
//! Across counts the pair sums regroup, so what holds against the serial
//! run is agreement to reassociation, not identity. For each deck at 2 and
//! at 4 threads:
//!
//! * two fresh runs end bitwise equal in positions, forces and the task
//!   ledger's per-phase step counts;
//! * the step-0 neighbor list has exactly the serial build's statistics
//!   (the threaded build is bitwise the serial one);
//! * the step-0 forces are within 1e-12 relative of the serial deck's, and
//!   the potential energy, one sum over every stored pair, within 1e-11.
//!
//! Chute's granular pair style is serial by design (per-contact mutable
//! history), but its deck still exercises the threaded neighbor builds.

use md_core::{Threads, V3};
use md_workloads::{build_deck_with, Benchmark, Deck};

const SEED: u64 = 2022;

/// Step-0 force components against serial. A force is a handful of chunk
/// partials at most; the worst measured is 1.2e-14 (rhodo).
const FORCE_REL_TOL: f64 = 1e-12;

/// Step-0 potential energy against serial. The energy is one sum over every
/// stored pair (~1.2 M on the LJ deck), and regrouping it into 2 or 4 chunk
/// partials moves it by up to 3.2e-12 relative (LJ at 4 threads; EAM
/// 1.2e-12, rhodo 2.2e-13, chain 7.8e-14).
const ENERGY_REL_TOL: f64 = 1e-11;

/// Steps of each repeat window. Halfway through, every window forces a
/// neighbor rebuild on the moved atoms, so each one runs the threaded build
/// past step 0 however far the deck's own first rebuild is (chain ~3 steps,
/// LJ and EAM ~7, rhodo 6, chute ~100). Rhodo's steps cost ~10x the others'.
fn window(benchmark: Benchmark) -> u64 {
    match benchmark {
        Benchmark::Rhodo => 4,
        _ => 10,
    }
}

fn bits(v: &[V3]) -> Vec<u64> {
    v.iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

/// Everything a repeat must reproduce.
struct Fingerprint {
    x_bits: Vec<u64>,
    f_bits: Vec<u64>,
    step_counts: [u64; 8],
}

/// Runs `deck` through its window and fingerprints where it ends.
fn run_window(mut deck: Deck) -> Fingerprint {
    let steps = window(deck.benchmark);
    let sim = &mut deck.simulation;
    sim.run(steps / 2).expect("deck runs");
    sim.force_neighbor_rebuild().expect("rebuild succeeds");
    sim.run(steps - steps / 2).expect("deck runs");
    Fingerprint {
        x_bits: bits(sim.atoms().x()),
        f_bits: bits(sim.atoms().f()),
        step_counts: sim.ledger().step_counts(),
    }
}

/// `got` within `rel` of `want`, with a floor of one unit so near-zero
/// values compare absolutely.
fn assert_close(what: &str, got: f64, want: f64, rel: f64) {
    assert!(
        (got - want).abs() <= rel * want.abs().max(1.0),
        "{what}: {got} vs serial {want}"
    );
}

fn assert_contract(benchmark: Benchmark) {
    let build = |threads| build_deck_with(benchmark, 1, SEED, threads).expect("deck builds");
    let serial = build(Threads::serial());
    let serial_stats = serial.simulation.neighbor_list().map(|nl| nl.stats());
    let serial_f = serial.simulation.atoms().f().to_vec();
    let serial_pe = serial.simulation.thermo().potential;
    drop(serial);

    for t in [2usize, 4] {
        let first = build(Threads::fast(t));
        let sim = &first.simulation;
        assert_eq!(
            sim.neighbor_list().map(|nl| nl.stats()),
            serial_stats,
            "{benchmark} at {t} threads: step-0 neighbor statistics"
        );
        assert_close(
            &format!("{benchmark} at {t} threads: step-0 potential energy"),
            sim.thermo().potential,
            serial_pe,
            ENERGY_REL_TOL,
        );
        for (i, (f, s)) in sim.atoms().f().iter().zip(&serial_f).enumerate() {
            for axis in 0..3 {
                assert_close(
                    &format!("{benchmark} at {t} threads: step-0 force atom {i} axis {axis}"),
                    f[axis],
                    s[axis],
                    FORCE_REL_TOL,
                );
            }
        }

        let a = run_window(first);
        let b = run_window(build(Threads::fast(t)));
        assert_eq!(
            a.step_counts, b.step_counts,
            "{benchmark} at {t} threads: per-phase step counts differ between repeats"
        );
        assert!(
            a.x_bits == b.x_bits,
            "{benchmark} at {t} threads: positions differ between repeats"
        );
        assert!(
            a.f_bits == b.f_bits,
            "{benchmark} at {t} threads: forces differ between repeats"
        );
    }
}

#[test]
fn lj_deck_repeats_bitwise_and_matches_serial() {
    assert_contract(Benchmark::Lj);
}

#[test]
fn chain_deck_repeats_bitwise_and_matches_serial() {
    assert_contract(Benchmark::Chain);
}

#[test]
fn eam_deck_repeats_bitwise_and_matches_serial() {
    assert_contract(Benchmark::Eam);
}

#[test]
fn rhodo_deck_repeats_bitwise_and_matches_serial() {
    assert_contract(Benchmark::Rhodo);
}

#[test]
fn chute_deck_repeats_bitwise_and_matches_serial() {
    assert_contract(Benchmark::Chute);
}
