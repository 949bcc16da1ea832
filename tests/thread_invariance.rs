//! Thread-count invariance: in deterministic mode every parallel reduction
//! follows a fixed chunk decomposition and a fixed reduction order, so the
//! SAME trajectory must fall out of the engine no matter how many threads
//! compute it — bitwise, not approximately.
//!
//! Each benchmark deck runs for a fixed number of steps at 1, 2, and 4
//! threads (deterministic mode) and the final positions, forces, and the
//! task ledger's per-phase step counts are compared exactly. Chute's
//! granular pair style is serial by design (per-contact mutable history),
//! but its deck still exercises the threaded neighbor builds.

use md_core::Threads;
use md_workloads::{build_deck_with, Benchmark};

/// Steps per deck. Rhodopsin (PPPM + SHAKE + NPT) costs ~11× an LJ step in
/// debug builds, so it runs a shorter window that still spans several
/// neighbor rebuilds and every kernel phase.
fn steps_for(benchmark: Benchmark) -> u64 {
    match benchmark {
        Benchmark::Rhodo => 10,
        _ => 50,
    }
}

struct Fingerprint {
    x_bits: Vec<u64>,
    f_bits: Vec<u64>,
    step_counts: [u64; 8],
}

fn fingerprint(benchmark: Benchmark, threads: Threads) -> Fingerprint {
    let mut deck = build_deck_with(benchmark, 1, 2022, threads).expect("deck builds");
    deck.simulation
        .run(steps_for(benchmark))
        .expect("deck runs");
    let atoms = deck.simulation.atoms();
    let bits = |v: &[md_core::V3]| -> Vec<u64> {
        v.iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    };
    Fingerprint {
        x_bits: bits(atoms.x()),
        f_bits: bits(atoms.f()),
        step_counts: deck.simulation.ledger().step_counts(),
    }
}

fn assert_bits_eq(what: &str, t: usize, got: &[u64], want: &[u64]) {
    assert_eq!(got.len(), want.len(), "{what}: length at {t} threads");
    let diverged = got.iter().zip(want).filter(|(a, b)| a != b).count();
    if diverged > 0 {
        let first = got.iter().zip(want).position(|(a, b)| a != b).unwrap();
        panic!(
            "{what}: {diverged}/{} components diverged at {t} threads \
             (first at flat index {first}: {:#x} vs {:#x})",
            got.len(),
            got[first],
            want[first]
        );
    }
}

fn assert_thread_invariant(benchmark: Benchmark) {
    let baseline = fingerprint(benchmark, Threads::deterministic(1));
    for t in [2usize, 4] {
        let run = fingerprint(benchmark, Threads::deterministic(t));
        assert_eq!(
            run.step_counts, baseline.step_counts,
            "{benchmark}: per-phase step counts diverged at {t} threads"
        );
        assert_bits_eq(
            &format!("{benchmark} positions"),
            t,
            &run.x_bits,
            &baseline.x_bits,
        );
        assert_bits_eq(
            &format!("{benchmark} forces"),
            t,
            &run.f_bits,
            &baseline.f_bits,
        );
    }
}

#[test]
fn lj_deck_is_bitwise_thread_invariant() {
    assert_thread_invariant(Benchmark::Lj);
}

#[test]
fn chain_deck_is_bitwise_thread_invariant() {
    assert_thread_invariant(Benchmark::Chain);
}

#[test]
fn eam_deck_is_bitwise_thread_invariant() {
    assert_thread_invariant(Benchmark::Eam);
}

#[test]
fn rhodo_deck_is_bitwise_thread_invariant() {
    assert_thread_invariant(Benchmark::Rhodo);
}

#[test]
fn chute_deck_is_bitwise_thread_invariant() {
    assert_thread_invariant(Benchmark::Chute);
}
