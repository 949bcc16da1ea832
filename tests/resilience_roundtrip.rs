//! Checkpoint/restart fidelity: a run that is checkpointed, torn down, and
//! restored must continue **bitwise identically** to one that was never
//! interrupted — positions, velocities, forces, images, step counter, and
//! thermo history. Every deck exercises its own state surface (Langevin
//! RNG streams, Nose-Hoover/barostat internals, granular contact history,
//! PPPM accumulators, neighbor rebuild schedule), so all five run here, in
//! deterministic mode at 1 and 4 threads.
//!
//! A checkpoint holds no neighbor rows: the restore rebuilds them from the
//! positions and the box of the last build. The tuned cases below cover
//! what that rebuild depends on and deterministic mode pins away — padded
//! rows for the lanes kernels, a Morton-sorted atom order, a threaded build,
//! a box that has moved on since the build (NPT), a full list — with the
//! tuning taken from the checkpoint header, not from the environment.
//!
//! Corruption tests ride along: a checkpoint with any flipped byte or any
//! truncation must be rejected with a typed error, never restored or
//! panicked on.

use md_core::{KernelPath, NeighborListKind, Threads, LANES};
use md_resilience::Checkpoint;
use md_workloads::{build_deck_tuned, build_deck_with, Benchmark, Deck, DeckTuning};

const SEED: u64 = 2022;

/// Steps before the checkpoint / after it. Rhodo is ~11x an LJ step in
/// debug builds, so its window is shorter but still crosses neighbor
/// rebuilds and thermo samples.
fn windows(benchmark: Benchmark) -> (u64, u64) {
    match benchmark {
        Benchmark::Rhodo => (4, 4),
        _ => (15, 20),
    }
}

struct Fingerprint {
    x_bits: Vec<u64>,
    v_bits: Vec<u64>,
    f_bits: Vec<u64>,
    images: Vec<[i32; 3]>,
    step: u64,
    thermo_rows: usize,
}

fn fingerprint(deck: &Deck) -> Fingerprint {
    let atoms = deck.simulation.atoms();
    let bits = |v: &[md_core::V3]| -> Vec<u64> {
        v.iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    };
    Fingerprint {
        x_bits: bits(atoms.x()),
        v_bits: bits(atoms.v()),
        f_bits: bits(atoms.f()),
        images: atoms.images().to_vec(),
        step: deck.simulation.step_index(),
        thermo_rows: deck.simulation.thermo_log().len(),
    }
}

fn assert_identical(uninterrupted: &Fingerprint, resumed: &Fingerprint, label: &str) {
    assert_eq!(uninterrupted.step, resumed.step, "{label}: step");
    assert_eq!(
        uninterrupted.thermo_rows, resumed.thermo_rows,
        "{label}: thermo rows"
    );
    assert_eq!(uninterrupted.x_bits, resumed.x_bits, "{label}: positions");
    assert_eq!(uninterrupted.v_bits, resumed.v_bits, "{label}: velocities");
    assert_eq!(uninterrupted.f_bits, resumed.f_bits, "{label}: forces");
    assert_eq!(uninterrupted.images, resumed.images, "{label}: images");
}

/// Run `k1` steps, checkpoint through the full encode/decode byte path,
/// restore into a freshly built deck, run `k2` more on both — compare.
fn roundtrip(benchmark: Benchmark, threads: Threads) {
    let (k1, k2) = windows(benchmark);
    let original = build_deck_with(benchmark, 1, SEED, threads).expect("deck builds");
    let ckpt = roundtrip_from(original, k1, k2, |_| {});
    assert_eq!(ckpt.header.threads, threads);
}

/// The body of [`roundtrip`] on a deck built by the caller; `at_checkpoint`
/// sees the deck at the step the checkpoint is taken, to assert that the
/// case covers what it is there for. Returns the decoded checkpoint.
fn roundtrip_from(
    mut original: Deck,
    k1: u64,
    k2: u64,
    at_checkpoint: impl Fn(&Deck),
) -> Checkpoint {
    let benchmark = original.benchmark;
    let label = format!("{benchmark} x{}", original.simulation.threads().count);

    original.simulation.run(k1).expect("pre-checkpoint run");
    at_checkpoint(&original);
    let bytes = Checkpoint::capture(&original, SEED).encode();

    // The uninterrupted arm keeps going on the same simulation object.
    original.simulation.run(k2).expect("uninterrupted run");
    let reference = fingerprint(&original);

    // The resumed arm decodes the bytes as a restart would (fresh process:
    // nothing shared with `original` but the byte blob).
    let ckpt = Checkpoint::decode(&bytes).expect("checkpoint decodes");
    assert_eq!(ckpt.header.step, k1);
    assert_eq!(ckpt.header.benchmark, benchmark);
    let mut resumed = ckpt.restore().expect("checkpoint restores");
    assert_eq!(resumed.simulation.step_index(), k1, "{label}: resume step");
    resumed.simulation.run(k2).expect("resumed run");

    assert_identical(&reference, &fingerprint(&resumed), &label);
    assert_eq!(
        original.simulation.neighbor_list().map(|nl| nl.stats()),
        resumed.simulation.neighbor_list().map(|nl| nl.stats()),
        "{label}: neighbor statistics"
    );
    ckpt
}

macro_rules! roundtrip_tests {
    ($($name:ident: $bench:expr, $threads:expr;)*) => {$(
        #[test]
        fn $name() {
            roundtrip($bench, Threads::deterministic($threads));
        }
    )*}
}

roundtrip_tests! {
    lj_roundtrips_serial: Benchmark::Lj, 1;
    lj_roundtrips_threaded: Benchmark::Lj, 4;
    chain_roundtrips_serial: Benchmark::Chain, 1;
    chain_roundtrips_threaded: Benchmark::Chain, 4;
    eam_roundtrips_serial: Benchmark::Eam, 1;
    eam_roundtrips_threaded: Benchmark::Eam, 4;
    chute_roundtrips_serial: Benchmark::Chute, 1;
    chute_roundtrips_threaded: Benchmark::Chute, 4;
    rhodo_roundtrips_serial: Benchmark::Rhodo, 1;
    rhodo_roundtrips_threaded: Benchmark::Rhodo, 4;
}

/// The tuned path end to end: two fast-mode threads, the lanes kernel over
/// sentinel-padded rows, and a Morton sort before the checkpoint, so the
/// restore has to permute the fresh deck's atoms before it rebuilds the
/// list. `MD_KERNEL` / `MD_SORT_EVERY` are unset here, so a restore that
/// took the kernel or the cadence from the environment would resume on the
/// scalar kernel without sorting, and diverge.
fn tuned_roundtrip(benchmark: Benchmark) {
    let tuning = DeckTuning {
        threads: Threads::fast(2),
        kernel: KernelPath::Lanes,
        sort_every: 7,
    };
    let original = build_deck_tuned(benchmark, 1, SEED, tuning).expect("deck builds");
    let ckpt = roundtrip_from(original, 25, 20, |deck| {
        let sim = &deck.simulation;
        assert!(sim.sorts_performed() >= 1, "no sort before the checkpoint");
        assert_eq!(sim.neighbor_list().expect("pair deck").padding(), LANES);
    });
    assert_eq!(ckpt.header.threads, tuning.threads);
    assert_eq!(ckpt.header.kernel, KernelPath::Lanes);
    assert_eq!(ckpt.header.sort_every, 7);
}

#[test]
fn lj_roundtrips_tuned() {
    tuned_roundtrip(Benchmark::Lj);
}

#[test]
fn eam_roundtrips_tuned() {
    tuned_roundtrip(Benchmark::Eam);
}

/// Under NPT the box moves every step while the list keeps the rows of the
/// box it was built in: the restore has to rebuild in that box, not in the
/// current one.
#[test]
fn rhodo_roundtrips_after_the_box_left_the_build_box() {
    let tuning = DeckTuning {
        threads: Threads::fast(2),
        kernel: KernelPath::Lanes,
        sort_every: 0,
    };
    let original = build_deck_tuned(Benchmark::Rhodo, 1, SEED, tuning).expect("deck builds");
    roundtrip_from(original, 4, 4, |deck| {
        let sim = &deck.simulation;
        let built_in = sim.neighbor_list().expect("pair deck").box_at_build();
        assert_ne!(built_in, Some(*sim.sim_box()), "the box did not move");
    });
}

/// Chute: a full list, contact history keyed by atom index, and a pair
/// style that vetoes the sort — the header records the cadence the
/// simulation runs with (none), not the one asked for.
#[test]
fn chute_roundtrips_fast_mode() {
    let tuning = DeckTuning {
        threads: Threads::fast(2),
        kernel: KernelPath::Scalar,
        sort_every: 7,
    };
    let original = build_deck_tuned(Benchmark::Chute, 1, SEED, tuning).expect("deck builds");
    let ckpt = roundtrip_from(original, 15, 20, |deck| {
        let nl = deck.simulation.neighbor_list().expect("pair deck");
        assert_eq!(nl.kind(), NeighborListKind::Full);
    });
    assert_eq!(ckpt.header.sort_every, 0);
}

#[test]
fn corrupted_checkpoints_are_rejected() {
    let mut deck =
        build_deck_with(Benchmark::Lj, 1, SEED, Threads::deterministic(1)).expect("deck builds");
    deck.simulation.run(5).expect("runs");
    let good = Checkpoint::capture(&deck, SEED).encode();
    assert!(Checkpoint::decode(&good).is_ok(), "control");

    // Every single-byte corruption must be caught (CRC covers the body,
    // explicit checks cover magic and the CRC trailer itself).
    let stride = (good.len() / 97).max(1);
    for i in (0..good.len()).step_by(stride) {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        assert!(
            Checkpoint::decode(&bad).is_err(),
            "flipped byte {i} of {} went undetected",
            good.len()
        );
    }

    // Every truncation must be caught without panicking.
    for cut in (0..good.len()).step_by(stride) {
        assert!(
            Checkpoint::decode(&good[..cut]).is_err(),
            "truncation to {cut} bytes went undetected"
        );
    }
}

#[test]
fn restored_state_cannot_cross_decks() {
    let mut lj = build_deck_with(Benchmark::Lj, 1, SEED, Threads::deterministic(1)).unwrap();
    lj.simulation.run(3).unwrap();
    let mut ckpt = Checkpoint::capture(&lj, SEED);
    // Forge the header onto a structurally different deck (Chain carries a
    // Langevin fix; LJ carries none): the fix-count guard must reject the
    // blob with a typed error rather than overlay mismatched state.
    ckpt.header.benchmark = Benchmark::Chain;
    assert!(ckpt.restore().is_err());
}
