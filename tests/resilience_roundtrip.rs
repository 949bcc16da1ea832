//! Checkpoint/restart fidelity: a run that is checkpointed, torn down, and
//! restored must continue **bitwise identically** to one that was never
//! interrupted — positions, velocities, forces, images, step counter, and
//! thermo history. Every deck exercises its own state surface (Langevin
//! RNG streams, Nose-Hoover/barostat internals, granular contact history,
//! PPPM accumulators, neighbor rebuild schedule and the list's age), so all
//! five run here, serial (the unwrapped pair styles) and on 4 threads (the
//! `Threaded` chunk path).
//!
//! A checkpoint holds no neighbor rows: the restore rebuilds them from the
//! positions and the box of the last build. The tuned cases below cover
//! what that rebuild depends on beyond the default tuning — padded rows for
//! the lanes kernels, a Morton-sorted atom order, a threaded build, a box
//! that has moved on since the build (NPT), a full list — with the tuning
//! taken from the checkpoint header, not from the environment.
//!
//! Corruption tests ride along: a checkpoint with any flipped byte or any
//! truncation must be rejected with a typed error, never restored or
//! panicked on.

use md_core::{KernelPath, NeighborListKind, Threads, LANES};
use md_observe::{ObserveConfig, Recorder};
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
    let (ckpt, _) = roundtrip_from(original, k1, k2, |_| {});
    assert_eq!(ckpt.header.threads, threads);
}

/// The body of [`roundtrip`] on a deck built by the caller; `at_checkpoint`
/// sees the deck at the step the checkpoint is taken, to assert that the
/// case covers what it is there for. Returns the decoded checkpoint and the
/// resumed deck.
fn roundtrip_from(
    mut original: Deck,
    k1: u64,
    k2: u64,
    at_checkpoint: impl Fn(&Deck),
) -> (Checkpoint, Deck) {
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
    assert_eq!(
        original.simulation.neighbor_list().map(|nl| nl.ago()),
        resumed.simulation.neighbor_list().map(|nl| nl.ago()),
        "{label}: steps since the last build"
    );
    (ckpt, resumed)
}

macro_rules! roundtrip_tests {
    ($($name:ident: $bench:expr, $threads:expr;)*) => {$(
        #[test]
        fn $name() {
            roundtrip($bench, $threads);
        }
    )*}
}

roundtrip_tests! {
    lj_roundtrips_serial: Benchmark::Lj, Threads::serial();
    lj_roundtrips_threaded: Benchmark::Lj, Threads::fast(4);
    chain_roundtrips_serial: Benchmark::Chain, Threads::serial();
    chain_roundtrips_threaded: Benchmark::Chain, Threads::fast(4);
    eam_roundtrips_serial: Benchmark::Eam, Threads::serial();
    eam_roundtrips_threaded: Benchmark::Eam, Threads::fast(4);
    chute_roundtrips_serial: Benchmark::Chute, Threads::serial();
    chute_roundtrips_threaded: Benchmark::Chute, Threads::fast(4);
    rhodo_roundtrips_serial: Benchmark::Rhodo, Threads::serial();
    rhodo_roundtrips_threaded: Benchmark::Rhodo, Threads::fast(4);
}

/// The tuned path end to end: two threads, the lanes kernel over
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
    let (ckpt, _) = roundtrip_from(original, 25, 20, |deck| {
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

/// Chute: a full list, contact history aligned with its rows and matched
/// to them by atom index, and a pair style that vetoes the sort — the
/// header records the cadence the simulation runs with (none), not the one
/// asked for.
#[test]
fn chute_roundtrips_fast_mode() {
    let tuning = DeckTuning {
        threads: Threads::fast(2),
        kernel: KernelPath::Scalar,
        sort_every: 7,
    };
    let original = build_deck_tuned(Benchmark::Chute, 1, SEED, tuning).expect("deck builds");
    let (ckpt, _) = roundtrip_from(original, 15, 20, |deck| {
        let nl = deck.simulation.neighbor_list().expect("pair deck");
        assert_eq!(nl.kind(), NeighborListKind::Full);
    });
    assert_eq!(ckpt.header.sort_every, 0);
}

/// A restore hands chute's contact history over as saved triples, which
/// the first resumed step aligns with the rebuilt rows. The resumed leg
/// here also crosses a neighbor rebuild (chute rebuilds about once per 100
/// steps; this seed's first rebuild falls between steps 260 and 280), so
/// the history is carried over to new rows a second time.
#[test]
fn chute_roundtrips_across_a_rebuild() {
    let original =
        build_deck_with(Benchmark::Chute, 1, SEED, Threads::serial()).expect("deck builds");
    let builds = |deck: &Deck| {
        let nl = deck.simulation.neighbor_list().expect("pair deck");
        nl.stats().builds
    };
    let at_checkpoint = std::cell::Cell::new(0);
    let (_, resumed) = roundtrip_from(original, 250, 40, |deck| at_checkpoint.set(builds(deck)));
    assert!(
        builds(&resumed) > at_checkpoint.get(),
        "no rebuild after the checkpoint ({} builds)",
        builds(&resumed)
    );
}

/// LJ rebuilds every 20 steps with no displacement check, so its schedule
/// lives in the list's age alone: checkpointed at step 30, mid-cycle, the
/// resumed run must build at step 40 as the uninterrupted one does, not 20
/// steps after the restore.
#[test]
fn lj_roundtrips_mid_cadence_across_a_build() {
    let original = build_deck_with(Benchmark::Lj, 1, SEED, Threads::serial()).expect("deck builds");
    let (_, resumed) = roundtrip_from(original, 30, 15, |deck| {
        let nl = deck.simulation.neighbor_list().expect("pair deck");
        assert_eq!((nl.stats().builds, nl.ago()), (2, 10), "not mid-cycle");
    });
    let nl = resumed.simulation.neighbor_list().expect("pair deck");
    assert_eq!((nl.stats().builds, nl.ago()), (3, 5), "no build at step 40");
}

#[test]
fn corrupted_checkpoints_are_rejected() {
    let mut deck = build_deck_with(Benchmark::Lj, 1, SEED, Threads::serial()).expect("deck builds");
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
    let mut lj = build_deck_with(Benchmark::Lj, 1, SEED, Threads::serial()).unwrap();
    lj.simulation.run(3).unwrap();
    let mut ckpt = Checkpoint::capture(&lj, SEED);
    // Forge the header onto a structurally different deck (Chain carries a
    // Langevin fix; LJ carries none): the fix-count guard must reject the
    // blob with a typed error rather than overlay mismatched state.
    ckpt.header.benchmark = Benchmark::Chain;
    assert!(ckpt.restore().is_err());
}

/// A checkpoint holds the run, not its observer: the same deck run with and
/// without an enabled recorder saves the same bytes (energy-drift reference,
/// last rebuild step and all), apart from the task ledger's wall-clock
/// seconds, which are cut out of both blobs before comparing.
#[test]
fn save_state_does_not_depend_on_a_recorder() {
    let state = |observed: bool| {
        let mut deck =
            build_deck_with(Benchmark::Lj, 1, SEED, Threads::serial()).expect("deck builds");
        if observed {
            deck.simulation
                .set_recorder(Recorder::new(ObserveConfig::default()));
        }
        // Through LJ's first thermo sample (step 100) and its builds at 20, 40, ...
        deck.simulation.run(100).expect("runs");
        let sampled = deck.simulation.thermo_log().last().map(|row| row.step);
        assert_eq!(sampled, Some(100));
        let mut w = md_core::wire::Writer::new();
        deck.simulation.ledger().state_save(&mut w);
        let ledger = w.into_bytes();
        let mut blob = deck.simulation.save_state();
        let at = blob
            .windows(ledger.len())
            .position(|b| b == ledger.as_slice())
            .expect("the ledger's bytes are in the state");
        blob.drain(at..at + ledger.len());
        (at, blob)
    };
    // Not assert_eq!: a failure would print two 3.5 MB blobs.
    assert!(
        state(false) == state(true),
        "save_state moved with a recorder"
    );
}
