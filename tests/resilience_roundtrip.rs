//! Checkpoint/restart fidelity: a run that is checkpointed, torn down, and
//! restored must continue **bitwise identically** to one that was never
//! interrupted — positions, velocities, forces, images, step counter, and
//! thermo history. Every deck exercises its own state surface (Langevin
//! RNG streams, Nose-Hoover/barostat internals, granular contact history,
//! PPPM accumulators, neighbor rebuild schedule), so all five run here, in
//! deterministic mode at 1 and 4 threads.
//!
//! Corruption tests ride along: a checkpoint with any flipped byte or any
//! truncation must be rejected with a typed error, never restored or
//! panicked on.

use md_core::Threads;
use md_resilience::Checkpoint;
use md_workloads::{build_deck_with, Benchmark, Deck};

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
    let label = format!("{benchmark} x{}", threads.count);
    let (k1, k2) = windows(benchmark);

    let mut original = build_deck_with(benchmark, 1, SEED, threads).expect("deck builds");
    original.simulation.run(k1).expect("pre-checkpoint run");
    let bytes = Checkpoint::capture(&original, SEED).encode();

    // The uninterrupted arm keeps going on the same simulation object.
    original.simulation.run(k2).expect("uninterrupted run");
    let reference = fingerprint(&original);

    // The resumed arm decodes the bytes as a restart would (fresh process:
    // nothing shared with `original` but the byte blob).
    let ckpt = Checkpoint::decode(&bytes).expect("checkpoint decodes");
    assert_eq!(ckpt.header.step, k1);
    assert_eq!(ckpt.header.benchmark, benchmark);
    assert_eq!(ckpt.header.threads, threads);
    let mut resumed = ckpt.restore().expect("checkpoint restores");
    assert_eq!(resumed.simulation.step_index(), k1, "{label}: resume step");
    resumed.simulation.run(k2).expect("resumed run");

    assert_identical(&reference, &fingerprint(&resumed), &label);
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
