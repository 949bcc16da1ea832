//! An oracle for the state decoders: `Simulation::load_state` and
//! `NeighborList::state_load` take bytes that no checksum covers (the
//! in-memory snapshot of the recovery ladder is the raw blob), so every
//! damaged input has to end in a typed error or a load — never a panic, and
//! never an allocation out of proportion to the blob. Exhaustive over a blob
//! small enough to try every truncation and every byte.
//!
//! A counting global allocator records the largest single request, the way
//! `neighbor_alloc.rs` counts calls: `wire::Reader` bounds every length
//! prefix by the bytes that are left, and the neighbor rebuild — the one
//! place a decoded *value* (the saved box) sizes an allocation — has to keep
//! to the same proportion.

use md_core::force::{EnergyVirial, PairStyle, PairSystem};
use md_core::neighbor::{NeighborList, NeighborListKind};
use md_core::wire::{Reader, Writer};
use md_core::{AtomStore, CoreError, Langevin, SimBox, Simulation, Threads, UnitSystem, Vec3, V3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

struct PeakAlloc;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The tests of this file run one at a time: the largest request is a
/// process-wide reading, and building a simulation asks for more than any
/// load does.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The largest single allocation request made while `body` ran.
fn largest_request_of<T>(body: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    let out = body();
    (out, LARGEST_REQUEST.load(Ordering::Relaxed))
}

/// No request of a damaged load may exceed this many times the blob's
/// length. A clean load of the systems below asks for a fifth of it at most;
/// a grid sized by a damaged box would ask for gigabytes.
const ALLOC_FACTOR: usize = 4;

/// The byte values XORed into each position: the lowest bit, the highest
/// (sign and exponent of the floats, the top of every little-endian count)
/// and all of them.
const FLIPS: [u8; 3] = [0x01, 0x80, 0xFF];

/// Soft repulsion `k (1 - r/rc)` through the neighbor list.
struct Soft;

impl PairStyle for Soft {
    fn name(&self) -> &'static str {
        "soft"
    }

    fn cutoff(&self) -> f64 {
        1.5
    }

    fn compute(&mut self, sys: &PairSystem<'_>, nl: &NeighborList, f: &mut [V3]) -> EnergyVirial {
        let mut e = 0.0;
        for i in 0..sys.x.len() {
            for &j in nl.neighbors(i) {
                let d = sys.bx.min_image(sys.x[i], sys.x[j as usize]);
                let r = d.norm();
                if r < 1.5 && r > 0.0 {
                    let push = d * (10.0 * (1.0 - r / 1.5) / r);
                    f[i] += push;
                    f[j as usize] -= push;
                    e += 5.0 * 1.5 * (1.0 - r / 1.5) * (1.0 - r / 1.5);
                }
            }
        }
        EnergyVirial {
            evdwl: e,
            ecoul: 0.0,
            virial: 0.0,
        }
    }
}

/// 4 x 4 x 4 atoms on a jittered lattice, bonded in pairs (so the list is
/// built with exclusions), with a Langevin fix (so a fix sub-blob with an
/// RNG stream is in the state) and a threaded neighbor build.
fn tiny_simulation() -> Simulation {
    let mut atoms = AtomStore::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut jitter = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.6
    };
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                let x = Vec3::new(
                    2.0 * i as f64 + 1.0 + jitter(),
                    2.0 * j as f64 + 1.0 + jitter(),
                    2.0 * k as f64 + 1.0 + jitter(),
                );
                atoms.push(x, Vec3::new(jitter(), jitter(), jitter()), 0);
            }
        }
    }
    atoms.set_masses(vec![1.0]);
    for i in (0..64).step_by(2) {
        atoms.add_bond(0, i, i + 1);
    }
    atoms.build_exclusions(true, false, false);
    Simulation::builder(SimBox::cubic(8.0), atoms, UnitSystem::lj())
        .pair(Box::new(Soft))
        .fix(Box::new(
            Langevin::new(1.0, 1.0, 7).expect("valid thermostat"),
        ))
        .dt(0.005)
        .skin(0.3)
        .thermo_every(5)
        .threads(Threads::fast(2))
        .build()
        .expect("tiny simulation builds")
}

/// The state blob of [`tiny_simulation`] after enough steps that the atoms
/// have left the positions of the last build.
fn simulation_blob() -> Vec<u8> {
    let mut sim = tiny_simulation();
    sim.run(20).expect("runs");
    let nl = sim.neighbor_list().expect("pair style configured");
    assert!(!nl.is_empty() && sim.atoms().exclusion_count() > 0);
    sim.save_state()
}

fn is_corrupt_state<T>(r: &Result<T, CoreError>) -> bool {
    matches!(r, Err(CoreError::CorruptState { .. }))
}

/// Loads `bytes` into a fresh [`tiny_simulation`].
fn load_simulation(bytes: &[u8]) -> Result<Simulation, CoreError> {
    let mut sim = tiny_simulation();
    sim.load_state(bytes).map(|()| sim)
}

/// The exclusions of the list-level cases: atom `2k` and `2k + 1` exclude
/// each other.
fn partner(i: usize) -> [u32; 1] {
    [(i ^ 1) as u32]
}

/// A list built over 64 atoms with exclusions, and its state sub-blob.
fn list_blob(partners: &[[u32; 1]]) -> (NeighborList, Vec<u8>) {
    let sim = tiny_simulation();
    let mut nl = NeighborList::new(1.5, 0.3, NeighborListKind::Full);
    nl.build_with(sim.atoms().x(), sim.sim_box(), |i| &partners[i])
        .expect("list builds");
    let mut w = Writer::new();
    nl.state_save(&mut w);
    (nl, w.into_bytes())
}

/// Loads `bytes` into a fresh padded list.
fn load_list(bytes: &[u8], partners: &[[u32; 1]]) -> Result<NeighborList, CoreError> {
    let mut nl = NeighborList::new(1.5, 0.3, NeighborListKind::Full);
    nl.set_padding(8).unwrap();
    let mut r = Reader::new(bytes, "neighbor list");
    nl.state_load(&mut r, partners.len(), |i| &partners[i])?;
    r.expect_exhausted()?;
    Ok(nl)
}

#[test]
fn clean_blobs_load() {
    let _serial = one_at_a_time();
    let blob = simulation_blob();
    let mut resumed = load_simulation(&blob).expect("clean blob loads");
    assert_eq!(resumed.save_state(), blob, "a load changes no saved byte");
    resumed.run(5).expect("resumed run steps");

    let partners: Vec<[u32; 1]> = (0..64).map(partner).collect();
    let (nl, blob) = list_blob(&partners);
    let restored = load_list(&blob, &partners).expect("clean sub-blob loads");
    assert_eq!(restored.stats(), nl.stats());
    assert_eq!(restored.ago(), nl.ago());
    for i in 0..64 {
        assert_eq!(restored.neighbors(i), nl.neighbors(i), "row {i}");
    }
}

#[test]
fn every_truncation_is_corrupt_state() {
    let _serial = one_at_a_time();
    let blob = simulation_blob();
    for cut in 0..blob.len() {
        let r = load_simulation(&blob[..cut]);
        assert!(is_corrupt_state(&r), "simulation blob cut to {cut}: {r:?}");
    }
    let partners: Vec<[u32; 1]> = (0..64).map(partner).collect();
    let (_, blob) = list_blob(&partners);
    for cut in 0..blob.len() {
        let r = load_list(&blob[..cut], &partners).map(|nl| nl.stats());
        assert!(is_corrupt_state(&r), "list sub-blob cut to {cut}: {r:?}");
    }
}

#[test]
fn no_single_byte_flip_panics_or_allocates_out_of_proportion() {
    let _serial = one_at_a_time();
    let partners: Vec<[u32; 1]> = (0..64).map(partner).collect();
    let sim_blob = simulation_blob();
    let (_, nl_blob) = list_blob(&partners);
    let mut loaded = 0usize;
    let mut rejected = 0usize;
    for (blob, is_list) in [(&sim_blob, false), (&nl_blob, true)] {
        let bound = ALLOC_FACTOR * blob.len();
        let mut bad = blob.clone();
        for pos in 0..blob.len() {
            for flip in FLIPS {
                bad[pos] ^= flip;
                // A flip the blob cannot detect (a position bit, a counter)
                // may load; a load or a typed error are both fine. Building
                // the simulation a blob loads into asks for more than any
                // load does, so it stays outside the measurement.
                let (ok, largest) = if is_list {
                    largest_request_of(|| load_list(&bad, &partners).is_ok())
                } else {
                    let mut sim = tiny_simulation();
                    largest_request_of(|| sim.load_state(&bad).is_ok())
                };
                assert!(
                    largest <= bound,
                    "byte {pos} ^ {flip:#04x}: a {largest}-byte request for a {}-byte blob",
                    blob.len()
                );
                loaded += ok as usize;
                rejected += !ok as usize;
                bad[pos] ^= flip;
            }
        }
    }
    // Both outcomes occur: the damage is neither always fatal nor ignored.
    assert!(
        loaded > 0 && rejected > 0,
        "{loaded} loaded, {rejected} rejected"
    );
}

#[test]
fn a_list_other_than_the_recorded_one_is_rejected() {
    let _serial = one_at_a_time();
    let partners: Vec<[u32; 1]> = (0..64).map(partner).collect();
    let (nl, blob) = list_blob(&partners);
    // The blob ends in six u64 counters: builds, skipped checks, dangerous
    // builds, pairs, pairs within the cutoff, cells. Any change to the last
    // three is a list the saved inputs do not rebuild into.
    for (name, back) in [("pairs", 3), ("pairs within cutoff", 2), ("cells", 1)] {
        let field = blob.len() - back * 8;
        for byte in 0..8 {
            let mut bad = blob.clone();
            bad[field + byte] ^= 0x01;
            let r = load_list(&bad, &partners).map(|nl| nl.stats());
            assert!(is_corrupt_state(&r), "{name}, byte {byte}: {r:?}");
        }
    }
    // Inputs for another atom count, and a list saved before it was built.
    let r = load_list(&blob, &partners[..63]).map(|nl| nl.stats());
    assert!(is_corrupt_state(&r), "atom count: {r:?}");
    let mut w = Writer::new();
    NeighborList::new(1.5, 0.3, NeighborListKind::Full).state_save(&mut w);
    let r = load_list(&w.into_bytes(), &[]).map(|nl| nl.stats());
    assert!(is_corrupt_state(&r), "never built: {r:?}");
    // The same inputs with other exclusions rebuild into other rows.
    let none = vec![[u32::MAX; 1]; 64];
    let (unexcluded, _) = list_blob(&none);
    assert!(unexcluded.len() > nl.len(), "no excluded pair is in range");
    let r = load_list(&blob, &none).map(|nl| nl.stats());
    assert!(is_corrupt_state(&r), "other exclusions: {r:?}");
}
