//! Steady-state neighbor rebuilds must not allocate. The builder reuses the
//! CSR storage (rows padded in place, padding on) and the binning scratch
//! (cell starts, cell-sorted atom indices and packed coordinates) across
//! rebuilds once their capacity has been established, so the per-rebuild
//! cost is pure binning and row fill — no heap traffic, no allocator
//! contention under threads.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! pass over every position set the test replays the same sets and demands
//! zero allocations, padding enabled. It also tracks the heap bytes live
//! (allocated minus freed), with which the test holds a threaded list to one
//! copy of its rows: each build worker writes its rows into a page of its
//! own, and nothing is copied into a second, serial-shaped array.

use md_core::kernel::LANES;
use md_core::neighbor::{NeighborList, NeighborListKind};
use md_core::{SimBox, Vec3, V3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let grown = new_size as i64 - layout.size() as i64;
        LIVE_BYTES.fetch_add(grown, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A box and the positions in it.
type Config = (SimBox, Vec<V3>);

/// Deterministic jittered lattice of `per_side` atoms over `bx`: `phase`
/// selects one of a few fixed configurations so a warmup pass can visit
/// every set the steady-state loop will replay (capacity high-water marks are
/// then established).
fn lattice(bx: SimBox, per_side: [usize; 3], phase: u64) -> Config {
    let l = bx.lengths();
    let spacing = [
        l.x / per_side[0] as f64,
        l.y / per_side[1] as f64,
        l.z / per_side[2] as f64,
    ];
    let mut x = Vec::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_add(phase);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.2
    };
    for i in 0..per_side[0] {
        for j in 0..per_side[1] {
            for k in 0..per_side[2] {
                x.push(Vec3::new(
                    (i as f64 + 0.5) * spacing[0] + next(),
                    (j as f64 + 0.5) * spacing[1] + next(),
                    (k as f64 + 0.5) * spacing[2] + next(),
                ));
            }
        }
    }
    (bx, x)
}

/// 512 atoms in a periodic cube: 4 x 4 x 4 cells.
fn cube(phase: u64) -> Config {
    lattice(SimBox::cubic(12.0), [8, 8, 8], phase)
}

/// 480 atoms between two walls in z: 4 x 5 x 3 cells, so a different cell
/// count on every axis and a different atom and cell total than [`cube`].
fn slab(phase: u64) -> Config {
    let bx = SimBox::orthogonal(12.0, 15.0, 9.0).with_periodicity(true, true, false);
    lattice(bx, [8, 10, 6], phase)
}

// One test: the counters are global, and tests of one binary run on parallel
// threads.
#[test]
fn steady_state_rebuilds_do_not_allocate() {
    let cubes: Vec<_> = (0..4).map(cube).collect();
    let slabs: Vec<_> = (0..4).map(slab).collect();
    // One list rebuilt over both boxes in turn: the binning scratch must be
    // reused when an atom count and a cell count come back, not only when
    // they never change.
    let mixed: Vec<_> = cubes.iter().zip(&slabs).flat_map(|(c, s)| [c, s]).collect();
    let scenarios: [(&str, NeighborListKind, Vec<&Config>); 4] = [
        ("half, cube", NeighborListKind::Half, cubes.iter().collect()),
        ("full, cube", NeighborListKind::Full, cubes.iter().collect()),
        ("half, slab", NeighborListKind::Half, slabs.iter().collect()),
        ("full, cube and slab in turn", NeighborListKind::Full, mixed),
    ];
    for (name, kind, sets) in scenarios {
        let mut nl = NeighborList::new(2.5, 0.3, kind);
        // Warmup: one build per distinct configuration, padding on, so every
        // Vec inside the list reaches its high-water capacity.
        for (phase, (bx, x)) in sets.iter().enumerate() {
            nl.build(x, bx).expect("warmup build");
            if phase == 0 {
                nl.set_padding(LANES).unwrap();
            }
        }
        assert_eq!(nl.padding(), LANES);

        // Steady state: replay the same configurations. The position
        // vectors exist already, so only the rebuild itself is measured.
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..5 {
            for (bx, x) in &sets {
                nl.build(x, bx).expect("steady-state build");
            }
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocations, 0,
            "{name}: steady-state neighbor rebuilds allocated {allocations} times"
        );
    }

    threaded_lists_hold_one_copy_of_the_rows(&cubes[0], &slabs[0]);
}

/// Heap bytes held by a clone of a steady-state list built on `threads`
/// threads, padding on. A clone holds every vector at its length, so this is
/// what the list keeps without the growth slack of its vectors.
fn held_bytes(kind: NeighborListKind, threads: usize, (bx, x): &Config) -> i64 {
    let mut nl = NeighborList::new(2.5, 0.3, kind);
    nl.set_threads(threads);
    nl.set_padding(LANES).unwrap();
    for _ in 0..3 {
        nl.build(x, bx).expect("build");
    }
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let copy = nl.clone();
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    drop(copy);
    held
}

/// A list built on 2 and on 3 threads holds the bytes the 1-thread list
/// holds, up to one page record per worker: no copy of the rows beside the
/// pages the workers wrote.
fn threaded_lists_hold_one_copy_of_the_rows(cube: &Config, slab: &Config) {
    for (name, kind, config) in [
        ("half, cube", NeighborListKind::Half, cube),
        ("full, slab", NeighborListKind::Full, slab),
    ] {
        let serial = held_bytes(kind, 1, config);
        for threads in [2, 3] {
            let threaded = held_bytes(kind, threads, config);
            let slack = 64 * threads as i64;
            assert!(
                (threaded - serial).abs() <= slack,
                "{name}: a list on {threads} threads holds {threaded} B, on one {serial} B"
            );
        }
    }
}
