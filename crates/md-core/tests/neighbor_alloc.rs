//! Steady-state neighbor rebuilds must not allocate. The builder reuses the
//! CSR storage (rows padded in place, padding on) across rebuilds once its
//! capacity has been established, so the per-rebuild cost is pure binning
//! and row fill — no heap traffic, no allocator contention under threads.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! pass over every position set the test replays the same sets and demands
//! zero allocations, padding enabled.

use md_core::kernel::LANES;
use md_core::neighbor::{NeighborList, NeighborListKind};
use md_core::{SimBox, Vec3, V3};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic jittered lattice: `phase` selects one of a few fixed
/// configurations so a warmup pass can visit every set the steady-state
/// loop will replay (capacity high-water marks are then established).
fn positions(phase: u64) -> (SimBox, Vec<V3>) {
    let l = 12.0;
    let bx = SimBox::cubic(l);
    let per_side = 8usize;
    let spacing = l / per_side as f64;
    let mut x = Vec::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_add(phase);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.2
    };
    for i in 0..per_side {
        for j in 0..per_side {
            for k in 0..per_side {
                x.push(Vec3::new(
                    (i as f64 + 0.5) * spacing + next(),
                    (j as f64 + 0.5) * spacing + next(),
                    (k as f64 + 0.5) * spacing + next(),
                ));
            }
        }
    }
    (bx, x)
}

#[test]
fn steady_state_rebuilds_do_not_allocate() {
    const PHASES: u64 = 4;
    let mut nl = NeighborList::new(2.5, 0.3, NeighborListKind::Half);
    // Warmup: one build per distinct configuration, padding on, so every
    // Vec inside the list reaches its high-water capacity.
    for phase in 0..PHASES {
        let (bx, x) = positions(phase);
        nl.build(&x, &bx).expect("warmup build");
        if phase == 0 {
            nl.set_padding(LANES);
        }
    }
    assert_eq!(nl.padding(), LANES);

    // Steady state: replay the same configurations. Position vectors are
    // built *before* the counted window so only the rebuild itself is
    // measured.
    let sets: Vec<(SimBox, Vec<V3>)> = (0..PHASES).map(positions).collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..5 {
        for (bx, x) in &sets {
            nl.build(x, bx).expect("steady-state build");
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "steady-state neighbor rebuilds allocated {allocations} times"
    );
}
