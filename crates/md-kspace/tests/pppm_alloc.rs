//! A steady-state `Pppm::compute` must not allocate per atom or per mesh
//! point. The per-atom B-spline bases and weights (180 B an atom), the
//! per-plane energy partials and the FFT's line and stripe buffers are
//! fields of the solver and of its `Fft3d`, sized on the first call, so
//! after a warm-up call a serial compute allocates nothing at all and a
//! threaded one only what spawning the scoped workers of its twelve forks
//! costs (four PPPM phases, four transforms of two passes each) — a small
//! constant that does not move when the atom count grows eightfold.
//!
//! The counting allocator mirrors `crates/md-potentials/tests/threaded_alloc.rs`.
//! One `#[test]` only: the counter is process-wide, so a second test running
//! beside it would be counted too.

use md_core::{KspaceStyle, SimBox, Threads, Vec3, V3};
use md_kspace::Pppm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What the 24 worker spawns of a two-thread compute may allocate, whatever
/// the atom count (196 B each with this toolchain's scoped threads).
/// The per-call `bases`/`weights` alone were 309 KiB at the smaller size
/// below.
const SPAWN_BYTES: u64 = 8 * 1024;

/// Bytes one compute call allocates after a warm-up call, on a jittered
/// simple-cubic lattice of `per_side³` alternating charges.
fn steady_state_bytes(per_side: usize, threads: Threads) -> u64 {
    let spacing = 1.5;
    let bx = SimBox::cubic(per_side as f64 * spacing);
    let mut x: Vec<V3> = Vec::new();
    for i in 0..per_side {
        for j in 0..per_side {
            for k in 0..per_side {
                let jitter = ((x.len() * 7919 % 101) as f64 / 101.0 - 0.5) * 0.2;
                x.push(Vec3::new(
                    (i as f64 + 0.5) * spacing + jitter,
                    (j as f64 + 0.5) * spacing - jitter,
                    (k as f64 + 0.5) * spacing + 0.5 * jitter,
                ));
            }
        }
    }
    let q: Vec<f64> = (0..x.len())
        .map(|i| if i % 2 == 0 { 0.4 } else { -0.4 })
        .collect();
    let mut pppm = Pppm::new(4.0, 1e-4, 5);
    pppm.set_threads(threads);
    pppm.setup(&bx, &q).expect("a charged system");
    let mut f = vec![Vec3::zero(); x.len()];
    pppm.compute(&bx, &x, &q, &mut f);
    let before = BYTES.load(Ordering::Relaxed);
    pppm.compute(&bx, &x, &q, &mut f);
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_compute_allocates_only_its_spawns() {
    // 13³ = 2197 and 26³ = 17576 atoms.
    for per_side in [13, 26] {
        let serial = steady_state_bytes(per_side, Threads::serial());
        assert_eq!(
            serial, 0,
            "{per_side}³ atoms: a serial steady-state compute allocated {serial} B"
        );
        let threaded = steady_state_bytes(per_side, Threads::fast(2));
        assert!(
            threaded <= SPAWN_BYTES,
            "{per_side}³ atoms: {threaded} B per steady-state compute on two threads"
        );
    }
}
