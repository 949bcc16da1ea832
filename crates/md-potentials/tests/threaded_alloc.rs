//! A steady-state threaded pair compute must not allocate per atom. The
//! chunks run the style's row-range kernel against the one shared neighbor
//! list into buffers `Threaded` owns and reuses, so after a warm-up call a
//! compute allocates only its job bookkeeping (a few `Vec`s of chunk-count
//! length plus what spawning the scoped workers costs) — a small constant
//! that does not move when the atom count doubles.
//!
//! The counting allocator mirrors `crates/md-core/tests/neighbor_alloc.rs`,
//! counting bytes instead of calls. One `#[test]` only: the counter is
//! process-wide, so a second test running beside it would be counted too.

use md_core::kernel::{KernelPath, LANES};
use md_core::neighbor::{NeighborList, NeighborListKind};
use md_core::{PairStyle, PairSystem, SimBox, UnitSystem, Vec3, V3};
use md_potentials::{LjCharmmCoulLong, LjCut, Threadable, Threaded};
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

/// What a steady-state compute may allocate, whatever the atom count. The
/// old per-chunk list copy and force buffers cost `2 × n × 24` B and up —
/// 24 KiB at the smaller size below.
const STEADY_STATE_BYTES: u64 = 4096;

/// Bytes one compute call allocates after a warm-up call, on a jittered
/// lattice of `8 × 8 × 8·layers` atoms in two fast-mode chunks.
fn steady_state_bytes<P: Threadable>(style: P, path: KernelPath, layers: usize) -> u64 {
    let spacing = 1.5;
    let bx = SimBox::orthogonal(8.0 * spacing, 8.0 * spacing, 8.0 * spacing * layers as f64);
    let mut x: Vec<V3> = Vec::new();
    for i in 0..8 {
        for j in 0..8 {
            for k in 0..8 * layers {
                let jitter = ((x.len() * 7919 % 101) as f64 / 101.0 - 0.5) * 0.2;
                x.push(Vec3::new(
                    (i as f64 + 0.5) * spacing + jitter,
                    (j as f64 + 0.5) * spacing - jitter,
                    (k as f64 + 0.5) * spacing + 0.5 * jitter,
                ));
            }
        }
    }
    let n = x.len();
    let mut threaded = Threaded::new(style, 2).expect("two threads");
    threaded.set_kernel_path(path);
    let mut nl = NeighborList::new(threaded.cutoff(), 0.3, NeighborListKind::Half);
    if path.is_lanes() {
        nl.set_padding(LANES);
    }
    nl.build(&x, &bx).expect("valid geometry");
    let v = vec![Vec3::zero(); n];
    let kinds = vec![0u32; n];
    let charge: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 0.4 } else { -0.4 })
        .collect();
    let radius = vec![0.0; n];
    let masses = vec![1.0];
    let units = UnitSystem::lj();
    let sys = PairSystem {
        bx: &bx,
        x: &x,
        v: &v,
        kinds: &kinds,
        charge: &charge,
        radius: &radius,
        mass_by_type: &masses,
        units: &units,
        dt: 0.005,
    };
    let mut f = vec![Vec3::zero(); n];
    threaded.compute(&sys, &nl, &mut f);
    let before = BYTES.load(Ordering::Relaxed);
    threaded.compute(&sys, &nl, &mut f);
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_threaded_compute_allocates_a_constant() {
    let lj = || LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).expect("valid lj");
    let charmm = || {
        let mut style =
            LjCharmmCoulLong::new(1, &[(0, 1.0, 1.0)], 2.0, 2.5, 2.5).expect("valid charmm");
        style.set_g_ewald(0.3);
        style
    };
    for path in [KernelPath::Scalar, KernelPath::Lanes] {
        let cases = [
            (
                "lj/cut",
                steady_state_bytes(lj(), path, 1),
                steady_state_bytes(lj(), path, 2),
            ),
            (
                "lj/charmm/coul/long",
                steady_state_bytes(charmm(), path, 1),
                steady_state_bytes(charmm(), path, 2),
            ),
        ];
        for (name, small, large) in cases {
            assert!(
                small <= STEADY_STATE_BYTES,
                "{name} {path}: {small} B per steady-state compute at 512 atoms"
            );
            assert!(
                large <= small,
                "{name} {path}: {small} B at 512 atoms grew to {large} B at 1024"
            );
        }
    }
}
