//! Property-based agreement between the lane-blocked (autovectorized) pair
//! kernels and the scalar reference. The lanes paths reorder floating-point
//! accumulation (lane-strided partial sums) but evaluate the same arithmetic
//! per pair, so forces and energies must agree to rounding — well inside
//! 1e-12 relative — on any configuration, including ones with pad slots in
//! every neighbor row, multiple atom types, and non-cubic densities. Each
//! case also runs the lanes path through `Threaded` (1..6 threads, fast or
//! deterministic): its row-range chunks read the same padded list, so they
//! must stay within 1e-10 of the serial scalar reference, and deterministic
//! mode must be bitwise thread-count invariant.

use md_core::kernel::{KernelPath, LANES};
use md_core::neighbor::NeighborList;
use md_core::{PairStyle, PairSystem, SimBox, Threads, UnitSystem, Vec3, V3};
use md_potentials::{LjCharmmCoulLong, LjCut, SuttonChenEam, Threadable, Threaded};
use proptest::prelude::*;

const REL_TOL: f64 = 1e-12;
/// Chunked reductions reassociate once more on top of the lane-strided sums.
const THREADED_REL_TOL: f64 = 1e-10;

struct Rig {
    bx: SimBox,
    x: Vec<V3>,
    kinds: Vec<u32>,
    q: Vec<f64>,
}

impl Rig {
    /// Random gas with a minimum separation (keeps r^-12 finite) and
    /// alternating atom types/charges so the multi-type lanes path runs.
    fn random(seed: u64, n: usize, l: f64, min_sep: f64, ntypes: u32) -> Rig {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let bx = SimBox::cubic(l);
        let mut x: Vec<V3> = Vec::new();
        while x.len() < n {
            let p = Vec3::new(
                rng.gen::<f64>() * l,
                rng.gen::<f64>() * l,
                rng.gen::<f64>() * l,
            );
            if x.iter().all(|&o| bx.min_image(p, o).norm() > min_sep) {
                x.push(p);
            }
        }
        let kinds = (0..n as u32).map(|i| i % ntypes).collect();
        let q = (0..n)
            .map(|i| if i % 2 == 0 { 0.35 } else { -0.35 })
            .collect();
        Rig { bx, x, kinds, q }
    }

    /// Evaluate `style` on this configuration along `path`, with the
    /// neighbor rows padded to the lane width (both paths read the same
    /// padded list; scalar skips the sentinel slots).
    fn eval(&self, style: &mut dyn PairStyle, path: KernelPath) -> (Vec<V3>, f64, f64) {
        let mut nl = NeighborList::new(style.cutoff(), 0.3, style.list_kind());
        nl.set_padding(LANES);
        nl.build(&self.x, &self.bx).expect("valid geometry");
        let n = self.x.len();
        let v = vec![Vec3::zero(); n];
        let radius = vec![0.0; n];
        let masses = vec![1.0; 4];
        let units = UnitSystem::real();
        let sys = PairSystem {
            bx: &self.bx,
            x: &self.x,
            v: &v,
            kinds: &self.kinds,
            charge: &self.q,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 1.0,
        };
        let mut f = vec![Vec3::zero(); n];
        style.set_kernel_path(path);
        let e = style.compute(&sys, &nl, &mut f);
        (f, e.energy(), e.virial)
    }
}

type Eval = (Vec<V3>, f64, f64);

fn assert_close((fs, es, vs): &Eval, (fl, el, vl): &Eval, tol: f64, what: &str) {
    assert!(
        (es - el).abs() <= tol * es.abs().max(1.0),
        "{what} energy: scalar {es} vs {el}"
    );
    assert!(
        (vs - vl).abs() <= tol * vs.abs().max(1.0),
        "{what} virial: scalar {vs} vs {vl}"
    );
    for (i, (a, b)) in fs.iter().zip(fl).enumerate() {
        for axis in 0..3 {
            let scale = a[axis].abs().max(b[axis].abs()).max(1.0);
            assert!(
                (a[axis] - b[axis]).abs() <= tol * scale,
                "{what} force atom {i} axis {axis}: scalar {} vs {}",
                a[axis],
                b[axis]
            );
        }
    }
}

fn assert_paths_agree<P: Threadable>(rig: &Rig, make: impl Fn() -> P, threads: usize, det: bool) {
    let scalar = rig.eval(&mut make(), KernelPath::Scalar);
    let lanes = rig.eval(&mut make(), KernelPath::Lanes);
    assert_close(&scalar, &lanes, REL_TOL, "lanes");
    let threaded = |mode: Threads| {
        let mut style = Threaded::with_mode(make(), mode).expect("at least one thread");
        rig.eval(&mut style, KernelPath::Lanes)
    };
    if det {
        let chunked = threaded(Threads::deterministic(threads));
        assert_close(&scalar, &chunked, THREADED_REL_TOL, "deterministic lanes");
        assert_eq!(chunked, threaded(Threads::deterministic(1)), "thread count");
    } else {
        let chunked = threaded(Threads::fast(threads));
        assert_close(&scalar, &chunked, THREADED_REL_TOL, "fast lanes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-type LJ (the const-specialized lanes kernel) on random gases.
    #[test]
    fn lj_single_type_lanes_matches_scalar(
        seed in 0u64..500,
        threads in 1usize..6,
        det in proptest::bool::ANY,
    ) {
        let rig = Rig::random(seed, 24, 9.5, 0.8, 1);
        let lj = || LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap();
        assert_paths_agree(&rig, lj, threads, det);
    }

    /// Multi-type LJ exercises the per-lane coefficient gather.
    #[test]
    fn lj_multi_type_lanes_matches_scalar(
        seed in 0u64..500,
        threads in 1usize..6,
        det in proptest::bool::ANY,
    ) {
        let rig = Rig::random(seed, 28, 10.5, 0.8, 2);
        let lj = || LjCut::new(2, &[(0, 0, 1.0, 1.0), (1, 1, 0.7, 1.1)], 2.8).unwrap();
        assert_paths_agree(&rig, lj, threads, det);
    }

    /// CHARMM LJ + real-space Ewald Coulomb, charged alternating gas.
    #[test]
    fn charmm_lanes_matches_scalar(
        seed in 0u64..300,
        threads in 1usize..6,
        det in proptest::bool::ANY,
    ) {
        let rig = Rig::random(seed, 20, 24.0, 1.5, 2);
        let charmm = || {
            let mut style =
                LjCharmmCoulLong::new(2, &[(0, 0.1, 3.0), (1, 0.15, 2.8)], 8.0, 10.0, 10.0)
                    .unwrap();
            style.set_g_ewald(0.25);
            style
        };
        assert_paths_agree(&rig, charmm, threads, det);
    }

    /// EAM: the lanes path splits density and force passes into lane blocks
    /// and rebuilds r^-n via multiply chains instead of `powi`, so this also
    /// guards the chain/powi ulp agreement.
    #[test]
    fn eam_lanes_matches_scalar(
        seed in 0u64..300,
        threads in 1usize..6,
        det in proptest::bool::ANY,
    ) {
        let rig = Rig::random(seed, 18, 13.0, 1.9, 1);
        assert_paths_agree(&rig, SuttonChenEam::copper, threads, det);
    }
}
