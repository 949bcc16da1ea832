//! Every copy of a lane body that [`md_core::lane_dispatch!`] compiles — one
//! per [`LaneIsa`] this host has — gives the bits of the baseline copy:
//! forces, energy and virial, serial and through [`Threaded`], on the random
//! gases of `tests/lanes_vs_scalar.rs` and on gases eight times their size.
//! The copies run the same IEEE operations in the same order (no FMA
//! contraction, lane sums fixed by `[f64; LANES]`), so any difference is a
//! codegen bug, not rounding.

use crate::eam::{density_chunk_lanes_at, force_chunk_lanes_at};
use crate::{LjCut, SuttonChenEam, Threadable, Threaded};
use md_core::kernel::{ghost_position, KernelPath, LaneIsa, LANES};
use md_core::neighbor::{NeighborList, NeighborListKind};
use md_core::{LaneAccum, LaneGather, PairStyle, PairSystem, SimBox, UnitSystem, Vec3, V3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ISAs this host can run, `Baseline` included.
fn host_isas() -> Vec<LaneIsa> {
    LaneIsa::ALL
        .into_iter()
        .filter(|isa| isa.is_available())
        .collect()
}

/// A random gas with a minimum separation and alternating types and
/// charges (`lanes_vs_scalar.rs`'s `Rig::random`), `scale`³ times the atoms
/// in a box `scale` times as wide, with a list padded to [`LANES`].
struct Rig {
    bx: SimBox,
    x: Vec<V3>,
    kinds: Vec<u32>,
    q: Vec<f64>,
    nl: NeighborList,
}

impl Rig {
    fn new(
        seed: u64,
        scale: usize,
        n: usize,
        l: f64,
        min_sep: f64,
        ntypes: u32,
        cutoff: f64,
    ) -> Rig {
        let (n, l) = (n * scale.pow(3), l * scale as f64);
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
        let mut nl = NeighborList::new(cutoff, 0.3, NeighborListKind::Half);
        nl.set_padding(LANES).unwrap();
        nl.build(&x, &bx).expect("valid geometry");
        Rig {
            bx,
            x,
            kinds,
            q,
            nl,
        }
    }

    fn with_sys<R>(&self, body: impl FnOnce(&PairSystem<'_>) -> R) -> R {
        let n = self.x.len();
        let v = vec![Vec3::zero(); n];
        let radius = vec![0.0; n];
        let masses = vec![1.0; 4];
        let units = UnitSystem::real();
        body(&PairSystem {
            bx: &self.bx,
            x: &self.x,
            v: &v,
            kinds: &self.kinds,
            charge: &self.q,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 1.0,
        })
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|e| e.to_bits()).collect()
}

/// Forces, energy and virial of one lanes compute, as bits.
type Bits = (Vec<[u64; 3]>, u64, u64);

fn lanes_compute(rig: &Rig, style: &mut dyn PairStyle) -> Bits {
    style.set_kernel_path(KernelPath::Lanes);
    assert_eq!(style.kernel_path(), KernelPath::Lanes);
    let mut f = vec![Vec3::zero(); rig.x.len()];
    let e = rig.with_sys(|sys| style.compute(sys, &rig.nl, &mut f));
    let f = f
        .iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect();
    (f, e.energy().to_bits(), e.virial.to_bits())
}

/// `make(isa)` run serially and on `threads` workers equals `make(Baseline)`
/// bit for bit, at every ISA the host has.
fn assert_isas_agree<P: Threadable>(rig: &Rig, make: impl Fn(LaneIsa) -> P, threads: usize) {
    let serial = lanes_compute(rig, &mut make(LaneIsa::Baseline));
    let team = |isa| Threaded::new(make(isa), threads).expect("at least one thread");
    let chunked = lanes_compute(rig, &mut team(LaneIsa::Baseline));
    for isa in host_isas() {
        assert!(lanes_compute(rig, &mut make(isa)) == serial, "{isa} serial");
        assert!(
            lanes_compute(rig, &mut team(isa)) == chunked,
            "{isa} on {threads} threads"
        );
    }
}

/// EAM's two lane passes one at a time at `isa`: pass 1's pair energy and
/// densities, then pass 2's virial and split-array forces.
fn eam_passes(rig: &Rig, isa: LaneIsa) -> (u64, Vec<u64>, u64, [Vec<u64>; 3]) {
    let eam = SuttonChenEam::copper();
    let n = rig.x.len();
    rig.with_sys(|sys| {
        let mut g = LaneGather::default();
        g.load(sys.x, ghost_position(sys.bx));
        let mut rho = vec![0.0; n + 1];
        let e_pair = density_chunk_lanes_at(isa, &eam, sys, &rig.nl, 0..n, &mut rho, &g);
        let mut dembed = vec![0.0; n + 1];
        eam.embed_slice(&rho[..n], &mut dembed[..n]);
        let mut acc = LaneAccum::default();
        acc.reset(n);
        let virial = force_chunk_lanes_at(isa, &eam, sys, &rig.nl, 0..n, &dembed, &g, &mut acc);
        (
            e_pair.to_bits(),
            bits(&rho),
            virial.to_bits(),
            [bits(&acc.fx), bits(&acc.fy), bits(&acc.fz)],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-type LJ: the const-specialized lane body.
    #[test]
    fn lj_single_type_dispatch_is_bitwise_baseline(
        seed in 0u64..500,
        threads in 2usize..6,
        scale in 1usize..3,
    ) {
        let rig = Rig::new(seed, scale, 24, 9.5, 0.8, 1, 2.5);
        let lj = |isa| {
            LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap().with_lane_isa(isa)
        };
        assert_isas_agree(&rig, lj, threads);
    }

    /// Multi-type LJ: the per-lane coefficient gather.
    #[test]
    fn lj_multi_type_dispatch_is_bitwise_baseline(
        seed in 0u64..500,
        threads in 2usize..6,
        scale in 1usize..3,
    ) {
        let rig = Rig::new(seed, scale, 28, 10.5, 0.8, 2, 2.8);
        let lj = |isa| {
            LjCut::new(2, &[(0, 0, 1.0, 1.0), (1, 1, 0.7, 1.1)], 2.8)
                .unwrap()
                .with_lane_isa(isa)
        };
        assert_isas_agree(&rig, lj, threads);
    }

    /// EAM: each pass on its own, then both through `compute`, serial and
    /// threaded.
    #[test]
    fn eam_dispatch_is_bitwise_baseline(
        seed in 0u64..300,
        threads in 2usize..6,
        scale in 1usize..3,
    ) {
        let rig = Rig::new(seed, scale, 18, 13.0, 1.9, 1, 4.95);
        let want = eam_passes(&rig, LaneIsa::Baseline);
        for isa in host_isas() {
            prop_assert!(eam_passes(&rig, isa) == want, "{} passes", isa);
        }
        let eam = |isa| SuttonChenEam::copper().with_lane_isa(isa);
        assert_isas_agree(&rig, eam, threads);
    }
}
