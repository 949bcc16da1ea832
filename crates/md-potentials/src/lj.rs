//! The 12-6 Lennard-Jones pair potential with cutoff (LAMMPS `lj/cut`).
//!
//! This is the potential behind the LJ melt and Chain benchmarks. Both
//! kernels, the scalar reference and the lane-blocked path, compute in `f64`.

use crate::mixing::MixingRule;
use md_core::kernel::{
    ghost_position, lane_isa, lane_mask, lane_min_image, lane_wrap_params, KernelPath, LaneIsa,
    LANES,
};
use md_core::neighbor::NeighborList;
use md_core::{CoreError, EnergyVirial, PairStyle, PairSystem, V3};
use std::ops::Range;

/// `lj/cut` pair style.
#[derive(Debug, Clone)]
pub struct LjCut {
    ntypes: usize,
    /// Flattened per-type-pair `48 ε σ¹²` (force) table.
    lj1: Vec<f64>,
    /// Flattened per-type-pair `24 ε σ⁶` (force) table.
    lj2: Vec<f64>,
    /// Flattened per-type-pair `4 ε σ¹²` (energy) table.
    lj3: Vec<f64>,
    /// Flattened per-type-pair `4 ε σ⁶` (energy) table.
    lj4: Vec<f64>,
    cutoff: f64,
    path: KernelPath,
    /// What the lane body runs at: [`lane_isa`], or an ISA a test pins.
    isa: LaneIsa,
}

impl LjCut {
    /// Creates an `lj/cut` style for `ntypes` atom types.
    ///
    /// `coeffs` lists `(type_i, type_j, epsilon, sigma)` entries; missing
    /// cross terms are filled by `MixingRule::Geometric` (the LAMMPS `lj/cut`
    /// default) from the like-pair entries. Use [`LjCut::with_mixing`] to
    /// choose another rule.
    ///
    /// # Errors
    ///
    /// Returns an error if a like-pair entry is missing, a type index is out
    /// of range, or the cutoff is non-positive.
    pub fn new(
        ntypes: usize,
        coeffs: &[(u32, u32, f64, f64)],
        cutoff: f64,
    ) -> Result<Self, CoreError> {
        Self::with_mixing(ntypes, coeffs, cutoff, MixingRule::Geometric)
    }

    /// As [`LjCut::new`] with an explicit mixing rule for missing cross terms.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LjCut::new`].
    pub fn with_mixing(
        ntypes: usize,
        coeffs: &[(u32, u32, f64, f64)],
        cutoff: f64,
        mixing: MixingRule,
    ) -> Result<Self, CoreError> {
        if !(cutoff > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "cutoff",
                reason: format!("cutoff {cutoff} must be positive"),
            });
        }
        let mut eps = vec![None; ntypes * ntypes];
        let mut sig = vec![None; ntypes * ntypes];
        for &(i, j, e, s) in coeffs {
            let (i, j) = (i as usize, j as usize);
            if i >= ntypes || j >= ntypes {
                return Err(CoreError::UnknownAtomType {
                    atom_type: i.max(j) as u32,
                    ntypes,
                });
            }
            eps[i * ntypes + j] = Some(e);
            eps[j * ntypes + i] = Some(e);
            sig[i * ntypes + j] = Some(s);
            sig[j * ntypes + i] = Some(s);
        }
        for t in 0..ntypes {
            if eps[t * ntypes + t].is_none() {
                return Err(CoreError::InvalidParameter {
                    name: "coeffs",
                    reason: format!("missing like-pair coefficients for type {t}"),
                });
            }
        }
        let mut lj1 = vec![0.0; ntypes * ntypes];
        let mut lj2 = vec![0.0; ntypes * ntypes];
        let mut lj3 = vec![0.0; ntypes * ntypes];
        let mut lj4 = vec![0.0; ntypes * ntypes];
        for i in 0..ntypes {
            for j in 0..ntypes {
                let (e, s) = match (eps[i * ntypes + j], sig[i * ntypes + j]) {
                    (Some(e), Some(s)) => (e, s),
                    _ => mixing.mix(
                        eps[i * ntypes + i].expect("like pair set"),
                        sig[i * ntypes + i].expect("like pair set"),
                        eps[j * ntypes + j].expect("like pair set"),
                        sig[j * ntypes + j].expect("like pair set"),
                    ),
                };
                let s6 = s.powi(6);
                let s12 = s6 * s6;
                lj1[i * ntypes + j] = 48.0 * e * s12;
                lj2[i * ntypes + j] = 24.0 * e * s6;
                lj3[i * ntypes + j] = 4.0 * e * s12;
                lj4[i * ntypes + j] = 4.0 * e * s6;
            }
        }
        Ok(LjCut {
            ntypes,
            lj1,
            lj2,
            lj3,
            lj4,
            cutoff,
            path: KernelPath::default(),
            isa: lane_isa(),
        })
    }

    /// Runs the lane body at `isa` instead of the host's widest.
    #[cfg(test)]
    pub(crate) fn with_lane_isa(self, isa: LaneIsa) -> Self {
        LjCut { isa, ..self }
    }

    /// Potential energy of an isolated pair at distance `r` (for tests and
    /// reference computations).
    pub fn pair_energy(&self, ti: u32, tj: u32, r: f64) -> f64 {
        if r >= self.cutoff {
            return 0.0;
        }
        let k = ti as usize * self.ntypes + tj as usize;
        let inv6 = r.powi(-6);
        inv6 * (self.lj3[k] * inv6 - self.lj4[k])
    }

    /// Evaluates atom rows `rows` of `nl` through the configured kernel,
    /// accumulating into the **full-length** `f` (Newton's third law writes
    /// to neighbors outside the rows). The serial `compute` passes every
    /// row; [`crate::Threaded`] passes each chunk's rows with a private `f`.
    pub(crate) fn compute_rows(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        f: &mut [V3],
    ) -> EnergyVirial {
        if self.path.is_lanes() && nl.padding() != 0 && nl.padding().is_multiple_of(LANES) {
            return kernel_lanes_at(self.isa, self, sys, nl, rows, f);
        }
        self.kernel(sys, nl, rows, f)
    }

    /// Scalar reference kernel over the unpadded half-list rows.
    fn kernel(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        f: &mut [V3],
    ) -> EnergyVirial {
        let cut2 = self.cutoff * self.cutoff;
        let l = sys.bx.lengths();
        let pbc = [
            sys.bx.is_periodic(0),
            sys.bx.is_periodic(1),
            sys.bx.is_periodic(2),
        ];
        let half = 0.5;
        let mut evdwl = 0.0;
        let mut virial = 0.0;
        let nt = self.ntypes;
        for (i, row) in nl.rows(rows, false) {
            let xi = sys.x[i];
            // Hoist the type-table row base out of the inner loop; the pair
            // lookup below only adds the neighbor's type.
            let trow = sys.kinds[i] as usize * nt;
            let mut fi = V3::zero();
            for &j in row {
                let ju = j as usize;
                let mut d = xi - sys.x[ju];
                for k in 0..3 {
                    if pbc[k] {
                        let lk = l[k];
                        if d[k] > half * lk {
                            d[k] -= lk;
                        } else if d[k] < -half * lk {
                            d[k] += lk;
                        }
                    }
                }
                let r2 = d.norm2();
                if r2 >= cut2 {
                    continue;
                }
                let k = trow + sys.kinds[ju] as usize;
                let inv2 = 1.0 / r2;
                let inv6 = inv2 * inv2 * inv2;
                let fpair = inv6 * (self.lj1[k] * inv6 - self.lj2[k]) * inv2;
                let df = d * fpair;
                fi += df;
                // Newton's third law: the half list stores each pair once.
                f[ju] -= df;
                evdwl += inv6 * (self.lj3[k] * inv6 - self.lj4[k]);
                virial += r2 * fpair;
            }
            f[i] += fi;
        }
        EnergyVirial {
            evdwl,
            ecoul: 0.0,
            virial,
        }
    }

    /// Lane-blocked double-precision kernel over the padded neighbor rows.
    ///
    /// Per 8-wide block: a scalar gather of neighbor coordinates (and, with
    /// more than one atom type, type coefficients) into `[f64; LANES]`
    /// buffers, a branch-free arithmetic sub-loop the compiler autovectorizes
    /// (cutoff test via [`lane_mask`], minimum image via [`lane_min_image`],
    /// padded slots resolve to the far-away ghost), then a scalar scatter of
    /// the Newton reaction forces. Energies, virial, and the central atom's
    /// force accumulate in lane-parallel `[f64; LANES]` registers reduced
    /// once per kernel / row — a lane-strided summation order, so agreement
    /// with the scalar reference is to rounding (≲1e-12 relative), not
    /// bitwise. `SINGLE` specializes the one-atom-type decks (LJ melt,
    /// chain): the per-lane type-table gather collapses to four hoisted
    /// scalars.
    ///
    /// The LJ arithmetic is cheap enough that cache-line traffic, not FLOPs,
    /// bounds this kernel, so the gather reads and Newton scatters go
    /// straight at the engine's AoS `x`/`f` arrays (one line per neighbor,
    /// like the scalar loop) instead of split-array scratch; pad slots take
    /// a predictable `j < n` branch to the ghost.
    ///
    /// Inlined into each [`LaneIsa`] copy of `kernel_lanes_at`.
    #[inline(always)]
    fn kernel_lanes<const SINGLE: bool>(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        f: &mut [V3],
    ) -> EnergyVirial {
        let n = sys.x.len();
        let cut2 = self.cutoff * self.cutoff;
        let [(lx, hx), (ly, hy), (lz, hz)] = lane_wrap_params(sys.bx);
        let ghost = ghost_position(sys.bx);
        let LjCut {
            ntypes,
            lj1,
            lj2,
            lj3,
            lj4,
            ..
        } = self;
        let nt = *ntypes;
        let (c1, c2, c3, c4) = (lj1[0], lj2[0], lj3[0], lj4[0]);
        let mut xjb = [0.0f64; LANES];
        let mut yjb = [0.0f64; LANES];
        let mut zjb = [0.0f64; LANES];
        let mut l1b = [0.0f64; LANES];
        let mut l2b = [0.0f64; LANES];
        let mut l3b = [0.0f64; LANES];
        let mut l4b = [0.0f64; LANES];
        let mut dfx = [0.0f64; LANES];
        let mut dfy = [0.0f64; LANES];
        let mut dfz = [0.0f64; LANES];
        let mut ev = [0.0f64; LANES];
        let mut vv = [0.0f64; LANES];
        for (i, row) in nl.rows(rows, true) {
            let xi = sys.x[i].x;
            let yi = sys.x[i].y;
            let zi = sys.x[i].z;
            let base = if SINGLE {
                0
            } else {
                sys.kinds[i] as usize * nt
            };
            let lj1r = &lj1[base..base + nt];
            let lj2r = &lj2[base..base + nt];
            let lj3r = &lj3[base..base + nt];
            let lj4r = &lj4[base..base + nt];
            let mut fxv = [0.0f64; LANES];
            let mut fyv = [0.0f64; LANES];
            let mut fzv = [0.0f64; LANES];
            for block in row.chunks_exact(LANES) {
                for lane in 0..LANES {
                    let j = block[lane] as usize;
                    let (p, tj) = if j < n {
                        (sys.x[j], if SINGLE { 0 } else { sys.kinds[j] as usize })
                    } else {
                        (ghost, 0)
                    };
                    xjb[lane] = p.x;
                    yjb[lane] = p.y;
                    zjb[lane] = p.z;
                    if !SINGLE {
                        l1b[lane] = lj1r[tj];
                        l2b[lane] = lj2r[tj];
                        l3b[lane] = lj3r[tj];
                        l4b[lane] = lj4r[tj];
                    }
                }
                for lane in 0..LANES {
                    let dx = lane_min_image(xi - xjb[lane], lx, hx);
                    let dy = lane_min_image(yi - yjb[lane], ly, hy);
                    let dz = lane_min_image(zi - zjb[lane], lz, hz);
                    let r2 = dx * dx + dy * dy + dz * dz;
                    let inside = r2 < cut2;
                    let m = lane_mask(inside);
                    // Masked lanes divide by 1.0 instead of a huge r2, so no
                    // overflow/NaN can leak into the masked-to-zero result.
                    let r2s = if inside { r2 } else { 1.0 };
                    let inv2 = 1.0 / r2s;
                    let inv6 = inv2 * inv2 * inv2;
                    let (p1, p2, p3, p4) = if SINGLE {
                        (c1, c2, c3, c4)
                    } else {
                        (l1b[lane], l2b[lane], l3b[lane], l4b[lane])
                    };
                    let fpair = inv6 * (p1 * inv6 - p2) * inv2 * m;
                    let fx = dx * fpair;
                    let fy = dy * fpair;
                    let fz = dz * fpair;
                    dfx[lane] = fx;
                    dfy[lane] = fy;
                    dfz[lane] = fz;
                    fxv[lane] += fx;
                    fyv[lane] += fy;
                    fzv[lane] += fz;
                    ev[lane] += inv6 * (p3 * inv6 - p4) * m;
                    vv[lane] += r2s * fpair;
                }
                for lane in 0..LANES {
                    let j = block[lane] as usize;
                    // Newton's third law; pad slots (ghost) scatter nowhere.
                    if j < n {
                        f[j].x -= dfx[lane];
                        f[j].y -= dfy[lane];
                        f[j].z -= dfz[lane];
                    }
                }
            }
            f[i].x += fxv.iter().sum::<f64>();
            f[i].y += fyv.iter().sum::<f64>();
            f[i].z += fzv.iter().sum::<f64>();
        }
        EnergyVirial {
            evdwl: ev.iter().sum(),
            ecoul: 0.0,
            virial: vv.iter().sum(),
        }
    }
}

md_core::lane_dispatch! {
    /// [`LjCut::kernel_lanes`] compiled for `isa`; its one-type form when
    /// the style has one atom type.
    fn kernel_lanes_at(
        lj: &LjCut,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        f: &mut [V3],
    ) -> EnergyVirial {
        if lj.ntypes == 1 {
            lj.kernel_lanes::<true>(sys, nl, rows, f)
        } else {
            lj.kernel_lanes::<false>(sys, nl, rows, f)
        }
    }
}

impl PairStyle for LjCut {
    fn name(&self) -> &'static str {
        "lj/cut"
    }

    fn cutoff(&self) -> f64 {
        self.cutoff
    }

    fn compute(&mut self, sys: &PairSystem<'_>, nl: &NeighborList, f: &mut [V3]) -> EnergyVirial {
        self.compute_rows(sys, nl, 0..sys.x.len(), f)
    }

    fn set_kernel_path(&mut self, path: KernelPath) {
        self.path = path;
    }

    fn kernel_path(&self) -> KernelPath {
        self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::neighbor::{brute_force_pairs, NeighborListKind};
    use md_core::{SimBox, UnitSystem, Vec3};

    fn dimer(r: f64) -> (SimBox, Vec<V3>, NeighborList) {
        let bx = SimBox::cubic(20.0);
        let x = vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(5.0 + r, 5.0, 5.0)];
        let mut nl = NeighborList::new(2.5, 0.3, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        (bx, x, nl)
    }

    fn compute_dimer(lj: &mut LjCut, r: f64) -> (EnergyVirial, Vec<V3>) {
        let (bx, x, nl) = dimer(r);
        let v = vec![Vec3::zero(); 2];
        let kinds = vec![0u32; 2];
        let charge = vec![0.0; 2];
        let radius = vec![0.0; 2];
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
        let mut f = vec![Vec3::zero(); 2];
        let e = lj.compute(&sys, &nl, &mut f);
        (e, f)
    }

    #[test]
    fn minimum_at_two_to_one_sixth() {
        let mut lj = LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap();
        let rmin = 2.0f64.powf(1.0 / 6.0);
        let (e, f) = compute_dimer(&mut lj, rmin);
        assert!((e.evdwl - (-1.0)).abs() < 1e-12, "E(rmin) = {}", e.evdwl);
        assert!(f[0].norm() < 1e-12, "force at minimum {}", f[0]);
    }

    #[test]
    fn repulsive_inside_minimum_attractive_outside() {
        let mut lj = LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap();
        let (_, f) = compute_dimer(&mut lj, 1.0);
        assert!(f[0].x < 0.0 && f[1].x > 0.0, "should repel at r = sigma");
        let (_, f) = compute_dimer(&mut lj, 1.5);
        assert!(
            f[0].x > 0.0 && f[1].x < 0.0,
            "should attract at r = 1.5 sigma"
        );
    }

    #[test]
    fn newtons_third_law() {
        let mut lj = LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap();
        let (_, f) = compute_dimer(&mut lj, 1.2);
        assert!((f[0] + f[1]).norm() < 1e-12);
    }

    #[test]
    fn force_matches_numerical_derivative() {
        let mut lj = LjCut::new(1, &[(0, 0, 1.3, 0.9)], 2.5).unwrap();
        let r = 1.1;
        let h = 1e-6;
        let (_, f) = compute_dimer(&mut lj, r);
        let ep = lj.pair_energy(0, 0, r + h);
        let em = lj.pair_energy(0, 0, r - h);
        let dedr = (ep - em) / (2.0 * h);
        // Force on atom 1 along +x should be -dE/dr.
        assert!((f[1].x - (-dedr)).abs() < 1e-5, "{} vs {}", f[1].x, -dedr);
    }

    #[test]
    fn beyond_cutoff_is_zero() {
        let mut lj = LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap();
        let (e, f) = compute_dimer(&mut lj, 2.6);
        assert_eq!(e.evdwl, 0.0);
        assert_eq!(f[0], Vec3::zero());
    }

    #[test]
    fn mixing_fills_cross_terms() {
        let lj = LjCut::with_mixing(
            2,
            &[(0, 0, 1.0, 1.0), (1, 1, 4.0, 3.0)],
            5.0,
            MixingRule::Arithmetic,
        )
        .unwrap();
        // eps_01 = 2, sigma_01 = 2 -> E(r) = 4*2*((2/r)^12 - (2/r)^6).
        let r: f64 = 2.5;
        let want = 8.0 * ((2.0 / r).powi(12) - (2.0f64 / r).powi(6));
        assert!((lj.pair_energy(0, 1, r) - want).abs() < 1e-12);
    }

    /// Runs `check` on a 200-atom two-type periodic gas and the `lj/cut`
    /// style for it; the distinct per-type coefficients exercise the
    /// type-table lookups as well as the cutoff test.
    fn with_dense_gas(check: impl FnOnce(&PairSystem<'_>, &mut NeighborList, &mut LjCut)) {
        let bx = SimBox::cubic(9.0);
        let mut x = Vec::new();
        let mut kinds = Vec::new();
        let mut state = 0x00dd_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..200 {
            x.push(Vec3::new(9.0 * rng(), 9.0 * rng(), 9.0 * rng()));
            kinds.push((i % 2) as u32);
        }
        let mut nl = NeighborList::new(2.5, 0.3, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let v = vec![Vec3::zero(); x.len()];
        let charge = vec![0.0; x.len()];
        let radius = vec![0.0; x.len()];
        let masses = vec![1.0, 1.0];
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
        let mut lj = LjCut::new(2, &[(0, 0, 1.0, 1.0), (1, 1, 0.7, 1.1)], 2.5).unwrap();
        check(&sys, &mut nl, &mut lj);
    }

    #[test]
    fn lanes_path_matches_scalar_on_a_dense_gas() {
        with_dense_gas(|sys, nl, lj| {
            let n = sys.x.len();
            let mut f_ref = vec![Vec3::zero(); n];
            let e_ref = lj.compute(sys, nl, &mut f_ref);

            nl.set_padding(LANES).unwrap();
            lj.set_kernel_path(KernelPath::Lanes);
            assert_eq!(lj.kernel_path(), KernelPath::Lanes);
            let mut f_lanes = vec![Vec3::zero(); n];
            let e_lanes = lj.compute(sys, nl, &mut f_lanes);

            let scale = e_ref.evdwl.abs().max(1.0);
            assert!(
                (e_ref.evdwl - e_lanes.evdwl).abs() / scale < 1e-12,
                "evdwl {} vs {}",
                e_ref.evdwl,
                e_lanes.evdwl
            );
            assert!((e_ref.virial - e_lanes.virial).abs() / e_ref.virial.abs().max(1.0) < 1e-12);
            for i in 0..n {
                let d = (f_ref[i] - f_lanes[i]).norm();
                let s = f_ref[i].norm().max(1.0);
                assert!(d / s < 1e-12, "atom {i}: {} vs {}", f_ref[i], f_lanes[i]);
            }
        });
    }

    #[test]
    fn scalar_kernel_matches_a_brute_force_pair_sum() {
        with_dense_gas(|sys, nl, lj| {
            let mut f = vec![Vec3::zero(); sys.x.len()];
            let e = lj.compute(sys, nl, &mut f);

            // The like pairs of `with_dense_gas`, geometric-mixed as `LjCut::new` does.
            let (eps, sig) = ([1.0f64, 0.7], [1.0f64, 1.1]);
            let (mut evdwl, mut virial, mut virial_scale) = (0.0, 0.0, 0.0);
            for (i, j) in brute_force_pairs(sys.x, sys.bx, lj.cutoff()) {
                let (ti, tj) = (sys.kinds[i as usize], sys.kinds[j as usize]);
                let r = sys
                    .bx
                    .min_image(sys.x[i as usize], sys.x[j as usize])
                    .norm();
                evdwl += lj.pair_energy(ti, tj, r);
                // r·f = -r dE/dr for E = 4ε((σ/r)^12 - (σ/r)^6).
                let e_ij = (eps[ti as usize] * eps[tj as usize]).sqrt();
                let s6 = ((sig[ti as usize] * sig[tj as usize]).sqrt() / r).powi(6);
                let rf = 24.0 * e_ij * (2.0 * s6 * s6 - s6);
                virial += rf;
                virial_scale += rf.abs();
            }
            assert!(
                (e.evdwl - evdwl).abs() / evdwl.abs() < 1e-12,
                "evdwl {} vs brute force {evdwl}",
                e.evdwl
            );
            assert!(
                (e.virial - virial).abs() / virial_scale < 1e-12,
                "virial {} vs brute force {virial}",
                e.virial
            );
            let net = f.iter().fold(V3::zero(), |acc, &fi| acc + fi);
            let f_scale: f64 = f.iter().map(|fi| fi.norm()).sum();
            assert!(net.norm() / f_scale < 1e-10, "net force {net} on {f_scale}");
        });
    }

    #[test]
    fn rejects_missing_like_pair() {
        let err = LjCut::new(2, &[(0, 0, 1.0, 1.0)], 2.5).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_bad_cutoff() {
        assert!(LjCut::new(1, &[(0, 0, 1.0, 1.0)], 0.0).is_err());
    }
}
