//! CHARMM-style Lennard-Jones with switching plus real-space long-range
//! Coulomb (LAMMPS `lj/charmm/coul/long`) — the Rhodopsin pair style.
//!
//! The LJ part switches smoothly to zero between an inner and an outer
//! cutoff; the Coulomb part is the Ewald/PPPM *real-space* term
//! `q_i q_j erfc(g r) / r`, whose reciprocal-space complement lives in
//! `md-kspace`. Cross-type LJ coefficients mix arithmetically
//! (`pair_modify mix arithmetic`, paper Table 2).

use crate::mixing::MixingRule;
use md_core::kernel::{
    ghost_position, lane_mask, lane_min_image, lane_wrap_params, KernelPath, LANES,
};
use md_core::math::erfc;
use md_core::neighbor::NeighborList;
use md_core::{
    CoreError, EnergyVirial, LaneAccum, LaneGather, PairStyle, PairSystem, PrecisionMode, Vec3, V3,
};
use std::ops::Range;

/// `lj/charmm/coul/long` pair style.
#[derive(Debug, Clone)]
pub struct LjCharmmCoulLong {
    ntypes: usize,
    lj1: Vec<f64>,
    lj2: Vec<f64>,
    lj3: Vec<f64>,
    lj4: Vec<f64>,
    inner_lj: f64,
    outer_lj: f64,
    cut_coul: f64,
    /// Ewald splitting parameter; set by the k-space solver via
    /// [`LjCharmmCoulLong::set_g_ewald`].
    g_ewald: f64,
    mode: PrecisionMode,
    path: KernelPath,
    gather: LaneGather,
    accum: LaneAccum,
}

impl LjCharmmCoulLong {
    /// Creates the style.
    ///
    /// `coeffs` lists `(type, epsilon, sigma)` like-pair entries (one per
    /// type); cross terms always mix arithmetically, per the benchmark deck.
    /// `inner_lj < outer_lj` bound the switching region (8.0–10.0 Å for
    /// Rhodopsin); `cut_coul` is the real-space Coulomb cutoff (10.0 Å).
    ///
    /// # Errors
    ///
    /// Returns an error if cutoffs are inconsistent or a type entry is
    /// missing.
    pub fn new(
        ntypes: usize,
        coeffs: &[(u32, f64, f64)],
        inner_lj: f64,
        outer_lj: f64,
        cut_coul: f64,
    ) -> Result<Self, CoreError> {
        if !(0.0 < inner_lj && inner_lj < outer_lj) {
            return Err(CoreError::InvalidParameter {
                name: "inner_lj/outer_lj",
                reason: format!("need 0 < inner ({inner_lj}) < outer ({outer_lj})"),
            });
        }
        if !(cut_coul > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "cut_coul",
                reason: format!("coulomb cutoff {cut_coul} must be positive"),
            });
        }
        let mut eps = vec![None; ntypes];
        let mut sig = vec![None; ntypes];
        for &(t, e, s) in coeffs {
            let t = t as usize;
            if t >= ntypes {
                return Err(CoreError::UnknownAtomType {
                    atom_type: t as u32,
                    ntypes,
                });
            }
            eps[t] = Some(e);
            sig[t] = Some(s);
        }
        for t in 0..ntypes {
            if eps[t].is_none() {
                return Err(CoreError::InvalidParameter {
                    name: "coeffs",
                    reason: format!("missing coefficients for type {t}"),
                });
            }
        }
        let mut lj1 = vec![0.0; ntypes * ntypes];
        let mut lj2 = vec![0.0; ntypes * ntypes];
        let mut lj3 = vec![0.0; ntypes * ntypes];
        let mut lj4 = vec![0.0; ntypes * ntypes];
        for i in 0..ntypes {
            for j in 0..ntypes {
                let (e, s) = MixingRule::Arithmetic.mix(
                    eps[i].expect("checked"),
                    sig[i].expect("checked"),
                    eps[j].expect("checked"),
                    sig[j].expect("checked"),
                );
                let s6 = s.powi(6);
                let s12 = s6 * s6;
                lj1[i * ntypes + j] = 48.0 * e * s12;
                lj2[i * ntypes + j] = 24.0 * e * s6;
                lj3[i * ntypes + j] = 4.0 * e * s12;
                lj4[i * ntypes + j] = 4.0 * e * s6;
            }
        }
        Ok(LjCharmmCoulLong {
            ntypes,
            lj1,
            lj2,
            lj3,
            lj4,
            inner_lj,
            outer_lj,
            cut_coul,
            g_ewald: 0.0,
            mode: PrecisionMode::Double,
            path: KernelPath::default(),
            gather: LaneGather::default(),
            accum: LaneAccum::default(),
        })
    }

    /// Sets the Ewald splitting parameter (the k-space solver knows it).
    ///
    /// With `g_ewald = 0` the Coulomb term degenerates to a plain truncated
    /// `q q / r`, which is also what tests without a k-space solver expect.
    pub fn set_g_ewald(&mut self, g: f64) {
        self.g_ewald = g;
    }

    /// The current Ewald splitting parameter.
    pub fn g_ewald(&self) -> f64 {
        self.g_ewald
    }

    /// Whether the lane kernel can serve the current configuration: the
    /// lanes path is selected and the list carries padded rows of the right
    /// width.
    fn lanes_usable(&self, nl: &NeighborList) -> bool {
        self.path.is_lanes() && nl.padding() != 0 && nl.padding().is_multiple_of(LANES)
    }

    /// Loads the lane kernel's position/type/charge gather when that kernel
    /// will run. Once per compute call, while `self` is still exclusive: the
    /// row-range kernels then share it read-only.
    pub(crate) fn load_gather(&mut self, sys: &PairSystem<'_>, nl: &NeighborList) {
        if self.lanes_usable(nl) {
            self.gather
                .load(sys.x, sys.kinds, sys.charge, ghost_position(sys.bx));
        }
    }

    /// Evaluates atom rows `rows` of `nl` through the configured kernel,
    /// accumulating into the **full-length** `f` (Newton's third law writes
    /// to neighbors outside the rows); the lane kernel goes through `accum`.
    /// Needs [`LjCharmmCoulLong::load_gather`] first. The serial `compute`
    /// passes every row; [`crate::Threaded`] passes each chunk's rows with
    /// private `accum` and `f`.
    pub(crate) fn compute_rows(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        accum: &mut LaneAccum,
        f: &mut [V3],
    ) -> EnergyVirial {
        if self.lanes_usable(nl) {
            accum.reset(sys.x.len());
            let e = self.kernel_lanes(sys, nl, rows, accum);
            accum.fold_into(f);
            e
        } else {
            self.kernel(sys, nl, rows, f)
        }
    }

    /// Lane-blocked kernel: the LJ + switching part runs as a branch-free
    /// 8-wide arithmetic sub-loop (selects instead of the `switch` branches),
    /// while the Coulomb part — dominated by `erfc`/`exp`/`sqrt`, which do
    /// not autovectorize — stays a per-lane scalar pass over the same block
    /// buffers. Accumulation order per pair matches the reference kernel.
    fn kernel_lanes(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        accum: &mut LaneAccum,
    ) -> EnergyVirial {
        let cut_lj2 = self.outer_lj * self.outer_lj;
        let cut_coul2 = self.cut_coul * self.cut_coul;
        let qqr2e = sys.units.qqr2e;
        let g = self.g_ewald;
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        let ri2 = self.inner_lj * self.inner_lj;
        let ro2 = self.outer_lj * self.outer_lj;
        let denom = (ro2 - ri2).powi(3);
        let [(lx, hx), (ly, hy), (lz, hz)] = lane_wrap_params(sys.bx);
        let LjCharmmCoulLong {
            ntypes,
            lj1,
            lj2,
            lj3,
            lj4,
            gather,
            ..
        } = self;
        let nt = *ntypes;
        let mut evdwl = 0.0f64;
        let mut ecoul = 0.0f64;
        let mut virial = 0.0f64;
        let mut jb = [0usize; LANES];
        let mut xjb = [0.0f64; LANES];
        let mut yjb = [0.0f64; LANES];
        let mut zjb = [0.0f64; LANES];
        let mut qjb = [0.0f64; LANES];
        let mut l1b = [0.0f64; LANES];
        let mut l2b = [0.0f64; LANES];
        let mut l3b = [0.0f64; LANES];
        let mut l4b = [0.0f64; LANES];
        let mut dxb = [0.0f64; LANES];
        let mut dyb = [0.0f64; LANES];
        let mut dzb = [0.0f64; LANES];
        let mut r2b = [0.0f64; LANES];
        let mut fpb = [0.0f64; LANES];
        let mut elb = [0.0f64; LANES];
        for i in rows {
            let xi = gather.xs[i];
            let yi = gather.ys[i];
            let zi = gather.zs[i];
            let qi = gather.qs[i];
            let base = sys.kinds[i] as usize * nt;
            let lj1r = &lj1[base..base + nt];
            let lj2r = &lj2[base..base + nt];
            let lj3r = &lj3[base..base + nt];
            let lj4r = &lj4[base..base + nt];
            let row = nl.padded_neighbors(i);
            let mut fxi = 0.0f64;
            let mut fyi = 0.0f64;
            let mut fzi = 0.0f64;
            for block in row.chunks_exact(LANES) {
                for lane in 0..LANES {
                    let j = block[lane] as usize;
                    jb[lane] = j;
                    xjb[lane] = gather.xs[j];
                    yjb[lane] = gather.ys[j];
                    zjb[lane] = gather.zs[j];
                    qjb[lane] = gather.qs[j];
                    let tj = gather.ts[j] as usize;
                    l1b[lane] = lj1r[tj];
                    l2b[lane] = lj2r[tj];
                    l3b[lane] = lj3r[tj];
                    l4b[lane] = lj4r[tj];
                }
                // Phase A: displacement + LJ/switch, fully arithmetic.
                for lane in 0..LANES {
                    let dx = lane_min_image(xi - xjb[lane], lx, hx);
                    let dy = lane_min_image(yi - yjb[lane], ly, hy);
                    let dz = lane_min_image(zi - zjb[lane], lz, hz);
                    let r2 = dx * dx + dy * dy + dz * dz;
                    dxb[lane] = dx;
                    dyb[lane] = dy;
                    dzb[lane] = dz;
                    r2b[lane] = r2;
                    let inside = r2 < cut_lj2;
                    let m = lane_mask(inside);
                    let r2s = if inside { r2 } else { 1.0 };
                    let inv2 = 1.0 / r2s;
                    let inv6 = inv2 * inv2 * inv2;
                    let e_lj = inv6 * (l3b[lane] * inv6 - l4b[lane]);
                    let f_lj = inv6 * (l1b[lane] * inv6 - l2b[lane]) * inv2;
                    // The scalar `switch` as selects: live lanes have r2 < ro2
                    // so only the core/taper cases exist; masked lanes zero out.
                    let a = ro2 - r2;
                    let s_mid = a * a * (ro2 + 2.0 * r2 - 3.0 * ri2) / denom;
                    let ds_mid = (-2.0 * a * (ro2 + 2.0 * r2 - 3.0 * ri2) + 2.0 * a * a) / denom;
                    let in_core = r2 <= ri2;
                    let s = if in_core { 1.0 } else { s_mid };
                    let ds = if in_core { 0.0 } else { ds_mid };
                    fpb[lane] = (f_lj * s - 2.0 * e_lj * ds) * m;
                    elb[lane] = e_lj * s * m;
                }
                // Phase B: real-space Coulomb, scalar per lane (erfc/exp).
                for lane in 0..LANES {
                    let r2 = r2b[lane];
                    if r2 < cut_coul2 {
                        let r = r2.sqrt();
                        let qq = qqr2e * qi * qjb[lane];
                        if g > 0.0 {
                            let gr = g * r;
                            let erfc_gr = erfc(gr);
                            let e_c = qq * erfc_gr / r;
                            ecoul += e_c;
                            fpb[lane] +=
                                (e_c + qq * two_over_sqrt_pi * gr * (-gr * gr).exp() / r) / r2;
                        } else {
                            let e_c = qq / r;
                            ecoul += e_c;
                            fpb[lane] += e_c / r2;
                        }
                    }
                }
                for lane in 0..LANES {
                    let j = jb[lane];
                    let fpair = fpb[lane];
                    let dfx = dxb[lane] * fpair;
                    let dfy = dyb[lane] * fpair;
                    let dfz = dzb[lane] * fpair;
                    fxi += dfx;
                    fyi += dfy;
                    fzi += dfz;
                    accum.fx[j] -= dfx;
                    accum.fy[j] -= dfy;
                    accum.fz[j] -= dfz;
                    evdwl += elb[lane];
                    virial += r2b[lane] * fpair;
                }
            }
            accum.fx[i] += fxi;
            accum.fy[i] += fyi;
            accum.fz[i] += fzi;
        }
        EnergyVirial {
            evdwl,
            ecoul,
            virial,
        }
    }

    /// The scalar reference kernel over atom rows `rows`.
    fn kernel(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        f: &mut [V3],
    ) -> EnergyVirial {
        let cut_lj2 = self.outer_lj * self.outer_lj;
        let cut_coul2 = self.cut_coul * self.cut_coul;
        let qqr2e = sys.units.qqr2e;
        let g = self.g_ewald;
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        let nt = self.ntypes;
        let mut evdwl = 0.0;
        let mut ecoul = 0.0;
        let mut virial = 0.0;
        for i in rows {
            let xi = sys.x[i];
            let trow = sys.kinds[i] as usize * nt;
            let qi = sys.charge[i];
            let mut fi = Vec3::zero();
            for &j in nl.neighbors(i) {
                let ju = j as usize;
                let d = sys.bx.min_image(xi, sys.x[ju]);
                let r2 = d.norm2();
                let mut fpair = 0.0;
                if r2 < cut_lj2 {
                    let k = trow + sys.kinds[ju] as usize;
                    let inv2 = 1.0 / r2;
                    let inv6 = inv2 * inv2 * inv2;
                    let e_lj = inv6 * (self.lj3[k] * inv6 - self.lj4[k]);
                    let f_lj = inv6 * (self.lj1[k] * inv6 - self.lj2[k]) * inv2;
                    let (s, ds) = self.switch(r2);
                    // d(E s)/dr2 = dE/dr2 * s + E * ds/dr2; fpair = -2 d(Es)/dr2.
                    fpair += f_lj * s - 2.0 * e_lj * ds;
                    evdwl += e_lj * s;
                }
                if r2 < cut_coul2 {
                    let r = r2.sqrt();
                    let qq = qqr2e * qi * sys.charge[ju];
                    if g > 0.0 {
                        let gr = g * r;
                        let erfc_gr = erfc(gr);
                        let e_c = qq * erfc_gr / r;
                        ecoul += e_c;
                        fpair += (e_c + qq * two_over_sqrt_pi * gr * (-gr * gr).exp() / r) / r2;
                    } else {
                        let e_c = qq / r;
                        ecoul += e_c;
                        fpair += e_c / r2;
                    }
                }
                if fpair != 0.0 {
                    let df = d * fpair;
                    fi += df;
                    f[ju] -= df;
                    virial += r2 * fpair;
                }
            }
            f[i] += fi;
        }
        EnergyVirial {
            evdwl,
            ecoul,
            virial,
        }
    }

    /// CHARMM switching function and its derivative factor at `r²`.
    ///
    /// Returns `(s, ds_dr2)` with `s = 1` inside `inner²` and `s = 0` beyond
    /// `outer²`.
    fn switch(&self, r2: f64) -> (f64, f64) {
        let ri2 = self.inner_lj * self.inner_lj;
        let ro2 = self.outer_lj * self.outer_lj;
        if r2 <= ri2 {
            (1.0, 0.0)
        } else if r2 >= ro2 {
            (0.0, 0.0)
        } else {
            let denom = (ro2 - ri2).powi(3);
            let a = ro2 - r2;
            let s = a * a * (ro2 + 2.0 * r2 - 3.0 * ri2) / denom;
            // ds/d(r2) = [ -2a(ro2+2r2-3ri2) + 2a^2 ] / denom
            let ds = (-2.0 * a * (ro2 + 2.0 * r2 - 3.0 * ri2) + 2.0 * a * a) / denom;
            (s, ds)
        }
    }
}

impl PairStyle for LjCharmmCoulLong {
    fn name(&self) -> &'static str {
        "lj/charmm/coul/long"
    }

    fn cutoff(&self) -> f64 {
        self.outer_lj.max(self.cut_coul)
    }

    fn compute(&mut self, sys: &PairSystem<'_>, nl: &NeighborList, f: &mut [V3]) -> EnergyVirial {
        self.load_gather(sys, nl);
        let mut accum = std::mem::take(&mut self.accum);
        let e = self.compute_rows(sys, nl, 0..sys.x.len(), &mut accum, f);
        self.accum = accum;
        e
    }

    fn set_kernel_path(&mut self, path: KernelPath) {
        self.path = path;
    }

    fn kernel_path(&self) -> KernelPath {
        self.path
    }

    fn set_precision(&mut self, mode: PrecisionMode) {
        self.mode = mode;
    }

    fn precision(&self) -> PrecisionMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::neighbor::NeighborListKind;
    use md_core::{SimBox, UnitSystem};

    fn charged_dimer(
        style: &mut LjCharmmCoulLong,
        r: f64,
        q0: f64,
        q1: f64,
    ) -> (EnergyVirial, Vec<V3>) {
        let bx = SimBox::cubic(50.0);
        let x = vec![Vec3::new(20.0, 20.0, 20.0), Vec3::new(20.0 + r, 20.0, 20.0)];
        let mut nl = NeighborList::new(style.cutoff(), 1.0, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let v = vec![Vec3::zero(); 2];
        let kinds = vec![0u32; 2];
        let charge = vec![q0, q1];
        let radius = vec![0.0; 2];
        let masses = vec![1.0];
        let units = UnitSystem::real();
        let sys = PairSystem {
            bx: &bx,
            x: &x,
            v: &v,
            kinds: &kinds,
            charge: &charge,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 1.0,
        };
        let mut f = vec![Vec3::zero(); 2];
        let e = style.compute(&sys, &nl, &mut f);
        (e, f)
    }

    fn style() -> LjCharmmCoulLong {
        LjCharmmCoulLong::new(1, &[(0, 0.1, 3.0)], 8.0, 10.0, 10.0).unwrap()
    }

    #[test]
    fn switch_is_one_inside_zero_outside() {
        let s = style();
        assert_eq!(s.switch(7.9 * 7.9), (1.0, 0.0));
        assert_eq!(s.switch(10.1 * 10.1).0, 0.0);
        let (mid, _) = s.switch(9.0 * 9.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn switch_is_continuous_at_boundaries() {
        let s = style();
        let eps = 1e-9;
        let ri2 = 64.0;
        let ro2 = 100.0;
        assert!((s.switch(ri2 + eps).0 - 1.0).abs() < 1e-6);
        assert!(s.switch(ro2 - eps).0 < 1e-6);
    }

    #[test]
    fn lj_energy_goes_smoothly_to_zero() {
        let mut s = style();
        let (e_in, _) = charged_dimer(&mut s, 9.99, 0.0, 0.0);
        assert!(e_in.evdwl.abs() < 1e-6, "{}", e_in.evdwl);
        let (e_out, f) = charged_dimer(&mut s, 10.01, 0.0, 0.0);
        assert_eq!(e_out.evdwl, 0.0);
        assert_eq!(f[0], Vec3::zero());
    }

    #[test]
    fn truncated_coulomb_matches_qq_over_r() {
        let mut s = style();
        let (e, f) = charged_dimer(&mut s, 5.0, 1.0, -1.0);
        let want = -UnitSystem::real().qqr2e / 5.0;
        assert!((e.ecoul - want).abs() < 1e-10, "{} vs {want}", e.ecoul);
        // Opposite charges attract: force on atom 0 along +x.
        assert!(f[0].x > 0.0);
    }

    #[test]
    fn damped_coulomb_is_smaller_than_bare() {
        let mut s = style();
        let (bare, _) = charged_dimer(&mut s, 5.0, 1.0, 1.0);
        s.set_g_ewald(0.3);
        let (damped, _) = charged_dimer(&mut s, 5.0, 1.0, 1.0);
        assert!(damped.ecoul < bare.ecoul);
        assert!(damped.ecoul > 0.0);
    }

    #[test]
    fn force_matches_numerical_derivative_with_switching() {
        let mut s = style();
        s.set_g_ewald(0.25);
        let h = 1e-5;
        for r in [4.0, 8.5, 9.5] {
            let (_, f) = charged_dimer(&mut s, r, 0.5, -0.4);
            let (ep, _) = charged_dimer(&mut s, r + h, 0.5, -0.4);
            let (em, _) = charged_dimer(&mut s, r - h, 0.5, -0.4);
            let dedr = (ep.energy() - em.energy()) / (2.0 * h);
            assert!(
                (f[1].x - (-dedr)).abs() < 1e-4 * dedr.abs().max(1.0),
                "r = {r}: {} vs {}",
                f[1].x,
                -dedr
            );
        }
    }

    #[test]
    fn lanes_path_matches_scalar_on_a_charged_gas() {
        use md_core::kernel::LANES;
        let bx = SimBox::cubic(24.0);
        let mut x = Vec::new();
        let mut kinds = Vec::new();
        let mut charge = Vec::new();
        let mut state = 0xc0ffee_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..160 {
            x.push(Vec3::new(24.0 * rng(), 24.0 * rng(), 24.0 * rng()));
            kinds.push((i % 2) as u32);
            charge.push(if i % 2 == 0 { 0.4 } else { -0.4 });
        }
        let mut s =
            LjCharmmCoulLong::new(2, &[(0, 0.1, 3.0), (1, 0.15, 2.5)], 8.0, 10.0, 10.0).unwrap();
        s.set_g_ewald(0.28);
        let mut nl = NeighborList::new(s.cutoff(), 1.0, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let v = vec![Vec3::zero(); x.len()];
        let radius = vec![0.0; x.len()];
        let masses = vec![1.0, 1.0];
        let units = UnitSystem::real();
        let sys = PairSystem {
            bx: &bx,
            x: &x,
            v: &v,
            kinds: &kinds,
            charge: &charge,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 1.0,
        };
        let mut f_ref = vec![Vec3::zero(); x.len()];
        let e_ref = s.compute(&sys, &nl, &mut f_ref);

        nl.set_padding(LANES);
        s.set_kernel_path(md_core::KernelPath::Lanes);
        let mut f_lanes = vec![Vec3::zero(); x.len()];
        let e_lanes = s.compute(&sys, &nl, &mut f_lanes);

        assert!((e_ref.evdwl - e_lanes.evdwl).abs() / e_ref.evdwl.abs().max(1.0) < 1e-12);
        assert!((e_ref.ecoul - e_lanes.ecoul).abs() / e_ref.ecoul.abs().max(1.0) < 1e-12);
        assert!((e_ref.virial - e_lanes.virial).abs() / e_ref.virial.abs().max(1.0) < 1e-12);
        for i in 0..x.len() {
            let d = (f_ref[i] - f_lanes[i]).norm();
            assert!(
                d / f_ref[i].norm().max(1.0) < 1e-12,
                "atom {i}: {} vs {}",
                f_ref[i],
                f_lanes[i]
            );
        }
    }

    #[test]
    fn rejects_inverted_cutoffs() {
        assert!(LjCharmmCoulLong::new(1, &[(0, 0.1, 3.0)], 10.0, 8.0, 10.0).is_err());
    }
}
