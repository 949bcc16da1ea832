//! Embedded-Atom Method many-body potential (LAMMPS `pair_style eam`),
//! in the analytic Sutton-Chen form parameterized for copper — the EAM
//! benchmark simulates a Cu metallic solid (paper Section 3).
//!
//! `E = ε Σ_i [ ½ Σ_j (a/r_ij)^n  −  c √ρ_i ]`, `ρ_i = Σ_j (a/r_ij)^m`.
//!
//! Like the tabulated LAMMPS EAM, the computation is two passes over the
//! neighbor list: first accumulate densities (and the pair repulsion), then
//! evaluate the embedding derivative and sweep again for forces. This
//! two-pass structure is what makes the EAM kernel heavier per pair than
//! plain LJ — the effect the paper's Figure 8 attributes to `k_eam_fast` +
//! `k_energy_fast`.

use md_core::kernel::{
    ghost_position, lane_mask, lane_min_image, lane_wrap_params, KernelPath, LANES,
};
use md_core::neighbor::NeighborList;
use md_core::{
    CoreError, EnergyVirial, LaneAccum, LaneGather, PairStyle, PairSystem, PrecisionMode, Vec3, V3,
};
use std::ops::Range;

/// Sutton-Chen analytic EAM.
#[derive(Debug, Clone)]
pub struct SuttonChenEam {
    /// Energy scale ε (eV in metal units).
    epsilon: f64,
    /// Length scale `a` (Å) — close to the fcc lattice constant.
    a: f64,
    /// Repulsive exponent `n`.
    n: i32,
    /// Density exponent `m`.
    m: i32,
    /// Embedding strength `c`.
    c: f64,
    cutoff: f64,
    /// Scratch: per-atom electron density.
    pub(crate) rho: Vec<f64>,
    /// Scratch: per-atom dF/dρ.
    pub(crate) dembed: Vec<f64>,
    mode: PrecisionMode,
    path: KernelPath,
    pub(crate) gather: LaneGather,
    accum: LaneAccum,
}

impl SuttonChenEam {
    /// Creates a Sutton-Chen EAM with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive scales or cutoff.
    pub fn new(
        epsilon: f64,
        a: f64,
        n: i32,
        m: i32,
        c: f64,
        cutoff: f64,
    ) -> Result<Self, CoreError> {
        if !(epsilon > 0.0 && a > 0.0 && c > 0.0 && cutoff > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "sutton-chen",
                reason: "epsilon, a, c, cutoff must all be positive".to_string(),
            });
        }
        if n <= m || m < 1 {
            return Err(CoreError::InvalidParameter {
                name: "sutton-chen",
                reason: format!("need n ({n}) > m ({m}) >= 1"),
            });
        }
        Ok(SuttonChenEam {
            epsilon,
            a,
            n,
            m,
            c,
            cutoff,
            rho: Vec::new(),
            dembed: Vec::new(),
            mode: PrecisionMode::Double,
            path: KernelPath::default(),
            gather: LaneGather::default(),
            accum: LaneAccum::default(),
        })
    }

    /// The standard copper parameterization (Sutton & Chen 1990) with the
    /// benchmark's 4.95 Å force cutoff.
    ///
    /// # Panics
    ///
    /// Never panics; the built-in parameters are valid.
    pub fn copper() -> Self {
        SuttonChenEam::new(1.2382e-2, 3.61, 9, 6, 39.432, 4.95).expect("valid Cu parameters")
    }

    /// Energy prefactor ε, for assembling totals from the chunk helpers.
    pub(crate) fn energy_scale(&self) -> f64 {
        self.epsilon
    }

    /// Pass-1 body over atom rows `rows`: accumulates electron densities
    /// into the **full-length** `rho` (a row's neighbors land outside the
    /// row range, which is why threaded callers give each chunk a private
    /// buffer) and returns the rows' pair-repulsion energy partial.
    pub(crate) fn density_chunk(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        rho: &mut [f64],
    ) -> f64 {
        let cut2 = self.cutoff * self.cutoff;
        let mut e_pair = 0.0;
        for i in rows {
            let xi = sys.x[i];
            for &j in nl.neighbors(i) {
                let ju = j as usize;
                let d = sys.bx.min_image(xi, sys.x[ju]);
                let r2 = d.norm2();
                if r2 >= cut2 {
                    continue;
                }
                let r = r2.sqrt();
                let ar = self.a / r;
                e_pair += ar.powi(self.n);
                let dens = ar.powi(self.m);
                rho[i] += dens;
                rho[ju] += dens;
            }
        }
        e_pair
    }

    /// Embedding term over aligned sub-slices of ρ and dF/dρ (elementwise,
    /// so threaded callers can hand out disjoint chunks). Fills `dembed`
    /// and returns the embedding energy partial.
    pub(crate) fn embed_slice(&self, rho: &[f64], dembed: &mut [f64]) -> f64 {
        let mut e_embed = 0.0;
        for (r, de) in rho.iter().zip(dembed.iter_mut()) {
            let sqrt_rho = r.max(1e-300).sqrt();
            e_embed -= self.c * sqrt_rho;
            *de = -self.c / (2.0 * sqrt_rho);
        }
        e_embed
    }

    /// Pass-2 body over atom rows `rows`: accumulates forces into the
    /// **full-length** `f` (Newton's third law writes to neighbors outside
    /// the rows) and returns the rows' virial partial.
    pub(crate) fn force_chunk(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        dembed: &[f64],
        f: &mut [V3],
    ) -> f64 {
        let cut2 = self.cutoff * self.cutoff;
        let mut virial = 0.0;
        for i in rows {
            let xi = sys.x[i];
            let mut fi = Vec3::zero();
            for &j in nl.neighbors(i) {
                let ju = j as usize;
                let d = sys.bx.min_image(xi, sys.x[ju]);
                let r2 = d.norm2();
                if r2 >= cut2 {
                    continue;
                }
                let r = r2.sqrt();
                let ar = self.a / r;
                // -dE/dr = [ n (a/r)^n + (F'_i + F'_j) m (a/r)^m ] / r  (times ε).
                let dpair = self.n as f64 * ar.powi(self.n);
                let ddens = self.m as f64 * ar.powi(self.m);
                let fpair = self.epsilon * (dpair + (dembed[i] + dembed[ju]) * ddens) / r2;
                let df = d * fpair;
                fi += df;
                f[ju] -= df;
                virial += r2 * fpair;
            }
            f[i] += fi;
        }
        virial
    }

    /// Whether the lane kernels can serve the current configuration: the
    /// lanes path is selected, the exponents are the copper `(n, m) = (9, 6)`
    /// pair the multiply chains below are specialized for, and the neighbor
    /// list carries padded rows of the right width.
    pub(crate) fn lanes_usable(&self, nl: &NeighborList) -> bool {
        self.path.is_lanes()
            && self.n == 9
            && self.m == 6
            && nl.padding() != 0
            && nl.padding().is_multiple_of(LANES)
    }

    /// Lane-blocked pass 1 over `rows`. `rho` must be `n + 1` long
    /// (ghost scatters land in the spare slot, contributing exact zeros);
    /// `g` must hold the current positions. Specialized to `(n, m) = (9, 6)`
    /// via explicit multiply chains so the block sub-loop autovectorizes.
    pub(crate) fn density_chunk_lanes(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        rho: &mut [f64],
        g: &LaneGather,
    ) -> f64 {
        debug_assert!(self.n == 9 && self.m == 6);
        let cut2 = self.cutoff * self.cutoff;
        let a = self.a;
        let [(lx, hx), (ly, hy), (lz, hz)] = lane_wrap_params(sys.bx);
        let mut e_pair = 0.0f64;
        let mut jb = [0usize; LANES];
        let mut xjb = [0.0f64; LANES];
        let mut yjb = [0.0f64; LANES];
        let mut zjb = [0.0f64; LANES];
        let mut epb = [0.0f64; LANES];
        let mut densb = [0.0f64; LANES];
        for i in rows {
            let xi = g.xs[i];
            let yi = g.ys[i];
            let zi = g.zs[i];
            let row = nl.padded_neighbors(i);
            for block in row.chunks_exact(LANES) {
                for lane in 0..LANES {
                    let j = block[lane] as usize;
                    jb[lane] = j;
                    xjb[lane] = g.xs[j];
                    yjb[lane] = g.ys[j];
                    zjb[lane] = g.zs[j];
                }
                for lane in 0..LANES {
                    let dx = lane_min_image(xi - xjb[lane], lx, hx);
                    let dy = lane_min_image(yi - yjb[lane], ly, hy);
                    let dz = lane_min_image(zi - zjb[lane], lz, hz);
                    let r2 = dx * dx + dy * dy + dz * dz;
                    let inside = r2 < cut2;
                    let m = lane_mask(inside);
                    let r2s = if inside { r2 } else { 1.0 };
                    let r = r2s.sqrt();
                    let ar = a / r;
                    let ar2 = ar * ar;
                    let ar4 = ar2 * ar2;
                    let ar6 = ar4 * ar2;
                    let ar9 = ar4 * ar4 * ar;
                    epb[lane] = ar9 * m;
                    densb[lane] = ar6 * m;
                }
                for lane in 0..LANES {
                    e_pair += epb[lane];
                    rho[i] += densb[lane];
                    rho[jb[lane]] += densb[lane];
                }
            }
        }
        e_pair
    }

    /// Lane-blocked pass 2 over `rows`. `dembed` must be `n + 1` long
    /// with a zero ghost slot; `acc` must be reset to `n` slots. Returns the
    /// rows' virial partial.
    pub(crate) fn force_chunk_lanes(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        dembed: &[f64],
        g: &LaneGather,
        acc: &mut LaneAccum,
    ) -> f64 {
        debug_assert!(self.n == 9 && self.m == 6);
        let cut2 = self.cutoff * self.cutoff;
        let a = self.a;
        let eps = self.epsilon;
        let [(lx, hx), (ly, hy), (lz, hz)] = lane_wrap_params(sys.bx);
        let mut virial = 0.0f64;
        let mut jb = [0usize; LANES];
        let mut xjb = [0.0f64; LANES];
        let mut yjb = [0.0f64; LANES];
        let mut zjb = [0.0f64; LANES];
        let mut deb = [0.0f64; LANES];
        let mut dfx = [0.0f64; LANES];
        let mut dfy = [0.0f64; LANES];
        let mut dfz = [0.0f64; LANES];
        let mut vb = [0.0f64; LANES];
        for i in rows {
            let xi = g.xs[i];
            let yi = g.ys[i];
            let zi = g.zs[i];
            let de_i = dembed[i];
            let row = nl.padded_neighbors(i);
            let mut fxi = 0.0f64;
            let mut fyi = 0.0f64;
            let mut fzi = 0.0f64;
            for block in row.chunks_exact(LANES) {
                for lane in 0..LANES {
                    let j = block[lane] as usize;
                    jb[lane] = j;
                    xjb[lane] = g.xs[j];
                    yjb[lane] = g.ys[j];
                    zjb[lane] = g.zs[j];
                    deb[lane] = dembed[j];
                }
                for lane in 0..LANES {
                    let dx = lane_min_image(xi - xjb[lane], lx, hx);
                    let dy = lane_min_image(yi - yjb[lane], ly, hy);
                    let dz = lane_min_image(zi - zjb[lane], lz, hz);
                    let r2 = dx * dx + dy * dy + dz * dz;
                    let inside = r2 < cut2;
                    let m = lane_mask(inside);
                    let r2s = if inside { r2 } else { 1.0 };
                    let r = r2s.sqrt();
                    let ar = a / r;
                    let ar2 = ar * ar;
                    let ar4 = ar2 * ar2;
                    let ar6 = ar4 * ar2;
                    let ar9 = ar4 * ar4 * ar;
                    let dpair = 9.0 * ar9;
                    let ddens = 6.0 * ar6;
                    let fpair = eps * (dpair + (de_i + deb[lane]) * ddens) / r2s * m;
                    dfx[lane] = dx * fpair;
                    dfy[lane] = dy * fpair;
                    dfz[lane] = dz * fpair;
                    vb[lane] = r2s * fpair;
                }
                for lane in 0..LANES {
                    let j = jb[lane];
                    fxi += dfx[lane];
                    fyi += dfy[lane];
                    fzi += dfz[lane];
                    acc.fx[j] -= dfx[lane];
                    acc.fy[j] -= dfy[lane];
                    acc.fz[j] -= dfz[lane];
                    virial += vb[lane];
                }
            }
            acc.fx[i] += fxi;
            acc.fy[i] += fyi;
            acc.fz[i] += fzi;
        }
        virial
    }

    /// Serial lanes compute: the two lane-blocked passes over `n + 1`-slot
    /// scratch, reusing the style's buffers across calls.
    fn compute_lanes(
        &mut self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        f: &mut [V3],
    ) -> EnergyVirial {
        let n = sys.x.len();
        let mut gather = std::mem::take(&mut self.gather);
        gather.load(sys.x, sys.kinds, sys.charge, ghost_position(sys.bx));
        let mut rho = std::mem::take(&mut self.rho);
        rho.clear();
        rho.resize(n + 1, 0.0);
        let e_pair = self.density_chunk_lanes(sys, nl, 0..n, &mut rho, &gather);
        let mut dembed = std::mem::take(&mut self.dembed);
        dembed.clear();
        dembed.resize(n + 1, 0.0);
        let e_embed = self.embed_slice(&rho[..n], &mut dembed[..n]);
        let mut accum = std::mem::take(&mut self.accum);
        accum.reset(n);
        let virial = self.force_chunk_lanes(sys, nl, 0..n, &dembed, &gather, &mut accum);
        accum.fold_into(f);
        self.gather = gather;
        self.rho = rho;
        self.dembed = dembed;
        self.accum = accum;
        EnergyVirial {
            evdwl: self.epsilon * e_pair + self.epsilon * e_embed,
            ecoul: 0.0,
            virial,
        }
    }

    /// Total potential energy of a finite cluster (reference/tests; O(N²)).
    pub fn cluster_energy(&self, x: &[V3]) -> f64 {
        let mut e_pair = 0.0;
        let mut rho = vec![0.0; x.len()];
        for i in 0..x.len() {
            for j in (i + 1)..x.len() {
                let r = (x[i] - x[j]).norm();
                if r < self.cutoff {
                    e_pair += (self.a / r).powi(self.n);
                    let d = (self.a / r).powi(self.m);
                    rho[i] += d;
                    rho[j] += d;
                }
            }
        }
        let embed: f64 = rho.iter().map(|&r| -self.c * r.sqrt()).sum();
        self.epsilon * (e_pair + embed)
    }
}

impl PairStyle for SuttonChenEam {
    fn name(&self) -> &'static str {
        "eam"
    }

    fn cutoff(&self) -> f64 {
        self.cutoff
    }

    fn compute(&mut self, sys: &PairSystem<'_>, nl: &NeighborList, f: &mut [V3]) -> EnergyVirial {
        if self.lanes_usable(nl) {
            return self.compute_lanes(sys, nl, f);
        }
        let natoms = sys.x.len();

        // Pass 1: densities + pair repulsion energy. The scratch arrays are
        // taken out of `self` so the chunk helpers (which serve the threaded
        // wrapper too) can borrow the style immutably.
        let mut rho = std::mem::take(&mut self.rho);
        rho.clear();
        rho.resize(natoms, 0.0);
        let e_pair = self.density_chunk(sys, nl, 0..natoms, &mut rho);

        // Embedding energy and its derivative.
        let mut dembed = std::mem::take(&mut self.dembed);
        dembed.clear();
        dembed.resize(natoms, 0.0);
        let e_embed = self.embed_slice(&rho, &mut dembed);

        // Pass 2: forces.
        let virial = self.force_chunk(sys, nl, 0..natoms, &dembed, f);

        self.rho = rho;
        self.dembed = dembed;
        EnergyVirial {
            evdwl: self.epsilon * e_pair + self.epsilon * e_embed,
            ecoul: 0.0,
            virial,
        }
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

    /// Builds an fcc lattice with `cells³` unit cells at lattice constant `a0`.
    fn fcc(cells: usize, a0: f64) -> (SimBox, Vec<V3>) {
        let l = cells as f64 * a0;
        let bx = SimBox::cubic(l);
        let basis = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.5, 0.5, 0.0),
            Vec3::new(0.5, 0.0, 0.5),
            Vec3::new(0.0, 0.5, 0.5),
        ];
        let mut x = Vec::new();
        for cx in 0..cells {
            for cy in 0..cells {
                for cz in 0..cells {
                    for b in basis {
                        x.push(Vec3::new(
                            (cx as f64 + b.x) * a0,
                            (cy as f64 + b.y) * a0,
                            (cz as f64 + b.z) * a0,
                        ));
                    }
                }
            }
        }
        (bx, x)
    }

    fn lattice_energy_per_atom(a0: f64) -> f64 {
        let mut eam = SuttonChenEam::copper();
        let (bx, x) = fcc(4, a0);
        let mut nl = NeighborList::new(eam.cutoff(), 0.0, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let v = vec![Vec3::zero(); x.len()];
        let kinds = vec![0u32; x.len()];
        let charge = vec![0.0; x.len()];
        let radius = vec![0.0; x.len()];
        let masses = vec![63.546];
        let units = UnitSystem::metal();
        let sys = PairSystem {
            bx: &bx,
            x: &x,
            v: &v,
            kinds: &kinds,
            charge: &charge,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 0.001,
        };
        let mut f = vec![Vec3::zero(); x.len()];
        let e = eam.compute(&sys, &nl, &mut f);
        // Perfect lattice: forces vanish by symmetry.
        let max_f = f.iter().map(|fi| fi.norm()).fold(0.0f64, f64::max);
        assert!(max_f < 1e-9, "net force on lattice atom: {max_f}");
        e.evdwl / x.len() as f64
    }

    #[test]
    fn copper_cohesive_energy_is_reasonable() {
        // Experimental Cu cohesive energy is -3.54 eV/atom; Sutton-Chen with
        // a truncated 4.95 Å cutoff lands within ~15%.
        let e = lattice_energy_per_atom(3.615);
        assert!(
            (-4.2..=-2.9).contains(&e),
            "cohesive energy {e} eV/atom out of range"
        );
    }

    #[test]
    fn lattice_constant_minimizes_energy_near_experiment() {
        // Scan a0: the minimum must sit between 3.4 and 3.8 Å.
        let scan: Vec<(f64, f64)> = (0..=16)
            .map(|k| {
                let a0 = 3.3 + 0.04 * k as f64;
                (a0, lattice_energy_per_atom(a0))
            })
            .collect();
        let (best_a0, _) = scan
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty");
        assert!(
            (3.4..=3.8).contains(&best_a0),
            "energy minimum at a0 = {best_a0}"
        );
    }

    #[test]
    fn force_matches_numerical_derivative_on_cluster() {
        // Free trimer: move one atom, compare force to -dE/dx numerically.
        let eam = SuttonChenEam::copper();
        let x = vec![
            Vec3::new(10.0, 10.0, 10.0),
            Vec3::new(12.5, 10.0, 10.0),
            Vec3::new(11.2, 12.1, 10.0),
        ];
        let bx = SimBox::cubic(40.0);
        let mut nl = NeighborList::new(eam.cutoff(), 0.0, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let v = vec![Vec3::zero(); 3];
        let kinds = vec![0u32; 3];
        let charge = vec![0.0; 3];
        let radius = vec![0.0; 3];
        let masses = vec![63.546];
        let units = UnitSystem::metal();
        let sys = PairSystem {
            bx: &bx,
            x: &x,
            v: &v,
            kinds: &kinds,
            charge: &charge,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 0.001,
        };
        let mut eam2 = eam.clone();
        let mut f = vec![Vec3::zero(); 3];
        eam2.compute(&sys, &nl, &mut f);
        let h = 1e-6;
        for axis in 0..3 {
            let mut xp = x.clone();
            xp[0][axis] += h;
            let mut xm = x.clone();
            xm[0][axis] -= h;
            let dedx = (eam.cluster_energy(&xp) - eam.cluster_energy(&xm)) / (2.0 * h);
            assert!(
                (f[0][axis] + dedx).abs() < 1e-6,
                "axis {axis}: F = {} vs -dE/dx = {}",
                f[0][axis],
                -dedx
            );
        }
    }

    #[test]
    fn dimer_is_attractive_at_long_range() {
        let eam = SuttonChenEam::copper();
        let e_far = eam.cluster_energy(&[Vec3::zero(), Vec3::new(4.0, 0.0, 0.0)]);
        let e_near = eam.cluster_energy(&[Vec3::zero(), Vec3::new(2.2, 0.0, 0.0)]);
        assert!(e_far < 0.0, "dimer at 4.0 A should bind, E = {e_far}");
        assert!(e_near < e_far, "shorter dimer should bind more strongly");
    }

    #[test]
    fn lanes_path_matches_scalar_on_a_jittered_lattice() {
        let (bx, x) = fcc(3, 3.615);
        // Jitter deterministically so densities are asymmetric.
        let x: Vec<V3> = x
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let s = (i as f64 * 0.7368).sin() * 0.12;
                Vec3::new(p.x + s, p.y - 0.5 * s, p.z + 0.3 * s)
            })
            .collect();
        let mut eam = SuttonChenEam::copper();
        let mut nl = NeighborList::new(eam.cutoff(), 0.3, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let v = vec![Vec3::zero(); x.len()];
        let kinds = vec![0u32; x.len()];
        let charge = vec![0.0; x.len()];
        let radius = vec![0.0; x.len()];
        let masses = vec![63.546];
        let units = UnitSystem::metal();
        let sys = PairSystem {
            bx: &bx,
            x: &x,
            v: &v,
            kinds: &kinds,
            charge: &charge,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 0.001,
        };
        let mut f_ref = vec![Vec3::zero(); x.len()];
        let e_ref = eam.compute(&sys, &nl, &mut f_ref);

        nl.set_padding(md_core::LANES);
        eam.set_kernel_path(md_core::KernelPath::Lanes);
        let mut f_lanes = vec![Vec3::zero(); x.len()];
        let e_lanes = eam.compute(&sys, &nl, &mut f_lanes);

        // The lanes path replaces `powi` with explicit multiply chains, so
        // agreement is ulp-level rather than bitwise.
        assert!(
            (e_ref.evdwl - e_lanes.evdwl).abs() / e_ref.evdwl.abs().max(1.0) < 1e-12,
            "evdwl {} vs {}",
            e_ref.evdwl,
            e_lanes.evdwl
        );
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
    fn rejects_bad_exponents() {
        assert!(SuttonChenEam::new(0.01, 3.6, 6, 9, 39.0, 4.95).is_err());
        assert!(SuttonChenEam::new(-0.01, 3.6, 9, 6, 39.0, 4.95).is_err());
    }
}
