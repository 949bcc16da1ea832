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
    ghost_position, lane_isa, lane_mask, lane_min_image, lane_wrap_params, KernelPath, LaneIsa,
    LANES,
};
use md_core::neighbor::NeighborList;
use md_core::{CoreError, EnergyVirial, LaneAccum, LaneGather, PairStyle, PairSystem, Vec3, V3};
use std::ops::Range;

/// Sutton-Chen analytic EAM.
#[derive(Debug, Clone)]
pub struct SuttonChenEam {
    /// Energy scale ε (eV in metal units).
    epsilon: f64,
    /// Length scale `a` (Å) — close to the fcc lattice constant.
    a: f64,
    /// Embedding strength `c`.
    c: f64,
    cutoff: f64,
    /// Scratch: per-atom electron density.
    pub(crate) rho: Vec<f64>,
    /// Scratch: per-atom dF/dρ.
    pub(crate) dembed: Vec<f64>,
    path: KernelPath,
    /// What the lane bodies run at: [`lane_isa`], or an ISA a test pins.
    pub(crate) isa: LaneIsa,
    pub(crate) gather: LaneGather,
    accum: LaneAccum,
}

impl SuttonChenEam {
    /// Repulsive exponent `n` — copper's (Sutton & Chen 1990). A constant,
    /// so `powi(Self::N)` expands inline into the square-and-multiply chain
    /// a runtime exponent would run out of line.
    pub const N: i32 = 9;
    /// Density exponent `m` — copper's (Sutton & Chen 1990).
    pub const M: i32 = 6;

    /// Creates a Sutton-Chen EAM with explicit scales and copper's
    /// exponents [`Self::N`] and [`Self::M`].
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive scales or cutoff.
    pub fn new(epsilon: f64, a: f64, c: f64, cutoff: f64) -> Result<Self, CoreError> {
        if !(epsilon > 0.0 && a > 0.0 && c > 0.0 && cutoff > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "sutton-chen",
                reason: "epsilon, a, c, cutoff must all be positive".to_string(),
            });
        }
        Ok(SuttonChenEam {
            epsilon,
            a,
            c,
            cutoff,
            rho: Vec::new(),
            dembed: Vec::new(),
            path: KernelPath::default(),
            isa: lane_isa(),
            gather: LaneGather::default(),
            accum: LaneAccum::default(),
        })
    }

    /// Runs the lane bodies at `isa` instead of the host's widest.
    #[cfg(test)]
    pub(crate) fn with_lane_isa(self, isa: LaneIsa) -> Self {
        SuttonChenEam { isa, ..self }
    }

    /// The standard copper parameterization (Sutton & Chen 1990) with the
    /// benchmark's 4.95 Å force cutoff.
    ///
    /// # Panics
    ///
    /// Never panics; the built-in parameters are valid.
    pub fn copper() -> Self {
        SuttonChenEam::new(1.2382e-2, 3.61, 39.432, 4.95).expect("valid Cu parameters")
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
        for (i, row) in nl.rows(rows, false) {
            let xi = sys.x[i];
            for &j in row {
                let ju = j as usize;
                let d = sys.bx.min_image(xi, sys.x[ju]);
                let r2 = d.norm2();
                if r2 >= cut2 {
                    continue;
                }
                let r = r2.sqrt();
                let ar = self.a / r;
                e_pair += ar.powi(Self::N);
                let dens = ar.powi(Self::M);
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
        for (i, row) in nl.rows(rows, false) {
            let xi = sys.x[i];
            let mut fi = Vec3::zero();
            for &j in row {
                let ju = j as usize;
                let d = sys.bx.min_image(xi, sys.x[ju]);
                let r2 = d.norm2();
                if r2 >= cut2 {
                    continue;
                }
                let r = r2.sqrt();
                let ar = self.a / r;
                // -dE/dr = [ n (a/r)^n + (F'_i + F'_j) m (a/r)^m ] / r  (times ε).
                let dpair = f64::from(Self::N) * ar.powi(Self::N);
                let ddens = f64::from(Self::M) * ar.powi(Self::M);
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
    /// lanes path is selected and the neighbor list carries padded rows of
    /// the right width.
    pub(crate) fn lanes_usable(&self, nl: &NeighborList) -> bool {
        self.path.is_lanes() && nl.padding() != 0 && nl.padding().is_multiple_of(LANES)
    }

    /// Lane-blocked pass 1 over `rows`. `rho` must be `n + 1` long
    /// (ghost scatters land in the spare slot, contributing exact zeros);
    /// `g` must hold the current positions. Spells out the `(N, M) = (9, 6)`
    /// powers as multiply chains so the block sub-loop autovectorizes.
    /// Inlined into each [`LaneIsa`] copy of [`density_chunk_lanes_at`].
    #[inline(always)]
    fn density_chunk_lanes(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        rho: &mut [f64],
        g: &LaneGather,
    ) -> f64 {
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
        for (i, row) in nl.rows(rows, true) {
            let xi = g.xs[i];
            let yi = g.ys[i];
            let zi = g.zs[i];
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
    /// rows' virial partial. Inlined into each [`LaneIsa`] copy of
    /// [`force_chunk_lanes_at`].
    #[inline(always)]
    fn force_chunk_lanes(
        &self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        dembed: &[f64],
        g: &LaneGather,
        acc: &mut LaneAccum,
    ) -> f64 {
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
        for (i, row) in nl.rows(rows, true) {
            let xi = g.xs[i];
            let yi = g.ys[i];
            let zi = g.zs[i];
            let de_i = dembed[i];
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
        gather.load(sys.x, ghost_position(sys.bx));
        let mut rho = std::mem::take(&mut self.rho);
        rho.clear();
        rho.resize(n + 1, 0.0);
        let e_pair = density_chunk_lanes_at(self.isa, self, sys, nl, 0..n, &mut rho, &gather);
        let mut dembed = std::mem::take(&mut self.dembed);
        dembed.clear();
        dembed.resize(n + 1, 0.0);
        let e_embed = self.embed_slice(&rho[..n], &mut dembed[..n]);
        let mut accum = std::mem::take(&mut self.accum);
        accum.reset(n);
        let virial =
            force_chunk_lanes_at(self.isa, self, sys, nl, 0..n, &dembed, &gather, &mut accum);
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
                    e_pair += (self.a / r).powi(Self::N);
                    let d = (self.a / r).powi(Self::M);
                    rho[i] += d;
                    rho[j] += d;
                }
            }
        }
        let embed: f64 = rho.iter().map(|&r| -self.c * r.sqrt()).sum();
        self.epsilon * (e_pair + embed)
    }
}

md_core::lane_dispatch! {
    /// [`SuttonChenEam::density_chunk_lanes`] compiled for `isa`.
    pub(crate) fn density_chunk_lanes_at(
        eam: &SuttonChenEam,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        rho: &mut [f64],
        g: &LaneGather,
    ) -> f64 {
        eam.density_chunk_lanes(sys, nl, rows, rho, g)
    }
}

md_core::lane_dispatch! {
    /// [`SuttonChenEam::force_chunk_lanes`] compiled for `isa`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn force_chunk_lanes_at(
        eam: &SuttonChenEam,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        rows: Range<usize>,
        dembed: &[f64],
        g: &LaneGather,
        acc: &mut LaneAccum,
    ) -> f64 {
        eam.force_chunk_lanes(sys, nl, rows, dembed, g, acc)
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

    /// `fcc(cells, 3.615)` jittered deterministically so densities are
    /// asymmetric.
    fn jittered_fcc(cells: usize) -> (SimBox, Vec<V3>) {
        let (bx, x) = fcc(cells, 3.615);
        let x = x
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let s = (i as f64 * 0.7368).sin() * 0.12;
                Vec3::new(p.x + s, p.y - 0.5 * s, p.z + 0.3 * s)
            })
            .collect();
        (bx, x)
    }

    /// Runs `body` on a copper `PairSystem` over `x` at rest.
    fn with_sys<R>(bx: &SimBox, x: &[V3], body: impl FnOnce(&PairSystem<'_>) -> R) -> R {
        let v = vec![Vec3::zero(); x.len()];
        let kinds = vec![0u32; x.len()];
        let charge = vec![0.0; x.len()];
        let radius = vec![0.0; x.len()];
        let masses = vec![63.546];
        let units = UnitSystem::metal();
        body(&PairSystem {
            bx,
            x,
            v: &v,
            kinds: &kinds,
            charge: &charge,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 0.001,
        })
    }

    /// What the two scalar passes give with the exponents as runtime values
    /// (through `black_box`, so `powi` stays the out-of-line `__powidf2`
    /// loop). The per-row partials are kept because a one-ulp change in a
    /// single pair term rarely survives rounding into the ~5 k-term totals.
    struct RuntimeExponentOracle {
        e_pair: f64,
        e_rows: Vec<f64>,
        rho: Vec<f64>,
        dembed: Vec<f64>,
        f: Vec<V3>,
        virial: f64,
        virial_rows: Vec<f64>,
    }

    fn runtime_exponent_oracle(
        eam: &SuttonChenEam,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
    ) -> RuntimeExponentOracle {
        let (n, m) = (std::hint::black_box(9), std::hint::black_box(6));
        let natoms = sys.x.len();
        let cut2 = eam.cutoff * eam.cutoff;
        let pairs = |i: usize| {
            nl.neighbors(i).iter().filter_map(move |&j| {
                let ju = j as usize;
                let d = sys.bx.min_image(sys.x[i], sys.x[ju]);
                let r2 = d.norm2();
                (r2 < cut2).then_some((ju, d, r2))
            })
        };
        let mut e_pair = 0.0;
        let mut e_rows = vec![0.0; natoms];
        let mut rho = vec![0.0; natoms];
        for i in 0..natoms {
            for (ju, _, r2) in pairs(i) {
                let ar = eam.a / r2.sqrt();
                let rep = ar.powi(n);
                e_pair += rep;
                e_rows[i] += rep;
                let dens = ar.powi(m);
                rho[i] += dens;
                rho[ju] += dens;
            }
        }
        let mut dembed = vec![0.0; natoms];
        eam.embed_slice(&rho, &mut dembed);
        let mut f = vec![Vec3::zero(); natoms];
        let mut virial = 0.0;
        let mut virial_rows = vec![0.0; natoms];
        for i in 0..natoms {
            let mut fi = Vec3::zero();
            for (ju, d, r2) in pairs(i) {
                let r = r2.sqrt();
                let ar = eam.a / r;
                let dpair = n as f64 * ar.powi(n);
                let ddens = m as f64 * ar.powi(m);
                let fpair = eam.epsilon * (dpair + (dembed[i] + dembed[ju]) * ddens) / r2;
                let df = d * fpair;
                fi += df;
                f[ju] -= df;
                virial += r2 * fpair;
                virial_rows[i] += r2 * fpair;
            }
            f[i] += fi;
        }
        RuntimeExponentOracle {
            e_pair,
            e_rows,
            rho,
            dembed,
            f,
            virial,
            virial_rows,
        }
    }

    fn lattice_energy_per_atom(a0: f64) -> f64 {
        let mut eam = SuttonChenEam::copper();
        let (bx, x) = fcc(4, a0);
        let mut nl = NeighborList::new(eam.cutoff(), 0.0, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let mut f = vec![Vec3::zero(); x.len()];
        let e = with_sys(&bx, &x, |sys| eam.compute(sys, &nl, &mut f));
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
        let mut eam2 = eam.clone();
        let mut f = vec![Vec3::zero(); 3];
        with_sys(&bx, &x, |sys| eam2.compute(sys, &nl, &mut f));
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
        let (bx, x) = jittered_fcc(3);
        let mut eam = SuttonChenEam::copper();
        let mut nl = NeighborList::new(eam.cutoff(), 0.3, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let mut f_ref = vec![Vec3::zero(); x.len()];
        let e_ref = with_sys(&bx, &x, |sys| eam.compute(sys, &nl, &mut f_ref));

        nl.set_padding(md_core::LANES).unwrap();
        eam.set_kernel_path(md_core::KernelPath::Lanes);
        let mut f_lanes = vec![Vec3::zero(); x.len()];
        let e_lanes = with_sys(&bx, &x, |sys| eam.compute(sys, &nl, &mut f_lanes));

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
    fn constant_exponents_match_runtime_oracle_bitwise() {
        let (bx, x) = jittered_fcc(4);
        let mut eam = SuttonChenEam::copper();
        let mut nl = NeighborList::new(eam.cutoff(), 0.3, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let natoms = x.len();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|e| e.to_bits()).collect() };
        let vbits = |v: &[V3]| -> Vec<[u64; 3]> {
            v.iter()
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        with_sys(&bx, &x, |sys| {
            let want = runtime_exponent_oracle(&eam, sys, &nl);
            assert!(
                want.rho.iter().all(|&r| r > 0.0),
                "every atom has neighbors"
            );

            // Whole range, as the serial kernel runs it.
            let mut rho = vec![0.0; natoms];
            let e_pair = eam.density_chunk(sys, &nl, 0..natoms, &mut rho);
            assert_eq!(e_pair.to_bits(), want.e_pair.to_bits(), "pair repulsion");
            assert_eq!(bits(&rho), bits(&want.rho), "rho");
            let mut f = vec![Vec3::zero(); natoms];
            let virial = eam.force_chunk(sys, &nl, 0..natoms, &want.dembed, &mut f);
            assert_eq!(
                virial.to_bits(),
                want.virial.to_bits(),
                "force_chunk virial"
            );
            assert_eq!(vbits(&f), vbits(&want.f), "force_chunk forces");

            // Row by row, so each row's partial is compared on its own.
            let mut rho = vec![0.0; natoms];
            let mut f = vec![Vec3::zero(); natoms];
            for i in 0..natoms {
                let e_row = eam.density_chunk(sys, &nl, i..i + 1, &mut rho);
                assert_eq!(e_row.to_bits(), want.e_rows[i].to_bits(), "row {i} pair");
                let v_row = eam.force_chunk(sys, &nl, i..i + 1, &want.dembed, &mut f);
                assert_eq!(
                    v_row.to_bits(),
                    want.virial_rows[i].to_bits(),
                    "row {i} virial"
                );
            }
            assert_eq!(bits(&rho), bits(&want.rho), "row-by-row rho");
            assert_eq!(vbits(&f), vbits(&want.f), "row-by-row forces");

            let mut f = vec![Vec3::zero(); natoms];
            let ev = eam.compute(sys, &nl, &mut f);
            let mut dembed = vec![0.0; natoms];
            let e_embed = eam.embed_slice(&want.rho, &mut dembed);
            let evdwl = eam.epsilon * want.e_pair + eam.epsilon * e_embed;
            assert_eq!(ev.evdwl.to_bits(), evdwl.to_bits(), "evdwl");
            assert_eq!(ev.virial.to_bits(), want.virial.to_bits(), "compute virial");
            assert_eq!(vbits(&f), vbits(&want.f), "compute forces");
        });
    }

    #[test]
    fn rejects_bad_scales() {
        assert!(SuttonChenEam::new(-0.01, 3.6, 39.0, 4.95).is_err());
    }
}
