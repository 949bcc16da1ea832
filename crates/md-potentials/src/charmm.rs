//! CHARMM-style Lennard-Jones with switching plus real-space long-range
//! Coulomb (LAMMPS `lj/charmm/coul/long`) — the Rhodopsin pair style.
//!
//! The LJ part switches smoothly to zero between an inner and an outer
//! cutoff; the Coulomb part is the Ewald/PPPM *real-space* term
//! `q_i q_j erfc(g r) / r`, whose reciprocal-space complement lives in
//! `md-kspace`. Cross-type LJ coefficients mix arithmetically
//! (`pair_modify mix arithmetic`, paper Table 2).
//!
//! ## The real-space Coulomb table
//!
//! Per pair the kernels need two factors of `r` alone, the energy factor
//! `E = erfc(g r)/r` and the force factor
//! `F = [erfc(g r) + 2 g r/√π · e^{−g² r²}]/r³ = −(1/r) dE/dr`. Neither is
//! evaluated per pair: [`LjCharmmCoulLong::set_g_ewald`] tabulates both once
//! per `g_ewald` over `r²`, as LAMMPS's `coul/long` styles do
//! (`pair_modify table`, on by default and so what the paper's stock decks
//! ran), and a pair costs a shift, one cache line and six multiply-adds.
//!
//! * **Knots** are the `f64` values of `r²` whose low `52 − 9` significand
//!   bits are zero: 2⁹ per octave, evenly spaced inside an octave, so the
//!   segment a pair falls in is `r².to_bits() >> 43` minus the first
//!   segment's key, and its position inside the segment is the 43 bits
//!   shifted out. No `sqrt`, no divide, no search.
//! * **Span**: from the power of two six octaves below the octave of
//!   `cut_coul²` up to the segment that holds `cut_coul²` — `r` from 1 Å to
//!   the 10 Å cutoff on the rhodo deck, 3361 segments of 64 bytes (210 KiB),
//!   one table per style, shared read-only by every [`crate::Threaded`]
//!   chunk.
//! * **Segments** hold the two cubic Hermite interpolants through the knot
//!   values and the analytic slopes `dE/d(r²) = −F/2` and `dF/d(r²)`, as
//!   Horner coefficients. Value and slope match at every knot, so `E` and `F`
//!   are C¹ across segments and octaves.
//! * **Error** against the analytic expressions, over the whole span:
//!   ≤ 6e-11 relative at the deck's `g = 0.273 Å⁻¹` (k-space threshold
//!   1e-4), ≤ 4.4e-10 at `g = 0.377` (threshold 1e-7, the tightest the paper
//!   sweeps); it grows like `(g r_c)⁸` and is largest next to the cutoff,
//!   where the factors themselves are smallest. `F` is tabulated, not
//!   differentiated from the `E` table, so force and energy agree to the
//!   same bound (a central difference of the tabulated energy meets the
//!   tabulated force within 1e-6).
//! * **Below the inner radius** (`r² <` first knot) the kernels evaluate the
//!   analytic expression with `erfc` and `exp`. No bonded-excluded deck pair
//!   gets there; a test gas with overlapping atoms does, and gets the exact
//!   value instead of an extrapolated one.
//! * **`g_ewald = 0`** (no solver attached) has no table: plain truncated
//!   `q q / r`.
//!
//! There is no switch for the table. The per-pair `erfc` kernel it replaced
//! was ~9× slower on the rhodo deck and no more accurate than the k-space
//! half of the sum it is added to (whose error is the threshold, ≥ 1e-7), so
//! nothing would select it.

use crate::mixing::MixingRule;
use md_core::kernel::{
    ghost_position, lane_mask, lane_min_image, lane_wrap_params, KernelPath, LANES,
};
use md_core::math::erfc;
use md_core::neighbor::NeighborList;
use md_core::{CoreError, EnergyVirial, LaneAccum, LaneGather, PairStyle, PairSystem, Vec3, V3};
use std::f64::consts::FRAC_2_SQRT_PI;
use std::ops::Range;

/// Knots per octave of `r²`, as a bit count: a knot is every `f64` whose
/// low `52 − TABLE_BITS` significand bits are zero.
const TABLE_BITS: u32 = 9;
/// How far right the bits of `r²` shift to leave exponent + knot bits.
const KEY_SHIFT: u32 = 52 - TABLE_BITS;
/// Octaves of `r²` the table spans below the octave that holds `cut_coul²`.
const TABLE_OCTAVES_BELOW: u64 = 6;

/// One knot interval of the [`CoulTable`]: both cubics in Horner order,
/// exactly one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Segment {
    energy: [f64; 4],
    force: [f64; 4],
}

/// The `r²`-indexed table of the damped Coulomb factors (see the module docs).
#[derive(Debug, Clone)]
struct CoulTable {
    g: f64,
    /// Below this `r²` the kernels evaluate [`damped_coulomb`] instead.
    inner2: f64,
    /// `r².to_bits() >> KEY_SHIFT` of the first and the last segment.
    key_lo: u64,
    key_hi: u64,
    segments: Vec<Segment>,
}

impl CoulTable {
    fn new(g: f64, cut_coul: f64) -> Self {
        let cut2 = cut_coul * cut_coul;
        let key_hi = cut2.to_bits() >> KEY_SHIFT;
        let key_lo = ((cut2.to_bits() >> 52).saturating_sub(TABLE_OCTAVES_BELOW)) << TABLE_BITS;
        let knot = |key: u64| f64::from_bits(key << KEY_SHIFT);
        let knots: Vec<[f64; 4]> = (key_lo..=key_hi + 1)
            .map(|key| damped_coulomb(g, knot(key)))
            .collect();
        let segments = (key_lo..=key_hi)
            .zip(knots.windows(2))
            .map(|(key, w)| {
                let h = knot(key + 1) - knot(key);
                let [e0, f0, de0, df0] = w[0];
                let [e1, f1, de1, df1] = w[1];
                Segment {
                    energy: hermite(e0, e1, h * de0, h * de1),
                    force: hermite(f0, f1, h * df0, h * df1),
                }
            })
            .collect();
        CoulTable {
            g,
            inner2: knot(key_lo),
            key_lo,
            key_hi,
            segments,
        }
    }

    /// `(erfc(g r)/r, [erfc(g r) + 2 g r/√π · e^{−g² r²}]/r³)` at `r²`, read
    /// from the table: a shift, a clamp, one cache line and six
    /// multiply-adds. Meaningful for `inner2 ≤ r² < cut_coul²`; outside it
    /// the clamp keeps the result finite (lanes that are masked off, or
    /// re-evaluated by the caller, still pass through here).
    #[inline(always)]
    fn lookup(&self, r2: f64) -> (f64, f64) {
        let bits = r2.to_bits();
        let key = (bits >> KEY_SHIFT).clamp(self.key_lo, self.key_hi);
        let seg = &self.segments[(key - self.key_lo) as usize];
        // The bits below the knot bits, moved to the top of a significand
        // in [1, 2): the position inside the segment, in [0, 1).
        let below = bits & ((1u64 << KEY_SHIFT) - 1);
        let t = f64::from_bits(1.0f64.to_bits() | (below << TABLE_BITS)) - 1.0;
        let [e0, e1, e2, e3] = seg.energy;
        let [f0, f1, f2, f3] = seg.force;
        (
            e0 + t * (e1 + t * (e2 + t * e3)),
            f0 + t * (f1 + t * (f2 + t * f3)),
        )
    }
}

/// Coefficients, in `t ∈ [0, 1]`, of the cubic through `(0, y0)` and
/// `(1, y1)` with slopes `d0` and `d1` there.
fn hermite(y0: f64, y1: f64, d0: f64, d1: f64) -> [f64; 4] {
    let dy = y1 - y0;
    [y0, d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy]
}

/// The damped Coulomb factors at `u = r²` from `erfc` and `exp` directly,
/// with their slopes in `u`: `[E, F, dE/du, dF/du]`, `E = erfc(g r)/r` and
/// `F = −(1/r) dE/dr`. The table is built from all four; below its inner
/// radius the kernels take the first two.
fn damped_coulomb(g: f64, u: f64) -> [f64; 4] {
    let r = u.sqrt();
    let e = erfc(g * r) / r;
    let gauss = FRAC_2_SQRT_PI * g * (-g * g * u).exp();
    let f = (e + gauss) / u;
    let df = -0.5 * (3.0 * e + gauss * (3.0 + 2.0 * g * g * u)) / (u * u);
    [e, f, -0.5 * f, df]
}

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
    /// `1/(outer_lj² − inner_lj²)³`, the switching taper's normalisation.
    switch_scale: f64,
    cut_coul: f64,
    /// The real-space Coulomb table for the current Ewald splitting
    /// parameter; `None` while that is 0 (plain truncated `q q / r`).
    table: Option<CoulTable>,
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
            switch_scale: (outer_lj * outer_lj - inner_lj * inner_lj).powi(-3),
            cut_coul,
            table: None,
            path: KernelPath::default(),
            gather: LaneGather::default(),
            accum: LaneAccum::default(),
        })
    }

    /// Sets the Ewald splitting parameter (the k-space solver knows it) and
    /// builds the real-space table for it.
    ///
    /// With `g_ewald = 0` the Coulomb term degenerates to a plain truncated
    /// `q q / r`, which is also what tests without a k-space solver expect.
    pub fn set_g_ewald(&mut self, g: f64) {
        self.table = (g > 0.0).then(|| CoulTable::new(g, self.cut_coul));
    }

    /// The current Ewald splitting parameter.
    pub fn g_ewald(&self) -> f64 {
        self.table.as_ref().map_or(0.0, |t| t.g)
    }

    /// Energy and force factors of the Coulomb term at `r² < cut_coul²`:
    /// the pair's energy is `q q ·` the first, its `fpair` share `q q ·` the
    /// second.
    #[inline(always)]
    fn coul_factors(&self, r2: f64) -> (f64, f64) {
        match &self.table {
            Some(t) if r2 >= t.inner2 => t.lookup(r2),
            Some(t) => {
                let [e, f, ..] = damped_coulomb(t.g, r2);
                (e, f)
            }
            None => bare_coulomb(r2),
        }
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

    /// Lane-blocked kernel: displacement, LJ + switching (selects instead of
    /// the `switch` branches) and the tabulated Coulomb term run as one
    /// branch-free 8-wide arithmetic loop per block. The one thing that loop
    /// cannot do — `erfc` for a pair closer than the table's inner radius —
    /// is patched in afterwards, for the blocks that hold such a pair.
    /// Accumulation order per pair matches the reference kernel.
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
        let ri2 = self.inner_lj * self.inner_lj;
        let ro2 = self.outer_lj * self.outer_lj;
        let scale = self.switch_scale;
        let table = self.table.as_ref();
        let inner2 = table.map_or(0.0, |t| t.inner2);
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
        let mut fljb = [0.0f64; LANES];
        let mut qqb = [0.0f64; LANES];
        let mut fpb = [0.0f64; LANES];
        let mut elb = [0.0f64; LANES];
        let mut ecb = [0.0f64; LANES];
        for i in rows {
            let xi = gather.xs[i];
            let yi = gather.ys[i];
            let zi = gather.zs[i];
            let qi = qqr2e * gather.qs[i];
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
                let mut below_inner = false;
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
                    let b = ro2 + 2.0 * r2 - 3.0 * ri2;
                    let in_core = r2 <= ri2;
                    let s = if in_core { 1.0 } else { a * a * b * scale };
                    let ds = if in_core {
                        0.0
                    } else {
                        2.0 * a * (a - b) * scale
                    };
                    let f_lj = (f_lj * s - 2.0 * e_lj * ds) * m;
                    elb[lane] = e_lj * s * m;
                    // Coulomb: lanes beyond the cutoff (the sentinel's among
                    // them) carry a zero charge product through the lookup.
                    let qq = qi * qjb[lane] * lane_mask(r2 < cut_coul2);
                    let (ce, cf) = match table {
                        Some(t) => t.lookup(r2),
                        None => bare_coulomb(r2),
                    };
                    below_inner |= r2 < inner2;
                    fljb[lane] = f_lj;
                    qqb[lane] = qq;
                    ecb[lane] = qq * ce;
                    fpb[lane] = f_lj + qq * cf;
                }
                if let (true, Some(t)) = (below_inner, table) {
                    for lane in 0..LANES {
                        if r2b[lane] < inner2 {
                            let [ce, cf, ..] = damped_coulomb(t.g, r2b[lane]);
                            ecb[lane] = qqb[lane] * ce;
                            fpb[lane] = fljb[lane] + qqb[lane] * cf;
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
                    ecoul += ecb[lane];
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
        let nt = self.ntypes;
        let mut evdwl = 0.0;
        let mut ecoul = 0.0;
        let mut virial = 0.0;
        for i in rows {
            let xi = sys.x[i];
            let trow = sys.kinds[i] as usize * nt;
            let qi = qqr2e * sys.charge[i];
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
                    let qq = qi * sys.charge[ju];
                    let (ce, cf) = self.coul_factors(r2);
                    ecoul += qq * ce;
                    fpair += qq * cf;
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
    #[inline(always)]
    fn switch(&self, r2: f64) -> (f64, f64) {
        let ri2 = self.inner_lj * self.inner_lj;
        let ro2 = self.outer_lj * self.outer_lj;
        if r2 <= ri2 {
            (1.0, 0.0)
        } else if r2 >= ro2 {
            (0.0, 0.0)
        } else {
            // s = a² b / (ro2 − ri2)³, ds/d(r2) = (−2ab + 2a²) / (ro2 − ri2)³
            let a = ro2 - r2;
            let b = ro2 + 2.0 * r2 - 3.0 * ri2;
            (
                a * a * b * self.switch_scale,
                2.0 * a * (a - b) * self.switch_scale,
            )
        }
    }
}

/// Plain `q q / r`: the factors with no Ewald splitting.
#[inline(always)]
fn bare_coulomb(r2: f64) -> (f64, f64) {
    let inv_r = 1.0 / r2.sqrt();
    (inv_r, inv_r / r2)
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

    fn set_g_ewald(&mut self, g: f64) {
        LjCharmmCoulLong::set_g_ewald(self, g);
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
        // The tabulated force against the slope of the tabulated energy,
        // Coulomb alone (epsilon 0) and a five-point stencil so that neither
        // LJ curvature nor truncation hides a table error: below the inner
        // radius, on it, on an octave boundary, mid-table, next to the cutoff.
        let mut s = LjCharmmCoulLong::new(1, &[(0, 0.0, 3.0)], 8.0, 10.0, 10.0).unwrap();
        s.set_g_ewald(0.273);
        let h = 1e-3;
        for r in [0.9, 1.0, 1.5, 4.0, 8.0, 9.0, 9.99] {
            let mut e = |r: f64| charged_dimer(&mut s, r, 0.5, -0.4).0.ecoul;
            let dedr =
                (e(r - 2.0 * h) - 8.0 * e(r - h) + 8.0 * e(r + h) - e(r + 2.0 * h)) / (12.0 * h);
            let (_, f) = charged_dimer(&mut s, r, 0.5, -0.4);
            assert!(
                (f[1].x + dedr).abs() <= 1e-6 * dedr.abs(),
                "r = {r}: {} vs {}",
                f[1].x,
                -dedr
            );
        }
    }

    /// 32 + 32 opposite charges with LJ cores under NVE: the total energy
    /// over 200 steps of 0.5 fs moves by what velocity Verlet itself leaves at
    /// this timestep, 2.2e-4 of the starting kinetic energy — with the
    /// per-pair erfc kernel this table replaced just as with the table.
    #[test]
    fn charged_box_conserves_energy_under_nve() {
        use md_core::integrate::VelocityVerlet;
        use md_core::{AtomStore, Simulation};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let units = UnitSystem::real();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut atoms = AtomStore::new();
        for k in 0..64 {
            let cell = [k % 4, k / 4 % 4, k / 16];
            let [x, y, z] = cell.map(|c| 6.0 * c as f64 + 2.0 + 2.0 * rng.gen::<f64>());
            let q = if (cell[0] + cell[1] + cell[2]) % 2 == 0 {
                0.4
            } else {
                -0.4
            };
            atoms.push_full(Vec3::new(x, y, z), Vec3::zero(), 0, q, 0.0, 0);
        }
        atoms.set_masses(vec![16.0]);
        md_core::compute::seed_velocities(&mut atoms, &units, 300.0, 7);
        let mut pair = style();
        pair.set_g_ewald(0.273);
        let mut sim = Simulation::builder(SimBox::cubic(24.0), atoms, units)
            .pair(Box::new(pair))
            .integrator(Box::new(VelocityVerlet::new()))
            .skin(2.0)
            .dt(0.5)
            .build()
            .unwrap();
        let start = sim.thermo();
        sim.run(200).unwrap();
        let drift = ((sim.thermo().total_energy() - start.total_energy()) / start.kinetic).abs();
        assert!(drift < 4e-4, "energy drift {drift:e} of the kinetic energy");
    }

    /// Largest relative error of the style's Coulomb factors against
    /// [`damped_coulomb`] over `r2s`.
    fn max_table_error(s: &LjCharmmCoulLong, r2s: impl Iterator<Item = f64>) -> f64 {
        let g = s.g_ewald();
        r2s.map(|r2| {
            let (e, f) = s.coul_factors(r2);
            let [e_ref, f_ref, ..] = damped_coulomb(g, r2);
            ((e - e_ref) / e_ref).abs().max(((f - f_ref) / f_ref).abs())
        })
        .fold(0.0, f64::max)
    }

    #[test]
    fn tabulated_factors_match_the_analytic_ones() {
        // The deck's splitting at its stock threshold (1e-4) and at the
        // tightest one the paper sweeps (1e-7).
        for g in [0.273, 0.377] {
            let mut s = style();
            s.set_g_ewald(g);
            let t = s.table.as_ref().unwrap();
            let (inner2, cut2) = (t.inner2, 100.0);
            assert!(inner2 <= 1.0 && std::mem::size_of_val(&t.segments[..]) <= 256 * 1024);
            let n = 400_000;
            let sweep = (0..=n).map(|k| {
                let r = inner2.sqrt() + (10.0 - inner2.sqrt()) * k as f64 / n as f64;
                (r * r).clamp(inner2, cut2)
            });
            let err = max_table_error(&s, sweep);
            assert!(err <= 1e-9, "g = {g}: sweep error {err:e}");
            // Both table ends, and knots (an octave boundary and an interior
            // one) with their neighbours one ulp either side.
            let ulp = |x: f64, by: i64| f64::from_bits((x.to_bits() as i64 + by) as u64);
            let knots = [2.0 * inner2, 64.0, 64.125];
            let edges = [inner2, ulp(inner2, 1), ulp(cut2, -1)]
                .into_iter()
                .chain(knots.into_iter().flat_map(|k| [ulp(k, -1), k, ulp(k, 1)]));
            let err = max_table_error(&s, edges);
            assert!(err <= 1e-9, "g = {g}: edge error {err:e}");
            // Below the inner radius the analytic expression answers, exactly.
            let below = [0.01, 0.5 * inner2, ulp(inner2, -1)];
            assert_eq!(max_table_error(&s, below.into_iter()), 0.0);
        }
    }

    #[test]
    fn set_g_ewald_rebuilds_the_table() {
        let mut s = style();
        s.set_g_ewald(0.25);
        assert_eq!(s.g_ewald(), 0.25);
        let (first, f_first) = charged_dimer(&mut s, 5.0, 1.0, 1.0);
        s.set_g_ewald(0.35);
        assert_eq!(s.g_ewald(), 0.35);
        let (second, _) = charged_dimer(&mut s, 5.0, 1.0, 1.0);
        let qqr2e = UnitSystem::real().qqr2e;
        for (e, g) in [(first, 0.25), (second, 0.35)] {
            let want = qqr2e * erfc(g * 5.0) / 5.0;
            assert!((e.ecoul - want).abs() <= 1e-9 * want, "g = {g}");
        }
        s.set_g_ewald(0.25);
        let (again, f_again) = charged_dimer(&mut s, 5.0, 1.0, 1.0);
        assert_eq!(again.ecoul.to_bits(), first.ecoul.to_bits());
        assert_eq!(f_again, f_first);
        s.set_g_ewald(0.0);
        assert!(s.table.is_none());
        let (bare, _) = charged_dimer(&mut s, 5.0, 1.0, 1.0);
        assert!((bare.ecoul - qqr2e / 5.0).abs() <= 1e-12 * bare.ecoul);
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
