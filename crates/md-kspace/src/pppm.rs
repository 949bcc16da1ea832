//! Particle-particle particle-mesh (LAMMPS `kspace_style pppm`).
//!
//! The long-range Coulomb contribution is computed by (1) spreading charges
//! onto a regular 2·3·5-smooth mesh with cardinal B-spline weights, (2) a
//! forward 3D FFT, (3) multiplication with LAMMPS's optimal influence
//! function for ik differentiation (Hockney & Eastwood; `compute_gf_ik`),
//! (4) ik-differentiation into three field meshes and three inverse FFTs,
//! and (5) interpolation of the field back to the particles with the same
//! weights — the `make_rho` / `particle_map` / FFT / `interp` kernel
//! structure the paper's Figure 8 shows dominating the Rhodopsin GPU
//! profile. The Deserno–Holm error estimate that sizes the mesh
//! ([`crate::accuracy`]) assumes this influence function.

use crate::accuracy::KspaceAccuracy;
use crate::complex::Complex;
use crate::fft::{Direction, Fft3d};
use md_core::force::KspaceStats;
use md_core::threads::fork_join;
use md_core::{CoreError, EnergyVirial, KspaceStyle, Result, SimBox, Threads, Vec3, V3};
use md_observe::Recorder;

/// Trace lane the solver reports on (shares the engine's lane so the
/// sub-spans nest under the driver's `Kspace` span).
const KSPACE_LANE: u32 = 0;

/// Maximum supported assignment order (matches [`crate::accuracy::MAX_ORDER`]).
const MAX_ORDER: usize = 5;

/// Relative size below which LAMMPS stops the influence function's alias
/// sums (`EPS_HOC` in `pppm.cpp`).
const EPS_HOC: f64 = 1e-7;

/// The PPPM solver.
#[derive(Debug, Clone)]
pub struct Pppm {
    cutoff: f64,
    relative_error: f64,
    order: usize,
    g_ewald: f64,
    grid: [usize; 3],
    fft: Option<Fft3d>,
    /// Per-axis factors of the influence function (x, y, z).
    axes: [AxisFactors; 3],
    /// The box lengths `green` and `axes` were built for.
    built_for: V3,
    /// Influence function per mesh point, without its `4π` (zero at k = 0).
    green: Vec<f64>,
    qsqsum: f64,
    qsum: f64,
    estimated_error: f64,
    qqr2e: f64,
    /// Scratch meshes: the charge density as spread, then as transformed;
    /// the three field components in k-space and back, and their real parts
    /// interleaved per point for the interpolation to gather.
    density: Vec<f64>,
    rho: Vec<Complex>,
    field: [Vec<Complex>; 3],
    efield: Vec<[f64; 3]>,
    /// Per-atom scratch kept across calls, shared by spread and interp: each
    /// atom's `order` mesh offsets per axis, wrapped into the mesh once and
    /// multiplied by the axis stride (1, nx, nx·ny), and its B-spline
    /// weights per axis.
    stencils: Vec<[[u32; MAX_ORDER]; 3]>,
    weights: Vec<[[f64; MAX_ORDER]; 3]>,
    /// Per-z-plane energy partials of the k-space pass.
    energy_parts: Vec<f64>,
    recorder: Recorder,
    /// Shared-memory threading knob. Every parallel section here (B-spline
    /// weights, charge spread, FFT line batches, k-space field,
    /// interpolation) decomposes by mesh slab or atom stripe with a fixed
    /// reduction order, so the result is bitwise identical to serial at ANY
    /// thread count. Each section is one `fork_join` over one loop body; on one
    /// thread its single part runs inline.
    threads: Threads,
}

/// One axis's share of the influence function for a box length: every
/// transcendental the function needs is a per-axis factor, so the mesh
/// assembly in [`Pppm::build_tables`] is multiplies and divides only.
#[derive(Debug, Clone, Default)]
struct AxisFactors {
    /// Wavenumber `2π m / L` per mesh index, `m` the signed mode (LAMMPS
    /// `kper`: the upper half of the indices, Nyquist included, is negative).
    k: Vec<f64>,
    /// Alias images per mesh index (`2·nb + 1`).
    images: usize,
    /// Per mesh index and image `a ∈ -nb..=nb`: the aliased wavenumber
    /// `q = 2π (m + a·n) / L` and `exp(-q²/4g²) · sinc²ᵖ(π(m + a·n)/n) / D(m)²`,
    /// where `D` is this axis's factor of LAMMPS's `gf_denom`.
    aliases: Vec<(f64, f64)>,
}

impl AxisFactors {
    /// Tabulates one axis of `n` mesh points over a box length `len`.
    fn build(&mut self, n: usize, len: f64, g_ewald: f64, order: usize) {
        use std::f64::consts::PI;
        let nb = (g_ewald * len / (PI * n as f64) * (-EPS_HOC.ln()).powf(0.25)) as i64;
        let denom = gf_denom_coeffs(order);
        self.images = 2 * nb as usize + 1;
        self.k.clear();
        self.aliases.clear();
        for i in 0..n {
            let m = if 2 * i < n {
                i as i64
            } else {
                i as i64 - n as i64
            };
            self.k.push(2.0 * PI * m as f64 / len);
            let sin2 = (PI * m as f64 / n as f64).sin().powi(2);
            let d = denom[..order]
                .iter()
                .rev()
                .fold(0.0, |acc, &b| b + acc * sin2);
            for a in -nb..=nb {
                let turns = (m + a * n as i64) as f64;
                let q = 2.0 * PI * turns / len;
                let arg = PI * turns / n as f64;
                let sinc = if arg == 0.0 { 1.0 } else { arg.sin() / arg };
                let s = (-0.25 * (q / g_ewald).powi(2)).exp();
                self.aliases
                    .push((q, s * sinc.powi(2 * order as i32) / (d * d)));
            }
        }
    }
}

/// Coefficients of LAMMPS's `gf_denom` polynomial (`compute_gf_denom`):
/// `Σ_b c_b s^b` with `s = sin²(k h / 2)` is the alias sum `Σ_a W²(k + 2πa/h)`
/// of one axis's order-`order` assignment function, in closed form.
fn gf_denom_coeffs(order: usize) -> [f64; MAX_ORDER] {
    let mut b = [0.0; MAX_ORDER];
    b[0] = 1.0;
    for m in 1..order {
        let m = m as f64;
        for l in (1..=m as usize).rev() {
            let lm = l as f64 - m;
            b[l] = 4.0 * (b[l] * lm * (lm - 0.5) - b[l - 1] * (lm - 1.0) * (lm - 1.0));
        }
        b[0] = 4.0 * (b[0] * -m * (-m - 0.5));
    }
    let gaminv = 1.0 / (1..2 * order).map(|k| k as f64).product::<f64>();
    for c in &mut b {
        *c *= gaminv;
    }
    b
}

impl Pppm {
    /// Creates a PPPM solver with assignment `order` (1..=5; LAMMPS default 5).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive cutoff, a relative error outside `(0, 1)`,
    /// or an unsupported order.
    pub fn new(cutoff: f64, relative_error: f64, order: usize) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        assert!(
            relative_error > 0.0 && relative_error < 1.0,
            "relative error must be in (0, 1)"
        );
        assert!(
            (1..=MAX_ORDER).contains(&order),
            "assignment order must be 1..={MAX_ORDER}"
        );
        Pppm {
            cutoff,
            relative_error,
            order,
            g_ewald: 0.0,
            grid: [0; 3],
            fft: None,
            axes: Default::default(),
            built_for: Vec3::zero(),
            green: Vec::new(),
            qsqsum: 0.0,
            qsum: 0.0,
            estimated_error: 0.0,
            qqr2e: 1.0,
            density: Vec::new(),
            rho: Vec::new(),
            field: [Vec::new(), Vec::new(), Vec::new()],
            efield: Vec::new(),
            stencils: Vec::new(),
            weights: Vec::new(),
            energy_parts: Vec::new(),
            recorder: Recorder::disabled(),
            threads: Threads::serial(),
        }
    }

    /// Sets the Coulomb conversion constant of the unit system.
    pub fn set_qqr2e(&mut self, qqr2e: f64) {
        self.qqr2e = qqr2e;
    }

    /// The splitting parameter chosen at setup.
    pub fn g_ewald(&self) -> f64 {
        self.g_ewald
    }

    /// Mesh dimensions chosen at setup.
    pub fn grid(&self) -> [usize; 3] {
        self.grid
    }

    /// Builds the influence function for box lengths `l`, holding the mesh
    /// and `g_ewald` fixed (LAMMPS `PPPM::setup`, which `FixNH::remap` calls
    /// after each dilation). The per-axis factors cost O(nx + ny + nz)
    /// transcendentals; the mesh costs, per point and alias image (one image
    /// per axis at the decks' `h·g`), a dozen multiplies and two divides.
    fn build_tables(&mut self, l: V3) {
        let [nx, ny, nz] = self.grid;
        for (d, axis) in self.axes.iter_mut().enumerate() {
            axis.build(self.grid[d], l[d], self.g_ewald, self.order);
        }
        let [ax, ay, az] = &self.axes;
        self.green.clear();
        for iz in 0..nz {
            let kz = az.k[iz];
            let zs = &az.aliases[iz * az.images..(iz + 1) * az.images];
            for iy in 0..ny {
                let ky = ay.k[iy];
                let ys = &ay.aliases[iy * ay.images..(iy + 1) * ay.images];
                for ix in 0..nx {
                    let kx = ax.k[ix];
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2 == 0.0 {
                        self.green.push(0.0);
                        continue;
                    }
                    let xs = &ax.aliases[ix * ax.images..(ix + 1) * ax.images];
                    let mut sum = 0.0;
                    for &(qx, fx) in xs {
                        for &(qy, fy) in ys {
                            for &(qz, fz) in zs {
                                let dot = kx * qx + ky * qy + kz * qz;
                                let q2 = qx * qx + qy * qy + qz * qz;
                                sum += dot / q2 * fx * fy * fz;
                            }
                        }
                    }
                    self.green.push(sum / k2);
                }
            }
        }
        self.built_for = l;
    }
}

/// Calls `f::<P>(args)` with the assignment order `$order` (1..=5) as a
/// constant, so the stencil loops of the kernels below unroll.
macro_rules! by_order {
    ($order:expr, $f:ident($($arg:expr),*)) => {
        match $order {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            _ => $f::<5>($($arg),*),
        }
    };
}

/// Spreads every atom's charge into `slab`, the z planes whose mesh offsets
/// start at `z_lo`. Each mesh point accumulates in atom order, whichever
/// worker owns it.
fn spread_slab<const P: usize>(
    slab: &mut [f64],
    z_lo: usize,
    stencils: &[[[u32; MAX_ORDER]; 3]],
    weights: &[[[f64; MAX_ORDER]; 3]],
    q: &[f64],
) {
    let z_hi = z_lo + slab.len();
    slab.fill(0.0);
    for ((&[sx, sy, sz], [wx, wy, wz]), &qi) in stencils.iter().zip(weights).zip(q) {
        for jz in 0..P {
            let oz = sz[jz] as usize;
            if oz < z_lo || oz >= z_hi {
                continue;
            }
            for jy in 0..P {
                let row = &mut slab[oz - z_lo + sy[jy] as usize..];
                let wzy = wz[jz] * wy[jy] * qi;
                for jx in 0..P {
                    row[sx[jx] as usize] += wzy * wx[jx];
                }
            }
        }
    }
}

/// Fills one stripe of atoms' stencils and weights: per axis, the `P` mesh
/// points ending at the one at or below the atom, wrapped into the mesh and
/// multiplied by the axis stride.
fn bspline_stripe<const P: usize>(
    x: &[V3],
    lo: V3,
    inv_l: V3,
    grid: [usize; 3],
    stencils: &mut [[[u32; MAX_ORDER]; 3]],
    weights: &mut [[[f64; MAX_ORDER]; 3]],
) {
    let strides = [1, grid[0], grid[0] * grid[1]];
    for ((xi, s3), w3) in x.iter().zip(stencils).zip(weights) {
        for d in 0..3 {
            let n = grid[d];
            let t = (xi[d] - lo[d]) * inv_l[d];
            let u = (t - t.floor()) * n as f64;
            let k0 = u.floor();
            w3[d] = fill_bspline::<P>(u - k0);
            // The fraction can round up to exactly 1.0 (a coordinate a hair
            // below `lo`), putting the atom on mesh point n ≡ 0.
            let mut g = if k0 as usize >= n { 0 } else { k0 as usize };
            for s in s3[d][..P].iter_mut().rev() {
                *s = (g * strides[d]) as u32;
                g = if g == 0 { n - 1 } else { g - 1 };
            }
        }
    }
}

/// Gathers the field at one stripe of atoms from the packed field mesh and
/// adds `pref · q` times it to their forces.
fn interp_stripe<const P: usize>(
    f: &mut [V3],
    q: &[f64],
    stencils: &[[[u32; MAX_ORDER]; 3]],
    weights: &[[[f64; MAX_ORDER]; 3]],
    efield: &[[f64; 3]],
    pref: f64,
) {
    let atoms = f.iter_mut().zip(q).zip(stencils).zip(weights);
    for (((fi, &qi), [sx, sy, sz]), [wx, wy, wz]) in atoms {
        let mut e_at = Vec3::zero();
        for jz in 0..P {
            for jy in 0..P {
                let row = sz[jz] as usize + sy[jy] as usize;
                let wzy = wz[jz] * wy[jy];
                for jx in 0..P {
                    let w = wzy * wx[jx];
                    let [ex, ey, ez] = efield[row + sx[jx] as usize];
                    e_at.x += w * ex;
                    e_at.y += w * ey;
                    e_at.z += w * ez;
                }
            }
        }
        *fi += e_at * (pref * qi);
    }
}

/// The `P` B-spline weights of a particle `w ∈ [0, 1]` past its mesh point,
/// by Essmann et al.'s O(p²) recursion (`fill_bspline`, J. Chem. Phys. 103,
/// 8577): entry `j` is `M_P(w + P - 1 - j)`, the weight of the `j`-th point
/// of the stencil that ends at the particle's mesh point.
fn fill_bspline<const P: usize>(w: f64) -> [f64; MAX_ORDER] {
    let mut c = [0.0; MAX_ORDER];
    if P == 1 {
        c[0] = 1.0;
        return c;
    }
    c[0] = 1.0 - w;
    c[1] = w;
    for n in 3..=P {
        let div = 1.0 / (n - 1) as f64;
        c[n - 1] = div * w * c[n - 2];
        for j in 1..n - 1 {
            c[n - 1 - j] =
                div * ((w + j as f64) * c[n - 2 - j] + ((n - j) as f64 - w) * c[n - 1 - j]);
        }
        c[0] *= div * (1.0 - w);
    }
    c
}

/// Cardinal B-spline `M_n(x)` with support `[0, n)`: the recursive
/// definition, kept as the oracle of [`fill_bspline`].
#[cfg(test)]
fn bspline(n: usize, x: f64) -> f64 {
    if x < 0.0 || x >= n as f64 {
        return 0.0;
    }
    if n == 1 {
        return 1.0; // box function on [0, 1)
    }
    if n == 2 {
        return 1.0 - (x - 1.0).abs();
    }
    let nm1 = (n - 1) as f64;
    (x / nm1) * bspline(n - 1, x) + ((n as f64 - x) / nm1) * bspline(n - 1, x - 1.0)
}

impl KspaceStyle for Pppm {
    fn name(&self) -> &'static str {
        "pppm"
    }

    fn setup(&mut self, bx: &SimBox, q: &[f64]) -> Result<()> {
        let natoms = q.len();
        let qsqsum: f64 = q.iter().map(|&qi| qi * qi).sum();
        if qsqsum <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "charges",
                reason: "pppm requires a charged system".to_string(),
            });
        }
        let l = bx.lengths();
        let acc = KspaceAccuracy::resolve(
            self.cutoff,
            self.relative_error,
            natoms,
            qsqsum,
            [l.x, l.y, l.z],
            self.order,
        )?;
        let [nx, ny, nz] = acc.grid;
        let mut fft = Fft3d::new(nx, ny, nz)?;
        let len = fft.len();
        if u32::try_from(len).is_err() {
            return Err(CoreError::InvalidParameter {
                name: "pppm mesh",
                reason: format!("{nx}×{ny}×{nz} points do not fit a u32 offset"),
            });
        }
        fft.set_threads(self.threads.count);
        fft.set_recorder(self.recorder.clone());
        self.g_ewald = acc.g_ewald;
        self.grid = acc.grid;
        self.estimated_error = acc.error_kspace.max(acc.error_real);
        self.qsqsum = qsqsum;
        self.qsum = q.iter().sum();
        self.build_tables(l);
        self.density = vec![0.0; len];
        self.rho = vec![Complex::ZERO; len];
        self.field = [
            vec![Complex::ZERO; len],
            vec![Complex::ZERO; len],
            vec![Complex::ZERO; len],
        ];
        self.efield = vec![[0.0; 3]; len];
        self.fft = Some(fft);
        Ok(())
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        if let Some(fft) = self.fft.as_mut() {
            fft.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    fn tighten_accuracy(&mut self) -> bool {
        // One notch = one decade of target error, the same granularity users
        // pick on the LAMMPS `kspace_modify` line. Floor well above f64
        // noise; report "no change" once pinned there.
        let tightened = (self.relative_error * 0.1).max(1e-12);
        if tightened >= self.relative_error {
            return false;
        }
        self.relative_error = tightened;
        true
    }

    fn set_threads(&mut self, threads: Threads) {
        self.threads = threads;
        if let Some(fft) = self.fft.as_mut() {
            fft.set_threads(threads.count);
        }
    }

    fn compute(&mut self, bx: &SimBox, x: &[V3], q: &[f64], f: &mut [V3]) -> EnergyVirial {
        let Some(mut fft) = self.fft.take() else {
            return EnergyVirial::default();
        };
        let l = bx.lengths();
        if l != self.built_for {
            self.build_tables(l);
        }
        let (nx, ny, nz) = fft.dims();
        let lo = bx.lo();
        let volume = bx.volume();
        let n_atoms = x.len();
        // Arc bump so the RAII span guards don't borrow `self`.
        let rec = self.recorder.clone();

        // 1. Charge assignment ("make_rho" + "particle_map").
        let span = rec.span(KSPACE_LANE, "kspace", "charge_assign");
        let order = self.order;
        let grid = self.grid;
        let plane = nx * ny;
        let inv_l = Vec3::new(1.0 / l.x, 1.0 / l.y, 1.0 / l.z);
        let stripe = self.threads.stripe(n_atoms);
        let planes_per = self.threads.stripe(nz);
        // Stencils and weights are per-atom elementwise: stripe-parallel.
        // Every entry is overwritten, so the resize is a no-op in steady
        // state.
        self.stencils.resize(n_atoms, [[0; MAX_ORDER]; 3]);
        self.weights.resize(n_atoms, [[0.0; MAX_ORDER]; 3]);
        let parts = self
            .stencils
            .chunks_mut(stripe)
            .zip(self.weights.chunks_mut(stripe));
        fork_join(parts, &rec, "pppm_bspline", |k, (ss, ws)| {
            let xs = &x[k * stripe..][..ss.len()];
            by_order!(order, bspline_stripe(xs, lo, inv_l, grid, ss, ws));
        });
        let (stencils, weights) = (&self.stencils, &self.weights);
        // Threaded by OWNED Z-SLAB: every worker walks all atoms but only
        // scatters into the contiguous range of z planes it owns. Each mesh
        // point therefore accumulates its contributions in atom order — the
        // exact order one thread owning every plane uses — so the mesh is
        // bitwise identical to serial at any thread count.
        let slab = plane * planes_per;
        let slabs = self.density.chunks_mut(slab).zip(self.rho.chunks_mut(slab));
        fork_join(slabs, &rec, "pppm_spread", |k, (dens, rho)| {
            by_order!(order, spread_slab(dens, k * slab, stencils, weights, q));
            for (r, &d) in rho.iter_mut().zip(dens.iter()) {
                *r = Complex::new(d, 0.0);
            }
        });
        drop(span);

        // 2. Forward FFT.
        let span = rec.span(KSPACE_LANE, "kspace", "fft_forward");
        fft.transform(&mut self.rho, Direction::Forward)
            .expect("mesh allocated at setup");
        drop(span);

        // 3. Energy and field meshes in k-space.
        //
        // The field writes are elementwise; the energy reduction is kept
        // thread-count invariant by always accumulating one partial per z
        // plane (in-plane flat order) and summing the partials in ascending
        // plane order, whether one thread runs all planes or many run slabs.
        let span = rec.span(KSPACE_LANE, "kspace", "kspace_field");
        let len = fft.len();
        let green = &self.green;
        let [kx, ky, kz] = [&self.axes[0].k, &self.axes[1].k, &self.axes[2].k];
        let rho = &self.rho;
        self.energy_parts.clear();
        self.energy_parts.resize(nz, 0.0);
        let [fx, fy, fz] = &mut self.field;
        let parts = fx
            .chunks_mut(slab)
            .zip(fy.chunks_mut(slab))
            .zip(fz.chunks_mut(slab))
            .zip(self.energy_parts.chunks_mut(planes_per));
        fork_join(parts, &rec, "pppm_field", |k, (((f0, f1), f2), eparts)| {
            let z_lo = k * planes_per;
            for (p, ep) in eparts.iter_mut().enumerate() {
                let iz = z_lo + p;
                for iy in 0..ny {
                    for ix in 0..nx {
                        let idx = (iz * ny + iy) * nx + ix;
                        let li = (p * ny + iy) * nx + ix;
                        let g = green[idx];
                        if g == 0.0 {
                            f0[li] = Complex::ZERO;
                            f1[li] = Complex::ZERO;
                            f2[li] = Complex::ZERO;
                            continue;
                        }
                        let r = rho[idx];
                        *ep += g * r.norm2();
                        // F̂_d = -i k_d G ρ̂.
                        let minus_i_rho = Complex::new(r.im, -r.re); // -i * rho
                        f0[li] = minus_i_rho.scale(g * kx[ix]);
                        f1[li] = minus_i_rho.scale(g * ky[iy]);
                        f2[li] = minus_i_rho.scale(g * kz[iz]);
                    }
                }
            }
        });
        let energy: f64 = self.energy_parts.iter().sum();
        drop(span);

        // 4. Three inverse FFTs (un-normalized: multiply back by mesh size).
        let span = rec.span(KSPACE_LANE, "kspace", "fft_inverse");
        for d in 0..3 {
            fft.transform(&mut self.field[d], Direction::Inverse)
                .expect("mesh allocated at setup");
        }
        drop(span);
        let scale_back = len as f64;

        // 5. Interpolate the field to the particles ("interp"). Per-atom
        // elementwise gather: stripe-parallel, bitwise identical to serial.
        let span = rec.span(KSPACE_LANE, "kspace", "field_interp");
        let force_pref = self.qqr2e * 4.0 * std::f64::consts::PI / volume * scale_back;
        let [ex, ey, ez] = &self.field;
        for (e, ((x, y), z)) in self.efield.iter_mut().zip(ex.iter().zip(ey).zip(ez)) {
            *e = [x.re, y.re, z.re];
        }
        let efield = &self.efield;
        fork_join(f.chunks_mut(stripe), &rec, "pppm_interp", |k, fs| {
            let at = k * stripe..k * stripe + fs.len();
            let (ss, ws, qs) = (&stencils[at.clone()], &weights[at.clone()], &q[at]);
            by_order!(order, interp_stripe(fs, qs, ss, ws, efield, force_pref));
        });
        drop(span);
        self.fft = Some(fft);

        // Energy: (2π/V)Σ G |ρ̂|², plus self/background corrections.
        let two_pi_over_v = 2.0 * std::f64::consts::PI / volume;
        let self_e = -self.g_ewald / std::f64::consts::PI.sqrt() * self.qsqsum;
        let background = -std::f64::consts::PI / (2.0 * volume * self.g_ewald * self.g_ewald)
            * self.qsum
            * self.qsum;
        let e_recip = two_pi_over_v * energy;
        EnergyVirial {
            evdwl: 0.0,
            ecoul: self.qqr2e * (e_recip + self_e + background),
            virial: self.qqr2e * e_recip,
        }
    }

    fn stats(&self) -> KspaceStats {
        KspaceStats {
            grid: self.grid,
            grid_points: self.grid.iter().product(),
            g_ewald: self.g_ewald,
            estimated_error: self.estimated_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::Ewald;
    use md_core::threads::THREAD_LANE_BASE;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_neutral_system(n: usize, l: f64, seed: u64) -> (SimBox, Vec<V3>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bx = SimBox::cubic(l);
        let x: Vec<V3> = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                )
            })
            .collect();
        let q: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        (bx, x, q)
    }

    #[test]
    fn bspline_partition_of_unity() {
        for order in 1..=MAX_ORDER {
            for k in 0..50 {
                let w = (0.02 * k as f64 * 7.3 + 0.01).fract();
                let c = by_order!(order, fill_bspline(w));
                let sum: f64 = c.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "order {order}, w = {w}, sum = {sum}"
                );
                assert!(c.iter().all(|&ci| ci >= 0.0));
            }
        }
    }

    #[test]
    fn recursion_weights_match_the_bspline_oracle() {
        // Knots (w = 0, and w = 1.0 - ε just below the next one) included.
        let ws = [
            0.0,
            1e-300,
            0.125,
            0.3,
            0.5,
            0.77,
            0.999_999,
            1.0 - f64::EPSILON,
        ];
        for order in 1..=MAX_ORDER {
            for &w in &ws {
                let c = by_order!(order, fill_bspline(w));
                for (j, &cj) in c.iter().enumerate() {
                    let want = if j < order {
                        bspline(order, w + (order - 1 - j) as f64)
                    } else {
                        0.0
                    };
                    assert!(
                        (cj - want).abs() <= 1e-15,
                        "order {order}, w = {w}, j = {j}: {cj} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gf_denom_is_the_alias_sum_of_the_assignment_function() {
        // Σ_a sinc²ᵖ(x + πa) summed directly against the closed form.
        for order in 1..=MAX_ORDER {
            let b = gf_denom_coeffs(order);
            for x in [0.1f64, 0.7, 1.3, std::f64::consts::FRAC_PI_2] {
                let s = x.sin().powi(2);
                let closed = b[..order].iter().rev().fold(0.0, |acc, &c| c + acc * s);
                let direct: f64 = (-20_000i64..=20_000)
                    .map(|a| {
                        let arg = x + std::f64::consts::PI * a as f64;
                        (arg.sin() / arg).powi(2 * order as i32)
                    })
                    .sum();
                assert!(
                    (closed - direct).abs() < 1e-4 * direct,
                    "order {order}, x = {x}: {closed} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn fraction_rounding_to_one_spreads_like_zero() {
        let (bx, mut x, q) = random_neutral_system(16, 10.0, 21);
        // (x - lo) / L = t = -1e-301, whose fraction t - ⌊t⌋ rounds to 1.0.
        let hair_below = -1e-300;
        let t = hair_below / 10.0f64;
        assert_eq!(t - t.floor(), 1.0);
        x[0] = Vec3::new(hair_below, 3.0, hair_below);
        let mut at_one = Pppm::new(4.4, 1e-4, 5);
        at_one.setup(&bx, &q).unwrap();
        let mut f_one = vec![Vec3::zero(); x.len()];
        let e_one = at_one.compute(&bx, &x, &q, &mut f_one);

        x[0] = Vec3::new(0.0, 3.0, 0.0);
        let mut at_zero = Pppm::new(4.4, 1e-4, 5);
        at_zero.setup(&bx, &q).unwrap();
        let mut f_zero = vec![Vec3::zero(); x.len()];
        let e_zero = at_zero.compute(&bx, &x, &q, &mut f_zero);

        assert_eq!(at_one.stencils[0], at_zero.stencils[0]);
        for (a, b) in at_one.rho.iter().zip(&at_zero.rho) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        assert_eq!(e_one.ecoul.to_bits(), e_zero.ecoul.to_bits());
        for (a, b) in f_one.iter().zip(&f_zero) {
            for d in 0..3 {
                assert_eq!(a[d].to_bits(), b[d].to_bits());
            }
        }
    }

    /// The NPT barostat dilates the box every step; each solver must then
    /// rebuild what depends on the box (g and the mesh held) as LAMMPS's
    /// `FixNH::remap` → `kspace->setup()` does.
    #[test]
    fn tables_follow_a_dilated_box() {
        let (bx, x, q) = random_neutral_system(32, 10.0, 3);
        let mut pppm = Pppm::new(4.9, 1e-6, 5);
        pppm.setup(&bx, &q).unwrap();
        let mut ewald = Ewald::new(4.9, 1e-6);
        ewald.setup(&bx, &q).unwrap();
        let (grid, g) = (pppm.grid(), pppm.g_ewald());
        assert_eq!(ewald.g_ewald(), g);

        // The barostat's dilation: box and positions about the center.
        let dil = 1.05;
        let big = bx.scaled(dil);
        let center = (bx.lo() + bx.hi()) * 0.5;
        let xd: Vec<V3> = x.iter().map(|&xi| center + (xi - center) * dil).collect();

        // Reference: Ewald at 1e-10, its cutoff chosen to land on the same g.
        let mut reference = Ewald::new((1.35 - 0.15 * 1e-10f64.ln()) / g, 1e-10);
        reference.setup(&big, &q).unwrap();
        assert!((reference.g_ewald() - g).abs() < 1e-12 * g);
        let mut f_ref = vec![Vec3::zero(); x.len()];
        reference.compute(&big, &xd, &q, &mut f_ref);
        let rms_relative = |got: &[V3]| {
            let num: f64 = got.iter().zip(&f_ref).map(|(a, b)| (*a - *b).norm2()).sum();
            let den: f64 = f_ref.iter().map(|b| b.norm2()).sum();
            (num / den).sqrt()
        };

        let mut fp = vec![Vec3::zero(); x.len()];
        pppm.compute(&big, &xd, &q, &mut fp);
        assert_eq!((pppm.grid(), pppm.g_ewald()), (grid, g), "mesh and g held");
        let rel = rms_relative(&fp);
        assert!(rel < 0.02, "PPPM: relative force deviation {rel}");

        let mut fe = vec![Vec3::zero(); x.len()];
        ewald.compute(&big, &xd, &q, &mut fe);
        let rel = rms_relative(&fe);
        assert!(rel < 0.02, "Ewald: relative force deviation {rel}");
    }

    #[test]
    fn bspline_orders_integrate_to_one() {
        for n in 1..=5usize {
            let steps = 20_000;
            let h = n as f64 / steps as f64;
            let integral: f64 = (0..steps)
                .map(|i| bspline(n, (i as f64 + 0.5) * h) * h)
                .sum();
            assert!((integral - 1.0).abs() < 1e-4, "order {n}: {integral}");
        }
    }

    #[test]
    fn pppm_energy_matches_ewald() {
        let (bx, x, q) = random_neutral_system(64, 12.0, 11);
        let mut ewald = Ewald::new(5.9, 1e-6);
        ewald.setup(&bx, &q).unwrap();
        let mut fe = vec![Vec3::zero(); x.len()];
        let ee = ewald.compute(&bx, &x, &q, &mut fe);

        let mut pppm = Pppm::new(5.9, 1e-6, 5);
        pppm.setup(&bx, &q).unwrap();
        let mut fp = vec![Vec3::zero(); x.len()];
        let ep = pppm.compute(&bx, &x, &q, &mut fp);

        // Same cutoff and accuracy target give the identical splitting
        // parameter g, so the recip + self + background totals estimate the
        // same quantity and differ only by mesh discretization. (With
        // mismatched accuracies the totals are NOT comparable: the self
        // term -g/sqrt(pi)·Σq² moves linearly with g.)
        assert_eq!(pppm.g_ewald(), ewald.g_ewald(), "matched inputs share g");
        let rel = (ep.ecoul - ee.ecoul).abs() / ee.ecoul.abs();
        assert!(
            rel < 0.05,
            "PPPM {} vs Ewald {} (rel {rel})",
            ep.ecoul,
            ee.ecoul
        );
    }

    #[test]
    fn pppm_forces_match_ewald_forces() {
        let (bx, x, q) = random_neutral_system(32, 10.0, 3);
        // Force a common g by using the same accuracy and cutoff.
        let mut ewald = Ewald::new(4.9, 1e-6);
        ewald.setup(&bx, &q).unwrap();
        let mut fe = vec![Vec3::zero(); x.len()];
        ewald.compute(&bx, &x, &q, &mut fe);

        let mut pppm = Pppm::new(4.9, 1e-6, 5);
        pppm.setup(&bx, &q).unwrap();
        let mut fp = vec![Vec3::zero(); x.len()];
        pppm.compute(&bx, &x, &q, &mut fp);

        // Compare per-atom forces; require small relative RMS deviation.
        // g_ewald matches exactly (same formula inputs), so the recip sums
        // target the same quantity.
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..x.len() {
            num += (fp[i] - fe[i]).norm2();
            den += fe[i].norm2();
        }
        let rel = (num / den).sqrt();
        assert!(rel < 0.02, "relative force deviation {rel}");
    }

    #[test]
    fn pppm_accuracy_improves_with_threshold() {
        let (bx, x, q) = random_neutral_system(48, 11.0, 8);
        let mut reference = Ewald::new(5.4, 1e-7);
        reference.setup(&bx, &q).unwrap();
        let mut f_ref = vec![Vec3::zero(); x.len()];
        reference.compute(&bx, &x, &q, &mut f_ref);
        let rms_ref: f64 = (f_ref.iter().map(|v| v.norm2()).sum::<f64>() / x.len() as f64).sqrt();

        let mut errors = Vec::new();
        for acc in [1e-3, 1e-5] {
            let mut pppm = Pppm::new(5.4, acc, 5);
            pppm.setup(&bx, &q).unwrap();
            let mut fp = vec![Vec3::zero(); x.len()];
            pppm.compute(&bx, &x, &q, &mut fp);
            let rms_err: f64 = (fp
                .iter()
                .zip(&f_ref)
                .map(|(a, b)| (*a - *b).norm2())
                .sum::<f64>()
                / x.len() as f64)
                .sqrt();
            errors.push(rms_err / rms_ref);
        }
        assert!(
            errors[1] < errors[0],
            "tighter threshold should reduce error: {errors:?}"
        );
    }

    #[test]
    fn pppm_net_force_is_small() {
        let (bx, x, q) = random_neutral_system(40, 9.0, 5);
        let mut pppm = Pppm::new(4.4, 1e-5, 5);
        pppm.setup(&bx, &q).unwrap();
        let mut f = vec![Vec3::zero(); x.len()];
        pppm.compute(&bx, &x, &q, &mut f);
        let net = f.iter().fold(Vec3::zero(), |a, &b| a + b);
        let scale: f64 = f.iter().map(|v| v.norm()).sum::<f64>() / x.len() as f64;
        assert!(net.norm() < 1e-6 * scale.max(1.0), "net force {net}");
    }

    #[test]
    fn setup_sizes_grid_from_threshold() {
        let (bx, _, q) = random_neutral_system(64, 12.0, 2);
        let mut coarse = Pppm::new(5.9, 1e-4, 5);
        coarse.setup(&bx, &q).unwrap();
        let mut tight = Pppm::new(5.9, 1e-7, 5);
        tight.setup(&bx, &q).unwrap();
        let gp = |p: &Pppm| p.grid().iter().product::<usize>();
        assert!(gp(&tight) > gp(&coarse));
    }

    #[test]
    fn tighten_accuracy_shrinks_error_and_saturates() {
        let (bx, _, q) = random_neutral_system(64, 12.0, 2);
        let mut pppm = Pppm::new(5.9, 1e-4, 5);
        pppm.setup(&bx, &q).unwrap();
        let before = pppm.stats().estimated_error;
        assert!(KspaceStyle::tighten_accuracy(&mut pppm));
        pppm.setup(&bx, &q).unwrap();
        assert!(
            pppm.stats().estimated_error < before,
            "{} -> {}",
            before,
            pppm.stats().estimated_error
        );
        // Repeated tightening eventually hits the floor and reports no change.
        for _ in 0..16 {
            KspaceStyle::tighten_accuracy(&mut pppm);
        }
        assert!(!KspaceStyle::tighten_accuracy(&mut pppm));
    }

    #[test]
    fn compute_emits_kernel_phase_spans() {
        let (bx, x, q) = random_neutral_system(32, 10.0, 4);
        let mut pppm = Pppm::new(4.4, 1e-4, 5);
        let rec = Recorder::default();
        KspaceStyle::set_recorder(&mut pppm, rec.clone());
        pppm.setup(&bx, &q).unwrap();
        let mut f = vec![Vec3::zero(); x.len()];
        pppm.compute(&bx, &x, &q, &mut f);
        let names: Vec<&'static str> = rec.events().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "charge_assign",
                "fft_forward",
                "kspace_field",
                "fft_inverse",
                "field_interp"
            ],
        );
        assert!(rec.events().iter().all(|e| e.cat == "kspace"));
    }

    #[test]
    fn threaded_compute_is_bitwise_identical_to_serial() {
        let (bx, x, q) = random_neutral_system(48, 11.0, 7);
        let mut serial = Pppm::new(4.9, 1e-5, 5);
        serial.setup(&bx, &q).unwrap();
        let mut f_serial = vec![Vec3::zero(); x.len()];
        let e_serial = serial.compute(&bx, &x, &q, &mut f_serial);
        assert!(e_serial.ecoul.is_finite());
        for t in [2usize, 3, 4, 7] {
            let mut pppm = Pppm::new(4.9, 1e-5, 5);
            pppm.setup(&bx, &q).unwrap();
            // After setup, to prove the knob reaches an already-built FFT.
            KspaceStyle::set_threads(&mut pppm, Threads::fast(t));
            let mut f = vec![Vec3::zero(); x.len()];
            let e = pppm.compute(&bx, &x, &q, &mut f);
            assert_eq!(e.ecoul.to_bits(), e_serial.ecoul.to_bits(), "t = {t}");
            assert_eq!(e.virial.to_bits(), e_serial.virial.to_bits(), "t = {t}");
            for (a, b) in f.iter().zip(&f_serial) {
                for d in 0..3 {
                    assert_eq!(a[d].to_bits(), b[d].to_bits(), "t = {t}, dim {d}");
                }
            }
        }
    }

    #[test]
    fn threaded_compute_emits_per_thread_spans() {
        let (bx, x, q) = random_neutral_system(32, 10.0, 4);
        let mut pppm = Pppm::new(4.4, 1e-4, 5);
        let rec = Recorder::default();
        KspaceStyle::set_recorder(&mut pppm, rec.clone());
        KspaceStyle::set_threads(&mut pppm, Threads::fast(2));
        pppm.setup(&bx, &q).unwrap();
        let mut f = vec![Vec3::zero(); x.len()];
        pppm.compute(&bx, &x, &q, &mut f);
        let events = rec.events();
        let thread_events: Vec<_> = events.iter().filter(|e| e.cat == "thread").collect();
        assert!(
            thread_events.iter().any(|e| e.name == "pppm_spread"),
            "expected pppm_spread thread spans"
        );
        assert!(
            thread_events.iter().any(|e| e.name == "pppm_interp"),
            "expected pppm_interp thread spans"
        );
        assert!(thread_events
            .iter()
            .all(|e| e.lane >= THREAD_LANE_BASE && e.lane < THREAD_LANE_BASE + 2));
    }

    #[test]
    fn rejects_chargeless_system() {
        let bx = SimBox::cubic(10.0);
        let mut pppm = Pppm::new(4.0, 1e-4, 5);
        assert!(pppm.setup(&bx, &[0.0; 8]).is_err());
    }
}
