//! Particle-particle particle-mesh (LAMMPS `kspace_style pppm`).
//!
//! The long-range Coulomb contribution is computed by (1) spreading charges
//! onto a regular mesh with cardinal B-spline weights, (2) a forward 3D FFT,
//! (3) multiplication with the deconvolved Green's function
//! `4π exp(-k²/4g²)/k² · B(m)` (Essmann-style `B(m) = |b_x b_y b_z|²`
//! compensates the two B-spline smoothings), (4) ik-differentiation into
//! three field meshes and three inverse FFTs, and (5) interpolation of the
//! field back to the particles with the same weights — the
//! `make_rho` / `particle_map` / FFT / `interp` kernel structure the paper's
//! Figure 8 shows dominating the Rhodopsin GPU profile.

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

/// The PPPM solver.
#[derive(Debug, Clone)]
pub struct Pppm {
    cutoff: f64,
    relative_error: f64,
    order: usize,
    g_ewald: f64,
    grid: [usize; 3],
    fft: Option<Fft3d>,
    /// Green's function `A(k) · B(m)` per mesh point (zero at m = 0 and at
    /// deconvolution singularities).
    green: Vec<f64>,
    /// Wavevector per mesh point and dimension.
    kvec: Vec<V3>,
    qsqsum: f64,
    qsum: f64,
    estimated_error: f64,
    qqr2e: f64,
    /// Scratch meshes.
    rho: Vec<Complex>,
    field: [Vec<Complex>; 3],
    /// Per-atom scratch kept across calls: each atom's leftmost mesh index
    /// and B-spline weights per dimension, shared by spread and interp.
    bases: Vec<[i64; 3]>,
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
            green: Vec::new(),
            kvec: Vec::new(),
            qsqsum: 0.0,
            qsum: 0.0,
            estimated_error: 0.0,
            qqr2e: 1.0,
            rho: Vec::new(),
            field: [Vec::new(), Vec::new(), Vec::new()],
            bases: Vec::new(),
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
}

/// Evaluates the `n` B-spline weights of a particle at fractional mesh
/// coordinate `u` (in units of mesh cells). Returns the leftmost mesh index
/// and the weights. A free function so worker closures can call it without
/// capturing the solver.
fn bspline_row(n: usize, u: f64) -> (i64, [f64; MAX_ORDER]) {
    let k0 = u.floor() as i64;
    let mut w = [0.0f64; MAX_ORDER];
    // Mesh points p = k0 - n + 1 + j for j in 0..n; weight M_n(u - p).
    for (j, wj) in w.iter_mut().enumerate().take(n) {
        let p = k0 - n as i64 + 1 + j as i64;
        *wj = bspline(n, u - p as f64);
    }
    (k0 - n as i64 + 1, w)
}

/// Cardinal B-spline `M_n(x)` with support `(0, n)`.
fn bspline(n: usize, x: f64) -> f64 {
    if x <= 0.0 || x >= n as f64 {
        return 0.0;
    }
    if n == 1 {
        return 1.0; // box function on (0, 1)
    }
    if n == 2 {
        return 1.0 - (x - 1.0).abs();
    }
    let nm1 = (n - 1) as f64;
    (x / nm1) * bspline(n - 1, x) + ((n as f64 - x) / nm1) * bspline(n - 1, x - 1.0)
}

/// Essmann `|b(m)|²` deconvolution factor for one dimension.
fn bmod2(n_order: usize, m: usize, mesh: usize) -> f64 {
    // D(m) = Σ_{j=0}^{n-2} M_n(j+1) e^{2πi m j / K}; |b(m)|² = 1/|D|².
    let mut d = Complex::ZERO;
    for j in 0..=(n_order.saturating_sub(2)) {
        let w = bspline(n_order, (j + 1) as f64);
        d += Complex::cis(2.0 * std::f64::consts::PI * (m * j) as f64 / mesh as f64).scale(w);
    }
    let d2 = d.norm2();
    if d2 < 1e-10 {
        0.0 // singular mode (even orders at the Nyquist frequency)
    } else {
        1.0 / d2
    }
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
        self.g_ewald = acc.g_ewald;
        // The accuracy model sizes 2·3·5-smooth meshes (as LAMMPS does);
        // this solver's radix-2 FFT rounds each dimension up to a power of
        // two, which only tightens the realized accuracy.
        self.grid = acc.grid.map(crate::fft::next_pow2);
        self.estimated_error = acc.error_kspace.max(acc.error_real);
        self.qsqsum = qsqsum;
        self.qsum = q.iter().sum();
        let (nx, ny, nz) = (self.grid[0], self.grid[1], self.grid[2]);
        let mut fft = Fft3d::new(nx, ny, nz)?;
        fft.set_threads(self.threads.count);
        fft.set_recorder(self.recorder.clone());
        let len = fft.len();

        // Precompute Green's function and wavevectors.
        let two_pi = 2.0 * std::f64::consts::PI;
        let g2inv4 = 1.0 / (4.0 * self.g_ewald * self.g_ewald);
        let mut green = vec![0.0; len];
        let mut kvec = vec![Vec3::zero(); len];
        let bx2: Vec<f64> = (0..nx).map(|m| bmod2(self.order, m, nx)).collect();
        let by2: Vec<f64> = (0..ny).map(|m| bmod2(self.order, m, ny)).collect();
        let bz2: Vec<f64> = (0..nz).map(|m| bmod2(self.order, m, nz)).collect();
        for iz in 0..nz {
            let mz = if iz > nz / 2 {
                iz as i64 - nz as i64
            } else {
                iz as i64
            };
            for iy in 0..ny {
                let my = if iy > ny / 2 {
                    iy as i64 - ny as i64
                } else {
                    iy as i64
                };
                for ix in 0..nx {
                    let mx = if ix > nx / 2 {
                        ix as i64 - nx as i64
                    } else {
                        ix as i64
                    };
                    let idx = fft.index(ix, iy, iz);
                    if mx == 0 && my == 0 && mz == 0 {
                        continue;
                    }
                    let k = Vec3::new(
                        two_pi * mx as f64 / l.x,
                        two_pi * my as f64 / l.y,
                        two_pi * mz as f64 / l.z,
                    );
                    let k2 = k.norm2();
                    let a = (-k2 * g2inv4).exp() / k2;
                    green[idx] = a * bx2[ix] * by2[iy] * bz2[iz];
                    kvec[idx] = k;
                }
            }
        }
        self.green = green;
        self.kvec = kvec;
        self.rho = vec![Complex::ZERO; len];
        self.field = [
            vec![Complex::ZERO; len],
            vec![Complex::ZERO; len],
            vec![Complex::ZERO; len],
        ];
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
        let (nx, ny, nz) = fft.dims();
        let l = bx.lengths();
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
        let stripe = self.threads.stripe(n_atoms);
        let planes_per = self.threads.stripe(nz);
        // B-spline bases/weights are per-atom elementwise: stripe-parallel.
        // Every entry is overwritten, so the resize is a no-op in steady
        // state.
        self.bases.resize(n_atoms, [0; 3]);
        self.weights.resize(n_atoms, [[0.0; MAX_ORDER]; 3]);
        let parts = self
            .bases
            .chunks_mut(stripe)
            .zip(self.weights.chunks_mut(stripe));
        fork_join(parts, &rec, "pppm_bspline", |k, (bs, ws)| {
            for (di, (b3, w3)) in bs.iter_mut().zip(ws.iter_mut()).enumerate() {
                let xi = x[k * stripe + di];
                for d in 0..3 {
                    let frac = ((xi[d] - lo[d]) / l[d]).rem_euclid(1.0);
                    let (b, w) = bspline_row(order, frac * grid[d] as f64);
                    b3[d] = b;
                    w3[d] = w;
                }
            }
        });
        let (bases, weights) = (&self.bases, &self.weights);
        // Threaded by OWNED Z-SLAB: every worker walks all atoms but only
        // scatters into the contiguous range of z planes it owns. Each mesh
        // point therefore accumulates its contributions in atom order — the
        // exact order one thread owning every plane uses — so the mesh is
        // bitwise identical to serial at any thread count.
        let slabs = self.rho.chunks_mut(plane * planes_per);
        fork_join(slabs, &rec, "pppm_spread", |k, slab| {
            let z_lo = k * planes_per;
            let z_hi = (z_lo + planes_per).min(nz);
            for z in slab.iter_mut() {
                *z = Complex::ZERO;
            }
            for i in 0..n_atoms {
                let base = bases[i];
                let w3 = &weights[i];
                for jz in 0..order {
                    let gz = (base[2] + jz as i64).rem_euclid(nz as i64) as usize;
                    if gz < z_lo || gz >= z_hi {
                        continue;
                    }
                    for jy in 0..order {
                        let gy = (base[1] + jy as i64).rem_euclid(ny as i64) as usize;
                        let wzy = w3[2][jz] * w3[1][jy] * q[i];
                        for jx in 0..order {
                            let gx = (base[0] + jx as i64).rem_euclid(nx as i64) as usize;
                            slab[(gz - z_lo) * plane + gy * nx + gx].re += wzy * w3[0][jx];
                        }
                    }
                }
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
        let kvec = &self.kvec;
        let rho = &self.rho;
        self.energy_parts.clear();
        self.energy_parts.resize(nz, 0.0);
        let [fx, fy, fz] = &mut self.field;
        let slab = plane * planes_per;
        let parts = fx
            .chunks_mut(slab)
            .zip(fy.chunks_mut(slab))
            .zip(fz.chunks_mut(slab))
            .zip(self.energy_parts.chunks_mut(planes_per));
        fork_join(parts, &rec, "pppm_field", |k, (((f0, f1), f2), eparts)| {
            let z_lo = k * planes_per;
            for (p, ep) in eparts.iter_mut().enumerate() {
                for j in 0..plane {
                    let idx = (z_lo + p) * plane + j;
                    let li = p * plane + j;
                    let g = green[idx];
                    if g == 0.0 {
                        f0[li] = Complex::ZERO;
                        f1[li] = Complex::ZERO;
                        f2[li] = Complex::ZERO;
                        continue;
                    }
                    let r = rho[idx];
                    *ep += g * r.norm2();
                    // F̂_d = -i k_d A B ρ̂.
                    let minus_i_rho = Complex::new(r.im, -r.re); // -i * rho
                    let kv = kvec[idx];
                    f0[li] = minus_i_rho.scale(g * kv.x);
                    f1[li] = minus_i_rho.scale(g * kv.y);
                    f2[li] = minus_i_rho.scale(g * kv.z);
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
        let field = &self.field;
        fork_join(f.chunks_mut(stripe), &rec, "pppm_interp", |k, fs| {
            for (di, fi) in fs.iter_mut().enumerate() {
                let i = k * stripe + di;
                let base = bases[i];
                let w3 = &weights[i];
                let mut e_at = Vec3::zero();
                for jz in 0..order {
                    let gz = (base[2] + jz as i64).rem_euclid(nz as i64) as usize;
                    for jy in 0..order {
                        let gy = (base[1] + jy as i64).rem_euclid(ny as i64) as usize;
                        let wzy = w3[2][jz] * w3[1][jy];
                        for jx in 0..order {
                            let gx = (base[0] + jx as i64).rem_euclid(nx as i64) as usize;
                            let w = wzy * w3[0][jx];
                            let idx = (gz * ny + gy) * nx + gx;
                            e_at.x += w * field[0][idx].re;
                            e_at.y += w * field[1][idx].re;
                            e_at.z += w * field[2][idx].re;
                        }
                    }
                }
                *fi += e_at * (force_pref * q[i]);
            }
        });
        drop(span);
        self.fft = Some(fft);

        // Energy: (2π/V)Σ A B |ρ̂|², plus self/background corrections.
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
        for k in 0..50 {
            let u = 0.02 * k as f64 * 7.3 + 0.01;
            let (_, w) = bspline_row(5, u);
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "u = {u}, sum = {sum}");
            assert!(w.iter().all(|&wi| wi >= 0.0));
        }
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
