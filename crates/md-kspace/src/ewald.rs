//! Classic Ewald summation (LAMMPS `kspace_style ewald`).
//!
//! The reciprocal-space sum is evaluated exactly over a half-space of k
//! vectors chosen from the accuracy model; together with the real-space
//! `erfc` term of the pair style and the self-energy correction it gives the
//! full periodic Coulomb energy. PPPM approximates this solver with an FFT;
//! the test suite checks PPPM against Ewald and Ewald against the Madelung
//! constant.

use crate::accuracy::KspaceAccuracy;
use crate::complex::Complex;
use md_core::force::KspaceStats;
use md_core::{CoreError, EnergyVirial, KspaceStyle, Result, SimBox, Vec3, V3};

/// One reciprocal-space vector with its precomputed coefficient.
#[derive(Debug, Clone, Copy)]
struct KVector {
    k: V3,
    /// `exp(-k²/4g²)/k²`.
    coeff: f64,
}

/// The Ewald reciprocal-space solver.
#[derive(Debug, Clone)]
pub struct Ewald {
    cutoff: f64,
    relative_error: f64,
    g_ewald: f64,
    kvectors: Vec<KVector>,
    kmax: [usize; 3],
    estimated_error: f64,
    qsqsum: f64,
    qsum: f64,
    /// The box lengths `kvectors` were built for.
    built_for: V3,
    /// Coulomb conversion constant of the simulation's unit system
    /// (see [`Ewald::set_qqr2e`]); defaults to 1 (reduced units).
    qqr2e_effective: f64,
}

impl Ewald {
    /// Creates a solver for a real-space `cutoff` and a relative force-error
    /// threshold; parameters are finalized by [`KspaceStyle::setup`].
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` or `relative_error` is non-positive.
    pub fn new(cutoff: f64, relative_error: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        assert!(
            relative_error > 0.0 && relative_error < 1.0,
            "relative error must be in (0, 1)"
        );
        Ewald {
            cutoff,
            relative_error,
            g_ewald: 0.0,
            kvectors: Vec::new(),
            kmax: [0; 3],
            estimated_error: 0.0,
            qsqsum: 0.0,
            qsum: 0.0,
            built_for: Vec3::zero(),
            qqr2e_effective: 1.0,
        }
    }

    /// Sets the Coulomb conversion constant (`qqr2e` of the unit system);
    /// the solver itself is unit-agnostic.
    pub fn set_qqr2e(&mut self, qqr2e: f64) {
        self.qqr2e_effective = qqr2e;
    }

    /// The splitting parameter chosen at setup (pair styles need it for the
    /// matching real-space `erfc` term).
    pub fn g_ewald(&self) -> f64 {
        self.g_ewald
    }

    /// Number of reciprocal vectors in the half-space sum.
    pub fn kvector_count(&self) -> usize {
        self.kvectors.len()
    }

    /// Enumerates the half-space k vectors for box lengths `l`, holding
    /// `kmax` and `g_ewald` fixed (what a barostat's dilation needs, as
    /// LAMMPS's `FixNH::remap` → `kspace->setup()` does).
    fn build_kvectors(&mut self, l: V3) {
        // (kz > 0) ∪ (kz = 0, ky > 0) ∪ (kz = ky = 0, kx > 0).
        let two_pi = 2.0 * std::f64::consts::PI;
        let g2inv4 = 1.0 / (4.0 * self.g_ewald * self.g_ewald);
        self.kvectors.clear();
        let (mx, my, mz) = (
            self.kmax[0] as i64,
            self.kmax[1] as i64,
            self.kmax[2] as i64,
        );
        for nz in 0..=mz {
            for ny in -my..=my {
                for nx in -mx..=mx {
                    let half_space =
                        nz > 0 || (nz == 0 && ny > 0) || (nz == 0 && ny == 0 && nx > 0);
                    if !half_space {
                        continue;
                    }
                    let k = Vec3::new(
                        two_pi * nx as f64 / l.x,
                        two_pi * ny as f64 / l.y,
                        two_pi * nz as f64 / l.z,
                    );
                    let k2 = k.norm2();
                    let coeff = (-k2 * g2inv4).exp() / k2;
                    // Skip vectors whose contribution is negligible.
                    if coeff > 1e-14 {
                        self.kvectors.push(KVector { k, coeff });
                    }
                }
            }
        }
        self.built_for = l;
    }
}

impl KspaceStyle for Ewald {
    fn name(&self) -> &'static str {
        "ewald"
    }

    fn setup(&mut self, bx: &SimBox, q: &[f64]) -> Result<()> {
        let natoms = q.len();
        let qsqsum: f64 = q.iter().map(|&qi| qi * qi).sum();
        if qsqsum <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "charges",
                reason: "ewald requires a charged system".to_string(),
            });
        }
        let l = bx.lengths();
        let acc = KspaceAccuracy::resolve(
            self.cutoff,
            self.relative_error,
            natoms,
            qsqsum,
            [l.x, l.y, l.z],
            5,
        )?;
        self.g_ewald = acc.g_ewald;
        self.kmax = acc.kmax;
        self.estimated_error = acc.error_kspace.max(acc.error_real);
        self.qsqsum = qsqsum;
        self.qsum = q.iter().sum();
        self.build_kvectors(l);
        Ok(())
    }

    fn compute(&mut self, bx: &SimBox, x: &[V3], q: &[f64], f: &mut [V3]) -> EnergyVirial {
        if bx.lengths() != self.built_for {
            self.build_kvectors(bx.lengths());
        }
        let qqr2e = self.qqr2e_effective;
        let volume = bx.volume();
        let four_pi_over_v = 4.0 * std::f64::consts::PI / volume;
        let two_pi_over_v = 2.0 * std::f64::consts::PI / volume;
        let n = x.len();
        let mut energy = 0.0;
        // Structure factor and forces, one k at a time (O(N·K)).
        let mut phases: Vec<Complex> = vec![Complex::ZERO; n];
        let mut virial = 0.0;
        for kv in &self.kvectors {
            let mut s = Complex::ZERO;
            for i in 0..n {
                let theta = kv.k.dot(x[i]);
                let ph = Complex::cis(-theta);
                phases[i] = ph;
                s += ph.scale(q[i]);
            }
            let s_norm2 = s.norm2();
            // Half-space: double everything.
            energy += 2.0 * two_pi_over_v * kv.coeff * s_norm2;
            virial += 2.0 * two_pi_over_v * kv.coeff * s_norm2; // isotropic part
            let s_conj = s.conj();
            for i in 0..n {
                // Im(conj(S) e^{-ik·r_i}) with phases[i] = e^{-ik·r_i}.
                let im = (s_conj * phases[i]).im;
                let mag = -2.0 * four_pi_over_v * kv.coeff * q[i] * im;
                f[i] += kv.k * (qqr2e * mag);
            }
        }
        // Self-energy and (for non-neutral systems) background corrections.
        let self_e = -self.g_ewald / std::f64::consts::PI.sqrt() * self.qsqsum;
        let background = -std::f64::consts::PI / (2.0 * volume * self.g_ewald * self.g_ewald)
            * self.qsum
            * self.qsum;
        EnergyVirial {
            evdwl: 0.0,
            ecoul: qqr2e * (energy + self_e + background),
            virial: qqr2e * virial,
        }
    }

    fn stats(&self) -> KspaceStats {
        KspaceStats {
            grid: [
                2 * self.kmax[0] + 1,
                2 * self.kmax[1] + 1,
                2 * self.kmax[2] + 1,
            ],
            grid_points: (2 * self.kmax[0] + 1) * (2 * self.kmax[1] + 1) * (2 * self.kmax[2] + 1),
            g_ewald: self.g_ewald,
            estimated_error: self.estimated_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::math::erfc;

    /// Rock-salt lattice of `n³` alternating unit charges, spacing 1.
    fn nacl(n: usize) -> (SimBox, Vec<V3>, Vec<f64>) {
        let bx = SimBox::cubic(n as f64);
        let mut x = Vec::new();
        let mut q = Vec::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    x.push(Vec3::new(i as f64, j as f64, k as f64));
                    q.push(if (i + j + k) % 2 == 0 { 1.0 } else { -1.0 });
                }
            }
        }
        (bx, x, q)
    }

    /// Direct real-space erfc sum within `cutoff` (the pair-style part).
    fn real_space_energy(bx: &SimBox, x: &[V3], q: &[f64], g: f64, cutoff: f64) -> f64 {
        let mut e = 0.0;
        for i in 0..x.len() {
            for j in (i + 1)..x.len() {
                let r = bx.min_image(x[i], x[j]).norm();
                if r < cutoff {
                    e += q[i] * q[j] * erfc(g * r) / r;
                }
            }
        }
        e
    }

    #[test]
    fn madelung_constant_of_rock_salt() {
        let (bx, x, q) = nacl(8);
        let mut ewald = Ewald::new(3.9, 1e-6);
        ewald.set_qqr2e(1.0);
        ewald.setup(&bx, &q).unwrap();
        let mut f = vec![Vec3::zero(); x.len()];
        let e = ewald.compute(&bx, &x, &q, &mut f);
        let total = e.ecoul + real_space_energy(&bx, &x, &q, ewald.g_ewald(), 3.9);
        let per_ion = total / x.len() as f64;
        // E/N = -M/2 with nearest-neighbor distance 1; M(NaCl) = 1.747565.
        let want = -1.7475645946 / 2.0;
        assert!(
            (per_ion - want).abs() < 2e-4,
            "per-ion energy {per_ion}, want {want}"
        );
    }

    #[test]
    fn forces_vanish_on_perfect_lattice() {
        let (bx, x, q) = nacl(6);
        let mut ewald = Ewald::new(2.9, 1e-5);
        ewald.set_qqr2e(1.0);
        ewald.setup(&bx, &q).unwrap();
        let mut f = vec![Vec3::zero(); x.len()];
        ewald.compute(&bx, &x, &q, &mut f);
        // Reciprocal force on a lattice site is cancelled by the (symmetric)
        // real-space part; by symmetry the reciprocal part alone also nearly
        // vanishes at lattice sites.
        let max_f = f.iter().map(|fi| fi.norm()).fold(0.0f64, f64::max);
        assert!(max_f < 1e-6, "max reciprocal force {max_f}");
    }

    #[test]
    fn net_force_is_zero() {
        // A disordered charged system: momentum conservation requires Σ F = 0.
        let bx = SimBox::cubic(10.0);
        let x = vec![
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.5, 5.5, 1.2),
            Vec3::new(7.7, 0.3, 8.8),
            Vec3::new(2.2, 9.1, 6.4),
        ];
        let q = vec![1.0, -1.0, 1.0, -1.0];
        let mut ewald = Ewald::new(4.9, 1e-5);
        ewald.set_qqr2e(1.0);
        ewald.setup(&bx, &q).unwrap();
        let mut f = vec![Vec3::zero(); 4];
        ewald.compute(&bx, &x, &q, &mut f);
        let net = f.iter().fold(Vec3::zero(), |a, &b| a + b);
        assert!(net.norm() < 1e-10, "net reciprocal force {net}");
    }

    #[test]
    fn reciprocal_force_matches_numerical_derivative() {
        let bx = SimBox::cubic(10.0);
        let base = vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.5, 5.5, 1.2)];
        let q = vec![1.0, -1.0];
        let mut ewald = Ewald::new(4.9, 1e-6);
        ewald.set_qqr2e(1.0);
        ewald.setup(&bx, &q).unwrap();
        let energy = |x: &[V3]| {
            let mut e2 = ewald.clone();
            let mut f = vec![Vec3::zero(); 2];
            e2.compute(&bx, x, &q, &mut f).ecoul
        };
        let mut f = vec![Vec3::zero(); 2];
        ewald.clone().compute(&bx, &base, &q, &mut f);
        let h = 1e-6;
        for axis in 0..3 {
            let mut xp = base.clone();
            xp[0][axis] += h;
            let mut xm = base.clone();
            xm[0][axis] -= h;
            let dedx = (energy(&xp) - energy(&xm)) / (2.0 * h);
            assert!(
                (f[0][axis] + dedx).abs() < 1e-6,
                "axis {axis}: {} vs {}",
                f[0][axis],
                -dedx
            );
        }
    }

    #[test]
    fn setup_rejects_neutral_zero_charges() {
        let bx = SimBox::cubic(5.0);
        let mut ewald = Ewald::new(2.0, 1e-4);
        assert!(ewald.setup(&bx, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn tighter_accuracy_uses_more_kvectors() {
        let (bx, _, q) = nacl(6);
        let mut coarse = Ewald::new(2.9, 1e-4);
        coarse.setup(&bx, &q).unwrap();
        let mut tight = Ewald::new(2.9, 1e-7);
        tight.setup(&bx, &q).unwrap();
        assert!(tight.kvector_count() > coarse.kvector_count());
    }
}
