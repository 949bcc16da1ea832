//! Langevin thermostat (LAMMPS `fix langevin`), used by the Chain benchmark.
//!
//! Applied in the post-force stage: each atom receives a friction force
//! `-m v / damp` and a random force whose variance satisfies the
//! fluctuation-dissipation theorem, so the system samples the canonical
//! ensemble at the target temperature. As in LAMMPS (Dünweg & Paul), each
//! component of the random force is uniform, `sqrt(24 m k_B T / (damp dt))
//! · (u - 0.5)`, with the variance `2 m k_B T / (damp dt)` of the Gaussian it
//! stands in for: three uniform draws per atom per step.

use crate::error::{CoreError, Result};
use crate::vec3::Vec3;
use crate::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Langevin thermostat fix.
#[derive(Debug, Clone)]
pub struct Langevin {
    t_target: f64,
    damp: f64,
    rng: StdRng,
    /// Per-type friction and noise prefactors (LAMMPS's `gfactor1` and
    /// `gfactor2`), refreshed on each call into storage kept across steps.
    gfactor: Vec<(f64, f64)>,
}

impl Langevin {
    /// Creates a thermostat targeting temperature `t_target` with relaxation
    /// time `damp`, seeded deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `t_target < 0`,
    /// `damp <= 0`, or either is non-finite.
    pub fn new(t_target: f64, damp: f64, seed: u64) -> Result<Self> {
        if !(t_target.is_finite() && t_target >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "t_target",
                reason: format!("target temperature {t_target} must be non-negative and finite"),
            });
        }
        if !(damp.is_finite() && damp > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "damp",
                reason: format!("damping time {damp} must be positive and finite"),
            });
        }
        Ok(Langevin {
            t_target,
            damp,
            rng: StdRng::seed_from_u64(seed),
            gfactor: Vec::new(),
        })
    }
}

impl crate::force::Fix for Langevin {
    fn name(&self) -> &'static str {
        "langevin"
    }

    fn post_force(&mut self, sys: &crate::force::PairSystem<'_>, f: &mut [crate::V3]) {
        let gamma = 1.0 / self.damp;
        let units = sys.units;
        // Per type: the friction factor -m/damp and the noise amplitude
        // sqrt(24 m k_B T γ / dt), both in force units via mvv2e. The 24 is
        // 2 × 12: u - 0.5 has variance 1/12, so a component's variance is the
        // fluctuation-dissipation 2 m k_B T γ / dt.
        let kt_rate = units.boltzmann * self.t_target * units.mvv2e * gamma / sys.dt;
        self.gfactor.clear();
        self.gfactor.extend(
            sys.mass_by_type
                .iter()
                .map(|&m| (-gamma * m * units.mvv2e, (24.0 * m * kt_rate).sqrt())),
        );
        for ((fi, &v), &kind) in f.iter_mut().zip(sys.v).zip(sys.kinds) {
            let (g1, g2) = self.gfactor[kind as usize];
            let noise = Vec3::new(
                self.rng.gen::<f64>() - 0.5,
                self.rng.gen::<f64>() - 0.5,
                self.rng.gen::<f64>() - 0.5,
            );
            *fi += v * g1 + noise * g2;
        }
    }

    fn state_save(&self, w: &mut wire::Writer) {
        // The RNG stream is the thermostat's only mutable state; restoring
        // it bitwise is what makes an interrupted Chain run resume on the
        // same random-force sequence as an uninterrupted one.
        w.u64s(&self.rng.state());
    }

    fn state_load(&mut self, r: &mut wire::Reader<'_>) -> Result<()> {
        let s = r.u64s()?;
        let s: [u64; 4] = s
            .try_into()
            .map_err(|v: Vec<u64>| CoreError::CorruptState {
                what: "langevin",
                detail: format!("RNG state has {} words, expected 4", v.len()),
            })?;
        self.rng = StdRng::from_state(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::AtomStore;
    use crate::force::{Fix, PairSystem};
    use crate::integrate::{IntegrateContext, Integrator, VelocityVerlet};
    use crate::simbox::SimBox;
    use crate::units::UnitSystem;

    /// Adds the thermostat's forces to `atoms.f` through [`Fix::post_force`],
    /// as the simulation's Modify stage does.
    fn apply(lang: &mut Langevin, atoms: &mut AtomStore, units: &UnitSystem, dt: f64) {
        let mut f = vec![Vec3::zero(); atoms.len()];
        let sys = PairSystem {
            bx: &SimBox::cubic(10.0),
            x: atoms.x(),
            v: atoms.v(),
            kinds: atoms.kinds(),
            charge: atoms.charges(),
            radius: atoms.radii(),
            mass_by_type: atoms.masses_by_type(),
            units,
            dt,
        };
        lang.post_force(&sys, &mut f);
        for (fa, fi) in atoms.f_mut().iter_mut().zip(&f) {
            *fa += *fi;
        }
    }

    /// Free particles of masses 1 and 4 + Langevin must each equilibrate to
    /// the target temperature (friction and noise read for different types
    /// heat one type and cool the other).
    #[test]
    fn equilibrates_ideal_gas_to_target() {
        let mut a = AtomStore::new();
        let mut s = 1u64;
        for i in 0..1000 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = |s: u64, sh: u32| ((s >> sh) & 0xfff) as f64 / 4096.0;
            a.push(
                Vec3::new(10.0 * r(s, 0), 10.0 * r(s, 12), 10.0 * r(s, 24)),
                Vec3::zero(),
                i % 2,
            );
        }
        a.set_masses(vec![1.0, 4.0]);
        let u = UnitSystem::lj();
        let mut bx = SimBox::cubic(10.0);
        let mut lang = Langevin::new(1.5, 1.0, 77).unwrap();
        let mut nve = VelocityVerlet::new();
        let dt = 0.005;
        let mut t_acc = [0.0; 2];
        let mut samples = 0;
        for step in 0..6000 {
            let ctx = IntegrateContext {
                dt,
                units: &u,
                virial: 0.0,
            };
            nve.initial_integrate(&mut a, &mut bx, &ctx);
            a.zero_forces();
            apply(&mut lang, &mut a, &u, dt);
            nve.final_integrate(&mut a, &mut bx, &ctx);
            if step > 3000 {
                // Each type is half the atoms: T_k = Σ m v² / (3 (N/2) k_B).
                for i in 0..a.len() {
                    let k = a.kinds()[i] as usize;
                    t_acc[k] += a.mass(i) * a.v()[i].norm2() * u.mvv2e
                        / (1.5 * a.len() as f64 * u.boltzmann);
                }
                samples += 1;
            }
        }
        for (k, t) in t_acc.iter().enumerate() {
            let t_mean = t / samples as f64;
            assert!(
                (t_mean - 1.5).abs() < 0.1,
                "type {k}: mean temperature {t_mean} not near 1.5"
            );
        }
    }

    #[test]
    fn zero_temperature_damps_motion() {
        let mut a = AtomStore::new();
        a.push(Vec3::zero(), Vec3::new(5.0, 0.0, 0.0), 0);
        a.set_masses(vec![1.0]);
        let u = UnitSystem::lj();
        let mut bx = SimBox::cubic(10.0);
        let mut lang = Langevin::new(0.0, 0.5, 1).unwrap();
        let mut nve = VelocityVerlet::new();
        for _ in 0..2000 {
            let ctx = IntegrateContext {
                dt: 0.005,
                units: &u,
                virial: 0.0,
            };
            nve.initial_integrate(&mut a, &mut bx, &ctx);
            a.zero_forces();
            apply(&mut lang, &mut a, &u, 0.005);
            nve.final_integrate(&mut a, &mut bx, &ctx);
        }
        assert!(a.v()[0].norm() < 1e-3, "velocity should decay to zero");
    }

    /// At rest the force is the noise alone. Per type and component it must
    /// have zero mean, the fluctuation-dissipation variance
    /// `2 m k_B T γ mvv2e / dt`, and stay inside the uniform draw's bound
    /// `±sqrt(6 m k_B T γ mvv2e / dt)`. Real units, so a misplaced `mvv2e`
    /// shows as a factor of ~2400.
    #[test]
    fn langevin_noise_satisfies_fluctuation_dissipation() {
        let (t, damp, dt) = (300.0, 100.0, 2.0);
        let masses = [1.0, 4.0];
        let units = UnitSystem::real();
        let mut a = AtomStore::new();
        for i in 0..2000 {
            a.push(Vec3::zero(), Vec3::zero(), i % 2);
        }
        a.set_masses(masses.to_vec());
        let mut lang = Langevin::new(t, damp, 2024).unwrap();
        let var_of = |m: f64| 2.0 * m * units.boltzmann * t * units.mvv2e / damp / dt;
        // Per type: draws, then per component the sum and sum of squares.
        let mut count = [0usize; 2];
        let mut sums = [[[0.0f64; 2]; 3]; 2];
        for _ in 0..100 {
            a.zero_forces();
            apply(&mut lang, &mut a, &units, dt);
            for (fi, &k) in a.f().iter().zip(a.kinds()) {
                let k = k as usize;
                let bound = (3.0 * var_of(masses[k])).sqrt() * (1.0 + 1e-12);
                count[k] += 1;
                for (c, s) in [fi.x, fi.y, fi.z].into_iter().zip(&mut sums[k]) {
                    assert!(c.abs() <= bound, "type {k}: |{c}| past the bound {bound}");
                    s[0] += c;
                    s[1] += c * c;
                }
            }
        }
        for k in 0..2 {
            let n = count[k] as f64;
            assert!(n >= 1e5);
            let expected = var_of(masses[k]);
            for (axis, s) in sums[k].iter().enumerate() {
                let mean = s[0] / n;
                let var = s[1] / n - mean * mean;
                assert!(
                    mean.abs() < 4.0 * (expected / n).sqrt(),
                    "type {k} axis {axis}: mean {mean} vs sigma {}",
                    expected.sqrt()
                );
                assert!(
                    (var / expected - 1.0).abs() < 0.02,
                    "type {k} axis {axis}: variance {var} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn rejects_zero_damp() {
        let err = Langevin::new(1.0, 0.0, 0).unwrap_err();
        assert!(matches!(
            err,
            crate::CoreError::InvalidParameter { name: "damp", .. }
        ));
        assert!(Langevin::new(-1.0, 1.0, 0).is_err());
        assert!(Langevin::new(f64::NAN, 1.0, 0).is_err());
    }

    #[test]
    fn rng_state_round_trip_resumes_the_same_stream() {
        let mut a = Langevin::new(1.0, 0.5, 42).unwrap();
        // Burn some draws so the stream is mid-flight.
        for _ in 0..100 {
            let _ = a.rng.gen::<f64>();
        }
        let mut w = wire::Writer::new();
        Fix::state_save(&a, &mut w);
        let bytes = w.into_bytes();
        let mut b = Langevin::new(1.0, 0.5, 7).unwrap(); // different seed
        Fix::state_load(&mut b, &mut wire::Reader::new(&bytes, "langevin")).unwrap();
        for _ in 0..32 {
            assert_eq!(a.rng.gen::<f64>().to_bits(), b.rng.gen::<f64>().to_bits());
        }
        // A malformed blob is rejected.
        let mut w = wire::Writer::new();
        w.u64s(&[1, 2, 3]);
        let bad = w.into_bytes();
        assert!(Fix::state_load(&mut b, &mut wire::Reader::new(&bad, "langevin")).is_err());
    }
}
