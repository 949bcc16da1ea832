//! Langevin thermostat (LAMMPS `fix langevin`), used by the Chain benchmark.
//!
//! Applied in the post-force stage: each atom receives a friction force
//! `-m v / damp` and a random force whose variance satisfies the
//! fluctuation-dissipation theorem, so the system samples the canonical
//! ensemble at the target temperature.

use crate::atoms::AtomStore;
use crate::error::{CoreError, Result};
use crate::units::UnitSystem;
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
        })
    }

    /// Adds friction and random forces to `atoms.f` for one timestep `dt`.
    pub fn post_force(&mut self, atoms: &mut AtomStore, units: &UnitSystem, dt: f64) {
        let gamma = 1.0 / self.damp;
        let n = atoms.len();
        for i in 0..n {
            let m = atoms.mass(i);
            // Friction: -(m/damp) v, converted to force units via mvv2e.
            let fr = atoms.v()[i] * (-gamma * m * units.mvv2e);
            // Fluctuation: variance 2 m kB T γ / dt in force units.
            let sigma =
                (2.0 * m * units.boltzmann * self.t_target * units.mvv2e * gamma / dt).sqrt();
            let mut gauss = || {
                let u1: f64 = self.rng.gen::<f64>().max(1e-300);
                let u2: f64 = self.rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let frand = Vec3::new(sigma * gauss(), sigma * gauss(), sigma * gauss());
            atoms.f_mut()[i] += fr + frand;
        }
    }
}

impl crate::force::Fix for Langevin {
    fn name(&self) -> &'static str {
        "langevin"
    }

    fn post_force(&mut self, sys: &crate::force::PairSystem<'_>, f: &mut [crate::V3]) {
        let gamma = 1.0 / self.damp;
        let units = sys.units;
        let dt = sys.dt;
        for i in 0..sys.v.len() {
            let m = sys.mass(i);
            let fr = sys.v[i] * (-gamma * m * units.mvv2e);
            let sigma =
                (2.0 * m * units.boltzmann * self.t_target * units.mvv2e * gamma / dt).sqrt();
            let mut gauss = || {
                let u1: f64 = self.rng.gen::<f64>().max(1e-300);
                let u2: f64 = self.rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let frand = Vec3::new(sigma * gauss(), sigma * gauss(), sigma * gauss());
            f[i] += fr + frand;
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
    use crate::compute::temperature;
    use crate::integrate::{IntegrateContext, Integrator, VelocityVerlet};
    use crate::simbox::SimBox;

    /// Free particles + Langevin must equilibrate to the target temperature.
    #[test]
    fn equilibrates_ideal_gas_to_target() {
        let mut a = AtomStore::new();
        let mut s = 1u64;
        for _ in 0..1000 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = |s: u64, sh: u32| ((s >> sh) & 0xfff) as f64 / 4096.0;
            a.push(
                Vec3::new(10.0 * r(s, 0), 10.0 * r(s, 12), 10.0 * r(s, 24)),
                Vec3::zero(),
                0,
            );
        }
        a.set_masses(vec![1.0]);
        let u = UnitSystem::lj();
        let mut bx = SimBox::cubic(10.0);
        let mut lang = Langevin::new(1.5, 1.0, 77).unwrap();
        let mut nve = VelocityVerlet::new();
        let dt = 0.005;
        let mut t_acc = 0.0;
        let mut samples = 0;
        for step in 0..6000 {
            let ctx = IntegrateContext {
                dt,
                units: &u,
                virial: 0.0,
            };
            nve.initial_integrate(&mut a, &mut bx, &ctx);
            a.zero_forces();
            lang.post_force(&mut a, &u, dt);
            nve.final_integrate(&mut a, &mut bx, &ctx);
            if step > 3000 {
                t_acc += temperature(&a, &u);
                samples += 1;
            }
        }
        let t_mean = t_acc / samples as f64;
        assert!(
            (t_mean - 1.5).abs() < 0.1,
            "mean temperature {t_mean} not near 1.5"
        );
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
            lang.post_force(&mut a, &u, 0.005);
            nve.final_integrate(&mut a, &mut bx, &ctx);
        }
        assert!(a.v()[0].norm() < 1e-3, "velocity should decay to zero");
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
        use crate::force::Fix;
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
