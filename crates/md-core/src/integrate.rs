//! Time integration: velocity-Verlet NVE and Nose-Hoover style NPT.
//!
//! All benchmarks in the paper's suite except Rhodopsin use plain NVE
//! integration (constant atoms/volume/energy, the LAMMPS `fix nve`);
//! Rhodopsin integrates with `fix npt`, Nose-Hoover style non-Hamiltonian
//! equations of motion that thermostat the temperature and barostat the
//! pressure by rescaling the box.

use crate::atoms::AtomStore;
use crate::compute::{pressure, temperature};
use crate::error::{CoreError, Result};
use crate::simbox::SimBox;
use crate::units::UnitSystem;
use crate::wire;

/// Per-step data the driver feeds to an integrator.
#[derive(Debug, Clone, Copy)]
pub struct IntegrateContext<'a> {
    /// Timestep length in time units.
    pub dt: f64,
    /// Unit constants.
    pub units: &'a UnitSystem,
    /// Scalar virial from the most recent force evaluation.
    pub virial: f64,
}

/// A time-integration strategy (LAMMPS `fix nve`, `fix npt`, ...).
///
/// The driver calls [`Integrator::initial_integrate`] before the force
/// computation (step I of the paper's Figure 1) and
/// [`Integrator::final_integrate`] after it.
pub trait Integrator: Send {
    /// Integrator name (`nve`, `npt`).
    fn name(&self) -> &'static str;

    /// First half-kick and drift: `v += (dt/2) f/m`, `x += dt v`.
    fn initial_integrate(
        &mut self,
        atoms: &mut AtomStore,
        bx: &mut SimBox,
        ctx: &IntegrateContext<'_>,
    );

    /// Second half-kick: `v += (dt/2) f/m`, plus any thermostat/barostat work.
    fn final_integrate(
        &mut self,
        atoms: &mut AtomStore,
        bx: &mut SimBox,
        ctx: &IntegrateContext<'_>,
    );

    /// Appends the integrator's mutable state (thermostat friction,
    /// barostat strain rate) for a checkpoint. NVE writes nothing.
    fn state_save(&self, _w: &mut wire::Writer) {}

    /// Restores state written by [`Integrator::state_save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptState`] on a malformed blob.
    fn state_load(&mut self, _r: &mut wire::Reader<'_>) -> Result<()> {
        Ok(())
    }
}

/// Plain velocity-Verlet NVE integration (`fix nve`).
#[derive(Debug, Clone, Copy, Default)]
pub struct VelocityVerlet;

impl VelocityVerlet {
    /// Creates the NVE integrator.
    pub fn new() -> Self {
        VelocityVerlet
    }
}

/// Applies `v += (dt/2) f/m` (the `ftm2v = 1/mvv2e` force→acceleration
/// conversion of LAMMPS) to every atom.
fn half_kick(atoms: &mut AtomStore, dt: f64, units: &UnitSystem) {
    let ftm2v = 1.0 / units.mvv2e;
    let n = atoms.len();
    for i in 0..n {
        let inv_m = ftm2v / atoms.mass(i);
        let f = atoms.f()[i];
        atoms.v_mut()[i] += f * (0.5 * dt * inv_m);
    }
}

/// Applies `x += dt v` to every atom.
fn drift(atoms: &mut AtomStore, dt: f64) {
    let (x, v) = atoms.x_v_mut();
    for (xi, vi) in x.iter_mut().zip(v.iter()) {
        *xi += *vi * dt;
    }
}

impl Integrator for VelocityVerlet {
    fn name(&self) -> &'static str {
        "nve"
    }

    fn initial_integrate(
        &mut self,
        atoms: &mut AtomStore,
        _bx: &mut SimBox,
        ctx: &IntegrateContext<'_>,
    ) {
        half_kick(atoms, ctx.dt, ctx.units);
        drift(atoms, ctx.dt);
    }

    fn final_integrate(
        &mut self,
        atoms: &mut AtomStore,
        _bx: &mut SimBox,
        ctx: &IntegrateContext<'_>,
    ) {
        half_kick(atoms, ctx.dt, ctx.units);
    }
}

/// Parameters for the Nose-Hoover NPT integrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NptParams {
    /// Temperature set point.
    pub t_target: f64,
    /// Thermostat relaxation time (time units; LAMMPS `Tdamp`).
    pub t_damp: f64,
    /// Pressure set point (pressure units of the unit system).
    pub p_target: f64,
    /// Barostat relaxation time (LAMMPS `Pdamp`).
    pub p_damp: f64,
}

/// Nose-Hoover style NPT integration (`fix npt`).
///
/// This is the practical single-chain form: a Nose-Hoover thermostat friction
/// `ξ` driven by the temperature error, plus an isotropic barostat strain rate
/// `ε̇` driven by the pressure error, applied as a box/position dilation each
/// step. It reproduces the set points and the relaxation-time behavior of the
/// full MTK equations, which is what the workload characterization depends
/// on; the full MTK chain corrections are beyond the scope of this engine and
/// are documented as a substitution in DESIGN.md.
#[derive(Debug, Clone)]
pub struct NoseHooverNpt {
    params: NptParams,
    /// Thermostat friction coefficient (1/time units).
    xi: f64,
    /// Barostat strain rate (1/time units).
    eps_dot: f64,
}

impl NoseHooverNpt {
    /// Creates an NPT integrator with the given set points.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if a damping time or the
    /// target temperature is non-positive or non-finite.
    pub fn new(params: NptParams) -> Result<Self> {
        for (name, v) in [
            ("Tdamp", params.t_damp),
            ("Pdamp", params.p_damp),
            ("t_target", params.t_target),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(CoreError::InvalidParameter {
                    name,
                    reason: format!("{name} {v} must be positive and finite"),
                });
            }
        }
        Ok(NoseHooverNpt {
            params,
            xi: 0.0,
            eps_dot: 0.0,
        })
    }
}

impl Integrator for NoseHooverNpt {
    fn name(&self) -> &'static str {
        "npt"
    }

    fn initial_integrate(
        &mut self,
        atoms: &mut AtomStore,
        bx: &mut SimBox,
        ctx: &IntegrateContext<'_>,
    ) {
        let dt = ctx.dt;
        // Thermostat half-update: dξ/dt = (T/T0 - 1) / Tdamp².
        let t_cur = temperature(atoms, ctx.units);
        self.xi += 0.5 * dt * (t_cur / self.params.t_target - 1.0)
            / (self.params.t_damp * self.params.t_damp);
        let scale = (-self.xi * 0.5 * dt).exp();
        for v in atoms.v_mut() {
            *v *= scale;
        }

        half_kick(atoms, dt, ctx.units);
        drift(atoms, dt);

        // Barostat: relax ε̇ toward the pressure error, then dilate.
        let p_cur = pressure(atoms, ctx.units, bx, ctx.virial);
        // Normalize the pressure error by the instantaneous kinetic pressure
        // scale so the strain rate is dimensionless per unit time.
        let n_kt = (atoms.len() as f64 * ctx.units.boltzmann * self.params.t_target / bx.volume()
            * ctx.units.nktv2p)
            .max(f64::MIN_POSITIVE);
        let drive = (p_cur - self.params.p_target) / n_kt;
        let pd2 = self.params.p_damp * self.params.p_damp;
        self.eps_dot += dt * drive / pd2;
        // Critical-ish damping so the cell does not ring.
        self.eps_dot *= 1.0 - (dt / self.params.p_damp).min(0.5);
        let dil = (self.eps_dot * dt).exp();
        let dil = dil.clamp(0.999, 1.001); // guard against kicks from poor initial pressure
        *bx = bx.scaled(dil);
        let center = (bx.lo() + bx.hi()) * 0.5;
        for x in atoms.x_mut() {
            *x = center + (*x - center) * dil;
        }
    }

    fn final_integrate(
        &mut self,
        atoms: &mut AtomStore,
        _bx: &mut SimBox,
        ctx: &IntegrateContext<'_>,
    ) {
        let dt = ctx.dt;
        half_kick(atoms, dt, ctx.units);
        let t_cur = temperature(atoms, ctx.units);
        self.xi += 0.5 * dt * (t_cur / self.params.t_target - 1.0)
            / (self.params.t_damp * self.params.t_damp);
        let scale = (-self.xi * 0.5 * dt).exp();
        for v in atoms.v_mut() {
            *v *= scale;
        }
    }

    fn state_save(&self, w: &mut wire::Writer) {
        w.f64(self.xi);
        w.f64(self.eps_dot);
    }

    fn state_load(&mut self, r: &mut wire::Reader<'_>) -> Result<()> {
        self.xi = r.f64()?;
        self.eps_dot = r.f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::seed_velocities;
    use crate::vec3::Vec3;

    fn free_particle() -> (AtomStore, SimBox, UnitSystem) {
        let mut a = AtomStore::new();
        a.push(Vec3::new(5.0, 5.0, 5.0), Vec3::new(1.0, 0.0, 0.0), 0);
        a.set_masses(vec![2.0]);
        (a, SimBox::cubic(10.0), UnitSystem::lj())
    }

    #[test]
    fn nve_free_particle_moves_ballistically() {
        let (mut a, mut bx, u) = free_particle();
        let ctx = IntegrateContext {
            dt: 0.01,
            units: &u,
            virial: 0.0,
        };
        let mut nve = VelocityVerlet::new();
        for _ in 0..100 {
            nve.initial_integrate(&mut a, &mut bx, &ctx);
            nve.final_integrate(&mut a, &mut bx, &ctx);
        }
        assert!((a.x()[0].x - 6.0).abs() < 1e-12);
        assert!((a.v()[0].x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nve_constant_force_quadratic_trajectory() {
        let (mut a, mut bx, u) = free_particle();
        a.v_mut()[0] = Vec3::zero();
        let mut nve = VelocityVerlet::new();
        let dt = 0.001;
        let nsteps = 1000;
        for _ in 0..nsteps {
            let ctx = IntegrateContext {
                dt,
                units: &u,
                virial: 0.0,
            };
            nve.initial_integrate(&mut a, &mut bx, &ctx);
            a.f_mut()[0] = Vec3::new(2.0, 0.0, 0.0); // constant force
            nve.final_integrate(&mut a, &mut bx, &ctx);
        }
        let t = dt * nsteps as f64;
        // a = F/m = 1.0, x = x0 + a t^2/2 (Verlet is exact for constant force
        // up to the half-step offset of the first kick).
        let expect = 5.0 + 0.5 * 1.0 * t * t;
        assert!((a.x()[0].x - expect).abs() < 2e-3, "{}", a.x()[0].x);
        assert!((a.v()[0].x - 1.0 * t).abs() < 2e-3);
    }

    #[test]
    fn npt_thermostat_pulls_temperature_to_target() {
        let mut a = AtomStore::new();
        let mut seed = 1u64;
        for i in 0..512 {
            seed = seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let r = |s: u64, sh: u32| ((s >> sh) & 0x3ff) as f64 / 1024.0;
            let _ = i;
            a.push(
                Vec3::new(20.0 * r(seed, 0), 20.0 * r(seed, 10), 20.0 * r(seed, 20)),
                Vec3::zero(),
                0,
            );
        }
        a.set_masses(vec![1.0]);
        let u = UnitSystem::lj();
        seed_velocities(&mut a, &u, 2.0, 9);
        let mut bx = SimBox::cubic(20.0);
        let mut npt = NoseHooverNpt::new(NptParams {
            t_target: 1.0,
            t_damp: 0.5,
            p_target: 0.5,
            p_damp: 5.0,
        })
        .unwrap();
        // Ideal gas (no forces): thermostat should cool 2.0 -> ~1.0.
        for _ in 0..4000 {
            let ctx = IntegrateContext {
                dt: 0.005,
                units: &u,
                virial: 0.0,
            };
            npt.initial_integrate(&mut a, &mut bx, &ctx);
            a.zero_forces();
            npt.final_integrate(&mut a, &mut bx, &ctx);
        }
        let t = temperature(&a, &u);
        assert!(
            (t - 1.0).abs() < 0.25,
            "temperature {t} did not relax to 1.0"
        );
    }

    #[test]
    fn npt_barostat_compresses_overexpanded_gas() {
        // Ideal gas at T=1 in a box with P < target: the barostat must shrink V.
        let mut a = AtomStore::new();
        let mut s = 7u64;
        for _ in 0..512 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = |s: u64, sh: u32| ((s >> sh) & 0x3ff) as f64 / 1024.0;
            a.push(
                Vec3::new(30.0 * r(s, 0), 30.0 * r(s, 10), 30.0 * r(s, 20)),
                Vec3::zero(),
                0,
            );
        }
        a.set_masses(vec![1.0]);
        let u = UnitSystem::lj();
        seed_velocities(&mut a, &u, 1.0, 4);
        let mut bx = SimBox::cubic(30.0);
        let v0 = bx.volume();
        let mut npt = NoseHooverNpt::new(NptParams {
            t_target: 1.0,
            t_damp: 0.5,
            p_target: 0.2, // ideal-gas pressure here is 512/27000 ≈ 0.019
            p_damp: 2.0,
        })
        .unwrap();
        for _ in 0..3000 {
            let ctx = IntegrateContext {
                dt: 0.005,
                units: &u,
                virial: 0.0,
            };
            npt.initial_integrate(&mut a, &mut bx, &ctx);
            a.zero_forces();
            npt.final_integrate(&mut a, &mut bx, &ctx);
        }
        assert!(
            bx.volume() < 0.8 * v0,
            "volume {} did not shrink from {v0}",
            bx.volume()
        );
    }

    #[test]
    fn npt_rejects_bad_damping() {
        let err = NoseHooverNpt::new(NptParams {
            t_target: 1.0,
            t_damp: 0.0,
            p_target: 1.0,
            p_damp: 1.0,
        })
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidParameter { name: "Tdamp", .. }
        ));
    }

    #[test]
    fn npt_state_round_trips_bitwise() {
        let params = NptParams {
            t_target: 1.0,
            t_damp: 0.5,
            p_target: 0.5,
            p_damp: 5.0,
        };
        let mut a = NoseHooverNpt::new(params).unwrap();
        a.xi = 0.123456789;
        a.eps_dot = -3.2e-7;
        let mut w = wire::Writer::new();
        Integrator::state_save(&a, &mut w);
        let bytes = w.into_bytes();
        let mut b = NoseHooverNpt::new(params).unwrap();
        let mut r = wire::Reader::new(&bytes, "npt");
        Integrator::state_load(&mut b, &mut r).unwrap();
        assert_eq!(b.xi.to_bits(), a.xi.to_bits());
        assert_eq!(b.eps_dot.to_bits(), a.eps_dot.to_bits());
    }
}
