//! Direct velocity-manipulation fixes: hard temperature rescaling
//! (LAMMPS `fix temp/rescale`) and the Berendsen weak-coupling thermostat
//! (`fix temp/berendsen`) — the cheap alternatives to Langevin/Nose-Hoover
//! that equilibration stages of MD decks commonly use.
//!
//! Both act on velocities directly between steps (not through forces), so
//! they are applied by the caller via [`TempRescale::apply`] /
//! [`BerendsenThermostat::apply`] rather than as post-force [`crate::Fix`]es.

use crate::atoms::AtomStore;
use crate::compute::temperature;
use crate::units::UnitSystem;

/// Hard velocity rescaling toward a target temperature whenever the
/// instantaneous temperature strays outside a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TempRescale {
    /// Target temperature.
    pub t_target: f64,
    /// Allowed deviation before rescaling triggers.
    pub window: f64,
    /// Fraction of the deviation removed per application (1.0 = exact).
    pub fraction: f64,
}

impl TempRescale {
    /// Creates a rescaler.
    ///
    /// # Panics
    ///
    /// Panics if the target is non-positive, the window negative, or the
    /// fraction outside `(0, 1]`.
    pub fn new(t_target: f64, window: f64, fraction: f64) -> Self {
        assert!(t_target > 0.0, "target temperature must be positive");
        assert!(window >= 0.0, "window must be non-negative");
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        TempRescale {
            t_target,
            window,
            fraction,
        }
    }

    /// Rescales velocities if the temperature is outside the window.
    ///
    /// Returns the temperature after the call.
    pub fn apply(&self, atoms: &mut AtomStore, units: &UnitSystem) -> f64 {
        let t = temperature(atoms, units);
        if t <= 0.0 || (t - self.t_target).abs() <= self.window {
            return t;
        }
        let t_new = t + self.fraction * (self.t_target - t);
        let s = (t_new / t).sqrt();
        for v in atoms.v_mut() {
            *v *= s;
        }
        temperature(atoms, units)
    }
}

/// Berendsen weak-coupling thermostat: velocities scale by
/// `λ = sqrt(1 + (dt/τ)(T0/T - 1))` each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerendsenThermostat {
    /// Target temperature.
    pub t_target: f64,
    /// Coupling time constant τ (time units).
    pub tau: f64,
}

impl BerendsenThermostat {
    /// Creates the thermostat.
    ///
    /// # Panics
    ///
    /// Panics if the target or τ is non-positive.
    pub fn new(t_target: f64, tau: f64) -> Self {
        assert!(t_target > 0.0, "target temperature must be positive");
        assert!(tau > 0.0, "coupling time must be positive");
        BerendsenThermostat { t_target, tau }
    }

    /// Applies one weak-coupling step of length `dt`.
    ///
    /// Returns the temperature after the call.
    pub fn apply(&self, atoms: &mut AtomStore, units: &UnitSystem, dt: f64) -> f64 {
        let t = temperature(atoms, units);
        if t <= 0.0 {
            return t;
        }
        let lambda2 = 1.0 + (dt / self.tau) * (self.t_target / t - 1.0);
        let s = lambda2.max(0.0).sqrt();
        for v in atoms.v_mut() {
            *v *= s;
        }
        temperature(atoms, units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::seed_velocities;
    use crate::vec3::Vec3;

    fn hot_gas(t: f64) -> (AtomStore, UnitSystem) {
        let mut a = AtomStore::new();
        for i in 0..200 {
            a.push(Vec3::new(i as f64, 0.0, 0.0), Vec3::zero(), 0);
        }
        a.set_masses(vec![1.0]);
        let u = UnitSystem::lj();
        seed_velocities(&mut a, &u, t, 7);
        (a, u)
    }

    #[test]
    fn rescale_hits_target_exactly_with_full_fraction() {
        let (mut a, u) = hot_gas(3.0);
        let fix = TempRescale::new(1.0, 0.05, 1.0);
        let t = fix.apply(&mut a, &u);
        assert!((t - 1.0).abs() < 1e-9, "temperature {t}");
    }

    #[test]
    fn rescale_respects_window() {
        let (mut a, u) = hot_gas(1.02);
        let fix = TempRescale::new(1.0, 0.1, 1.0);
        let t = fix.apply(&mut a, &u);
        assert!((t - 1.02).abs() < 1e-9, "inside window, no rescale: {t}");
    }

    #[test]
    fn rescale_partial_fraction_moves_halfway() {
        let (mut a, u) = hot_gas(2.0);
        let fix = TempRescale::new(1.0, 0.0, 0.5);
        let t = fix.apply(&mut a, &u);
        assert!((t - 1.5).abs() < 1e-9, "halfway: {t}");
    }

    #[test]
    fn berendsen_relaxes_exponentially() {
        let (mut a, u) = hot_gas(2.0);
        let thermo = BerendsenThermostat::new(1.0, 0.5);
        let dt = 0.005;
        let mut t = 2.0;
        // After τ of coupling the deviation should shrink by ~1/e.
        for _ in 0..100 {
            t = thermo.apply(&mut a, &u, dt);
        }
        let expect = 1.0 + (2.0 - 1.0) * (-(100.0 * dt) / 0.5f64).exp();
        assert!((t - expect).abs() < 0.05, "T = {t}, expect ≈ {expect}");
    }

    #[test]
    fn berendsen_heats_cold_systems_too() {
        let (mut a, u) = hot_gas(0.5);
        let thermo = BerendsenThermostat::new(1.0, 0.2);
        let mut t = 0.5;
        for _ in 0..400 {
            t = thermo.apply(&mut a, &u, 0.005);
        }
        assert!((t - 1.0).abs() < 0.05, "T = {t}");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rescale_rejects_bad_fraction() {
        let _ = TempRescale::new(1.0, 0.0, 0.0);
    }
}
