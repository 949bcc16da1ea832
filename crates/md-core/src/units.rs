//! Unit systems, mirroring the LAMMPS `units` command.
//!
//! The benchmark suite spans three unit systems: reduced Lennard-Jones units
//! (LJ, Chain, Chute), `metal` units (EAM: eV, Å, ps), and `real` units
//! (Rhodopsin: kcal/mol, Å, fs). The engine is unit-agnostic; a
//! [`UnitSystem`] bundles the constants that the integrators, thermostats,
//! and Coulomb kernels need.

/// Physical constants for one simulation unit system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitSystem {
    /// Short name ("lj", "metal", "real").
    pub name: &'static str,
    /// Boltzmann constant in (energy unit)/(temperature unit).
    pub boltzmann: f64,
    /// Coulomb conversion `q_i q_j / r → energy`; zero for chargeless systems.
    pub qqr2e: f64,
    /// Conversion from (mass × velocity²) to energy units (`mvv2e`).
    pub mvv2e: f64,
    /// Conversion from energy/volume to pressure units (`nktv2p`).
    pub nktv2p: f64,
    /// Conventional timestep in time units (τ for LJ, ps for metal, fs for real).
    pub default_dt: f64,
    /// Femtoseconds of physical time per unit of simulation time; lets the
    /// harness convert TS/s into ns/day for the paper's headline numbers.
    pub femtoseconds_per_time_unit: f64,
}

impl UnitSystem {
    /// Reduced Lennard-Jones units: ε = σ = m = kB = 1.
    pub const fn lj() -> Self {
        UnitSystem {
            name: "lj",
            boltzmann: 1.0,
            qqr2e: 1.0,
            mvv2e: 1.0,
            nktv2p: 1.0,
            default_dt: 0.005,
            // Conventional argon mapping: τ ≈ 2.1569 ps (only used for ns/day
            // conversions, which the paper reports only for rhodopsin).
            femtoseconds_per_time_unit: 2156.9,
        }
    }

    /// `metal` units: eV, Å, ps, K, bar (used by the EAM benchmark).
    pub const fn metal() -> Self {
        UnitSystem {
            name: "metal",
            boltzmann: 8.617333262e-5,
            qqr2e: 14.399645,
            mvv2e: 1.0364269e-4,
            nktv2p: 1.6021765e6,
            default_dt: 0.001,
            femtoseconds_per_time_unit: 1000.0,
        }
    }

    /// `real` units: kcal/mol, Å, fs, K, atm (used by the Rhodopsin benchmark).
    pub const fn real() -> Self {
        UnitSystem {
            name: "real",
            boltzmann: 0.0019872067,
            qqr2e: 332.06371,
            mvv2e: 48.88821291 * 48.88821291,
            nktv2p: 68568.415,
            default_dt: 1.0,
            femtoseconds_per_time_unit: 1.0,
        }
    }
}

impl Default for UnitSystem {
    fn default() -> Self {
        Self::lj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metal_boltzmann_matches_ev_per_kelvin() {
        let u = UnitSystem::metal();
        assert!((u.boltzmann - 8.617e-5).abs() < 1e-7);
    }

    #[test]
    fn real_units_kinetic_conversion_is_consistent() {
        // In real units velocities are Å/fs; mvv2e converts g/mol (Å/fs)^2 to
        // kcal/mol: 1 g/mol Å^2/fs^2 = 1e7 J/mol = 2390.06 kcal/mol.
        let u = UnitSystem::real();
        assert!((u.mvv2e - 2390.057).abs() < 0.01);
    }
}
