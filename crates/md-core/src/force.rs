//! Force-field interfaces: pair, bonded, and k-space (long-range) styles.
//!
//! Concrete potentials live in `md-potentials` (pairwise and bonded) and
//! `md-kspace` (Ewald, PPPM). The [`Simulation`](crate::Simulation) driver
//! invokes them through these object-safe traits and attributes their time to
//! the `Pair`, `Bond`, and `Kspace` tasks of the paper's Table 1.

use crate::atoms::{Angle, Bond, Dihedral};
use crate::error::Result;
use crate::neighbor::{NeighborList, NeighborListKind};
use crate::simbox::SimBox;
use crate::units::UnitSystem;
use crate::V3;

/// Energy and scalar virial accumulated by one force computation.
///
/// The virial is `Σ r_ij · f_ij` over interactions; the pressure follows as
/// `P = (N k_B T + virial / 3) / V` (times the unit system's `nktv2p`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyVirial {
    /// Van der Waals (or general non-Coulomb) potential energy.
    pub evdwl: f64,
    /// Coulomb potential energy (real-space or reciprocal, per style).
    pub ecoul: f64,
    /// Scalar virial `Σ r·f`.
    pub virial: f64,
}

impl EnergyVirial {
    /// Sum of both energy channels.
    pub fn energy(&self) -> f64 {
        self.evdwl + self.ecoul
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &EnergyVirial) -> EnergyVirial {
        EnergyVirial {
            evdwl: self.evdwl + other.evdwl,
            ecoul: self.ecoul + other.ecoul,
            virial: self.virial + other.virial,
        }
    }
}

impl std::ops::AddAssign for EnergyVirial {
    fn add_assign(&mut self, o: Self) {
        *self = self.merged(&o);
    }
}

/// Read-only view of the per-atom state a pair style may consume.
///
/// Granular styles need velocities, radii, and the timestep (for the shear
/// history); Coulomb styles need charges; everything needs positions, types,
/// and the box.
#[derive(Debug, Clone, Copy)]
pub struct PairSystem<'a> {
    /// Simulation box (for minimum-image displacements).
    pub bx: &'a SimBox,
    /// Positions.
    pub x: &'a [V3],
    /// Velocities.
    pub v: &'a [V3],
    /// Per-atom type indices.
    pub kinds: &'a [u32],
    /// Per-atom charges.
    pub charge: &'a [f64],
    /// Per-atom radii (granular styles; zero elsewhere).
    pub radius: &'a [f64],
    /// Per-type mass table (`mass_by_type[kinds[i]]` is atom `i`'s mass).
    pub mass_by_type: &'a [f64],
    /// Unit constants (Coulomb prefactor, Boltzmann).
    pub units: &'a UnitSystem,
    /// Timestep, needed by history-dependent styles.
    pub dt: f64,
}

impl PairSystem<'_> {
    /// Mass of atom `i`.
    #[inline(always)]
    pub fn mass(&self, i: usize) -> f64 {
        self.mass_by_type[self.kinds[i] as usize]
    }
}

/// A post-force fix (LAMMPS `fix`): thermostats, gravity, walls.
///
/// Fixes run after pair/bonded/k-space forces each timestep and accumulate
/// additional forces into `f`. Their time is attributed to the `Modify` task.
pub trait Fix: Send {
    /// Fix name (e.g. `langevin`, `gravity`, `wall/gran`).
    fn name(&self) -> &'static str;

    /// Adds this fix's forces for the current step.
    fn post_force(&mut self, sys: &PairSystem<'_>, f: &mut [V3]);

    /// Appends the fix's mutable state (RNG streams, accumulators) for a
    /// checkpoint. Stateless fixes write nothing.
    fn state_save(&self, _w: &mut crate::wire::Writer) {}

    /// Restores state written by [`Fix::state_save`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CorruptState`] on a malformed blob.
    fn state_load(&mut self, _r: &mut crate::wire::Reader<'_>) -> Result<()> {
        Ok(())
    }
}

/// A pairwise interaction potential (LAMMPS `pair_style`).
pub trait PairStyle: Send {
    /// Style name, matching LAMMPS nomenclature (e.g. `lj/cut`).
    fn name(&self) -> &'static str;

    /// Interaction cutoff (the neighbor list adds the skin on top).
    fn cutoff(&self) -> f64;

    /// Which neighbor-list convention the style requires.
    ///
    /// Defaults to half lists (Newton's third law reused); the granular
    /// history style overrides this to [`NeighborListKind::Full`].
    fn list_kind(&self) -> NeighborListKind {
        NeighborListKind::Half
    }

    /// Accumulates forces into `f` and returns energy/virial.
    ///
    /// `f` has one entry per atom; for half lists the style must apply
    /// Newton's third law itself.
    fn compute(&mut self, sys: &PairSystem<'_>, nl: &NeighborList, f: &mut [V3]) -> EnergyVirial;

    /// Selects the inner-loop implementation (scalar reference vs the
    /// lane-blocked vectorizable path). Styles without a lanes kernel may
    /// ignore this and keep running scalar.
    fn set_kernel_path(&mut self, _path: crate::kernel::KernelPath) {}

    /// The currently active inner-loop implementation.
    fn kernel_path(&self) -> crate::kernel::KernelPath {
        crate::kernel::KernelPath::Scalar
    }

    /// Whether the style tolerates atom reordering (Morton sorting).
    ///
    /// Styles keeping per-atom-index state (e.g. granular shear history,
    /// matched to the neighbor rows by atom index) override this to `false`
    /// and the engine skips sorting for them.
    fn supports_reorder(&self) -> bool {
        true
    }

    /// Tells a style that carries the real-space half of an Ewald sum which
    /// splitting parameter the long-range solver settled on, so both halves
    /// split the Coulomb sum at the same place. Styles without such a term
    /// ignore it.
    fn set_g_ewald(&mut self, _g: f64) {}

    /// Attaches an observability recorder so threaded styles can emit
    /// per-worker spans (one lane per thread, showing the fork/join shape
    /// of the pair kernel). Serial styles ignore it.
    fn set_recorder(&mut self, _recorder: md_observe::Recorder) {}

    /// Appends the style's mutable state (e.g. granular contact history)
    /// for a checkpoint. History-free styles write nothing.
    fn state_save(&self, _w: &mut crate::wire::Writer) {}

    /// Restores state written by [`PairStyle::state_save`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CorruptState`] on a malformed blob.
    fn state_load(&mut self, _r: &mut crate::wire::Reader<'_>) -> Result<()> {
        Ok(())
    }
}

/// A two-body bonded potential (LAMMPS `bond_style`).
pub trait BondStyle: Send {
    /// Style name (e.g. `fene`, `harmonic`).
    fn name(&self) -> &'static str;

    /// Accumulates bond forces into `f` and returns energy/virial.
    fn compute(&mut self, bx: &SimBox, x: &[V3], bonds: &[Bond], f: &mut [V3]) -> EnergyVirial;
}

/// A three-body angle potential (LAMMPS `angle_style`).
pub trait AngleStyle: Send {
    /// Style name (e.g. `harmonic`, `charmm`).
    fn name(&self) -> &'static str;

    /// Accumulates angle forces into `f` and returns energy/virial.
    fn compute(&mut self, bx: &SimBox, x: &[V3], angles: &[Angle], f: &mut [V3]) -> EnergyVirial;
}

/// A four-body dihedral potential (LAMMPS `dihedral_style`).
pub trait DihedralStyle: Send {
    /// Style name (e.g. `harmonic`, `charmm`).
    fn name(&self) -> &'static str;

    /// Accumulates dihedral forces into `f` and returns energy/virial.
    fn compute(
        &mut self,
        bx: &SimBox,
        x: &[V3],
        dihedrals: &[Dihedral],
        f: &mut [V3],
    ) -> EnergyVirial;
}

/// Statistics a long-range solver exposes to the performance models.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KspaceStats {
    /// FFT mesh dimensions.
    pub grid: [usize; 3],
    /// Total mesh points.
    pub grid_points: usize,
    /// Ewald splitting parameter actually used.
    pub g_ewald: f64,
    /// Estimated relative force error at the current settings.
    pub estimated_error: f64,
}

/// A long-range Coulomb solver (LAMMPS `kspace_style`).
pub trait KspaceStyle: Send {
    /// Style name (`ewald`, `pppm`).
    fn name(&self) -> &'static str;

    /// Sizes the splitting parameter and the mesh/coefficients for a box and
    /// charge population.
    ///
    /// Must be called before [`KspaceStyle::compute`]. A barostat that later
    /// dilates the box does not call it again: [`KspaceStyle::compute`],
    /// handed a box of other lengths, rebuilds the box-dependent tables
    /// itself with the splitting parameter and the mesh held fixed (LAMMPS's
    /// `FixNH::remap` → `kspace->setup()`).
    ///
    /// # Errors
    ///
    /// Returns an error if the box and accuracy target are incompatible.
    fn setup(&mut self, bx: &SimBox, q: &[f64]) -> Result<()>;

    /// Accumulates reciprocal-space forces into `f`; returns energy/virial
    /// (energy in `ecoul`).
    fn compute(&mut self, bx: &SimBox, x: &[V3], q: &[f64], f: &mut [V3]) -> EnergyVirial;

    /// Mesh statistics for the performance model.
    fn stats(&self) -> KspaceStats;

    /// Attaches an observability recorder so the solver can emit
    /// kernel-phase sub-spans (charge assignment, FFTs, interpolation)
    /// under the `Kspace` task. Solvers without internal phases ignore it.
    fn set_recorder(&mut self, _recorder: md_observe::Recorder) {}

    /// Sets the shared-memory thread-team configuration (see
    /// [`crate::Threads`]). Solvers without threaded kernels ignore it.
    fn set_threads(&mut self, _threads: crate::Threads) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_virial_merges() {
        let a = EnergyVirial {
            evdwl: 1.0,
            ecoul: 2.0,
            virial: 3.0,
        };
        let mut b = EnergyVirial::default();
        b += a;
        b += a;
        assert_eq!(b.energy(), 6.0);
        assert_eq!(b.virial, 6.0);
    }

    #[test]
    fn traits_are_object_safe() {
        fn _takes(
            _: &dyn PairStyle,
            _: &dyn BondStyle,
            _: &dyn AngleStyle,
            _: &dyn DihedralStyle,
            _: &dyn KspaceStyle,
        ) {
        }
    }
}
