//! SHAKE bond-length constraints (LAMMPS `fix shake`).
//!
//! The Rhodopsin benchmark constrains bonds involving hydrogen with SHAKE
//! [Andersen 1983], removing the fastest vibrations so a 2 fs timestep stays
//! stable. This implementation iteratively projects positions back onto the
//! constraint manifold after the drift step and applies the corresponding
//! velocity corrections (the RATTLE velocity half is folded into the position
//! correction divided by `dt`).

use crate::atoms::AtomStore;
use crate::error::{CoreError, Result};
use crate::simbox::SimBox;

/// One distance constraint between two atoms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShakeParams {
    /// First atom.
    pub i: u32,
    /// Second atom.
    pub j: u32,
    /// Constrained bond length.
    pub length: f64,
}

/// The SHAKE constraint solver.
#[derive(Debug, Clone)]
pub struct Shake {
    constraints: Vec<ShakeParams>,
    tolerance: f64,
    max_iterations: usize,
    /// Iterations used by the most recent solve (diagnostic).
    last_iterations: usize,
}

impl Shake {
    /// Creates a solver over the given constraints.
    ///
    /// `tolerance` is the allowed relative deviation `|r² - d²| / d²`.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` or any constraint length is non-positive.
    pub fn new(constraints: Vec<ShakeParams>, tolerance: f64, max_iterations: usize) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        for c in &constraints {
            assert!(c.length > 0.0, "constraint length must be positive");
        }
        Shake {
            constraints,
            tolerance,
            max_iterations,
            last_iterations: 0,
        }
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Iterations used by the most recent [`Shake::apply`].
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// The constraint list.
    pub fn constraints(&self) -> &[ShakeParams] {
        &self.constraints
    }

    /// Remaps every constraint's atom indices through `new_of_old` after an
    /// [`AtomStore::reorder`] (which returns exactly this map).
    pub fn remap_atoms(&mut self, new_of_old: &[u32]) {
        for c in &mut self.constraints {
            c.i = new_of_old[c.i as usize];
            c.j = new_of_old[c.j as usize];
        }
    }

    /// Projects positions onto the constraint manifold and corrects
    /// velocities; call after the drift step with the same `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoConvergence`] if the iteration does not reach
    /// the tolerance within `max_iterations` sweeps.
    pub fn apply(&mut self, atoms: &mut AtomStore, bx: &SimBox, dt: f64) -> Result<()> {
        if self.constraints.is_empty() {
            return Ok(());
        }
        let inv_dt = if dt > 0.0 { 1.0 / dt } else { 0.0 };
        let mut worst = 0.0f64;
        for sweep in 0..self.max_iterations {
            worst = 0.0;
            for c in &self.constraints {
                let (i, j) = (c.i as usize, c.j as usize);
                let d2 = c.length * c.length;
                let rij = bx.min_image(atoms.x()[i], atoms.x()[j]);
                let r2 = rij.norm2();
                let diff = r2 - d2;
                let rel = diff.abs() / d2;
                worst = worst.max(rel);
                if rel <= self.tolerance {
                    continue;
                }
                let mi = atoms.mass(i);
                let mj = atoms.mass(j);
                let inv_mi = 1.0 / mi;
                let inv_mj = 1.0 / mj;
                // Iterative projection along the current bond direction:
                // g solves |r + g (1/mi + 1/mj) r|^2 = d^2 to first order.
                let g = -diff / (2.0 * r2 * (inv_mi + inv_mj));
                let corr_i = rij * (g * inv_mi);
                let corr_j = rij * (-g * inv_mj);
                atoms.x_mut()[i] += corr_i;
                atoms.x_mut()[j] += corr_j;
                atoms.v_mut()[i] += corr_i * inv_dt;
                atoms.v_mut()[j] += corr_j * inv_dt;
            }
            if worst <= self.tolerance {
                self.last_iterations = sweep + 1;
                return Ok(());
            }
        }
        Err(CoreError::NoConvergence {
            what: "shake",
            iterations: self.max_iterations,
            residual: worst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;

    fn water_like() -> (AtomStore, SimBox) {
        let mut a = AtomStore::new();
        // O at origin, two H's slightly off their 1.0-length bonds.
        a.push(Vec3::new(0.0, 0.0, 0.0), Vec3::zero(), 0);
        a.push(Vec3::new(1.08, 0.0, 0.0), Vec3::zero(), 1);
        a.push(Vec3::new(-0.31, 0.95, 0.0), Vec3::zero(), 1);
        a.set_masses(vec![16.0, 1.0]);
        (a, SimBox::cubic(20.0))
    }

    #[test]
    fn restores_bond_lengths() {
        let (mut a, bx) = water_like();
        let mut shake = Shake::new(
            vec![
                ShakeParams {
                    i: 0,
                    j: 1,
                    length: 1.0,
                },
                ShakeParams {
                    i: 0,
                    j: 2,
                    length: 1.0,
                },
            ],
            1e-8,
            100,
        );
        shake.apply(&mut a, &bx, 0.001).unwrap();
        for (i, j) in [(0usize, 1usize), (0, 2)] {
            let r = bx.min_image(a.x()[i], a.x()[j]).norm();
            assert!((r - 1.0).abs() < 1e-4, "bond {i}-{j} length {r}");
        }
        assert!(shake.last_iterations() >= 1);
    }

    #[test]
    fn heavy_atom_moves_less() {
        let (mut a, bx) = water_like();
        let o_before = a.x()[0];
        let h_before = a.x()[1];
        let mut shake = Shake::new(
            vec![ShakeParams {
                i: 0,
                j: 1,
                length: 1.0,
            }],
            1e-10,
            100,
        );
        shake.apply(&mut a, &bx, 0.001).unwrap();
        let o_moved = (a.x()[0] - o_before).norm();
        let h_moved = (a.x()[1] - h_before).norm();
        assert!(
            o_moved < h_moved / 10.0,
            "O moved {o_moved}, H moved {h_moved}"
        );
    }

    #[test]
    fn velocity_correction_matches_position_correction() {
        let (mut a, bx) = water_like();
        let dt = 0.002;
        let x_before = a.x()[1];
        let mut shake = Shake::new(
            vec![ShakeParams {
                i: 0,
                j: 1,
                length: 1.0,
            }],
            1e-10,
            100,
        );
        shake.apply(&mut a, &bx, dt).unwrap();
        let dx = a.x()[1] - x_before;
        assert!((a.v()[1] - dx * (1.0 / dt)).norm() < 1e-12);
    }

    #[test]
    fn reports_non_convergence() {
        let (mut a, bx) = water_like();
        // Impossible pair of constraints: same atoms, two different lengths.
        let mut shake = Shake::new(
            vec![
                ShakeParams {
                    i: 0,
                    j: 1,
                    length: 1.0,
                },
                ShakeParams {
                    i: 0,
                    j: 1,
                    length: 2.0,
                },
            ],
            1e-10,
            20,
        );
        let err = shake.apply(&mut a, &bx, 0.001).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NoConvergence { what: "shake", .. }
        ));
    }

    #[test]
    fn empty_solver_is_a_noop() {
        let (mut a, bx) = water_like();
        let before = a.x().to_vec();
        let mut shake = Shake::new(vec![], 1e-8, 10);
        shake.apply(&mut a, &bx, 0.001).unwrap();
        assert_eq!(a.x(), before.as_slice());
    }
}
