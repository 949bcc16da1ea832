//! Workload profiles: the per-benchmark operation counts that feed the
//! instance models.
//!
//! A profile is **measured** from a real engine run of the 32k-atom deck
//! (neighbor density, rebuild cadence, bonded-term counts are intensive —
//! independent of system size at fixed density), then **scaled** analytically
//! to the paper's larger sizes. The k-space mesh is re-resolved at every
//! size and error threshold through the same accuracy machinery the solver
//! itself uses.

use md_core::{CoreError, Result};
use md_kspace::KspaceAccuracy;
use md_workloads::{atoms_at_scale, build_deck, Benchmark};

/// K-space work at one size/threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KspaceWork {
    /// PPPM mesh.
    pub grid: [usize; 3],
    /// Total mesh points.
    pub grid_points: usize,
    /// Charge-assignment order.
    pub order: usize,
    /// Relative force-error threshold.
    pub relative_error: f64,
}

/// Operation counts of one benchmark at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Replication factor (1..=4).
    pub scale: usize,
    /// Atom count.
    pub natoms: usize,
    /// Stored neighbors per atom (cutoff + skin shell).
    pub stored_neighbors: f64,
    /// Neighbors per atom within the bare cutoff (Table 2 convention).
    pub cutoff_neighbors: f64,
    /// Mean steps between neighbor-list rebuilds.
    pub rebuild_interval: f64,
    /// Bonds + angles + dihedrals per atom.
    pub bonded_per_atom: f64,
    /// SHAKE constraints per atom.
    pub constraints_per_atom: f64,
    /// Whether pairs are halved by Newton's third law.
    pub newton: bool,
    /// Interaction range for the halo (cutoff + skin).
    pub ghost_cutoff: f64,
    /// Box extents at this size.
    pub box_lengths: [f64; 3],
    /// Σq² (for k-space re-resolution), zero if chargeless.
    pub qsqsum: f64,
    /// K-space work, if the benchmark computes long-range forces.
    pub kspace: Option<KspaceWork>,
}

impl WorkloadProfile {
    /// Measures the 32k-atom profile by running `steps` real timesteps.
    ///
    /// # Errors
    ///
    /// Propagates deck construction or stepping failures.
    pub fn measure(benchmark: Benchmark, steps: u64, seed: u64) -> Result<Self> {
        let mut deck = build_deck(benchmark, 1, seed)?;
        // Warm up: the first steps off the generated lattice rebuild the
        // neighbor list atypically often and would bias the cadence.
        deck.simulation.run(10)?;
        let builds_before = deck
            .simulation
            .neighbor_list()
            .map_or(0, |n| n.stats().builds);
        deck.simulation.run(steps)?;
        let sim = &deck.simulation;
        let nl = sim
            .neighbor_list()
            .ok_or_else(|| CoreError::InvalidParameter {
                name: "profile",
                reason: "benchmark has no pair style".to_string(),
            })?;
        let stats = nl.stats();
        let rebuilds = (stats.builds - builds_before).max(1);
        let atoms = sim.atoms();
        let n = atoms.len();
        // Steady-state rebuild cadence: the measured count is biased low
        // while the generated lattice relaxes, so floor it with the
        // ballistic estimate (time for an RMS-speed atom to cross skin/2).
        let mean_speed = atoms.v().iter().map(|v| v.norm()).sum::<f64>() / n.max(1) as f64;
        let ballistic = if mean_speed > 0.0 {
            0.5 * nl.skin() / (mean_speed * sim.dt())
        } else {
            f64::INFINITY
        };
        let rebuild_interval = (steps as f64 / rebuilds as f64).max(ballistic).min(200.0);
        let bonded = atoms.bonds().len() + atoms.angles().len() + atoms.dihedrals().len();
        let bxl = sim.sim_box().lengths();
        let qsqsum: f64 = atoms.charges().iter().map(|q| q * q).sum();
        let kspace = if benchmark.has_kspace() {
            let acc = KspaceAccuracy::resolve(
                md_workloads::rhodo::CUT_COUL,
                md_workloads::rhodo::KSPACE_ERROR,
                n,
                qsqsum,
                [bxl.x, bxl.y, bxl.z],
                5,
            )?;
            Some(KspaceWork {
                grid: acc.grid,
                grid_points: acc.grid_points(),
                order: 5,
                relative_error: md_workloads::rhodo::KSPACE_ERROR,
            })
        } else {
            None
        };
        // SHAKE constraints: 3 per rigid water in the rhodo deck.
        let constraints_per_atom = if benchmark == Benchmark::Rhodo {
            // 3 constraints per 3-atom water; waters are 28800/32000 atoms.
            (3.0 * 9600.0) / 32_000.0
        } else {
            0.0
        };
        Ok(WorkloadProfile {
            benchmark,
            scale: 1,
            natoms: n,
            stored_neighbors: stats.neighbors_per_atom,
            cutoff_neighbors: stats.neighbors_within_cutoff,
            rebuild_interval,
            bonded_per_atom: bonded as f64 / n as f64,
            constraints_per_atom,
            newton: benchmark.newton_pairs(),
            ghost_cutoff: nl.cutoff() + nl.skin(),
            box_lengths: [bxl.x, bxl.y, bxl.z],
            qsqsum,
            kspace,
        })
    }

    /// Scales this (intensive) profile to another replication factor: atom
    /// counts and box extents grow, per-atom statistics stay, and the
    /// k-space mesh is re-resolved for the bigger box.
    ///
    /// # Errors
    ///
    /// Returns an error for scales outside 1..=4.
    pub fn at_scale(&self, scale: usize) -> Result<WorkloadProfile> {
        if !(1..=4).contains(&scale) {
            return Err(CoreError::InvalidParameter {
                name: "scale",
                reason: format!("replication factor {scale} outside 1..=4"),
            });
        }
        let f = scale as f64 / self.scale as f64;
        let mut out = self.clone();
        out.scale = scale;
        out.natoms = atoms_at_scale(scale);
        out.box_lengths = self.box_lengths.map(|l| l * f);
        out.qsqsum = self.qsqsum * f.powi(3);
        if let Some(ks) = self.kspace {
            out.kspace = Some(resolve_kspace(&out, ks.relative_error)?);
        }
        Ok(out)
    }

    /// Re-resolves the k-space work at a different error threshold
    /// (the paper's Section 7 sweep).
    ///
    /// # Errors
    ///
    /// Returns an error if the benchmark has no k-space or the threshold is
    /// invalid.
    pub fn with_kspace_error(&self, relative_error: f64) -> Result<WorkloadProfile> {
        if self.kspace.is_none() {
            return Err(CoreError::InvalidParameter {
                name: "kspace",
                reason: format!("{} has no long-range solver", self.benchmark),
            });
        }
        let mut out = self.clone();
        out.kspace = Some(resolve_kspace(&out, relative_error)?);
        Ok(out)
    }

    /// Pair interactions computed per timestep (Newton-halved where the
    /// style allows).
    pub fn pair_ops_per_step(&self) -> f64 {
        let per_atom = if self.newton {
            self.stored_neighbors / 2.0
        } else {
            self.stored_neighbors
        };
        self.natoms as f64 * per_atom
    }
}

fn resolve_kspace(profile: &WorkloadProfile, relative_error: f64) -> Result<KspaceWork> {
    let acc = KspaceAccuracy::resolve(
        md_workloads::rhodo::CUT_COUL,
        relative_error,
        profile.natoms,
        profile.qsqsum,
        profile.box_lengths,
        5,
    )?;
    Ok(KspaceWork {
        grid: acc.grid,
        grid_points: acc.grid_points(),
        order: 5,
        relative_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lj_profile_measures_table2_density() {
        let p = WorkloadProfile::measure(Benchmark::Lj, 10, 1).unwrap();
        assert_eq!(p.natoms, 32_000);
        assert!((45.0..=65.0).contains(&p.cutoff_neighbors));
        assert!(p.newton);
        assert!(p.kspace.is_none());
        assert!(p.rebuild_interval >= 1.0);
    }

    #[test]
    fn chain_profile_has_bonds() {
        let p = WorkloadProfile::measure(Benchmark::Chain, 10, 1).unwrap();
        assert!(p.bonded_per_atom > 0.9 && p.bonded_per_atom < 1.1);
    }

    #[test]
    fn scaling_is_intensive() {
        let p = WorkloadProfile::measure(Benchmark::Lj, 5, 1).unwrap();
        let p4 = p.at_scale(4).unwrap();
        assert_eq!(p4.natoms, 2_048_000);
        assert_eq!(p4.stored_neighbors, p.stored_neighbors);
        assert!((p4.box_lengths[0] / p.box_lengths[0] - 4.0).abs() < 1e-12);
        assert!(
            (p4.pair_ops_per_step() / p.pair_ops_per_step() - 64.0).abs() < 1e-9,
            "pair ops scale with volume"
        );
    }

    #[test]
    fn rhodo_kspace_grid_grows_with_size_and_threshold() {
        let p = WorkloadProfile::measure(Benchmark::Rhodo, 2, 1).unwrap();
        let ks1 = p.kspace.expect("rhodo has kspace");
        let p4 = p.at_scale(4).unwrap();
        let ks4 = p4.kspace.expect("still kspace");
        assert!(ks4.grid_points > ks1.grid_points);
        let tight = p.with_kspace_error(1e-7).unwrap().kspace.unwrap();
        assert!(tight.grid_points > ks1.grid_points);
    }

    #[test]
    fn chute_has_no_newton() {
        let p = WorkloadProfile::measure(Benchmark::Chute, 5, 1).unwrap();
        assert!(!p.newton);
        // Full lists: pair ops per atom equal the stored neighbor count.
        let per_atom = p.pair_ops_per_step() / p.natoms as f64;
        assert!((per_atom - p.stored_neighbors).abs() < 1e-9);
    }

    #[test]
    fn kspace_error_rejects_chargeless_benchmarks() {
        let p = WorkloadProfile::measure(Benchmark::Lj, 2, 1).unwrap();
        assert!(p.with_kspace_error(1e-5).is_err());
    }
}
