//! Trajectory analysis: radial distribution function, mean-squared
//! displacement, and velocity autocorrelation — the standard observables a
//! downstream MD user computes from the engine's output (step VIII of the
//! paper's timestep, "compute system properties of interest").

use crate::atoms::AtomStore;
use crate::error::{CoreError, Result};
use crate::neighbor::{NeighborList, NeighborListKind};
use crate::simbox::SimBox;
use crate::vec3::Vec3;
use crate::V3;

/// A radial distribution function g(r) histogram.
#[derive(Debug, Clone)]
pub struct Rdf {
    rmax: f64,
    bins: Vec<f64>,
    samples: usize,
    natoms: usize,
    volume: f64,
}

impl Rdf {
    /// Creates an empty g(r) accumulator with `nbins` bins up to `rmax`.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive range or zero bins.
    pub fn new(rmax: f64, nbins: usize) -> Result<Self> {
        if !(rmax > 0.0) || nbins == 0 {
            return Err(CoreError::InvalidParameter {
                name: "rdf",
                reason: format!("need rmax ({rmax}) > 0 and nbins ({nbins}) > 0"),
            });
        }
        Ok(Rdf {
            rmax,
            bins: vec![0.0; nbins],
            samples: 0,
            natoms: 0,
            volume: 0.0,
        })
    }

    /// Accumulates one configuration (cell-binned, O(N·rmax³ρ)).
    ///
    /// # Errors
    ///
    /// Returns an error if `rmax` exceeds half the smallest box extent.
    pub fn accumulate(&mut self, bx: &SimBox, x: &[V3]) -> Result<()> {
        let mut nl = NeighborList::new(self.rmax, 0.0, NeighborListKind::Half);
        nl.build(x, bx)?;
        let nbins = self.bins.len();
        let dr = self.rmax / nbins as f64;
        for i in 0..x.len() {
            for &j in nl.neighbors(i) {
                let r = bx.min_image(x[i], x[j as usize]).norm();
                let bin = ((r / dr) as usize).min(nbins - 1);
                // Each half-list pair counts for both atoms.
                self.bins[bin] += 2.0;
            }
        }
        self.samples += 1;
        self.natoms = x.len();
        self.volume = bx.volume();
        Ok(())
    }

    /// Normalized `(r, g(r))` rows (bin centers).
    pub fn histogram(&self) -> Vec<(f64, f64)> {
        if self.samples == 0 || self.natoms == 0 {
            return Vec::new();
        }
        let nbins = self.bins.len();
        let dr = self.rmax / nbins as f64;
        let rho = self.natoms as f64 / self.volume;
        let norm = self.samples as f64 * self.natoms as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let r_lo = k as f64 * dr;
                let r_hi = r_lo + dr;
                let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
                let ideal = rho * shell;
                (r_lo + 0.5 * dr, count / (norm * ideal))
            })
            .collect()
    }

    /// The position of the global maximum of g(r) (None before sampling).
    pub fn first_peak(&self) -> Option<f64> {
        let h = self.histogram();
        h.iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .filter(|&&(_, g)| g > 0.0)
            .map(|&(r, _)| r)
    }

    /// The center of the first bin where g(r) exceeds `threshold` — the
    /// onset of the first coordination shell (None before sampling or if
    /// nothing exceeds the threshold).
    pub fn first_shell(&self, threshold: f64) -> Option<f64> {
        self.histogram()
            .into_iter()
            .find(|&(_, g)| g > threshold)
            .map(|(r, _)| r)
    }
}

/// Mean-squared displacement tracker using unwrapped coordinates
/// (positions + image counters, so periodic wrapping does not truncate
/// trajectories).
#[derive(Debug, Clone)]
pub struct Msd {
    origin: Vec<V3>,
}

impl Msd {
    /// Captures the current unwrapped positions as the displacement origin.
    pub fn new(atoms: &AtomStore, bx: &SimBox) -> Self {
        Msd {
            origin: unwrapped(atoms, bx),
        }
    }

    /// Mean-squared displacement relative to the origin snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the atom count changed since the origin snapshot.
    pub fn value(&self, atoms: &AtomStore, bx: &SimBox) -> f64 {
        let now = unwrapped(atoms, bx);
        assert_eq!(now.len(), self.origin.len(), "atom count changed");
        if now.is_empty() {
            return 0.0;
        }
        now.iter()
            .zip(&self.origin)
            .map(|(a, b)| (*a - *b).norm2())
            .sum::<f64>()
            / now.len() as f64
    }
}

/// Velocity autocorrelation tracker: `C(t) = ⟨v(t)·v(0)⟩ / ⟨v(0)·v(0)⟩`.
#[derive(Debug, Clone)]
pub struct VelocityAutocorrelation {
    v0: Vec<V3>,
    norm: f64,
}

impl VelocityAutocorrelation {
    /// Captures the current velocities as the correlation origin.
    pub fn new(atoms: &AtomStore) -> Self {
        let v0: Vec<V3> = atoms.v().to_vec();
        let norm = v0
            .iter()
            .map(|v| v.norm2())
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        VelocityAutocorrelation { v0, norm }
    }

    /// The normalized correlation at the current time (1.0 at the origin).
    ///
    /// # Panics
    ///
    /// Panics if the atom count changed since the origin snapshot.
    pub fn value(&self, atoms: &AtomStore) -> f64 {
        assert_eq!(atoms.len(), self.v0.len(), "atom count changed");
        let dot: f64 = atoms.v().iter().zip(&self.v0).map(|(a, b)| a.dot(*b)).sum();
        dot / self.norm
    }
}

fn unwrapped(atoms: &AtomStore, bx: &SimBox) -> Vec<V3> {
    let l = bx.lengths();
    atoms
        .x()
        .iter()
        .zip(atoms.images())
        .map(|(&p, img)| {
            p + Vec3::new(
                img[0] as f64 * l.x,
                img[1] as f64 * l.y,
                img[2] as f64 * l.z,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gas(n: usize, l: f64, seed: u64) -> (SimBox, Vec<V3>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bx = SimBox::cubic(l);
        let x = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                )
            })
            .collect();
        (bx, x)
    }

    #[test]
    fn ideal_gas_rdf_is_flat_at_one() {
        let (bx, x) = gas(4000, 20.0, 1);
        let mut rdf = Rdf::new(5.0, 25).unwrap();
        rdf.accumulate(&bx, &x).unwrap();
        let h = rdf.histogram();
        // Skip the first couple of bins (tiny shells, noisy).
        for &(r, g) in h.iter().skip(3) {
            assert!((g - 1.0).abs() < 0.25, "g({r:.2}) = {g:.2}");
        }
    }

    #[test]
    fn lattice_rdf_peaks_at_nearest_neighbor_distance() {
        // Simple cubic lattice spacing 2: first peak at r = 2.
        let bx = SimBox::cubic(20.0);
        let mut x = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..10 {
                    x.push(Vec3::new(2.0 * i as f64, 2.0 * j as f64, 2.0 * k as f64));
                }
            }
        }
        let mut rdf = Rdf::new(3.5, 70).unwrap();
        rdf.accumulate(&bx, &x).unwrap();
        // On a perfect lattice g(r) is a train of delta spikes; locate the
        // onset of the first coordination shell rather than the global max
        // (the 12-neighbor second shell can rival the 6-neighbor first one).
        let shell = rdf.first_shell(1.0).unwrap();
        assert!((shell - 2.0).abs() < 0.1, "first shell at {shell}");
        let peak = rdf.first_peak().unwrap();
        assert!(peak >= shell, "peak {peak} before the first shell {shell}");
    }

    #[test]
    fn rdf_rejects_oversized_range() {
        let (bx, x) = gas(100, 6.0, 2);
        let mut rdf = Rdf::new(4.0, 10).unwrap();
        assert!(rdf.accumulate(&bx, &x).is_err());
    }

    #[test]
    fn msd_tracks_ballistic_motion_through_wrapping() {
        let bx = SimBox::cubic(10.0);
        let mut atoms = AtomStore::new();
        atoms.push(Vec3::new(5.0, 5.0, 5.0), Vec3::new(1.0, 0.0, 0.0), 0);
        atoms.set_masses(vec![1.0]);
        let msd = Msd::new(&atoms, &bx);
        // Move 23 units in x, wrapping twice.
        for _ in 0..230 {
            atoms.x_mut()[0].x += 0.1;
            let bx2 = bx;
            let (x, im) = atoms.x_and_images_mut();
            bx2.wrap(&mut x[0], &mut im[0]);
        }
        let v = msd.value(&atoms, &bx);
        assert!((v - 23.0f64.powi(2)).abs() < 1e-6, "MSD {v}");
    }

    #[test]
    fn vacf_starts_at_one_and_flips_sign_on_reversal() {
        let mut atoms = AtomStore::new();
        for i in 0..10 {
            atoms.push(Vec3::new(i as f64, 0.0, 0.0), Vec3::new(1.0, -0.5, 0.25), 0);
        }
        atoms.set_masses(vec![1.0]);
        let vacf = VelocityAutocorrelation::new(&atoms);
        assert!((vacf.value(&atoms) - 1.0).abs() < 1e-12);
        for v in atoms.v_mut() {
            *v = -*v;
        }
        assert!((vacf.value(&atoms) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bins_rejected() {
        assert!(Rdf::new(5.0, 0).is_err());
        assert!(Rdf::new(-1.0, 10).is_err());
    }
}
