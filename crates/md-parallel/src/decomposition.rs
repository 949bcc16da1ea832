//! LAMMPS-style 3D spatial decomposition of the simulation box.
//!
//! The box is split into a `px × py × pz` brick grid with `px·py·pz = P`,
//! choosing the factorization that minimizes total subdomain surface area
//! (which minimizes ghost-exchange volume), exactly as LAMMPS `procs2box`
//! does for orthogonal boxes.

use md_core::{CoreError, Result, SimBox, V3};

/// A processor-grid factorization `px × py × pz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcGrid {
    /// Ranks along x.
    pub px: usize,
    /// Ranks along y.
    pub py: usize,
    /// Ranks along z.
    pub pz: usize,
}

impl ProcGrid {
    /// Total rank count.
    pub fn count(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Rank id of grid cell `(ix, iy, iz)`.
    pub fn rank_of(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.py + iy) * self.px + ix
    }

    /// Grid cell of rank `r`.
    pub fn coords_of(&self, r: usize) -> (usize, usize, usize) {
        let ix = r % self.px;
        let iy = (r / self.px) % self.py;
        let iz = r / (self.px * self.py);
        (ix, iy, iz)
    }

    /// Chooses the factorization of `p` minimizing subdomain surface area
    /// for a box with the given extents.
    ///
    /// # Errors
    ///
    /// Returns an error if `p == 0`.
    pub fn choose(p: usize, lengths: V3) -> Result<Self> {
        if p == 0 {
            return Err(CoreError::InvalidParameter {
                name: "ranks",
                reason: "rank count must be positive".to_string(),
            });
        }
        let mut best: Option<(f64, ProcGrid)> = None;
        for px in 1..=p {
            if !p.is_multiple_of(px) {
                continue;
            }
            let rem = p / px;
            for py in 1..=rem {
                if !rem.is_multiple_of(py) {
                    continue;
                }
                let pz = rem / py;
                let (sx, sy, sz) = (
                    lengths.x / px as f64,
                    lengths.y / py as f64,
                    lengths.z / pz as f64,
                );
                // Surface area of one subdomain brick.
                let surf = 2.0 * (sx * sy + sy * sz + sx * sz);
                let grid = ProcGrid { px, py, pz };
                if best.is_none_or(|(s, _)| surf < s) {
                    best = Some((surf, grid));
                }
            }
        }
        Ok(best.expect("p >= 1 always yields a factorization").1)
    }
}

impl std::fmt::Display for ProcGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.px, self.py, self.pz)
    }
}

/// A concrete decomposition of a box across a processor grid.
#[derive(Debug, Clone)]
pub struct Decomposition {
    bx: SimBox,
    grid: ProcGrid,
}

impl Decomposition {
    /// Decomposes `bx` across `p` ranks with the best-surface factorization.
    ///
    /// # Errors
    ///
    /// Returns an error if `p == 0`.
    pub fn new(bx: SimBox, p: usize) -> Result<Self> {
        let grid = ProcGrid::choose(p, bx.lengths())?;
        Ok(Decomposition { bx, grid })
    }

    /// The processor grid.
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// The decomposed box.
    pub fn sim_box(&self) -> &SimBox {
        &self.bx
    }

    /// Rank count.
    pub fn nranks(&self) -> usize {
        self.grid.count()
    }

    /// The owning rank of position `x` (positions outside the box are
    /// wrapped by fractional-coordinate clamping, so ghosts resolve too).
    pub fn rank_of_position(&self, x: V3) -> usize {
        let f = self.bx.fractional(x);
        let cell = |frac: f64, n: usize| -> usize {
            let w = frac.rem_euclid(1.0);
            ((w * n as f64) as usize).min(n - 1)
        };
        self.grid.rank_of(
            cell(f.x, self.grid.px),
            cell(f.y, self.grid.py),
            cell(f.z, self.grid.pz),
        )
    }

    /// Subdomain bounds `(lo, hi)` of rank `r`.
    pub fn subdomain(&self, r: usize) -> (V3, V3) {
        let (ix, iy, iz) = self.grid.coords_of(r);
        let l = self.bx.lengths();
        let lo = self.bx.lo();
        let s = V3::new(
            l.x / self.grid.px as f64,
            l.y / self.grid.py as f64,
            l.z / self.grid.pz as f64,
        );
        let sub_lo = V3::new(
            lo.x + ix as f64 * s.x,
            lo.y + iy as f64 * s.y,
            lo.z + iz as f64 * s.z,
        );
        (sub_lo, sub_lo + s)
    }

    /// The six face-neighbor ranks of `r` (−x, +x, −y, +y, −z, +z), with
    /// periodic wrap-around. On non-periodic axes at the boundary the rank
    /// itself is returned (self-exchange carries no data).
    pub fn face_neighbors(&self, r: usize) -> [usize; 6] {
        let (ix, iy, iz) = self.grid.coords_of(r);
        let wrap = |i: i64, n: usize, axis: usize| -> Option<usize> {
            if self.bx.is_periodic(axis) {
                Some(i.rem_euclid(n as i64) as usize)
            } else if i < 0 || i >= n as i64 {
                None
            } else {
                Some(i as usize)
            }
        };
        let mut out = [r; 6];
        let coords = [ix as i64, iy as i64, iz as i64];
        let dims = [self.grid.px, self.grid.py, self.grid.pz];
        for axis in 0..3 {
            for (slot, delta) in [(2 * axis, -1i64), (2 * axis + 1, 1i64)] {
                let mut c = coords;
                c[axis] += delta;
                if let Some(w) = wrap(c[axis], dims[axis], axis) {
                    let mut u = [ix, iy, iz];
                    u[axis] = w;
                    out[slot] = self.grid.rank_of(u[0], u[1], u[2]);
                }
            }
        }
        out
    }

    /// Counts owned atoms per rank (O(N)).
    pub fn count_owned(&self, x: &[V3]) -> Vec<usize> {
        let mut counts = vec![0usize; self.nranks()];
        for &p in x {
            counts[self.rank_of_position(p)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::Vec3;

    #[test]
    fn grid_choice_prefers_cubic_subdomains() {
        let g = ProcGrid::choose(8, Vec3::splat(10.0)).unwrap();
        assert_eq!((g.px, g.py, g.pz), (2, 2, 2));
        let g = ProcGrid::choose(64, Vec3::splat(10.0)).unwrap();
        assert_eq!((g.px, g.py, g.pz), (4, 4, 4));
    }

    #[test]
    fn grid_choice_follows_box_anisotropy() {
        // A box twice as long in x should get more ranks along x.
        let g = ProcGrid::choose(2, Vec3::new(20.0, 10.0, 10.0)).unwrap();
        assert_eq!((g.px, g.py, g.pz), (2, 1, 1));
    }

    #[test]
    fn rank_coords_roundtrip() {
        let g = ProcGrid {
            px: 3,
            py: 4,
            pz: 5,
        };
        for r in 0..g.count() {
            let (x, y, z) = g.coords_of(r);
            assert_eq!(g.rank_of(x, y, z), r);
        }
    }

    #[test]
    fn every_position_maps_to_exactly_one_rank() {
        let bx = SimBox::cubic(10.0);
        let d = Decomposition::new(bx, 8).unwrap();
        let mut counts = vec![0usize; 8];
        for ix in 0..10 {
            for iy in 0..10 {
                for iz in 0..10 {
                    let p = Vec3::new(ix as f64 + 0.5, iy as f64 + 0.5, iz as f64 + 0.5);
                    counts[d.rank_of_position(p)] += 1;
                }
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert!(counts.iter().all(|&c| c == 125), "{counts:?}");
    }

    #[test]
    fn subdomains_partition_the_box() {
        let bx = SimBox::orthogonal(8.0, 4.0, 2.0);
        let d = Decomposition::new(bx, 16).unwrap();
        let vol_total: f64 = (0..16)
            .map(|r| {
                let (lo, hi) = d.subdomain(r);
                (hi.x - lo.x) * (hi.y - lo.y) * (hi.z - lo.z)
            })
            .sum();
        assert!((vol_total - bx.volume()).abs() < 1e-9);
        // An interior point maps to the rank whose subdomain contains it.
        for r in 0..16 {
            let (lo, hi) = d.subdomain(r);
            let mid = (lo + hi) * 0.5;
            assert_eq!(d.rank_of_position(mid), r);
        }
    }

    #[test]
    fn face_neighbors_wrap_periodically() {
        let bx = SimBox::cubic(10.0);
        let d = Decomposition::new(bx, 8).unwrap(); // 2x2x2
        let nb = d.face_neighbors(0);
        // In a 2-wide periodic grid, -x and +x neighbors coincide.
        assert_eq!(nb[0], nb[1]);
        assert_ne!(nb[0], 0);
    }

    #[test]
    fn nonperiodic_boundary_has_self_neighbor() {
        let bx = SimBox::cubic(10.0).with_periodicity(true, true, false);
        let d = Decomposition::new(bx, 8).unwrap();
        // Rank at z=0 has itself as its -z neighbor (no exchange).
        let r = d.grid().rank_of(0, 0, 0);
        assert_eq!(d.face_neighbors(r)[4], r);
    }

    #[test]
    fn count_owned_is_conserved() {
        let bx = SimBox::cubic(10.0);
        let d = Decomposition::new(bx, 27).unwrap();
        let x: Vec<V3> = (0..500)
            .map(|i| {
                let t = i as f64;
                Vec3::new((t * 0.617) % 10.0, (t * 0.379) % 10.0, (t * 0.211) % 10.0)
            })
            .collect();
        let counts = d.count_owned(&x);
        assert_eq!(counts.iter().sum::<usize>(), 500);
    }

    #[test]
    fn rejects_zero_ranks() {
        assert!(Decomposition::new(SimBox::cubic(1.0), 0).is_err());
    }
}
