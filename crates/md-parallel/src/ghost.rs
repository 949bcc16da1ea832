//! Ghost-atom construction for the spatial decomposition.
//!
//! Each rank owns the atoms inside its subdomain and keeps *ghost copies* of
//! every atom within the interaction cutoff of its subdomain surface (from
//! neighboring subdomains, possibly through periodic images). The test suite
//! proves that pair forces computed per-rank over owned + ghost atoms equal
//! the single-process result — the correctness contract behind the paper's
//! MPI parallelization.

use crate::decomposition::Decomposition;
use md_core::{Vec3, V3};

/// Ghost sets of one rank.
#[derive(Debug, Clone, Default)]
pub struct RankAtoms {
    /// Global indices of atoms this rank owns.
    pub owned: Vec<usize>,
    /// Ghost copies: `(global index, position)` where the position has been
    /// shifted to the periodic image nearest this subdomain.
    pub ghosts: Vec<(usize, V3)>,
}

/// The full owned/ghost partition for every rank.
#[derive(Debug, Clone)]
pub struct GhostExchange {
    ranks: Vec<RankAtoms>,
    cutoff: f64,
}

/// Maximum per-axis candidate subdomains (cutoff spans at most a few cells).
pub(crate) const MAX_AXIS: usize = 12;

/// `v.floor() as i64` without libm: truncate, then step down when the
/// truncation rounded a negative fraction up. Exact for every finite `v`
/// (a truncated value below 2^53 is representable, one above is `v`
/// itself) and equal to the cast at the saturated ends and for NaN.
#[inline]
pub(crate) fn floor_i64(v: f64) -> i64 {
    let t = v as i64;
    if t as f64 > v {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// The cells `i_lo..=i_hi` an atom's halo reaches along one axis of `n`
/// cells of width `s`, unwrapped (they may lie outside `0..n`).
#[inline]
pub(crate) fn axis_range(coord: f64, lo: f64, s: f64, cutoff: f64) -> (i64, i64) {
    (
        floor_i64((coord - cutoff - lo) / s),
        floor_i64((coord + cutoff - lo) / s),
    )
}

/// The candidate subdomains of the unwrapped range `i_lo..=i_hi` along one
/// axis, each with the periodic shift that maps the atom into that
/// subdomain's frame, allocation-free. A periodic axis wraps every `i`; a
/// non-periodic one keeps only the cells inside `0..n`. At most
/// [`MAX_AXIS`] are kept. Distinct `i` that land on the same cell differ in
/// shift by a whole box length, so no candidate repeats.
pub(crate) fn axis_candidates(
    (i_lo, i_hi): (i64, i64),
    len: f64,
    n: usize,
    periodic: bool,
) -> ([(usize, f64); MAX_AXIS], usize) {
    let mut out = [(0usize, 0.0f64); MAX_AXIS];
    let mut count = 0usize;
    for i in i_lo..=i_hi {
        if count == MAX_AXIS {
            break; // cutoff wraps the axis more than once; halo saturated
        }
        if periodic {
            let w = i.rem_euclid(n as i64) as usize;
            // Shift that maps the atom next to subdomain w.
            let shift = -((i - w as i64) as f64) / n as f64 * len;
            out[count] = (w, shift);
            count += 1;
        } else if i >= 0 && i < n as i64 {
            out[count] = (i as usize, 0.0);
            count += 1;
        }
    }
    (out, count)
}

impl GhostExchange {
    /// Builds owned/ghost sets for every rank of `d` at the given cutoff,
    /// materializing every ghost copy: the explicit exchange the census
    /// ([`crate::WorkloadCensus`]) is held to.
    ///
    /// O(N · k) where `k` is the (small) number of subdomains within the
    /// cutoff of an atom.
    pub fn build(d: &Decomposition, x: &[V3], cutoff: f64) -> Self {
        let bx = d.sim_box();
        let grid = d.grid();
        let l = bx.lengths();
        let lo = bx.lo();
        let dims = [grid.px, grid.py, grid.pz];
        let axis = |p: V3, a: usize| {
            let s = l[a] / dims[a] as f64;
            let range = axis_range(p[a], lo[a], s, cutoff);
            axis_candidates(range, l[a], dims[a], bx.is_periodic(a))
        };
        let mut ranks = vec![RankAtoms::default(); d.nranks()];
        for (gi, &p) in x.iter().enumerate() {
            let owner = d.rank_of_position(p);
            ranks[owner].owned.push(gi);
            let (cx, nx) = axis(p, 0);
            let (cy, ny) = axis(p, 1);
            let (cz, nz) = axis(p, 2);
            for &(ix, sx) in &cx[..nx] {
                for &(iy, sy) in &cy[..ny] {
                    for &(iz, sz) in &cz[..nz] {
                        let r = grid.rank_of(ix, iy, iz);
                        let shifted = p + Vec3::new(sx, sy, sz);
                        if r == owner && sx == 0.0 && sy == 0.0 && sz == 0.0 {
                            continue; // the owned copy itself
                        }
                        ranks[r].ghosts.push((gi, shifted));
                    }
                }
            }
        }
        GhostExchange { ranks, cutoff }
    }

    /// The owned/ghost sets of rank `r`.
    pub fn rank(&self, r: usize) -> &RankAtoms {
        &self.ranks[r]
    }

    /// Rank count.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Cutoff used at construction.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Total ghost copies across all ranks (the halo communication volume).
    pub fn total_ghosts(&self) -> usize {
        self.ranks.iter().map(|r| r.ghosts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::SimBox;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_positions(n: usize, l: f64, seed: u64) -> Vec<V3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                )
            })
            .collect()
    }

    #[test]
    fn floor_i64_equals_the_libm_floor() {
        for v in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            2.999_999,
            -2.000_001,
            1e-300,
            -1e-300,
            4.5e15,
            -4.5e15,
            9.1e18,
            -9.1e18,
            1e19,
            -1e19,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(floor_i64(v), v.floor() as i64, "{v}");
        }
    }

    #[test]
    fn owned_sets_partition_the_atoms() {
        let bx = SimBox::cubic(12.0);
        let d = Decomposition::new(bx, 8).unwrap();
        let x = random_positions(400, 12.0, 1);
        let g = GhostExchange::build(&d, &x, 1.5);
        let total: usize = (0..8).map(|r| g.rank(r).owned.len()).sum();
        assert_eq!(total, 400);
        let mut seen = vec![false; 400];
        for r in 0..8 {
            for &i in &g.rank(r).owned {
                assert!(!seen[i], "atom {i} owned twice");
                seen[i] = true;
            }
        }
    }

    #[test]
    fn ghosts_are_exactly_the_atoms_near_the_subdomain() {
        let bx = SimBox::cubic(12.0);
        let d = Decomposition::new(bx, 8).unwrap();
        let x = random_positions(300, 12.0, 2);
        let cutoff = 1.4;
        let g = GhostExchange::build(&d, &x, cutoff);
        for r in 0..8 {
            let (lo, hi) = d.subdomain(r);
            // Reference: atom j is a ghost of r iff some periodic image of j
            // lies within `cutoff` of the subdomain brick and is not owned.
            let mut want = std::collections::BTreeSet::new();
            let l = bx.lengths();
            for (j, &p) in x.iter().enumerate() {
                for sx in [-1.0, 0.0, 1.0] {
                    for sy in [-1.0, 0.0, 1.0] {
                        for sz in [-1.0, 0.0, 1.0] {
                            let im = p + Vec3::new(sx * l.x, sy * l.y, sz * l.z);
                            let inside_ext = (0..3)
                                .all(|dd| im[dd] >= lo[dd] - cutoff && im[dd] <= hi[dd] + cutoff);
                            let owned_here =
                                sx == 0.0 && sy == 0.0 && sz == 0.0 && d.rank_of_position(p) == r;
                            if inside_ext && !owned_here {
                                want.insert((j, (sx as i64, sy as i64, sz as i64)));
                            }
                        }
                    }
                }
            }
            let got: std::collections::BTreeSet<_> = g
                .rank(r)
                .ghosts
                .iter()
                .map(|&(j, pos)| {
                    let delta = pos - x[j];
                    (
                        j,
                        (
                            (delta.x / l.x).round() as i64,
                            (delta.y / l.y).round() as i64,
                            (delta.z / l.z).round() as i64,
                        ),
                    )
                })
                .collect();
            assert_eq!(got, want, "rank {r}");
        }
    }

    #[test]
    fn ghost_positions_are_near_the_subdomain() {
        let bx = SimBox::cubic(10.0);
        let d = Decomposition::new(bx, 27).unwrap();
        let x = random_positions(500, 10.0, 3);
        let cutoff = 1.2;
        let g = GhostExchange::build(&d, &x, cutoff);
        for r in 0..27 {
            let (lo, hi) = d.subdomain(r);
            for &(_, p) in &g.rank(r).ghosts {
                for dd in 0..3 {
                    assert!(p[dd] >= lo[dd] - cutoff - 1e-9 && p[dd] <= hi[dd] + cutoff + 1e-9);
                }
            }
        }
    }

    #[test]
    fn more_ranks_means_more_total_ghosts() {
        let bx = SimBox::cubic(16.0);
        let x = random_positions(2000, 16.0, 4);
        let g2 = GhostExchange::build(&Decomposition::new(bx, 2).unwrap(), &x, 1.0);
        let g16 = GhostExchange::build(&Decomposition::new(bx, 16).unwrap(), &x, 1.0);
        assert!(g16.total_ghosts() > g2.total_ghosts());
    }
}
