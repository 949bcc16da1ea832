//! The workload census: exact per-rank load statistics measured from the
//! real particle positions of a benchmark system.
//!
//! The performance models in `md-model` consume these counts to derive
//! per-rank task times; the load *skew* measured here is what turns into the
//! MPI imbalance of the paper's Figure 4.
//!
//! The counts come from one binned pass over the positions that serves any
//! number of decompositions of the same box ([`WorkloadCensus::measure_all`]);
//! [`crate::GhostExchange::build`], which materializes every ghost copy, is
//! the oracle it is tested against.

use crate::decomposition::{owner_cell, Decomposition, ProcGrid};
use crate::ghost::{axis_candidates, axis_range, MAX_AXIS};
use md_core::{Result, SimBox, V3};

/// Load of a single rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankLoad {
    /// Atoms this rank owns.
    pub owned: usize,
    /// Ghost copies this rank keeps (≈ halo exchange volume).
    pub ghosts: usize,
}

/// Interval codes per cell of an axis: one per candidate count `0..=MAX_AXIS`.
const CODES_PER_CELL: usize = MAX_AXIS + 1;

/// What the binned pass records of one atom along one axis.
#[derive(Debug, Clone, Copy, Default)]
struct AxisBin {
    /// Which cells the atom's halo reaches: first cell (wrapped) and count.
    code: usize,
    /// The cell that owns the atom (the [`Decomposition::rank_of_position`]
    /// rule).
    cell: usize,
    /// Whether the owning cell is among the reached ones with zero shift, so
    /// one of the atom's copies is the owned atom itself.
    self_copy: bool,
}

/// One axis of the box cut into `n` cells, shared by every grid of a pass
/// that cuts that axis the same way.
struct AxisBins {
    axis: usize,
    n: usize,
    lo: f64,
    s: f64,
    cutoff: f64,
    periodic: bool,
    /// Candidate cells of every interval code, by [`crate::GhostExchange::build`]'s
    /// rule (`axis_candidates`).
    cells: Vec<Vec<usize>>,
}

impl AxisBins {
    fn new(bx: &SimBox, axis: usize, n: usize, cutoff: f64) -> Self {
        let len = bx.lengths()[axis];
        let periodic = bx.is_periodic(axis);
        let cells = (0..n * CODES_PER_CELL)
            .map(|code| {
                let first = (code / CODES_PER_CELL) as i64;
                let count = (code % CODES_PER_CELL) as i64;
                let (c, k) = axis_candidates((first, first + count - 1), len, n, periodic);
                c[..k].iter().map(|&(w, _)| w).collect()
            })
            .collect();
        AxisBins {
            axis,
            n,
            lo: bx.lo()[axis],
            s: len / n as f64,
            cutoff,
            periodic,
            cells,
        }
    }

    /// Bins one atom at coordinate `coord` (fractional coordinate `frac`).
    #[inline]
    fn bin(&self, coord: f64, frac: f64) -> AxisBin {
        let (i_lo, i_hi) = axis_range(coord, self.lo, self.s, self.cutoff);
        let last_cell = self.n as i64 - 1;
        // The unwrapped cells the exchange emits: `first .. first + count`.
        let (first, last) = if self.periodic {
            (i_lo, i_hi)
        } else {
            (i_lo.max(0), i_hi.min(last_cell))
        };
        let count = last
            .saturating_sub(first)
            .saturating_add(1)
            .clamp(0, MAX_AXIS as i64);
        let cell = owner_cell(frac, self.n);
        let owner = cell as i64;
        let wrapped = if count == 0 {
            0
        } else {
            first.rem_euclid(self.n as i64) as usize
        };
        AxisBin {
            code: wrapped * CODES_PER_CELL + count as usize,
            cell,
            self_copy: first <= owner && owner < first.saturating_add(count),
        }
    }
}

/// One grid's running counts in the binned pass.
struct Tally {
    grid: ProcGrid,
    /// Index of each axis's [`AxisBins`] in the pass.
    axes: [usize; 3],
    /// Codes per axis.
    codes: [usize; 3],
    /// Atoms per `(code_x, code_y, code_z)`.
    hist: Vec<u32>,
    owned: Vec<usize>,
    self_copies: Vec<usize>,
}

impl Tally {
    #[inline]
    fn add(&mut self, bins: &[AxisBin]) {
        let [x, y, z] = self.axes.map(|a| bins[a]);
        self.hist[(x.code * self.codes[1] + y.code) * self.codes[2] + z.code] += 1;
        let owner = self.grid.rank_of(x.cell, y.cell, z.cell);
        self.owned[owner] += 1;
        self.self_copies[owner] += usize::from(x.self_copy && y.self_copy && z.self_copy);
    }

    /// Expands every non-empty histogram cell once over its candidate
    /// product, then takes away each atom's copy of itself.
    fn loads(self, axes: &[AxisBins]) -> Vec<RankLoad> {
        let [ax, ay, az] = self.axes.map(|a| &axes[a]);
        let mut ghosts = vec![0usize; self.grid.count()];
        for (key, &atoms) in self.hist.iter().enumerate() {
            if atoms == 0 {
                continue;
            }
            let cz = key % self.codes[2];
            let cy = key / self.codes[2] % self.codes[1];
            let cx = key / (self.codes[1] * self.codes[2]);
            for &ix in &ax.cells[cx] {
                for &iy in &ay.cells[cy] {
                    for &iz in &az.cells[cz] {
                        ghosts[self.grid.rank_of(ix, iy, iz)] += atoms as usize;
                    }
                }
            }
        }
        self.owned
            .into_iter()
            .zip(ghosts)
            .zip(self.self_copies)
            .map(|((owned, ghosts), own)| RankLoad {
                owned,
                ghosts: ghosts - own,
            })
            .collect()
    }
}

/// The binned census pass: every decomposition of `bx` in `decomps`
/// measured in one sweep over `x`. Per axis and distinct cell count each
/// atom is binned once — the interval code of the cells its halo reaches
/// and the cell that owns it — and each grid histograms its atoms over the
/// three codes. Ghost counts then come from expanding each non-empty
/// histogram cell once, so the per-atom cost is a few divisions per axis
/// and an increment per grid, not a walk over every candidate subdomain.
/// The counts are integers and equal [`crate::GhostExchange::build`]'s exactly.
fn tally(
    bx: &SimBox,
    decomps: &[Decomposition],
    x: &[V3],
    ghost_cutoff: f64,
) -> Vec<Vec<RankLoad>> {
    let mut axes: Vec<AxisBins> = Vec::new();
    let mut slot = |axis: usize, n: usize| {
        axes.iter()
            .position(|a| (a.axis, a.n) == (axis, n))
            .unwrap_or_else(|| {
                axes.push(AxisBins::new(bx, axis, n, ghost_cutoff));
                axes.len() - 1
            })
    };
    let mut tallies: Vec<Tally> = decomps
        .iter()
        .map(|d| {
            let grid = d.grid();
            let codes = [grid.px, grid.py, grid.pz].map(|n| n * CODES_PER_CELL);
            Tally {
                grid,
                axes: [slot(0, grid.px), slot(1, grid.py), slot(2, grid.pz)],
                codes,
                hist: vec![0; codes.iter().product()],
                owned: vec![0; grid.count()],
                self_copies: vec![0; grid.count()],
            }
        })
        .collect();
    let mut bins = vec![AxisBin::default(); axes.len()];
    for &p in x {
        let f = bx.fractional(p);
        for (bin, a) in bins.iter_mut().zip(&axes) {
            *bin = a.bin(p[a.axis], f[a.axis]);
        }
        for t in &mut tallies {
            t.add(&bins);
        }
    }
    tallies.into_iter().map(|t| t.loads(&axes)).collect()
}

/// Per-rank loads for one decomposition of one system.
#[derive(Debug, Clone)]
pub struct WorkloadCensus {
    loads: Vec<RankLoad>,
    natoms: usize,
}

impl WorkloadCensus {
    /// Measures the census of `d` from real positions: owned atoms per rank
    /// and ghost copies within `ghost_cutoff` of each subdomain, without
    /// materializing them. The one-decomposition case of
    /// [`WorkloadCensus::measure_all`].
    pub fn measure(d: &Decomposition, x: &[V3], ghost_cutoff: f64) -> Self {
        let loads = tally(d.sim_box(), std::slice::from_ref(d), x, ghost_cutoff).remove(0);
        WorkloadCensus {
            loads,
            natoms: x.len(),
        }
    }

    /// Decomposes `bx` over each rank count in `ranks` and measures every
    /// census in one binned pass over `x` (O(N) in the atoms, with the
    /// per-axis binning shared between grids that cut an axis alike).
    ///
    /// # Errors
    ///
    /// Returns an error if a rank count is zero.
    pub fn measure_all(
        bx: &SimBox,
        ranks: &[usize],
        x: &[V3],
        ghost_cutoff: f64,
    ) -> Result<Vec<(Decomposition, WorkloadCensus)>> {
        let decomps = ranks
            .iter()
            .map(|&p| Decomposition::new(*bx, p))
            .collect::<Result<Vec<_>>>()?;
        let loads = tally(bx, &decomps, x, ghost_cutoff);
        Ok(decomps
            .into_iter()
            .zip(loads)
            .map(|(d, loads)| {
                let census = WorkloadCensus {
                    loads,
                    natoms: x.len(),
                };
                (d, census)
            })
            .collect())
    }

    /// Per-rank loads.
    pub fn loads(&self) -> &[RankLoad] {
        &self.loads
    }

    /// Rank count.
    pub fn nranks(&self) -> usize {
        self.loads.len()
    }

    /// Total atoms in the system.
    pub fn natoms(&self) -> usize {
        self.natoms
    }

    /// Largest owned-atom count.
    pub fn max_owned(&self) -> usize {
        self.loads.iter().map(|l| l.owned).max().unwrap_or(0)
    }

    /// Mean owned-atom count.
    pub fn mean_owned(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.natoms as f64 / self.loads.len() as f64
        }
    }

    /// Load imbalance factor `max / mean` (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_owned();
        if mean > 0.0 {
            self.max_owned() as f64 / mean
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GhostExchange;
    use md_core::Vec3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform(n: usize, l: f64, seed: u64) -> Vec<V3> {
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
    fn uniform_system_is_nearly_balanced() {
        let bx = SimBox::cubic(20.0);
        let d = Decomposition::new(bx, 8).unwrap();
        let x = uniform(8000, 20.0, 1);
        let c = WorkloadCensus::measure(&d, &x, 2.0);
        assert_eq!(c.loads().iter().map(|l| l.owned).sum::<usize>(), 8000);
        assert!(c.imbalance() < 1.15, "imbalance {}", c.imbalance());
    }

    #[test]
    fn layered_system_is_imbalanced() {
        // All atoms in the bottom half: the top-half ranks own nothing.
        let bx = SimBox::cubic(20.0);
        let d = Decomposition::new(bx, 8).unwrap();
        let mut x = uniform(4000, 20.0, 2);
        for p in &mut x {
            p.z *= 0.5;
        }
        let c = WorkloadCensus::measure(&d, &x, 2.0);
        assert!(c.imbalance() > 1.5, "imbalance {}", c.imbalance());
    }

    /// The paper's sweep (CPU process counts and GPU host ranks) in one pass
    /// over a box with a fixed-wall z axis, against the explicit exchange.
    #[test]
    fn one_pass_serves_every_sweep_rank_count() {
        let bx = SimBox::orthogonal(20.0, 16.0, 24.0).with_periodicity(true, true, false);
        let mut x = uniform(3000, 16.0, 5);
        for p in &mut x {
            p.x *= 1.25;
            p.z *= 1.5;
        }
        let ranks = [1, 2, 4, 6, 8, 12, 16, 24, 32, 36, 48, 64];
        let all = WorkloadCensus::measure_all(&bx, &ranks, &x, 2.5).unwrap();
        assert_eq!(all.len(), ranks.len());
        for ((d, census), &p) in all.iter().zip(&ranks) {
            assert_eq!(d.nranks(), p);
            let exchange = GhostExchange::build(d, &x, 2.5);
            for r in 0..p {
                let load = census.loads()[r];
                assert_eq!(
                    load.owned,
                    exchange.rank(r).owned.len(),
                    "{p} ranks, rank {r}"
                );
                assert_eq!(
                    load.ghosts,
                    exchange.rank(r).ghosts.len(),
                    "{p} ranks, rank {r}"
                );
            }
        }
    }

    #[test]
    fn measure_all_rejects_zero_ranks() {
        let x = uniform(10, 5.0, 6);
        assert!(WorkloadCensus::measure_all(&SimBox::cubic(5.0), &[4, 0], &x, 1.0).is_err());
        assert!(
            WorkloadCensus::measure_all(&SimBox::cubic(5.0), &[], &x, 1.0)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn single_rank_census_keeps_ghosts_from_periodic_images() {
        // Even one rank sees its own periodic images as ghosts when the
        // cutoff reaches across the boundary.
        let bx = SimBox::cubic(10.0);
        let d = Decomposition::new(bx, 1).unwrap();
        let x = vec![Vec3::new(0.5, 5.0, 5.0)];
        let c = WorkloadCensus::measure(&d, &x, 1.0);
        assert_eq!(c.loads()[0].owned, 1);
        assert!(c.loads()[0].ghosts >= 1, "periodic self-image is a ghost");
    }
}
