//! The workload census: exact per-rank load statistics measured from the
//! real particle positions of a benchmark system.
//!
//! The performance models in `md-model` consume these counts to derive
//! per-rank task times; the load *skew* measured here is what turns into the
//! MPI imbalance of the paper's Figure 4.

use crate::decomposition::Decomposition;
use crate::ghost::GhostExchange;
use md_core::V3;

/// Fractional busy-time excess over the mean above which the slowest rank
/// is named a repartitioning suspect. Shared with md-insight's
/// `ImbalanceReport` suspect-rank rule, so the rank the analysis layer
/// blames is exactly the rank the census re-splits around.
pub const SUSPECT_EXCESS_FRACTION: f64 = 0.05;

/// Names the rank whose busy time exceeds the mean by more than
/// [`SUSPECT_EXCESS_FRACTION`], if any — the feedback signal that triggers
/// an imbalance-aware re-split of the box.
pub fn suspect_rank(busy: &[f64]) -> Option<usize> {
    if busy.len() < 2 {
        return None;
    }
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    if mean <= 0.0 {
        return None;
    }
    let (max_rank, max_busy) = busy.iter().copied().enumerate().fold(
        (0, f64::MIN),
        |acc, (r, b)| if b > acc.1 { (r, b) } else { acc },
    );
    ((max_busy - mean) / mean > SUSPECT_EXCESS_FRACTION).then_some(max_rank)
}

/// Re-plans per-rank loads around measured busy times: each rank's
/// effective per-atom rate is `busy / owned`, and atoms are reassigned in
/// inverse proportion to that rate (largest-remainder rounding, so the
/// total is conserved and the result is deterministic). Ghost counts are
/// scaled with each rank's owned-atom ratio. This models the diffusive
/// re-split a production MD stack performs when one rank straggles.
pub fn replan_loads(loads: &[RankLoad], busy: &[f64]) -> Vec<RankLoad> {
    assert_eq!(loads.len(), busy.len(), "one busy time per rank");
    let natoms: usize = loads.iter().map(|l| l.owned).sum();
    if natoms == 0 || loads.is_empty() {
        return loads.to_vec();
    }
    // Inverse effective rate: ranks that got more done per atom deserve
    // more atoms. A rank with no atoms (or no busy time) inherits the mean
    // rate so it re-enters the split neutrally.
    let rates: Vec<f64> = loads
        .iter()
        .zip(busy)
        .map(|(l, &b)| {
            if l.owned > 0 && b > 0.0 {
                b / l.owned as f64
            } else {
                f64::NAN
            }
        })
        .collect();
    let known: Vec<f64> = rates.iter().copied().filter(|r| r.is_finite()).collect();
    if known.is_empty() {
        return loads.to_vec();
    }
    let mean_rate = known.iter().sum::<f64>() / known.len() as f64;
    let weights: Vec<f64> = rates
        .iter()
        .map(|&r| 1.0 / if r.is_finite() { r } else { mean_rate })
        .collect();
    let total_w: f64 = weights.iter().sum();
    // Largest-remainder apportionment of `natoms` over `weights`.
    let ideal: Vec<f64> = weights
        .iter()
        .map(|w| natoms as f64 * w / total_w)
        .collect();
    let mut owned: Vec<usize> = ideal.iter().map(|v| v.floor() as usize).collect();
    let mut leftover = natoms - owned.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..owned.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = ideal[a] - ideal[a].floor();
        let fb = ideal[b] - ideal[b].floor();
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for &r in &order {
        if leftover == 0 {
            break;
        }
        owned[r] += 1;
        leftover -= 1;
    }
    loads
        .iter()
        .zip(&owned)
        .map(|(l, &new_owned)| {
            let ghosts = if l.owned > 0 {
                ((l.ghosts as f64) * new_owned as f64 / l.owned as f64).round() as usize
            } else {
                l.ghosts
            };
            RankLoad {
                owned: new_owned,
                ghosts,
            }
        })
        .collect()
}

/// Load of a single rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankLoad {
    /// Atoms this rank owns.
    pub owned: usize,
    /// Ghost copies this rank keeps (≈ halo exchange volume).
    pub ghosts: usize,
}

/// Per-rank loads for one decomposition of one system.
#[derive(Debug, Clone)]
pub struct WorkloadCensus {
    loads: Vec<RankLoad>,
    natoms: usize,
    ghost_cutoff: f64,
}

impl WorkloadCensus {
    /// Measures the census from real positions: owned atoms per rank (O(N))
    /// and ghost counts within `ghost_cutoff` of each subdomain (O(N·k)),
    /// without materializing ghost copies.
    pub fn measure(d: &Decomposition, x: &[V3], ghost_cutoff: f64) -> Self {
        let (owned, ghosts) = GhostExchange::count(d, x, ghost_cutoff);
        let loads = owned
            .into_iter()
            .zip(ghosts)
            .map(|(owned, ghosts)| RankLoad { owned, ghosts })
            .collect();
        WorkloadCensus {
            loads,
            natoms: x.len(),
            ghost_cutoff,
        }
    }

    /// Builds a census from already-known counts (used by the analytic
    /// uniform-density path for very large systems).
    pub fn from_loads(loads: Vec<RankLoad>, natoms: usize, ghost_cutoff: f64) -> Self {
        WorkloadCensus {
            loads,
            natoms,
            ghost_cutoff,
        }
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

    /// Ghost cutoff used for the halo.
    pub fn ghost_cutoff(&self) -> f64 {
        self.ghost_cutoff
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

    /// Mean ghost count per rank.
    pub fn mean_ghosts(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.loads.iter().map(|l| l.ghosts).sum::<usize>() as f64 / self.loads.len() as f64
        }
    }

    /// Surface-to-volume ratio proxy: mean ghosts per owned atom. This is
    /// the quantity the paper invokes to explain why communication dominates
    /// for small systems at high rank counts.
    pub fn ghost_ratio(&self) -> f64 {
        let mean = self.mean_owned();
        if mean > 0.0 {
            self.mean_ghosts() / mean
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::{SimBox, Vec3};
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

    #[test]
    fn ghost_ratio_grows_with_rank_count() {
        let bx = SimBox::cubic(20.0);
        let x = uniform(8000, 20.0, 3);
        let r8 =
            WorkloadCensus::measure(&Decomposition::new(bx, 8).unwrap(), &x, 2.0).ghost_ratio();
        let r64 =
            WorkloadCensus::measure(&Decomposition::new(bx, 64).unwrap(), &x, 2.0).ghost_ratio();
        assert!(r64 > r8, "{r64} vs {r8}");
    }

    #[test]
    fn suspect_rank_names_the_straggler() {
        assert_eq!(suspect_rank(&[1.0, 1.0, 4.0, 1.0]), Some(2));
        assert_eq!(suspect_rank(&[1.0, 1.0, 1.0, 1.0]), None, "balanced");
        assert_eq!(suspect_rank(&[1.0]), None, "single rank");
        assert_eq!(suspect_rank(&[0.0, 0.0]), None, "no work yet");
    }

    #[test]
    fn replan_conserves_atoms_and_feeds_the_straggler_less() {
        let loads = vec![
            RankLoad {
                owned: 1000,
                ghosts: 200,
            };
            4
        ];
        // Rank 2 runs 4x slower per atom.
        let busy = [1.0, 1.0, 4.0, 1.0];
        let new = replan_loads(&loads, &busy);
        assert_eq!(new.iter().map(|l| l.owned).sum::<usize>(), 4000);
        assert!(
            new[2].owned < loads[2].owned / 2,
            "straggler kept {} atoms",
            new[2].owned
        );
        assert!(new[0].owned > 1000 && new[1].owned > 1000 && new[3].owned > 1000);
        assert!(new[2].ghosts < loads[2].ghosts, "ghosts scale with owned");
        // Deterministic: same inputs, same plan.
        assert_eq!(new, replan_loads(&loads, &busy));
    }

    #[test]
    fn replan_balanced_input_is_a_fixed_point() {
        let loads = vec![
            RankLoad {
                owned: 500,
                ghosts: 90,
            };
            8
        ];
        let busy = [2.0; 8];
        assert_eq!(replan_loads(&loads, &busy), loads);
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
