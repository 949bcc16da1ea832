//! Multi-node scale-out extension of the CPU model.
//!
//! The paper deliberately scopes to a single node, citing that multi-node
//! strong scaling "rapidly becomes inefficient (e.g., 33% parallel
//! efficiency for LJ on Haswell with 64 nodes)" (Section 4.1). This module
//! extends the virtual cluster with an inter-node interconnect so that claim
//! can be checked against the same workload machinery — the "orthogonal
//! scale-out behavior" the paper leaves to prior work.

use crate::calib;
use crate::cpu::{CpuModel, CpuRunOptions};
use crate::workload::WorkloadProfile;
use md_core::{Result, SimBox};
use md_parallel::LinkModel;

/// An inter-node interconnect description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Per-message latency across nodes (seconds).
    pub latency: f64,
    /// Per-node injection bandwidth (bytes/second).
    pub bandwidth: f64,
}

impl Interconnect {
    /// A 100 Gb/s HDR-class fabric with ~2 µs MPI latency.
    pub const fn hdr100() -> Interconnect {
        Interconnect {
            latency: 2.0e-6,
            bandwidth: 12.5e9,
        }
    }

    /// A 10 Gb/s Ethernet cloud fabric with ~20 µs latency.
    pub const fn ethernet10() -> Interconnect {
        Interconnect {
            latency: 20.0e-6,
            bandwidth: 1.25e9,
        }
    }
}

/// Result of one multi-node modeled run.
#[derive(Debug, Clone)]
pub struct MultiNodeResult {
    /// Nodes used.
    pub nodes: usize,
    /// Total MPI ranks (nodes × 64).
    pub total_ranks: usize,
    /// Timesteps per second.
    pub ts_per_sec: f64,
    /// Parallel efficiency vs. one *node* (not one rank).
    pub node_parallel_efficiency: f64,
    /// Share of the step spent on inter-node communication.
    pub internode_comm_percent: f64,
}

/// Multi-node strong-scaling model: the single-node CPU model plus an
/// inter-node halo/allreduce surcharge.
#[derive(Debug, Clone)]
pub struct MultiNodeModel {
    cpu: CpuModel,
    fabric: Interconnect,
}

impl MultiNodeModel {
    /// Creates the model over a given fabric.
    pub fn new(fabric: Interconnect) -> Self {
        MultiNodeModel {
            cpu: CpuModel::new(),
            fabric,
        }
    }

    /// Strong-scales `profile` across `nodes` full CPU-instance nodes
    /// (64 ranks each).
    ///
    /// The intra-node behaviour comes from the per-node share of the system
    /// run through the single-node model; the inter-node surcharge covers
    /// the surface halo between node subdomains and the global reductions.
    ///
    /// # Errors
    ///
    /// Propagates decomposition/model failures.
    pub fn simulate(
        &self,
        profile: &WorkloadProfile,
        bx: &SimBox,
        positions: &[md_core::V3],
        nodes: usize,
        baseline: Option<&MultiNodeResult>,
    ) -> Result<MultiNodeResult> {
        // Single-node pass over the whole system at 64 ranks gives the
        // intra-node step time for the node's 1/nodes share of atoms: with
        // near-ideal intra-node weak behaviour we scale the per-step compute
        // by 1/nodes (strong scaling splits the box across nodes first).
        let opts = CpuRunOptions {
            ranks: 64,
            ..CpuRunOptions::default()
        };
        let single = self.cpu.simulate(profile, bx, positions, &opts)?;
        let intra_step = single.step_seconds / nodes as f64;

        // Inter-node halo: each node exchanges its subdomain surface shell.
        // Surface per node shrinks as (V/nodes)^(2/3).
        let volume = bx.volume();
        let node_volume = volume / nodes as f64;
        let density = profile.natoms as f64 / volume;
        let shell_atoms = 6.0 * node_volume.powf(2.0 / 3.0) * profile.ghost_cutoff * density;
        let bytes = shell_atoms
            * (calib::FORWARD_BYTES_PER_GHOST
                + if profile.newton {
                    calib::REVERSE_BYTES_PER_GHOST
                } else {
                    0.0
                });
        let link = LinkModel {
            latency: self.fabric.latency,
            bandwidth: self.fabric.bandwidth,
        };
        let mut inter = if nodes > 1 { link.transfer(bytes) } else { 0.0 };
        // Global reductions & (for kspace decks) FFT all-to-all across nodes.
        if nodes > 1 {
            inter += (nodes as f64).log2().ceil() * link.transfer(128.0);
            if let Some(ks) = profile.kspace {
                let grid_bytes = ks.grid_points as f64 * 16.0 / nodes as f64;
                inter += 2.0 * link.transfer(grid_bytes);
            }
        }

        let step = intra_step + inter;
        let ts_per_sec = 1.0 / step;
        let node_eff = match baseline {
            Some(b) => ts_per_sec / (b.ts_per_sec * nodes as f64),
            None => 1.0,
        };
        Ok(MultiNodeResult {
            nodes,
            total_ranks: nodes * 64,
            ts_per_sec,
            node_parallel_efficiency: node_eff,
            internode_comm_percent: 100.0 * inter / step,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_workloads::{build_positions, Benchmark};

    fn lj_sweep(fabric: Interconnect) -> Vec<MultiNodeResult> {
        let profile = WorkloadProfile::measure(Benchmark::Lj, 20, 1).unwrap();
        let (bx, x) = build_positions(Benchmark::Lj, 1, 1).unwrap();
        let model = MultiNodeModel::new(fabric);
        let one = model.simulate(&profile, &bx, &x, 1, None).unwrap();
        [1usize, 4, 16, 64]
            .into_iter()
            .map(|n| model.simulate(&profile, &bx, &x, n, Some(&one)).unwrap())
            .collect()
    }

    #[test]
    fn strong_scaling_degrades_with_node_count() {
        let sweep = lj_sweep(Interconnect::hdr100());
        // Throughput rises, efficiency falls monotonically.
        for w in sweep.windows(2) {
            assert!(w[1].ts_per_sec > w[0].ts_per_sec);
            assert!(w[1].node_parallel_efficiency <= w[0].node_parallel_efficiency + 1e-12);
        }
        // The paper's Section 4.1 citation: ~33% at 64 nodes for a 32k-atom
        // class LJ run; we require the same "rapidly inefficient" regime.
        let at64 = sweep.last().unwrap();
        assert!(
            at64.node_parallel_efficiency < 0.6,
            "64-node efficiency {:.2} should be well below 1",
            at64.node_parallel_efficiency
        );
        assert!(at64.internode_comm_percent > 20.0);
    }

    #[test]
    fn slower_fabric_is_strictly_worse() {
        let hdr = lj_sweep(Interconnect::hdr100());
        let eth = lj_sweep(Interconnect::ethernet10());
        for (a, b) in hdr.iter().zip(&eth).skip(1) {
            assert!(
                a.ts_per_sec > b.ts_per_sec,
                "{} vs {}",
                a.ts_per_sec,
                b.ts_per_sec
            );
        }
    }
}
