//! The suite taxonomy — the data behind the paper's Table 2.

use crate::Benchmark;

/// Static characteristics of one benchmark deck (one Table 2 column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeckInfo {
    /// Benchmark identity.
    pub benchmark: &'static str,
    /// Smallest deck size in atoms.
    pub min_atoms: usize,
    /// Force-field name as LAMMPS spells it.
    pub force_field: &'static str,
    /// Cutoff, with units (Å or σ).
    pub cutoff: &'static str,
    /// Neighbor skin, with units.
    pub neighbor_skin: &'static str,
    /// Expected neighbors per atom (paper value).
    pub neighbors_per_atom: f64,
    /// `pair_modify` setting, if any.
    pub pair_modify: &'static str,
    /// `kspace_style`, if any.
    pub kspace_style: &'static str,
    /// K-space relative error threshold, if any.
    pub kspace_error: &'static str,
    /// Time-integration ensemble.
    pub integration: &'static str,
}

/// The full Table 2, in the paper's column order. Each row notes its deck's
/// `neigh_modify` line in LAMMPS's `bench/in.*` (`check` defaults to
/// `yes`), which the deck module's `NEIGH_MODIFY` constant encodes; EAM's
/// and chute's are quoted from memory of the LAMMPS distribution, not from
/// a copy of the files.
pub const TAXONOMY: [DeckInfo; 5] = [
    DeckInfo {
        benchmark: "rhodo",
        min_atoms: 32_000,
        force_field: "CHARMM",
        cutoff: "8.0-10.0 A",
        // neigh_modify delay 5 every 1
        neighbor_skin: "2.0 A",
        neighbors_per_atom: 440.0,
        pair_modify: "mix arithmetic",
        kspace_style: "pppm",
        kspace_error: "1.0e-4",
        integration: "NPT",
    },
    DeckInfo {
        benchmark: "lj",
        min_atoms: 32_000,
        force_field: "lj",
        cutoff: "2.5 sigma",
        // neigh_modify delay 0 every 20 check no
        neighbor_skin: "0.3 sigma",
        neighbors_per_atom: 55.0,
        pair_modify: "-",
        kspace_style: "-",
        kspace_error: "-",
        integration: "NVE",
    },
    DeckInfo {
        benchmark: "chain",
        min_atoms: 32_000,
        force_field: "lj",
        cutoff: "1.12 sigma",
        // neigh_modify every 1 delay 1
        neighbor_skin: "0.4 sigma",
        neighbors_per_atom: 5.0,
        pair_modify: "-",
        kspace_style: "-",
        kspace_error: "-",
        integration: "NVE",
    },
    DeckInfo {
        benchmark: "eam",
        min_atoms: 32_000,
        force_field: "EAM",
        cutoff: "4.95 A",
        // neigh_modify every 1 delay 5 check yes
        neighbor_skin: "1.0 A",
        neighbors_per_atom: 45.0,
        pair_modify: "-",
        kspace_style: "-",
        kspace_error: "-",
        integration: "NVE",
    },
    DeckInfo {
        benchmark: "chute",
        min_atoms: 32_000,
        force_field: "gran/hooke/history",
        cutoff: "1.0 sigma",
        // neigh_modify every 1 delay 0
        neighbor_skin: "0.1 sigma",
        neighbors_per_atom: 7.0,
        pair_modify: "-",
        kspace_style: "-",
        kspace_error: "-",
        integration: "NVE",
    },
];

/// The taxonomy row of one benchmark.
pub fn info(benchmark: Benchmark) -> DeckInfo {
    TAXONOMY
        .iter()
        .find(|d| d.benchmark == benchmark.name())
        .copied()
        .expect("every benchmark has a taxonomy row")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_has_a_row() {
        for b in Benchmark::ALL {
            let row = info(b);
            assert_eq!(row.benchmark, b.name());
            assert_eq!(row.min_atoms, 32_000);
        }
    }

    #[test]
    fn only_rhodo_has_kspace() {
        for row in TAXONOMY {
            if row.benchmark == "rhodo" {
                assert_eq!(row.kspace_style, "pppm");
            } else {
                assert_eq!(row.kspace_style, "-");
            }
        }
    }

    #[test]
    fn neighbor_ordering_matches_paper() {
        // rhodo (440) >> lj (55) > eam (45) > chute (7) > chain (5).
        let npa = |name: &str| {
            TAXONOMY
                .iter()
                .find(|d| d.benchmark == name)
                .expect("row")
                .neighbors_per_atom
        };
        assert!(npa("rhodo") > npa("lj"));
        assert!(npa("lj") > npa("eam"));
        assert!(npa("eam") > npa("chute"));
        assert!(npa("chute") > npa("chain"));
    }
}
