//! Morton-order atom sorting: the reorder must be a pure relabeling (same
//! physics under the permutation), respect a pair style's veto (granular
//! history is index-coupled), and survive checkpoint round-trips with
//! identities intact.

use md_core::{KernelPath, Threads};
use md_workloads::{build_deck_tuned, Benchmark, DeckTuning};

fn tuning(threads: Threads, sort_every: u64) -> DeckTuning {
    DeckTuning {
        threads,
        kernel: KernelPath::Scalar,
        sort_every,
    }
}

/// Sorting relabels atoms; through the identity map the probed pair forces
/// must be the same field. Tolerance is 1e-12 relative, not bitwise: the
/// rebuilt neighbor rows order each atom's partial sums differently.
#[test]
fn sorting_preserves_forces_through_id_mapping() {
    let mut deck = build_deck_tuned(Benchmark::Lj, 1, 2022, tuning(Threads::serial(), 0))
        .expect("deck builds");
    deck.simulation.run(9).expect("deck runs");
    // Wrap positions into the box now: the sort triggers a neighbor rebuild
    // that would otherwise wrap them mid-comparison.
    deck.simulation
        .force_neighbor_rebuild()
        .expect("rebuild succeeds");

    // No sort has happened, so ids are still the identity permutation.
    let ids_before: Vec<u32> = deck.simulation.atoms().ids().to_vec();
    assert!(ids_before.iter().enumerate().all(|(i, &id)| id == i as u32));
    let x_before: Vec<_> = deck.simulation.atoms().x().to_vec();
    let (f_before, e_before) = deck
        .simulation
        .pair_probe(KernelPath::Scalar)
        .expect("probe before sort");

    let changed = deck.simulation.sort_atoms_now().expect("sort succeeds");
    assert!(changed, "melt deck after 9 steps should actually permute");
    assert_eq!(deck.simulation.sorts_performed(), 1);

    let ids_after = deck.simulation.atoms().ids().to_vec();
    let (f_after, e_after) = deck
        .simulation
        .pair_probe(KernelPath::Scalar)
        .expect("probe after sort");

    // Energy is permutation-invariant up to summation order.
    assert!(
        (e_before.energy() - e_after.energy()).abs() <= 1e-12 * e_before.energy().abs().max(1.0),
        "energy: {} vs {}",
        e_before.energy(),
        e_after.energy()
    );
    for (new, &id) in ids_after.iter().enumerate() {
        let old = id as usize;
        // Positions move untouched through the permutation — bitwise.
        assert_eq!(
            deck.simulation.atoms().x()[new].x.to_bits(),
            x_before[old].x.to_bits(),
            "position of atom id {id} changed during sort"
        );
        for axis in 0..3 {
            let (a, b) = (f_before[old][axis], f_after[new][axis]);
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() <= 1e-12 * scale,
                "force of atom id {id} axis {axis}: {a} vs {b}"
            );
        }
    }
}

/// Granular history is matched to the neighbor rows by atom index, so the
/// chute deck's pair style vetoes reordering (`supports_reorder == false`)
/// and the cadence is inert there.
#[test]
fn granular_deck_never_sorts() {
    let mut deck = build_deck_tuned(Benchmark::Chute, 1, 2022, tuning(Threads::serial(), 5))
        .expect("deck builds");
    deck.simulation.run(20).expect("deck runs");
    assert_eq!(
        deck.simulation.sorts_performed(),
        0,
        "granular pair style must veto atom sorting"
    );
}

/// LJ with a sort cadence actually sorts and stays physical: total
/// energy of the NVE melt is conserved to the same order as the unsorted
/// run (relabeling atoms cannot add energy).
#[test]
fn lj_sorting_cadence_fires_and_conserves_energy() {
    let run = |sort_every: u64| {
        let mut deck = build_deck_tuned(
            Benchmark::Lj,
            1,
            2022,
            tuning(Threads::serial(), sort_every),
        )
        .expect("deck builds");
        let e0 = deck.simulation.thermo().total_energy();
        deck.simulation.run(50).expect("deck runs");
        let e1 = deck.simulation.thermo().total_energy();
        (
            deck.simulation.sorts_performed(),
            (e1 - e0).abs() / e0.abs(),
        )
    };
    let (sorts, drift_sorted) = run(10);
    let (_, drift_unsorted) = run(0);
    assert!(
        sorts >= 1,
        "cadence 10 over 50 steps must sort at least once"
    );
    assert!(
        drift_sorted <= drift_unsorted.max(1e-12) * 10.0 + 1e-6,
        "sorted-run energy drift {drift_sorted:e} out of line with \
         unsorted {drift_unsorted:e}"
    );
}

/// Checkpoints taken after sorts restore the permuted store exactly —
/// positions, ids, and sort counters — and the restored run continues
/// bitwise-identically.
#[test]
fn checkpoint_roundtrip_preserves_sorted_state() {
    let mut deck = build_deck_tuned(Benchmark::Lj, 1, 2022, tuning(Threads::serial(), 7))
        .expect("deck builds");
    deck.simulation.run(21).expect("deck runs");
    assert!(deck.simulation.sorts_performed() >= 1);
    let state = deck.simulation.save_state();

    let mut other = build_deck_tuned(Benchmark::Lj, 1, 2022, tuning(Threads::serial(), 7))
        .expect("deck builds");
    other.simulation.load_state(&state).expect("state loads");

    assert_eq!(
        other.simulation.sorts_performed(),
        deck.simulation.sorts_performed(),
        "sort counter must survive the round-trip"
    );
    assert_eq!(
        other.simulation.atoms().ids(),
        deck.simulation.atoms().ids()
    );

    deck.simulation.run(5).expect("original continues");
    other.simulation.run(5).expect("restored continues");
    let bits = |sim: &md_core::Simulation| -> Vec<u64> {
        sim.atoms()
            .x()
            .iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    };
    assert_eq!(
        bits(&deck.simulation),
        bits(&other.simulation),
        "restored run diverged from original"
    );
}
