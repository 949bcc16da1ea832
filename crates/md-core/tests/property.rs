//! Property-based tests (proptest) for the core engine invariants.

use md_core::math::{erf, erfc};
use md_core::neighbor::{brute_force_pairs, NeighborList, NeighborListKind};
use md_core::{AtomStore, SimBox, TaskKind, TaskLedger, UnitSystem, Vec3, V3};
use proptest::prelude::*;

fn arb_position(l: f64) -> impl Strategy<Value = V3> {
    (0.0..l, 0.0..l, 0.0..l).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Minimum-image displacement is antisymmetric and never longer than
    /// half the box diagonal.
    #[test]
    fn min_image_is_antisymmetric_and_bounded(
        a in arb_position(12.0),
        b in arb_position(12.0),
    ) {
        let bx = SimBox::cubic(12.0);
        let d1 = bx.min_image(a, b);
        let d2 = bx.min_image(b, a);
        prop_assert!((d1 + d2).norm() < 1e-12);
        for k in 0..3 {
            prop_assert!(d1[k].abs() <= 6.0 + 1e-12);
        }
    }

    /// Wrapping always lands inside the box and preserves the unwrapped
    /// coordinate (position + image·L).
    #[test]
    fn wrap_preserves_unwrapped_coordinate(
        x in -100.0..100.0f64,
        y in -100.0..100.0f64,
        z in -100.0..100.0f64,
    ) {
        let bx = SimBox::cubic(10.0);
        let mut p = Vec3::new(x, y, z);
        let orig = p;
        let mut img = [0i32; 3];
        bx.wrap(&mut p, &mut img);
        prop_assert!(bx.contains(p), "wrapped {p} outside the box");
        let unwrapped = Vec3::new(
            p.x + img[0] as f64 * 10.0,
            p.y + img[1] as f64 * 10.0,
            p.z + img[2] as f64 * 10.0,
        );
        prop_assert!((unwrapped - orig).norm() < 1e-9);
    }

    /// Cell-list neighbor enumeration equals the O(N²) reference for random
    /// configurations, cutoffs, and both list kinds.
    #[test]
    fn neighbor_list_matches_brute_force(
        seed in 0u64..1000,
        n in 20usize..120,
        cutoff in 0.5..3.4f64,
        half in proptest::bool::ANY,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let l = 10.0;
        let bx = SimBox::cubic(l);
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<V3> = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let kind = if half { NeighborListKind::Half } else { NeighborListKind::Full };
        let mut nl = NeighborList::new(cutoff, 0.3, kind);
        nl.build(&x, &bx).unwrap();
        let mut got = std::collections::BTreeSet::new();
        for i in 0..n {
            for &j in nl.neighbors(i) {
                let (a, b) = if (i as u32) < j { (i as u32, j) } else { (j, i as u32) };
                got.insert((a, b));
            }
        }
        let want: std::collections::BTreeSet<_> =
            brute_force_pairs(&x, &bx, cutoff + 0.3).into_iter().collect();
        // The set hides a pair listed twice; the entry count does not.
        let copies = if half { 1 } else { 2 };
        prop_assert_eq!(nl.len(), copies * want.len());
        prop_assert_eq!(got, want);
    }

    /// Velocity seeding hits the requested temperature exactly and leaves
    /// zero net momentum, for any mass scale.
    #[test]
    fn velocity_seeding_invariants(
        t in 0.1..2000.0f64,
        mass in 0.5..200.0f64,
        seed in 0u64..500,
    ) {
        let mut atoms = AtomStore::new();
        for i in 0..64 {
            atoms.push(Vec3::new(i as f64, 0.5 * i as f64, 0.25 * i as f64), Vec3::zero(), 0);
        }
        atoms.set_masses(vec![mass]);
        let units = UnitSystem::metal();
        md_core::compute::seed_velocities(&mut atoms, &units, t, seed);
        let t_meas = md_core::temperature(&atoms, &units);
        prop_assert!((t_meas - t).abs() < 1e-6 * t);
        let p = md_core::compute::total_momentum(&atoms);
        prop_assert!(p.norm() < 1e-6 * mass * 64.0);
    }

    /// `erfc` stays in (0, 2], is monotone decreasing (strictly so away
    /// from the saturated tails), and complements `erf`.
    #[test]
    fn erfc_bounds_and_complement(x in -6.0..6.0f64, dx in 0.001..0.5f64) {
        let y = erfc(x);
        // At x ≈ -6 the value saturates to 2.0 exactly in f64 (2 - 1e-16
        // rounds to 2), so the upper bound is inclusive.
        prop_assert!(y > 0.0 && y <= 2.0);
        prop_assert!(erfc(x + dx) <= y);
        if x.abs() < 5.0 {
            prop_assert!(erfc(x + dx) < y);
        }
        prop_assert!((erf(x) + y - 1.0).abs() < 1e-12);
    }

    /// Task ledgers: shares always sum to 100% (when nonempty) and merging
    /// is additive.
    #[test]
    fn task_ledger_shares_sum_to_hundred(
        times in proptest::collection::vec(0.0..10.0f64, 8),
    ) {
        let mut ledger = TaskLedger::new();
        for (task, &t) in TaskKind::ALL.iter().zip(&times) {
            ledger.add(*task, t);
        }
        let total: f64 = TaskKind::ALL.iter().map(|&t| ledger.percent(t)).sum();
        if ledger.total() > 0.0 {
            prop_assert!((total - 100.0).abs() < 1e-9);
        } else {
            prop_assert_eq!(total, 0.0);
        }
        let mut doubled = ledger.clone();
        doubled.merge(&ledger);
        prop_assert!((doubled.total() - 2.0 * ledger.total()).abs() < 1e-12);
    }

    /// Box rescaling preserves fractional coordinates.
    #[test]
    fn box_scaling_preserves_fractional_coordinates(
        p in arb_position(8.0),
        factor in 0.5..2.0f64,
    ) {
        let bx = SimBox::cubic(8.0);
        let scaled = bx.scaled(factor);
        let f0 = bx.fractional(p);
        // Rescale the point the same way NPT does.
        let c0 = (bx.lo() + bx.hi()) * 0.5;
        let p1 = c0 + (p - c0) * factor;
        let f1 = scaled.fractional(p1);
        prop_assert!((f0 - f1).norm() < 1e-9);
    }
}

/// SHAKE restores randomly-perturbed water geometries (not a proptest macro
/// case because convergence needs sane perturbations).
#[test]
fn shake_restores_random_perturbations() {
    use md_core::constraint::{Shake, ShakeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let bx = SimBox::cubic(50.0);
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..25 {
        let mut atoms = AtomStore::new();
        let base = Vec3::new(25.0, 25.0, 25.0);
        atoms.push(base, Vec3::zero(), 0);
        atoms.push(base + Vec3::new(0.9572, 0.0, 0.0), Vec3::zero(), 1);
        atoms.push(base + Vec3::new(-0.24, 0.9266, 0.0), Vec3::zero(), 1);
        atoms.set_masses(vec![16.0, 1.0]);
        // Random perturbation up to 0.05 Å per component.
        for i in 0..3 {
            let d = Vec3::new(
                (rng.gen::<f64>() - 0.5) * 0.1,
                (rng.gen::<f64>() - 0.5) * 0.1,
                (rng.gen::<f64>() - 0.5) * 0.1,
            );
            atoms.x_mut()[i] += d;
        }
        let mut shake = Shake::new(
            vec![
                ShakeParams {
                    i: 0,
                    j: 1,
                    length: 0.9572,
                },
                ShakeParams {
                    i: 0,
                    j: 2,
                    length: 0.9572,
                },
                ShakeParams {
                    i: 1,
                    j: 2,
                    length: 1.5139,
                },
            ],
            1e-8,
            200,
        );
        shake
            .apply(&mut atoms, &bx, 0.001)
            .expect("shake converges");
        for &(i, j, len) in &[(0usize, 1usize, 0.9572), (0, 2, 0.9572), (1, 2, 1.5139)] {
            let r = bx.min_image(atoms.x()[i], atoms.x()[j]).norm();
            assert!((r - len).abs() < 1e-3, "constraint {i}-{j}: {r} vs {len}");
        }
    }
}
