//! Property-based tests for the decomposition and the virtual cluster.

use md_core::{SimBox, TaskKind, Vec3, V3};
use md_parallel::{
    Decomposition, GhostExchange, LinkModel, ProcGrid, VirtualCluster, WorkloadCensus,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` uniform positions in `bx`, reaching up to 5 % of the mean spacing
/// past every wall, as a thermally smeared lattice leaves them.
fn smeared_positions(bx: &SimBox, n: usize, seed: u64) -> Vec<V3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spill = 0.05 * (bx.volume() / n as f64).cbrt();
    let (lo, l) = (bx.lo(), bx.lengths());
    let mut coord = |a: usize| lo[a] - spill + rng.gen::<f64>() * (l[a] + 2.0 * spill);
    (0..n)
        .map(|_| Vec3::new(coord(0), coord(1), coord(2)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every factorization chosen by ProcGrid multiplies back to P.
    #[test]
    fn proc_grid_factorizes_exactly(
        p in 1usize..129,
        lx in 4.0..40.0f64,
        ly in 4.0..40.0f64,
        lz in 4.0..40.0f64,
    ) {
        let g = ProcGrid::choose(p, Vec3::new(lx, ly, lz)).unwrap();
        prop_assert_eq!(g.count(), p);
    }

    /// Rank-of-position is total: every point maps to a valid rank, and the
    /// subdomain of that rank contains the point.
    #[test]
    fn ownership_is_consistent(
        p in 1usize..65,
        x in 0.0..12.0f64,
        y in 0.0..12.0f64,
        z in 0.0..12.0f64,
    ) {
        let bx = SimBox::cubic(12.0);
        let d = Decomposition::new(bx, p).unwrap();
        let pos = Vec3::new(x, y, z);
        let r = d.rank_of_position(pos);
        prop_assert!(r < p);
        let (lo, hi) = d.subdomain(r);
        for k in 0..3 {
            prop_assert!(pos[k] >= lo[k] - 1e-9 && pos[k] <= hi[k] + 1e-9);
        }
    }

    /// Owned counts always partition the atom set; census ghosts match the
    /// explicit exchange rank by rank — on anisotropic boxes, with or
    /// without a fixed-wall z axis, at a zero cutoff (the shrink report's
    /// owned-only census), a cutoff inside one subdomain, and one that spans
    /// many (the per-axis candidate cap), with atoms smeared past the walls.
    #[test]
    fn census_partitions_and_counts(
        seed in 0u64..300,
        p in 1usize..65,
        lengths in (6.0..30.0f64, 6.0..30.0f64, 6.0..30.0f64),
        z_periodic in proptest::bool::ANY,
        // Zero, inside one subdomain, or spanning many, a third each.
        cutoff in (0usize..3, 0.0..1.0f64).prop_map(|(kind, u)| match kind {
            0 => 0.0,
            1 => 0.3 + 2.7 * u,
            _ => 8.0 + 32.0 * u,
        }),
    ) {
        let bx = SimBox::orthogonal(lengths.0, lengths.1, lengths.2)
            .with_periodicity(true, true, z_periodic);
        let x = smeared_positions(&bx, 200, seed);
        let d = Decomposition::new(bx, p).unwrap();
        let census = WorkloadCensus::measure(&d, &x, cutoff);
        prop_assert_eq!(census.loads().iter().map(|r| r.owned).sum::<usize>(), x.len());
        let exchange = GhostExchange::build(&d, &x, cutoff);
        for r in 0..p {
            prop_assert_eq!(census.loads()[r].owned, exchange.rank(r).owned.len(), "rank {}", r);
            prop_assert_eq!(census.loads()[r].ghosts, exchange.rank(r).ghosts.len(), "rank {}", r);
        }
        prop_assert!(census.imbalance() >= 1.0 - 1e-12);
    }

    /// One pass over many rank counts gives each the census a pass of its
    /// own gives, decomposition and all.
    #[test]
    fn census_measure_all_equals_measure_one_at_a_time(
        seed in 0u64..300,
        ranks in proptest::collection::vec(1usize..65, 0..8),
        z_periodic in proptest::bool::ANY,
        cutoff in 0.0..6.0f64,
    ) {
        let bx = SimBox::orthogonal(18.0, 12.0, 27.0).with_periodicity(true, true, z_periodic);
        let x = smeared_positions(&bx, 300, seed);
        let all = WorkloadCensus::measure_all(&bx, &ranks, &x, cutoff).unwrap();
        prop_assert_eq!(all.len(), ranks.len());
        for ((d, census), &p) in all.iter().zip(&ranks) {
            let single = Decomposition::new(bx, p).unwrap();
            prop_assert_eq!(d.grid(), single.grid());
            let alone = WorkloadCensus::measure(&single, &x, cutoff);
            prop_assert_eq!(census.loads(), alone.loads());
            prop_assert_eq!(census.natoms(), alone.natoms());
        }
    }

    /// Face neighbors are symmetric under periodic wrap: if b is a's +x
    /// neighbor then a is b's -x neighbor.
    #[test]
    fn face_neighbors_are_symmetric(p in 1usize..65) {
        let bx = SimBox::cubic(10.0);
        let d = Decomposition::new(bx, p).unwrap();
        for r in 0..p {
            let nb = d.face_neighbors(r);
            for axis in 0..3 {
                let plus = nb[2 * axis + 1];
                let back = d.face_neighbors(plus)[2 * axis];
                prop_assert_eq!(back, r, "rank {} axis {}", r, axis);
            }
        }
    }

    /// Virtual-cluster clock algebra: total ledger time equals clock
    /// advance; a balanced halo produces zero skew; an imbalanced one
    /// produces exactly the skew difference.
    #[test]
    fn virtual_cluster_clock_algebra(
        t_fast in 0.1..5.0f64,
        extra in 0.01..5.0f64,
    ) {
        let mut c = VirtualCluster::new(2);
        let link = LinkModel { latency: 0.0, bandwidth: 1e12 };
        c.compute(0, TaskKind::Pair, t_fast + extra);
        c.compute(1, TaskKind::Pair, t_fast);
        c.halo_exchange(&[vec![1], vec![0]], &[0.0, 0.0], link);
        // Fast rank waited exactly `extra`.
        prop_assert!((c.mpi_ledger(1).skew_seconds() - extra).abs() < 1e-12);
        prop_assert_eq!(c.mpi_ledger(0).skew_seconds(), 0.0);
        // Clocks are synchronized afterwards.
        prop_assert!((c.max_clock() - c.min_clock()).abs() < 1e-12);
        // Ledger totals equal the clock.
        for r in 0..2 {
            let ledger_total = c.task_ledger(r).total();
            prop_assert!((ledger_total - c.max_clock()).abs() < 1e-9);
        }
    }

    /// Allreduce leaves all clocks equal regardless of prior skew.
    #[test]
    fn allreduce_synchronizes(times in proptest::collection::vec(0.0..10.0f64, 2..16)) {
        let p = times.len();
        let mut c = VirtualCluster::new(p);
        for (r, &t) in times.iter().enumerate() {
            c.compute(r, TaskKind::Pair, t);
        }
        c.allreduce(64.0, LinkModel { latency: 1e-6, bandwidth: 1e10 }, TaskKind::Output);
        prop_assert!((c.max_clock() - c.min_clock()).abs() < 1e-12);
        // The slowest rank never waits.
        let slowest = times
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        prop_assert_eq!(c.mpi_ledger(slowest).skew_seconds(), 0.0);
    }
}

/// The census against the explicit exchange on each named case at least
/// once, whatever the random draws above cover.
#[test]
fn census_named_cases_equal_the_exchange() {
    let chute = SimBox::orthogonal(20.0, 20.0, 30.0).with_periodicity(true, true, false);
    let slab = SimBox::orthogonal(40.0, 10.0, 6.0);
    let small = SimBox::cubic(6.0);
    let cases = [
        ("non-periodic z", chute, 48, 1.2),
        ("anisotropic", slab, 36, 2.5),
        ("zero cutoff", chute, 7, 0.0),
        ("cutoff past the candidate cap", small, 64, 20.0),
        ("cutoff past the cap, fixed wall", chute, 64, 60.0),
    ];
    for (name, bx, p, cutoff) in cases {
        let x = smeared_positions(&bx, 400, 11);
        let d = Decomposition::new(bx, p).unwrap();
        let census = WorkloadCensus::measure(&d, &x, cutoff);
        let exchange = GhostExchange::build(&d, &x, cutoff);
        for r in 0..p {
            let load = census.loads()[r];
            assert_eq!(load.owned, exchange.rank(r).owned.len(), "{name}: rank {r}");
            assert_eq!(
                load.ghosts,
                exchange.rank(r).ghosts.len(),
                "{name}: rank {r}"
            );
        }
    }
}
