//! What a reneighbor policy gives up, held against an oracle. Each step the
//! oracle enumerates every pair inside the pair cutoff at the current
//! positions, excluded pairs aside, and counts those the list in use does
//! not hold — a force the step left out.
//!
//! * LJ runs `in.lj`'s `every 20 check no`: the count is non-zero (so the
//!   test exercises the policy) and stays under a stated bound.
//! * Every checked deck (`check yes`) misses no pair on any step.
//! * LJ's NVE energy drift under `check no` stays within a stated factor
//!   of the same system checked every step.
//!
//! The bounds and the measurements behind them are in EXPERIMENTS.md
//! ("Reneighbor cadence").

use md_core::compute::seed_velocities;
use md_core::{AtomStore, NeighborPolicy, Simulation, Threads, UnitSystem, Vec3};
use md_potentials::LjCut;
use md_workloads::{build_deck_with, lj, Benchmark};

const SEED: u64 = 2022;

/// Rows of `n` atoms holding the pairs `edges` yields, each from both ends.
fn rows_of(n: usize, edges: impl Fn(&mut dyn FnMut(usize, usize))) -> (Vec<usize>, Vec<u32>) {
    let mut start = vec![0usize; n + 1];
    edges(&mut |i, j| {
        start[i + 1] += 1;
        start[j + 1] += 1;
    });
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut partners = vec![0u32; start[n]];
    edges(&mut |i, j| {
        partners[next[i]] = j as u32;
        next[i] += 1;
        partners[next[j]] = i as u32;
        next[j] += 1;
    });
    (start, partners)
}

/// Per step: (pairs inside the cutoff, of them missing from the list).
///
/// The oracle bins atoms into a plain grid of cells at least one cutoff
/// wide (three or more per axis, so the 27 cells around an atom are
/// distinct) and tests every pair of atoms in neighboring cells by minimum
/// image: every pair inside the cutoff is found, once, by its lower index.
/// A pair the list holds may sit in either atom's row.
fn in_cutoff_and_missing(sim: &Simulation) -> (usize, usize) {
    let nl = sim.neighbor_list().expect("pair deck");
    let atoms = sim.atoms();
    let (x, bx) = (atoms.x(), sim.sim_box());
    let n = x.len();
    let cut2 = nl.cutoff() * nl.cutoff();

    let (listed_start, listed) = rows_of(n, |pair| {
        for i in 0..n {
            for &j in nl.neighbors(i) {
                pair(i, j as usize);
            }
        }
    });

    let (lo, len) = (bx.lo(), bx.lengths());
    let ncell: [usize; 3] = std::array::from_fn(|k| (len[k] / nl.cutoff()).floor() as usize);
    assert!(ncell.iter().all(|&c| c >= 3), "grid {ncell:?} too coarse");
    let cell: Vec<[usize; 3]> = x
        .iter()
        .map(|p| {
            std::array::from_fn(|k| {
                let mut f = (p[k] - lo[k]) / len[k];
                if bx.is_periodic(k) {
                    f -= f.floor();
                }
                ((f * ncell[k] as f64).floor().max(0.0) as usize).min(ncell[k] - 1)
            })
        })
        .collect();
    let index = |c: [usize; 3]| (c[2] * ncell[1] + c[1]) * ncell[0] + c[0];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); ncell.iter().product()];
    for (i, &c) in cell.iter().enumerate() {
        members[index(c)].push(i);
    }

    let mut mark = vec![usize::MAX; n];
    let (mut inside, mut missing) = (0, 0);
    for i in 0..n {
        for &j in &listed[listed_start[i]..listed_start[i + 1]] {
            mark[j as usize] = i;
        }
        let c = cell[i];
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let mut nc = [0usize; 3];
                    let mut outside = false;
                    for (k, d) in [dx, dy, dz].into_iter().enumerate() {
                        let m = c[k] as i64 + d;
                        let nk = ncell[k] as i64;
                        if bx.is_periodic(k) {
                            nc[k] = m.rem_euclid(nk) as usize;
                        } else if (0..nk).contains(&m) {
                            nc[k] = m as usize;
                        } else {
                            outside = true;
                        }
                    }
                    if outside {
                        continue;
                    }
                    for &j in &members[index(nc)] {
                        if j > i
                            && bx.min_image(x[j], x[i]).norm2() < cut2
                            && atoms.exclusions(i).binary_search(&(j as u32)).is_err()
                        {
                            inside += 1;
                            missing += usize::from(mark[j] != i);
                        }
                    }
                }
            }
        }
    }
    (inside, missing)
}

/// Runs `steps` steps and returns the oracle's counts after each.
fn missing_per_step(sim: &mut Simulation, steps: u64) -> Vec<(usize, usize)> {
    (0..steps)
        .map(|_| {
            sim.step().expect("deck steps");
            in_cutoff_and_missing(sim)
        })
        .collect()
}

#[test]
fn oracle_matches_brute_force_on_a_small_melt() {
    let mut sim = lj_melt(6, NeighborPolicy::new(20, 0, false));
    sim.run(37).expect("melt runs");
    let (inside, _) = in_cutoff_and_missing(&sim);
    let x = sim.atoms().x();
    let brute = md_core::neighbor::brute_force_pairs(x, sim.sim_box(), lj::CUTOFF);
    assert_eq!(inside, brute.len());
}

/// `in.lj` rebuilds at steps 20, 40, ... without looking. Over 100 steps
/// of the deck the list misses pairs only late in a cycle: none on the
/// first five steps after a build, at most 200 on any step and 2000
/// pair-steps in all, against ~0.88 M pairs inside the cutoff per step
/// (measured: none through eleven steps after a build, at most 97, 865 in
/// all).
#[test]
fn lj_check_no_misses_a_bounded_number_of_pairs() {
    let mut deck = build_deck_with(Benchmark::Lj, 1, SEED, Threads::serial()).expect("deck");
    let counts = missing_per_step(&mut deck.simulation, 100);
    for (k, &(inside, missing)) in counts.iter().enumerate() {
        let ago = (k + 1) % 20;
        assert!(inside > 800_000, "step {}: {inside} pairs inside", k + 1);
        assert!(missing <= 200, "step {}: {missing} pairs missing", k + 1);
        if ago <= 5 {
            assert_eq!(missing, 0, "step {}, {ago} after a build", k + 1);
        }
    }
    let total: usize = counts.iter().map(|c| c.1).sum();
    assert!(total > 0, "no pair missed: the policy is not exercised");
    assert!(total <= 2000, "{total} pair-steps missed");
}

/// Under `check yes` a list is rebuilt before any atom is past `skin / 2`
/// at a step that uses it, so no pair inside the cutoff is ever missing.
/// Each deck is held to that on every step of a window that crosses at
/// least one build; chute, which first rebuilds near step 280, runs 240
/// steps before its window.
#[test]
fn checked_decks_miss_no_pair() {
    for (benchmark, before, window) in [
        (Benchmark::Chain, 0, 30),
        (Benchmark::Eam, 0, 20),
        (Benchmark::Chute, 240, 60),
        (Benchmark::Rhodo, 0, 8),
    ] {
        let mut deck = build_deck_with(benchmark, 1, SEED, Threads::serial()).expect("deck");
        let sim = &mut deck.simulation;
        assert!(sim.neighbor_policy().check, "{benchmark}");
        sim.run(before).expect("deck runs");
        let builds = |sim: &Simulation| sim.neighbor_list().expect("pair deck").stats().builds;
        let builds_before = builds(sim);
        for (k, &(_, missing)) in missing_per_step(sim, window).iter().enumerate() {
            assert_eq!(missing, 0, "{benchmark}, step {}", before + k as u64 + 1);
        }
        assert!(
            builds(sim) > builds_before,
            "{benchmark}: no build in the window"
        );
    }
}

/// The LJ deck's system at `cells³` fcc cells under `policy`.
fn lj_melt(cells: usize, policy: NeighborPolicy) -> Simulation {
    let (bx, x) = md_workloads::lattice::fcc(
        cells,
        cells,
        cells,
        md_workloads::lattice::fcc_lattice_constant(lj::DENSITY),
    );
    let mut atoms = AtomStore::with_capacity(x.len());
    for p in x {
        atoms.push(p, Vec3::zero(), 0);
    }
    atoms.set_masses(vec![1.0]);
    let units = UnitSystem::lj();
    seed_velocities(&mut atoms, &units, lj::TEMPERATURE, SEED);
    let pair = LjCut::new(1, &[(0, 0, 1.0, 1.0)], lj::CUTOFF).expect("lj/cut");
    Simulation::builder(bx, atoms, units)
        .pair(Box::new(pair))
        .skin(lj::SKIN)
        .neighbor_policy(policy)
        .dt(lj::DT)
        .build()
        .expect("melt builds")
}

/// The energy rise of LJ's NVE run over steps 100–1000 under `in.lj`'s
/// cadence is at most 1.25× that of the same system checked every step.
/// The system is the deck's at 4000 atoms (10³ fcc cells), so the test
/// runs in seconds; measured there, a rise of 10.05 against 12.09, and at
/// the deck's 32 000 atoms 59.55 against 59.47 (energy units of the melt).
#[test]
fn lj_drift_under_check_no_tracks_the_checked_run() {
    let rise = |policy| {
        let mut sim = lj_melt(10, policy);
        sim.run(100).expect("melt runs");
        let e0 = sim.thermo().total_energy();
        sim.run(900).expect("melt runs");
        sim.thermo().total_energy() - e0
    };
    let fixed = rise(lj::NEIGH_MODIFY);
    let checked = rise(NeighborPolicy::default());
    assert!(
        fixed.abs() <= 1.25 * checked.abs(),
        "rise {fixed} under check no, {checked} checked every step"
    );
}
