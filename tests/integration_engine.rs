//! Cross-crate physics integration tests: the engine, force fields, and
//! long-range solvers working together on the real benchmark decks.

use md_core::math::erfc;
use md_core::{KspaceStyle, SimBox, Threads, Vec3, V3};
use md_kspace::{Ewald, Pppm};
use md_workloads::{build_deck, build_deck_with, Benchmark};

/// Relative energy-drift bound for the truncated (unshifted) LJ melt under
/// NVE — the drift comes from pairs crossing the cutoff, as in LAMMPS. The
/// serial engine holds this bound over hundreds of steps; the threaded
/// engine must hold the SAME bound (threading reorders reductions, it must
/// not change the physics).
const LJ_NVE_DRIFT_BOUND: f64 = 2e-2;

/// NVE energy conservation on the actual 32k LJ deck over a longer window.
#[test]
fn lj_deck_conserves_energy_over_100_steps() {
    let mut deck = build_deck(Benchmark::Lj, 1, 11).unwrap();
    // Skip the first relaxation steps (lattice -> melt).
    deck.simulation.run(20).unwrap();
    let e0 = deck.simulation.thermo().total_energy();
    deck.simulation.run(100).unwrap();
    let e1 = deck.simulation.thermo().total_energy();
    let rel = ((e1 - e0) / e0).abs();
    assert!(
        rel < LJ_NVE_DRIFT_BOUND,
        "energy drift {rel} over 100 steps"
    );
}

/// The same conservation bound must survive a LONG window on the threaded
/// engine: 1000 NVE steps of the 32k LJ melt on 4 threads.
#[test]
fn threaded_lj_deck_conserves_energy_over_1000_steps() {
    let mut deck = build_deck_with(Benchmark::Lj, 1, 11, Threads::fast(4)).unwrap();
    deck.simulation.run(20).unwrap();
    let e0 = deck.simulation.thermo().total_energy();
    deck.simulation.run(1000).unwrap();
    let e1 = deck.simulation.thermo().total_energy();
    let rel = ((e1 - e0) / e0).abs();
    assert!(
        rel < LJ_NVE_DRIFT_BOUND,
        "threaded energy drift {rel} over 1000 steps"
    );
}

/// The chain deck's Langevin thermostat drags the melt toward T* = 1.0: the
/// stretched initial lattice heats the system first, then the thermostat
/// (damp = 10τ, so full equilibration takes ~2500 steps) cools it back.
#[test]
fn chain_deck_thermostat_cools_toward_unit_temperature() {
    let mut deck = build_deck(Benchmark::Chain, 1, 3).unwrap();
    deck.simulation.run(100).unwrap();
    let t_hot = deck.simulation.thermo().temperature;
    deck.simulation.run(250).unwrap();
    let t_later = deck.simulation.thermo().temperature;
    assert!(
        t_hot > 1.0,
        "lattice release should heat the melt, T = {t_hot}"
    );
    assert!(
        t_later < t_hot,
        "thermostat must cool toward 1.0: {t_hot} -> {t_later}"
    );
    assert!((0.5..=2.5).contains(&t_later), "temperature {t_later}");
}

/// EAM copper stays a bound solid under NVE at 1600 K.
#[test]
fn eam_deck_stays_cohesive() {
    let mut deck = build_deck(Benchmark::Eam, 1, 5).unwrap();
    deck.simulation.run(30).unwrap();
    let thermo = deck.simulation.thermo();
    let per_atom = thermo.potential / deck.simulation.atoms().len() as f64;
    assert!(per_atom < -2.0, "cohesive energy per atom {per_atom} eV");
}

/// Full periodic Coulomb: PPPM + real-space erfc tail matches Ewald +
/// real-space on the same disordered charged system.
#[test]
fn pppm_and_ewald_agree_on_total_coulomb_energy() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(4);
    let l = 14.0;
    let bx = SimBox::cubic(l);
    let n = 100;
    let x: Vec<V3> = (0..n)
        .map(|_| {
            Vec3::new(
                rng.gen::<f64>() * l,
                rng.gen::<f64>() * l,
                rng.gen::<f64>() * l,
            )
        })
        .collect();
    let q: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
        .collect();
    let cutoff = 6.9;

    let real_space = |g: f64| {
        let mut e = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let r = bx.min_image(x[i], x[j]).norm();
                if r < cutoff {
                    e += q[i] * q[j] * erfc(g * r) / r;
                }
            }
        }
        e
    };

    let mut ewald = Ewald::new(cutoff, 1e-6);
    ewald.setup(&bx, &q).unwrap();
    let mut f = vec![Vec3::zero(); n];
    let e_ewald = ewald.compute(&bx, &x, &q, &mut f).ecoul + real_space(ewald.g_ewald());

    let mut pppm = Pppm::new(cutoff, 1e-5, 5);
    pppm.setup(&bx, &q).unwrap();
    let mut f = vec![Vec3::zero(); n];
    let e_pppm = pppm.compute(&bx, &x, &q, &mut f).ecoul + real_space(pppm.g_ewald());

    let rel = ((e_pppm - e_ewald) / e_ewald).abs();
    assert!(rel < 0.02, "PPPM {e_pppm} vs Ewald {e_ewald} (rel {rel})");
}

/// PPPM's setup picks the Ewald splitting parameter `g` for its accuracy
/// target; the pair style carries the real-space half of the same sum and
/// has to be handed that `g`, as the rhodo deck builder does. Checked on 64
/// charges at 1e-4 and 1e-6: the tighter target moves `g`, and real +
/// reciprocal space together still give the Ewald reference, closer at the
/// tighter target.
#[test]
fn pppm_and_the_pair_style_share_g_at_each_accuracy() {
    use md_core::{AtomStore, Simulation, UnitSystem};
    use md_potentials::LjCharmmCoulLong;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (l, cutoff) = (16.0, 6.0);
    let bx = SimBox::cubic(l);
    let units = UnitSystem::real();
    let mut rng = StdRng::seed_from_u64(15);
    let mut atoms = AtomStore::new();
    for k in 0..64 {
        let cell = [k % 4, k / 4 % 4, k / 16];
        let [x, y, z] = cell.map(|c| 4.0 * c as f64 + 1.0 + 1.6 * rng.gen::<f64>());
        let q = if (cell[0] + cell[1] + cell[2]) % 2 == 0 {
            0.5
        } else {
            -0.5
        };
        atoms.push_full(Vec3::new(x, y, z), Vec3::zero(), 0, q, 0.0, 0);
    }
    atoms.set_masses(vec![12.0]);
    let (x, q) = (atoms.x().to_vec(), atoms.charges().to_vec());

    // Reference: Ewald at 1e-10 plus its own real-space sum, done directly.
    let mut ewald = Ewald::new(cutoff, 1e-10);
    ewald.set_qqr2e(units.qqr2e);
    ewald.setup(&bx, &q).unwrap();
    let g_ref = ewald.g_ewald();
    let mut e_ref = ewald
        .compute(&bx, &x, &q, &mut vec![Vec3::zero(); 64])
        .ecoul;
    for i in 0..64 {
        for j in (i + 1)..64 {
            let r = bx.min_image(x[i], x[j]).norm();
            if r < cutoff {
                e_ref += units.qqr2e * q[i] * q[j] * erfc(g_ref * r) / r;
            }
        }
    }

    // The solver's `g` and the relative Coulomb error against the reference
    // of a simulation built at `accuracy`. No LJ (epsilon 0): the pair style
    // is the real-space Coulomb term alone.
    let coulomb = |accuracy: f64| {
        let mut style = LjCharmmCoulLong::new(1, &[(0, 0.0, 3.0)], 4.0, 5.0, cutoff).unwrap();
        let mut pppm = Pppm::new(cutoff, accuracy, 5);
        pppm.set_qqr2e(units.qqr2e);
        pppm.setup(&bx, &q).unwrap();
        style.set_g_ewald(pppm.g_ewald());
        let sim = Simulation::builder(bx, atoms.clone(), units)
            .pair(Box::new(style))
            .kspace(Box::new(pppm))
            .skin(1.0)
            .dt(1.0)
            .build()
            .unwrap();
        let g = sim.kspace_stats().unwrap().g_ewald;
        (g, ((sim.energy().ecoul - e_ref) / e_ref).abs())
    };
    let (g_loose, rel_loose) = coulomb(1e-4);
    let (g_tight, rel_tight) = coulomb(1e-6);
    assert!(g_tight > g_loose);
    assert!(
        rel_tight < 1e-6 && rel_tight < rel_loose,
        "relative to Ewald: {rel_loose:e} at 1e-4, {rel_tight:e} at 1e-6"
    );
}

/// The rhodo deck holds its SHAKE constraints while NPT + PPPM integrate.
#[test]
fn rhodo_deck_maintains_constraints_under_npt() {
    let mut deck = build_deck(Benchmark::Rhodo, 1, 9).unwrap();
    deck.simulation.run(5).unwrap();
    let atoms = deck.simulation.atoms();
    let bx = *deck.simulation.sim_box();
    // Every water O-H bond must still be at its constrained length.
    let mut checked = 0;
    for b in atoms.bonds() {
        if b.kind == 1 {
            let r = bx
                .min_image(atoms.x()[b.i as usize], atoms.x()[b.j as usize])
                .norm();
            assert!((r - 0.9572).abs() < 1e-3, "O-H bond at {r}");
            checked += 1;
        }
    }
    assert!(checked > 10_000, "checked {checked} constrained bonds");
}

/// Granular chute: momentum is injected by gravity, dissipated by friction —
/// the flow approaches a steady shear rather than free fall.
#[test]
fn chute_flow_is_dissipative() {
    let mut deck = build_deck(Benchmark::Chute, 1, 1).unwrap();
    deck.simulation.run(300).unwrap();
    let atoms = deck.simulation.atoms();
    let n_base = 40 * 40;
    let mean_vx: f64 =
        atoms.v()[n_base..].iter().map(|v| v.x).sum::<f64>() / (atoms.len() - n_base) as f64;
    // Free fall after 300 steps (t = 0.03) would give v = g sinθ t ≈ 0.013
    // with zero friction; flow starts and stays of that order, not larger.
    assert!(mean_vx > 0.0, "flow must move downhill");
    assert!(
        mean_vx < 0.05,
        "friction must limit acceleration, v = {mean_vx}"
    );
}
