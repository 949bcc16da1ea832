//! Property-based tests for the long-range stack: FFT algebra, accuracy
//! monotonicity, and Ewald physics over random inputs.

use md_core::{KspaceStyle, SimBox, Vec3, V3};
use md_kspace::accuracy::smooth235;
use md_kspace::fft::{dft_reference, fft1d, Direction};
use md_kspace::{Complex, Ewald, Fft3d, KspaceAccuracy, Pppm};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FFT is linear: FFT(a·x + b·y) = a·FFT(x) + b·FFT(y).
    #[test]
    fn fft_is_linear(
        seed in 0u64..500,
        a in -3.0..3.0f64,
        b in -3.0..3.0f64,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 64;
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.gen(), rng.gen())).collect();
        let y: Vec<Complex> = (0..n).map(|_| Complex::new(rng.gen(), rng.gen())).collect();
        let mut combo: Vec<Complex> = x
            .iter()
            .zip(&y)
            .map(|(&xi, &yi)| xi.scale(a) + yi.scale(b))
            .collect();
        let mut fx = x.clone();
        let mut fy = y.clone();
        fft1d(&mut combo, Direction::Forward).unwrap();
        fft1d(&mut fx, Direction::Forward).unwrap();
        fft1d(&mut fy, Direction::Forward).unwrap();
        for k in 0..n {
            let want = fx[k].scale(a) + fy[k].scale(b);
            prop_assert!((combo[k] - want).norm() < 1e-9);
        }
    }

    /// Forward-inverse roundtrip is the identity for any 2·3·5-smooth size.
    #[test]
    fn fft_roundtrip(seed in 0u64..500, at_least in 1usize..300) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = smooth235(at_least);
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.gen(), rng.gen())).collect();
        let mut y = x.clone();
        fft1d(&mut y, Direction::Forward).unwrap();
        fft1d(&mut y, Direction::Inverse).unwrap();
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).norm() < 1e-10);
        }
    }

    /// The fast transform matches the naive DFT on random small signals.
    #[test]
    fn fft_matches_dft(seed in 0u64..300) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 32;
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.gen(), rng.gen())).collect();
        let mut fast = x.clone();
        fft1d(&mut fast, Direction::Forward).unwrap();
        let slow = dft_reference(&x, Direction::Forward);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).norm() < 1e-9);
        }
    }

    /// smooth235 outputs are 2-3-5-smooth, ≥ input, and minimal.
    #[test]
    fn smooth235_properties(n in 2usize..2000) {
        let m = smooth235(n);
        prop_assert!(m >= n);
        let mut k = m;
        for p in [2usize, 3, 5] {
            while k.is_multiple_of(p) {
                k /= p;
            }
        }
        prop_assert_eq!(k, 1, "{} not smooth", m);
        // Minimality: nothing smooth in [n, m).
        for c in n..m {
            let mut k = c;
            for p in [2usize, 3, 5] {
                while k % p == 0 {
                    k /= p;
                }
            }
            prop_assert!(k != 1, "{} was smooth but skipped", c);
        }
    }

    /// Tightening the threshold never shrinks the mesh or the Ewald kmax.
    #[test]
    fn accuracy_is_monotone(exp1 in 3.0..7.0f64, d in 0.2..2.0f64) {
        let coarse = KspaceAccuracy::resolve(
            10.0, 10f64.powf(-exp1), 32_000, 16_000.0, [60.0, 70.0, 80.0], 5,
        ).unwrap();
        let tight = KspaceAccuracy::resolve(
            10.0, 10f64.powf(-(exp1 + d)), 32_000, 16_000.0, [60.0, 70.0, 80.0], 5,
        ).unwrap();
        prop_assert!(tight.g_ewald > coarse.g_ewald);
        for dd in 0..3 {
            prop_assert!(tight.grid[dd] >= coarse.grid[dd]);
            prop_assert!(tight.kmax[dd] >= coarse.kmax[dd]);
        }
    }

    /// The reciprocal-space energy of a neutral system is translation
    /// invariant (periodic box).
    #[test]
    fn ewald_energy_is_translation_invariant(
        seed in 0u64..200,
        tx in 0.0..10.0f64,
        ty in 0.0..10.0f64,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let l = 10.0;
        let bx = SimBox::cubic(l);
        let x: Vec<V3> = (0..12)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let q: Vec<f64> = (0..12).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let mut ewald = Ewald::new(4.9, 1e-4);
        ewald.setup(&bx, &q).unwrap();
        let mut f = vec![Vec3::zero(); 12];
        let e0 = ewald.compute(&bx, &x, &q, &mut f).ecoul;
        let shifted: Vec<V3> = x
            .iter()
            .map(|&p| {
                let mut s = p + Vec3::new(tx, ty, 0.0);
                let mut img = [0; 3];
                bx.wrap(&mut s, &mut img);
                s
            })
            .collect();
        let mut f = vec![Vec3::zero(); 12];
        let e1 = ewald.compute(&bx, &shifted, &q, &mut f).ecoul;
        prop_assert!((e0 - e1).abs() < 1e-9 * e0.abs().max(1.0), "{e0} vs {e1}");
    }
}

/// PPPM's reciprocal energy is invariant under charge conjugation
/// (q → -q) — the energy is quadratic in the charges.
#[test]
fn pppm_energy_is_even_in_charges() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    let l = 11.0;
    let bx = SimBox::cubic(l);
    let x: Vec<V3> = (0..30)
        .map(|_| {
            Vec3::new(
                rng.gen::<f64>() * l,
                rng.gen::<f64>() * l,
                rng.gen::<f64>() * l,
            )
        })
        .collect();
    let q: Vec<f64> = (0..30)
        .map(|i| if i % 2 == 0 { 0.7 } else { -0.7 })
        .collect();
    let neg: Vec<f64> = q.iter().map(|&qi| -qi).collect();
    let mut pppm = Pppm::new(5.4, 1e-5, 5);
    pppm.setup(&bx, &q).unwrap();
    let mut f1 = vec![Vec3::zero(); 30];
    let e1 = pppm.compute(&bx, &x, &q, &mut f1).ecoul;
    let mut f2 = vec![Vec3::zero(); 30];
    let e2 = pppm.compute(&bx, &x, &neg, &mut f2).ecoul;
    assert!((e1 - e2).abs() < 1e-9 * e1.abs(), "{e1} vs {e2}");
    for (a, b) in f1.iter().zip(&f2) {
        assert!(
            (*a - *b).norm() < 1e-9 * a.norm().max(1.0),
            "forces must match"
        );
    }
}

/// 3D FFT Parseval equality on random meshes.
#[test]
fn fft3d_parseval() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(3);
    let mut fft = Fft3d::new(8, 16, 4).unwrap();
    let mut data: Vec<Complex> = (0..fft.len())
        .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let e_time: f64 = data.iter().map(|z| z.norm2()).sum();
    fft.transform(&mut data, Direction::Forward).unwrap();
    let e_freq: f64 = data.iter().map(|z| z.norm2()).sum::<f64>() / fft.len() as f64;
    assert!((e_time - e_freq).abs() < 1e-9 * e_time);
}
