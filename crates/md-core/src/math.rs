//! Special functions the force fields and long-range solvers need.
//!
//! Rust's standard library has no `erf`/`erfc`; the Ewald/PPPM real-space
//! term needs them at near-double precision, so both are implemented here
//! as the piecewise rational approximations of fdlibm's `s_erf.c` (the
//! coefficients are that file's, bit for bit):
//!
//! | range of \|x\|      | form                                                 |
//! |---------------------|------------------------------------------------------|
//! | `[0, 0.84375)`      | `erf = x + x·P(x²)/Q(x²)`                            |
//! | `[0.84375, 1.25)`   | `erf = c + P(\|x\|−1)/Q(\|x\|−1)`, `c ≈ erf(1)`      |
//! | `[1.25, 1/0.35)`    | `erfc = exp(−x² − 0.5625 + Ra(1/x²)/Sa(1/x²)) / x`   |
//! | `[1/0.35, 28)`      | the same with `Rb/Sb`; beyond 28 `erfc` underflows   |
//!
//! Every branch is a fixed number of operations: two Horner chains and one
//! divide, plus in the two tail ranges one `1/x` and one `exp`. There is no
//! loop whose trip count depends on `x`, so a call costs the same wherever
//! it lands (the Maclaurin series and continued fraction this module used
//! before took 30–50 iterations at the arguments the real-space Coulomb term
//! sees; they are now the test oracle at the bottom of this file).
//!
//! The tail needs `exp(−x²)` to a relative error well under `x²·ε`, which a
//! rounded `x*x` cannot give (`x = 6` would lose five bits). `x` is split as
//! `z + (x − z)` with `z` the top 21 significand bits, so `z²` is exact and
//! the exponent is `hi + lo` with `hi = −z² − 0.5625` exact and `lo` small;
//! the rounding error of `hi + lo` is recovered exactly (Fast2Sum) and
//! applied as a first-order factor after the single `exp`.
//!
//! Measured against 200-bit references: `erfc` ≤ 4.5e-16 relative on
//! `[−6, 27]`, `erf` ≤ 1.4e-16.

/// The coefficient tables of fdlibm's `s_erf.c`, with the digits that file
/// prints (more than an `f64` holds) so they can be compared against it.
#[allow(clippy::excessive_precision)]
mod fdlibm {
    /// `erf(1)` rounded to `f32`: the centre value of the `[0.84375, 1.25)` fit.
    pub(super) const ERX: f64 = 8.45062911510467529297e-01;

    /// `erf` on `[0, 0.84375)`: `erf(x) = x + x·PP(x²)/QQ(x²)`.
    pub(super) const PP: [f64; 5] = [
        1.28379167095512558561e-01,
        -3.25042107247001499370e-01,
        -2.84817495755985104766e-02,
        -5.77027029648944159157e-03,
        -2.37630166566501626084e-05,
    ];
    pub(super) const QQ: [f64; 6] = [
        1.0,
        3.97917223959155352819e-01,
        6.50222499887672944485e-02,
        5.08130628187576562776e-03,
        1.32494738004321644526e-04,
        -3.96022827877536812320e-06,
    ];

    /// `erf` on `[0.84375, 1.25)`: `erf(x) = ERX + PA(x−1)/QA(x−1)`.
    pub(super) const PA: [f64; 7] = [
        -2.36211856075265944077e-03,
        4.14856118683748331666e-01,
        -3.72207876035701323847e-01,
        3.18346619901161753674e-01,
        -1.10894694282396677476e-01,
        3.54783043256182359371e-02,
        -2.16637559486879084300e-03,
    ];
    pub(super) const QA: [f64; 7] = [
        1.0,
        1.06420880400844228286e-01,
        5.40397917702171048937e-01,
        7.18286544141962662868e-02,
        1.26171219808761642112e-01,
        1.36370839120290507362e-02,
        1.19844998467991074170e-02,
    ];

    /// `erfc` on `[1.25, 1/0.35)`: `exp(−x² − 0.5625 + RA(1/x²)/SA(1/x²)) / x`.
    pub(super) const RA: [f64; 8] = [
        -9.86494403484714822705e-03,
        -6.93858572707181764372e-01,
        -1.05586262253232909814e+01,
        -6.23753324503260060396e+01,
        -1.62396669462573470355e+02,
        -1.84605092906711035994e+02,
        -8.12874355063065934246e+01,
        -9.81432934416914548592e+00,
    ];
    pub(super) const SA: [f64; 9] = [
        1.0,
        1.96512716674392571292e+01,
        1.37657754143519042600e+02,
        4.34565877475229228821e+02,
        6.45387271733267880336e+02,
        4.29008140027567833386e+02,
        1.08635005541779435134e+02,
        6.57024977031928170135e+00,
        -6.04244152148580987438e-02,
    ];

    /// `erfc` on `[1/0.35, 28)`: the same form with `RB/SB`.
    pub(super) const RB: [f64; 7] = [
        -9.86494292470009928597e-03,
        -7.99283237680523006574e-01,
        -1.77579549177547519889e+01,
        -1.60636384855821916062e+02,
        -6.37566443368389627722e+02,
        -1.02509513161107724954e+03,
        -4.83519191608651397019e+02,
    ];
    pub(super) const SB: [f64; 8] = [
        1.0,
        3.03380607434824582924e+01,
        3.25792512996573918826e+02,
        1.53672958608443695994e+03,
        3.19985821950859553908e+03,
        2.55305040643316442583e+03,
        4.74528541206955367215e+02,
        -2.24409524465858183362e+01,
    ];
}
use fdlibm::{ERX, PA, PP, QA, QQ, RA, RB, SA, SB};

/// Horner evaluation of `c[0] + c[1] s + … + c[N−1] s^(N−1)`.
#[inline(always)]
fn horner<const N: usize>(s: f64, c: &[f64; N]) -> f64 {
    let mut r = c[N - 1];
    for k in (0..N - 1).rev() {
        r = r * s + c[k];
    }
    r
}

/// `erf(x) / x − 1` for `|x| < 0.84375`.
#[inline(always)]
fn erf_core_ratio(x: f64) -> f64 {
    let z = x * x;
    horner(z, &PP) / horner(z, &QQ)
}

/// `erf(ax) − ERX` for `ax` in `[0.84375, 1.25)`.
#[inline(always)]
fn erf_mid_offset(ax: f64) -> f64 {
    let s = ax - 1.0;
    horner(s, &PA) / horner(s, &QA)
}

/// `erfc(ax)` for `ax` in `[1.25, 28)`.
#[inline(always)]
fn erfc_tail(ax: f64) -> f64 {
    let inv = 1.0 / ax;
    let s = inv * inv;
    let ratio = if ax < 1.0 / 0.35 {
        horner(s, &RA) / horner(s, &SA)
    } else {
        horner(s, &RB) / horner(s, &SB)
    };
    // z: the top 21 significand bits of ax, so z*z is exact.
    let z = f64::from_bits(ax.to_bits() & 0xFFFF_FFFF_0000_0000);
    let hi = -z * z - 0.5625;
    let lo = (z - ax) * (z + ax) + ratio;
    // |hi| > |lo|, so (hi - e) + lo is the rounding error of hi + lo exactly.
    let e = hi + lo;
    let err = (hi - e) + lo;
    e.exp() * (1.0 + err) * inv
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Relative error ≤ 4.5e-16 wherever the result is a normal number;
/// underflows to 0 beyond ~26.6, is exactly 2 below ~−5.9, and NaN for NaN.
pub fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 0.84375 {
        let y = erf_core_ratio(x);
        if x < 0.25 {
            1.0 - (x + x * y)
        } else {
            // Keeps the subtraction exact where erfc < 1/2.
            0.5 - (x * y + (x - 0.5))
        }
    } else if ax < 1.25 {
        let pq = erf_mid_offset(ax);
        if x > 0.0 {
            (1.0 - ERX) - pq
        } else {
            1.0 + (ERX + pq)
        }
    } else if ax < 28.0 {
        let t = erfc_tail(ax);
        if x > 0.0 {
            t
        } else {
            2.0 - t
        }
    } else if x.is_nan() {
        x
    } else if x > 0.0 {
        0.0
    } else {
        2.0
    }
}

/// Error function `erf(x)`.
///
/// Relative error ≤ 1.4e-16; exactly ±1 beyond |x| = 6, NaN for NaN.
pub fn erf(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 0.84375 {
        x + x * erf_core_ratio(x)
    } else if ax < 1.25 {
        (ERX + erf_mid_offset(ax)).copysign(x)
    } else if ax < 6.0 {
        (1.0 - erfc_tail(ax)).copysign(x)
    } else if x.is_nan() {
        x
    } else {
        1.0f64.copysign(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle for small arguments: the Maclaurin series
    /// `erf(x) = 2/√π Σ (-1)^n x^(2n+1) / (n! (2n+1))`. `1 − erf_series(x)`
    /// is within 5e-16 of `erfc(x)` for `x ≤ 0.5`; beyond that the
    /// subtraction (and, past `x ≈ 1`, the alternating sum) loses digits.
    fn erf_series(x: f64) -> f64 {
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        for n in 1..200 {
            term *= -x2 / n as f64;
            let contrib = term / (2.0 * n as f64 + 1.0);
            sum += contrib;
            if contrib.abs() < 1e-18 * sum.abs().max(1e-300) {
                break;
            }
        }
        two_over_sqrt_pi * sum
    }

    /// Oracle for `x ≥ 0.5`: the continued fraction
    /// `erfc(x) = e^{-x²}/√π · 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...))))`,
    /// 1000 levels evaluated from the innermost outwards (rounding errors
    /// are damped at every level, and 1000 levels converge to 1e-16 down to
    /// `x = 0.5`), with `e^{-x²}` taken from an exact square of the top half
    /// of `x`. Within 5e-16 of `erfc(x)` on `[0.5, 6]`.
    fn erfc_continued_fraction(x: f64) -> f64 {
        let mut t = x;
        for k in (1..=1000).rev() {
            t = x + 0.5 * k as f64 / t;
        }
        let z = f64::from_bits(x.to_bits() & 0xFFFF_FFFF_F800_0000);
        (-z * z).exp() * ((z - x) * (z + x)).exp() / std::f64::consts::PI.sqrt() / t
    }

    fn rel_err(got: f64, want: f64) -> f64 {
        ((got - want) / want).abs()
    }

    #[test]
    fn erfc_known_values() {
        // mpmath at 30 digits, rounded to f64.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001221869535),
            (1.0, 0.15729920705028513),
            (2.0, 0.004677734981047266),
            (3.0, 2.209049699858544e-5),
            (5.0, 1.537459794428035e-12),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                rel_err(got, want) <= 1e-15,
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erfc_far_tail_saturation_and_nan() {
        assert!(rel_err(erfc(10.0), 2.088487583762545e-45) <= 1e-14);
        assert_eq!(erfc(-6.0), 2.0);
        assert_eq!(erfc(30.0), 0.0);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert!(erfc(f64::NAN).is_nan());
        assert_eq!(erf(7.0), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert!(erf(f64::NAN).is_nan());
    }

    #[test]
    fn erf_erfc_complementarity() {
        for i in 0..100 {
            let x = -4.0 + 0.08 * i as f64;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-14, "x = {x}");
        }
    }

    #[test]
    fn negative_arguments() {
        assert!((erfc(-1.0) - (2.0 - 0.15729920705028513)).abs() < 1e-14);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-16);
    }

    #[test]
    fn monotone_decreasing() {
        let mut prev = erfc(-3.0);
        for i in 1..=120 {
            let x = -3.0 + 0.05 * i as f64;
            let cur = erfc(x);
            assert!(cur < prev, "erfc not decreasing at x = {x}");
            prev = cur;
        }
    }

    /// The pieces meet: one ulp either side of every breakpoint agrees with
    /// the oracle, so no seam is wider than the fits' own error.
    #[test]
    fn breakpoints_are_seamless() {
        for b in [0.25f64, 0.84375, 1.25, 1.0 / 0.35] {
            for x in [
                f64::from_bits(b.to_bits() - 1),
                b,
                f64::from_bits(b.to_bits() + 1),
            ] {
                let want = if x <= 0.5 {
                    1.0 - erf_series(x)
                } else {
                    erfc_continued_fraction(x)
                };
                assert!(rel_err(erfc(x), want) <= 1e-15, "erfc({x})");
                assert!((erf(x) + erfc(x) - 1.0).abs() <= 2.3e-16, "erf({x})");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `erfc` against the series oracle where that is accurate.
        #[test]
        fn erfc_matches_series_oracle(x in 0.0..0.5f64) {
            prop_assert!(rel_err(erfc(x), 1.0 - erf_series(x)) <= 1e-15, "x = {}", x);
            prop_assert!((erf(x) - erf_series(x)).abs() <= 1e-15 * erf_series(x), "x = {}", x);
        }

        /// `erfc` against the continued-fraction oracle where that is
        /// accurate; `erf` there is its complement.
        #[test]
        fn erfc_matches_continued_fraction_oracle(x in 0.5..6.0f64) {
            let want = erfc_continued_fraction(x);
            prop_assert!(rel_err(erfc(x), want) <= 1e-15, "x = {}", x);
            prop_assert!((erf(x) - (1.0 - want)).abs() <= 2.3e-16, "x = {}", x);
            prop_assert!((erfc(-x) - (2.0 - want)).abs() <= 4.5e-16, "x = {}", x);
        }
    }
}
