//! Floating-point abstraction for precision-sensitive kernels.
//!
//! The paper's Section 8 studies the performance impact of computing pairwise
//! non-bonded forces in single, double, or mixed precision (single-precision
//! arithmetic with double-precision force accumulation, the LAMMPS INTEL /
//! GPU package default). The engine keeps its *state* (positions, velocities)
//! in `f64`; the pair kernels are generic over [`Real`] so that the same
//! kernel source instantiates an `f32` and an `f64` variant, and a
//! [`PrecisionMode`] selects which variant runs and how forces accumulate.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A scalar usable inside force kernels: `f32` or `f64`.
///
/// This trait is sealed: the set of IEEE types the engine supports is closed,
/// and downstream crates select among them with [`PrecisionMode`].
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + private::Sealed
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The value two, handy in kinetic-energy and Verlet expressions.
    const TWO: Self;
    /// One half.
    const HALF: Self;

    /// Lossy conversion from `f64` (the engine's state precision).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// `self^n` for small integer exponents.
    fn powi(self, n: i32) -> Self;
    /// Minimum of two values.
    fn min(self, other: Self) -> Self;
    /// Maximum of two values.
    fn max(self, other: Self) -> Self;
    /// Machine epsilon of the representation.
    fn epsilon() -> Self;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn epsilon() -> Self {
                <$t>::EPSILON
            }
        }
    };
}

impl_real!(f32);
impl_real!(f64);

/// Floating-point strategy for pairwise force kernels (paper Section 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecisionMode {
    /// `f32` arithmetic, `f32` accumulation.
    Single,
    /// `f32` arithmetic, `f64` force accumulation (the LAMMPS default).
    #[default]
    Mixed,
    /// `f64` arithmetic throughout.
    Double,
}

impl PrecisionMode {
    /// All modes, in the order the paper reports them.
    pub const ALL: [PrecisionMode; 3] = [
        PrecisionMode::Single,
        PrecisionMode::Mixed,
        PrecisionMode::Double,
    ];

    /// Short lowercase label used in figure legends ("single", "mixed", "double").
    pub fn label(self) -> &'static str {
        match self {
            PrecisionMode::Single => "single",
            PrecisionMode::Mixed => "mixed",
            PrecisionMode::Double => "double",
        }
    }

    /// Bytes per scalar moved through the arithmetic units.
    pub fn compute_width(self) -> usize {
        match self {
            PrecisionMode::Single | PrecisionMode::Mixed => 4,
            PrecisionMode::Double => 8,
        }
    }

    /// Bytes per scalar in the force accumulators.
    pub fn accumulate_width(self) -> usize {
        match self {
            PrecisionMode::Single => 4,
            PrecisionMode::Mixed | PrecisionMode::Double => 8,
        }
    }
}

impl std::fmt::Display for PrecisionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f32() {
        let x = <f32 as Real>::from_f64(1.5);
        assert_eq!(x.to_f64(), 1.5);
    }

    #[test]
    fn generic_kernel_works_for_both_widths() {
        fn lj_energy<R: Real>(r2: R) -> R {
            let inv2 = R::ONE / r2;
            let inv6 = inv2 * inv2 * inv2;
            R::from_f64(4.0) * inv6 * (inv6 - R::ONE)
        }
        let e32 = lj_energy(1.2f32).to_f64();
        let e64 = lj_energy(1.2f64);
        assert!((e32 - e64).abs() < 1e-6, "{e32} vs {e64}");
    }

    #[test]
    fn mode_widths() {
        assert_eq!(PrecisionMode::Single.compute_width(), 4);
        assert_eq!(PrecisionMode::Mixed.compute_width(), 4);
        assert_eq!(PrecisionMode::Mixed.accumulate_width(), 8);
        assert_eq!(PrecisionMode::Double.compute_width(), 8);
    }

    #[test]
    fn labels_are_stable() {
        for m in PrecisionMode::ALL {
            assert_eq!(m.to_string(), m.label());
        }
    }
}
