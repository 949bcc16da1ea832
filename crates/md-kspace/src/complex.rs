//! Minimal complex arithmetic for the FFT and reciprocal-space sums.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates `re + i·im`.
    #[inline(always)]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline(always)]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    #[inline(always)]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Multiplication by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline(always)]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline(always)]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline(always)]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline(always)]
    fn div(self, o: Complex) -> Complex {
        let d = o.norm2();
        Complex::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline(always)]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline(always)]
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for Complex {
    #[inline(always)]
    fn sub_assign(&mut self, o: Complex) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for Complex {
    #[inline(always)]
    fn mul_assign(&mut self, o: Complex) {
        *self = *self * o;
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spotcheck() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 3.0);
        assert_eq!(a + b, Complex::new(0.5, 5.0));
        assert_eq!(a * Complex::ONE, a);
        let q = (a / b) * b;
        assert!((q - a).norm() < 1e-14);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let z = Complex::cis(k as f64 * 0.7);
            assert!((z.norm() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn conjugate_multiplication_gives_norm2() {
        let a = Complex::new(3.0, -4.0);
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < 1e-12 && p.im.abs() < 1e-12);
        assert_eq!(a.norm(), 5.0);
    }
}
