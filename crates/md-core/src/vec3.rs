//! A minimal 3-vector generic over the kernel scalar type.

use crate::real::Real;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 3-component vector of [`Real`] scalars.
///
/// Positions, velocities, and forces are stored as `Vec3<f64>` (alias
/// [`crate::V3`]); pairwise kernels may instantiate `Vec3<f32>` internally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3<R> {
    /// X component.
    pub x: R,
    /// Y component.
    pub y: R,
    /// Z component.
    pub z: R,
}

impl<R: Real> Vec3<R> {
    /// Creates a vector from its components.
    #[inline(always)]
    pub fn new(x: R, y: R, z: R) -> Self {
        Vec3 { x, y, z }
    }

    /// The zero vector.
    #[inline(always)]
    pub fn zero() -> Self {
        Vec3 {
            x: R::ZERO,
            y: R::ZERO,
            z: R::ZERO,
        }
    }

    /// A vector with all components equal to `v`.
    #[inline(always)]
    pub fn splat(v: R) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(self, other: Self) -> R {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline(always)]
    pub fn cross(self, other: Self) -> Self {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Squared Euclidean norm.
    #[inline(always)]
    pub fn norm2(self) -> R {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline(always)]
    pub fn norm(self) -> R {
        self.norm2().sqrt()
    }

    /// Component-wise multiplication.
    #[inline(always)]
    pub fn mul_elem(self, other: Self) -> Self {
        Vec3 {
            x: self.x * other.x,
            y: self.y * other.y,
            z: self.z * other.z,
        }
    }

    /// Converts each component via `f64` into another scalar width.
    #[inline(always)]
    pub fn cast<S: Real>(self) -> Vec3<S> {
        Vec3 {
            x: S::from_f64(self.x.to_f64()),
            y: S::from_f64(self.y.to_f64()),
            z: S::from_f64(self.z.to_f64()),
        }
    }

    /// Largest absolute component, useful for displacement triggers.
    #[inline(always)]
    pub fn max_abs(self) -> R {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }
}

impl<R: Real> Add for Vec3<R> {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl<R: Real> Sub for Vec3<R> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl<R: Real> Neg for Vec3<R> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl<R: Real> Mul<R> for Vec3<R> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, s: R) -> Self {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl<R: Real> Div<R> for Vec3<R> {
    type Output = Self;
    #[inline(always)]
    fn div(self, s: R) -> Self {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl<R: Real> AddAssign for Vec3<R> {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl<R: Real> SubAssign for Vec3<R> {
    #[inline(always)]
    fn sub_assign(&mut self, o: Self) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

impl<R: Real> MulAssign<R> for Vec3<R> {
    #[inline(always)]
    fn mul_assign(&mut self, s: R) {
        self.x *= s;
        self.y *= s;
        self.z *= s;
    }
}

impl<R: Real> DivAssign<R> for Vec3<R> {
    #[inline(always)]
    fn div_assign(&mut self, s: R) {
        self.x /= s;
        self.y /= s;
        self.z /= s;
    }
}

impl<R: Real> Index<usize> for Vec3<R> {
    type Output = R;
    #[inline(always)]
    fn index(&self, i: usize) -> &R {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl<R: Real> IndexMut<usize> for Vec3<R> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut R {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl<R: Real> From<[R; 3]> for Vec3<R> {
    fn from(a: [R; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl<R: Real> From<Vec3<R>> for [R; 3] {
    fn from(v: Vec3<R>) -> Self {
        [v.x, v.y, v.z]
    }
}

impl<R: Real> std::fmt::Display for Vec3<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(x.cross(y).dot(x), 0.0);
    }

    #[test]
    fn norms() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm2(), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.max_abs(), 4.0);
    }

    #[test]
    fn indexing_and_conversion() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        v[2] = 9.0;
        assert_eq!(v[0] + v[1] + v[2], 12.0);
        let arr: [f64; 3] = v.into();
        assert_eq!(Vec3::from(arr), v);
        let w: Vec3<f32> = v.cast();
        assert_eq!(w.z, 9.0f32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let v: Vec3<f64> = Vec3::zero();
        let _ = v[3];
    }
}
