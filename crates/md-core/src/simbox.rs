//! The simulation box: an orthogonal, optionally periodic region of space.
//!
//! The box supports per-axis periodicity (the Chute benchmark is periodic in
//! x/y but walled in z), minimum-image displacement, coordinate wrapping, and
//! isotropic rescaling for barostats.

use crate::error::{CoreError, Result};
use crate::vec3::Vec3;
use crate::wire;
use crate::V3;

/// An axis-aligned orthogonal simulation box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBox {
    lo: V3,
    hi: V3,
    periodic: [bool; 3],
}

impl SimBox {
    /// Creates a box spanning `[lo, hi)` on each axis, fully periodic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBox`] if any extent is non-positive or not
    /// finite.
    pub fn new(lo: V3, hi: V3) -> Result<Self> {
        for d in 0..3 {
            let ext = hi[d] - lo[d];
            if !(ext.is_finite() && ext > 0.0) {
                return Err(CoreError::InvalidBox {
                    reason: format!("extent along axis {d} is {ext}"),
                });
            }
        }
        Ok(SimBox {
            lo,
            hi,
            periodic: [true; 3],
        })
    }

    /// A fully periodic cube `[0, l)^3`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a positive finite number.
    pub fn cubic(l: f64) -> Self {
        SimBox::new(Vec3::zero(), Vec3::splat(l)).expect("cubic box edge must be positive")
    }

    /// A fully periodic box with the given extents starting at the origin.
    ///
    /// # Panics
    ///
    /// Panics if any extent is not a positive finite number.
    pub fn orthogonal(lx: f64, ly: f64, lz: f64) -> Self {
        SimBox::new(Vec3::zero(), Vec3::new(lx, ly, lz)).expect("box extents must be positive")
    }

    /// Sets per-axis periodicity flags; non-periodic axes use fixed walls.
    pub fn with_periodicity(mut self, x: bool, y: bool, z: bool) -> Self {
        self.periodic = [x, y, z];
        self
    }

    /// Lower corner.
    pub fn lo(&self) -> V3 {
        self.lo
    }

    /// Upper corner.
    pub fn hi(&self) -> V3 {
        self.hi
    }

    /// Extent along each axis.
    pub fn lengths(&self) -> V3 {
        self.hi - self.lo
    }

    /// Whether the given axis (0..3) is periodic.
    pub fn is_periodic(&self, axis: usize) -> bool {
        self.periodic[axis]
    }

    /// Box volume.
    pub fn volume(&self) -> f64 {
        let l = self.lengths();
        l.x * l.y * l.z
    }

    /// Smallest extent among periodic axes (all axes if none are periodic).
    pub fn min_periodic_extent(&self) -> f64 {
        let l = self.lengths();
        let mut m = f64::INFINITY;
        for d in 0..3 {
            if self.periodic[d] {
                m = m.min(l[d]);
            }
        }
        if m.is_infinite() {
            l.x.min(l.y).min(l.z)
        } else {
            m
        }
    }

    /// Validates that an interaction `range` is usable under minimum-image
    /// convention (must not exceed half the smallest periodic extent).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CutoffTooLarge`] when it does.
    pub fn check_interaction_range(&self, range: f64) -> Result<()> {
        let min_ext = self.min_periodic_extent();
        if range * 2.0 > min_ext {
            return Err(CoreError::CutoffTooLarge {
                range,
                min_extent: min_ext,
            });
        }
        Ok(())
    }

    /// Minimum-image displacement `a - b`.
    #[inline(always)]
    pub fn min_image(&self, a: V3, b: V3) -> V3 {
        let l = self.lengths();
        let mut d = a - b;
        for k in 0..3 {
            if self.periodic[k] {
                let lk = l[k];
                if d[k] > 0.5 * lk {
                    d[k] -= lk;
                } else if d[k] < -0.5 * lk {
                    d[k] += lk;
                }
            }
        }
        d
    }

    /// Wraps a position into the primary cell along periodic axes, updating
    /// the per-atom image counters so trajectories stay unwrappable.
    ///
    /// O(1) regardless of how far outside the box the position is (a
    /// diverging trajectory must not turn wrapping into a loop).
    #[inline]
    pub fn wrap(&self, x: &mut V3, image: &mut [i32; 3]) {
        let l = self.lengths();
        for k in 0..3 {
            if !self.periodic[k] {
                continue;
            }
            let shift = ((x[k] - self.lo[k]) / l[k]).floor();
            if shift != 0.0 {
                x[k] -= shift * l[k];
                image[k] += shift as i32;
            }
            // Guard against `x == hi` after rounding.
            if x[k] >= self.hi[k] {
                x[k] -= l[k];
                image[k] += 1;
            } else if x[k] < self.lo[k] {
                x[k] += l[k];
                image[k] -= 1;
            }
        }
    }

    /// Isotropically rescales the box about its center by `factor`, returning
    /// the new box. Positions must be rescaled by the caller (see
    /// [`crate::integrate::NoseHooverNpt`]).
    pub fn scaled(&self, factor: f64) -> SimBox {
        let c = (self.lo + self.hi) * 0.5;
        let half = (self.hi - self.lo) * (0.5 * factor);
        SimBox {
            lo: c - half,
            hi: c + half,
            periodic: self.periodic,
        }
    }

    /// Maps a position to fractional coordinates in `[0,1)` per axis.
    #[inline]
    pub fn fractional(&self, x: V3) -> V3 {
        let l = self.lengths();
        Vec3::new(
            (x.x - self.lo.x) / l.x,
            (x.y - self.lo.y) / l.y,
            (x.z - self.lo.z) / l.z,
        )
    }

    /// Whether `x` lies inside the box (half-open on each axis).
    pub fn contains(&self, x: V3) -> bool {
        (0..3).all(|d| x[d] >= self.lo[d] && x[d] < self.hi[d])
    }

    /// Appends the corners and the periodicity flags for a checkpoint.
    pub fn state_save(&self, w: &mut wire::Writer) {
        w.v3(self.lo);
        w.v3(self.hi);
        for p in self.periodic {
            w.bool(p);
        }
    }

    /// Reads a box written by [`SimBox::state_save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptState`] on truncation and on corners
    /// [`SimBox::new`] refuses.
    pub fn state_load(r: &mut wire::Reader<'_>) -> Result<Self> {
        let bx = SimBox::new(r.v3()?, r.v3()?).map_err(|e| CoreError::CorruptState {
            what: "box",
            detail: e.to_string(),
        })?;
        Ok(bx.with_periodicity(r.bool()?, r.bool()?, r.bool()?))
    }
}

impl std::fmt::Display for SimBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let l = self.lengths();
        write!(
            f,
            "box {:.4} x {:.4} x {:.4} (pbc {}{}{})",
            l.x,
            l.y,
            l.z,
            if self.periodic[0] { 'p' } else { 'f' },
            if self.periodic[1] { 'p' } else { 'f' },
            if self.periodic[2] { 'p' } else { 'f' },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_box() {
        let err = SimBox::new(Vec3::zero(), Vec3::new(1.0, 0.0, 1.0)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidBox { .. }));
    }

    #[test]
    fn min_image_wraps_across_boundary() {
        let bx = SimBox::cubic(10.0);
        let a = Vec3::new(9.5, 0.0, 0.0);
        let b = Vec3::new(0.5, 0.0, 0.0);
        let d = bx.min_image(a, b);
        assert!((d.x - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn min_image_respects_nonperiodic_axis() {
        let bx = SimBox::cubic(10.0).with_periodicity(true, true, false);
        let a = Vec3::new(0.0, 0.0, 9.5);
        let b = Vec3::new(0.0, 0.0, 0.5);
        assert!((bx.min_image(a, b).z - 9.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_tracks_images() {
        let bx = SimBox::cubic(10.0);
        let mut x = Vec3::new(12.5, -0.5, 5.0);
        let mut img = [0, 0, 0];
        bx.wrap(&mut x, &mut img);
        assert!((x.x - 2.5).abs() < 1e-12);
        assert!((x.y - 9.5).abs() < 1e-12);
        assert_eq!(img, [1, -1, 0]);
    }

    #[test]
    fn scaling_preserves_center() {
        let bx = SimBox::orthogonal(4.0, 6.0, 8.0);
        let s = bx.scaled(2.0);
        assert!((s.volume() - 8.0 * bx.volume()).abs() < 1e-9);
        let c0 = (bx.lo() + bx.hi()) * 0.5;
        let c1 = (s.lo() + s.hi()) * 0.5;
        assert!((c0 - c1).norm() < 1e-12);
    }

    #[test]
    fn interaction_range_check() {
        let bx = SimBox::cubic(10.0);
        assert!(bx.check_interaction_range(4.9).is_ok());
        assert!(bx.check_interaction_range(5.1).is_err());
    }

    #[test]
    fn fractional_and_contains() {
        let bx = SimBox::orthogonal(2.0, 4.0, 8.0);
        let f = bx.fractional(Vec3::new(1.0, 1.0, 6.0));
        assert_eq!(f, Vec3::new(0.5, 0.25, 0.75));
        assert!(bx.contains(Vec3::new(0.0, 0.0, 0.0)));
        assert!(!bx.contains(Vec3::new(2.0, 0.0, 0.0)));
    }
}
