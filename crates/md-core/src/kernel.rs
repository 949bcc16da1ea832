//! In-core kernel path selection and lane-friendly scratch layouts.
//!
//! The pair styles ship two functionally identical inner loops:
//!
//! * [`KernelPath::Scalar`] — the original branchy AoS loop. It is the
//!   bitwise reference: deterministic mode always pins this path.
//! * [`KernelPath::Lanes`] — lane-blocked loops over flattened `x/y/z/type`
//!   scratch arrays ([`LaneGather`]/[`LaneAccum`]) driven by the padded
//!   neighbor rows of [`crate::NeighborList`]. Each block is a fixed-size
//!   `[f64; LANES]` array the compiler autovectorizes on stable Rust; the
//!   cutoff test becomes arithmetic masking ([`lane_mask`]) instead of a
//!   branch, and padded slots point at a far-away ghost atom so full blocks
//!   never bounds-check or branch.
//!
//! The two paths perform the same floating-point operations in the same
//! order per pair (masked lanes contribute exact zeros), so they agree to
//! tight tolerance; the engine still treats `Scalar` as the reference.

use crate::simbox::SimBox;
use crate::vec3::Vec3;
use std::fmt;
use std::str::FromStr;

type V3 = Vec3<f64>;

/// Lane width of the blocked kernels. Neighbor rows are padded to a
/// multiple of this; accumulator blocks are `[f64; LANES]`. Eight f64 lanes
/// span two AVX2 registers (or four NEON registers), which is the sweet
/// spot LLVM unrolls cleanly on both.
pub const LANES: usize = 8;

/// Which inner-loop implementation the pair styles run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Branchy reference loop; bitwise-stable, used by deterministic mode.
    #[default]
    Scalar,
    /// Lane-blocked, arithmetically masked loop over padded neighbor rows.
    Lanes,
}

impl KernelPath {
    /// Parse a kernel-path name as used by `MD_KERNEL` and `--kernel`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "ref" | "reference" => Some(KernelPath::Scalar),
            "lanes" | "lane" | "simd" | "vector" => Some(KernelPath::Lanes),
            _ => None,
        }
    }

    /// Read `MD_KERNEL` from the environment; unset means
    /// [`KernelPath::Scalar`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidParameter`] naming the variable if
    /// it is set to something [`KernelPath::parse`] does not know.
    pub fn from_env() -> crate::Result<Self> {
        crate::error::env_knob("MD_KERNEL", Self::default(), Self::parse)
    }

    /// True when this is the lane-blocked path.
    pub fn is_lanes(self) -> bool {
        matches!(self, KernelPath::Lanes)
    }
}

impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelPath::Scalar => write!(f, "scalar"),
            KernelPath::Lanes => write!(f, "lanes"),
        }
    }
}

impl FromStr for KernelPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| format!("unknown kernel path '{s}' (scalar|lanes)"))
    }
}

/// The widest vector ISA this build was compiled for (`cfg!`, so a fact of
/// the binary, not of the host): what the compiler could aim the lane blocks
/// at. Banners print it so a lanes-vs-scalar ratio reads next to its build.
pub fn target_features() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(all(target_feature = "avx2", target_feature = "fma")) {
        "avx2,fma"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "neon") {
        "neon"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "none"
    }
}

/// Mask as arithmetic: `1.0` when the lane is live, `0.0` when masked.
/// Multiplying a lane's force/energy contribution by this is the branch-free
/// replacement for `if r2 >= cut2 { continue; }`.
#[inline(always)]
pub fn lane_mask(live: bool) -> f64 {
    live as u64 as f64
}

/// One orthogonal minimum-image wrap as selects instead of branches.
/// Value-identical to the scalar `if d > l/2 { d -= l } else if d < -l/2
/// { d += l }` for any displacement below 1.5 box lengths.
#[inline(always)]
pub fn lane_min_image(d: f64, l: f64, half: f64) -> f64 {
    d - l * lane_mask(d > half) + l * lane_mask(d < -half)
}

/// Per-axis [`lane_min_image`] parameters of `bx`: `(length, half)` on
/// periodic axes, `(0, ∞)` — which turns the select wrap into an exact
/// no-op — elsewhere.
pub fn lane_wrap_params(bx: &SimBox) -> [(f64, f64); 3] {
    let l = bx.lengths();
    let mut p = [(0.0, f64::INFINITY); 3];
    for (k, lk) in [l.x, l.y, l.z].into_iter().enumerate() {
        if bx.is_periodic(k) {
            p[k] = (lk, 0.5 * lk);
        }
    }
    p
}

/// Where the ghost (sentinel) atom lives: far enough below the box that a
/// single minimum-image wrap still leaves it far outside every cutoff.
pub fn ghost_position(bx: &SimBox) -> V3 {
    let lo = bx.lo();
    Vec3::new(lo.x - 1.0e6, lo.y - 1.0e6, lo.z - 1.0e6)
}

/// Read-side scratch for the lane kernels: positions split into flattened
/// `x/y/z` arrays plus types and charges, each `n + 1` long with the ghost
/// atom in the final slot. Gathers through padded neighbor rows then index
/// freely without bounds branches.
#[derive(Debug, Default, Clone)]
pub struct LaneGather {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub zs: Vec<f64>,
    pub ts: Vec<u32>,
    pub qs: Vec<f64>,
}

impl LaneGather {
    /// Scatter `n` atoms into the split arrays and place the ghost atom at
    /// index `n`. Reuses capacity across calls; zero steady-state allocation.
    pub fn load(&mut self, x: &[V3], kinds: &[u32], charges: &[f64], ghost: V3) {
        let n = x.len();
        debug_assert_eq!(kinds.len(), n);
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.ts.clear();
        self.qs.clear();
        self.xs.reserve(n + 1);
        self.ys.reserve(n + 1);
        self.zs.reserve(n + 1);
        self.ts.reserve(n + 1);
        self.qs.reserve(n + 1);
        for p in x {
            self.xs.push(p.x);
            self.ys.push(p.y);
            self.zs.push(p.z);
        }
        self.ts.extend_from_slice(kinds);
        if charges.len() == n {
            self.qs.extend_from_slice(charges);
        } else {
            self.qs.resize(n, 0.0);
        }
        self.xs.push(ghost.x);
        self.ys.push(ghost.y);
        self.zs.push(ghost.z);
        self.ts.push(0);
        self.qs.push(0.0);
    }
}

/// Write-side scratch for the lane kernels: force accumulators split into
/// flattened `x/y/z` arrays, `n + 1` long so Newton-third-law scatters to
/// the ghost slot land harmlessly. [`LaneAccum::fold_into`] adds the real
/// slots back onto the engine's `Vec3` force array.
#[derive(Debug, Default, Clone)]
pub struct LaneAccum {
    pub fx: Vec<f64>,
    pub fy: Vec<f64>,
    pub fz: Vec<f64>,
}

impl LaneAccum {
    /// Zero `n + 1` accumulator slots, reusing capacity.
    pub fn reset(&mut self, n: usize) {
        self.fx.clear();
        self.fy.clear();
        self.fz.clear();
        self.fx.resize(n + 1, 0.0);
        self.fy.resize(n + 1, 0.0);
        self.fz.resize(n + 1, 0.0);
    }

    /// Add the accumulated per-atom forces (ghost slot excluded) onto `f`.
    pub fn fold_into(&self, f: &mut [Vec3<f64>]) {
        let n = f.len();
        debug_assert!(self.fx.len() >= n);
        for (i, fi) in f.iter_mut().enumerate() {
            fi.x += self.fx[i];
            fi.y += self.fy[i];
            fi.z += self.fz[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_display() {
        for path in [KernelPath::Scalar, KernelPath::Lanes] {
            assert_eq!(KernelPath::parse(&path.to_string()), Some(path));
        }
        assert_eq!(KernelPath::parse("SIMD"), Some(KernelPath::Lanes));
        assert_eq!(KernelPath::parse("nope"), None);
        assert_eq!("lanes".parse::<KernelPath>().unwrap(), KernelPath::Lanes);
        assert!("warp".parse::<KernelPath>().is_err());
    }

    #[test]
    fn md_kernel_parses_or_names_itself() {
        let knob =
            |v| crate::error::parse_knob("MD_KERNEL", v, KernelPath::default(), KernelPath::parse);
        assert_eq!(knob(None), Ok(KernelPath::Scalar));
        assert_eq!(knob(Some("lanes")), Ok(KernelPath::Lanes));
        match knob(Some("avx")) {
            Err(crate::CoreError::InvalidParameter { name, reason }) => {
                assert_eq!(name, "MD_KERNEL");
                assert!(reason.contains("avx"), "{reason}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn lane_mask_is_zero_or_one() {
        assert_eq!(lane_mask(true), 1.0);
        assert_eq!(lane_mask(false), 0.0);
    }

    #[test]
    fn lane_min_image_matches_branchy_wrap() {
        let l = 10.0;
        let half = 5.0;
        for d in [-14.9, -5.0001, -5.0, -2.0, 0.0, 3.0, 5.0, 5.0001, 14.9] {
            let mut want = d;
            if want > half {
                want -= l;
            } else if want < -half {
                want += l;
            }
            let got = lane_min_image(d, l, half);
            assert_eq!(got.to_bits(), want.to_bits(), "d={d}");
        }
    }

    #[test]
    fn gather_places_ghost_in_final_slot() {
        let x = vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        let kinds = vec![0u32, 1u32];
        let charges = vec![0.5, -0.5];
        let mut g = LaneGather::default();
        g.load(&x, &kinds, &charges, Vec3::new(-1e6, -1e6, -1e6));
        assert_eq!(g.xs.len(), 3);
        assert_eq!(g.xs[2], -1e6);
        assert_eq!(g.ts[2], 0);
        assert_eq!(g.qs[1], -0.5);

        let mut acc = LaneAccum::default();
        acc.reset(2);
        acc.fx[0] = 1.0;
        acc.fz[2] = 7.0; // ghost slot: must not fold back
        let mut f = vec![Vec3::zero(); 2];
        acc.fold_into(&mut f);
        assert_eq!(f[0].x, 1.0);
        assert_eq!(f[1].z, 0.0);
    }
}
