//! In-core kernel path selection and lane-friendly scratch layouts.
//!
//! The pair styles ship two functionally identical inner loops:
//!
//! * [`KernelPath::Scalar`] — the original branchy AoS loop and the
//!   reference the lanes path is tested against.
//! * [`KernelPath::Lanes`] — lane-blocked loops over the padded neighbor
//!   rows of [`crate::NeighborList`] (LJ and the two EAM passes; EAM reads
//!   flattened `x/y/z` scratch, [`LaneGather`]/[`LaneAccum`]). Each block is
//!   a fixed-size `[f64; LANES]` array the compiler autovectorizes on stable
//!   Rust; the cutoff test becomes arithmetic masking ([`lane_mask`])
//!   instead of a branch, and padded slots point at a far-away ghost atom so
//!   full blocks never bounds-check or branch.
//!
//! A lane body is compiled once per vector ISA and picked at run time:
//! [`lane_dispatch!`](crate::lane_dispatch) stamps out an AVX-512F and an
//! AVX2 copy beside the baseline one, and [`lane_isa`] names the widest the
//! host has ([`LaneIsa`], detected once). The copies do the same IEEE
//! operations in the same order — Rust never contracts a multiply and an
//! add into an FMA, and the lane sums are fixed by `[f64; LANES]`, not by
//! the register width — so every copy gives the same bits.
//!
//! The two paths perform the same floating-point operations per pair
//! (masked lanes contribute exact zeros) but sum them in lane-strided order,
//! so they agree to tight tolerance; the engine still treats `Scalar` as the
//! reference.

use crate::simbox::SimBox;
use crate::vec3::Vec3;
use std::fmt;
use std::str::FromStr;

type V3 = Vec3<f64>;

/// Lane width of the blocked kernels. Neighbor rows are padded to a
/// multiple of this; accumulator blocks are `[f64; LANES]`. Eight f64 lanes
/// are one AVX-512 register, two AVX2 registers or four SSE2/NEON ones, so
/// every [`LaneIsa`] copy of a body runs whole registers. The width fixes
/// the summation order, so it does not follow the ISA.
pub const LANES: usize = 8;

/// Which inner-loop implementation the pair styles run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Branchy reference loop; the oracle for [`KernelPath::Lanes`].
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
/// the binary, not of the host): what the compiler aims the code outside the
/// lane bodies at. [`lane_isa`] is the other half, a fact of the host: what
/// the lane bodies run at. Banners print both, so a lanes-vs-scalar ratio
/// reads next to its build and its host.
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

/// A vector ISA a lane body can run at: the copies
/// [`lane_dispatch!`](crate::lane_dispatch) compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneIsa {
    /// 512-bit registers (x86-64 with AVX-512F).
    Avx512f,
    /// 256-bit registers (x86-64 with AVX2).
    Avx2,
    /// Whatever the build targets ([`target_features`]); every host has it.
    Baseline,
}

impl LaneIsa {
    /// Every ISA, widest first.
    pub const ALL: [LaneIsa; 3] = [LaneIsa::Avx512f, LaneIsa::Avx2, LaneIsa::Baseline];

    /// Whether this host can run the copy compiled for `self`.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            LaneIsa::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            LaneIsa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            LaneIsa::Baseline => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

impl fmt::Display for LaneIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LaneIsa::Avx512f => "avx512f",
            LaneIsa::Avx2 => "avx2",
            LaneIsa::Baseline => "baseline",
        })
    }
}

/// The widest [`LaneIsa`] this host has, detected on the first call: what
/// the lane bodies run at (a fact of the host, where [`target_features`] is
/// one of the binary).
pub fn lane_isa() -> LaneIsa {
    static ISA: std::sync::OnceLock<LaneIsa> = std::sync::OnceLock::new();
    *ISA.get_or_init(|| {
        LaneIsa::ALL
            .into_iter()
            .find(|isa| isa.is_available())
            .unwrap_or(LaneIsa::Baseline)
    })
}

/// Defines `fn $name(isa: LaneIsa, args…) -> R` that runs `body` compiled
/// for `isa`: an `#[inline(always)]` copy of the body inside an
/// `#[target_feature(enable = "avx512f")]` wrapper, one inside an
/// `avx2` wrapper, and the baseline copy. An ISA the host lacks runs the
/// baseline copy, as does every ISA on a non-x86-64 build. The body should
/// call `#[inline(always)]` lane bodies, so each wrapper compiles them at
/// its own width. Pass [`lane_isa()`](crate::kernel::lane_isa) as `isa`;
/// tests pass each of [`LaneIsa::ALL`](crate::kernel::LaneIsa::ALL).
///
/// ```
/// md_core::lane_dispatch! {
///     /// Sums `xs` at the host's width.
///     fn sum(xs: &[f64]) -> f64 {
///         xs.iter().sum()
///     }
/// }
/// let xs = [1.0, 2.0, 3.5];
/// for isa in md_core::kernel::LaneIsa::ALL {
///     assert_eq!(sum(isa, &xs), 6.5);
/// }
/// ```
#[macro_export]
macro_rules! lane_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name(isa: $crate::kernel::LaneIsa, $($arg: $ty),*) -> $ret {
            #[inline(always)]
            fn body($($arg: $ty),*) -> $ret $body
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            fn avx512f($($arg: $ty),*) -> $ret {
                body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) -> $ret {
                body($($arg),*)
            }
            match isa {
                #[cfg(target_arch = "x86_64")]
                $crate::kernel::LaneIsa::Avx512f if ::std::arch::is_x86_feature_detected!("avx512f") => {
                    // SAFETY: the guard just detected avx512f on this host.
                    unsafe { avx512f($($arg),*) }
                }
                #[cfg(target_arch = "x86_64")]
                $crate::kernel::LaneIsa::Avx2 if ::std::arch::is_x86_feature_detected!("avx2") => {
                    // SAFETY: the guard just detected avx2 on this host.
                    unsafe { avx2($($arg),*) }
                }
                _ => body($($arg),*),
            }
        }
    };
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
/// `x/y/z` arrays, each `n + 1` long with the ghost atom in the final slot.
/// Gathers through padded neighbor rows then index freely without bounds
/// branches.
#[derive(Debug, Default, Clone)]
pub struct LaneGather {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub zs: Vec<f64>,
}

impl LaneGather {
    /// Scatter `n` atoms into the split arrays and place the ghost atom at
    /// index `n`. Reuses capacity across calls; zero steady-state allocation.
    pub fn load(&mut self, x: &[V3], ghost: V3) {
        let n = x.len();
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.xs.reserve(n + 1);
        self.ys.reserve(n + 1);
        self.zs.reserve(n + 1);
        for p in x {
            self.xs.push(p.x);
            self.ys.push(p.y);
            self.zs.push(p.z);
        }
        self.xs.push(ghost.x);
        self.ys.push(ghost.y);
        self.zs.push(ghost.z);
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
    fn lane_isa_is_the_widest_the_host_has() {
        let isa = lane_isa();
        assert!(isa.is_available(), "{isa}");
        assert!(LaneIsa::Baseline.is_available());
        let wider = LaneIsa::ALL.iter().take_while(|&&i| i != isa);
        assert!(wider.copied().all(|i| !i.is_available()), "{isa}");
        let names: Vec<String> = LaneIsa::ALL.iter().map(|i| i.to_string()).collect();
        assert_eq!(names, ["avx512f", "avx2", "baseline"]);
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
        let mut g = LaneGather::default();
        g.load(&x, Vec3::new(-1e6, -1e6, -1e6));
        assert_eq!(g.xs.len(), 3);
        assert_eq!(g.xs[2], -1e6);
        assert_eq!(g.zs[1], 6.0);

        let mut acc = LaneAccum::default();
        acc.reset(2);
        acc.fx[0] = 1.0;
        acc.fz[2] = 7.0; // ghost slot: must not fold back
        let mut f = vec![Vec3::zero(); 2];
        acc.fold_into(&mut f);
        assert_eq!(f[0].x, 1.0);
        assert_eq!(f[1].z, 0.0);
    }

    #[test]
    fn lane_gather_view_matches_store() {
        let bx = SimBox::cubic(10.0);
        let mut s = crate::AtomStore::new();
        s.push(Vec3::new(0.0, 0.0, 0.0), Vec3::zero(), 0);
        s.push_full(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 0, -1.5, 0.0, 0);
        let mut g = LaneGather::default();
        g.load(s.x(), ghost_position(&bx));
        assert_eq!(g.xs.len(), 3);
        assert_eq!(g.xs[1], s.x()[1].x);
        assert!(g.xs[2] < bx.lo().x - 1e5);
    }
}
