//! Accuracy-driven parameter selection for Ewald/PPPM, following the LAMMPS
//! estimators (Kolafa-Perram real-space error, Deserno-Holm ik-differentiation
//! k-space error).
//!
//! The paper's Section 7 sweeps the *relative force error threshold*
//! (`kspace_modify`/`kspace_style pppm 1e-4 … 1e-7`); everything downstream —
//! splitting parameter, FFT mesh size, and therefore k-space runtime and MPI
//! traffic — follows from the machinery in this module.

use md_core::{CoreError, Result};

/// Deserno-Holm coefficients for the ik-differentiation error estimate,
/// indexed `ACONS[order][m]` (orders 1..=5, as in LAMMPS `pppm.cpp`).
const ACONS: [&[f64]; 6] = [
    &[],
    &[2.0 / 3.0],
    &[1.0 / 50.0, 5.0 / 294.0],
    &[1.0 / 588.0, 7.0 / 1440.0, 21.0 / 3872.0],
    &[
        1.0 / 4320.0,
        3.0 / 1936.0,
        7601.0 / 2271360.0,
        143.0 / 28800.0,
    ],
    &[
        1.0 / 23232.0,
        7601.0 / 13628160.0,
        143.0 / 69120.0,
        517231.0 / 106536960.0,
        106640677.0 / 11737571328.0,
    ],
];

/// Maximum charge-assignment order supported (LAMMPS default is 5).
pub const MAX_ORDER: usize = 5;

/// Resolved k-space parameters for a requested relative force-error
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KspaceAccuracy {
    /// Requested relative force error (e.g. `1e-4`).
    pub relative_error: f64,
    /// Ewald splitting parameter `g` (1/distance units).
    pub g_ewald: f64,
    /// PPPM mesh dimensions (powers of two).
    pub grid: [usize; 3],
    /// Ewald reciprocal-space cutoff in integer k per dimension.
    pub kmax: [usize; 3],
    /// Estimated real-space RMS force error (absolute, two-charge units).
    pub error_real: f64,
    /// Estimated k-space RMS force error (absolute, two-charge units).
    pub error_kspace: f64,
}

impl KspaceAccuracy {
    /// Derives parameters LAMMPS-style.
    ///
    /// * `cutoff` — real-space Coulomb cutoff;
    /// * `relative_error` — requested relative RMS force error;
    /// * `natoms`, `qsqsum` — atom count and `Σ q²` (charge units²);
    /// * `lengths` — box extents;
    /// * `order` — B-spline assignment order (1..=5).
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive inputs or an unsupported order.
    pub fn resolve(
        cutoff: f64,
        relative_error: f64,
        natoms: usize,
        qsqsum: f64,
        lengths: [f64; 3],
        order: usize,
    ) -> Result<Self> {
        if !(cutoff > 0.0 && relative_error > 0.0 && relative_error < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "kspace accuracy",
                reason: format!(
                    "cutoff ({cutoff}) must be positive and 0 < error ({relative_error}) < 1"
                ),
            });
        }
        if natoms == 0 || qsqsum <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "kspace accuracy",
                reason: "need at least one charged atom".to_string(),
            });
        }
        if !(1..=MAX_ORDER).contains(&order) {
            return Err(CoreError::InvalidParameter {
                name: "order",
                reason: format!("assignment order {order} outside 1..={MAX_ORDER}"),
            });
        }
        // Two unit charges one distance-unit apart define the force scale the
        // relative error refers to (LAMMPS `two_charge_force`); charges and
        // the Coulomb constant cancel in the ratio, so work unit-free here.
        let accuracy = relative_error;
        let q2 = qsqsum / natoms as f64;
        let volume = lengths[0] * lengths[1] * lengths[2];

        // Splitting parameter (LAMMPS pppm.cpp).
        let g_ewald = (1.35 - 0.15 * accuracy.ln()) / cutoff;

        let error_real = 2.0 * q2 * (-g_ewald * g_ewald * cutoff * cutoff).exp()
            / (natoms as f64 * cutoff * volume).sqrt();

        // Mesh: per dimension, start from the LAMMPS initial guess h = 1/g
        // and refine (in FFT-friendly 2·3·5-smooth sizes) until the
        // Deserno-Holm estimate meets the target.
        let mut grid = [0usize; 3];
        let mut error_kspace: f64 = 0.0;
        for d in 0..3 {
            let mut n = smooth235((lengths[d] * g_ewald).ceil().max(2.0) as usize);
            loop {
                let h = lengths[d] / n as f64;
                let err = estimate_ik_error(h, lengths[d], g_ewald, q2, natoms, order);
                if err <= accuracy || n >= 8192 {
                    grid[d] = n;
                    error_kspace = error_kspace.max(err);
                    break;
                }
                n = smooth235(n + 1);
            }
        }

        // Ewald integer kmax per dimension (for the reference solver).
        let mut kmax = [1usize; 3];
        for d in 0..3 {
            let mut km = 1usize;
            while ewald_rms(km, lengths[d], g_ewald, q2, natoms) > accuracy && km < 64 {
                km += 1;
            }
            kmax[d] = km;
        }

        Ok(KspaceAccuracy {
            relative_error,
            g_ewald,
            grid,
            kmax,
            error_real,
            error_kspace,
        })
    }

    /// Total mesh points of the PPPM grid.
    pub fn grid_points(&self) -> usize {
        self.grid[0] * self.grid[1] * self.grid[2]
    }
}

/// Deserno-Holm RMS force error of ik-differentiated PPPM at mesh spacing
/// `h`, normalized so that the known LAMMPS operating point — the rhodopsin
/// deck's order-5 mesh at `h·g ≈ 0.6–0.8` hitting 1e-4 relative accuracy —
/// is reproduced.
pub fn estimate_ik_error(
    h: f64,
    prd: f64,
    g_ewald: f64,
    q2: f64,
    natoms: usize,
    order: usize,
) -> f64 {
    let acons = ACONS[order];
    let hg = h * g_ewald;
    let mut sum = 0.0;
    for (m, &a) in acons.iter().enumerate() {
        sum += a * hg.powi(2 * m as i32);
    }
    q2 * hg.powi(order as i32)
        * (g_ewald * prd * (2.0 * std::f64::consts::PI).sqrt() * sum / natoms as f64).sqrt()
}

/// Smallest 2·3·5-smooth integer ≥ `n` (FFT-friendly mesh size).
pub fn smooth235(n: usize) -> usize {
    let mut m = n.max(2);
    loop {
        let mut k = m;
        for p in [2usize, 3, 5] {
            while k.is_multiple_of(p) {
                k /= p;
            }
        }
        if k == 1 {
            return m;
        }
        m += 1;
    }
}

/// Kolafa-Perram style RMS force error of an Ewald sum truncated at integer
/// wavevector `km` along a dimension of extent `prd` (LAMMPS `ewald.cpp`).
pub fn ewald_rms(km: usize, prd: f64, g_ewald: f64, q2: f64, natoms: usize) -> f64 {
    let km = km as f64;
    2.0 * q2 * g_ewald / prd
        * (1.0 / (std::f64::consts::PI * km * natoms as f64)).sqrt()
        * (-std::f64::consts::PI.powi(2) * km * km / (g_ewald * g_ewald * prd * prd)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(err: f64) -> KspaceAccuracy {
        KspaceAccuracy::resolve(10.0, err, 32_000, 16_000.0, [55.0, 55.0, 55.0], 5).unwrap()
    }

    #[test]
    fn g_ewald_matches_lammps_formula() {
        let acc = resolve(1e-4);
        let want = (1.35 - 0.15 * (1e-4f64).ln()) / 10.0;
        assert!((acc.g_ewald - want).abs() < 1e-12);
    }

    #[test]
    fn tighter_threshold_means_bigger_grid() {
        let coarse = resolve(1e-4);
        let tight = resolve(1e-7);
        assert!(
            tight.grid_points() > coarse.grid_points(),
            "{:?} vs {:?}",
            tight.grid,
            coarse.grid
        );
        assert!(tight.g_ewald > coarse.g_ewald);
        assert!(tight.kmax[0] > coarse.kmax[0]);
    }

    #[test]
    fn estimated_errors_meet_the_target() {
        for err in [1e-4, 1e-5, 1e-6, 1e-7] {
            let acc = resolve(err);
            assert!(acc.error_kspace <= err * 1.0001, "kspace {:?}", acc);
            assert!(acc.error_real <= err * 10.0, "real {:?}", acc);
        }
    }

    #[test]
    fn grids_are_fft_friendly() {
        let acc = resolve(1e-6);
        for n in acc.grid {
            assert_eq!(smooth235(n), n, "grid dim {n} must be 2-3-5 smooth");
        }
    }

    #[test]
    fn smooth235_rounds_up() {
        assert_eq!(smooth235(7), 8);
        assert_eq!(smooth235(11), 12);
        assert_eq!(smooth235(121), 125);
        assert_eq!(smooth235(30), 30);
    }

    #[test]
    fn grid_respects_initial_h_constraint() {
        // LAMMPS starts from h = 1/g and only refines: n >= L·g.
        let acc = resolve(1e-4);
        let g = acc.g_ewald;
        assert!(acc.grid[0] as f64 >= (55.0 * g).floor());
    }

    #[test]
    fn anisotropic_box_gets_anisotropic_grid() {
        let acc =
            KspaceAccuracy::resolve(10.0, 1e-5, 32_000, 16_000.0, [110.0, 55.0, 27.5], 5).unwrap();
        assert!(acc.grid[0] >= acc.grid[1]);
        assert!(acc.grid[1] >= acc.grid[2]);
    }

    #[test]
    fn higher_order_reduces_error_at_fine_mesh() {
        // In the asymptotic regime (h·g << 1) a higher assignment order
        // strictly reduces the Deserno-Holm error estimate.
        let g = 0.3;
        let h = 0.5; // h·g = 0.15
        let mut prev = f64::INFINITY;
        for order in 1..=5 {
            let err = estimate_ik_error(h, 55.0, g, 0.5, 32_000, order);
            assert!(err < prev, "order {order}: {err} !< {prev}");
            prev = err;
        }
    }

    #[test]
    fn rejects_nonsense() {
        assert!(KspaceAccuracy::resolve(0.0, 1e-4, 10, 1.0, [1.0; 3], 5).is_err());
        assert!(KspaceAccuracy::resolve(10.0, 2.0, 10, 1.0, [1.0; 3], 5).is_err());
        assert!(KspaceAccuracy::resolve(10.0, 1e-4, 0, 1.0, [1.0; 3], 5).is_err());
        assert!(KspaceAccuracy::resolve(10.0, 1e-4, 10, 1.0, [1.0; 3], 9).is_err());
    }
}
