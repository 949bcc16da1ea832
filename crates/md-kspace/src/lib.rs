//! # md-kspace — long-range Coulomb solvers
//!
//! The Rhodopsin benchmark computes long-range electrostatics with PPPM
//! (particle-particle particle-mesh) at a relative force-error threshold of
//! 1e-4 — and the paper's Section 7 studies what happens when that threshold
//! tightens to 1e-7. This crate implements the full stack from scratch:
//!
//! * [`Complex`] arithmetic and a mixed-radix (2/3/4/5) [`Fft3d`] that runs
//!   every 2·3·5-smooth mesh the accuracy model sizes,
//! * the classic [`Ewald`] summation (the O(N^{3/2}) reference solver),
//! * [`Pppm`] with B-spline charge assignment, FFT convolution with
//!   LAMMPS's optimal influence function for ik differentiation, and
//!   ik-differentiated forces,
//! * the LAMMPS-style [`accuracy`] model that turns a relative error
//!   threshold into a splitting parameter and an FFT mesh size — the
//!   quantity the paper's error-threshold sensitivity study sweeps.
//!
//! Both solvers implement [`md_core::KspaceStyle`] and pair with the
//! real-space `erfc` term of `md-potentials`' `lj/charmm/coul/long`. Both
//! rebuild their box-dependent tables when `compute` is handed a box a
//! barostat has dilated, holding the splitting parameter and the mesh fixed.

pub mod accuracy;
pub mod complex;
pub mod ewald;
pub mod fft;
pub mod pppm;

pub use accuracy::KspaceAccuracy;
pub use complex::Complex;
pub use ewald::Ewald;
pub use fft::Fft3d;
pub use pppm::Pppm;
