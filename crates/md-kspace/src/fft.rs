//! Iterative radix-2 Cooley-Tukey FFT, 1D and 3D.
//!
//! LAMMPS delegates its PPPM transforms to FFTW/MKL; here the transform is
//! implemented from scratch (power-of-two sizes), which is all PPPM needs
//! since the mesh sizing rounds up to powers of two.

use crate::complex::Complex;
use md_core::threads::fork_join;
use md_core::{CoreError, Result, Threads};
use md_observe::Recorder;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `X(k) = Σ x(n) e^{-2πi k n / N}`.
    Forward,
    /// `x(n) = (1/N) Σ X(k) e^{+2πi k n / N}` (normalized).
    Inverse,
}

/// In-place 1D radix-2 FFT.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the length is not a power of
/// two.
pub fn fft1d(data: &mut [Complex], dir: Direction) -> Result<()> {
    let n = data.len();
    if n == 0 || n & (n - 1) != 0 {
        return Err(CoreError::InvalidParameter {
            name: "fft length",
            reason: format!("length {n} is not a power of two"),
        });
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }
    Ok(())
}

/// Naive O(N²) DFT, used as the test oracle.
pub fn dft_reference(data: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = data.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        for (t, &x) in data.iter().enumerate() {
            *o += x * Complex::cis(sign * 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64);
        }
    }
    if dir == Direction::Inverse {
        for o in &mut out {
            *o = o.scale(1.0 / n as f64);
        }
    }
    out
}

/// A 3D FFT over an `nx × ny × nz` mesh stored row-major (`x` fastest).
///
/// The transform can batch its 1D lines across threads (see
/// [`Fft3d::set_threads`]). Every line is an independent 1D FFT over the
/// same input values no matter which thread runs it, so the threaded
/// transform is bitwise identical to the serial one at any thread count.
/// All scratch is sized when the thread count is set, so a transform
/// allocates nothing of its own.
#[derive(Debug, Clone)]
pub struct Fft3d {
    nx: usize,
    ny: usize,
    nz: usize,
    threads: Threads,
    /// One strided-line buffer per worker, `max(ny, nz)` long: the y lines of
    /// the x/y pass and the z lines of the serial z pass go through it.
    lines: Vec<Vec<Complex>>,
    /// The threaded z pass's private stripe buffers, one per worker; empty
    /// on one thread.
    stripes: Vec<Vec<Complex>>,
    /// Where the workers of a threaded transform record their spans.
    recorder: Recorder,
}

impl Fft3d {
    /// Creates a transform for the given mesh dimensions.
    ///
    /// # Errors
    ///
    /// Returns an error unless every dimension is a power of two.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Result<Self> {
        for (name, n) in [("nx", nx), ("ny", ny), ("nz", nz)] {
            if n == 0 || n & (n - 1) != 0 {
                return Err(CoreError::InvalidParameter {
                    name: "fft mesh",
                    reason: format!("{name} = {n} is not a power of two"),
                });
            }
        }
        let mut fft = Fft3d {
            nx,
            ny,
            nz,
            threads: Threads::serial(),
            lines: Vec::new(),
            stripes: Vec::new(),
            recorder: Recorder::disabled(),
        };
        fft.set_threads(1);
        Ok(fft)
    }

    /// Sets how many threads [`Fft3d::transform`] batches its 1D lines over
    /// (clamped to at least 1). The result is bitwise independent of the
    /// thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = Threads::fast(threads);
        let t = self.threads.count;
        self.lines = vec![vec![Complex::ZERO; self.ny.max(self.nz)]; t];
        let stripe = self.threads.stripe(self.nx * self.ny) * self.nz;
        self.stripes = vec![vec![Complex::ZERO; stripe]; if t == 1 { 0 } else { t }];
    }

    /// Thread count used by [`Fft3d::transform`].
    pub fn threads(&self) -> usize {
        self.threads.count
    }

    /// Attaches the recorder the `fft_xy` / `fft_z` worker spans go to.
    pub(crate) fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Mesh dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total mesh points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether the mesh is empty (it never is for a constructed transform).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattened index of `(ix, iy, iz)`.
    #[inline(always)]
    pub fn index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.ny + iy) * self.nx + ix
    }

    /// Transforms `data` (length `nx·ny·nz`) in place.
    ///
    /// The mesh dimensions are powers of two by construction, so once `data`
    /// has been length-checked the inner `fft1d` calls cannot fail.
    ///
    /// # Errors
    ///
    /// Returns an error if `data` has the wrong length.
    pub fn transform(&mut self, data: &mut [Complex], dir: Direction) -> Result<()> {
        if data.len() != self.len() {
            return Err(CoreError::LengthMismatch {
                what: "fft mesh data",
                expected: self.len(),
                found: data.len(),
            });
        }
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let plane = nx * ny;
        // X and Y passes are plane-local: each part owns a contiguous slab
        // of z planes and a private buffer for the strided y lines.
        let slabs = data.chunks_mut(plane * self.threads.stripe(nz));
        let parts = slabs.zip(&mut self.lines);
        fork_join(parts, &self.recorder, "fft_xy", |_, (slab, line)| {
            for zplane in slab.chunks_mut(plane) {
                for iy in 0..ny {
                    let base = iy * nx;
                    fft1d(&mut zplane[base..base + nx], dir).expect("x line is a power of two");
                }
                for ix in 0..nx {
                    for iy in 0..ny {
                        line[iy] = zplane[iy * nx + ix];
                    }
                    fft1d(&mut line[..ny], dir).expect("y line is a power of two");
                    for iy in 0..ny {
                        zplane[iy * nx + ix] = line[iy];
                    }
                }
            }
        });
        // Z pass: line l = iy·nx + ix sits at data[iz·plane + l], strided
        // through every plane, so workers cannot own disjoint `&mut` pieces
        // of `data`. That is why this site keeps a serial branch instead of
        // running one part inline: the threaded form transforms each stripe
        // of lines in a private buffer and scatters them back serially — a
        // copy of the whole mesh per transform that one thread, working
        // through its one line buffer, does not pay.
        if self.threads.count == 1 {
            let line = &mut self.lines[0][..nz];
            for l in 0..plane {
                for (iz, v) in line.iter_mut().enumerate() {
                    *v = data[iz * plane + l];
                }
                fft1d(line, dir).expect("z line is a power of two");
                for (iz, v) in line.iter().enumerate() {
                    data[iz * plane + l] = *v;
                }
            }
            return Ok(());
        }
        let lines_per = self.threads.stripe(plane);
        let mesh = &*data;
        let parts = (0..plane).step_by(lines_per).zip(&mut self.stripes);
        fork_join(parts, &self.recorder, "fft_z", |_, (lo, buf)| {
            for li in 0..lines_per.min(plane - lo) {
                let line = &mut buf[li * nz..(li + 1) * nz];
                for (iz, v) in line.iter_mut().enumerate() {
                    *v = mesh[iz * plane + lo + li];
                }
                fft1d(line, dir).expect("z line is a power of two");
            }
        });
        for (lo, buf) in (0..plane).step_by(lines_per).zip(&self.stripes) {
            for li in 0..lines_per.min(plane - lo) {
                for iz in 0..nz {
                    data[iz * plane + lo + li] = buf[li * nz + iz];
                }
            }
        }
        Ok(())
    }
}

/// Rounds `n` up to the next power of two (min 2).
pub fn next_pow2(n: usize) -> usize {
    let mut p = 2;
    while p < n {
        p <<= 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect()
    }

    #[test]
    fn fft_matches_reference_dft() {
        for n in [2usize, 4, 8, 32, 128] {
            let x = random_signal(n, n as u64);
            let mut got = x.clone();
            fft1d(&mut got, Direction::Forward).unwrap();
            let want = dft_reference(&x, Direction::Forward);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g - *w).norm() < 1e-9 * n as f64, "n = {n}");
            }
        }
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let x = random_signal(256, 9);
        let mut y = x.clone();
        fft1d(&mut y, Direction::Forward).unwrap();
        fft1d(&mut y, Direction::Inverse).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn parseval_theorem() {
        let x = random_signal(128, 3);
        let mut y = x.clone();
        fft1d(&mut y, Direction::Forward).unwrap();
        let e_time: f64 = x.iter().map(|z| z.norm2()).sum();
        let e_freq: f64 = y.iter().map(|z| z.norm2()).sum::<f64>() / 128.0;
        assert!((e_time - e_freq).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = random_signal(12, 1);
        assert!(fft1d(&mut x, Direction::Forward).is_err());
        assert!(Fft3d::new(8, 12, 8).is_err());
    }

    #[test]
    fn fft3d_roundtrip_and_delta() {
        let mut fft = Fft3d::new(8, 4, 16).unwrap();
        let mut data = vec![Complex::ZERO; fft.len()];
        // A delta function transforms to all-ones.
        data[0] = Complex::ONE;
        fft.transform(&mut data, Direction::Forward).unwrap();
        assert!(data.iter().all(|z| (*z - Complex::ONE).norm() < 1e-12));
        fft.transform(&mut data, Direction::Inverse).unwrap();
        assert!((data[0] - Complex::ONE).norm() < 1e-12);
        assert!(data[1..].iter().all(|z| z.norm() < 1e-12));
    }

    #[test]
    fn fft3d_plane_wave_is_a_delta_in_k() {
        let mut fft = Fft3d::new(8, 8, 8).unwrap();
        let mut data = vec![Complex::ZERO; fft.len()];
        let (kx, ky, kz) = (3usize, 1usize, 5usize);
        for iz in 0..8 {
            for iy in 0..8 {
                for ix in 0..8 {
                    let phase =
                        2.0 * std::f64::consts::PI * (kx * ix + ky * iy + kz * iz) as f64 / 8.0;
                    data[fft.index(ix, iy, iz)] = Complex::cis(phase);
                }
            }
        }
        fft.transform(&mut data, Direction::Forward).unwrap();
        let peak = fft.index(kx, ky, kz);
        assert!((data[peak].re - 512.0).abs() < 1e-9);
        for (i, z) in data.iter().enumerate() {
            if i != peak {
                assert!(z.norm() < 1e-9, "leakage at {i}");
            }
        }
    }

    #[test]
    fn threaded_transform_is_bitwise_identical_to_serial() {
        for (nx, ny, nz) in [(8usize, 4usize, 16usize), (4, 4, 4), (2, 2, 2)] {
            let mut fft = Fft3d::new(nx, ny, nz).unwrap();
            let input = random_signal(fft.len(), (nx * ny * nz) as u64);
            let mut serial = input.clone();
            fft.transform(&mut serial, Direction::Forward).unwrap();
            for t in [2usize, 3, 5, 8] {
                fft.set_threads(t);
                let mut threaded = input.clone();
                fft.transform(&mut threaded, Direction::Forward).unwrap();
                for (a, b) in serial.iter().zip(&threaded) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "t = {t}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "t = {t}");
                }
            }
            fft.set_threads(1);
        }
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(1), 2);
        assert_eq!(next_pow2(8), 8);
        assert_eq!(next_pow2(9), 16);
        assert_eq!(next_pow2(100), 128);
    }
}
