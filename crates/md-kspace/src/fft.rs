//! Mixed-radix Cooley-Tukey FFT, 1D and 3D.
//!
//! LAMMPS delegates its PPPM transforms to FFTW/MKL/KISS FFT; here the
//! transform is implemented from scratch for every length whose only prime
//! factors are 2, 3 and 5 — the meshes [`crate::KspaceAccuracy::resolve`]
//! sizes. A [`Plan`] splits its length into radix-4/2/3/5 stages once,
//! tabulating the digit-reversal permutation and every stage's twiddles, so
//! a transform is a permuted gather followed by decimation-in-time
//! butterflies and nothing else.

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

/// In-place 1D FFT of any 2·3·5-smooth length.
///
/// Builds a [`Plan`] per call; [`Fft3d`] keeps its plans instead.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the length is zero or has a
/// prime factor other than 2, 3 and 5.
pub fn fft1d(data: &mut [Complex], dir: Direction) -> Result<()> {
    let n = data.len();
    let plan = Plan::new(n).ok_or_else(|| CoreError::InvalidParameter {
        name: "fft length",
        reason: format!("length {n} is not a product of 2, 3 and 5"),
    })?;
    let input = data.to_vec();
    plan.transform(data, dir, |i| input[i]);
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

/// The transform of one length: its stages and their tables.
#[derive(Debug, Clone)]
struct Plan {
    /// `perm[p]` is the input index that sits at position `p` before the
    /// first stage (the mixed-radix digit reversal of `p`).
    perm: Vec<usize>,
    stages: Vec<Stage>,
}

/// One butterfly stage: combines `radix` transforms of length `span` into
/// transforms of length `span · radix`.
#[derive(Debug, Clone)]
struct Stage {
    radix: usize,
    span: usize,
    /// Forward twiddles `e^{-2πi j k / (span · radix)}`, `radix - 1` of them
    /// (k = 1..radix) for each `j < span`; the inverse uses their conjugates.
    twiddles: Vec<Complex>,
}

impl Plan {
    /// Factors `n` into stages (as many radix-4 as fit, then 2, 3, 5).
    /// `None` unless `n` is a non-zero product of 2, 3 and 5.
    fn new(n: usize) -> Option<Plan> {
        if n == 0 {
            return None;
        }
        let mut radices = Vec::new();
        let mut rest = n;
        for r in [4usize, 2, 3, 5] {
            while rest.is_multiple_of(r) {
                radices.push(r);
                rest /= r;
            }
        }
        if rest != 1 {
            return None;
        }
        // Decimation in time: the stage applied last splits the input by
        // index mod its radix, the one before it by the next digit, and so
        // on, so each stage added on top interleaves the permutation so far.
        let mut perm = vec![0usize];
        let mut stages = Vec::with_capacity(radices.len());
        for radix in radices {
            let span = perm.len();
            perm = (0..radix)
                .flat_map(|k| perm.iter().map(move |&p| radix * p + k))
                .collect();
            let step = -2.0 * std::f64::consts::PI / (span * radix) as f64;
            let twiddles = (0..span)
                .flat_map(|j| (1..radix).map(move |k| Complex::cis(step * (j * k) as f64)))
                .collect();
            stages.push(Stage {
                radix,
                span,
                twiddles,
            });
        }
        Some(Plan { perm, stages })
    }

    /// Transforms the line whose element `i` is `get(i)` into `out` (length
    /// `n`, natural order).
    #[inline]
    fn transform(&self, out: &mut [Complex], dir: Direction, get: impl Fn(usize) -> Complex) {
        for (o, &p) in out.iter_mut().zip(&self.perm) {
            *o = get(p);
        }
        let fwd = dir == Direction::Forward;
        for st in &self.stages {
            let m = st.span;
            let tw = |i: usize| {
                if fwd {
                    st.twiddles[i]
                } else {
                    st.twiddles[i].conj()
                }
            };
            let blocks = out.chunks_exact_mut(m * st.radix);
            match st.radix {
                2 => {
                    for block in blocks {
                        let (a, b) = block.split_at_mut(m);
                        for j in 0..m {
                            let u = a[j];
                            let v = b[j] * tw(j);
                            a[j] = u + v;
                            b[j] = u - v;
                        }
                    }
                }
                3 => {
                    for block in blocks {
                        for j in 0..m {
                            let a0 = block[j];
                            let a1 = block[j + m] * tw(2 * j);
                            let a2 = block[j + 2 * m] * tw(2 * j + 1);
                            let sum = a1 + a2;
                            let mid = a0 - sum.scale(0.5);
                            let rot = rotate(a1 - a2, fwd).scale(SIN_60);
                            block[j] = a0 + sum;
                            block[j + m] = mid + rot;
                            block[j + 2 * m] = mid - rot;
                        }
                    }
                }
                4 => {
                    for block in blocks {
                        for j in 0..m {
                            let a0 = block[j];
                            let a1 = block[j + m] * tw(3 * j);
                            let a2 = block[j + 2 * m] * tw(3 * j + 1);
                            let a3 = block[j + 3 * m] * tw(3 * j + 2);
                            let (t0, t1) = (a0 + a2, a0 - a2);
                            let (t2, t3) = (a1 + a3, rotate(a1 - a3, fwd));
                            block[j] = t0 + t2;
                            block[j + m] = t1 + t3;
                            block[j + 2 * m] = t0 - t2;
                            block[j + 3 * m] = t1 - t3;
                        }
                    }
                }
                _ => {
                    let [(c1, s1), (c2, s2)] = FIFTHS;
                    for block in blocks {
                        for j in 0..m {
                            let a0 = block[j];
                            let a1 = block[j + m] * tw(4 * j);
                            let a2 = block[j + 2 * m] * tw(4 * j + 1);
                            let a3 = block[j + 3 * m] * tw(4 * j + 2);
                            let a4 = block[j + 4 * m] * tw(4 * j + 3);
                            let (s14, d14) = (a1 + a4, a1 - a4);
                            let (s23, d23) = (a2 + a3, a2 - a3);
                            let e1 = a0 + s14.scale(c1) + s23.scale(c2);
                            let e2 = a0 + s14.scale(c2) + s23.scale(c1);
                            let o1 = rotate(d14.scale(s1) + d23.scale(s2), fwd);
                            let o2 = rotate(d14.scale(s2) - d23.scale(s1), fwd);
                            block[j] = a0 + s14 + s23;
                            block[j + m] = e1 + o1;
                            block[j + 2 * m] = e2 + o2;
                            block[j + 3 * m] = e2 - o2;
                            block[j + 4 * m] = e1 - o1;
                        }
                    }
                }
            }
        }
        if !fwd {
            let inv = 1.0 / out.len() as f64;
            for z in out.iter_mut() {
                *z = z.scale(inv);
            }
        }
    }
}

/// `sin(2π/6)`, the imaginary part of the radix-3 butterfly's root.
const SIN_60: f64 = 0.866_025_403_784_438_6;

/// `(cos, sin)` of `2π/5` and `4π/5`, the radix-5 butterfly's roots.
const FIFTHS: [(f64, f64); 2] = [
    (0.309_016_994_374_947_45, 0.951_056_516_295_153_5),
    (-0.809_016_994_374_947_5, 0.587_785_252_292_473_1),
];

/// `z · e^{∓iπ/2}`: `-i·z` forward, `+i·z` inverse.
#[inline(always)]
fn rotate(z: Complex, fwd: bool) -> Complex {
    if fwd {
        Complex::new(z.im, -z.re)
    } else {
        Complex::new(-z.im, z.re)
    }
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
    /// One plan per axis (x, y, z).
    plans: [Plan; 3],
    threads: Threads,
    /// One line buffer per worker, `max(nx, ny, nz)` long: every line of the
    /// x/y pass and of the serial z pass is gathered into it.
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
    /// Returns an error unless every dimension is a non-zero product of 2, 3
    /// and 5.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Result<Self> {
        let plan = |name: &str, n: usize| {
            Plan::new(n).ok_or_else(|| CoreError::InvalidParameter {
                name: "fft mesh",
                reason: format!("{name} = {n} is not a product of 2, 3 and 5"),
            })
        };
        let plans = [plan("nx", nx)?, plan("ny", ny)?, plan("nz", nz)?];
        let mut fft = Fft3d {
            nx,
            ny,
            nz,
            plans,
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
        self.lines = vec![vec![Complex::ZERO; self.nx.max(self.ny).max(self.nz)]; t];
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

    /// Transforms `data` (length `nx·ny·nz`) in place.
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
        let [px, py, pz] = &self.plans;
        let plane = nx * ny;
        // X and Y passes are plane-local: each part owns a contiguous slab
        // of z planes and a private line buffer.
        let slabs = data.chunks_mut(plane * self.threads.stripe(nz));
        let parts = slabs.zip(&mut self.lines);
        fork_join(parts, &self.recorder, "fft_xy", |_, (slab, line)| {
            for zplane in slab.chunks_mut(plane) {
                for row in zplane.chunks_exact_mut(nx) {
                    let line = &mut line[..nx];
                    px.transform(line, dir, |i| row[i]);
                    row.copy_from_slice(line);
                }
                let line = &mut line[..ny];
                for ix in 0..nx {
                    py.transform(line, dir, |i| zplane[i * nx + ix]);
                    for (iy, v) in line.iter().enumerate() {
                        zplane[iy * nx + ix] = *v;
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
                pz.transform(line, dir, |iz| data[iz * plane + l]);
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
                pz.transform(line, dir, |iz| mesh[iz * plane + lo + li]);
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

    /// Every 2^a·3^b·5^c length up to 180.
    fn smooth_lengths() -> Vec<usize> {
        (1..=180)
            .filter(|&n| {
                let mut k = n;
                for p in [2, 3, 5] {
                    while k % p == 0 {
                        k /= p;
                    }
                }
                k == 1
            })
            .collect()
    }

    #[test]
    fn fft_matches_reference_dft() {
        let lengths = smooth_lengths();
        assert_eq!(lengths.len(), 44);
        for n in lengths {
            let x = random_signal(n, n as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut got = x.clone();
                fft1d(&mut got, dir).unwrap();
                let want = dft_reference(&x, dir);
                for (g, w) in got.iter().zip(&want) {
                    assert!((*g - *w).norm() < 1e-12 * n as f64, "n = {n}, {dir:?}");
                }
            }
        }
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        for n in smooth_lengths() {
            let x = random_signal(n, 9 + n as u64);
            let mut y = x.clone();
            fft1d(&mut y, Direction::Forward).unwrap();
            fft1d(&mut y, Direction::Inverse).unwrap();
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).norm() < 1e-13, "n = {n}");
            }
        }
    }

    #[test]
    fn parseval_theorem() {
        for n in [128usize, 135, 150] {
            let x = random_signal(n, 3);
            let mut y = x.clone();
            fft1d(&mut y, Direction::Forward).unwrap();
            let e_time: f64 = x.iter().map(|z| z.norm2()).sum();
            let e_freq: f64 = y.iter().map(|z| z.norm2()).sum::<f64>() / n as f64;
            assert!((e_time - e_freq).abs() < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn rejects_lengths_with_other_prime_factors() {
        for n in [0usize, 7, 11, 14] {
            let mut x = random_signal(n, 1);
            assert!(fft1d(&mut x, Direction::Forward).is_err(), "n = {n}");
            assert!(Fft3d::new(8, n, 8).is_err(), "ny = {n}");
        }
        assert!(Fft3d::new(20, 24, 45).is_ok());
    }

    #[test]
    fn fft3d_roundtrip_and_delta() {
        let mut fft = Fft3d::new(8, 6, 15).unwrap();
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
        let (nx, ny, nz) = (10usize, 12usize, 9usize);
        let mut fft = Fft3d::new(nx, ny, nz).unwrap();
        let mut data = vec![Complex::ZERO; fft.len()];
        let (kx, ky, kz) = (3usize, 1usize, 5usize);
        let index = |ix: usize, iy: usize, iz: usize| (iz * ny + iy) * nx + ix;
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let turns = (kx * ix) as f64 / nx as f64
                        + (ky * iy) as f64 / ny as f64
                        + (kz * iz) as f64 / nz as f64;
                    data[index(ix, iy, iz)] = Complex::cis(2.0 * std::f64::consts::PI * turns);
                }
            }
        }
        fft.transform(&mut data, Direction::Forward).unwrap();
        let peak = index(kx, ky, kz);
        assert!((data[peak].re - fft.len() as f64).abs() < 1e-9);
        for (i, z) in data.iter().enumerate() {
            if i != peak {
                assert!(z.norm() < 1e-9, "leakage at {i}");
            }
        }
    }

    #[test]
    fn threaded_transform_is_bitwise_identical_to_serial() {
        for (nx, ny, nz) in [
            (20usize, 24usize, 45usize),
            (45, 45, 45),
            (8, 4, 16),
            (2, 2, 2),
        ] {
            let mut fft = Fft3d::new(nx, ny, nz).unwrap();
            let input = random_signal(fft.len(), (nx * ny * nz) as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                fft.set_threads(1);
                let mut serial = input.clone();
                fft.transform(&mut serial, dir).unwrap();
                for t in [2usize, 3, 5, 8] {
                    fft.set_threads(t);
                    let mut threaded = input.clone();
                    fft.transform(&mut threaded, dir).unwrap();
                    for (a, b) in serial.iter().zip(&threaded) {
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "t = {t}");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "t = {t}");
                    }
                }
            }
        }
    }
}
