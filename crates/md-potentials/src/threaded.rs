//! Shared-memory threaded pair computation — the "OpenMP level" of the
//! LAMMPS INTEL package (paper Section 2.2: MPI spatial decomposition plus
//! intra-task OpenMP; the authors found pure MPI faster for their runs, and
//! this wrapper is how that comparison is reproduced here).
//!
//! [`Threaded`] statically splits the atom-row loop into contiguous row
//! ranges (chunks). Every chunk runs the style's own row-range kernel —
//! the same `for i in rows` loop the serial `compute` runs over `0..n` —
//! against the *one shared* neighbor list, into a private full-length force
//! buffer (so Newton's-third-law updates never race), and the buffers are
//! reduced at the end: the standard force-decomposition scheme of threaded
//! MD kernels. Nothing is cloned or copied per chunk: the style and the list
//! are shared read-only, and the per-chunk buffers belong to the wrapper
//! ([`ChunkTeam`]) and are reused across steps, so a steady-state compute
//! allocates a few hundred bytes of job bookkeeping however many atoms
//! there are.
//!
//! ## Determinism
//!
//! The reduction order is *per chunk, ascending* — never per thread. In
//! fast mode ([`Threads::fast`]) the chunk count equals the thread count, so
//! results are reproducible for a fixed count but drift across counts at the
//! fp-associativity level. In deterministic mode ([`Threads::deterministic`])
//! the atom range is always split into [`Threads::DET_CHUNKS`] chunks
//! regardless of the thread count, making the floating-point operation tree
//! — and therefore the trajectory — **bitwise identical** at 1, 2, or 4
//! threads. `tests/thread_invariance.rs` locks this in for every deck.
//!
//! Styles opt in through [`Threadable`]: the purely pairwise styles hand
//! their row-range kernel to one shared chunk-and-reduce driver, while the
//! many-body EAM runs its two passes over the same row ranges (per-chunk
//! density buffers, chunked embedding, per-chunk force buffers). The
//! history-keeping granular style has shared contact state and does not
//! implement it, so wrapping it fails to compile:
//!
//! ```compile_fail
//! use md_potentials::{GranHookeHistory, Threaded};
//!
//! let gran = GranHookeHistory::new(2.0e5, 50.0, 0.5, 1.0).unwrap();
//! let _ = Threaded::new(gran, 2); // ERROR: GranHookeHistory: !Threadable
//! ```

use md_core::neighbor::{NeighborList, NeighborListKind};
use md_core::threads::fork_join;
use md_core::{
    CoreError, EnergyVirial, LaneAccum, PairStyle, PairSystem, PrecisionMode, Threads, Vec3, V3,
};
use md_observe::Recorder;
use std::ops::Range;

/// A pair style executed by a team of threads over private chunk buffers.
///
/// Wraps any [`Threadable`] style. Construct with [`Threaded::new`] (fast
/// mode) or [`Threaded::with_mode`] (full [`Threads`] control, including the
/// deterministic fixed-chunk reductions).
pub struct Threaded<P> {
    style: P,
    team: ChunkTeam,
}

impl<P: std::fmt::Debug> std::fmt::Debug for Threaded<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Threaded")
            .field("threads", &self.team.threads)
            .field("style", &self.style)
            .finish()
    }
}

/// What a [`Threadable`] style runs its chunks on: the thread-team
/// configuration, the trace recorder, and one set of private accumulation
/// buffers per chunk. [`Threaded`] owns it, so the buffers are allocated on
/// the first compute and reused on every later one.
pub struct ChunkTeam {
    threads: Threads,
    recorder: Recorder,
    bufs: Vec<ChunkBuf>,
}

/// One chunk's private accumulation buffers. All are full-length: a chunk's
/// rows update neighbors *outside* the chunk (Newton's third law on a half
/// list).
#[derive(Default)]
struct ChunkBuf {
    /// Force buffer, reduced onto the engine's forces in chunk order.
    f: Vec<V3>,
    /// Split-array accumulator of the lane kernels that scatter through one.
    acc: LaneAccum,
    /// EAM pass-1 electron densities.
    rho: Vec<f64>,
}

/// Styles whose force computation [`Threaded`] knows how to decompose into
/// fixed-order reductions over atom-row chunks.
///
/// Purely pairwise styles pass their row-range kernel to the shared
/// chunk-and-reduce driver; the many-body EAM runs its own two-pass scheme
/// over the same row ranges. Styles with shared mutable inter-pair state
/// (the granular history style) must not implement this trait.
pub trait Threadable: PairStyle + Sync {
    /// Evaluates forces with the chunk decomposition `team` implies (see
    /// [`Threads::chunks`]), reducing all partial results in ascending
    /// chunk order.
    fn compute_chunked(
        &mut self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        f: &mut [V3],
        team: &mut ChunkTeam,
    ) -> EnergyVirial;
}

impl Threadable for crate::LjCut {
    fn compute_chunked(
        &mut self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        f: &mut [V3],
        team: &mut ChunkTeam,
    ) -> EnergyVirial {
        let style = &*self;
        team.pairwise(sys.x.len(), f, |rows, buf| {
            style.compute_rows(sys, nl, rows, &mut buf.f)
        })
    }
}

impl Threadable for crate::LjCharmmCoulLong {
    fn compute_chunked(
        &mut self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        f: &mut [V3],
        team: &mut ChunkTeam,
    ) -> EnergyVirial {
        self.load_gather(sys, nl);
        let style = &*self;
        team.pairwise(sys.x.len(), f, |rows, buf| {
            style.compute_rows(sys, nl, rows, &mut buf.acc, &mut buf.f)
        })
    }
}

impl<P: Threadable> Threaded<P> {
    /// Wraps `style` for fast-mode execution on `nthreads` threads.
    ///
    /// # Errors
    ///
    /// Returns an error if `nthreads` is zero.
    pub fn new(style: P, nthreads: usize) -> Result<Self, CoreError> {
        let threads = Threads {
            count: nthreads,
            deterministic: false,
        };
        Self::with_mode(style, threads)
    }

    /// Wraps `style` with full control over count and determinism.
    ///
    /// # Errors
    ///
    /// Returns an error if `threads.count` is zero.
    pub fn with_mode(style: P, threads: Threads) -> Result<Self, CoreError> {
        if threads.count == 0 {
            return Err(CoreError::InvalidParameter {
                name: "threads",
                reason: "need at least one thread".to_string(),
            });
        }
        Ok(Threaded {
            style,
            team: ChunkTeam {
                threads,
                recorder: Recorder::disabled(),
                bufs: Vec::new(),
            },
        })
    }

    /// Thread count.
    pub fn nthreads(&self) -> usize {
        self.team.threads.count
    }

    /// The full thread-team configuration.
    pub fn mode(&self) -> Threads {
        self.team.threads
    }
}

/// Evenly sized chunk row ranges over `0..n`. Depends only on `n` and
/// `nchunks` — never the thread count — which is what makes the
/// deterministic decomposition thread-count invariant. Trailing chunks may
/// be empty.
fn chunk_bounds(n: usize, nchunks: usize) -> Vec<Range<usize>> {
    let nchunks = nchunks.max(1);
    let size = n.div_ceil(nchunks).max(1);
    (0..nchunks)
        .map(|c| (c * size).min(n)..((c + 1) * size).min(n))
        .collect()
}

/// Zeroes a reused buffer at length `len`, keeping its capacity.
fn refill<T: Clone>(buf: &mut Vec<T>, len: usize, zero: T) {
    buf.clear();
    buf.resize(len, zero);
}

impl ChunkTeam {
    /// The chunk row ranges over `0..n` and how many consecutive chunks each
    /// worker takes (`jobs.chunks_mut(deal)` is the parts of a fork); makes
    /// sure every chunk has its private buffers. Which worker runs which
    /// chunk never affects results: a chunk job only touches its own state,
    /// and callers reduce job outputs in job order afterwards.
    fn split(&mut self, n: usize) -> (Vec<Range<usize>>, usize) {
        let bounds = chunk_bounds(n, self.threads.chunks().min(n));
        if self.bufs.len() < bounds.len() {
            self.bufs.resize_with(bounds.len(), ChunkBuf::default);
        }
        let deal = self.threads.stripe(bounds.len());
        (bounds, deal)
    }

    /// The whole decomposition of a purely pairwise style over `n` atoms:
    /// `kernel` evaluates one chunk's rows against the shared list into that
    /// chunk's private buffers (`buf.f` arrives zeroed), and the force
    /// buffers and energy partials are added up in ascending chunk order.
    fn pairwise(
        &mut self,
        n: usize,
        f: &mut [V3],
        kernel: impl Fn(Range<usize>, &mut ChunkBuf) -> EnergyVirial + Sync,
    ) -> EnergyVirial {
        struct Job<'a> {
            rows: Range<usize>,
            buf: &'a mut ChunkBuf,
            energy: EnergyVirial,
        }
        let (bounds, deal) = self.split(n);
        let mut jobs: Vec<Job<'_>> = bounds
            .into_iter()
            .zip(&mut self.bufs)
            .map(|(rows, buf)| Job {
                rows,
                buf,
                energy: EnergyVirial::default(),
            })
            .collect();
        fork_join(jobs.chunks_mut(deal), &self.recorder, "pair", |_, jobs| {
            for job in jobs {
                refill(&mut job.buf.f, n, Vec3::zero());
                if !job.rows.is_empty() {
                    job.energy = kernel(job.rows.clone(), job.buf);
                }
            }
        });
        let mut total = EnergyVirial::default();
        for job in &jobs {
            for (fi, bi) in f.iter_mut().zip(&job.buf.f) {
                *fi += *bi;
            }
            total += job.energy;
        }
        total
    }
}

impl Threadable for crate::SuttonChenEam {
    /// Two-pass chunk decomposition of the many-body EAM: (1) per-chunk
    /// full-length density buffers + pair-energy partials, reduced in chunk
    /// order; (2) the embedding derivative over disjoint chunk slices of ρ;
    /// (3) per-chunk force buffers + virial partials, reduced in chunk
    /// order. All cross-chunk sums are fixed-order, so the deterministic
    /// mode's trajectories are thread-count invariant.
    fn compute_chunked(
        &mut self,
        sys: &PairSystem<'_>,
        nl: &NeighborList,
        f: &mut [V3],
        team: &mut ChunkTeam,
    ) -> EnergyVirial {
        // The lane kernels share one read-only position gather across all
        // chunks; load it up front while `self` is still exclusive. The
        // reduced ρ and dF/dρ live in the style's own scratch.
        let use_lanes = self.lanes_usable(nl);
        if use_lanes {
            self.gather.load(
                sys.x,
                sys.kinds,
                sys.charge,
                md_core::kernel::ghost_position(sys.bx),
            );
        }
        let mut rho = std::mem::take(&mut self.rho);
        let mut dembed = std::mem::take(&mut self.dembed);
        let style = &*self;
        let n = sys.x.len();
        let (bounds, deal) = team.split(n);
        let recorder = &team.recorder;
        // Lane-kernel scatter buffers carry one extra ghost slot.
        let spare = usize::from(use_lanes);

        // Pass 1: densities + pair repulsion, each chunk into its private
        // full-length buffer.
        struct DensityJob<'a> {
            rows: Range<usize>,
            rho: &'a mut Vec<f64>,
            e_pair: f64,
        }
        let mut djobs: Vec<DensityJob<'_>> = bounds
            .iter()
            .zip(&mut team.bufs)
            .map(|(rows, buf)| DensityJob {
                rows: rows.clone(),
                rho: &mut buf.rho,
                e_pair: 0.0,
            })
            .collect();
        fork_join(
            djobs.chunks_mut(deal),
            recorder,
            "eam_density",
            |_, jobs| {
                for job in jobs {
                    refill(job.rho, n + spare, 0.0);
                    let rows = job.rows.clone();
                    job.e_pair = if use_lanes {
                        style.density_chunk_lanes(sys, nl, rows, job.rho, &style.gather)
                    } else {
                        style.density_chunk(sys, nl, rows, job.rho)
                    };
                }
            },
        );
        refill(&mut rho, n, 0.0);
        let mut e_pair = 0.0;
        for job in &djobs {
            for (r, pr) in rho.iter_mut().zip(job.rho.iter()) {
                *r += *pr;
            }
            e_pair += job.e_pair;
        }
        drop(djobs);

        // Embedding: dF/dρ is elementwise, so chunks write disjoint slices;
        // only the energy needs the fixed-order partial reduction. The extra
        // ghost slot (lanes) stays zero so ghost gathers read a zero dF/dρ.
        refill(&mut dembed, n + spare, 0.0);
        let mut e_embed = 0.0;
        {
            struct EmbedJob<'a> {
                rows: Range<usize>,
                dembed: &'a mut [f64],
                e_embed: f64,
            }
            let mut ejobs: Vec<EmbedJob<'_>> = Vec::with_capacity(bounds.len());
            let mut rest: &mut [f64] = &mut dembed[..n];
            for rows in &bounds {
                let (head, tail) = rest.split_at_mut(rows.len());
                rest = tail;
                ejobs.push(EmbedJob {
                    rows: rows.clone(),
                    dembed: head,
                    e_embed: 0.0,
                });
            }
            let rho_ref: &[f64] = &rho;
            fork_join(ejobs.chunks_mut(deal), recorder, "eam_embed", |_, jobs| {
                for job in jobs {
                    job.e_embed = style.embed_slice(&rho_ref[job.rows.clone()], job.dembed);
                }
            });
            for job in &ejobs {
                e_embed += job.e_embed;
            }
        }

        // Pass 2: forces, again into private full-length buffers.
        struct ForceJob<'a> {
            rows: Range<usize>,
            buf: &'a mut ChunkBuf,
            virial: f64,
        }
        let mut fjobs: Vec<ForceJob<'_>> = bounds
            .into_iter()
            .zip(&mut team.bufs)
            .map(|(rows, buf)| ForceJob {
                rows,
                buf,
                virial: 0.0,
            })
            .collect();
        let dembed_ref: &[f64] = &dembed;
        fork_join(fjobs.chunks_mut(deal), recorder, "eam_force", |_, jobs| {
            for job in jobs {
                let ChunkBuf { f: buf, acc, .. } = &mut *job.buf;
                refill(buf, n, Vec3::zero());
                let rows = job.rows.clone();
                if use_lanes {
                    acc.reset(n);
                    job.virial =
                        style.force_chunk_lanes(sys, nl, rows, dembed_ref, &style.gather, acc);
                    acc.fold_into(buf);
                } else {
                    job.virial = style.force_chunk(sys, nl, rows, dembed_ref, buf);
                }
            }
        });
        let mut virial = 0.0;
        for job in &fjobs {
            for (fi, bi) in f.iter_mut().zip(&job.buf.f) {
                *fi += *bi;
            }
            virial += job.virial;
        }
        drop(fjobs);

        let eps = style.energy_scale();
        self.rho = rho;
        self.dembed = dembed;
        EnergyVirial {
            evdwl: eps * e_pair + eps * e_embed,
            ecoul: 0.0,
            virial,
        }
    }
}

impl<P: Threadable> PairStyle for Threaded<P> {
    fn name(&self) -> &'static str {
        self.style.name()
    }

    fn cutoff(&self) -> f64 {
        self.style.cutoff()
    }

    fn list_kind(&self) -> NeighborListKind {
        self.style.list_kind()
    }

    fn compute(&mut self, sys: &PairSystem<'_>, nl: &NeighborList, f: &mut [V3]) -> EnergyVirial {
        if !self.team.threads.active() || sys.x.is_empty() {
            return self.style.compute(sys, nl, f);
        }
        self.style.compute_chunked(sys, nl, f, &mut self.team)
    }

    fn set_kernel_path(&mut self, path: md_core::KernelPath) {
        self.style.set_kernel_path(path);
    }

    fn kernel_path(&self) -> md_core::KernelPath {
        self.style.kernel_path()
    }

    fn supports_reorder(&self) -> bool {
        self.style.supports_reorder()
    }

    fn set_precision(&mut self, mode: PrecisionMode) {
        self.style.set_precision(mode);
    }

    fn precision(&self) -> PrecisionMode {
        self.style.precision()
    }

    fn set_g_ewald(&mut self, g: f64) {
        self.style.set_g_ewald(g);
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.team.recorder = recorder;
    }

    fn state_save(&self, w: &mut md_core::wire::Writer) {
        self.style.state_save(w);
    }

    fn state_load(&mut self, r: &mut md_core::wire::Reader<'_>) -> Result<(), CoreError> {
        self.style.state_load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LjCharmmCoulLong, LjCut, SuttonChenEam};
    use md_core::{KernelPath, SimBox, UnitSystem, LANES};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rig(n: usize, seed: u64) -> (SimBox, Vec<V3>, NeighborList) {
        let l = 12.0;
        let bx = SimBox::cubic(l);
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<V3> = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                )
            })
            .collect();
        let mut nl = NeighborList::new(2.5, 0.3, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        (bx, x, nl)
    }

    fn forces(
        style: &mut dyn PairStyle,
        bx: &SimBox,
        x: &[V3],
        nl: &NeighborList,
    ) -> (Vec<V3>, EnergyVirial) {
        let n = x.len();
        let v = vec![Vec3::zero(); n];
        let kinds = vec![0u32; n];
        // Alternating charges: CHARMM's Coulomb term runs, LJ and EAM ignore
        // them.
        let charge: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 0.4 } else { -0.4 })
            .collect();
        let radius = vec![0.0; n];
        let masses = vec![1.0];
        let units = UnitSystem::lj();
        let sys = PairSystem {
            bx,
            x,
            v: &v,
            kinds: &kinds,
            charge: &charge,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 0.005,
        };
        let mut f = vec![Vec3::zero(); n];
        let e = style.compute(&sys, nl, &mut f);
        (f, e)
    }

    /// EAM rig: a slightly perturbed fcc block so densities are realistic.
    fn eam_rig(seed: u64, jitter: f64) -> (SimBox, Vec<V3>, NeighborList) {
        let a0 = 3.615;
        let cells = 3usize;
        let l = cells as f64 * a0;
        let bx = SimBox::cubic(l);
        let basis = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.5, 0.5, 0.0),
            Vec3::new(0.5, 0.0, 0.5),
            Vec3::new(0.0, 0.5, 0.5),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        for cx in 0..cells {
            for cy in 0..cells {
                for cz in 0..cells {
                    for b in basis {
                        let mut j = || (rng.gen::<f64>() - 0.5) * jitter;
                        let dx = j();
                        let dy = j();
                        let dz = j();
                        x.push(Vec3::new(
                            (cx as f64 + b.x) * a0 + dx,
                            (cy as f64 + b.y) * a0 + dy,
                            (cz as f64 + b.z) * a0 + dz,
                        ));
                    }
                }
            }
        }
        let eam = SuttonChenEam::copper();
        let mut nl = NeighborList::new(eam.cutoff(), 0.3, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        (bx, x, nl)
    }

    #[test]
    fn threaded_forces_match_serial_for_any_thread_count() {
        let (bx, x, nl) = rig(500, 3);
        let mut serial = LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap();
        let (f0, e0) = forces(&mut serial, &bx, &x, &nl);
        for t in [1usize, 2, 3, 4, 7] {
            let mut threaded =
                Threaded::new(LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap(), t).unwrap();
            let (f1, e1) = forces(&mut threaded, &bx, &x, &nl);
            // Relative tolerances: the unscreened random gas has near-contact
            // pairs with enormous r^-12 terms, so cross-chunk summation
            // order shifts the absolute values at the fp-associativity level.
            let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1.0);
            assert!(rel(e0.evdwl, e1.evdwl) < 1e-12, "{t} threads: energy");
            assert!(rel(e0.virial, e1.virial) < 1e-12, "{t} threads: virial");
            for i in 0..x.len() {
                assert!(
                    (f0[i] - f1[i]).norm() < 1e-12 * f0[i].norm().max(1.0),
                    "{t} threads: atom {i} force mismatch"
                );
            }
        }
    }

    #[test]
    fn deterministic_mode_is_bitwise_thread_count_invariant() {
        let (bx, x, nl) = rig(400, 11);
        let reference = {
            let mut w = Threaded::with_mode(
                LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap(),
                Threads::deterministic(1),
            )
            .unwrap();
            forces(&mut w, &bx, &x, &nl)
        };
        for t in [2usize, 3, 4, 7] {
            let mut w = Threaded::with_mode(
                LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap(),
                Threads::deterministic(t),
            )
            .unwrap();
            let (f, e) = forces(&mut w, &bx, &x, &nl);
            assert_eq!(
                e.evdwl.to_bits(),
                reference.1.evdwl.to_bits(),
                "{t}: energy"
            );
            assert_eq!(
                e.virial.to_bits(),
                reference.1.virial.to_bits(),
                "{t}: virial"
            );
            for i in 0..x.len() {
                for d in 0..3 {
                    assert_eq!(
                        f[i][d].to_bits(),
                        reference.0[i][d].to_bits(),
                        "{t} threads: atom {i} axis {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_eam_deterministic_is_bitwise_invariant() {
        let (bx, x, nl) = eam_rig(5, 0.15);
        let reference = {
            let mut w =
                Threaded::with_mode(SuttonChenEam::copper(), Threads::deterministic(1)).unwrap();
            forces(&mut w, &bx, &x, &nl)
        };
        for t in [2usize, 4] {
            let mut w =
                Threaded::with_mode(SuttonChenEam::copper(), Threads::deterministic(t)).unwrap();
            let (f, e) = forces(&mut w, &bx, &x, &nl);
            assert_eq!(
                e.evdwl.to_bits(),
                reference.1.evdwl.to_bits(),
                "{t}: energy"
            );
            assert_eq!(
                e.virial.to_bits(),
                reference.1.virial.to_bits(),
                "{t}: virial"
            );
            for i in 0..x.len() {
                for d in 0..3 {
                    assert_eq!(
                        f[i][d].to_bits(),
                        reference.0[i][d].to_bits(),
                        "{t} threads: atom {i} axis {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn precision_plumbs_through() {
        let mut threaded =
            Threaded::new(LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap(), 2).unwrap();
        threaded.set_precision(PrecisionMode::Single);
        assert_eq!(threaded.precision(), PrecisionMode::Single);
        assert_eq!(threaded.cutoff(), 2.5);
        assert_eq!(threaded.nthreads(), 2);
        assert!(!threaded.mode().deterministic);
    }

    #[test]
    fn g_ewald_reaches_the_wrapped_style() {
        let style = LjCharmmCoulLong::new(1, &[(0, 0.1, 3.0)], 8.0, 10.0, 10.0).unwrap();
        let mut threaded = Threaded::new(style, 2).unwrap();
        PairStyle::set_g_ewald(&mut threaded, 0.31);
        assert_eq!(threaded.style.g_ewald(), 0.31);
    }

    #[test]
    fn reports_the_wrapped_style_by_name() {
        let threaded = Threaded::new(LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap(), 2).unwrap();
        assert_eq!(threaded.name(), "lj/cut");
        let threaded =
            Threaded::with_mode(SuttonChenEam::copper(), Threads::deterministic(1)).unwrap();
        assert_eq!(threaded.name(), "eam");
    }

    #[test]
    fn rejects_zero_threads() {
        // `new` goes through `with_mode`: one validation, one error.
        let err = Threaded::new(LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap(), 0).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidParameter {
                name: "threads",
                ..
            }
        ));
        assert!(Threaded::with_mode(
            LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap(),
            Threads {
                count: 0,
                deterministic: true
            }
        )
        .is_err());
    }

    /// `Threaded` on `path` under `mode` against the serial scalar reference
    /// on the same configuration. The chunk reduction (and the lanes path)
    /// reassociates sums, so agreement is at the fp-noise level, not exact —
    /// relative, because the unscreened random gas has near-contact pairs
    /// with enormous r^-12 terms. In deterministic mode the result must also
    /// be bitwise what one thread computes.
    fn check_against_serial<P: Threadable>(
        make: impl Fn() -> P,
        (bx, x, mut nl): (SimBox, Vec<V3>, NeighborList),
        mode: Threads,
        path: KernelPath,
    ) {
        let (f0, e0) = forces(&mut make(), &bx, &x, &nl);
        if path.is_lanes() {
            nl.set_padding(LANES);
        }
        let run = |mode: Threads| {
            let mut threaded = Threaded::with_mode(make(), mode).unwrap();
            threaded.set_kernel_path(path);
            forces(&mut threaded, &bx, &x, &nl)
        };
        let (f1, e1) = run(mode);
        let tol = 1e-10;
        let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1.0);
        assert!(rel(e0.evdwl, e1.evdwl) < tol, "evdwl {e0:?} vs {e1:?}");
        assert!(rel(e0.ecoul, e1.ecoul) < tol, "ecoul {e0:?} vs {e1:?}");
        assert!(rel(e0.virial, e1.virial) < tol, "virial {e0:?} vs {e1:?}");
        for i in 0..x.len() {
            assert!(
                (f0[i] - f1[i]).norm() < tol * f0[i].norm().max(1.0),
                "atom {i} force {:?} vs {:?}",
                f0[i],
                f1[i]
            );
        }
        if mode.deterministic {
            let (f2, e2) = run(Threads::deterministic(1));
            assert_eq!(e1, e2, "deterministic energies across thread counts");
            assert_eq!(f1, f2, "deterministic forces across thread counts");
        }
    }

    fn charmm() -> LjCharmmCoulLong {
        let mut style = LjCharmmCoulLong::new(1, &[(0, 1.0, 1.0)], 2.0, 2.5, 2.5).unwrap();
        style.set_g_ewald(0.3);
        style
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `Threaded<SuttonChenEam>` must match serial EAM on randomized
        /// configurations, on either kernel path.
        #[test]
        fn threaded_eam_matches_serial(
            seed in 0u64..1000,
            t in 1usize..6,
            det in proptest::bool::ANY,
            lanes in proptest::bool::ANY,
        ) {
            let mode = if det { Threads::deterministic(t) } else { Threads::fast(t) };
            let path = if lanes { KernelPath::Lanes } else { KernelPath::Scalar };
            check_against_serial(SuttonChenEam::copper, eam_rig(seed, 0.25), mode, path);
        }

        /// The row-range chunk path must agree with the serial pairwise
        /// styles (LJ and CHARMM) under both modes, on either kernel path,
        /// for arbitrary counts.
        #[test]
        fn threaded_lj_matches_serial(
            seed in 0u64..1000,
            t in 1usize..6,
            det in proptest::bool::ANY,
            lanes in proptest::bool::ANY,
            use_charmm in proptest::bool::ANY,
        ) {
            let mode = if det { Threads::deterministic(t) } else { Threads::fast(t) };
            let path = if lanes { KernelPath::Lanes } else { KernelPath::Scalar };
            if use_charmm {
                check_against_serial(charmm, rig(200, seed), mode, path);
            } else {
                let lj = || LjCut::new(1, &[(0, 0, 1.0, 1.0)], 2.5).unwrap();
                check_against_serial(lj, rig(200, seed), mode, path);
            }
        }
    }
}
