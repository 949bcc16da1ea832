//! The engine's shared-memory level: the `Threads(n)` knob and the one
//! fork-join every threaded loop runs through.
//!
//! The paper's Section 2.2 contrasts LAMMPS's two intra-node parallelization
//! levels — MPI spatial decomposition and OpenMP loop threading. `md-parallel`
//! models the former; this module is the latter on the *real* engine. Like an
//! OpenMP `parallel for`, it is one work-sharing construct applied to every
//! hot loop: the pair kernels (`md-potentials::threaded`), the neighbor-list
//! build (`md-core::neighbor`), the four PPPM phases and the FFT passes
//! (`md-kspace`) all call [`fork_join`], and nothing else in the workspace
//! spawns a thread (CI greps for it).
//!
//! ## The primitive
//!
//! A call site splits its own output — `chunks_mut` of a force array, zipped
//! slabs of three field meshes, per-chunk job structs — and hands the parts,
//! each carrying its own `&mut`, to [`fork_join`] with a body
//! `Fn(part index, part)`. [`Threads::stripe`] is the one stripe-width rule:
//! `chunks_mut(threads.stripe(n))` covers `0..n` in at most `count` parts.
//! Results come back through the parts, so there is no return value and no
//! join order to get wrong; a worker panic resurfaces on the caller when the
//! scope joins.
//!
//! **The inline rule.** A single part runs on the caller's thread: no spawn,
//! no span, no allocation. That is what lets a call site keep *one* loop body
//! for serial and threaded runs, and what keeps a serial step's trace and
//! allocation count untouched. The neighbor build is such a site although
//! its rows vary in length: each worker writes its stripe's rows into a page
//! of its own, so no row is copied after the fork. One site nevertheless
//! keeps a `t == 1` branch, because its threaded form is not the serial loop
//! over a sub-range: the FFT z pass fills private per-worker buffers that a
//! serial merge then copies into place, where the serial form writes in
//! place — a copy of the whole mesh per transform that one thread has no
//! reason to pay.
//!
//! **The lane convention.** With two or more parts, part `k` runs on a
//! scoped worker and its wall time is one `thread`-category span, under the
//! call site's name, on trace lane [`THREAD_LANE_BASE`]` + k`
//! (`Simulation::set_recorder` names those lanes `thread k`). Every fork of
//! a step therefore shows on the thread lanes, and the slowest part of each
//! is read straight off the trace.
//!
//! ## Determinism contract
//!
//! A run is reproducible **bitwise at a fixed thread count**: the pair
//! kernels cut their rows with [`Threads::stripe`], one part per worker, and
//! add the parts' partial results in ascending part order, so the same
//! count performs the same floating-point operations in the same order
//! (`tests/thread_invariance.rs` runs every deck twice at 2 and 4 threads).
//! Across thread counts the pair sums are equal up to floating-point
//! reassociation: a step's forces agree with the serial run's to ~1e-12
//! relative and its energy, one sum over every pair, to ~1e-11; trajectories
//! drift apart from there at the rate chaos allows. The neighbor build and
//! PPPM do not reassociate — their threaded forms write disjoint slices and
//! reduce in a fixed order — so they are bitwise the serial result at any
//! count.

use crate::error::{env_knob, Result};
use md_observe::Recorder;

/// First trace lane of the per-part worker spans ("thread 0", "thread 1", …).
/// The engine owns lane 0 and the virtual-cluster ranks own lanes `1..`, so
/// worker lanes start well above both.
pub const THREAD_LANE_BASE: u32 = 64;

/// Runs `body(k, part)` for the `k`-th of `parts`, all parts at once, and
/// returns when every one has finished. A single part runs inline on the
/// caller and records nothing; two or more run on scoped worker threads,
/// each recording its wall time as a `thread` span called `name` on lane
/// [`THREAD_LANE_BASE`]` + k`. See the module documentation.
pub fn fork_join<P: Send>(
    parts: impl IntoIterator<Item = P>,
    recorder: &Recorder,
    name: &'static str,
    body: impl Fn(usize, P) + Sync,
) {
    let mut parts = parts.into_iter().enumerate();
    let Some(first) = parts.next() else { return };
    let Some(second) = parts.next() else {
        return body(0, first.1);
    };
    let body = &body;
    std::thread::scope(|scope| {
        for (k, part) in [first, second].into_iter().chain(parts) {
            scope.spawn(move || {
                let _span = recorder.span(THREAD_LANE_BASE + k as u32, "thread", name);
                body(k, part);
            });
        }
    });
}

/// Shared-memory thread-team configuration: how many workers the hot
/// kernels fork.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Threads {
    /// Worker threads for the hot kernels (1 = serial).
    pub count: usize,
}

impl Threads {
    /// Serial execution (the default everywhere).
    pub fn serial() -> Self {
        Threads { count: 1 }
    }

    /// `n` threads (at least one).
    pub fn fast(n: usize) -> Self {
        Threads { count: n.max(1) }
    }

    /// Reads the thread count from `MD_THREADS` (default 1). This is what
    /// the CI thread matrix sets.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidParameter`] naming the variable if
    /// it is set to anything but a positive integer: a typo must not quietly
    /// test the serial path.
    pub fn from_env() -> Result<Self> {
        Ok(Threads {
            count: env_knob("MD_THREADS", 1, parse_count)?,
        })
    }

    /// Whether any kernel should take its threaded path.
    pub fn active(self) -> bool {
        self.count > 1
    }

    /// The stripe width that deals `n` items to the team: `0..n` cut into
    /// stripes this wide (`chunks_mut`, `step_by`) is at most `count`
    /// contiguous parts, the last one possibly short. Never zero, so it is a
    /// valid chunk size for an empty range too (which has no parts).
    pub fn stripe(self, n: usize) -> usize {
        n.div_ceil(self.count.max(1)).max(1)
    }
}

/// A thread count as `MD_THREADS` spells it: a positive integer.
fn parse_count(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&count| count > 0)
}

impl Default for Threads {
    fn default() -> Self {
        Threads::serial()
    }
}

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let plural = if self.count == 1 { "" } else { "s" };
        write!(f, "{} thread{plural}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::parse_knob;
    use crate::CoreError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_is_inactive_fast_multi_is_active() {
        assert!(!Threads::serial().active());
        assert!(!Threads::fast(1).active());
        assert!(Threads::fast(2).active());
    }

    #[test]
    fn zero_counts_clamp_to_one() {
        assert_eq!(Threads::fast(0).count, 1);
    }

    #[test]
    fn display_names_the_mode() {
        assert_eq!(Threads::serial().to_string(), "1 thread");
        assert_eq!(Threads::fast(4).to_string(), "4 threads");
    }

    #[test]
    fn stripes_cover_the_range_in_at_most_count_parts() {
        for t in 1..=9usize {
            let threads = Threads::fast(t);
            for n in [0, 1, t - 1, t, t + 1, 7 * t + 3] {
                let mut items = vec![0u8; n];
                let mut parts = 0;
                for part in items.chunks_mut(threads.stripe(n)) {
                    parts += 1;
                    part.fill(1);
                }
                assert!(parts <= t, "{n} items in {parts} parts on {t} threads");
                assert!(
                    items.iter().all(|&seen| seen == 1),
                    "{n} items, {t} threads"
                );
                let starts = (0..n).step_by(threads.stripe(n)).count();
                assert_eq!(starts, parts, "step_by and chunks_mut agree");
            }
        }
    }

    #[test]
    fn every_part_runs_exactly_once_with_its_own_index() {
        for nparts in [2usize, 3, 16] {
            let mut slots = vec![usize::MAX; nparts];
            let runs = AtomicUsize::new(0);
            fork_join(
                slots.iter_mut(),
                &Recorder::disabled(),
                "test",
                |k, slot| {
                    *slot = k;
                    runs.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(runs.into_inner(), nparts);
            assert_eq!(slots, (0..nparts).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipped_mutable_slabs_arrive_together() {
        // The PPPM field pass: four outputs cut at the same places.
        let (mut a, mut b, mut c, mut sums) = ([0u32; 10], [0u32; 10], [0u32; 10], [0u32; 4]);
        let parts = a
            .chunks_mut(3)
            .zip(b.chunks_mut(3))
            .zip(c.chunks_mut(3))
            .zip(sums.iter_mut());
        fork_join(
            parts,
            &Recorder::disabled(),
            "test",
            |k, (((a, b), c), sum)| {
                for (i, ((a, b), c)) in a.iter_mut().zip(b).zip(c).enumerate() {
                    (*a, *b, *c) = (1, k as u32, i as u32);
                    *sum += *a + *b + *c;
                }
            },
        );
        assert_eq!(a, [1; 10]);
        assert_eq!(b, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(c, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(sums, [6, 9, 12, 4]);
    }

    #[test]
    fn a_single_part_runs_on_the_caller_and_records_nothing() {
        let rec = Recorder::default();
        let mut ran_on = None;
        fork_join([&mut ran_on], &rec, "test", |k, slot| {
            *slot = Some((k, std::thread::current().id()));
        });
        assert_eq!(ran_on, Some((0, std::thread::current().id())));
        assert_eq!(rec.event_count(), 0);
    }

    #[test]
    fn two_parts_leave_the_caller() {
        let mut ran_on = [None; 2];
        fork_join(
            ran_on.iter_mut(),
            &Recorder::disabled(),
            "test",
            |_, slot| {
                *slot = Some(std::thread::current().id());
            },
        );
        let caller = Some(std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id.is_some() && id != caller));
    }

    #[test]
    fn zero_parts_is_a_no_op() {
        let rec = Recorder::default();
        fork_join(std::iter::empty::<()>(), &rec, "test", |_, ()| {
            unreachable!("no part to run")
        });
        assert_eq!(rec.event_count(), 0);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            fork_join(0..2, &Recorder::disabled(), "test", |k, _| {
                assert_ne!(k, 1, "boom");
            });
        });
        assert!(caught.is_err(), "the scope swallowed a worker's panic");
    }

    #[test]
    fn part_k_records_one_span_on_lane_base_plus_k() {
        let rec = Recorder::default();
        fork_join(0..3, &rec, "fork_name", |_, _| {});
        let mut lanes: Vec<u32> = rec
            .events()
            .iter()
            .map(|e| {
                assert_eq!((e.cat, e.name), ("thread", "fork_name"));
                e.lane
            })
            .collect();
        lanes.sort_unstable();
        assert_eq!(
            lanes,
            [THREAD_LANE_BASE, THREAD_LANE_BASE + 1, THREAD_LANE_BASE + 2]
        );

        let off = Recorder::disabled();
        fork_join(0..3, &off, "fork_name", |_, _| {});
        assert_eq!(off.event_count(), 0);
    }

    #[test]
    fn env_values_parse_or_name_their_variable() {
        let count = |v| parse_knob("MD_THREADS", v, 1, parse_count);
        assert_eq!(count(None), Ok(1));
        assert_eq!(count(Some("4")), Ok(4));
        assert_eq!(count(Some(" 2 ")), Ok(2));
        for bad in ["four", "0", ""] {
            match count(Some(bad)) {
                Err(CoreError::InvalidParameter { name, .. }) => assert_eq!(name, "MD_THREADS"),
                other => panic!("{bad:?}: expected a typed error, got {other:?}"),
            }
        }
    }
}
