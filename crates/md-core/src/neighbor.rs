//! Cell-binned Verlet neighbor lists with a skin distance.
//!
//! LAMMPS (Section 2 of the paper) tracks, for each atom, all partners within
//! `cutoff + skin`; the *skin* allows reusing a list across several timesteps
//! and rebuilding only when some atom has moved more than half the skin, or
//! on a fixed cadence (see "When to rebuild" below).
//! The list can be *half* (each pair appears once — Newton's third law
//! reused, the default) or *full* (each pair appears from both sides — what
//! the granular Chute style requires, as the paper notes it does not exploit
//! Newton's third law).
//!
//! # The build
//!
//! Cells are at least `cutoff + skin` wide, so an atom's partners all sit in
//! the 27 cells around its own. Binning is a counting sort: one pass counts
//! the atoms of each cell, a running sum turns the counts into each cell's
//! first slot, and a second pass drops every atom into its cell's next slot —
//! its index into `cell_atoms`, its position into three packed per-axis
//! arrays. A cell's members are then one contiguous run, in descending atom
//! index, and since cell `(x + 1, y, z)` follows cell `(x, y, z)`, so is
//! every x-row of cells.
//!
//! The search of atom `i` scans the stencil one `(dz, dy)` row at a time,
//! each row one slot range, split only where a periodic x axis wraps. A full
//! list scans all 9 rows of the 27 cells, in `dz, dy, dx` order. A half list
//! scans the forward half (LAMMPS's `half/bin/newton` stencil): the members
//! stored after `i` in its own cell and the 13 cells after it, so each pair
//! is stored once, on the row that reaches the other atom through a forward
//! offset. Each range is scanned against `x_i` shifted once by the range's
//! periodic image, so the scan computes plain differences. The box is at
//! least twice `cutoff + skin` wide, so at most one image of a partner is in
//! range: on a two-cell periodic axis the offsets −1 and +1 reach the other
//! cell's two images, and the list is the pair set of [`brute_force_pairs`]
//! (up to the rounding of `r²` for a pair an ulp from `cutoff + skin`). The
//! order inside a row, the summation order of every force kernel, is the
//! one the stencil fixes. Distances are computed four candidates at a time
//! in vector registers, a survivor is appended by writing every candidate at
//! the row's cursor and advancing the cursor only for a survivor, and the
//! exclusion lookup runs over survivors only.
//!
//! # Pages
//!
//! The rows live in *pages*, one per build worker: the atoms are cut into
//! contiguous stripes ([`crate::threads::Threads::stripe`], MD-Bench's
//! static row split), and page `k` holds the rows of stripe `k` back to
//! back, written in place by the worker that searched them (LAMMPS's
//! per-thread `MyPage`s). Each atom's row is found by its page and its `u32`
//! start and end in it — 8 bytes an atom, padded or not — so nothing is
//! copied after the search. Binning stays serial (it fixes the order inside
//! every cell); the search fans out through [`crate::threads::fork_join`]
//! (span `neigh_build`), which runs a single stripe inline, so one build body
//! serves every thread count. Because each atom's row depends only on the
//! (serial) bin structure and on per-pair arithmetic that no thread shares,
//! the rows are **bitwise identical** at any thread count, unlike the
//! pair-force reductions in `md-potentials::threaded`, which reassociate
//! across counts. The kernels read a range of rows through
//! [`NeighborList::rows`], which walks it page by page.
//!
//! All of the binning scratch and the pages persist in the list, so a
//! steady-state build allocates nothing, and a threaded list holds one copy
//! of its rows (`tests/neighbor_alloc.rs`).
//!
//! # When to rebuild
//!
//! The list does not decide when it is rebuilt; a [`NeighborPolicy`] does,
//! LAMMPS's `neigh_modify every N delay M check yes|no`. The list keeps what
//! the decision reads: its age in steps ([`NeighborList::ago`], reset by
//! every build) and the positions of its last build, against which
//! [`NeighborList::needs_rebuild`] measures displacement.

use crate::error::{CoreError, Result};
use crate::simbox::SimBox;
use crate::threads::{fork_join, Threads};
use crate::wire;
use crate::V3;
use md_observe::Recorder;
use std::ops::Range;

/// Whether each pair is listed once (half) or from both atoms (full).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborListKind {
    /// Each `{i, j}` pair appears once, on the row whose half stencil
    /// reaches the other atom.
    Half,
    /// Each `{i, j}` pair appears in both atoms' lists.
    Full,
}

/// When a timestep boundary rebuilds the list: LAMMPS's `neigh_modify
/// every N delay M check yes|no`, decided as its `Neighbor::decide()` does.
/// A step `ago` steps after the last build may build only when
/// `ago >= delay` and `ago % every == 0`; it then builds unconditionally
/// under `check no`, and under `check yes` only when some atom has moved
/// past `skin / 2` ([`NeighborList::needs_rebuild`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborPolicy {
    /// Steps between the boundaries that may build (at least 1).
    pub every: u64,
    /// Steps after a build before any boundary may build.
    pub delay: u64,
    /// Whether a boundary that may build checks displacement first.
    pub check: bool,
}

impl NeighborPolicy {
    /// `neigh_modify every {every} delay {delay} check {yes|no}`.
    pub const fn new(every: u64, delay: u64, check: bool) -> Self {
        NeighborPolicy {
            every,
            delay,
            check,
        }
    }

    /// Whether the boundary `ago` steps after the last build may build.
    pub fn may_build(self, ago: u64) -> bool {
        ago >= self.delay && ago.is_multiple_of(self.every)
    }
}

impl Default for NeighborPolicy {
    /// `every 1 delay 0 check yes`: check displacement at every step.
    fn default() -> Self {
        NeighborPolicy::new(1, 0, true)
    }
}

impl std::fmt::Display for NeighborPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let check = if self.check { "yes" } else { "no" };
        write!(f, "every {} delay {} check {check}", self.every, self.delay)
    }
}

/// Build/usage statistics, reported by Table 2 and consumed by the
/// performance models.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NeighborBuildStats {
    /// Number of times the list was (re)built.
    pub builds: usize,
    /// Timestep boundaries that kept the list, whether or not the
    /// [`NeighborPolicy`] ran the displacement check there.
    pub skipped_checks: usize,
    /// Builds the [`NeighborPolicy`] made at which some atom may already
    /// have been past `skin / 2` on the old list: the displacement exceeds
    /// it at the build, and no check cleared the step before, which fell
    /// inside `delay`, off the `every` grid, or under `check no`. A build
    /// one step after the last follows a fresh list and is never counted;
    /// nor is a forced one. Under `check yes` and `every 1` this is
    /// LAMMPS's dangerous-build count, which also counts that first step.
    pub dangerous_builds: usize,
    /// Pairs stored at the last build.
    pub pairs: usize,
    /// Pairs within the bare cutoff (no skin) at the last build.
    pub pairs_within_cutoff: usize,
    /// Stored neighbors per atom at the last build (full-list convention;
    /// includes the skin shell).
    pub neighbors_per_atom: f64,
    /// Neighbors per atom within the bare cutoff — the "Neighbors/atom" row
    /// of the paper's Table 2.
    pub neighbors_within_cutoff: f64,
    /// Excluded partners per atom within the bare cutoff, left out of
    /// `neighbors_within_cutoff` (same convention).
    pub excluded_within_cutoff: f64,
    /// Cells in the binning grid at the last build.
    pub cells: usize,
}

/// Pads the row that starts at `start` and ends `entries` with `sentinel` up
/// to a multiple of `lanes` (0 = no padding), and returns where its real
/// entries end. Empty rows stay empty.
fn pad_row(entries: &mut Vec<u32>, start: usize, lanes: usize, sentinel: u32) -> usize {
    let end = entries.len();
    if lanes != 0 {
        entries.resize(start + (end - start).next_multiple_of(lanes), sentinel);
    }
    end
}

/// The positions of a row indexed `[start, end]`, extended by `mask` (the
/// padding minus one, or 0) to the padded end.
#[inline(always)]
fn span([start, end]: [u32; 2], mask: u32) -> Range<usize> {
    start as usize..(start + ((end - start + mask) & !mask)) as usize
}

/// One build worker's rows: those of one contiguous atom stripe, back to
/// back, with their within-cutoff counts.
#[derive(Debug, Clone, Default)]
struct Page {
    /// The stripe's rows in atom order, each followed by its padding.
    entries: Vec<u32>,
    /// Pairs, and excluded pairs, within the bare cutoff.
    counts: [usize; 2],
    /// Whether a row took `entries` past the list's page limit; the fill
    /// stopped there.
    full: bool,
}

impl Page {
    /// Refills the page with the rows of the atoms `first..first +
    /// index.len()`, padded to `lanes`, and records each row's `[start,
    /// end]` in `index`. Stops, marking the page full, when it would hold
    /// more than `limit` entries.
    fn fill<'a>(
        &mut self,
        scan: &RowScan<'_>,
        exclusions: &impl Fn(usize) -> &'a [u32],
        first: usize,
        index: &mut [[u32; 2]],
        lanes: usize,
        limit: usize,
    ) {
        self.entries.clear();
        self.counts = [0; 2];
        self.full = false;
        let sentinel = scan.x.len() as u32;
        for (i, row) in (first..).zip(index) {
            let start = self.entries.len();
            scan.append_row(i, exclusions(i), &mut self.entries, &mut self.counts);
            let end = pad_row(&mut self.entries, start, lanes, sentinel);
            if self.entries.len() > limit {
                self.full = true;
                return;
            }
            *row = [start as u32, end as u32];
        }
    }
}

/// Candidates whose distances the scan computes at a time, in a fixed-size
/// block the compiler turns into vector code (two SSE2 or one AVX register
/// of `f64`). The packed coordinate arrays end in this many padding slots.
const CHUNK: usize = 4;

/// Cells per axis of the binning grid over `bx`: as many as stay at least
/// `range` wide.
fn grid(bx: &SimBox, range: f64) -> [usize; 3] {
    let lengths = bx.lengths();
    std::array::from_fn(|d| ((lengths[d] / range).floor() as usize).max(1))
}

/// The atoms counting-sorted by cell: cell `c` owns the slots
/// `cell_start[c]..cell_start[c + 1]` of `cell_atoms` and of the packed
/// coordinate copies, its members in descending atom index.
#[derive(Debug, Clone, Default)]
struct CellBins {
    /// Cells per axis.
    ncell: [usize; 3],
    /// First slot of each cell, one more than there are cells.
    cell_start: Vec<u32>,
    /// Atom index held by each slot.
    cell_atoms: Vec<u32>,
    /// Cell of each atom.
    atom_cell: Vec<u32>,
    /// Positions in slot order, one array per axis.
    px: Vec<f64>,
    py: Vec<f64>,
    pz: Vec<f64>,
}

impl CellBins {
    /// Bins `x` into a grid over `bx` whose cells are at least `range` wide,
    /// so that an atom's partners all sit in the 27 cells around its own.
    /// Every vector is cleared and resized in place, so a repeated atom and
    /// cell count allocates nothing.
    fn fill(&mut self, x: &[V3], bx: &SimBox, range: f64) {
        let n = x.len();
        let ncell = grid(bx, range);
        self.ncell = ncell;
        let ncells = ncell[0] * ncell[1] * ncell[2];
        assert!(
            u32::try_from(ncells).is_ok(),
            "binning grid of {ncells} cells exceeds the u32 cell index"
        );
        self.atom_cell.clear();
        self.atom_cell.extend(x.iter().map(|&p| {
            let f = bx.fractional(p);
            let mut c = [0usize; 3];
            for d in 0..3 {
                let fd = f[d].clamp(0.0, 1.0 - 1e-12);
                c[d] = ((fd * ncell[d] as f64) as usize).min(ncell[d] - 1);
            }
            ((c[2] * ncell[1] + c[1]) * ncell[0] + c[0]) as u32
        }));

        // Counting sort. Counts land one slot up, the running sum turns
        // `cell_start[c + 1]` into cell `c`'s first slot, and the fill pass
        // uses it as that cell's cursor, which leaves it at the cell's end —
        // the next cell's start.
        self.cell_start.clear();
        self.cell_start.resize(ncells + 1, 0);
        for &c in &self.atom_cell {
            self.cell_start[c as usize + 1] += 1;
        }
        let mut first = 0u32;
        for start in &mut self.cell_start[1..] {
            let count = *start;
            *start = first;
            first += count;
        }
        self.cell_atoms.clear();
        self.cell_atoms.resize(n, 0);
        for p in [&mut self.px, &mut self.py, &mut self.pz] {
            p.clear();
            p.resize(n + CHUNK, 0.0);
        }
        for i in (0..n).rev() {
            let cursor = &mut self.cell_start[self.atom_cell[i] as usize + 1];
            let slot = *cursor as usize;
            *cursor += 1;
            self.cell_atoms[slot] = i as u32;
            self.px[slot] = x[i].x;
            self.py[slot] = x[i].y;
            self.pz[slot] = x[i].z;
        }
    }
}

/// The candidate search of one build over filled [`CellBins`]: everything
/// [`RowScan::append_row`] needs besides the atom, read-only so the build's
/// worker threads share one.
struct RowScan<'a> {
    bins: &'a CellBins,
    x: &'a [V3],
    bx: &'a SimBox,
    lengths: V3,
    half: bool,
    range2: f64,
    cut2: f64,
}

impl<'a> RowScan<'a> {
    /// The cell `c + o` on axis `d` and the shift that takes its atoms to
    /// the image the offset reaches (`0` inside the grid, `∓L` across a
    /// periodic boundary), or `None` past the end of a non-periodic axis.
    #[inline(always)]
    fn step(&self, c: usize, o: isize, d: usize) -> Option<(usize, f64)> {
        let (n, raw) = (self.bins.ncell[d] as isize, c as isize + o);
        if (0..n).contains(&raw) {
            Some((raw as usize, 0.0))
        } else if !self.bx.is_periodic(d) {
            None
        } else if raw < 0 {
            Some(((raw + n) as usize, -self.lengths[d]))
        } else {
            Some(((raw - n) as usize, self.lengths[d]))
        }
    }

    /// Appends atom `i`'s neighbor row to `scratch` — stencil rows in
    /// `dz, dy` order, each a run of slots in `dx` order, partners in the
    /// sorted slice `excl` dropped — and adds to `counts` how many of the
    /// row's pairs, and how many of its excluded partners, fall within the
    /// bare cutoff.
    fn append_row(&self, i: usize, excl: &[u32], scratch: &mut Vec<u32>, counts: &mut [usize; 2]) {
        let bins = self.bins;
        let ncell = bins.ncell;
        let (range2, cut2) = (self.range2, self.cut2);
        let xi = self.x[i];
        let iu = i as u32;
        let c = bins.atom_cell[i] as usize;
        let (cx, cyz) = (c % ncell[0], c / ncell[0]);
        let (cy, cz) = (cyz % ncell[1], cyz / ncell[1]);

        // The runs of packed slots to scan, as (first slot, end, image
        // shift): at most two per `(dz, dy)` row, split where a periodic x
        // axis wraps. A half list scans the rows from its own on, and in its
        // own row the cells from its own on.
        let mut runs = [(0usize, 0usize, V3::zero()); 18];
        let mut nruns = 0;
        let mut candidates = 0;
        let first = if self.half { 0 } else { -1 };
        for dz in first..=1 {
            let Some((z, sz)) = self.step(cz, dz, 2) else {
                continue;
            };
            for dy in if dz == 0 { first } else { -1 }..=1 {
                let Some((y, sy)) = self.step(cy, dy, 1) else {
                    continue;
                };
                let row = (z * ncell[1] + y) * ncell[0];
                for dx in if dz == 0 && dy == 0 { first } else { -1 }..=1 {
                    let Some((xc, sx)) = self.step(cx, dx, 0) else {
                        continue;
                    };
                    let mut lo = bins.cell_start[row + xc] as usize;
                    let hi = bins.cell_start[row + xc + 1] as usize;
                    if self.half && row + xc == c {
                        // Members run in descending index, so the ones
                        // stored after `i` are its `j < i`.
                        lo += bins.cell_atoms[lo..hi].partition_point(|&j| j > iu) + 1;
                    }
                    let shift = V3::new(sx, sy, sz);
                    candidates += hi - lo;
                    match runs[..nruns].last_mut() {
                        Some(run) if run.1 == lo && run.2 == shift => run.1 = hi,
                        _ => {
                            runs[nruns] = (lo, hi, shift);
                            nruns += 1;
                        }
                    }
                }
            }
        }

        // Branch-free append: every candidate writes its index at the
        // cursor, only a survivor advances it.
        let row_start = scratch.len();
        scratch.resize(row_start + candidates, 0);
        let out = &mut scratch[row_start..];
        let mut kept = 0usize;
        let mut within_cut = 0usize;
        for &(lo, end, shift) in &runs[..nruns] {
            // The image of every candidate in the run is `x_j + shift`.
            let o = xi - shift;
            let mut first = lo;
            while first < end {
                // The last chunk of a run reads on into the next cell's
                // slots (or the arrays' padding); only its own distances
                // are looked at.
                let chunk = |p: &'a [f64]| -> &'a [f64; CHUNK] {
                    p[first..first + CHUNK].try_into().expect("CHUNK slots")
                };
                let (px, py, pz) = (chunk(&bins.px), chunk(&bins.py), chunk(&bins.pz));
                let mut r2 = [0.0f64; CHUNK];
                for k in 0..CHUNK {
                    let (dx, dy, dz) = (px[k] - o.x, py[k] - o.y, pz[k] - o.z);
                    r2[k] = dx * dx + dy * dy + dz * dz;
                }
                let members = &bins.cell_atoms[first..(first + CHUNK).min(end)];
                for (&j, &r2) in members.iter().zip(&r2) {
                    let keep = (r2 < range2) & (j != iu);
                    out[kept] = j;
                    kept += keep as usize;
                    within_cut += (keep & (r2 < cut2)) as usize;
                }
                first += CHUNK;
            }
        }
        scratch.truncate(row_start + kept);

        let mut excluded = 0;
        if !excl.is_empty() {
            // Exclusions are few and survivors a small share of the
            // candidates, so they are taken out of the finished row; an
            // excluded survivor's distance is recomputed to move it from the
            // within-cutoff count to the excluded one.
            let mut kept = row_start;
            for r in row_start..scratch.len() {
                let j = scratch[r];
                if excl.binary_search(&j).is_err() {
                    scratch[kept] = j;
                    kept += 1;
                } else if self.bx.min_image(self.x[j as usize], xi).norm2() < cut2 {
                    excluded += 1;
                }
            }
            scratch.truncate(kept);
        }
        counts[0] += within_cut - excluded;
        counts[1] += excluded;
    }
}

/// Most entries a page may hold: the reach of the `u32` row index.
const PAGE_LIMIT: usize = u32::MAX as usize;

/// A Verlet neighbor list built through cell binning.
#[derive(Debug, Clone)]
pub struct NeighborList {
    cutoff: f64,
    skin: f64,
    kind: NeighborListKind,
    /// Each atom's row as its `[start, end]` positions in its page,
    /// `natoms` long. With padding on, a non-empty row is followed in place
    /// by sentinel entries (`natoms`) up to a multiple of `padding`, so the
    /// lane kernels iterate full blocks with no tail loop.
    index: Vec<[u32; 2]>,
    /// The row storage, one page per build worker (one from the start):
    /// page `k` holds the rows of atoms `k * stripe..(k + 1) * stripe`.
    /// Pages past the last stripe are left over from a build with more
    /// stripes and are never read.
    pages: Vec<Page>,
    /// Atoms per page at the last build (at least 1).
    stripe: usize,
    /// Most entries a page may hold ([`PAGE_LIMIT`]).
    page_limit: usize,
    x_at_build: Vec<V3>,
    /// The box the last build binned in (`None` before the first build).
    /// Under a barostat it is not the current box, and together with
    /// `x_at_build` and the exclusions it is everything the rows derive from.
    box_at_build: Option<SimBox>,
    /// Timestep boundaries since the last build (LAMMPS's `ago`).
    ago: u64,
    stats: NeighborBuildStats,
    threads: Threads,
    /// Where the threaded build's workers record their spans.
    recorder: Recorder,
    /// Lane width rows are padded to (0 = disabled), a power of two.
    padding: usize,
    /// The last build's binning, kept for its storage: reused across
    /// rebuilds so a steady-state build allocates nothing.
    bins: CellBins,
}

/// The rows of a range of atoms, walked page by page (see
/// [`NeighborList::rows`]).
struct Rows<'a> {
    index: &'a [[u32; 2]],
    pages: &'a [Page],
    stripe: usize,
    atoms: Range<usize>,
    /// The padding minus one, or 0 for the unpadded rows.
    mask: u32,
    /// The first atom past the page `entries` belongs to.
    page_end: usize,
    entries: &'a [u32],
}

impl<'a> Iterator for Rows<'a> {
    type Item = (usize, &'a [u32]);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let i = self.atoms.next()?;
        if i == self.page_end {
            let page = i / self.stripe;
            self.entries = &self.pages[page].entries;
            self.page_end = (page + 1) * self.stripe;
        }
        Some((i, &self.entries[span(self.index[i], self.mask)]))
    }
}

impl NeighborList {
    /// Creates an empty list for interactions up to `cutoff`, with rebuild
    /// hysteresis `skin`.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff <= 0` or `skin < 0`.
    pub fn new(cutoff: f64, skin: f64, kind: NeighborListKind) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        assert!(skin >= 0.0, "skin must be non-negative");
        NeighborList {
            cutoff,
            skin,
            kind,
            index: Vec::new(),
            pages: vec![Page::default()],
            stripe: 1,
            page_limit: PAGE_LIMIT,
            x_at_build: Vec::new(),
            box_at_build: None,
            ago: 0,
            stats: NeighborBuildStats::default(),
            threads: Threads::serial(),
            recorder: Recorder::disabled(),
            padding: 0,
            bins: CellBins::default(),
        }
    }

    /// Sets the worker-thread count for subsequent builds (1 = serial).
    /// The threaded build produces bitwise-identical lists at any count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = Threads::fast(threads);
    }

    /// Worker threads used for builds.
    pub fn threads(&self) -> usize {
        self.threads.count
    }

    /// Attaches the recorder the threaded build's `neigh_build` spans go to.
    pub(crate) fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Pads every row to a multiple of `lanes` for the lane kernels (or, with
    /// `lanes <= 1`, removes the padding), laying the current rows out anew
    /// in their pages. Once set, every subsequent build writes its rows
    /// padded.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NeighborPageFull`], and leaves the list as it
    /// was, if the padding takes a page past the `u32` row index.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 1` is not a power of two.
    pub fn set_padding(&mut self, lanes: usize) -> Result<()> {
        let lanes = if lanes <= 1 { 0 } else { lanes };
        assert!(
            lanes == 0 || lanes.is_power_of_two(),
            "row padding {lanes} is not a power of two"
        );
        if lanes == self.padding {
            return Ok(());
        }
        let sentinel = self.sentinel();
        let mut index = self.index.clone();
        let mut pages = Vec::with_capacity(self.pages.len());
        for (page, rows) in self.pages.iter().zip(index.chunks_mut(self.stripe)) {
            let mut entries = Vec::with_capacity(page.entries.len());
            for row in rows {
                let start = entries.len();
                entries.extend_from_slice(&page.entries[span(*row, 0)]);
                let end = pad_row(&mut entries, start, lanes, sentinel);
                *row = [start as u32, end as u32];
            }
            if entries.len() > self.page_limit {
                let entries = entries.len();
                return Err(CoreError::NeighborPageFull { entries });
            }
            pages.push(entries);
        }
        for (page, entries) in self.pages.iter_mut().zip(pages) {
            page.entries = entries;
        }
        self.index = index;
        self.padding = lanes;
        Ok(())
    }

    /// Lane width rows are padded to (0 when padding is disabled).
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The sentinel index used in padded rows: one past the last atom, i.e.
    /// the ghost slot of the lane scratch arrays.
    #[inline(always)]
    pub fn sentinel(&self) -> u32 {
        self.natoms() as u32
    }

    /// The row of atom `i`, extended by `mask` to its padded end.
    #[inline]
    fn row(&self, i: usize, mask: u32) -> &[u32] {
        &self.pages[i / self.stripe].entries[span(self.index[i], mask)]
    }

    /// The padding minus one: what [`span`] extends a padded row by (0, the
    /// plain row, with padding off).
    #[inline]
    fn pad_mask(&self) -> u32 {
        debug_assert!(self.padding > 1, "padding not enabled");
        self.padding.saturating_sub(1) as u32
    }

    /// The padded neighbor row of atom `i`: `neighbors(i)` followed in place
    /// by sentinel entries up to a multiple of [`NeighborList::padding`].
    /// Empty rows stay empty. Only valid after `set_padding(>= 2)`.
    #[inline]
    pub fn padded_neighbors(&self, i: usize) -> &[u32] {
        self.row(i, self.pad_mask())
    }

    /// The neighbor slice of atom `i` (with padding on, the unpadded prefix
    /// of [`NeighborList::padded_neighbors`]).
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        self.row(i, 0)
    }

    /// The rows of the atoms `atoms` in ascending order, as `(i, row)`: each
    /// row [`NeighborList::neighbors`]`(i)`, or with `padded`
    /// [`NeighborList::padded_neighbors`]`(i)`. The walk finds each page once,
    /// so a row costs one index load: the kernels' loops over a row range
    /// read the list through this.
    #[inline]
    pub fn rows(
        &self,
        atoms: Range<usize>,
        padded: bool,
    ) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        Rows {
            index: &self.index,
            pages: &self.pages,
            stripe: self.stripe,
            mask: if padded { self.pad_mask() } else { 0 },
            page_end: atoms.start,
            atoms,
            entries: &[],
        }
    }

    /// Interaction cutoff.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Skin distance.
    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// Half or full list.
    pub fn kind(&self) -> NeighborListKind {
        self.kind
    }

    /// Build statistics.
    pub fn stats(&self) -> NeighborBuildStats {
        self.stats
    }

    /// Timestep boundaries that kept the list since its last build.
    pub fn ago(&self) -> u64 {
        self.ago
    }

    /// The box the last build binned in (`None` before the first build).
    pub fn box_at_build(&self) -> Option<SimBox> {
        self.box_at_build
    }

    /// Number of atoms the list was last built for.
    pub fn natoms(&self) -> usize {
        self.index.len()
    }

    /// Total stored pairs (directed entries; padding is not counted).
    pub fn len(&self) -> usize {
        self.stats.pairs
    }

    /// Whether the list holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any atom has moved more than `skin / 2` since the last build.
    ///
    /// Uses minimum-image displacement so wrapped coordinates do not trigger
    /// spurious rebuilds.
    pub fn needs_rebuild(&self, x: &[V3], bx: &SimBox) -> bool {
        if self.x_at_build.len() != x.len() {
            return true;
        }
        let limit2 = (0.5 * self.skin) * (0.5 * self.skin);
        x.iter()
            .zip(&self.x_at_build)
            .any(|(&a, &b)| bx.min_image(a, b).norm2() > limit2)
    }

    /// Counts one timestep boundary that kept the list.
    pub(crate) fn note_skipped_check(&mut self) {
        self.stats.skipped_checks += 1;
        self.ago += 1;
    }

    /// Counts the last build as dangerous (see
    /// [`NeighborBuildStats::dangerous_builds`]).
    pub(crate) fn note_dangerous_build(&mut self) {
        self.stats.dangerous_builds += 1;
    }

    /// Unconditionally rebuilds the list with no exclusions.
    ///
    /// # Errors
    ///
    /// As for [`NeighborList::build_with`].
    pub fn build(&mut self, x: &[V3], bx: &SimBox) -> Result<()> {
        self.build_with(x, bx, |_| &[])
    }

    /// Unconditionally rebuilds the list, dropping pairs reported by
    /// `exclusions(i)` (a sorted slice of excluded partners of atom `i`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CutoffTooLarge`] if `cutoff + skin`
    /// exceeds half the smallest periodic box extent, and
    /// [`crate::CoreError::NeighborPageFull`], leaving the list empty, if a
    /// worker's rows outgrow the `u32` row index.
    pub fn build_with<'a>(
        &mut self,
        x: &[V3],
        bx: &SimBox,
        exclusions: impl Fn(usize) -> &'a [u32] + Sync,
    ) -> Result<()> {
        let range = self.cutoff + self.skin;
        bx.check_interaction_range(range)?;
        let n = x.len();
        self.bins.fill(x, bx, range);
        let scan = RowScan {
            bins: &self.bins,
            x,
            bx,
            lengths: bx.lengths(),
            half: self.kind == NeighborListKind::Half,
            range2: range * range,
            cut2: self.cutoff * self.cutoff,
        };

        // One page per worker, each stripe's rows written straight into it;
        // with one thread `fork_join` runs the single stripe inline.
        let stripe = self.threads.stripe(n);
        self.stripe = stripe;
        self.pages.resize_with(self.threads.count, Page::default);
        self.index.clear();
        self.index.resize(n, [0; 2]);
        let (lanes, limit) = (self.padding, self.page_limit);
        let parts = self.pages.iter_mut().zip(self.index.chunks_mut(stripe));
        fork_join(parts, &self.recorder, "neigh_build", |k, (page, index)| {
            page.fill(&scan, &exclusions, k * stripe, index, lanes, limit);
        });
        let pages = &self.pages[..n.div_ceil(stripe)];
        if let Some(page) = pages.iter().find(|page| page.full) {
            let entries = page.entries.len();
            self.index.clear();
            return Err(CoreError::NeighborPageFull { entries });
        }
        // Pairs, and excluded pairs, within the bare cutoff.
        let counts = pages.iter().fold([0, 0], |[a, b], page| {
            [a + page.counts[0], b + page.counts[1]]
        });

        self.x_at_build.clear();
        self.x_at_build.extend_from_slice(x);
        self.box_at_build = Some(*bx);
        self.ago = 0;
        self.stats.builds += 1;
        let pairs: usize = self
            .index
            .iter()
            .map(|&[start, end]| (end - start) as usize)
            .sum();
        self.stats.pairs = pairs;
        self.stats.pairs_within_cutoff = counts[0];
        self.stats.cells = self.bins.ncell.iter().product();
        let per_atom = |directed: f64| {
            if n == 0 {
                0.0
            } else {
                match self.kind {
                    NeighborListKind::Half => 2.0 * directed / n as f64,
                    NeighborListKind::Full => directed / n as f64,
                }
            }
        };
        self.stats.neighbors_per_atom = per_atom(pairs as f64);
        self.stats.neighbors_within_cutoff = per_atom(counts[0] as f64);
        self.stats.excluded_within_cutoff = per_atom(counts[1] as f64);
        Ok(())
    }

    /// Appends the list's checkpoint state: the inputs of its last build —
    /// the positions and the box it binned — its age and the counters. The
    /// rows
    /// themselves are not written: [`NeighborList::build_with`] returns the
    /// same rows bit for bit from the same inputs at any thread count and
    /// padding, so [`NeighborList::state_load`] rebuilds them. Keeping
    /// `x_at_build` (rather than rebuilding from the positions at restore
    /// time) is what keeps a resume bitwise-faithful: it is the reference of
    /// the displacement trigger, and a moved reference would shift every
    /// later rebuild and with it the summation orders. The age is the other
    /// half of the schedule: under `every` it fixes the next build's step.
    pub fn state_save(&self, w: &mut wire::Writer) {
        w.v3s(&self.x_at_build);
        w.bool(self.box_at_build.is_some());
        if let Some(bx) = &self.box_at_build {
            bx.state_save(w);
        }
        w.u64(self.ago);
        w.usize(self.stats.builds);
        w.usize(self.stats.skipped_checks);
        w.usize(self.stats.dangerous_builds);
        w.usize(self.stats.pairs);
        w.usize(self.stats.pairs_within_cutoff);
        w.usize(self.stats.cells);
    }

    /// Restores state written by [`NeighborList::state_save`] onto a list
    /// created with the same cutoff/skin/kind (the deck rebuild provides
    /// those) by running the build on the saved inputs, with this list's
    /// thread count and padding and the caller's `exclusions` (as for
    /// [`NeighborList::build_with`], in the atom order of the saved
    /// positions, of which there must be `natoms`). The saved age and
    /// counters are put back, so the rebuild does not count as a build.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptState`] on a malformed blob, on inputs the
    /// build refuses, and when the rebuilt list's pair and cell counts are
    /// not the recorded ones.
    pub fn state_load<'a>(
        &mut self,
        r: &mut wire::Reader<'_>,
        natoms: usize,
        exclusions: impl Fn(usize) -> &'a [u32] + Sync,
    ) -> Result<()> {
        let corrupt = |detail: String| CoreError::CorruptState {
            what: "neighbor list",
            detail,
        };
        let x = r.v3s()?;
        if x.len() != natoms {
            return Err(corrupt(format!(
                "{} reference positions for {natoms} atoms",
                x.len()
            )));
        }
        if !r.bool()? {
            return Err(corrupt("saved before its first build".to_string()));
        }
        let bx = SimBox::state_load(r)?;
        let ago = r.u64()?;
        let (builds, skipped_checks, dangerous_builds) = (r.usize()?, r.usize()?, r.usize()?);
        let recorded @ (_, _, recorded_cells) = (r.usize()?, r.usize()?, r.usize()?);
        // The grid is the one allocation the saved box sizes, so it is held
        // to the recorded cell count (and the build's own `u32` limit) before
        // the build allocates it.
        let cells = grid(&bx, self.cutoff + self.skin)
            .iter()
            .try_fold(1usize, |product, &n| product.checked_mul(n));
        if cells != Some(recorded_cells) || u32::try_from(recorded_cells).is_err() {
            return Err(corrupt(format!(
                "the saved box bins into {cells:?} cells, {recorded_cells} recorded"
            )));
        }
        self.build_with(&x, &bx, exclusions)
            .map_err(|e| corrupt(format!("rebuild from the saved inputs: {e}")))?;
        let stats = &mut self.stats;
        let rebuilt = (stats.pairs, stats.pairs_within_cutoff, stats.cells);
        if rebuilt != recorded {
            return Err(corrupt(format!(
                "rebuilt (pairs, pairs within cutoff, cells) {rebuilt:?}, recorded {recorded:?}"
            )));
        }
        stats.builds = builds;
        stats.skipped_checks = skipped_checks;
        stats.dangerous_builds = dangerous_builds;
        self.ago = ago;
        Ok(())
    }
}

impl std::fmt::Display for NeighborList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} neighbor list: cutoff {} skin {} ({} atoms, {:.1} nbr/atom)",
            self.kind,
            self.cutoff,
            self.skin,
            self.natoms(),
            self.stats.neighbors_per_atom
        )
    }
}

/// Reference O(N²) neighbor enumeration, used by tests and tiny systems.
pub fn brute_force_pairs(x: &[V3], bx: &SimBox, range: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let r2 = range * range;
    for i in 0..x.len() {
        for j in (i + 1)..x.len() {
            if bx.min_image(x[j], x[i]).norm2() < r2 {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_positions(n: usize, l: f64, seed: u64) -> Vec<V3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                )
            })
            .collect()
    }

    fn pair_set(nl: &NeighborList) -> std::collections::BTreeSet<(u32, u32)> {
        let mut s = std::collections::BTreeSet::new();
        for i in 0..nl.natoms() {
            for &j in nl.neighbors(i) {
                let (a, b) = if (i as u32) < j {
                    (i as u32, j)
                } else {
                    (j, i as u32)
                };
                s.insert((a, b));
            }
        }
        s
    }

    /// Every row of `nl` as `(neighbors(i), padded_neighbors(i))`, the
    /// padded row being the plain one with padding off: two lists give the
    /// same vector exactly when their rows, and their padding, agree bit for
    /// bit.
    fn rows_of(nl: &NeighborList) -> Vec<(&[u32], &[u32])> {
        (0..nl.natoms())
            .map(|i| {
                let padded = if nl.padding() > 1 {
                    nl.padded_neighbors(i)
                } else {
                    nl.neighbors(i)
                };
                (nl.neighbors(i), padded)
            })
            .collect()
    }

    /// The entries of a list given row by row, as sorted `(row, partner)`
    /// pairs, a half list's unordered (`(min, max)`): two lists give the same
    /// vector exactly when they hold the same pairs (for a full list, in the
    /// same rows), each as often.
    fn canonical<'r>(
        kind: NeighborListKind,
        rows: impl Iterator<Item = &'r [u32]>,
    ) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = rows
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&j| (i as u32, j)))
            .map(|(i, j)| match kind {
                NeighborListKind::Half => (i.min(j), i.max(j)),
                NeighborListKind::Full => (i, j),
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// The linked-list build this module once was, kept as the oracle of
    /// `build_equals_linked_list_reference`: atoms pushed onto per-cell
    /// linked lists, all 27 stencil offsets visited with `rem_euclid`
    /// wrapping, every candidate put through [`SimBox::min_image`], a half
    /// list's pair kept on the lower-indexed atom, and cells that alias on a
    /// short periodic axis deduplicated candidate by candidate. Returns the
    /// rows, the pairs and the excluded pairs within the bare cutoff, and the
    /// cell count.
    fn reference_rows(
        x: &[V3],
        bx: &SimBox,
        cutoff: f64,
        skin: f64,
        kind: NeighborListKind,
        excl: &[Vec<u32>],
    ) -> (Vec<Vec<u32>>, usize, usize, usize) {
        let range = cutoff + skin;
        let range2 = range * range;
        let cut2 = cutoff * cutoff;
        let lengths = bx.lengths();
        let mut ncell = [1usize; 3];
        for d in 0..3 {
            ncell[d] = ((lengths[d] / range).floor() as usize).max(1);
        }
        let ncells = ncell[0] * ncell[1] * ncell[2];
        let cell_coords = |p: V3| -> [usize; 3] {
            let f = bx.fractional(p);
            let mut c = [0usize; 3];
            for d in 0..3 {
                let fd = f[d].clamp(0.0, 1.0 - 1e-12);
                c[d] = ((fd * ncell[d] as f64) as usize).min(ncell[d] - 1);
            }
            c
        };
        let mut bin_head = vec![u32::MAX; ncells];
        let mut bin_next = vec![u32::MAX; x.len()];
        for (i, &p) in x.iter().enumerate() {
            let c = cell_coords(p);
            let cell = (c[2] * ncell[1] + c[1]) * ncell[0] + c[0];
            bin_next[i] = bin_head[cell];
            bin_head[cell] = i as u32;
        }
        let half = kind == NeighborListKind::Half;
        let needs_dedup = (0..3).any(|d| ncell[d] < 3 && bx.is_periodic(d));
        let (mut within_cut, mut excluded) = (0usize, 0usize);
        let mut rows = Vec::with_capacity(x.len());
        for (i, &xi) in x.iter().enumerate() {
            let ci = cell_coords(xi);
            let mut row: Vec<u32> = Vec::new();
            let mut seen: Vec<u32> = Vec::new();
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let mut cc = [0usize; 3];
                        let deltas = [dx, dy, dz];
                        let mut skip = false;
                        for d in 0..3 {
                            let raw = ci[d] as i64 + deltas[d];
                            if bx.is_periodic(d) {
                                cc[d] = raw.rem_euclid(ncell[d] as i64) as usize;
                            } else if raw < 0 || raw >= ncell[d] as i64 {
                                skip = true;
                                break;
                            } else {
                                cc[d] = raw as usize;
                            }
                        }
                        if skip {
                            continue;
                        }
                        let cell = (cc[2] * ncell[1] + cc[1]) * ncell[0] + cc[0];
                        let mut j = bin_head[cell];
                        while j != u32::MAX {
                            let ju = j as usize;
                            let fresh = !needs_dedup || !seen.contains(&j);
                            if ju != i && (!half || ju > i) && fresh {
                                seen.push(j);
                                let r2 = bx.min_image(x[ju], xi).norm2();
                                if r2 < range2 && excl[i].binary_search(&j).is_ok() {
                                    excluded += usize::from(r2 < cut2);
                                } else if r2 < range2 {
                                    row.push(j);
                                    within_cut += usize::from(r2 < cut2);
                                }
                            }
                            j = bin_next[ju];
                        }
                    }
                }
            }
            rows.push(row);
        }
        (rows, within_cut, excluded, ncells)
    }

    proptest! {
        #[test]
        fn build_equals_linked_list_reference(
            full in proptest::bool::ANY,
            periodic in proptest::collection::vec(proptest::bool::ANY, 3),
            // Box extent per axis in units of the interaction range: below 2
            // (the limit `check_interaction_range` sets) only a non-periodic
            // axis of a partly periodic box may go, 2..3 is the two-cell
            // case whose stencil offsets alias.
            extent in proptest::collection::vec(0.6..5.5f64, 3),
            lo in proptest::collection::vec(-3.0..3.0f64, 3),
            cutoff in 1.0..2.5f64,
            skin in 0.0..0.6f64,
            // Fractional coordinates (reaching outside the box) and a face
            // selector: 0..6 puts the atom exactly on one of the six faces.
            atoms in proptest::collection::vec(
                (-0.15..1.15f64, -0.15..1.15f64, -0.15..1.15f64, 0usize..14),
                0..160,
            ),
            excluded in proptest::collection::vec((0usize..160, 0usize..160), 0..80),
        ) {
            let kind = if full { NeighborListKind::Full } else { NeighborListKind::Half };
            let range = cutoff + skin;
            let mut len = [0.0; 3];
            for d in 0..3 {
                let limited = periodic[d] || !periodic.contains(&true);
                len[d] = range * if limited { extent[d].max(2.001) } else { extent[d] };
            }
            let lo = Vec3::new(lo[0], lo[1], lo[2]);
            let bx = SimBox::new(lo, lo + Vec3::new(len[0], len[1], len[2]))
                .unwrap()
                .with_periodicity(periodic[0], periodic[1], periodic[2]);
            let n = atoms.len();
            let x: Vec<V3> = atoms
                .iter()
                .map(|&(fx, fy, fz, face)| {
                    let mut f = [fx, fy, fz];
                    if face < 6 {
                        f[face / 2] = (face % 2) as f64;
                    }
                    for d in 0..3 {
                        // Only a non-periodic face has atoms beyond it.
                        if periodic[d] {
                            f[d] = f[d].clamp(0.0, 1.0);
                        }
                    }
                    lo + Vec3::new(f[0] * len[0], f[1] * len[1], f[2] * len[2])
                })
                .collect();
            let mut excl: Vec<Vec<u32>> = vec![Vec::new(); n];
            for &(a, b) in &excluded {
                if a < n && b < n && a != b {
                    excl[a].push(b as u32);
                    excl[b].push(a as u32);
                }
            }
            for e in &mut excl {
                e.sort_unstable();
                e.dedup();
            }

            let (rows, within_cut, excluded_in_cut, ncells) =
                reference_rows(&x, &bx, cutoff, skin, kind, &excl);
            let pairs: usize = rows.iter().map(Vec::len).sum();
            let per_atom = |directed: usize| match (n, kind) {
                (0, _) => 0.0,
                (_, NeighborListKind::Half) => 2.0 * directed as f64 / n as f64,
                (_, NeighborListKind::Full) => directed as f64 / n as f64,
            };
            let stats = NeighborBuildStats {
                builds: 1,
                skipped_checks: 0,
                dangerous_builds: 0,
                pairs,
                pairs_within_cutoff: within_cut,
                neighbors_per_atom: per_atom(pairs),
                neighbors_within_cutoff: per_atom(within_cut),
                excluded_within_cutoff: per_atom(excluded_in_cut),
                cells: ncells,
            };
            // The serial build holds the oracle's pairs, each once (per row
            // for a full list), in the order its stencil fixes.
            let mut serial = NeighborList::new(cutoff, skin, kind);
            serial.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
            prop_assert_eq!(serial.stats(), stats, "stats: {}", bx);
            prop_assert_eq!(
                canonical(kind, (0..n).map(|i| serial.neighbors(i))),
                canonical(kind, rows.iter().map(Vec::as_slice)),
                "pairs: {}",
                bx
            );
            // Every thread count and padding gives that order bit for bit.
            let mut serial_padded = serial.clone();
            serial_padded.set_padding(8).unwrap();
            for (padding, want) in [(0, &serial), (8, &serial_padded)] {
                for threads in [1, 2, 3, 7] {
                    let mut nl = NeighborList::new(cutoff, skin, kind);
                    nl.set_padding(padding).unwrap();
                    nl.set_threads(threads);
                    nl.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
                    let what = format!("padding {padding}, {threads} threads, {bx}");
                    prop_assert_eq!(rows_of(&nl), rows_of(want), "rows: {}", what);
                    prop_assert_eq!(nl.stats(), stats, "stats: {}", what);
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_half() {
        let bx = SimBox::cubic(10.0);
        let x = random_positions(200, 10.0, 42);
        let mut nl = NeighborList::new(2.0, 0.5, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let expected: std::collections::BTreeSet<_> =
            brute_force_pairs(&x, &bx, 2.5).into_iter().collect();
        assert_eq!(pair_set(&nl), expected);
        // Each pair once: a pair listed from both sides would pass the set.
        assert_eq!(nl.len(), expected.len());
    }

    #[test]
    fn non_finite_position_has_no_partners() {
        let bx = SimBox::cubic(10.0);
        let mut x = random_positions(300, 10.0, 23);
        x[17] = Vec3::new(f64::NAN, 5.0, 5.0);
        let expected = brute_force_pairs(&x, &bx, 2.4);
        for (kind, copies) in [(NeighborListKind::Half, 1), (NeighborListKind::Full, 2)] {
            let mut nl = NeighborList::new(2.0, 0.4, kind);
            nl.build(&x, &bx).unwrap();
            assert!(nl.neighbors(17).is_empty(), "{kind:?}");
            let got: Vec<_> = pair_set(&nl).into_iter().collect();
            assert_eq!(got, expected, "{kind:?}");
            assert_eq!(nl.len(), copies * expected.len(), "{kind:?}");
        }
    }

    #[test]
    fn two_cell_periodic_axis_reaches_both_images() {
        // x is two cells of 2.75 for a range of 2.5: the offsets -1 and +1
        // both reach the other cell, one through each periodic image.
        let bx = SimBox::orthogonal(5.5, 12.0, 12.0);
        let x = [2.5, 3.0, 0.3, 5.2, 1.4, 4.1].map(|px| Vec3::new(px, 6.0, 6.0));
        let expected = brute_force_pairs(&x, &bx, 2.5);
        // (0, 1) across the middle, (2, 3) across the wrapped face.
        assert!(expected.contains(&(0, 1)) && expected.contains(&(2, 3)));
        for (kind, copies) in [(NeighborListKind::Half, 1), (NeighborListKind::Full, 2)] {
            for threads in [1, 2] {
                let mut nl = NeighborList::new(2.0, 0.5, kind);
                nl.set_threads(threads);
                nl.build(&x, &bx).unwrap();
                assert_eq!(nl.stats().cells, 2 * 4 * 4, "{kind:?}");
                let got: Vec<_> = pair_set(&nl).into_iter().collect();
                assert_eq!(got, expected, "{kind:?}, {threads} threads");
                assert_eq!(nl.len(), copies * expected.len(), "{kind:?}");
            }
        }
    }

    #[test]
    fn matches_brute_force_full() {
        let bx = SimBox::cubic(8.0);
        let x = random_positions(150, 8.0, 7);
        let mut nl = NeighborList::new(1.5, 0.3, NeighborListKind::Full);
        nl.build(&x, &bx).unwrap();
        let expected: std::collections::BTreeSet<_> =
            brute_force_pairs(&x, &bx, 1.8).into_iter().collect();
        assert_eq!(pair_set(&nl), expected);
        // Full list has exactly twice the directed entries.
        assert_eq!(nl.len(), 2 * expected.len());
    }

    #[test]
    fn nonperiodic_axis_has_no_wraparound_pairs() {
        let bx = SimBox::cubic(10.0).with_periodicity(true, true, false);
        let x = vec![Vec3::new(5.0, 5.0, 0.2), Vec3::new(5.0, 5.0, 9.8)];
        let mut nl = NeighborList::new(2.0, 0.0, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        assert_eq!(nl.len(), 0);
    }

    #[test]
    fn rebuild_trigger_uses_half_skin() {
        let bx = SimBox::cubic(10.0);
        let mut x = random_positions(50, 10.0, 3);
        let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        assert!(!nl.needs_rebuild(&x, &bx));
        x[0].x += 0.19; // less than skin/2
        assert!(!nl.needs_rebuild(&x, &bx));
        x[0].x += 0.05; // now over skin/2 total
        assert!(nl.needs_rebuild(&x, &bx));
    }

    #[test]
    fn rejects_oversized_cutoff() {
        let bx = SimBox::cubic(4.0);
        let x = random_positions(10, 4.0, 1);
        let mut nl = NeighborList::new(2.5, 0.0, NeighborListKind::Half);
        assert!(nl.build(&x, &bx).is_err());
    }

    #[test]
    fn stats_track_builds_and_density() {
        let bx = SimBox::cubic(10.0);
        let x = random_positions(500, 10.0, 11);
        let mut nl = NeighborList::new(2.0, 0.3, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        let s = nl.stats();
        assert_eq!(s.builds, 1);
        // Expected full-convention neighbors/atom ~ rho * 4/3 pi r^3.
        let rho = 500.0 / 1000.0;
        let expect = rho * 4.0 / 3.0 * std::f64::consts::PI * 2.3f64.powi(3);
        assert!(
            (s.neighbors_per_atom - expect).abs() / expect < 0.25,
            "{} vs {}",
            s.neighbors_per_atom,
            expect
        );
    }

    #[test]
    fn threaded_build_is_bitwise_identical_to_serial() {
        let bx = SimBox::cubic(10.0);
        let x = random_positions(400, 10.0, 99);
        let excl: Vec<Vec<u32>> = (0..400u32)
            .map(|i| {
                if i % 7 == 0 {
                    vec![(i + 1) % 400]
                } else {
                    vec![]
                }
            })
            .collect();
        let mut serial = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        serial.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
        let mut serial_padded = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        serial_padded.set_padding(8).unwrap();
        serial_padded
            .build_with(&x, &bx, |i| excl[i].as_slice())
            .unwrap();
        for t in [2, 3, 4, 7] {
            for (padding, want) in [(0, &serial), (8, &serial_padded)] {
                let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
                nl.set_threads(t);
                nl.set_padding(padding).unwrap();
                nl.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
                assert_eq!(rows_of(&nl), rows_of(want), "{t} threads: rows");
                assert_eq!(nl.stats(), want.stats(), "{t} threads: statistics");
            }
        }
        // More threads than atoms degrades gracefully.
        let tiny = random_positions(3, 10.0, 5);
        let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        nl.set_threads(8);
        nl.build(&tiny, &bx).unwrap();
        let mut s = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        s.build(&tiny, &bx).unwrap();
        assert_eq!(rows_of(&nl), rows_of(&s));
    }

    #[test]
    fn padded_rows_are_full_blocks_of_the_same_pairs() {
        let bx = SimBox::cubic(10.0);
        let x = random_positions(300, 10.0, 17);
        let mut plain = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        plain.build(&x, &bx).unwrap();
        let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        nl.set_padding(8).unwrap();
        nl.build(&x, &bx).unwrap();
        assert_eq!(nl.padding(), 8);
        assert_eq!(nl.sentinel(), 300);
        for i in 0..nl.natoms() {
            let row = nl.neighbors(i);
            let padded = nl.padded_neighbors(i);
            assert_eq!(row, plain.neighbors(i), "atom {i}");
            // Full blocks; empty rows stay empty.
            assert_eq!(padded.len() % 8, 0, "atom {i}");
            assert!(padded.len() >= row.len());
            assert!(padded.len() < row.len() + 8 || row.is_empty());
            // One storage: the row is the padded row's prefix, in place; the
            // tail is all sentinel.
            assert_eq!(row.as_ptr(), padded.as_ptr(), "atom {i}");
            assert!(padded[row.len()..].iter().all(|&j| j == nl.sentinel()));
        }
        // Counts and statistics see real pairs only.
        assert_eq!(nl.len(), plain.len());
        assert_eq!(nl.stats(), plain.stats());
        // Padding on demand lays out the same storage as a padded build, and
        // removing it restores the exact unpadded rows.
        let mut on_demand = plain.clone();
        on_demand.set_padding(8).unwrap();
        assert_eq!(rows_of(&on_demand), rows_of(&nl));
        on_demand.set_padding(0).unwrap();
        assert_eq!(on_demand.padding(), 0);
        assert_eq!(rows_of(&on_demand), rows_of(&plain));
    }

    proptest! {
        /// A restore rebuilds the list from the saved build inputs alone:
        /// whatever the atoms and the box did after the build, a fresh list
        /// ends up with the saved list's rows, counters and trigger.
        #[test]
        fn state_round_trip_rebuilds_the_same_list(
            full in proptest::bool::ANY,
            seed in 0u64..1000,
            n in 0usize..150,
            drift in 0.0..0.3f64,
            rescale in 0.9..1.1f64,
            excluded in proptest::collection::vec((0usize..150, 0usize..150), 0..60),
        ) {
            let kind = if full { NeighborListKind::Full } else { NeighborListKind::Half };
            let bx = SimBox::cubic(10.0).with_periodicity(true, true, seed % 2 == 0);
            let x = random_positions(n, 10.0, seed);
            let mut excl: Vec<Vec<u32>> = vec![Vec::new(); n];
            for &(a, b) in &excluded {
                if a < n && b < n && a != b {
                    excl[a].push(b as u32);
                    excl[b].push(a as u32);
                }
            }
            for e in &mut excl {
                e.sort_unstable();
                e.dedup();
            }
            // What a barostatted run does between a build and a checkpoint.
            let moved: Vec<V3> = x.iter().map(|&p| p * rescale + Vec3::splat(drift)).collect();
            let later_box = bx.scaled(rescale);

            let mut saved_bytes: Option<Vec<u8>> = None;
            for padding in [0, 8] {
                for threads in [1, 3] {
                    let what = format!("padding {padding}, {threads} threads");
                    let mut nl = NeighborList::new(2.0, 0.4, kind);
                    nl.set_padding(padding).unwrap();
                    nl.set_threads(threads);
                    nl.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
                    nl.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
                    let stale = nl.needs_rebuild(&moved, &later_box);
                    if !stale {
                        nl.note_skipped_check();
                    }
                    let mut w = wire::Writer::new();
                    nl.state_save(&mut w);
                    let bytes = w.into_bytes();
                    // Neither the layout nor the thread count reaches the wire.
                    prop_assert_eq!(saved_bytes.get_or_insert_with(|| bytes.clone()), &bytes);

                    let mut restored = NeighborList::new(2.0, 0.4, kind);
                    restored.set_padding(padding).unwrap();
                    restored.set_threads(threads);
                    let mut r = wire::Reader::new(&bytes, "neighbor test");
                    restored.state_load(&mut r, n, |i| excl[i].as_slice()).unwrap();
                    prop_assert!(r.is_exhausted());
                    prop_assert_eq!(rows_of(&restored), rows_of(&nl), "rows: {}", what);
                    prop_assert_eq!(restored.stats(), nl.stats(), "stats: {}", what);
                    prop_assert_eq!(restored.stats().builds, 2);
                    prop_assert_eq!(restored.ago(), nl.ago());
                    prop_assert_eq!(restored.needs_rebuild(&moved, &later_box), stale);
                }
            }
        }
    }

    #[test]
    fn row_ranges_walk_the_pages_as_the_rows_lie() {
        let bx = SimBox::cubic(10.0);
        let x = random_positions(301, 10.0, 31);
        for threads in [1, 2, 3, 7] {
            for padding in [0, 8] {
                let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
                nl.set_threads(threads);
                nl.set_padding(padding).unwrap();
                nl.build(&x, &bx).unwrap();
                let want = rows_of(&nl);
                // Whole, empty, inside one page and across page boundaries.
                let modes: &[bool] = if padding > 1 {
                    &[false, true]
                } else {
                    &[false]
                };
                for atoms in [0..301, 0..0, 40..41, 42..99, 99..250, 150..301] {
                    for &padded in modes {
                        let got: Vec<_> = nl.rows(atoms.clone(), padded).collect();
                        let expected: Vec<_> = atoms
                            .clone()
                            .map(|i| (i, if padded { want[i].1 } else { want[i].0 }))
                            .collect();
                        assert_eq!(got, expected, "{threads} threads, {atoms:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn page_past_the_row_index_is_refused() {
        let bx = SimBox::cubic(10.0);
        let x = random_positions(200, 10.0, 8);
        for threads in [1, 2] {
            let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
            nl.set_threads(threads);
            nl.build(&x, &bx).unwrap();
            let biggest = nl.pages.iter().map(|p| p.entries.len()).max().unwrap();
            let plain = |nl: &NeighborList| -> Vec<Vec<u32>> {
                (0..nl.natoms()).map(|i| nl.neighbors(i).to_vec()).collect()
            };
            let before = plain(&nl);
            // Padding that takes a page past the limit leaves the list as it was.
            nl.page_limit = biggest;
            let err = nl.set_padding(8).unwrap_err();
            assert!(matches!(err, CoreError::NeighborPageFull { entries } if entries > biggest));
            assert_eq!(nl.padding(), 0);
            assert_eq!(plain(&nl), before, "{threads} threads");
            // A build past it stops, and leaves the list empty.
            nl.page_limit = biggest - 1;
            let err = nl.build(&x, &bx).unwrap_err();
            assert!(matches!(err, CoreError::NeighborPageFull { entries } if entries >= biggest));
            assert_eq!(nl.natoms(), 0, "{threads} threads");
        }
    }

    #[test]
    fn exclusions_remove_pairs() {
        let bx = SimBox::cubic(10.0);
        let x = vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(1.5, 1.0, 1.0)];
        let mut nl = NeighborList::new(2.0, 0.0, NeighborListKind::Half);
        nl.build(&x, &bx).unwrap();
        assert_eq!(nl.len(), 1);
        let excl: Vec<Vec<u32>> = vec![vec![1], vec![0]];
        nl.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
        assert_eq!(nl.len(), 0);
    }
}
