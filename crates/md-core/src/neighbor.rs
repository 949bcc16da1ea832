//! Cell-binned Verlet neighbor lists with a skin distance.
//!
//! LAMMPS (Section 2 of the paper) tracks, for each atom, all partners within
//! `cutoff + skin`; the *skin* allows reusing a list across several timesteps
//! and rebuilding only when some atom has moved more than half the skin.
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
//! arrays. A cell's members are then one contiguous run, and the search of an
//! atom is at most 27 linear scans over packed coordinates instead of 27
//! pointer chases through the position array.
//!
//! Inside a cell the members are stored in **descending** atom index. That
//! is the order in which the per-cell linked lists this module used to build
//! were walked (last in, first out), and the order inside a neighbor row
//! decides the summation order of every force kernel: keeping it keeps every
//! trajectory, checkpoint and baseline bit for bit. It also makes the `j > i`
//! candidates of a half list a prefix of each run, found by bisection, so
//! the other half of the run is never looked at.
//!
//! The minimum-image correction stays in the scan, candidate by candidate,
//! with the comparisons and the `± L` of [`SimBox::min_image`]. Shifting a
//! whole cell's coordinates once would be cheaper, but `(xj + L) - xi` and
//! `(xj - xi) + L` round differently, and a pair whose squared distance
//! lands on the other side of `(cutoff + skin)²` would enter or leave a row.
//! For the same reason the stencil is the full 27 cells in `dz, dy, dx`
//! order for half lists too: a half stencil would change which row owns a
//! pair. What the scan does shed is the branches — distances are computed
//! four candidates at a time in vector registers, and a survivor is
//! appended by writing every candidate at the row's cursor and advancing the
//! cursor only for a survivor; the exclusion lookup runs over survivors only.
//!
//! All of the binning scratch persists in the list, so a steady-state build
//! allocates nothing (`tests/neighbor_alloc.rs`).
//!
//! The build is shared-memory parallel when [`NeighborList::set_threads`]
//! asks for more than one thread: binning stays serial (it fixes the order
//! inside every cell), the per-atom candidate search fans out over
//! contiguous atom stripes ([`crate::threads::fork_join`], span
//! `neigh_build`), and the per-stripe results are concatenated in stripe
//! order. Because each atom's neighbor row depends only on the
//! (serial) bin structure and on per-pair arithmetic that no thread shares,
//! the threaded build is **bitwise identical** to the serial one at any
//! thread count — no `deterministic` toggle is needed here, unlike the
//! floating-point reductions in `md-potentials::threaded` and `md-kspace`.

use crate::error::{CoreError, Result};
use crate::simbox::SimBox;
use crate::threads::{fork_join, Threads};
use crate::wire;
use crate::V3;
use md_observe::Recorder;

/// Whether each pair is listed once (half) or from both atoms (full).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborListKind {
    /// Each `{i, j}` pair appears once, on the lower-indexed atom.
    Half,
    /// Each `{i, j}` pair appears in both atoms' lists.
    Full,
}

/// Build/usage statistics, reported by Table 2 and consumed by the
/// performance models.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NeighborBuildStats {
    /// Number of times the list was (re)built.
    pub builds: usize,
    /// Number of timestep-boundary checks that did *not* trigger a rebuild.
    pub skipped_checks: usize,
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
    /// Cells in the binning grid at the last build.
    pub cells: usize,
}

/// Per-worker scratch for the threaded build, kept across rebuilds so
/// steady-state builds stop allocating row storage.
#[derive(Debug, Clone, Default)]
struct StripeBuf {
    lens: Vec<usize>,
    neigh: Vec<u32>,
    wc: usize,
}

/// Pads the row that starts at `start` and ends `neigh` with `sentinel` up to
/// a multiple of `lanes`, and returns where its real entries end. Empty rows
/// stay empty.
fn pad_row(neigh: &mut Vec<u32>, start: usize, lanes: usize, sentinel: u32) -> usize {
    let end = neigh.len();
    neigh.resize(start + (end - start).next_multiple_of(lanes), sentinel);
    end
}

/// Candidates whose distances the scan computes at a time, in a fixed-size
/// block the compiler turns into vector code (two SSE2 or one AVX register
/// of `f64`). The packed coordinate arrays end in this many padding slots.
const CHUNK: usize = 4;

/// The cell coordinates that the offsets `-1, 0, +1` around `c` reach on an
/// axis of `n` cells, in that order, and how many there are. A periodic axis
/// wraps; with fewer than 3 cells its offsets alias (`n == 2`: `+1` is the
/// cell `-1` reached; `n == 1`: all three are cell 0) and only the first
/// visit is kept, since a second visit of a cell can only re-find the same
/// partners. A non-periodic axis drops the offsets that leave the grid.
#[inline(always)]
fn stencil_axis(c: usize, n: usize, periodic: bool) -> ([usize; 3], usize) {
    if periodic {
        let below = if c == 0 { n - 1 } else { c - 1 };
        let above = if c + 1 == n { 0 } else { c + 1 };
        ([below, c, above], n.min(3))
    } else {
        let mut cells = [0usize; 3];
        let mut len = 0;
        if c > 0 {
            cells[len] = c - 1;
            len += 1;
        }
        cells[len] = c;
        len += 1;
        if c + 1 < n {
            cells[len] = c + 1;
            len += 1;
        }
        (cells, len)
    }
}

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
    /// Box length per axis, and half of it: the two constants of
    /// [`SimBox::min_image`]. A non-periodic axis gets an infinite half
    /// length, so neither comparison ever fires and its displacement stays
    /// untouched.
    wrap: [f64; 3],
    half_len: [f64; 3],
    half: bool,
    range2: f64,
    cut2: f64,
}

impl<'a> RowScan<'a> {
    fn new(
        bins: &'a CellBins,
        x: &'a [V3],
        bx: &'a SimBox,
        kind: NeighborListKind,
        range2: f64,
        cut2: f64,
    ) -> Self {
        let lengths = bx.lengths();
        let mut wrap = [0.0f64; 3];
        let mut half_len = [f64::INFINITY; 3];
        for d in 0..3 {
            if bx.is_periodic(d) {
                wrap[d] = lengths[d];
                half_len[d] = 0.5 * lengths[d];
            }
        }
        RowScan {
            bins,
            x,
            bx,
            wrap,
            half_len,
            half: kind == NeighborListKind::Half,
            range2,
            cut2,
        }
    }

    /// The minimum-image correction of [`SimBox::min_image`] on one axis:
    /// the same comparisons against `0.5 * L` and the same `- L` / `+ L`, so
    /// the squared distance has the same bits and every `r2 < range2` decides
    /// as it would there. Written as two selects of a constant instead of an
    /// if/else chain so the compiler can correct [`CHUNK`] candidates at a
    /// time; the `0.0` an uncorrected displacement gets added cannot change
    /// its square.
    #[inline(always)]
    fn min_image(&self, d: f64, axis: usize) -> f64 {
        let down = if d > self.half_len[axis] {
            self.wrap[axis]
        } else {
            0.0
        };
        let up = if d < -self.half_len[axis] {
            self.wrap[axis]
        } else {
            0.0
        };
        d - down + up
    }

    /// Appends atom `i`'s neighbor row to `scratch` — stencil cells in
    /// `dz, dy, dx` order, each cell's members in descending index, partners
    /// in the sorted slice `excl` dropped — and returns how many of the row's
    /// pairs fall within the bare cutoff.
    fn append_row(&self, i: usize, excl: &[u32], scratch: &mut Vec<u32>) -> usize {
        let bins = self.bins;
        let ncell = bins.ncell;
        let (range2, cut2) = (self.range2, self.cut2);
        let xi = self.x[i];
        let iu = i as u32;
        let c = bins.atom_cell[i] as usize;
        let (cx, cyz) = (c % ncell[0], c / ncell[0]);
        let (cy, cz) = (cyz % ncell[1], cyz / ncell[1]);
        let (xs, nxs) = stencil_axis(cx, ncell[0], self.bx.is_periodic(0));
        let (ys, nys) = stencil_axis(cy, ncell[1], self.bx.is_periodic(1));
        let (zs, nzs) = stencil_axis(cz, ncell[2], self.bx.is_periodic(2));

        // The runs of packed slots to scan, one per stencil cell, as (first
        // slot, length).
        let mut runs = [(0usize, 0usize); 27];
        let mut nruns = 0;
        let mut candidates = 0;
        for &z in &zs[..nzs] {
            for &y in &ys[..nys] {
                let row = (z * ncell[1] + y) * ncell[0];
                for &xc in &xs[..nxs] {
                    let lo = bins.cell_start[row + xc] as usize;
                    let hi = bins.cell_start[row + xc + 1] as usize;
                    // Members run in descending index, so a half list's
                    // `j > i` candidates are a prefix of the run.
                    let len = if self.half {
                        bins.cell_atoms[lo..hi].partition_point(|&j| j > iu)
                    } else {
                        hi - lo
                    };
                    runs[nruns] = (lo, len);
                    nruns += 1;
                    candidates += len;
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
        for &(lo, len) in &runs[..nruns] {
            let end = lo + len;
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
                    let dx = self.min_image(px[k] - xi.x, 0);
                    let dy = self.min_image(py[k] - xi.y, 1);
                    let dz = self.min_image(pz[k] - xi.z, 2);
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

        if !excl.is_empty() {
            // Exclusions are few and survivors a small share of the
            // candidates, so they are taken out of the finished row; an
            // excluded survivor's distance is recomputed to take it out of
            // the within-cutoff count.
            let mut kept = row_start;
            for r in row_start..scratch.len() {
                let j = scratch[r];
                if excl.binary_search(&j).is_err() {
                    scratch[kept] = j;
                    kept += 1;
                } else if self.bx.min_image(self.x[j as usize], xi).norm2() < cut2 {
                    within_cut -= 1;
                }
            }
            scratch.truncate(kept);
        }
        within_cut
    }
}

/// A Verlet neighbor list built through cell binning.
#[derive(Debug, Clone)]
pub struct NeighborList {
    cutoff: f64,
    skin: f64,
    kind: NeighborListKind,
    /// Row starts into `neigh`, `natoms + 1` long.
    offsets: Vec<usize>,
    /// The one row storage. With padding on, every non-empty row is followed
    /// by sentinel entries (`natoms`) up to a multiple of `padding`, so the
    /// lane kernels iterate full blocks with no tail loop.
    neigh: Vec<u32>,
    /// With padding on, where each row's real entries end (`natoms` long);
    /// empty with padding off, where a row ends at the next row's start.
    row_ends: Vec<usize>,
    x_at_build: Vec<V3>,
    /// The box the last build binned in (`None` before the first build).
    /// Under a barostat it is not the current box, and together with
    /// `x_at_build` and the exclusions it is everything the rows derive from.
    box_at_build: Option<SimBox>,
    stats: NeighborBuildStats,
    threads: Threads,
    /// Where the threaded build's workers record their spans.
    recorder: Recorder,
    /// Lane width rows are padded to (0 = disabled).
    padding: usize,
    /// The last build's binning, kept for its storage: reused across
    /// rebuilds so a steady-state serial build allocates nothing.
    bins: CellBins,
    /// Persistent per-worker stripe buffers for the threaded build.
    stripe_bufs: Vec<StripeBuf>,
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
            offsets: vec![0],
            neigh: Vec::new(),
            row_ends: Vec::new(),
            x_at_build: Vec::new(),
            box_at_build: None,
            stats: NeighborBuildStats::default(),
            threads: Threads::serial(),
            recorder: Recorder::disabled(),
            padding: 0,
            bins: CellBins::default(),
            stripe_bufs: Vec::new(),
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
    /// `lanes <= 1`, removes the padding), laying the current rows out anew.
    /// Once set, every subsequent build writes its rows padded.
    pub fn set_padding(&mut self, lanes: usize) {
        let lanes = if lanes <= 1 { 0 } else { lanes };
        if lanes != self.padding {
            (self.offsets, self.neigh, self.row_ends) = self.layout(lanes);
            self.padding = lanes;
        }
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

    /// The padded neighbor row of atom `i`: `neighbors(i)` followed in place
    /// by sentinel entries up to a multiple of [`NeighborList::padding`].
    /// Empty rows stay empty. Only valid after `set_padding(>= 2)`.
    #[inline(always)]
    pub fn padded_neighbors(&self, i: usize) -> &[u32] {
        debug_assert!(self.padding > 1, "padding not enabled");
        &self.neigh[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The current rows laid out with padding `lanes` (0 = none), as
    /// `(offsets, neigh, row_ends)`.
    fn layout(&self, lanes: usize) -> (Vec<usize>, Vec<u32>, Vec<usize>) {
        let n = self.natoms();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neigh = Vec::with_capacity(self.neigh.len());
        let mut row_ends = Vec::with_capacity(if lanes == 0 { 0 } else { n });
        offsets.push(0);
        for i in 0..n {
            let start = neigh.len();
            neigh.extend_from_slice(self.neighbors(i));
            if lanes != 0 {
                row_ends.push(pad_row(&mut neigh, start, lanes, n as u32));
            }
            offsets.push(neigh.len());
        }
        (offsets, neigh, row_ends)
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

    /// The box the last build binned in (`None` before the first build).
    pub fn box_at_build(&self) -> Option<SimBox> {
        self.box_at_build
    }

    /// The neighbor slice of atom `i` (with padding on, the unpadded prefix
    /// of [`NeighborList::padded_neighbors`]).
    #[inline(always)]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let end = if self.padding == 0 {
            self.offsets[i + 1]
        } else {
            self.row_ends[i]
        };
        &self.neigh[self.offsets[i]..end]
    }

    /// Number of atoms the list was last built for.
    pub fn natoms(&self) -> usize {
        self.offsets.len().saturating_sub(1)
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

    /// Counts one timestep-boundary check that found [`needs_rebuild`]
    /// false and kept the list.
    ///
    /// [`needs_rebuild`]: NeighborList::needs_rebuild
    pub(crate) fn note_skipped_check(&mut self) {
        self.stats.skipped_checks += 1;
    }

    /// Unconditionally rebuilds the list with no exclusions.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CutoffTooLarge`] if `cutoff + skin`
    /// exceeds half the smallest periodic box extent.
    pub fn build(&mut self, x: &[V3], bx: &SimBox) -> Result<()> {
        self.build_with(x, bx, |_| &[])
    }

    /// Unconditionally rebuilds the list, dropping pairs reported by
    /// `exclusions(i)` (a sorted slice of excluded partners of atom `i`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CutoffTooLarge`] if `cutoff + skin`
    /// exceeds half the smallest periodic box extent.
    pub fn build_with<'a>(
        &mut self,
        x: &[V3],
        bx: &SimBox,
        exclusions: impl Fn(usize) -> &'a [u32] + Sync,
    ) -> Result<()> {
        let range = self.cutoff + self.skin;
        bx.check_interaction_range(range)?;
        let n = x.len();
        let range2 = range * range;
        let cut2 = self.cutoff * self.cutoff;
        let mut within_cut = 0usize;

        self.bins.fill(x, bx, range);

        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.neigh.clear();
        self.row_ends.clear();
        self.offsets.push(0);
        let lanes = self.padding;
        let sentinel = n as u32;

        // The per-atom candidate search, shared by the serial and threaded
        // paths: appends atom `i`'s neighbor row to `scratch` and returns how
        // many of the row's pairs fall within the bare cutoff.
        let scan = RowScan::new(&self.bins, x, bx, self.kind, range2, cut2);
        let search = |i: usize, scratch: &mut Vec<u32>| scan.append_row(i, exclusions(i), scratch);

        // This site keeps a serial branch instead of running one part
        // inline: rows are variable-length, so workers cannot write into
        // `self.neigh` where the rows will end up. The threaded form fills
        // private stripe buffers and copies them into place; one thread
        // writes in place and pays neither the buffers nor the copy (serial
        // `lj_melt`: ~4.8 MB per rebuild, a third of its peak RSS).
        let t = self.threads.count.min(n.max(1));
        if t > 1 {
            // Stripe the atom range across threads; each worker fills a
            // persistent private (row lengths, neighbors) buffer.
            // Concatenating in stripe order reproduces the serial layout
            // exactly, so the stripe width never affects the result.
            let stripe = self.threads.stripe(n);
            let mut bufs = std::mem::take(&mut self.stripe_bufs);
            if bufs.len() < t {
                bufs.resize_with(t, StripeBuf::default);
            }
            let stripes = bufs.iter_mut().take(t);
            fork_join(stripes, &self.recorder, "neigh_build", |k, buf| {
                buf.lens.clear();
                buf.neigh.clear();
                buf.wc = 0;
                for i in k * stripe..((k + 1) * stripe).min(n) {
                    let row_start = buf.neigh.len();
                    buf.wc += search(i, &mut buf.neigh);
                    buf.lens.push(buf.neigh.len() - row_start);
                    if lanes != 0 {
                        pad_row(&mut buf.neigh, row_start, lanes, sentinel);
                    }
                }
            });
            for buf in bufs.iter().take(t) {
                within_cut += buf.wc;
                let mut off = self.neigh.len();
                for &l in &buf.lens {
                    if lanes != 0 {
                        self.row_ends.push(off + l);
                        off += l.next_multiple_of(lanes);
                    } else {
                        off += l;
                    }
                    self.offsets.push(off);
                }
                self.neigh.extend_from_slice(&buf.neigh);
            }
            self.stripe_bufs = bufs;
        } else {
            for i in 0..n {
                let row_start = self.neigh.len();
                within_cut += search(i, &mut self.neigh);
                if lanes != 0 {
                    let end = pad_row(&mut self.neigh, row_start, lanes, sentinel);
                    self.row_ends.push(end);
                }
                self.offsets.push(self.neigh.len());
            }
        }

        self.x_at_build.clear();
        self.x_at_build.extend_from_slice(x);
        self.box_at_build = Some(*bx);
        self.stats.builds += 1;
        let pairs = if lanes == 0 {
            self.neigh.len()
        } else {
            let starts = self.offsets.iter();
            self.row_ends.iter().zip(starts).map(|(e, s)| e - s).sum()
        };
        self.stats.pairs = pairs;
        self.stats.pairs_within_cutoff = within_cut;
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
        self.stats.neighbors_within_cutoff = per_atom(within_cut as f64);
        Ok(())
    }

    /// Appends the list's checkpoint state: the inputs of its last build —
    /// the positions and the box it binned — and the counters. The rows
    /// themselves are not written: [`NeighborList::build_with`] returns the
    /// same rows bit for bit from the same inputs at any thread count and
    /// padding, so [`NeighborList::state_load`] rebuilds them. Keeping
    /// `x_at_build` (rather than rebuilding from the positions at restore
    /// time) is what keeps a resume bitwise-faithful: it is the reference of
    /// the displacement trigger, and a moved reference would shift every
    /// later rebuild and with it the summation orders.
    pub fn state_save(&self, w: &mut wire::Writer) {
        w.v3s(&self.x_at_build);
        w.bool(self.box_at_build.is_some());
        if let Some(bx) = &self.box_at_build {
            bx.state_save(w);
        }
        w.usize(self.stats.builds);
        w.usize(self.stats.skipped_checks);
        w.usize(self.stats.pairs);
        w.usize(self.stats.pairs_within_cutoff);
        w.usize(self.stats.cells);
    }

    /// Restores state written by [`NeighborList::state_save`] onto a list
    /// created with the same cutoff/skin/kind (the deck rebuild provides
    /// those) by running the build on the saved inputs, with this list's
    /// thread count and padding and the caller's `exclusions` (as for
    /// [`NeighborList::build_with`], in the atom order of the saved
    /// positions, of which there must be `natoms`). The saved counters are
    /// put back, so the rebuild does not count as a build.
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
        let (builds, skipped_checks) = (r.usize()?, r.usize()?);
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

    /// The build as it was before the counting sort, kept as the oracle of
    /// `build_equals_linked_list_reference`: atoms pushed onto per-cell
    /// linked lists (so a cell is walked last-in first-out, i.e. in
    /// descending index), all 27 stencil offsets visited with `rem_euclid`
    /// wrapping, every candidate put through [`SimBox::min_image`], and cells
    /// that alias on a short periodic axis deduplicated candidate by
    /// candidate. Returns the rows, the pairs within the bare cutoff and the
    /// cell count.
    fn reference_rows(
        x: &[V3],
        bx: &SimBox,
        cutoff: f64,
        skin: f64,
        kind: NeighborListKind,
        excl: &[Vec<u32>],
    ) -> (Vec<Vec<u32>>, usize, usize) {
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
        let mut within_cut = 0usize;
        let mut rows = Vec::with_capacity(x.len());
        for (i, &xi) in x.iter().enumerate() {
            let ci = cell_coords(xi);
            let mut row: Vec<u32> = Vec::new();
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
                            if ju != i && (!half || ju > i) {
                                let r2 = bx.min_image(x[ju], xi).norm2();
                                if r2 < range2
                                    && excl[i].binary_search(&j).is_err()
                                    && (!needs_dedup || !row.contains(&j))
                                {
                                    row.push(j);
                                    if r2 < cut2 {
                                        within_cut += 1;
                                    }
                                }
                            }
                            j = bin_next[ju];
                        }
                    }
                }
            }
            rows.push(row);
        }
        (rows, within_cut, ncells)
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

            let (rows, within_cut, ncells) = reference_rows(&x, &bx, cutoff, skin, kind, &excl);
            let pairs: usize = rows.iter().map(Vec::len).sum();
            let per_atom = |directed: usize| match (n, kind) {
                (0, _) => 0.0,
                (_, NeighborListKind::Half) => 2.0 * directed as f64 / n as f64,
                (_, NeighborListKind::Full) => directed as f64 / n as f64,
            };
            let stats = NeighborBuildStats {
                builds: 1,
                skipped_checks: 0,
                pairs,
                pairs_within_cutoff: within_cut,
                neighbors_per_atom: per_atom(pairs),
                neighbors_within_cutoff: per_atom(within_cut),
                cells: ncells,
            };
            for padding in [0, 8] {
                let mut offsets = vec![0];
                let mut neigh = Vec::new();
                let mut row_ends = Vec::new();
                for row in &rows {
                    let start = neigh.len();
                    neigh.extend_from_slice(row);
                    if padding != 0 {
                        row_ends.push(pad_row(&mut neigh, start, padding, n as u32));
                    }
                    offsets.push(neigh.len());
                }
                for threads in [1, 2, 3, 7] {
                    let mut nl = NeighborList::new(cutoff, skin, kind);
                    nl.set_padding(padding);
                    nl.set_threads(threads);
                    nl.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
                    let what = format!("padding {padding}, {threads} threads, {bx}");
                    prop_assert_eq!(&nl.offsets, &offsets, "offsets: {}", what);
                    prop_assert_eq!(&nl.neigh, &neigh, "neigh: {}", what);
                    prop_assert_eq!(&nl.row_ends, &row_ends, "row_ends: {}", what);
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
        serial_padded.set_padding(8);
        serial_padded
            .build_with(&x, &bx, |i| excl[i].as_slice())
            .unwrap();
        for t in [2, 3, 4, 7] {
            for (padding, want) in [(0, &serial), (8, &serial_padded)] {
                let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
                nl.set_threads(t);
                nl.set_padding(padding);
                nl.build_with(&x, &bx, |i| excl[i].as_slice()).unwrap();
                assert_eq!(nl.offsets, want.offsets, "{t} threads: offsets");
                assert_eq!(nl.neigh, want.neigh, "{t} threads: neighbor order");
                assert_eq!(nl.row_ends, want.row_ends, "{t} threads: row ends");
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
        assert_eq!(nl.offsets, s.offsets);
        assert_eq!(nl.neigh, s.neigh);
    }

    #[test]
    fn padded_rows_are_full_blocks_of_the_same_pairs() {
        let bx = SimBox::cubic(10.0);
        let x = random_positions(300, 10.0, 17);
        let mut plain = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        plain.build(&x, &bx).unwrap();
        let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        nl.set_padding(8);
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
        on_demand.set_padding(8);
        assert_eq!(on_demand.offsets, nl.offsets);
        assert_eq!(on_demand.neigh, nl.neigh);
        assert_eq!(on_demand.row_ends, nl.row_ends);
        on_demand.set_padding(0);
        assert_eq!(on_demand.padding(), 0);
        assert_eq!(on_demand.offsets, plain.offsets);
        assert_eq!(on_demand.neigh, plain.neigh);
        assert!(on_demand.row_ends.is_empty());
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
                    nl.set_padding(padding);
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
                    restored.set_padding(padding);
                    restored.set_threads(threads);
                    let mut r = wire::Reader::new(&bytes, "neighbor test");
                    restored.state_load(&mut r, n, |i| excl[i].as_slice()).unwrap();
                    prop_assert!(r.is_exhausted());
                    prop_assert_eq!(&restored.offsets, &nl.offsets, "offsets: {}", what);
                    prop_assert_eq!(&restored.neigh, &nl.neigh, "neigh: {}", what);
                    prop_assert_eq!(&restored.row_ends, &nl.row_ends, "row_ends: {}", what);
                    prop_assert_eq!(restored.stats(), nl.stats(), "stats: {}", what);
                    prop_assert_eq!(restored.stats().builds, 2);
                    prop_assert_eq!(restored.needs_rebuild(&moved, &later_box), stale);
                }
            }
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
