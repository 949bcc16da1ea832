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
//! The build is shared-memory parallel when [`NeighborList::set_threads`]
//! asks for more than one thread: binning stays serial (it defines the
//! within-cell LIFO walk order), the per-atom candidate search fans out over
//! contiguous atom stripes, and the per-stripe results are concatenated in
//! stripe order. Because the search is pure integer/comparison work and each
//! atom's neighbor row depends only on the (serial) bin structure, the
//! threaded build is **bitwise identical** to the serial one at any thread
//! count — no `deterministic` toggle is needed here, unlike the
//! floating-point reductions in `md-potentials::threaded` and `md-kspace`.

use crate::error::{CoreError, Result};
use crate::simbox::SimBox;
use crate::wire;
use crate::V3;

/// Whether each pair is listed once (half) or from both atoms (full).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NeighborListKind {
    /// Each `{i, j}` pair appears once, on the lower-indexed atom.
    Half,
    /// Each `{i, j}` pair appears in both atoms' lists.
    Full,
}

/// Build/usage statistics, reported by Table 2 and consumed by the
/// performance models.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
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
    stats: NeighborBuildStats,
    threads: usize,
    /// Lane width rows are padded to (0 = disabled).
    padding: usize,
    /// Persistent binning scratch (cell heads + intrusive next links):
    /// reused across rebuilds so a steady-state serial build allocates
    /// nothing.
    bin_head: Vec<u32>,
    bin_next: Vec<u32>,
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
            stats: NeighborBuildStats::default(),
            threads: 1,
            padding: 0,
            bin_head: Vec::new(),
            bin_next: Vec::new(),
            stripe_bufs: Vec::new(),
        }
    }

    /// Sets the worker-thread count for subsequent builds (1 = serial).
    /// The threaded build produces bitwise-identical lists at any count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Worker threads used for builds.
    pub fn threads(&self) -> usize {
        self.threads
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

    /// Checks the displacement trigger and rebuilds (with exclusions) if needed.
    ///
    /// Returns `true` when a rebuild happened.
    ///
    /// # Errors
    ///
    /// Propagates [`NeighborList::build_with`] errors.
    pub fn check_and_build<'a>(
        &mut self,
        x: &[V3],
        bx: &SimBox,
        exclusions: impl Fn(usize) -> &'a [u32] + Sync,
    ) -> Result<bool> {
        if self.needs_rebuild(x, bx) {
            self.build_with(x, bx, exclusions)?;
            Ok(true)
        } else {
            self.stats.skipped_checks += 1;
            Ok(false)
        }
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
        let lengths = bx.lengths();

        // Bin geometry: cells at least `range` wide so only 27 cells are searched.
        let mut ncell = [1usize; 3];
        for d in 0..3 {
            ncell[d] = ((lengths[d] / range).floor() as usize).max(1);
        }
        let ncells = ncell[0] * ncell[1] * ncell[2];

        // Count-then-fill binning.
        let cell_of = |p: V3| -> usize {
            let f = bx.fractional(p);
            let mut c = [0usize; 3];
            for d in 0..3 {
                let fd = f[d].clamp(0.0, 1.0 - 1e-12);
                c[d] = ((fd * ncell[d] as f64) as usize).min(ncell[d] - 1);
            }
            (c[2] * ncell[1] + c[1]) * ncell[0] + c[0]
        };
        // Persistent binning scratch: clear + resize reuses capacity, so a
        // steady-state build performs no allocation here.
        let mut bin_head = std::mem::take(&mut self.bin_head);
        let mut bin_next = std::mem::take(&mut self.bin_next);
        bin_head.clear();
        bin_head.resize(ncells, u32::MAX);
        bin_next.clear();
        bin_next.resize(n, u32::MAX);
        for (i, &p) in x.iter().enumerate() {
            let c = cell_of(p);
            bin_next[i] = bin_head[c];
            bin_head[c] = i as u32;
        }

        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.neigh.clear();
        self.row_ends.clear();
        self.offsets.push(0);
        let lanes = self.padding;
        let sentinel = n as u32;

        let half = self.kind == NeighborListKind::Half;
        // With fewer than 3 cells on a periodic axis, distinct (dx,dy,dz)
        // offsets alias to the same cell and candidates repeat; dedupe then.
        let needs_dedup = (0..3).any(|d| ncell[d] < 3 && bx.is_periodic(d));

        // The per-atom candidate search, shared by the serial and threaded
        // paths. Appends atom `i`'s neighbor row to `scratch` (in the bin
        // walk order set by the serial binning above) and returns how many
        // of the row's pairs fall within the bare cutoff.
        let head = &bin_head;
        let next = &bin_next;
        let exclusions = &exclusions;
        let search = move |i: usize, scratch: &mut Vec<u32>| -> usize {
            let mut wc = 0usize;
            let xi = x[i];
            let f = bx.fractional(xi);
            let mut ci = [0usize; 3];
            for d in 0..3 {
                let fd = f[d].clamp(0.0, 1.0 - 1e-12);
                ci[d] = ((fd * ncell[d] as f64) as usize).min(ncell[d] - 1);
            }
            let row_start = scratch.len();
            let excl = exclusions(i);
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
                        let mut j = head[cell];
                        while j != u32::MAX {
                            let ju = j as usize;
                            if ju != i && (!half || ju > i) {
                                let d = bx.min_image(x[ju], xi);
                                let r2 = d.norm2();
                                if r2 < range2
                                    && (excl.is_empty() || excl.binary_search(&j).is_err())
                                    && (!needs_dedup || !scratch[row_start..].contains(&j))
                                {
                                    scratch.push(j);
                                    if r2 < cut2 {
                                        wc += 1;
                                    }
                                }
                            }
                            j = next[ju];
                        }
                    }
                }
            }
            wc
        };

        let t = self.threads.min(n.max(1));
        if t > 1 {
            // Stripe the atom range across threads; each worker fills a
            // persistent private (row lengths, neighbors) buffer.
            // Concatenating in stripe order reproduces the serial layout
            // exactly, so the stripe width never affects the result.
            let stripe = n.div_ceil(t);
            let mut bufs = std::mem::take(&mut self.stripe_bufs);
            if bufs.len() < t {
                bufs.resize_with(t, StripeBuf::default);
            }
            crossbeam::thread::scope(|s| {
                let mut handles = Vec::with_capacity(t);
                for (k, buf) in bufs.iter_mut().take(t).enumerate() {
                    let lo = k * stripe;
                    let hi = ((k + 1) * stripe).min(n);
                    let search = &search;
                    handles.push(s.spawn(move |_| {
                        buf.lens.clear();
                        buf.neigh.clear();
                        buf.wc = 0;
                        for i in lo..hi {
                            let row_start = buf.neigh.len();
                            buf.wc += search(i, &mut buf.neigh);
                            buf.lens.push(buf.neigh.len() - row_start);
                            if lanes != 0 {
                                pad_row(&mut buf.neigh, row_start, lanes, sentinel);
                            }
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("neighbor build worker panicked");
                }
            })
            .expect("neighbor build scope panicked");
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
        self.bin_head = bin_head;
        self.bin_next = bin_next;

        self.x_at_build.clear();
        self.x_at_build.extend_from_slice(x);
        self.stats.builds += 1;
        let pairs = if lanes == 0 {
            self.neigh.len()
        } else {
            let starts = self.offsets.iter();
            self.row_ends.iter().zip(starts).map(|(e, s)| e - s).sum()
        };
        self.stats.pairs = pairs;
        self.stats.pairs_within_cutoff = within_cut;
        self.stats.cells = ncells;
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
    /// Appends the list's full dynamic state for a checkpoint: the flattened
    /// unpadded rows (the same bytes whether padding is on or off), the
    /// reference positions of the rebuild trigger, and the statistics.
    /// `x_at_build` is what makes resume bitwise-faithful — a fresh rebuild
    /// at restore time would reset the displacement trigger and shift every
    /// subsequent rebuild, changing summation orders.
    pub fn state_save(&self, w: &mut wire::Writer) {
        if self.padding == 0 {
            w.usizes(&self.offsets);
            w.u32s(&self.neigh);
        } else {
            let (offsets, neigh, _) = self.layout(0);
            w.usizes(&offsets);
            w.u32s(&neigh);
        }
        w.v3s(&self.x_at_build);
        w.usize(self.stats.builds);
        w.usize(self.stats.skipped_checks);
        w.usize(self.stats.pairs);
        w.usize(self.stats.pairs_within_cutoff);
        w.f64(self.stats.neighbors_per_atom);
        w.f64(self.stats.neighbors_within_cutoff);
        w.usize(self.stats.cells);
    }

    /// Restores state written by [`NeighborList::state_save`] onto a list
    /// created with the same cutoff/skin/kind (the deck rebuild provides
    /// those).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptState`] on a malformed or internally
    /// inconsistent blob.
    pub fn state_load(&mut self, r: &mut wire::Reader<'_>) -> Result<()> {
        let offsets = r.usizes()?;
        let neigh = r.u32s()?;
        let x_at_build = r.v3s()?;
        let corrupt = |detail: String| CoreError::CorruptState {
            what: "neighbor list",
            detail,
        };
        if offsets.first() != Some(&0) {
            return Err(corrupt("offsets must start at 0".to_string()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("offsets must be monotone".to_string()));
        }
        if *offsets.last().expect("nonempty") != neigh.len() {
            return Err(corrupt(format!(
                "offsets cover {} entries but {} are stored",
                offsets.last().expect("nonempty"),
                neigh.len()
            )));
        }
        if x_at_build.len() + 1 != offsets.len() {
            return Err(corrupt(format!(
                "{} reference positions for {} atoms",
                x_at_build.len(),
                offsets.len() - 1
            )));
        }
        let natoms = x_at_build.len() as u32;
        if neigh.iter().any(|&j| j >= natoms) {
            return Err(corrupt("neighbor index out of range".to_string()));
        }
        let stats = NeighborBuildStats {
            builds: r.usize()?,
            skipped_checks: r.usize()?,
            pairs: r.usize()?,
            pairs_within_cutoff: r.usize()?,
            neighbors_per_atom: r.f64()?,
            neighbors_within_cutoff: r.f64()?,
            cells: r.usize()?,
        };
        if stats.pairs != neigh.len() {
            return Err(corrupt(format!(
                "statistics count {} pairs but {} are stored",
                stats.pairs,
                neigh.len()
            )));
        }
        // The blob holds unpadded rows; re-pad them to this list's width.
        let lanes = std::mem::take(&mut self.padding);
        self.offsets = offsets;
        self.neigh = neigh;
        self.row_ends.clear();
        self.x_at_build = x_at_build;
        self.stats = stats;
        self.set_padding(lanes);
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

    #[test]
    fn padding_survives_rebuild_and_state_round_trip() {
        let bx = SimBox::cubic(10.0);
        let x = random_positions(120, 10.0, 23);
        let mut nl = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        nl.set_padding(4);
        nl.build(&x, &bx).unwrap();
        nl.build(&x, &bx).unwrap(); // a rebuild writes padded rows again
        assert_eq!(nl.padded_neighbors(0).len() % 4, 0);

        let mut w = wire::Writer::new();
        nl.state_save(&mut w);
        let bytes = w.into_bytes();
        // The wire rows are unpadded: the same bytes as with padding off.
        let mut plain = nl.clone();
        plain.set_padding(0);
        let mut w = wire::Writer::new();
        plain.state_save(&mut w);
        assert_eq!(bytes, w.into_bytes());

        let mut restored = NeighborList::new(2.0, 0.4, NeighborListKind::Half);
        restored.set_padding(4);
        let mut r = wire::Reader::new(&bytes, "neighbor test");
        restored.state_load(&mut r).unwrap();
        assert_eq!(restored.padding(), 4);
        assert_eq!(restored.len(), nl.len());
        for i in 0..nl.natoms() {
            assert_eq!(nl.neighbors(i), restored.neighbors(i));
            assert_eq!(nl.padded_neighbors(i), restored.padded_neighbors(i));
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
