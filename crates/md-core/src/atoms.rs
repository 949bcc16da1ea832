//! Structure-of-arrays atom storage plus molecular topology.
//!
//! LAMMPS-style MD engines favor SoA layouts so pairwise kernels stream
//! through coordinate arrays. [`AtomStore`] keeps positions, velocities,
//! forces, per-atom type/charge/radius, image flags, and the bonded topology
//! (bonds, angles, dihedrals) plus special-pair exclusions.

use crate::error::{CoreError, Result};
use crate::kernel::LaneGather;
use crate::simbox::SimBox;
use crate::vec3::Vec3;
use crate::V3;
use std::collections::HashSet;

/// A covalent bond between two atoms, with a per-bond type index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bond {
    /// Bond-type index into the bond style's parameter table.
    pub kind: u32,
    /// First atom index.
    pub i: u32,
    /// Second atom index.
    pub j: u32,
}

/// A three-body angle `i-j-k` centered on `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Angle {
    /// Angle-type index.
    pub kind: u32,
    /// First flank atom.
    pub i: u32,
    /// Central atom.
    pub j: u32,
    /// Second flank atom.
    pub k: u32,
}

/// A four-body dihedral `i-j-k-l` around the `j-k` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dihedral {
    /// Dihedral-type index.
    pub kind: u32,
    /// First atom.
    pub i: u32,
    /// Second atom (axis start).
    pub j: u32,
    /// Third atom (axis end).
    pub k: u32,
    /// Fourth atom.
    pub l: u32,
}

/// SoA storage for all per-atom state and the molecular topology.
///
/// Invariants: all per-atom vectors have identical length; bond/angle/dihedral
/// indices are validated against that length by [`AtomStore::validate`].
#[derive(Debug, Clone, Default)]
pub struct AtomStore {
    x: Vec<V3>,
    v: Vec<V3>,
    f: Vec<V3>,
    kind: Vec<u32>,
    charge: Vec<f64>,
    radius: Vec<f64>,
    image: Vec<[i32; 3]>,
    molecule: Vec<u32>,
    /// Stable per-atom identity: the index each atom had when pushed. The
    /// identity permutation until [`AtomStore::reorder`] runs; afterwards
    /// `id[slot]` names the original atom living in `slot`, which is what
    /// lets checkpoints restore a sorted store onto a freshly built deck.
    id: Vec<u32>,
    mass_by_type: Vec<f64>,
    bonds: Vec<Bond>,
    angles: Vec<Angle>,
    dihedrals: Vec<Dihedral>,
    /// Flattened per-atom exclusion lists (1-2/1-3/1-4 special pairs).
    excl_offsets: Vec<usize>,
    excl_atoms: Vec<u32>,
}

impl AtomStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        AtomStore::default()
    }

    /// Creates an empty store with room for `n` atoms.
    pub fn with_capacity(n: usize) -> Self {
        AtomStore {
            x: Vec::with_capacity(n),
            v: Vec::with_capacity(n),
            f: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            charge: Vec::with_capacity(n),
            radius: Vec::with_capacity(n),
            image: Vec::with_capacity(n),
            molecule: Vec::with_capacity(n),
            ..AtomStore::default()
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the store holds no atoms.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Appends one atom with zero charge/radius and molecule 0; returns its index.
    pub fn push(&mut self, x: V3, v: V3, kind: u32) -> usize {
        self.push_full(x, v, kind, 0.0, 0.0, 0)
    }

    /// Appends one atom with every per-atom attribute; returns its index.
    pub fn push_full(
        &mut self,
        x: V3,
        v: V3,
        kind: u32,
        charge: f64,
        radius: f64,
        molecule: u32,
    ) -> usize {
        self.x.push(x);
        self.v.push(v);
        self.f.push(Vec3::zero());
        self.kind.push(kind);
        self.charge.push(charge);
        self.radius.push(radius);
        self.image.push([0; 3]);
        self.molecule.push(molecule);
        self.id.push(self.x.len() as u32 - 1);
        self.x.len() - 1
    }

    /// Positions (read-only).
    pub fn x(&self) -> &[V3] {
        &self.x
    }

    /// Positions (mutable).
    pub fn x_mut(&mut self) -> &mut [V3] {
        &mut self.x
    }

    /// Velocities (read-only).
    pub fn v(&self) -> &[V3] {
        &self.v
    }

    /// Velocities (mutable).
    pub fn v_mut(&mut self) -> &mut [V3] {
        &mut self.v
    }

    /// Forces (read-only).
    pub fn f(&self) -> &[V3] {
        &self.f
    }

    /// Forces (mutable).
    pub fn f_mut(&mut self) -> &mut [V3] {
        &mut self.f
    }

    /// Per-atom type indices.
    pub fn kinds(&self) -> &[u32] {
        &self.kind
    }

    /// Per-atom charges.
    pub fn charges(&self) -> &[f64] {
        &self.charge
    }

    /// Per-atom charges (mutable).
    pub fn charges_mut(&mut self) -> &mut [f64] {
        &mut self.charge
    }

    /// Per-atom radii (granular styles).
    pub fn radii(&self) -> &[f64] {
        &self.radius
    }

    /// Per-atom radii (mutable).
    pub fn radii_mut(&mut self) -> &mut [f64] {
        &mut self.radius
    }

    /// Per-atom periodic image counters.
    pub fn images(&self) -> &[[i32; 3]] {
        &self.image
    }

    /// Per-atom periodic image counters (mutable).
    pub fn images_mut(&mut self) -> &mut [[i32; 3]] {
        &mut self.image
    }

    /// Per-atom molecule ids.
    pub fn molecules(&self) -> &[u32] {
        &self.molecule
    }

    /// Stable per-atom identities: `ids()[slot]` is the index the atom in
    /// `slot` had when it was pushed (identity until a [`AtomStore::reorder`]).
    pub fn ids(&self) -> &[u32] {
        &self.id
    }

    /// Loads the split `x/y/z/type/charge` lane-gather scratch from this
    /// store's arrays, placing the ghost atom (far outside `bx`) in the
    /// final slot. The scatter/gather view the lane kernels consume.
    pub fn fill_lane_gather(&self, bx: &SimBox, gather: &mut LaneGather) {
        gather.load(
            &self.x,
            &self.kind,
            &self.charge,
            crate::kernel::ghost_position(bx),
        );
    }

    /// Permutes every per-atom array by `old_of_new` (slot `k` of the
    /// reordered store holds old atom `old_of_new[k]`), remaps the bonded
    /// topology to the new indices, and rebuilds the exclusion CSR in the
    /// new order. Returns the inverse permutation (`new_of_old`) so callers
    /// can remap their own atom references (constraints, force caches).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `old_of_new` is not a
    /// permutation of `0..len()`.
    pub fn reorder(&mut self, old_of_new: &[u32]) -> Result<Vec<u32>> {
        let n = self.len();
        let bad = |reason: String| CoreError::InvalidParameter {
            name: "old_of_new",
            reason,
        };
        if old_of_new.len() != n {
            return Err(bad(format!(
                "permutation has {} entries for {} atoms",
                old_of_new.len(),
                n
            )));
        }
        let mut new_of_old = vec![u32::MAX; n];
        for (new, &old) in old_of_new.iter().enumerate() {
            let slot = new_of_old
                .get_mut(old as usize)
                .ok_or_else(|| bad(format!("index {old} out of range for {n} atoms")))?;
            if *slot != u32::MAX {
                return Err(bad(format!("index {old} appears twice")));
            }
            *slot = new as u32;
        }

        fn permute<T: Copy>(src: &[T], old_of_new: &[u32]) -> Vec<T> {
            old_of_new.iter().map(|&old| src[old as usize]).collect()
        }
        self.x = permute(&self.x, old_of_new);
        self.v = permute(&self.v, old_of_new);
        self.f = permute(&self.f, old_of_new);
        self.kind = permute(&self.kind, old_of_new);
        self.charge = permute(&self.charge, old_of_new);
        self.radius = permute(&self.radius, old_of_new);
        self.image = permute(&self.image, old_of_new);
        self.molecule = permute(&self.molecule, old_of_new);
        self.id = permute(&self.id, old_of_new);

        let remap = |i: u32| new_of_old[i as usize];
        for b in &mut self.bonds {
            b.i = remap(b.i);
            b.j = remap(b.j);
        }
        for a in &mut self.angles {
            a.i = remap(a.i);
            a.j = remap(a.j);
            a.k = remap(a.k);
        }
        for d in &mut self.dihedrals {
            d.i = remap(d.i);
            d.j = remap(d.j);
            d.k = remap(d.k);
            d.l = remap(d.l);
        }

        // Rebuild the exclusion CSR in the new atom order: row `new` is old
        // row `old_of_new[new]` with every partner remapped and re-sorted
        // (neighbor builds binary-search these rows).
        if !self.excl_offsets.is_empty() {
            let old_offsets = std::mem::take(&mut self.excl_offsets);
            let old_atoms = std::mem::take(&mut self.excl_atoms);
            self.excl_offsets = Vec::with_capacity(n + 1);
            self.excl_atoms = Vec::with_capacity(old_atoms.len());
            self.excl_offsets.push(0);
            let mut row: Vec<u32> = Vec::new();
            for &old in old_of_new {
                let (s, e) = (old_offsets[old as usize], old_offsets[old as usize + 1]);
                row.clear();
                row.extend(old_atoms[s..e].iter().map(|&j| remap(j)));
                row.sort_unstable();
                self.excl_atoms.extend_from_slice(&row);
                self.excl_offsets.push(self.excl_atoms.len());
            }
        }
        Ok(new_of_old)
    }

    /// Simultaneous mutable access to positions and images (for wrapping).
    pub fn x_and_images_mut(&mut self) -> (&mut [V3], &mut [[i32; 3]]) {
        (&mut self.x, &mut self.image)
    }

    /// Simultaneous mutable access to positions and velocities (integration).
    pub fn x_v_mut(&mut self) -> (&mut [V3], &mut [V3]) {
        (&mut self.x, &mut self.v)
    }

    /// Simultaneous access to velocities (mut) and forces (shared).
    pub fn v_mut_f(&mut self) -> (&mut [V3], &[V3]) {
        (&mut self.v, &self.f)
    }

    /// Sets the per-type mass table (`mass_by_type[t]` is the mass of type `t`).
    pub fn set_masses(&mut self, masses: Vec<f64>) {
        self.mass_by_type = masses;
    }

    /// Mass of atom `i`.
    ///
    /// # Panics
    ///
    /// Panics if the atom's type has no entry in the mass table.
    #[inline(always)]
    pub fn mass(&self, i: usize) -> f64 {
        self.mass_by_type[self.kind[i] as usize]
    }

    /// The per-type mass table.
    pub fn masses_by_type(&self) -> &[f64] {
        &self.mass_by_type
    }

    /// Number of distinct atom types implied by the mass table.
    pub fn ntypes(&self) -> usize {
        self.mass_by_type.len()
    }

    /// Adds a bond.
    pub fn add_bond(&mut self, kind: u32, i: u32, j: u32) {
        self.bonds.push(Bond { kind, i, j });
    }

    /// Adds an angle.
    pub fn add_angle(&mut self, kind: u32, i: u32, j: u32, k: u32) {
        self.angles.push(Angle { kind, i, j, k });
    }

    /// Adds a dihedral.
    pub fn add_dihedral(&mut self, kind: u32, i: u32, j: u32, k: u32, l: u32) {
        self.dihedrals.push(Dihedral { kind, i, j, k, l });
    }

    /// All bonds.
    pub fn bonds(&self) -> &[Bond] {
        &self.bonds
    }

    /// All angles.
    pub fn angles(&self) -> &[Angle] {
        &self.angles
    }

    /// All dihedrals.
    pub fn dihedrals(&self) -> &[Dihedral] {
        &self.dihedrals
    }

    /// Zeroes the force array (start of the force-computation phase).
    pub fn zero_forces(&mut self) {
        for f in &mut self.f {
            *f = Vec3::zero();
        }
    }

    /// Builds per-atom exclusion lists from the topology.
    ///
    /// `exclude12/13/14` correspond to LAMMPS `special_bonds` weights of zero
    /// for 1-2 (directly bonded), 1-3 (angle-separated), and 1-4
    /// (dihedral-separated) pairs. Excluded pairs are *removed* from the
    /// neighbor list at build time. CHARMM decks use `0 0 0` (all excluded);
    /// FENE decks use `0 1 1` (only 1-2 excluded).
    pub fn build_exclusions(&mut self, exclude12: bool, exclude13: bool, exclude14: bool) {
        let n = self.len();
        let mut sets: Vec<HashSet<u32>> = vec![HashSet::new(); n];
        let add = |sets: &mut Vec<HashSet<u32>>, a: u32, b: u32| {
            if a != b {
                sets[a as usize].insert(b);
                sets[b as usize].insert(a);
            }
        };
        if exclude12 {
            for b in &self.bonds {
                add(&mut sets, b.i, b.j);
            }
        }
        if exclude13 {
            for a in &self.angles {
                add(&mut sets, a.i, a.k);
            }
        }
        if exclude14 {
            for d in &self.dihedrals {
                add(&mut sets, d.i, d.l);
            }
        }
        self.excl_offsets = Vec::with_capacity(n + 1);
        self.excl_atoms.clear();
        self.excl_offsets.push(0);
        for set in &sets {
            let mut v: Vec<u32> = set.iter().copied().collect();
            v.sort_unstable();
            self.excl_atoms.extend_from_slice(&v);
            self.excl_offsets.push(self.excl_atoms.len());
        }
    }

    /// The exclusion list of atom `i` (sorted), or empty if none were built.
    #[inline(always)]
    pub fn exclusions(&self, i: usize) -> &[u32] {
        if self.excl_offsets.is_empty() {
            &[]
        } else {
            &self.excl_atoms[self.excl_offsets[i]..self.excl_offsets[i + 1]]
        }
    }

    /// Whether the pair `(i, j)` is excluded from non-bonded interactions.
    #[inline(always)]
    pub fn is_excluded(&self, i: usize, j: u32) -> bool {
        self.exclusions(i).binary_search(&j).is_ok()
    }

    /// Total number of excluded (directed) pairs.
    pub fn exclusion_count(&self) -> usize {
        self.excl_atoms.len()
    }

    /// Validates internal consistency: array lengths, topology indices, and
    /// mass-table coverage.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<()> {
        let n = self.len();
        for (what, len) in [
            ("velocities", self.v.len()),
            ("forces", self.f.len()),
            ("types", self.kind.len()),
            ("charges", self.charge.len()),
            ("radii", self.radius.len()),
            ("images", self.image.len()),
            ("molecules", self.molecule.len()),
            ("ids", self.id.len()),
        ] {
            if len != n {
                return Err(CoreError::LengthMismatch {
                    what,
                    expected: n,
                    found: len,
                });
            }
        }
        let ntypes = self.mass_by_type.len();
        for &t in &self.kind {
            if (t as usize) >= ntypes {
                return Err(CoreError::UnknownAtomType {
                    atom_type: t,
                    ntypes,
                });
            }
        }
        let check = |i: u32| (i as usize) < n;
        for b in &self.bonds {
            if !check(b.i) || !check(b.j) {
                return Err(CoreError::InvalidParameter {
                    name: "bond",
                    reason: format!("bond ({}, {}) references a missing atom", b.i, b.j),
                });
            }
        }
        for a in &self.angles {
            if !check(a.i) || !check(a.j) || !check(a.k) {
                return Err(CoreError::InvalidParameter {
                    name: "angle",
                    reason: format!(
                        "angle ({}, {}, {}) references a missing atom",
                        a.i, a.j, a.k
                    ),
                });
            }
        }
        for d in &self.dihedrals {
            if !check(d.i) || !check(d.j) || !check(d.k) || !check(d.l) {
                return Err(CoreError::InvalidParameter {
                    name: "dihedral",
                    reason: "dihedral references a missing atom".to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_atom_store() -> AtomStore {
        let mut s = AtomStore::new();
        s.push(Vec3::new(0.0, 0.0, 0.0), Vec3::zero(), 0);
        s.push(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 0);
        s.set_masses(vec![1.0]);
        s
    }

    #[test]
    fn push_and_access() {
        let s = two_atom_store();
        assert_eq!(s.len(), 2);
        assert_eq!(s.x()[1].x, 1.0);
        assert_eq!(s.mass(0), 1.0);
        s.validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_type() {
        let mut s = two_atom_store();
        s.push(Vec3::zero(), Vec3::zero(), 7);
        let err = s.validate().unwrap_err();
        assert!(matches!(
            err,
            CoreError::UnknownAtomType { atom_type: 7, .. }
        ));
    }

    #[test]
    fn validate_catches_bad_bond() {
        let mut s = two_atom_store();
        s.add_bond(0, 0, 99);
        assert!(s.validate().is_err());
    }

    #[test]
    fn exclusions_12_13_14() {
        let mut s = AtomStore::new();
        for i in 0..5 {
            s.push(Vec3::new(i as f64, 0.0, 0.0), Vec3::zero(), 0);
        }
        s.set_masses(vec![1.0]);
        // linear chain 0-1-2-3-4
        for i in 0..4u32 {
            s.add_bond(0, i, i + 1);
        }
        for i in 0..3u32 {
            s.add_angle(0, i, i + 1, i + 2);
        }
        for i in 0..2u32 {
            s.add_dihedral(0, i, i + 1, i + 2, i + 3);
        }
        s.build_exclusions(true, true, true);
        assert!(s.is_excluded(0, 1)); // 1-2
        assert!(s.is_excluded(0, 2)); // 1-3
        assert!(s.is_excluded(0, 3)); // 1-4
        assert!(!s.is_excluded(0, 4)); // 1-5 interacts
        s.build_exclusions(true, false, false);
        assert!(s.is_excluded(2, 3));
        assert!(!s.is_excluded(0, 2));
    }

    #[test]
    fn reorder_permutes_arrays_and_remaps_topology() {
        let mut s = AtomStore::new();
        for i in 0..4 {
            s.push_full(
                Vec3::new(i as f64, 0.0, 0.0),
                Vec3::new(0.0, i as f64, 0.0),
                i % 2,
                i as f64 * 0.1,
                0.5,
                i,
            );
        }
        s.set_masses(vec![1.0, 2.0]);
        s.add_bond(0, 0, 1);
        s.add_angle(0, 0, 1, 2);
        s.add_dihedral(0, 0, 1, 2, 3);
        s.build_exclusions(true, true, true);
        let before_excl: Vec<Vec<u32>> = (0..4).map(|i| s.exclusions(i).to_vec()).collect();

        // Reverse the store: new slot k holds old atom 3-k.
        let inv = s.reorder(&[3, 2, 1, 0]).unwrap();
        assert_eq!(inv, vec![3, 2, 1, 0]);
        assert_eq!(s.ids(), &[3, 2, 1, 0]);
        assert_eq!(s.x()[0].x, 3.0);
        assert_eq!(s.v()[3].y, 0.0);
        assert_eq!(s.kinds(), &[1, 0, 1, 0]);
        assert_eq!(s.charges()[0], 3.0 * 0.1);
        assert_eq!(s.molecules(), &[3, 2, 1, 0]);
        // Bond 0-1 became 3-2; exclusion rows follow their atoms.
        assert_eq!((s.bonds()[0].i, s.bonds()[0].j), (3, 2));
        assert_eq!(s.dihedrals()[0].l, 0);
        for old in 0..4usize {
            let new = inv[old] as usize;
            let mut want: Vec<u32> = before_excl[old].iter().map(|&j| inv[j as usize]).collect();
            want.sort_unstable();
            assert_eq!(s.exclusions(new), want.as_slice(), "atom {old}");
        }
        s.validate().unwrap();

        // Round trip: applying the inverse restores the original order.
        s.reorder(&inv).unwrap();
        assert_eq!(s.ids(), &[0, 1, 2, 3]);
        assert_eq!(s.x()[1].x, 1.0);
        assert_eq!((s.bonds()[0].i, s.bonds()[0].j), (0, 1));
    }

    #[test]
    fn reorder_rejects_non_permutations() {
        let mut s = two_atom_store();
        assert!(s.reorder(&[0]).is_err());
        assert!(s.reorder(&[0, 0]).is_err());
        assert!(s.reorder(&[0, 7]).is_err());
        // Store unchanged after a rejected reorder of the right length.
        assert_eq!(s.ids(), &[0, 1]);
    }

    #[test]
    fn lane_gather_view_matches_store() {
        let bx = SimBox::cubic(10.0);
        let mut s = two_atom_store();
        s.charges_mut()[1] = -1.5;
        let mut g = LaneGather::default();
        s.fill_lane_gather(&bx, &mut g);
        assert_eq!(g.xs.len(), 3);
        assert_eq!(g.xs[1], s.x()[1].x);
        assert_eq!(g.qs[1], -1.5);
        assert!(g.xs[2] < bx.lo().x - 1e5);
    }

    #[test]
    fn zero_forces_resets() {
        let mut s = two_atom_store();
        s.f_mut()[0] = Vec3::new(1.0, 2.0, 3.0);
        s.zero_forces();
        assert_eq!(s.f()[0], Vec3::zero());
    }
}
