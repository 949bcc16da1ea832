//! Morton-order (Z-curve) atom sorting.
//!
//! The LAMMPS `atom_modify sort` analogue: periodically reordering atoms
//! along a space-filling curve makes neighbor-row gathers hit warm cache
//! lines, which is where much of the lane-kernel win comes from on large
//! decks. [`morton_perm`] produces an `old_of_new` permutation (slot `k` of
//! the sorted store holds old atom `perm[k]`) from the current positions;
//! [`crate::AtomStore::reorder`] applies it.
//!
//! Sorting is a pure relabeling: the pair set, energies, and forces are
//! invariant under it (up to floating-point summation order), which the
//! atom-sort test suite locks down. A sorted run therefore repeats bitwise
//! (the sort is a function of the positions), but it is not bitwise the
//! unsorted run: a relabeling changes summation order.

use crate::simbox::SimBox;
use crate::vec3::Vec3;

type V3 = Vec3<f64>;

/// Bits of Morton resolution per axis: a 1024³ virtual grid, giving 30-bit
/// keys. Finer than any realistic cell grid, so ties are rare and broken
/// stably by old index.
const MORTON_BITS: u32 = 10;

/// Spread the low 10 bits of `v` so consecutive bits land 3 apart.
#[inline]
fn spread10(v: u32) -> u32 {
    let mut x = v & 0x3ff;
    x = (x | (x << 16)) & 0x030000ff;
    x = (x | (x << 8)) & 0x0300f00f;
    x = (x | (x << 4)) & 0x030c30c3;
    x = (x | (x << 2)) & 0x09249249;
    x
}

/// Morton key of a fractional coordinate (each component nominally in
/// `[0, 1)`; out-of-box values are clamped, not wrapped, so the key is
/// always well-defined even for unwrapped positions).
#[inline]
pub fn morton_key(frac: V3) -> u32 {
    let scale = (1u32 << MORTON_BITS) as f64;
    let max = (1u32 << MORTON_BITS) - 1;
    let cell = |f: f64| -> u32 {
        let c = (f * scale).floor();
        if c <= 0.0 {
            0
        } else if c >= max as f64 {
            max
        } else {
            c as u32
        }
    };
    let ix = spread10(cell(frac.x));
    let iy = spread10(cell(frac.y));
    let iz = spread10(cell(frac.z));
    ix | (iy << 1) | (iz << 2)
}

/// Build the Morton-order permutation for `x` inside `bx`, as `old_of_new`:
/// `perm[new_index] = old_index`. The sort is stable, so atoms sharing a
/// Morton cell keep their relative order and re-sorting an already sorted
/// store is the identity.
pub fn morton_perm(x: &[V3], bx: &SimBox) -> Vec<u32> {
    let mut keyed: Vec<(u32, u32)> = x
        .iter()
        .enumerate()
        .map(|(i, &p)| (morton_key(bx.fractional(p)), i as u32))
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Read the Morton-sort cadence from `MD_SORT_EVERY` (steps between sorts,
/// applied at neighbor rebuilds). Unset or `0` disables.
///
/// # Errors
///
/// Returns [`crate::CoreError::InvalidParameter`] naming the variable if it
/// is set to anything but a step count.
pub fn sort_every_from_env() -> crate::Result<u64> {
    crate::error::env_knob("MD_SORT_EVERY", 0, parse_cadence)
}

/// A sort cadence as `MD_SORT_EVERY` spells it.
fn parse_cadence(value: &str) -> Option<u64> {
    value.parse().ok()
}

/// True when `perm` is the identity permutation (no reorder needed).
pub fn is_identity(perm: &[u32]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| p as usize == i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_box() -> SimBox {
        SimBox::cubic(8.0)
    }

    #[test]
    fn md_sort_every_parses_or_names_itself() {
        let knob = |v| crate::error::parse_knob("MD_SORT_EVERY", v, 0, parse_cadence);
        assert_eq!(knob(None), Ok(0));
        assert_eq!(knob(Some("0")), Ok(0));
        assert_eq!(knob(Some("25")), Ok(25));
        for bad in ["x", "-1", "2.5", ""] {
            match knob(Some(bad)) {
                Err(crate::CoreError::InvalidParameter { name, .. }) => {
                    assert_eq!(name, "MD_SORT_EVERY");
                }
                other => panic!("`{bad}`: expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn spread_interleaves_disjoint_bits() {
        for v in [0u32, 1, 2, 0x155, 0x3ff] {
            let s = spread10(v);
            assert_eq!(s & 0x09249249, s);
        }
        assert_eq!(spread10(0x3ff).count_ones(), 10);
    }

    #[test]
    fn morton_key_orders_locally() {
        // Two atoms in the same octant must compare closer (share high key
        // bits) than atoms in opposite corners.
        let bx = test_box();
        let a = morton_key(bx.fractional(Vec3::new(0.1, 0.1, 0.1)));
        let b = morton_key(bx.fractional(Vec3::new(0.2, 0.2, 0.2)));
        let far = morton_key(bx.fractional(Vec3::new(7.9, 7.9, 7.9)));
        assert!(a < far && b < far);
    }

    #[test]
    fn morton_perm_is_a_permutation_and_stable() {
        let bx = test_box();
        let x = vec![
            Vec3::new(7.0, 7.0, 7.0),
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(0.5, 0.5, 0.5), // identical: stability keeps 1 before 2
            Vec3::new(4.0, 1.0, 1.0),
        ];
        let perm = morton_perm(&x, &bx);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        let p1 = perm.iter().position(|&p| p == 1).unwrap();
        let p2 = perm.iter().position(|&p| p == 2).unwrap();
        assert!(p1 < p2, "stable sort must preserve tied order");
        // The far-corner atom sorts last.
        assert_eq!(*perm.last().unwrap(), 0);
    }

    #[test]
    fn resort_of_sorted_is_identity() {
        let bx = test_box();
        let mut x: Vec<V3> = (0..64)
            .map(|i| {
                let f = i as f64;
                Vec3::new(
                    (f * 0.371).rem_euclid(8.0),
                    (f * 1.73).rem_euclid(8.0),
                    (f * 2.41).rem_euclid(8.0),
                )
            })
            .collect();
        let perm = morton_perm(&x, &bx);
        let sorted: Vec<V3> = perm.iter().map(|&p| x[p as usize]).collect();
        x = sorted;
        assert!(is_identity(&morton_perm(&x, &bx)));
    }

    #[test]
    fn out_of_box_positions_clamp() {
        let bx = test_box();
        let lo = morton_key(bx.fractional(Vec3::new(-3.0, -3.0, -3.0)));
        let hi = morton_key(bx.fractional(Vec3::new(99.0, 99.0, 99.0)));
        assert_eq!(lo, 0);
        assert_eq!(hi, morton_key(Vec3::new(0.9999, 0.9999, 0.9999)));
    }
}
