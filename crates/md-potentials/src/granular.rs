//! Granular Hookean contact with tangential friction history
//! (LAMMPS `pair_style gran/hooke/history`) — the Chute benchmark.
//!
//! Two granular particles in contact feel a Hookean normal spring-dashpot and
//! a tangential spring whose elongation is the *accumulated* tangential
//! displacement over the life of the contact (the "history"), capped by a
//! Coulomb friction cone. As the paper notes, this style does not exploit
//! Newton's third law: it walks a **full** neighbor list and evaluates every
//! contact from both sides, which is exactly what the engine does here.
//!
//! The history is kept as LAMMPS's `fix neigh/history` keeps it: in arrays
//! beside the list's rows, one entry per directed list entry, in the order
//! the kernel streams them. The partners are matched by atom index only when
//! the list was rebuilt; every other step reads and writes the history with
//! a running entry index.

use md_core::neighbor::{NeighborList, NeighborListKind};
use md_core::{CoreError, EnergyVirial, Fix, PairStyle, PairSystem, Vec3, V3};
use std::ops::Range;

/// `gran/hooke/history` pair style.
#[derive(Debug, Clone)]
pub struct GranHookeHistory {
    /// Normal spring constant `kn`.
    kn: f64,
    /// Tangential spring constant `kt` (LAMMPS default: `2/7 kn`).
    kt: f64,
    /// Normal damping `γn`.
    gamma_n: f64,
    /// Tangential damping `γt` (LAMMPS default: `γn / 2`).
    gamma_t: f64,
    /// Coulomb friction coefficient `μ`.
    xmu: f64,
    /// Maximum particle diameter — acts as the neighbor cutoff.
    max_diameter: f64,
    /// Per-directed-contact accumulated tangential displacement, stored in
    /// the order the kernel streams the neighbor list.
    history: RowHistory,
}

/// Contact history laid out like the rows of a neighbor list (LAMMPS
/// `fix neigh/history`): entry `k` of every array belongs to the `k`-th
/// directed entry of the list, read row by row, so the kernel reaches an
/// entry's history with a running index instead of a lookup by atom pair.
/// The partners are matched by atom index only when the list was rebuilt.
#[derive(Debug, Clone, Default)]
struct RowHistory {
    /// Row (atom `i`) of each entry; non-decreasing, as the rows are in
    /// atom-index order.
    owners: Vec<u32>,
    /// Partner (atom `j`) of each entry.
    partners: Vec<u32>,
    /// Accumulated tangential displacement; zero where the entry is not live.
    shear: Vec<V3>,
    /// Whether the pair was in contact at the last compute.
    live: Vec<bool>,
    /// `(builds, len)` of the list these rows copy; `None` when they copy no
    /// list (a new style, or rows restored from a checkpoint).
    aligned: Option<(usize, usize)>,
}

impl RowHistory {
    /// The entries of row `i`.
    fn row(&self, i: u32) -> Range<usize> {
        self.owners.partition_point(|&o| o < i)..self.owners.partition_point(|&o| o <= i)
    }

    /// Lays the entries out along `nl`'s rows if `nl` was rebuilt since they
    /// were last aligned, carrying each live value over to the entry with the
    /// same partner in the same row. Partners absent from the new rows lose
    /// their history.
    fn align(&mut self, nl: &NeighborList) {
        let list = (nl.stats().builds, nl.len());
        if self.aligned == Some(list) {
            return;
        }
        let old = std::mem::take(self);
        self.aligned = Some(list);
        for (i, row) in nl.rows(0..nl.natoms(), false) {
            let entries = old.row(i as u32);
            for &j in row {
                let carried = entries
                    .clone()
                    .find(|&o| old.live[o] && old.partners[o] == j)
                    .map(|o| old.shear[o]);
                self.owners.push(i as u32);
                self.partners.push(j);
                self.shear.push(carried.unwrap_or_else(Vec3::zero));
                self.live.push(carried.is_some());
            }
        }
    }
}

impl GranHookeHistory {
    /// Creates the style with the LAMMPS chute-deck defaults for `kt`/`γt`.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive stiffness, damping, or diameter.
    pub fn new(kn: f64, gamma_n: f64, xmu: f64, max_diameter: f64) -> Result<Self, CoreError> {
        if !(kn > 0.0 && gamma_n >= 0.0 && xmu >= 0.0 && max_diameter > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "gran/hooke/history",
                reason: "kn > 0, gamma_n >= 0, xmu >= 0, diameter > 0 required".to_string(),
            });
        }
        Ok(GranHookeHistory {
            kn,
            kt: 2.0 / 7.0 * kn,
            gamma_n,
            gamma_t: 0.5 * gamma_n,
            xmu,
            max_diameter,
            history: RowHistory::default(),
        })
    }

    /// Number of live directed contacts.
    pub fn history_len(&self) -> usize {
        self.history.live.iter().filter(|&&live| live).count()
    }

    /// Accumulated shear vector for directed contact `(i, j)`, if touching.
    pub fn shear(&self, i: u32, j: u32) -> Option<V3> {
        let h = &self.history;
        h.row(i)
            .find(|&k| h.live[k] && h.partners[k] == j)
            .map(|k| h.shear[k])
    }
}

impl PairStyle for GranHookeHistory {
    fn name(&self) -> &'static str {
        "gran/hooke/history"
    }

    fn cutoff(&self) -> f64 {
        self.max_diameter
    }

    fn list_kind(&self) -> NeighborListKind {
        // The paper singles Chute out: no Newton's-third-law pair halving.
        NeighborListKind::Full
    }

    fn supports_reorder(&self) -> bool {
        // The shear history is matched to the list's partners by atom index
        // at a rebuild; a Morton reorder renumbers the atoms and would
        // silently detach every active contact. The engine skips sorting
        // when the pair style reports `false` here.
        false
    }

    fn compute(&mut self, sys: &PairSystem<'_>, nl: &NeighborList, f: &mut [V3]) -> EnergyVirial {
        let n = sys.x.len();
        let dt = sys.dt;
        let mut virial = 0.0;
        self.history.align(nl);
        let RowHistory {
            shear: stored,
            live,
            ..
        } = &mut self.history;
        let mut k = 0;
        for (i, row) in nl.rows(0..n, false) {
            let xi = sys.x[i];
            let vi = sys.v[i];
            let ri = sys.radius[i];
            let mi = sys.mass(i);
            let mut fi = Vec3::zero();
            let entries = k..k + row.len();
            k = entries.end;
            let slots = stored[entries.clone()].iter_mut().zip(&mut live[entries]);
            for (&j, (slot, live)) in row.iter().zip(slots) {
                let ju = j as usize;
                let d = sys.bx.min_image(xi, sys.x[ju]);
                let r = d.norm();
                let sum_r = ri + sys.radius[ju];
                if r >= sum_r || r == 0.0 {
                    // Not in contact: the history restarts from zero.
                    *slot = Vec3::zero();
                    *live = false;
                    continue;
                }
                let nhat = d / r;
                let overlap = sum_r - r;
                let meff = mi * sys.mass(ju) / (mi + sys.mass(ju));

                // Relative velocity decomposition (no particle spin modeled;
                // see DESIGN.md substitutions).
                let vrel = vi - sys.v[ju];
                let vn = nhat * vrel.dot(nhat);
                let vt = vrel - vn;

                // Normal: Hookean spring + dashpot.
                let fn_spring = self.kn * overlap;
                let f_normal = nhat * fn_spring - vn * (meff * self.gamma_n);

                // Tangential: history spring + dashpot, Coulomb-capped.
                let mut shear = *slot + vt * dt;
                // Keep the history in the current tangent plane.
                shear -= nhat * shear.dot(nhat);
                let mut f_tang = shear * (-self.kt) - vt * (meff * self.gamma_t);
                let ft_mag = f_tang.norm();
                let ft_max = self.xmu * fn_spring.abs();
                if ft_mag > ft_max && ft_mag > 0.0 {
                    // Slip: cap the force and rescale the stored history so
                    // the spring alone produces the capped force.
                    f_tang *= ft_max / ft_mag;
                    if self.kt > 0.0 {
                        shear = (f_tang + vt * (meff * self.gamma_t)) * (-1.0 / self.kt);
                    }
                }
                *slot = shear;
                *live = true;

                let ftot = f_normal + f_tang;
                fi += ftot;
                virial += d.dot(ftot);
            }
            f[i] += fi;
        }
        EnergyVirial {
            evdwl: 0.0, // contacts are dissipative; no conserved pair energy
            ecoul: 0.0,
            // Each contact was visited from both sides: halve the virial.
            virial: 0.5 * virial,
        }
    }

    fn state_save(&self, w: &mut md_core::wire::Writer) {
        // The contact history is the style's only carried state, written as
        // the live `(i, j, shear)` triples sorted by key: the rows are in
        // atom-index order, so sorting each row by partner is enough. The
        // bytes are a pure function of the physics, not of the row order.
        let h = &self.history;
        let mut keys: Vec<usize> = (0..h.live.len()).filter(|&k| h.live[k]).collect();
        for row in keys.chunk_by_mut(|&a, &b| h.owners[a] == h.owners[b]) {
            row.sort_unstable_by_key(|&k| h.partners[k]);
        }
        w.usize(keys.len());
        for k in keys {
            w.u32(h.owners[k]);
            w.u32(h.partners[k]);
            w.v3(h.shear[k]);
        }
    }

    fn state_load(&mut self, r: &mut md_core::wire::Reader<'_>) -> Result<(), CoreError> {
        // The saved triples become the old rows the next compute aligns to
        // its list, whichever order they were written in.
        let n = r.usize()?;
        let mut triples = Vec::new();
        for _ in 0..n {
            triples.push((r.u32()?, r.u32()?, r.v3()?));
        }
        triples.sort_unstable_by_key(|&(i, j, _)| (i, j));
        if let Some(pair) = triples
            .windows(2)
            .find(|p| (p[0].0, p[0].1) == (p[1].0, p[1].1))
        {
            return Err(CoreError::CorruptState {
                what: "gran/hooke/history",
                detail: format!("duplicate contact key {:?}", (pair[0].0, pair[0].1)),
            });
        }
        self.history = RowHistory {
            owners: triples.iter().map(|t| t.0).collect(),
            partners: triples.iter().map(|t| t.1).collect(),
            shear: triples.iter().map(|t| t.2).collect(),
            live: vec![true; triples.len()],
            aligned: None,
        };
        Ok(())
    }
}

/// A frictional granular wall at the bottom of the box
/// (LAMMPS `fix wall/gran`), confining the chute flow along -z.
#[derive(Debug, Clone)]
pub struct GranWall {
    /// Wall plane height (z coordinate).
    z: f64,
    kn: f64,
    gamma_n: f64,
}

impl GranWall {
    /// Creates a Hookean wall at height `z`.
    ///
    /// # Panics
    ///
    /// Panics if `kn <= 0` or `gamma_n < 0`.
    pub fn new(z: f64, kn: f64, gamma_n: f64) -> Self {
        assert!(kn > 0.0, "wall stiffness must be positive");
        assert!(gamma_n >= 0.0, "wall damping must be non-negative");
        GranWall { z, kn, gamma_n }
    }
}

impl Fix for GranWall {
    fn name(&self) -> &'static str {
        "wall/gran"
    }

    fn post_force(&mut self, sys: &PairSystem<'_>, f: &mut [V3]) {
        for i in 0..sys.x.len() {
            let r = sys.radius[i];
            let gap = sys.x[i].z - self.z;
            if gap < r {
                let overlap = r - gap;
                let m = sys.mass(i);
                f[i].z += self.kn * overlap - m * self.gamma_n * sys.v[i].z;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::{SimBox, UnitSystem};
    use std::collections::BTreeMap;

    /// The kernel with its history in a map, the slow and obviously right
    /// oracle of the row-aligned one: the history is keyed by the directed
    /// pair `(i, j)`, looked up for every entry of every step, and pruned
    /// each step to the pairs that touched.
    struct MapOracle {
        style: GranHookeHistory,
        history: BTreeMap<(u32, u32), V3>,
    }

    impl MapOracle {
        fn new(style: &GranHookeHistory) -> MapOracle {
            MapOracle {
                style: style.clone(),
                history: BTreeMap::new(),
            }
        }

        fn compute(
            &mut self,
            sys: &PairSystem<'_>,
            nl: &NeighborList,
            f: &mut [V3],
        ) -> EnergyVirial {
            let p = &self.style;
            let n = sys.x.len();
            let dt = sys.dt;
            let mut virial = 0.0;
            let mut touching = BTreeMap::new();
            for i in 0..n {
                let xi = sys.x[i];
                let vi = sys.v[i];
                let ri = sys.radius[i];
                let mi = sys.mass(i);
                let mut fi = Vec3::zero();
                for &j in nl.neighbors(i) {
                    let ju = j as usize;
                    let d = sys.bx.min_image(xi, sys.x[ju]);
                    let r = d.norm();
                    let sum_r = ri + sys.radius[ju];
                    if r >= sum_r || r == 0.0 {
                        continue;
                    }
                    let nhat = d / r;
                    let overlap = sum_r - r;
                    let meff = mi * sys.mass(ju) / (mi + sys.mass(ju));
                    let vrel = vi - sys.v[ju];
                    let vn = nhat * vrel.dot(nhat);
                    let vt = vrel - vn;
                    let fn_spring = p.kn * overlap;
                    let f_normal = nhat * fn_spring - vn * (meff * p.gamma_n);
                    let key = (i as u32, j);
                    let mut shear =
                        self.history.get(&key).copied().unwrap_or_else(Vec3::zero) + vt * dt;
                    shear -= nhat * shear.dot(nhat);
                    let mut f_tang = shear * (-p.kt) - vt * (meff * p.gamma_t);
                    let ft_mag = f_tang.norm();
                    let ft_max = p.xmu * fn_spring.abs();
                    if ft_mag > ft_max && ft_mag > 0.0 {
                        f_tang *= ft_max / ft_mag;
                        if p.kt > 0.0 {
                            shear = (f_tang + vt * (meff * p.gamma_t)) * (-1.0 / p.kt);
                        }
                    }
                    touching.insert(key, shear);
                    let ftot = f_normal + f_tang;
                    fi += ftot;
                    virial += d.dot(ftot);
                }
                f[i] += fi;
            }
            self.history = touching;
            EnergyVirial {
                evdwl: 0.0,
                ecoul: 0.0,
                virial: 0.5 * virial,
            }
        }
    }

    struct Rig {
        bx: SimBox,
        x: Vec<V3>,
        v: Vec<V3>,
        kinds: Vec<u32>,
        charge: Vec<f64>,
        radius: Vec<f64>,
        masses: Vec<f64>,
        units: UnitSystem,
        nl: NeighborList,
    }

    impl Rig {
        fn two_particles(x1: V3, v0: V3, v1: V3) -> Rig {
            let bx = SimBox::cubic(20.0);
            let x = vec![Vec3::new(5.0, 5.0, 5.0), x1];
            let mut nl = NeighborList::new(1.0, 0.1, NeighborListKind::Full);
            nl.build(&x, &bx).unwrap();
            Rig {
                bx,
                x,
                v: vec![v0, v1],
                kinds: vec![0, 0],
                charge: vec![0.0; 2],
                radius: vec![0.5; 2],
                masses: vec![1.0],
                units: UnitSystem::lj(),
                nl,
            }
        }

        fn compute(&mut self, style: &mut GranHookeHistory) -> (EnergyVirial, Vec<V3>) {
            let sys = PairSystem {
                bx: &self.bx,
                x: &self.x,
                v: &self.v,
                kinds: &self.kinds,
                charge: &self.charge,
                radius: &self.radius,
                mass_by_type: &self.masses,
                units: &self.units,
                dt: 1e-4,
            };
            let mut f = vec![Vec3::zero(); self.x.len()];
            let e = style.compute(&sys, &self.nl, &mut f);
            (e, f)
        }
    }

    #[test]
    fn overlapping_particles_repel() {
        let mut style = GranHookeHistory::new(2000.0, 50.0, 0.5, 1.0).unwrap();
        let mut rig = Rig::two_particles(Vec3::new(5.9, 5.0, 5.0), Vec3::zero(), Vec3::zero());
        let (_, f) = rig.compute(&mut style);
        // Overlap 0.1: spring force kn * 0.1 = 200 along -x on atom 0.
        assert!((f[0].x - (-200.0)).abs() < 1e-9, "{}", f[0].x);
        assert!((f[1].x - 200.0).abs() < 1e-9);
    }

    #[test]
    fn separated_particles_do_not_interact() {
        let mut style = GranHookeHistory::new(2000.0, 50.0, 0.5, 1.0).unwrap();
        let mut rig = Rig::two_particles(Vec3::new(6.05, 5.0, 5.0), Vec3::zero(), Vec3::zero());
        let (_, f) = rig.compute(&mut style);
        assert_eq!(f[0], Vec3::zero());
        assert_eq!(style.history_len(), 0);
    }

    #[test]
    fn normal_dashpot_opposes_approach() {
        let mut style = GranHookeHistory::new(2000.0, 50.0, 0.5, 1.0).unwrap();
        // Particle 1 moving toward particle 0.
        let mut rig = Rig::two_particles(
            Vec3::new(5.9, 5.0, 5.0),
            Vec3::zero(),
            Vec3::new(-1.0, 0.0, 0.0),
        );
        let (_, f) = rig.compute(&mut style);
        // Damping adds to the repulsion felt by atom 1 (+x).
        assert!(f[1].x > 200.0, "{}", f[1].x);
    }

    #[test]
    fn shear_history_accumulates_while_sliding() {
        let mut style = GranHookeHistory::new(2000.0, 0.0, 10.0, 1.0).unwrap();
        let mut rig = Rig::two_particles(
            Vec3::new(5.9, 5.0, 5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0), // sliding tangentially
        );
        let (_, f1) = rig.compute(&mut style);
        let s1 = style.shear(0, 1).expect("contact alive").norm();
        let (_, f2) = rig.compute(&mut style);
        let s2 = style.shear(0, 1).expect("contact alive").norm();
        assert!(s2 > s1, "history must grow: {s1} -> {s2}");
        // Tangential force on atom 0 grows with history.
        assert!(f2[0].y.abs() > f1[0].y.abs());
    }

    #[test]
    fn history_resets_after_separation() {
        let mut style = GranHookeHistory::new(2000.0, 0.0, 10.0, 1.0).unwrap();
        let mut rig = Rig::two_particles(
            Vec3::new(5.9, 5.0, 5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
        );
        rig.compute(&mut style);
        assert!(style.history_len() > 0);
        // Separate them and rebuild.
        rig.x[1] = Vec3::new(8.0, 5.0, 5.0);
        rig.nl.build(&rig.x, &rig.bx).unwrap();
        rig.compute(&mut style);
        assert_eq!(style.history_len(), 0, "history must be pruned");
    }

    #[test]
    fn friction_cone_caps_tangential_force() {
        let mut style = GranHookeHistory::new(2000.0, 0.0, 0.1, 1.0).unwrap();
        let mut rig = Rig::two_particles(
            Vec3::new(5.9, 5.0, 5.0),
            Vec3::zero(),
            Vec3::new(0.0, 5.0, 0.0),
        );
        // Slide for many steps; |Ft| must never exceed mu * kn * overlap.
        let ft_max = 0.1 * 2000.0 * 0.1;
        for _ in 0..200 {
            let (_, f) = rig.compute(&mut style);
            let ft = f[0].y.abs();
            assert!(ft <= ft_max * (1.0 + 1e-9), "Ft {ft} exceeds cone {ft_max}");
        }
    }

    #[test]
    fn collision_dissipates_energy() {
        // Head-on collision with damping: kinetic energy after < before.
        let mut style = GranHookeHistory::new(2000.0, 50.0, 0.5, 1.0).unwrap();
        let bx = SimBox::cubic(20.0);
        let mut x = vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(6.05, 5.0, 5.0)];
        let mut v = vec![Vec3::new(0.5, 0.0, 0.0), Vec3::new(-0.5, 0.0, 0.0)];
        let mut nl = NeighborList::new(1.0, 0.2, NeighborListKind::Full);
        let dt = 1e-4;
        let ke0: f64 = v.iter().map(|vi| 0.5 * vi.norm2()).sum();
        let units = UnitSystem::lj();
        for _ in 0..20000 {
            if nl.needs_rebuild(&x, &bx) {
                nl.build(&x, &bx).unwrap();
            }
            let kinds = vec![0u32, 0];
            let charge = vec![0.0; 2];
            let radius = vec![0.5; 2];
            let masses = vec![1.0];
            let sys = PairSystem {
                bx: &bx,
                x: &x,
                v: &v,
                kinds: &kinds,
                charge: &charge,
                radius: &radius,
                mass_by_type: &masses,
                units: &units,
                dt,
            };
            let mut f = vec![Vec3::zero(); 2];
            style.compute(&sys, &nl, &mut f);
            for k in 0..2 {
                v[k] += f[k] * dt;
                x[k] += v[k] * dt;
            }
        }
        let ke1: f64 = v.iter().map(|vi| 0.5 * vi.norm2()).sum();
        // Particles separated again, having lost energy to the dashpot.
        let r = (x[0] - x[1]).norm();
        assert!(r > 1.0, "particles should separate, r = {r}");
        assert!(ke1 < 0.9 * ke0, "KE {ke0} -> {ke1} should dissipate");
    }

    #[test]
    fn wall_pushes_particles_out() {
        let mut wall = GranWall::new(0.0, 2000.0, 50.0);
        let bx = SimBox::cubic(20.0).with_periodicity(true, true, false);
        let x = vec![Vec3::new(5.0, 5.0, 0.3)];
        let v = vec![Vec3::new(0.0, 0.0, -1.0)];
        let kinds = vec![0u32];
        let charge = vec![0.0];
        let radius = vec![0.5];
        let masses = vec![1.0];
        let units = UnitSystem::lj();
        let sys = PairSystem {
            bx: &bx,
            x: &x,
            v: &v,
            kinds: &kinds,
            charge: &charge,
            radius: &radius,
            mass_by_type: &masses,
            units: &units,
            dt: 1e-4,
        };
        let mut f = vec![Vec3::zero()];
        wall.post_force(&sys, &mut f);
        // Overlap 0.2 -> spring 400, plus dashpot +50 against vz = -1.
        assert!(f[0].z > 400.0, "{}", f[0].z);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(GranHookeHistory::new(0.0, 50.0, 0.5, 1.0).is_err());
        assert!(GranHookeHistory::new(2000.0, -1.0, 0.5, 1.0).is_err());
    }

    #[test]
    fn history_state_round_trips_bitwise() {
        let mut style = GranHookeHistory::new(2000.0, 0.0, 10.0, 1.0).unwrap();
        let mut rig = Rig::two_particles(
            Vec3::new(5.9, 5.0, 5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
        );
        rig.compute(&mut style);
        rig.compute(&mut style);
        assert!(style.history_len() > 0);
        let mut w = md_core::wire::Writer::new();
        style.state_save(&mut w);
        let bytes = w.into_bytes();
        let mut other = GranHookeHistory::new(2000.0, 0.0, 10.0, 1.0).unwrap();
        other
            .state_load(&mut md_core::wire::Reader::new(&bytes, "gran"))
            .unwrap();
        assert_eq!(other.history_len(), style.history_len());
        let (a, b) = (style.shear(0, 1).unwrap(), other.shear(0, 1).unwrap());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        // Duplicate keys are rejected.
        let mut w = md_core::wire::Writer::new();
        w.usize(2);
        for _ in 0..2 {
            w.u32(0);
            w.u32(1);
            w.v3(Vec3::zero());
        }
        let bad = w.into_bytes();
        assert!(other
            .state_load(&mut md_core::wire::Reader::new(&bad, "gran"))
            .is_err());
    }

    fn bits(v: V3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    /// A deterministic value in `[-1, 1)` for test jitter.
    fn jitter(seed: u64) -> f64 {
        let h = seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let h = (h ^ (h >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((h ^ (h >> 29)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// The row-aligned kernel against the map-backed oracle over a packed,
    /// sheared slab of 216 grains: bitwise equal forces, virial and history
    /// every step, across forced rebuilds. One grain leaves every list and
    /// comes back, so its old contacts are re-listed with a fresh history,
    /// and the departure shifts live contacts within their partners' rows.
    #[test]
    fn row_history_equals_map_oracle() {
        let bx = SimBox::orthogonal(6.0, 6.0, 12.0);
        let mut x = Vec::new();
        let mut v = Vec::new();
        for (a, b, c) in
            (0..6).flat_map(|c| (0..6).flat_map(move |b| (0..6).map(move |a| (a, b, c))))
        {
            let s = x.len() as u64 * 7;
            let z = 0.5 + 0.96 * c as f64 + 0.03 * jitter(s + 2);
            x.push(Vec3::new(
                0.5 + a as f64 + 0.03 * jitter(s),
                0.5 + b as f64 + 0.03 * jitter(s + 1),
                z,
            ));
            v.push(Vec3::new(
                0.8 * (z - 3.0) + 0.5 * jitter(s + 3),
                0.5 * jitter(s + 4),
                0.5 * jitter(s + 5),
            ));
        }
        let n = x.len();
        let kinds: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let charge = vec![0.0; n];
        let radius = vec![0.5; n];
        let masses = vec![1.0, 1.5];
        let units = UnitSystem::lj();
        let dt = 1e-3;
        let mut images = vec![[0i32; 3]; n];
        let mut nl = NeighborList::new(1.0, 0.2, NeighborListKind::Full);
        nl.build(&x, &bx).unwrap();
        let mut rows = GranHookeHistory::new(2000.0, 50.0, 0.5, 1.0).unwrap();
        let mut oracle = MapOracle::new(&rows);

        let (depart, back) = (100, 140);
        let mut traveler = None;
        let (mut builds, mut moved_in_row, mut returned) = (1, 0, 0);
        for step in 0..300 {
            let forced = step % 25 == 0 || step == depart || step == back;
            if step == depart {
                // The grain with the most live contacts leaves every list.
                let p = (0..n)
                    .max_by_key(|&i| {
                        nl.neighbors(i)
                            .iter()
                            .filter(|&&j| rows.shear(i as u32, j).is_some())
                            .count()
                    })
                    .unwrap();
                let left: Vec<u32> = nl
                    .neighbors(p)
                    .iter()
                    .copied()
                    .filter(|&j| rows.shear(p as u32, j).is_some())
                    .collect();
                assert!(left.len() >= 2, "{left:?}");
                traveler = Some((p, x[p], left));
                x[p].z += 5.0;
            }
            if step == back {
                let (p, home, _) = traveler.as_ref().unwrap();
                x[*p] = *home;
            }
            if forced || nl.needs_rebuild(&x, &bx) {
                let before: Vec<Vec<u32>> = (0..n).map(|i| nl.neighbors(i).to_vec()).collect();
                nl.build(&x, &bx).unwrap();
                builds += 1;
                for (i, old) in before.iter().enumerate() {
                    for (at, &j) in old.iter().enumerate() {
                        let now = nl.neighbors(i).iter().position(|&k| k == j);
                        if rows.shear(i as u32, j).is_some() && now.is_some_and(|now| now != at) {
                            moved_in_row += 1;
                        }
                    }
                }
            }
            let sys = PairSystem {
                bx: &bx,
                x: &x,
                v: &v,
                kinds: &kinds,
                charge: &charge,
                radius: &radius,
                mass_by_type: &masses,
                units: &units,
                dt,
            };
            let mut f = vec![Vec3::zero(); n];
            let mut f_oracle = vec![Vec3::zero(); n];
            let e = rows.compute(&sys, &nl, &mut f);
            let e_oracle = oracle.compute(&sys, &nl, &mut f_oracle);
            assert_eq!(
                e.virial.to_bits(),
                e_oracle.virial.to_bits(),
                "virial, step {step}"
            );
            for i in 0..n {
                assert_eq!(bits(f[i]), bits(f_oracle[i]), "force on {i}, step {step}");
            }
            assert_eq!(
                rows.history_len(),
                oracle.history.len(),
                "contacts, step {step}"
            );
            for (&(i, j), &s) in &oracle.history {
                let row = rows.shear(i, j).map(bits);
                assert_eq!(row, Some(bits(s)), "shear ({i}, {j}), step {step}");
            }
            if step == back {
                // Contacts of the grain before it left are listed again and
                // carry the history of one step from zero, as a style with
                // no history at all computes it.
                let mut fresh = MapOracle::new(&rows);
                fresh.compute(&sys, &nl, &mut vec![Vec3::zero(); n]);
                let (p, _, left) = traveler.as_ref().unwrap();
                for &j in left {
                    if let Some(s) = rows.shear(*p as u32, j) {
                        returned += 1;
                        assert_eq!(Some(&s), fresh.history.get(&(*p as u32, j)));
                    }
                }
            }
            for i in 0..n {
                v[i] += f[i] * (dt / masses[kinds[i] as usize]);
                x[i] += v[i] * dt;
                bx.wrap(&mut x[i], &mut images[i]);
            }
        }
        assert_eq!(nl.stats().builds, builds);
        assert!(builds >= 14, "{builds} builds");
        assert!(moved_in_row > 0, "no live contact moved within its row");
        assert!(returned > 0, "no contact of the traveler touched again");
    }

    #[test]
    fn state_load_accepts_unsorted_triples() {
        let triples = [(3u32, 1u32, 0.5), (0, 2, 0.25), (3, 0, 0.125), (0, 1, 1.0)];
        let mut w = md_core::wire::Writer::new();
        w.usize(triples.len());
        for &(i, j, s) in &triples {
            w.u32(i);
            w.u32(j);
            w.v3(Vec3::new(0.0, s, 0.0));
        }
        let bytes = w.into_bytes();
        let mut style = GranHookeHistory::new(2000.0, 0.0, 10.0, 1.0).unwrap();
        style
            .state_load(&mut md_core::wire::Reader::new(&bytes, "gran"))
            .unwrap();
        assert_eq!(style.history_len(), 4);
        for &(i, j, s) in &triples {
            assert_eq!(style.shear(i, j), Some(Vec3::new(0.0, s, 0.0)));
        }
        assert_eq!(style.shear(1, 0), None);
        // Saved again, the triples come out sorted by key.
        let mut w = md_core::wire::Writer::new();
        style.state_save(&mut w);
        let mut sorted = md_core::wire::Writer::new();
        sorted.usize(triples.len());
        for (i, j, s) in [(0u32, 1u32, 1.0), (0, 2, 0.25), (3, 0, 0.125), (3, 1, 0.5)] {
            sorted.u32(i);
            sorted.u32(j);
            sorted.v3(Vec3::new(0.0, s, 0.0));
        }
        assert_eq!(w.into_bytes(), sorted.into_bytes());
    }

    #[test]
    fn saved_contact_absent_from_the_next_list_is_dropped() {
        let mut style = GranHookeHistory::new(2000.0, 0.0, 10.0, 1.0).unwrap();
        let mut rig = Rig::two_particles(
            Vec3::new(5.9, 5.0, 5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
        );
        rig.compute(&mut style);
        assert_eq!(style.history_len(), 2);
        let mut w = md_core::wire::Writer::new();
        style.state_save(&mut w);
        let bytes = w.into_bytes();

        let mut restored = GranHookeHistory::new(2000.0, 0.0, 10.0, 1.0).unwrap();
        restored
            .state_load(&mut md_core::wire::Reader::new(&bytes, "gran"))
            .unwrap();
        assert_eq!(restored.history_len(), 2);
        // The partner is out of range of the next list: nothing to carry.
        let mut apart = Rig::two_particles(
            Vec3::new(8.0, 5.0, 5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
        );
        assert!(apart.nl.is_empty());
        apart.compute(&mut restored);
        assert_eq!(restored.history_len(), 0);
        assert_eq!(restored.shear(0, 1), None);
    }
}
