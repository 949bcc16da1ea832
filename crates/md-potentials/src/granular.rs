//! Granular Hookean contact with tangential friction history
//! (LAMMPS `pair_style gran/hooke/history`) — the Chute benchmark.
//!
//! Two granular particles in contact feel a Hookean normal spring-dashpot and
//! a tangential spring whose elongation is the *accumulated* tangential
//! displacement over the life of the contact (the "history"), capped by a
//! Coulomb friction cone. As the paper notes, this style does not exploit
//! Newton's third law: it walks a **full** neighbor list and evaluates every
//! contact from both sides, which is exactly what the engine does here.

use md_core::neighbor::{NeighborList, NeighborListKind};
use md_core::{CoreError, EnergyVirial, Fix, PairStyle, PairSystem, Vec3, V3};
use std::collections::HashMap;

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
    /// Per-directed-contact accumulated tangential displacement.
    history: HashMap<(u32, u32), V3>,
    /// Scratch for contacts still alive this step.
    next_history: HashMap<(u32, u32), V3>,
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
            history: HashMap::new(),
            next_history: HashMap::new(),
        })
    }

    /// Number of live directed contacts with nonzero history.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Accumulated shear vector for directed contact `(i, j)`, if touching.
    pub fn shear(&self, i: u32, j: u32) -> Option<V3> {
        self.history.get(&(i, j)).copied()
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
        // The shear history is keyed by atom-index pairs; a Morton reorder
        // would silently detach every active contact. The engine skips
        // sorting when the pair style reports `false` here.
        false
    }

    fn compute(&mut self, sys: &PairSystem<'_>, nl: &NeighborList, f: &mut [V3]) -> EnergyVirial {
        let n = sys.x.len();
        let dt = sys.dt;
        let mut virial = 0.0;
        self.next_history.clear();
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
                    continue; // not in contact
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
                let key = (i as u32, j);
                let mut shear =
                    self.history.get(&key).copied().unwrap_or_else(Vec3::zero) + vt * dt;
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
                self.next_history.insert(key, shear);

                let ftot = f_normal + f_tang;
                fi += ftot;
                virial += d.dot(ftot);
            }
            f[i] += fi;
        }
        std::mem::swap(&mut self.history, &mut self.next_history);
        EnergyVirial {
            evdwl: 0.0, // contacts are dissipative; no conserved pair energy
            ecoul: 0.0,
            // Each contact was visited from both sides: halve the virial.
            virial: 0.5 * virial,
        }
    }

    fn state_save(&self, w: &mut md_core::wire::Writer) {
        // The contact history is the style's only carried state. HashMap
        // iteration order is nondeterministic, so serialize sorted by key —
        // the checkpoint bytes must be a pure function of the physics.
        let mut keys: Vec<(u32, u32)> = self.history.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for (i, j) in keys {
            w.u32(i);
            w.u32(j);
            w.v3(self.history[&(i, j)]);
        }
    }

    fn state_load(&mut self, r: &mut md_core::wire::Reader<'_>) -> Result<(), CoreError> {
        let n = r.usize()?;
        let mut history = HashMap::new();
        for _ in 0..n {
            let key = (r.u32()?, r.u32()?);
            let shear = r.v3()?;
            if history.insert(key, shear).is_some() {
                return Err(CoreError::CorruptState {
                    what: "gran/hooke/history",
                    detail: format!("duplicate contact key {key:?}"),
                });
            }
        }
        self.history = history;
        self.next_history.clear();
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
}
