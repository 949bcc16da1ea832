//! Per-step numerical health monitoring.
//!
//! The watchdog inspects a [`Simulation`] after a step and raises typed
//! [`HealthEvent`]s instead of letting a numerical blow-up silently corrupt
//! a long campaign (or panic deep inside a kernel). Every check is an O(N)
//! scan over per-atom arrays or an O(1) scalar comparison, so the monitor
//! costs a small fraction of a force evaluation; `mdbench` times it as
//! `resilience.watchdog_check_us`.
//!
//! Events are also mirrored into the simulation's md-observe recorder as
//! `health_*` counters and instant markers, so a trace of a faulted run
//! shows exactly when and where the watchdog fired.

use md_core::{Simulation, V3};

/// Lane used for watchdog counters/markers (the engine's own lane).
const ENGINE_LANE: u32 = 0;

/// Thresholds for the health checks. All checks can be disabled
/// individually; non-finite detection stays on unconditionally because a
/// NaN anywhere invalidates everything downstream.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Maximum per-check displacement of any atom, as a multiple of the
    /// neighbor-list skin. A healthy step moves atoms a small fraction of
    /// the skin; a multiple of it in one step means the integrator is
    /// launching atoms. Skipped when the deck has no neighbor list.
    pub displacement_skin_factor: f64,
    /// Budget on the relative energy drift reported by the engine's thermo
    /// sampling. `None` disables the check (e.g. thermostatted decks where
    /// energy is not conserved by construction).
    pub energy_drift_budget: Option<f64>,
    /// Temperature ceiling as a multiple of the first observed temperature.
    /// `None` disables the check.
    pub temperature_spike_factor: Option<f64>,
    /// How far outside the box (in units of the largest box edge) an atom
    /// may sit along a *non-periodic* axis before it counts as escaped.
    /// Periodic axes wrap and cannot escape. `None` disables the check.
    pub escape_margin: Option<f64>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            displacement_skin_factor: 10.0,
            energy_drift_budget: Some(0.05),
            temperature_spike_factor: Some(100.0),
            escape_margin: Some(1.0),
        }
    }
}

/// A detected health violation.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthEvent {
    /// An atom's force has a NaN or infinite component.
    NonFiniteForce {
        /// Offending atom index.
        atom: usize,
    },
    /// An atom's position or velocity has a NaN or infinite component.
    NonFiniteState {
        /// Offending atom index.
        atom: usize,
    },
    /// An atom moved further in one check interval than the configured
    /// multiple of the neighbor skin.
    DisplacementSpike {
        /// Offending atom index.
        atom: usize,
        /// Min-image distance moved since the previous check.
        distance: f64,
        /// The configured limit it exceeded.
        limit: f64,
    },
    /// Relative energy drift exceeded the budget.
    EnergyDrift {
        /// Observed relative drift.
        drift: f64,
        /// Configured budget.
        budget: f64,
    },
    /// Instantaneous temperature exceeded the spike ceiling.
    TemperatureSpike {
        /// Observed temperature.
        temperature: f64,
        /// Ceiling it exceeded.
        ceiling: f64,
    },
    /// An atom left the box along a non-periodic axis by more than the
    /// escape margin.
    EscapedAtom {
        /// Offending atom index.
        atom: usize,
    },
}

impl HealthEvent {
    /// Counter name under which this event class is recorded.
    pub fn counter(&self) -> &'static str {
        match self {
            HealthEvent::NonFiniteForce { .. } => "health_nonfinite_force",
            HealthEvent::NonFiniteState { .. } => "health_nonfinite_state",
            HealthEvent::DisplacementSpike { .. } => "health_displacement_spike",
            HealthEvent::EnergyDrift { .. } => "health_energy_drift",
            HealthEvent::TemperatureSpike { .. } => "health_temperature_spike",
            HealthEvent::EscapedAtom { .. } => "health_escaped_atom",
        }
    }
}

impl std::fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthEvent::NonFiniteForce { atom } => {
                write!(f, "non-finite force on atom {atom}")
            }
            HealthEvent::NonFiniteState { atom } => {
                write!(f, "non-finite position/velocity on atom {atom}")
            }
            HealthEvent::DisplacementSpike {
                atom,
                distance,
                limit,
            } => write!(
                f,
                "atom {atom} moved {distance:.3e} in one check (limit {limit:.3e})"
            ),
            HealthEvent::EnergyDrift { drift, budget } => {
                write!(f, "energy drift {drift:.3e} exceeds budget {budget:.3e}")
            }
            HealthEvent::TemperatureSpike {
                temperature,
                ceiling,
            } => write!(
                f,
                "temperature {temperature:.3e} exceeds ceiling {ceiling:.3e}"
            ),
            HealthEvent::EscapedAtom { atom } => {
                write!(f, "atom {atom} escaped the simulation box")
            }
        }
    }
}

/// The per-step health monitor. Holds the previous check's positions (for
/// the displacement test) and the temperature baseline.
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    prev_x: Vec<V3>,
    baseline_temperature: Option<f64>,
    /// `Simulation::sorts_performed` at the previous check.
    sorts_seen: u64,
}

impl Watchdog {
    /// Creates a watchdog with the given thresholds.
    pub fn new(config: WatchdogConfig) -> Self {
        Watchdog {
            config,
            prev_x: Vec::new(),
            baseline_temperature: None,
            sorts_seen: 0,
        }
    }

    /// Inspects `sim` and returns every violation found (empty when
    /// healthy). Events are mirrored to the simulation's recorder as
    /// `health_*` counters plus a `health` instant marker per event class.
    pub fn check(&mut self, sim: &Simulation) -> Vec<HealthEvent> {
        let mut events = Vec::new();
        let atoms = sim.atoms();
        let x = atoms.x();
        let v = atoms.v();
        let f = atoms.f();
        let bx = sim.sim_box();

        // A Morton sort since the previous check moved the atoms to other
        // slots: the displacement reference is in the old order and is
        // dropped.
        if sim.sorts_performed() != self.sorts_seen {
            self.sorts_seen = sim.sorts_performed();
            self.prev_x.clear();
        }

        // One pass over the per-atom arrays serves the three per-atom
        // classes, with the rare outcomes screened by tests that cost a few
        // flops (a pass per class with the exact tests was 1.6% of an LJ
        // step). The displacement since the previous check is min-image, so
        // periodic wrapping does not read as a jump; a min-image distance
        // is never longer than the plain one, so the plain one screens. A
        // first check, or one after a sort, has no reference and only
        // records one.
        let limit = sim
            .neighbor_list()
            .map(|nl| self.config.displacement_skin_factor * nl.skin());
        let limit2 = match limit {
            Some(l) if l > 0.0 && self.prev_x.len() == x.len() => l * l,
            _ => f64::INFINITY,
        };
        if limit.is_some() {
            self.prev_x.resize(x.len(), md_core::Vec3::zero());
        }
        let mut non_finite = false;
        let mut worst: Option<(usize, f64)> = None;
        for i in 0..x.len() {
            let (xi, vi, fi) = (x[i], v[i], f[i]);
            // Times zero, a sum is NaN exactly when a term is not finite.
            let sum = xi.x + xi.y + xi.z + vi.x + vi.y + vi.z + fi.x + fi.y + fi.z;
            non_finite |= (sum * 0.0).is_nan();
            if limit.is_some() {
                let before = std::mem::replace(&mut self.prev_x[i], xi);
                if (xi - before).norm2() > limit2 {
                    let d2 = bx.min_image(xi, before).norm2();
                    if d2 > limit2 && worst.is_none_or(|(_, w)| d2 > w) {
                        worst = Some((i, d2));
                    }
                }
            }
        }
        // Non-finite forces / state: always on. Report the first offender
        // of each class — one NaN makes every later index meaningless.
        if non_finite {
            if let Some(atom) = f.iter().position(|fi| !is_finite(*fi)) {
                events.push(HealthEvent::NonFiniteForce { atom });
            }
            if let Some(atom) = x
                .iter()
                .zip(v)
                .position(|(xi, vi)| !is_finite(*xi) || !is_finite(*vi))
            {
                events.push(HealthEvent::NonFiniteState { atom });
            }
        }
        if let (Some((atom, d2)), Some(limit)) = (worst, limit) {
            events.push(HealthEvent::DisplacementSpike {
                atom,
                distance: d2.sqrt(),
                limit,
            });
        }

        // Energy drift (engine-maintained; zero before the first thermo
        // sample).
        if let Some(budget) = self.config.energy_drift_budget {
            let drift = sim.last_energy_drift();
            if drift.is_nan() || drift > budget {
                events.push(HealthEvent::EnergyDrift { drift, budget });
            }
        }

        // Temperature spike relative to the first healthy sample.
        if let Some(factor) = self.config.temperature_spike_factor {
            let t = md_core::temperature(atoms, sim.units());
            if t.is_finite() {
                let baseline = *self.baseline_temperature.get_or_insert(t);
                let ceiling = factor * baseline.max(f64::MIN_POSITIVE);
                if t > ceiling {
                    events.push(HealthEvent::TemperatureSpike {
                        temperature: t,
                        ceiling,
                    });
                }
            }
        }

        // Escapes along non-periodic axes.
        if let Some(margin) = self.config.escape_margin {
            let lengths = bx.lengths();
            let slack = margin * lengths.x.max(lengths.y).max(lengths.z);
            let (lo, hi) = (bx.lo(), bx.hi());
            let open = [!bx.is_periodic(0), !bx.is_periodic(1), !bx.is_periodic(2)];
            if open.iter().any(|&o| o) {
                if let Some(atom) = x.iter().position(|xi| {
                    let out = |p: f64, lo: f64, hi: f64| p < lo - slack || p > hi + slack;
                    (open[0] && out(xi.x, lo.x, hi.x) && xi.x.is_finite())
                        || (open[1] && out(xi.y, lo.y, hi.y) && xi.y.is_finite())
                        || (open[2] && out(xi.z, lo.z, hi.z) && xi.z.is_finite())
                }) {
                    events.push(HealthEvent::EscapedAtom { atom });
                }
            }
        }

        let recorder = sim.recorder();
        for ev in &events {
            recorder.count(ENGINE_LANE, ev.counter(), 1.0);
            recorder.instant(ENGINE_LANE, "health", ev.counter());
        }
        events
    }
}

fn is_finite(v: V3) -> bool {
    v.x.is_finite() && v.y.is_finite() && v.z.is_finite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::{KernelPath, Threads};
    use md_workloads::{build_deck_tuned, build_deck_with, Benchmark, DeckTuning};

    fn lj() -> md_workloads::Deck {
        build_deck_with(Benchmark::Lj, 1, 11, Threads::serial()).unwrap()
    }

    #[test]
    fn healthy_run_raises_nothing() {
        let mut deck = lj();
        let mut dog = Watchdog::new(WatchdogConfig::default());
        for _ in 0..10 {
            deck.simulation.step().unwrap();
            let events = dog.check(&deck.simulation);
            assert!(events.is_empty(), "unexpected events: {events:?}");
        }
    }

    #[test]
    fn nan_force_is_caught() {
        let mut deck = lj();
        deck.simulation.step().unwrap();
        deck.simulation.atoms_mut().f_mut()[3].x = f64::NAN;
        let mut dog = Watchdog::new(WatchdogConfig::default());
        let events = dog.check(&deck.simulation);
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::NonFiniteForce { atom: 3 })));
    }

    #[test]
    fn nan_velocity_is_caught_as_state() {
        let mut deck = lj();
        deck.simulation.step().unwrap();
        deck.simulation.atoms_mut().v_mut()[0].z = f64::INFINITY;
        let mut dog = Watchdog::new(WatchdogConfig::default());
        let events = dog.check(&deck.simulation);
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::NonFiniteState { atom: 0 })));
    }

    #[test]
    fn displacement_spike_is_caught() {
        let mut deck = lj();
        deck.simulation.step().unwrap();
        let mut dog = Watchdog::new(WatchdogConfig::default());
        assert!(dog.check(&deck.simulation).is_empty(), "prime reference");
        // Teleport one atom a third of the box: far beyond 10x skin, but
        // within min-image range so the distance is measured faithfully.
        let jump = deck.simulation.sim_box().lengths().x / 3.0;
        deck.simulation.atoms_mut().x_mut()[7].x += jump;
        let events = dog.check(&deck.simulation);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, HealthEvent::DisplacementSpike { atom: 7, .. })),
            "events: {events:?}"
        );
    }

    #[test]
    fn morton_sort_is_not_a_displacement_spike() {
        let tuning = DeckTuning {
            threads: Threads::serial(),
            kernel: KernelPath::Scalar,
            sort_every: 5,
        };
        let mut deck = build_deck_tuned(Benchmark::Lj, 1, 11, tuning).unwrap();
        let mut dog = Watchdog::new(WatchdogConfig::default());
        // The sort puts other atoms into the slots the reference was taken
        // in; read slot by slot that is a jump of up to half the box.
        for _ in 0..40 {
            deck.simulation.step().unwrap();
            let events = dog.check(&deck.simulation);
            assert!(events.is_empty(), "unexpected events: {events:?}");
        }
        assert!(deck.simulation.sorts_performed() >= 1, "no sort happened");
        // The reference is back after one check: a real jump still fires.
        let jump = deck.simulation.sim_box().lengths().x / 3.0;
        deck.simulation.atoms_mut().x_mut()[7].x += jump;
        let events = dog.check(&deck.simulation);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, HealthEvent::DisplacementSpike { atom: 7, .. })),
            "events: {events:?}"
        );
    }

    #[test]
    fn temperature_spike_is_caught() {
        let mut deck = lj();
        deck.simulation.step().unwrap();
        let mut dog = Watchdog::new(WatchdogConfig::default());
        assert!(dog.check(&deck.simulation).is_empty(), "prime baseline");
        for v in deck.simulation.atoms_mut().v_mut() {
            *v *= 1000.0;
        }
        let events = dog.check(&deck.simulation);
        assert!(events
            .iter()
            .any(|e| matches!(e, HealthEvent::TemperatureSpike { .. })));
    }
}
