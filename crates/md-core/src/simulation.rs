//! The timestep driver: wires integrator, neighbor list, force styles, and
//! fixes together in the order of the paper's Figure 1, attributing the time
//! of every phase to its Table-1 task.
//!
//! ```text
//! I    initial integration          -> Modify
//! II   apply boundary conditions    -> Neigh (folded into the rebuild check)
//! III  update neighbor list         -> Neigh
//! IV   (inter-processor comm)       -> Comm (only in md-parallel runs)
//! V    pairwise short-range forces  -> Pair
//! VI   long-range forces            -> Kspace
//! VII  bonded forces                -> Bond
//! VIII compute system properties    -> Output
//! ```

use crate::atoms::AtomStore;
use crate::compute::{kinetic_energy, pressure, temperature, ThermoState};
use crate::constraint::Shake;
use crate::error::{CoreError, Result};
use crate::force::{
    AngleStyle, BondStyle, DihedralStyle, EnergyVirial, Fix, KspaceStyle, PairStyle, PairSystem,
};
use crate::integrate::{IntegrateContext, Integrator, VelocityVerlet};
use crate::kernel::{KernelPath, LANES};
use crate::neighbor::NeighborList;
use crate::simbox::SimBox;
use crate::task::{TaskKind, TaskLedger};
use crate::threads::{Threads, THREAD_LANE_BASE};
use crate::units::UnitSystem;
use crate::vec3::Vec3;
use crate::wire;
use crate::V3;
use md_observe::{Recorder, StepSample, NUM_TASKS};
use std::time::Instant;

/// Trace lane of the real engine (virtual ranks use lanes `1..`).
const ENGINE_LANE: u32 = 0;

/// Summary of a [`Simulation::run`] call.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Timesteps executed.
    pub steps: u64,
    /// Wall-clock seconds elapsed.
    pub wall_seconds: f64,
    /// Timesteps per second (the paper's TS/s metric).
    pub ts_per_sec: f64,
    /// Per-task time ledger for the run.
    pub ledger: TaskLedger,
    /// Thermodynamic state after the final step.
    pub thermo: ThermoState,
    /// Neighbor-list rebuilds during the run.
    pub neighbor_builds: usize,
}

/// A single-process MD simulation.
///
/// Construct with [`SimulationBuilder`]; drive with [`Simulation::step`] or
/// [`Simulation::run`].
pub struct Simulation {
    units: UnitSystem,
    dt: f64,
    bx: SimBox,
    atoms: AtomStore,
    pair: Option<Box<dyn PairStyle>>,
    bond: Option<Box<dyn BondStyle>>,
    angle: Option<Box<dyn AngleStyle>>,
    dihedral: Option<Box<dyn DihedralStyle>>,
    kspace: Option<Box<dyn KspaceStyle>>,
    integrator: Box<dyn Integrator>,
    fixes: Vec<Box<dyn Fix>>,
    shake: Option<Shake>,
    neighbor: Option<NeighborList>,
    forces: Vec<V3>,
    ledger: TaskLedger,
    step: u64,
    thermo_every: u64,
    energy: EnergyVirial,
    thermo_log: Vec<ThermoState>,
    recorder: Recorder,
    threads: Threads,
    /// Step index of the most recent neighbor rebuild (for the
    /// rebuild-interval histogram).
    last_rebuild_step: u64,
    /// Total energy at the first thermo sample (drift reference).
    energy_first: Option<f64>,
    /// Most recently computed relative energy drift.
    last_drift: f64,
    /// Inner-loop implementation the pair style runs (scalar reference or
    /// the lane-blocked vectorizable path).
    kernel_path: KernelPath,
    /// Morton-sort cadence in steps (0 = never). Sorting happens at
    /// neighbor-rebuild boundaries only, so the actual interval is the
    /// first rebuild at or after the cadence mark.
    sort_every: u64,
    /// Step index of the most recent Morton sort.
    last_sort_step: u64,
    /// Number of Morton sorts performed so far.
    sorts_performed: u64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("atoms", &self.atoms.len())
            .field("step", &self.step)
            .field("dt", &self.dt)
            .field("box", &self.bx)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Starts building a simulation over `atoms` in `bx`.
    pub fn builder(bx: SimBox, atoms: AtomStore, units: UnitSystem) -> SimulationBuilder {
        SimulationBuilder::new(bx, atoms, units)
    }

    /// Current timestep index.
    pub fn step_index(&self) -> u64 {
        self.step
    }

    /// The simulation box (changes under NPT).
    pub fn sim_box(&self) -> &SimBox {
        &self.bx
    }

    /// The atom store.
    pub fn atoms(&self) -> &AtomStore {
        &self.atoms
    }

    /// The atom store, mutable (e.g. to reseed velocities between stages).
    pub fn atoms_mut(&mut self) -> &mut AtomStore {
        &mut self.atoms
    }

    /// The per-task time ledger accumulated so far.
    pub fn ledger(&self) -> &TaskLedger {
        &self.ledger
    }

    /// Unit system in use.
    pub fn units(&self) -> &UnitSystem {
        &self.units
    }

    /// Timestep length.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The neighbor list, if a pair style is configured.
    pub fn neighbor_list(&self) -> Option<&NeighborList> {
        self.neighbor.as_ref()
    }

    /// Energy/virial totals from the most recent force evaluation.
    pub fn energy(&self) -> EnergyVirial {
        self.energy
    }

    /// Mesh statistics of the long-range solver, if one is configured.
    pub fn kspace_stats(&self) -> Option<crate::force::KspaceStats> {
        self.kspace.as_ref().map(|k| k.stats())
    }

    /// Thermodynamic rows recorded so far (one per `thermo_every` steps).
    pub fn thermo_log(&self) -> &[ThermoState] {
        &self.thermo_log
    }

    /// The attached observability recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The shared-memory thread-team configuration.
    pub fn threads(&self) -> Threads {
        self.threads
    }

    /// The inner-loop implementation the pair style is running.
    pub fn kernel_path(&self) -> KernelPath {
        self.kernel_path
    }

    /// Morton-sort cadence in steps (0 = disabled).
    pub fn sort_every(&self) -> u64 {
        self.sort_every
    }

    /// Number of Morton sorts performed so far.
    pub fn sorts_performed(&self) -> u64 {
        self.sorts_performed
    }

    /// Attaches an observability recorder after construction. The handle is
    /// shared with the neighbor list, the pair style and the k-space solver
    /// (if any), which emit kernel-phase sub-spans and — through
    /// [`crate::threads::fork_join`], on the `thread k` lanes named here —
    /// one span per worker of every fork on the same timeline.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        recorder.set_lane_name(ENGINE_LANE, "engine");
        if self.threads.count > 1 {
            for k in 0..self.threads.count {
                recorder.set_lane_name(THREAD_LANE_BASE + k as u32, format!("thread {k}"));
            }
        }
        if let Some(nl) = self.neighbor.as_mut() {
            nl.set_recorder(recorder.clone());
        }
        if let Some(p) = self.pair.as_mut() {
            p.set_recorder(recorder.clone());
        }
        if let Some(ks) = self.kspace.as_mut() {
            ks.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// Computes the instantaneous thermodynamic state.
    pub fn thermo(&self) -> ThermoState {
        ThermoState {
            step: self.step,
            temperature: temperature(&self.atoms, &self.units),
            kinetic: kinetic_energy(&self.atoms, &self.units),
            potential: self.energy.energy(),
            pressure: pressure(&self.atoms, &self.units, &self.bx, self.energy.virial),
            volume: self.bx.volume(),
        }
    }

    /// Evaluates all forces at the current positions (used at setup and by
    /// every timestep). Updates `self.energy` and the atom force array.
    fn compute_forces(&mut self) {
        let n = self.atoms.len();
        if self.forces.len() != n {
            self.forces.resize(n, Vec3::zero());
        }
        for f in &mut self.forces {
            *f = Vec3::zero();
        }
        let mut energy = EnergyVirial::default();

        // Pair (task V).
        if let (Some(pair), Some(nl)) = (self.pair.as_mut(), self.neighbor.as_ref()) {
            let t0 = Instant::now();
            let sys = PairSystem {
                bx: &self.bx,
                x: self.atoms.x(),
                v: self.atoms.v(),
                kinds: self.atoms.kinds(),
                charge: self.atoms.charges(),
                radius: self.atoms.radii(),
                mass_by_type: self.atoms.masses_by_type(),
                units: &self.units,
                dt: self.dt,
            };
            energy += pair.compute(&sys, nl, &mut self.forces);
            let dt = t0.elapsed().as_secs_f64();
            self.ledger.add(TaskKind::Pair, dt);
            self.recorder
                .record_span(ENGINE_LANE, "task", "Pair", t0, dt);
        }

        // Bonded (task VII).
        let t0 = Instant::now();
        let mut bonded_any = false;
        if let Some(bond) = self.bond.as_mut() {
            energy += bond.compute(
                &self.bx,
                self.atoms.x(),
                self.atoms.bonds(),
                &mut self.forces,
            );
            bonded_any = true;
        }
        if let Some(angle) = self.angle.as_mut() {
            energy += angle.compute(
                &self.bx,
                self.atoms.x(),
                self.atoms.angles(),
                &mut self.forces,
            );
            bonded_any = true;
        }
        if let Some(dihedral) = self.dihedral.as_mut() {
            energy += dihedral.compute(
                &self.bx,
                self.atoms.x(),
                self.atoms.dihedrals(),
                &mut self.forces,
            );
            bonded_any = true;
        }
        if bonded_any {
            let dt = t0.elapsed().as_secs_f64();
            self.ledger.add(TaskKind::Bond, dt);
            self.recorder
                .record_span(ENGINE_LANE, "task", "Bond", t0, dt);
        }

        // K-space (task VI).
        if let Some(kspace) = self.kspace.as_mut() {
            let t0 = Instant::now();
            energy += kspace.compute(
                &self.bx,
                self.atoms.x(),
                self.atoms.charges(),
                &mut self.forces,
            );
            let dt = t0.elapsed().as_secs_f64();
            self.ledger.add(TaskKind::Kspace, dt);
            self.recorder
                .record_span(ENGINE_LANE, "task", "Kspace", t0, dt);
        }

        // Post-force fixes (Modify).
        if !self.fixes.is_empty() {
            let t0 = Instant::now();
            let sys = PairSystem {
                bx: &self.bx,
                x: self.atoms.x(),
                v: self.atoms.v(),
                kinds: self.atoms.kinds(),
                charge: self.atoms.charges(),
                radius: self.atoms.radii(),
                mass_by_type: self.atoms.masses_by_type(),
                units: &self.units,
                dt: self.dt,
            };
            for fix in &mut self.fixes {
                fix.post_force(&sys, &mut self.forces);
            }
            let dt = t0.elapsed().as_secs_f64();
            self.ledger.add(TaskKind::Modify, dt);
            self.recorder
                .record_span(ENGINE_LANE, "task", "Modify", t0, dt);
        }

        self.atoms.f_mut().copy_from_slice(&self.forces);
        self.energy = energy;
    }

    /// Rebuilds the neighbor list if the displacement trigger fired, wrapping
    /// positions into the box first (task III / boundary step II). Returns
    /// whether a rebuild happened.
    ///
    /// # Errors
    ///
    /// Propagates neighbor-build failures (cutoff too large for the box).
    fn refresh_neighbors(&mut self, force_build: bool) -> Result<bool> {
        if self.neighbor.is_none() {
            return Ok(false);
        }
        let t0 = Instant::now();
        let rebuild = force_build
            || self
                .neighbor
                .as_ref()
                .expect("checked above")
                .needs_rebuild(self.atoms.x(), &self.bx);
        if rebuild {
            {
                let bx = self.bx;
                let (x, images) = self.atoms.x_and_images_mut();
                for (xi, im) in x.iter_mut().zip(images.iter_mut()) {
                    bx.wrap(xi, im);
                }
            }
            // Morton sorting rides the rebuild cadence: reordering between
            // rebuilds would invalidate the list, so the sort waits for the
            // first rebuild at or after its cadence mark.
            if self.sort_every > 0
                && self.step.saturating_sub(self.last_sort_step) >= self.sort_every
            {
                self.sort_atoms()?;
                self.last_sort_step = self.step;
            }
            let atoms = &self.atoms;
            let nl = self.neighbor.as_mut().expect("checked above");
            nl.build_with(atoms.x(), &self.bx, |i| atoms.exclusions(i))?;
        } else {
            let nl = self.neighbor.as_mut().expect("checked above");
            nl.note_skipped_check();
        }
        let dt = t0.elapsed().as_secs_f64();
        self.ledger.add(TaskKind::Neigh, dt);
        self.recorder
            .record_span(ENGINE_LANE, "task", "Neigh", t0, dt);
        Ok(rebuild)
    }

    /// Reorders the atom store along the Morton curve of the current
    /// positions and remaps everything that references atoms by index.
    /// Returns `true` if the order actually changed.
    fn sort_atoms(&mut self) -> Result<bool> {
        let perm = crate::sort::morton_perm(self.atoms.x(), &self.bx);
        if crate::sort::is_identity(&perm) {
            return Ok(false);
        }
        let new_of_old = self.atoms.reorder(&perm)?;
        if let Some(shake) = self.shake.as_mut() {
            shake.remap_atoms(&new_of_old);
        }
        self.sorts_performed += 1;
        self.recorder.count(ENGINE_LANE, "atom_sorts", 1.0);
        Ok(true)
    }

    /// Morton-sorts the atoms *now* and rebuilds the neighbor list, outside
    /// any cadence. Primarily for tests and tools that need a sorted store
    /// at a known point; normal runs use [`SimulationBuilder::sort_every`].
    ///
    /// # Errors
    ///
    /// Propagates reorder validation and neighbor-build failures.
    pub fn sort_atoms_now(&mut self) -> Result<bool> {
        let changed = self.sort_atoms()?;
        if changed {
            self.refresh_neighbors(true)?;
            self.compute_forces();
        }
        Ok(changed)
    }

    /// Evaluates the pair style alone on the *current* positions and
    /// neighbor list through the requested kernel path, without touching the
    /// simulation's own force/energy state. Both paths can thus be probed on
    /// the exact same configuration — the basis of the lanes-vs-scalar
    /// agreement tests and of every lanes-vs-scalar timing (probing sidesteps
    /// chaotic trajectory divergence, which would swamp per-step kernel error).
    ///
    /// Probing [`KernelPath::Lanes`] enables neighbor-row padding on demand;
    /// the rows then stay padded across subsequent rebuilds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if no pair style is
    /// configured.
    pub fn pair_probe(&mut self, path: KernelPath) -> Result<(Vec<V3>, EnergyVirial)> {
        if path.is_lanes() {
            if let Some(nl) = self.neighbor.as_mut() {
                if nl.padding() < LANES {
                    nl.set_padding(LANES);
                }
            }
        }
        let (Some(pair), Some(nl)) = (self.pair.as_mut(), self.neighbor.as_ref()) else {
            return Err(CoreError::InvalidParameter {
                name: "pair",
                reason: "pair_probe needs a pair style and neighbor list".to_string(),
            });
        };
        let sys = PairSystem {
            bx: &self.bx,
            x: self.atoms.x(),
            v: self.atoms.v(),
            kinds: self.atoms.kinds(),
            charge: self.atoms.charges(),
            radius: self.atoms.radii(),
            mass_by_type: self.atoms.masses_by_type(),
            units: &self.units,
            dt: self.dt,
        };
        let prev = pair.kernel_path();
        pair.set_kernel_path(path);
        let mut f = vec![Vec3::zero(); self.atoms.len()];
        let energy = pair.compute(&sys, nl, &mut f);
        pair.set_kernel_path(prev);
        Ok((f, energy))
    }

    /// Advances the simulation by one timestep.
    ///
    /// # Errors
    ///
    /// Returns an error if SHAKE fails to converge or the neighbor list
    /// cannot be rebuilt.
    pub fn step(&mut self) -> Result<()> {
        let observing = self.recorder.is_enabled();
        let step_t0 = Instant::now();
        let ledger_before = if observing {
            Some(self.ledger.clone())
        } else {
            None
        };

        // I: initial integration (+ SHAKE projection) — Modify.
        let t0 = Instant::now();
        let ctx = IntegrateContext {
            dt: self.dt,
            units: &self.units,
            virial: self.energy.virial,
        };
        self.integrator
            .initial_integrate(&mut self.atoms, &mut self.bx, &ctx);
        if let Some(shake) = self.shake.as_mut() {
            shake.apply(&mut self.atoms, &self.bx, self.dt)?;
        }
        let dt = t0.elapsed().as_secs_f64();
        self.ledger.add(TaskKind::Modify, dt);
        self.recorder
            .record_span(ENGINE_LANE, "task", "Modify", t0, dt);

        // II + III: boundary conditions + neighbor maintenance — Neigh.
        let rebuilt = self.refresh_neighbors(false)?;

        // V + VI + VII (+ post-force fixes): forces.
        self.compute_forces();

        // Final integration — Modify.
        let t0 = Instant::now();
        let ctx = IntegrateContext {
            dt: self.dt,
            units: &self.units,
            virial: self.energy.virial,
        };
        self.integrator
            .final_integrate(&mut self.atoms, &mut self.bx, &ctx);
        let dt = t0.elapsed().as_secs_f64();
        self.ledger.add(TaskKind::Modify, dt);
        self.recorder
            .record_span(ENGINE_LANE, "task", "Modify", t0, dt);

        self.step += 1;

        // VIII: thermodynamic output — Output.
        if self.thermo_every > 0 && self.step.is_multiple_of(self.thermo_every) {
            let t0 = Instant::now();
            let row = self.thermo();
            if observing {
                let e = row.total_energy();
                let e0 = *self.energy_first.get_or_insert(e);
                self.last_drift = (e - e0).abs() / e0.abs().max(1.0);
                self.recorder
                    .gauge(ENGINE_LANE, "energy_drift", self.last_drift);
            }
            self.thermo_log.push(row);
            let dt = t0.elapsed().as_secs_f64();
            self.ledger.add(TaskKind::Output, dt);
            self.recorder
                .record_span(ENGINE_LANE, "task", "Output", t0, dt);
        }

        if let Some(before) = ledger_before {
            self.record_step_sample(&before, step_t0, rebuilt);
        }
        Ok(())
    }

    /// Assembles and records this step's [`StepSample`], the residual
    /// `Other` span, the latency/rebuild histograms, and the counters.
    /// Only called when the recorder is enabled.
    fn record_step_sample(&mut self, before: &TaskLedger, step_t0: Instant, rebuilt: bool) {
        let wall = step_t0.elapsed().as_secs_f64();
        let mut task_seconds = [0.0; NUM_TASKS];
        for (i, (task, secs)) in self.ledger.iter().enumerate() {
            task_seconds[i] = secs - before.seconds(task);
        }
        // Time inside step() not attributed to any task is `Other`.
        let accounted: f64 = task_seconds.iter().sum();
        let other = (wall - accounted).max(0.0);
        task_seconds[TaskKind::Other.index()] += other;
        if other > 0.0 {
            let end_us = self.recorder.now_us();
            self.recorder.record_span_at(
                ENGINE_LANE,
                "task",
                "Other",
                (end_us - other * 1e6).max(0.0),
                other * 1e6,
            );
        }

        self.recorder.observe("step_latency_us", wall * 1e6);
        if rebuilt {
            self.recorder.count(ENGINE_LANE, "neighbor_rebuilds", 1.0);
            self.recorder.observe(
                "rebuild_interval_steps",
                (self.step - self.last_rebuild_step) as f64,
            );
            self.last_rebuild_step = self.step;
        }
        let pair_interactions = self.neighbor.as_ref().map_or(0, |n| n.len() as u64);
        self.recorder
            .gauge(ENGINE_LANE, "pair_interactions", pair_interactions as f64);
        self.recorder.push_step(StepSample {
            step: self.step,
            task_seconds,
            wall_seconds: wall,
            neighbor_rebuild: rebuilt,
            // Single-process engine: no ghost layer (md-parallel owns them).
            ghost_atoms: 0,
            pair_interactions,
            energy_drift: self.last_drift,
        });
    }

    /// Runs `nsteps` timesteps and reports timing.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step and returns its error.
    pub fn run(&mut self, nsteps: u64) -> Result<StepReport> {
        let ledger_before = self.ledger.clone();
        let builds_before = self.neighbor.as_ref().map_or(0, |n| n.stats().builds);
        let t0 = Instant::now();
        for _ in 0..nsteps {
            self.step()?;
        }
        let wall = t0.elapsed().as_secs_f64();
        // Report only this run's share (both seconds and phase counts).
        let ledger = self.ledger.delta_since(&ledger_before);
        Ok(StepReport {
            steps: nsteps,
            wall_seconds: wall,
            ts_per_sec: if wall > 0.0 {
                nsteps as f64 / wall
            } else {
                0.0
            },
            ledger,
            thermo: self.thermo(),
            neighbor_builds: self.neighbor.as_ref().map_or(0, |n| n.stats().builds) - builds_before,
        })
    }

    /// Relative energy drift at the most recent thermo sample (zero until
    /// the recorder has observed at least one sample).
    pub fn last_energy_drift(&self) -> f64 {
        self.last_drift
    }

    /// Replaces the timestep (recovery-ladder mitigation: shrink `dt` after
    /// a numerical-health violation).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `dt` is positive and
    /// finite.
    pub fn set_dt(&mut self, dt: f64) -> Result<()> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(CoreError::InvalidParameter {
                name: "dt",
                reason: format!("timestep {dt} must be positive and finite"),
            });
        }
        self.dt = dt;
        Ok(())
    }

    /// Forces a neighbor-list rebuild at the current positions, regardless
    /// of the displacement trigger (recovery-ladder mitigation).
    ///
    /// # Errors
    ///
    /// Propagates neighbor-build failures.
    pub fn force_neighbor_rebuild(&mut self) -> Result<()> {
        self.refresh_neighbors(true)?;
        Ok(())
    }

    /// Tightens the long-range solver's accuracy target one notch, re-runs
    /// its setup and hands the splitting parameter that setup chose to the
    /// pair style, which carries the real-space half of the same sum
    /// (recovery-ladder mitigation). Returns `false` if no solver is
    /// configured or it has no accuracy knob.
    ///
    /// # Errors
    ///
    /// Propagates solver setup failures at the tightened target.
    pub fn tighten_kspace(&mut self) -> Result<bool> {
        let Some(ks) = self.kspace.as_mut() else {
            return Ok(false);
        };
        if !ks.tighten_accuracy() {
            return Ok(false);
        }
        ks.setup(&self.bx, self.atoms.charges())?;
        let g = ks.stats().g_ewald;
        if let Some(pair) = self.pair.as_mut() {
            pair.set_g_ewald(g);
        }
        Ok(true)
    }

    /// Serializes the simulation's full dynamic state (everything the
    /// timestep loop mutates) into a self-contained byte blob.
    ///
    /// The blob captures positions, velocities, forces, image flags, the
    /// box, step counter, timestep, energy accumulators, the thermo log, the
    /// task ledger, the inputs of the last neighbor build (its positions —
    /// the rebuild trigger's reference — and its box) with the list's
    /// counters, and the opaque per-component state of the integrator,
    /// fixes, and pair style (RNG streams, barostat internals, granular
    /// contact history). What is *not* stored is whatever a restore can
    /// recompute: the neighbor rows, which [`Simulation::load_state`]
    /// rebuilds from those inputs, and the static configuration — topology,
    /// masses, charges, force-field parameters — for which a restore target
    /// is expected to be rebuilt from the same deck recipe first, then
    /// overlaid with [`Simulation::load_state`]. Together the two reproduce
    /// an uninterrupted run bitwise.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = wire::Writer::new();
        w.u64(self.step);
        w.f64(self.dt);
        self.bx.state_save(&mut w);
        w.v3s(self.atoms.x());
        w.v3s(self.atoms.v());
        w.v3s(self.atoms.f());
        w.i32x3s(self.atoms.images());
        // Atom identities: lets a restore target (freshly built, identity
        // order) re-derive the Morton order this run had sorted into.
        w.u32s(self.atoms.ids());
        w.u64(self.last_sort_step);
        w.u64(self.sorts_performed);
        w.f64(self.energy.evdwl);
        w.f64(self.energy.ecoul);
        w.f64(self.energy.virial);
        match self.energy_first {
            Some(e) => {
                w.bool(true);
                w.f64(e);
            }
            None => w.bool(false),
        }
        w.f64(self.last_drift);
        w.u64(self.last_rebuild_step);
        w.usize(self.thermo_log.len());
        for row in &self.thermo_log {
            w.u64(row.step);
            w.f64(row.temperature);
            w.f64(row.kinetic);
            w.f64(row.potential);
            w.f64(row.pressure);
            w.f64(row.volume);
        }
        self.ledger.state_save(&mut w);
        // Per-component state goes into length-prefixed sub-blobs so each
        // component's reader can be checked for exact exhaustion.
        let sub_blob = |f: &dyn Fn(&mut wire::Writer)| {
            let mut sub = wire::Writer::new();
            f(&mut sub);
            sub.into_bytes()
        };
        match &self.neighbor {
            Some(nl) => {
                w.bool(true);
                w.blob(&sub_blob(&|sub| nl.state_save(sub)));
            }
            None => w.bool(false),
        }
        w.blob(&sub_blob(&|sub| self.integrator.state_save(sub)));
        w.usize(self.fixes.len());
        for fix in &self.fixes {
            w.blob(&sub_blob(&|sub| fix.state_save(sub)));
        }
        match &self.pair {
            Some(p) => {
                w.bool(true);
                w.blob(&sub_blob(&|sub| p.state_save(sub)));
            }
            None => w.bool(false),
        }
        w.into_bytes()
    }

    /// Restores state written by [`Simulation::save_state`] onto a
    /// simulation freshly rebuilt from the same deck recipe (same
    /// benchmark, scale, seed, thread count, kernel path and sort cadence).
    /// The neighbor list is rebuilt from its saved inputs, which costs one
    /// list build; the rebuild is charged to no task and counts as no build.
    ///
    /// On success the simulation continues bitwise-identically to the run
    /// that produced the blob. On error the simulation may be partially
    /// overwritten and must be discarded.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptState`] if the blob is malformed,
    /// truncated, carries trailing bytes, disagrees with this simulation's
    /// structure (atom count, component population), or rebuilds into a
    /// neighbor list other than the one its counters record.
    pub fn load_state(&mut self, data: &[u8]) -> Result<()> {
        let mut r = wire::Reader::new(data, "simulation");
        let corrupt = |detail: String| CoreError::CorruptState {
            what: "simulation",
            detail,
        };
        self.step = r.u64()?;
        let dt = r.f64()?;
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(corrupt(format!("timestep {dt} is not positive and finite")));
        }
        self.dt = dt;
        self.bx = SimBox::state_load(&mut r)?;
        let n = self.atoms.len();
        let check_len = |what: &str, len: usize| {
            if len == n {
                Ok(())
            } else {
                Err(corrupt(format!("{what} has {len} entries for {n} atoms")))
            }
        };
        let x = r.v3s()?;
        check_len("position array", x.len())?;
        let v = r.v3s()?;
        check_len("velocity array", v.len())?;
        let f = r.v3s()?;
        check_len("force array", f.len())?;
        let images = r.i32x3s()?;
        check_len("image array", images.len())?;
        let ids = r.u32s()?;
        check_len("id array", ids.len())?;
        self.last_sort_step = r.u64()?;
        self.sorts_performed = r.u64()?;
        // Bring this store into the blob's atom order *before* overlaying
        // the dynamic arrays: the blob's per-slot data belongs to the atom
        // whose identity sits in that slot of `ids`.
        if self.atoms.ids() != ids.as_slice() {
            let cur = self.atoms.ids();
            let mut slot_of_id = vec![u32::MAX; n];
            for (slot, &id) in cur.iter().enumerate() {
                slot_of_id[id as usize] = slot as u32;
            }
            let mut perm = Vec::with_capacity(n);
            for &id in &ids {
                let slot = slot_of_id
                    .get(id as usize)
                    .copied()
                    .filter(|&s| s != u32::MAX)
                    .ok_or_else(|| corrupt(format!("unknown atom id {id} in checkpoint")))?;
                perm.push(slot);
            }
            let new_of_old = self
                .atoms
                .reorder(&perm)
                .map_err(|e| corrupt(format!("atom-id permutation: {e}")))?;
            if let Some(shake) = self.shake.as_mut() {
                shake.remap_atoms(&new_of_old);
            }
        }
        self.atoms.x_mut().copy_from_slice(&x);
        self.atoms.v_mut().copy_from_slice(&v);
        self.atoms.f_mut().copy_from_slice(&f);
        self.atoms.images_mut().copy_from_slice(&images);
        self.forces = f;
        self.energy = EnergyVirial {
            evdwl: r.f64()?,
            ecoul: r.f64()?,
            virial: r.f64()?,
        };
        self.energy_first = if r.bool()? { Some(r.f64()?) } else { None };
        self.last_drift = r.f64()?;
        self.last_rebuild_step = r.u64()?;
        let rows = r.usize()?;
        self.thermo_log = Vec::new();
        for _ in 0..rows {
            self.thermo_log.push(ThermoState {
                step: r.u64()?,
                temperature: r.f64()?,
                kinetic: r.f64()?,
                potential: r.f64()?,
                pressure: r.f64()?,
                volume: r.f64()?,
            });
        }
        self.ledger.state_load(&mut r)?;
        let sub = |blob: &[u8],
                   what: &'static str,
                   apply: &mut dyn FnMut(&mut wire::Reader<'_>) -> Result<()>|
         -> Result<()> {
            let mut sr = wire::Reader::new(blob, what);
            apply(&mut sr)?;
            sr.expect_exhausted()
        };
        let has_neighbor = r.bool()?;
        if has_neighbor != self.neighbor.is_some() {
            return Err(corrupt(
                "neighbor-list presence disagrees with this simulation".to_string(),
            ));
        }
        if has_neighbor {
            let blob = r.blob()?;
            let atoms = &self.atoms;
            let nl = self.neighbor.as_mut().expect("checked above");
            sub(blob, "neighbor list", &mut |sr| {
                nl.state_load(sr, n, |i| atoms.exclusions(i))
            })?;
        }
        let blob = r.blob()?;
        sub(blob, "integrator", &mut |sr| self.integrator.state_load(sr))?;
        let nfixes = r.usize()?;
        if nfixes != self.fixes.len() {
            return Err(corrupt(format!(
                "{nfixes} fix blobs for {} configured fixes",
                self.fixes.len()
            )));
        }
        for fix in &mut self.fixes {
            let blob = r.blob()?;
            sub(blob, "fix", &mut |sr| fix.state_load(sr))?;
        }
        let has_pair = r.bool()?;
        if has_pair != self.pair.is_some() {
            return Err(corrupt(
                "pair-style presence disagrees with this simulation".to_string(),
            ));
        }
        if has_pair {
            let blob = r.blob()?;
            let p = self.pair.as_mut().expect("checked above");
            sub(blob, "pair style", &mut |sr| p.state_load(sr))?;
        }
        r.expect_exhausted()
    }
}

/// Builder for [`Simulation`] (non-consuming configuration, consuming build).
pub struct SimulationBuilder {
    bx: SimBox,
    atoms: AtomStore,
    units: UnitSystem,
    dt: Option<f64>,
    skin: f64,
    pair: Option<Box<dyn PairStyle>>,
    bond: Option<Box<dyn BondStyle>>,
    angle: Option<Box<dyn AngleStyle>>,
    dihedral: Option<Box<dyn DihedralStyle>>,
    kspace: Option<Box<dyn KspaceStyle>>,
    integrator: Option<Box<dyn Integrator>>,
    fixes: Vec<Box<dyn Fix>>,
    shake: Option<Shake>,
    thermo_every: u64,
    recorder: Option<Recorder>,
    threads: Threads,
    kernel_path: KernelPath,
    sort_every: u64,
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("atoms", &self.atoms.len())
            .field("skin", &self.skin)
            .finish_non_exhaustive()
    }
}

impl SimulationBuilder {
    /// Creates a builder with NVE integration, the unit system's default
    /// timestep, and a zero skin.
    pub fn new(bx: SimBox, atoms: AtomStore, units: UnitSystem) -> Self {
        SimulationBuilder {
            bx,
            atoms,
            units,
            dt: None,
            skin: 0.0,
            pair: None,
            bond: None,
            angle: None,
            dihedral: None,
            kspace: None,
            integrator: None,
            fixes: Vec::new(),
            shake: None,
            thermo_every: 0,
            recorder: None,
            threads: Threads::serial(),
            kernel_path: KernelPath::Scalar,
            sort_every: 0,
        }
    }

    /// Sets the timestep (defaults to the unit system's conventional value).
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }

    /// Sets the neighbor skin distance.
    pub fn skin(mut self, skin: f64) -> Self {
        self.skin = skin;
        self
    }

    /// Sets the pairwise potential.
    pub fn pair(mut self, pair: Box<dyn PairStyle>) -> Self {
        self.pair = Some(pair);
        self
    }

    /// Sets the bond potential.
    pub fn bond(mut self, bond: Box<dyn BondStyle>) -> Self {
        self.bond = Some(bond);
        self
    }

    /// Sets the angle potential.
    pub fn angle(mut self, angle: Box<dyn AngleStyle>) -> Self {
        self.angle = Some(angle);
        self
    }

    /// Sets the dihedral potential.
    pub fn dihedral(mut self, dihedral: Box<dyn DihedralStyle>) -> Self {
        self.dihedral = Some(dihedral);
        self
    }

    /// Sets the long-range solver.
    pub fn kspace(mut self, kspace: Box<dyn KspaceStyle>) -> Self {
        self.kspace = Some(kspace);
        self
    }

    /// Sets the integrator (defaults to NVE velocity-Verlet).
    pub fn integrator(mut self, integrator: Box<dyn Integrator>) -> Self {
        self.integrator = Some(integrator);
        self
    }

    /// Adds a post-force fix (thermostat, gravity, wall, ...).
    pub fn fix(mut self, fix: Box<dyn Fix>) -> Self {
        self.fixes.push(fix);
        self
    }

    /// Adds SHAKE constraints.
    pub fn shake(mut self, shake: Shake) -> Self {
        self.shake = Some(shake);
        self
    }

    /// Records a thermo row every `every` steps (0 disables).
    pub fn thermo_every(mut self, every: u64) -> Self {
        self.thermo_every = every;
        self
    }

    /// Attaches an observability recorder (defaults to
    /// [`Recorder::disabled`], whose hooks cost one atomic load each).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Sets the shared-memory thread-team configuration (defaults to
    /// serial). Applied to the neighbor-list build and the k-space solver;
    /// pair styles thread through the `Threaded` wrapper in
    /// `md-potentials`, which the workload decks construct to match. All
    /// three fork through [`crate::threads::fork_join`], so a traced run
    /// shows every fork of a step on the `thread 0..count` lanes.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the pair-kernel inner loop (defaults to the scalar
    /// reference; env `MD_KERNEL`, CLI `--kernel`). Deterministic thread
    /// mode always pins [`KernelPath::Scalar`] — it is the bitwise-stable
    /// path whose floating-point operation tree the determinism contract
    /// freezes. When the lanes path is active the neighbor list maintains
    /// sentinel-padded rows for it.
    pub fn kernel_path(mut self, path: KernelPath) -> Self {
        self.kernel_path = path;
        self
    }

    /// Morton-sorts the atoms every `every` steps at neighbor-rebuild
    /// boundaries (0 disables; the LAMMPS `atom_modify sort` analogue).
    /// Ignored in deterministic thread mode (sorting relabels atoms, which
    /// permutes floating-point summation order) and for pair styles that
    /// keep per-index caches ([`PairStyle::supports_reorder`] is `false`).
    pub fn sort_every(mut self, every: u64) -> Self {
        self.sort_every = every;
        self
    }

    /// Validates the configuration, builds the initial neighbor list, runs
    /// the k-space setup, and evaluates initial forces.
    ///
    /// # Errors
    ///
    /// Returns an error if the atom store is inconsistent, the box cannot
    /// accommodate the interaction range, or a style's setup fails.
    pub fn build(self) -> Result<Simulation> {
        self.atoms.validate()?;
        if self.atoms.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "atoms",
                reason: "simulation has no atoms".to_string(),
            });
        }
        if self.atoms.masses_by_type().is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "masses",
                reason: "mass table is empty; call AtomStore::set_masses".to_string(),
            });
        }
        let dt = self.dt.unwrap_or(self.units.default_dt);
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(CoreError::InvalidParameter {
                name: "dt",
                reason: format!("timestep {dt} must be positive and finite"),
            });
        }
        if !(self.skin.is_finite() && self.skin >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "skin",
                reason: format!(
                    "neighbor skin {} must be non-negative and finite",
                    self.skin
                ),
            });
        }
        // Deterministic mode pins the scalar kernel (the bitwise-reference
        // operation tree) and never sorts (a relabeling permutes summation
        // order); both knobs silently fall back rather than erroring so
        // `MD_DETERMINISTIC=1 MD_KERNEL=lanes` stays a valid environment.
        let kernel_path = if self.threads.deterministic {
            KernelPath::Scalar
        } else {
            self.kernel_path
        };
        let mut sort_every = if self.threads.deterministic {
            0
        } else {
            self.sort_every
        };
        let neighbor = match &self.pair {
            Some(p) => {
                let cutoff = p.cutoff();
                if !(cutoff > 0.0 && cutoff.is_finite()) {
                    return Err(CoreError::InvalidParameter {
                        name: "cutoff",
                        reason: format!(
                            "pair style `{}` cutoff {cutoff} must be positive and finite",
                            p.name()
                        ),
                    });
                }
                // Reject a list range that exceeds half the box up front,
                // with a typed error, rather than deep inside the first
                // cell-list build.
                self.bx.check_interaction_range(cutoff + self.skin)?;
                let mut nl = NeighborList::new(cutoff, self.skin, p.list_kind());
                nl.set_threads(self.threads.count);
                if kernel_path.is_lanes() {
                    nl.set_padding(LANES);
                }
                Some(nl)
            }
            None => None,
        };
        let mut pair = self.pair;
        if let Some(p) = pair.as_mut() {
            p.set_kernel_path(kernel_path);
            if !p.supports_reorder() {
                sort_every = 0;
            }
        }
        let mut kspace = self.kspace;
        if let Some(ks) = kspace.as_mut() {
            ks.set_threads(self.threads);
            ks.setup(&self.bx, self.atoms.charges())?;
        }
        let mut sim = Simulation {
            units: self.units,
            dt,
            bx: self.bx,
            atoms: self.atoms,
            pair,
            bond: self.bond,
            angle: self.angle,
            dihedral: self.dihedral,
            kspace,
            integrator: self
                .integrator
                .unwrap_or_else(|| Box::new(VelocityVerlet::new())),
            fixes: self.fixes,
            shake: self.shake,
            neighbor,
            forces: Vec::new(),
            ledger: TaskLedger::new(),
            step: 0,
            thermo_every: self.thermo_every,
            energy: EnergyVirial::default(),
            thermo_log: Vec::new(),
            recorder: Recorder::disabled(),
            threads: self.threads,
            last_rebuild_step: 0,
            energy_first: None,
            last_drift: 0.0,
            kernel_path,
            sort_every,
            last_sort_step: 0,
            sorts_performed: 0,
        };
        if let Some(rec) = self.recorder {
            sim.set_recorder(rec);
        }
        sim.refresh_neighbors(true)?;
        sim.compute_forces();
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pure harmonic tether to the box center, for driver plumbing tests.
    struct Tether {
        k: f64,
    }

    impl PairStyle for Tether {
        fn name(&self) -> &'static str {
            "tether"
        }
        fn cutoff(&self) -> f64 {
            2.0
        }
        fn compute(
            &mut self,
            sys: &PairSystem<'_>,
            _nl: &NeighborList,
            f: &mut [V3],
        ) -> EnergyVirial {
            let c = (sys.bx.lo() + sys.bx.hi()) * 0.5;
            let mut e = 0.0;
            for (i, &xi) in sys.x.iter().enumerate() {
                let d = xi - c;
                f[i] -= d * self.k;
                e += 0.5 * self.k * d.norm2();
            }
            EnergyVirial {
                evdwl: e,
                ecoul: 0.0,
                virial: 0.0,
            }
        }
    }

    fn harmonic_sim() -> Simulation {
        let mut atoms = AtomStore::new();
        atoms.push(Vec3::new(6.0, 5.0, 5.0), Vec3::zero(), 0);
        atoms.set_masses(vec![1.0]);
        Simulation::builder(SimBox::cubic(10.0), atoms, UnitSystem::lj())
            .pair(Box::new(Tether { k: 1.0 }))
            .dt(0.01)
            .skin(0.5)
            .thermo_every(10)
            .build()
            .unwrap()
    }

    #[test]
    fn harmonic_oscillator_conserves_energy() {
        let mut sim = harmonic_sim();
        let e0 = sim.thermo().total_energy();
        sim.run(2000).unwrap();
        let e1 = sim.thermo().total_energy();
        assert!((e1 - e0).abs() < 1e-4 * e0.abs().max(1.0), "{e0} -> {e1}");
    }

    #[test]
    fn harmonic_oscillator_has_correct_period() {
        let mut sim = harmonic_sim();
        // omega = sqrt(k/m) = 1, period = 2*pi; after one period x ~ initial.
        let steps = (2.0 * std::f64::consts::PI / 0.01).round() as u64;
        sim.run(steps).unwrap();
        assert!((sim.atoms().x()[0].x - 6.0).abs() < 1e-3);
    }

    #[test]
    fn ledger_attributes_pair_and_modify_time() {
        let mut sim = harmonic_sim();
        sim.run(50).unwrap();
        assert!(sim.ledger().seconds(TaskKind::Pair) > 0.0);
        assert!(sim.ledger().seconds(TaskKind::Modify) > 0.0);
        assert!(sim.ledger().seconds(TaskKind::Neigh) > 0.0);
    }

    #[test]
    fn thermo_log_records_rows() {
        let mut sim = harmonic_sim();
        sim.run(35).unwrap();
        assert_eq!(sim.thermo_log().len(), 3);
        assert_eq!(sim.thermo_log()[0].step, 10);
    }

    #[test]
    fn builder_rejects_missing_masses() {
        let mut atoms = AtomStore::new();
        atoms.push(Vec3::zero(), Vec3::zero(), 0);
        let err = Simulation::builder(SimBox::cubic(5.0), atoms, UnitSystem::lj())
            .build()
            .unwrap_err();
        // validate() reports the missing mass entry as an unknown atom type.
        assert!(matches!(err, CoreError::UnknownAtomType { .. }));
    }

    #[test]
    fn builder_rejects_bad_dt() {
        let mut atoms = AtomStore::new();
        atoms.push(Vec3::zero(), Vec3::zero(), 0);
        atoms.set_masses(vec![1.0]);
        let err = Simulation::builder(SimBox::cubic(5.0), atoms, UnitSystem::lj())
            .dt(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidParameter { name: "dt", .. }
        ));
    }

    #[test]
    fn recorder_collects_steps_spans_and_histograms() {
        let mut atoms = AtomStore::new();
        atoms.push(Vec3::new(6.0, 5.0, 5.0), Vec3::zero(), 0);
        atoms.set_masses(vec![1.0]);
        let rec = md_observe::Recorder::default();
        let mut sim = Simulation::builder(SimBox::cubic(10.0), atoms, UnitSystem::lj())
            .pair(Box::new(Tether { k: 1.0 }))
            .dt(0.01)
            .skin(0.5)
            .thermo_every(10)
            .recorder(rec.clone())
            .build()
            .unwrap();
        sim.run(30).unwrap();

        assert_eq!(rec.step_count(), 30);
        let latency = rec
            .hist_summary("step_latency_us")
            .expect("latency histogram");
        assert_eq!(latency.count, 30);
        assert!(latency.p99 >= latency.p50);
        // Pair, Modify, Neigh, Output spans must all be present.
        let names: std::collections::HashSet<&'static str> =
            rec.events().iter().map(|e| e.name).collect();
        for want in ["Pair", "Modify", "Neigh", "Output"] {
            assert!(names.contains(want), "missing {want} span");
        }
        let sample = rec.last_step().unwrap();
        assert_eq!(sample.step, 30);
        assert!(sample.wall_seconds > 0.0);
        // The split sums to the step wall time (Other absorbs the rest).
        let sum: f64 = sample.task_seconds.iter().sum();
        assert!(
            sum <= sample.wall_seconds * 1.0001,
            "{sum} vs {}",
            sample.wall_seconds
        );
        assert!(rec.counter_value("pair_interactions").is_some());
        assert!(rec.counter_value("energy_drift").is_some());
    }

    #[test]
    fn disabled_recorder_stays_empty_through_run() {
        let mut sim = harmonic_sim();
        sim.run(10).unwrap();
        assert_eq!(sim.recorder().event_count(), 0);
        assert_eq!(sim.recorder().step_count(), 0);
    }

    #[test]
    fn run_report_counts_only_its_own_time() {
        let mut sim = harmonic_sim();
        sim.run(20).unwrap();
        let r = sim.run(20).unwrap();
        assert_eq!(r.steps, 20);
        assert!(r.ts_per_sec > 0.0);
        assert!(r.ledger.total() <= sim.ledger().total());
    }
}
