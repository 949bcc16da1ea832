//! The one overhead guard: three things ride along with every step — the
//! disabled `md-observe` hooks compiled into `Simulation::step`, being
//! *prepared* to recover (a watchdog check every step plus an in-memory
//! `save_state` snapshot at the default cadence), and the comm-health
//! detection hook of the modeled cluster — and each must cost at most 2 % of
//! a serial LJ step. Prints the three fractions and exits 1 on a breach:
//! `cargo run --release -p md-harness --bin overhead_guard`.
//!
//! Every quantity is timed interleaved, round after round on the one deck,
//! and reported as its minimum over the rounds: a batch per quantity would
//! fold the slow drift of a small cloud host straight into the ratios. The
//! deck's knobs are explicit, not the environment's, and nothing is written:
//! what the quantities cost in absolute terms is `mdbench`'s to remember.

use md_core::{KernelPath, TaskKind, Threads};
use md_observe::Recorder;
use md_parallel::{CommPolicy, LinkModel, VirtualCluster};
use md_resilience::{Checkpoint, RecoveryPolicy, Watchdog, WatchdogConfig};
use md_workloads::{build_deck_tuned, Benchmark, DeckTuning};
use std::time::Instant;

/// Tolerated share of one engine step, per budget.
const MAX_OVERHEAD_FRACTION: f64 = 0.02;

/// Upper bound on instrumentation call sites executed per engine step
/// (Pair + Bond + Kspace + 5 PPPM sub-spans + 2×Modify + Neigh + Output +
/// counters/gauges/histograms in `record_step_sample`).
const HOOKS_PER_STEP: f64 = 24.0;

/// Interleaved timing rounds; every quantity is its minimum over them.
const ROUNDS: u32 = 9;

/// Steps per round: six or seven of the LJ deck's neighbor-rebuild cycles
/// (a rebuild costs several steps), so the minimum over the rounds cannot
/// land on a stretch without one.
const STEPS_PER_ROUND: u32 = 40;

/// Modeled cluster steps per halo-exchange sample.
const HALO_STEPS: u32 = 10;

/// Seconds per occurrence of what the budgets are made of: an engine step,
/// a disabled `record_span` hook, a watchdog check, a `save_state` snapshot
/// (taken every `snapshot_every` steps), and the policed minus the
/// unpoliced modeled cluster step.
struct Timings {
    step: f64,
    hook: f64,
    check: f64,
    save: f64,
    snapshot_every: f64,
    comm_hook: f64,
}

/// One budget's share of a step and whether it holds.
struct Budget {
    name: &'static str,
    fraction: f64,
    within: bool,
}

/// The verdict, as a function of the timings alone. A step time that is not
/// a positive finite number fails every budget: a guard that could not time
/// a step has shown nothing.
fn verdict(t: &Timings) -> [Budget; 3] {
    let budget = |name, cost: f64| {
        let fraction = cost / t.step;
        // NaN and infinite fractions compare false.
        let within = t.step.is_finite() && t.step > 0.0 && fraction <= MAX_OVERHEAD_FRACTION;
        Budget {
            name,
            fraction,
            within,
        }
    };
    [
        budget("disabled hooks", t.hook * HOOKS_PER_STEP),
        budget("prepared to recover", t.check + t.save / t.snapshot_every),
        budget("comm-health hook", t.comm_hook),
    ]
}

/// Seconds per call of `body`, over `iters` calls.
fn time_per_iter(iters: u32, mut body: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        body();
    }
    t0.elapsed().as_secs_f64() / f64::from(iters)
}

/// Wall-clock cost of one modeled cluster step (compute + halo exchange
/// across an 8-rank ring), comm-health policing armed or not. The difference
/// is the detection hook: deadline bookkeeping plus a CRC per ghost payload.
fn model_halo_step(policed: bool) -> f64 {
    let link = LinkModel {
        latency: 1.5e-6,
        bandwidth: 11.0e9,
    };
    let partners: Vec<Vec<usize>> = (0..8).map(|r| vec![(r + 1) % 8, (r + 7) % 8]).collect();
    let bytes = vec![1.0e5; 8];
    let run = time_per_iter(5, || {
        let mut cluster = VirtualCluster::new(8);
        if policed {
            cluster.set_comm_policy(CommPolicy::default());
        }
        for step in 0..u64::from(HALO_STEPS) {
            cluster.begin_step(step);
            for r in 0..8 {
                cluster.compute(r, TaskKind::Pair, 1.0e-3);
            }
            cluster.halo_exchange(&partners, &bytes, link);
        }
        std::hint::black_box(cluster.max_clock());
    });
    run / f64::from(HALO_STEPS)
}

fn measure() -> md_core::Result<Timings> {
    let tuning = DeckTuning {
        threads: Threads::serial(),
        kernel: KernelPath::Scalar,
        sort_every: 0,
    };
    let mut deck = build_deck_tuned(Benchmark::Lj, 1, 3, tuning)?;
    println!(
        "overhead_guard: lj, {} atoms, {}, {} kernel, target features {}, lanes {}",
        deck.simulation.atoms().len(),
        deck.simulation.threads(),
        deck.simulation.kernel_path(),
        md_core::kernel::target_features(),
        md_core::kernel::lane_isa()
    );
    deck.simulation.run(5)?;
    let off = Recorder::disabled();
    // The first check primes the displacement reference.
    let mut dog = Watchdog::new(WatchdogConfig::default());
    dog.check(&deck.simulation);

    let [mut step, mut hook, mut check, mut save, mut unpoliced, mut policed] = [f64::INFINITY; 6];
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        deck.simulation.run(u64::from(STEPS_PER_ROUND))?;
        step = step.min(t0.elapsed().as_secs_f64() / f64::from(STEPS_PER_ROUND));
        hook = hook.min(time_per_iter(400_000, || {
            let t0 = Instant::now();
            off.record_span(0, "task", "Pair", t0, 1e-6);
        }));
        check = check.min(time_per_iter(20, || {
            let events = dog.check(&deck.simulation);
            assert!(events.is_empty(), "healthy deck: {events:?}");
        }));
        save = save.min(time_per_iter(5, || {
            std::hint::black_box(deck.simulation.save_state());
        }));
        // A checkpoint encode between the rounds, as a checkpointing run
        // makes: the next snapshots then fault in a fresh 3.6 MB mapping
        // (1.4–1.8 ms against 0.9 ms allocator-warm), the dearer case.
        std::hint::black_box(Checkpoint::capture(&deck, 3).encode());
        unpoliced = unpoliced.min(model_halo_step(false));
        policed = policed.min(model_halo_step(true));
    }
    Ok(Timings {
        step,
        hook,
        check,
        save,
        snapshot_every: RecoveryPolicy::default().snapshot_every as f64,
        comm_hook: (policed - unpoliced).max(0.0),
    })
}

fn main() {
    let t = measure().unwrap_or_else(|e| {
        eprintln!("overhead_guard: {e}");
        std::process::exit(1);
    });
    println!(
        "  step {:.1} us; disabled hook {:.1} ns x {HOOKS_PER_STEP}; watchdog check {:.1} us; \
         snapshot {:.1} us every {} steps; comm-health hook {:.2} us per modeled step",
        t.step * 1e6,
        t.hook * 1e9,
        t.check * 1e6,
        t.save * 1e6,
        t.snapshot_every,
        t.comm_hook * 1e6,
    );
    let budgets = verdict(&t);
    for b in &budgets {
        println!(
            "  {:<20} {:>8.4}% of a step (budget {:.0}%) {}",
            b.name,
            b.fraction * 100.0,
            MAX_OVERHEAD_FRACTION * 100.0,
            if b.within { "ok" } else { "OVER BUDGET" }
        );
    }
    if budgets.iter().any(|b| !b.within) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 ms step, 0.15 ms check, 1.5 ms snapshot every 10 steps, free hooks.
    fn healthy() -> Timings {
        Timings {
            step: 20e-3,
            hook: 0.0,
            check: 0.15e-3,
            save: 1.5e-3,
            snapshot_every: 10.0,
            comm_hook: 0.0,
        }
    }

    fn breached(t: &Timings) -> Vec<&'static str> {
        verdict(t)
            .into_iter()
            .filter(|b| !b.within)
            .map(|b| b.name)
            .collect()
    }

    #[test]
    fn check_plus_amortized_snapshot_passes_at_one_and_a_half_percent() {
        let [_, prepared, _] = verdict(&healthy());
        assert!((prepared.fraction - 0.015).abs() < 1e-12);
        assert!(breached(&healthy()).is_empty());
    }

    #[test]
    fn a_doubled_snapshot_breaches_the_prepared_budget_only() {
        let t = Timings {
            save: 3e-3,
            ..healthy()
        };
        assert_eq!(breached(&t), ["prepared to recover"]);
    }

    #[test]
    fn a_slow_comm_hook_fails_alone() {
        let t = Timings {
            comm_hook: 0.5e-3,
            ..healthy()
        };
        assert_eq!(breached(&t), ["comm-health hook"]);
    }

    #[test]
    fn hooks_are_charged_per_call_site() {
        // 24 hooks x 20 us = 0.48 ms of a 20 ms step.
        let t = Timings {
            hook: 20e-6,
            ..healthy()
        };
        assert_eq!(breached(&t), ["disabled hooks"]);
    }

    #[test]
    fn an_untimed_step_is_a_failure_not_a_pass() {
        for step in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let t = Timings { step, ..healthy() };
            assert_eq!(breached(&t).len(), 3, "step {step}");
        }
    }
}
