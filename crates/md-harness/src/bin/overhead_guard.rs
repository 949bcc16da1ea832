//! The one overhead guard: the disabled `md-observe` hooks compiled into
//! `Simulation::step` must cost at most 2 % of a serial LJ step. Prints the
//! fraction and exits 1 on a breach:
//! `cargo run --release -p md-harness --bin overhead_guard`.
//!
//! Both quantities are timed interleaved, round after round on the one
//! deck, and reported as their minimum over the rounds: a batch per
//! quantity would fold the slow drift of a small cloud host straight into
//! the ratio. The deck's knobs are explicit, not the environment's, and
//! nothing is written: what the hooks cost in absolute terms is `mdbench`'s
//! to remember.

use md_core::{KernelPath, Threads};
use md_observe::Recorder;
use md_workloads::{build_deck_tuned, Benchmark, DeckTuning};
use std::time::Instant;

/// Tolerated share of one engine step.
const MAX_OVERHEAD_FRACTION: f64 = 0.02;

/// Upper bound on instrumentation call sites executed per engine step
/// (Pair + Bond + Kspace + 5 PPPM sub-spans + 2×Modify + Neigh + Output +
/// counters/gauges/histograms in `record_step_sample`).
const HOOKS_PER_STEP: f64 = 24.0;

/// Interleaved timing rounds; both quantities are their minimum over them.
const ROUNDS: u32 = 9;

/// Steps per round: six or seven of the LJ deck's neighbor-rebuild cycles
/// (a rebuild costs several steps), so the minimum over the rounds cannot
/// land on a stretch without one.
const STEPS_PER_ROUND: u32 = 40;

/// Seconds per occurrence of what the budget is made of: an engine step and
/// a disabled `record_span` hook.
struct Timings {
    step: f64,
    hook: f64,
}

/// The hooks' share of a step and whether it holds.
struct Budget {
    fraction: f64,
    within: bool,
}

/// The verdict, as a function of the timings alone. A step time that is not
/// a positive finite number fails the budget: a guard that could not time a
/// step has shown nothing.
fn verdict(t: &Timings) -> Budget {
    let fraction = t.hook * HOOKS_PER_STEP / t.step;
    // NaN and infinite fractions compare false.
    let within = t.step.is_finite() && t.step > 0.0 && fraction <= MAX_OVERHEAD_FRACTION;
    Budget { fraction, within }
}

/// Seconds per call of `body`, over `iters` calls.
fn time_per_iter(iters: u32, mut body: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        body();
    }
    t0.elapsed().as_secs_f64() / f64::from(iters)
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

    let [mut step, mut hook] = [f64::INFINITY; 2];
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        deck.simulation.run(u64::from(STEPS_PER_ROUND))?;
        step = step.min(t0.elapsed().as_secs_f64() / f64::from(STEPS_PER_ROUND));
        hook = hook.min(time_per_iter(400_000, || {
            let t0 = Instant::now();
            off.record_span(0, "task", "Pair", t0, 1e-6);
        }));
    }
    Ok(Timings { step, hook })
}

fn main() {
    let t = measure().unwrap_or_else(|e| {
        eprintln!("overhead_guard: {e}");
        std::process::exit(1);
    });
    println!(
        "  step {:.1} us; disabled hook {:.1} ns x {HOOKS_PER_STEP}",
        t.step * 1e6,
        t.hook * 1e9,
    );
    let b = verdict(&t);
    println!(
        "  disabled hooks {:>8.4}% of a step (budget {:.0}%) {}",
        b.fraction * 100.0,
        MAX_OVERHEAD_FRACTION * 100.0,
        if b.within { "ok" } else { "OVER BUDGET" }
    );
    if !b.within {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_charged_per_call_site() {
        // 24 hooks x 10 us = 0.24 ms, 1.2 % of a 20 ms step; at 20 us
        // they are 2.4 %.
        let at = |hook| verdict(&Timings { step: 20e-3, hook });
        assert!((at(10e-6).fraction - 0.012).abs() < 1e-12);
        assert!(at(10e-6).within);
        assert!(!at(20e-6).within);
    }

    #[test]
    fn an_untimed_step_is_a_failure_not_a_pass() {
        for step in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let t = Timings { step, hook: 0.0 };
            assert!(!verdict(&t).within, "step {step}");
        }
    }
}
