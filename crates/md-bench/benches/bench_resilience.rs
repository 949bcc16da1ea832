//! md-resilience overhead guard: a run that is *prepared* to recover — a
//! watchdog check every step, an in-memory snapshot (`save_state`) at the
//! default cadence — must cost at most 2% over a bare run (the same bar
//! md-observe holds its disabled hooks to), and so must the comm-health
//! detection hook of the modeled cluster. A checkpoint encode is measured
//! and reported but not guarded: the disk cadence is a knob the operator
//! trades against recovery granularity.
//!
//! Step, check, snapshot and encode are timed interleaved, round after
//! round on the one deck, and each is reported as its minimum over the
//! rounds, the way `bench_kernels` times its two kernel paths: a batch per
//! quantity would fold the slow drift of a small cloud host (this guard
//! read 1.9–2.2% from run to run that way) straight into the ratios.
//!
//! Results are also written to `BENCH_resilience.json` at the workspace
//! root so runs can be compared across hosts.

use criterion::{criterion_group, criterion_main, Criterion};
use md_core::{TaskKind, Threads};
use md_parallel::{CommPolicy, LinkModel, VirtualCluster};
use md_resilience::{Checkpoint, RecoveryPolicy, Watchdog, WatchdogConfig};
use md_workloads::{build_deck_with, Benchmark};
use std::time::{Duration, Instant};

/// Tolerated overhead of being prepared to recover, as a fraction of one
/// engine step: the watchdog check that runs every step plus the snapshot
/// amortized over its cadence.
const MAX_OVERHEAD_FRACTION: f64 = 0.02;

/// Interleaved timing rounds; every quantity is its minimum over them.
const ROUNDS: u32 = 9;

/// Steps per round. The LJ deck rebuilds its neighbor list about every six
/// steps and a rebuild costs several of them, so a round's mean step spans
/// six or seven rebuild cycles and the minimum over the rounds cannot land
/// on a stretch without one.
const STEPS_PER_ROUND: u32 = 40;

/// Modeled cluster steps per halo-exchange sample.
const HALO_STEPS: u32 = 10;

/// Seconds per call of `body`, over `iters` calls.
fn time_per_iter(iters: u32, mut body: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        body();
    }
    t0.elapsed().as_secs_f64() / f64::from(iters)
}

/// Wall-clock cost of one modeled cluster step (compute + halo exchange
/// across an 8-rank ring), with or without the comm-health policing layer
/// armed. The difference is the detection hook's real price: deadline
/// bookkeeping plus a CRC over a framed ghost payload per exchange.
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

fn guard_resilience_overhead(c: &mut Criterion) {
    let snapshot_every = RecoveryPolicy::default().snapshot_every as f64;
    let mut deck = build_deck_with(Benchmark::Lj, 1, 3, Threads::serial()).expect("deck builds");
    deck.simulation.run(5).expect("warmup");
    // Every threshold class enabled; the first check primes the
    // displacement reference.
    let mut dog = Watchdog::new(WatchdogConfig::default());
    dog.check(&deck.simulation);

    let [mut step, mut check, mut save, mut encode, mut unpoliced, mut policed] =
        [f64::INFINITY; 6];
    for _ in 0..ROUNDS {
        step = step.min(time_per_iter(STEPS_PER_ROUND, || {
            deck.simulation.run(1).expect("step runs");
        }));
        check = check.min(time_per_iter(20, || {
            let events = dog.check(&deck.simulation);
            assert!(events.is_empty(), "healthy deck: {events:?}");
        }));
        save = save.min(time_per_iter(5, || {
            std::hint::black_box(deck.simulation.save_state());
        }));
        encode = encode.min(time_per_iter(3, || {
            std::hint::black_box(Checkpoint::capture(&deck, 3).encode());
        }));
        unpoliced = unpoliced.min(model_halo_step(false));
        policed = policed.min(model_halo_step(true));
    }

    // Comm-health detection hook: policed minus unpoliced modeled halo
    // step, guarded against the same engine-step budget.
    let comm_hook_per_step = (policed - unpoliced).max(0.0);
    let comm_fraction = comm_hook_per_step / step;
    let watchdog_fraction = check / step;
    let snapshot_fraction = save / snapshot_every / step;
    let prepared_fraction = watchdog_fraction + snapshot_fraction;
    let within_budget = prepared_fraction <= MAX_OVERHEAD_FRACTION;
    println!(
        "resilience_guard: step {:.1} us, watchdog check {:.1} us ({:.3}% of a step), \
         snapshot {:.1} us every {snapshot_every} steps ({:.3}%): prepared to recover costs \
         {:.3}% of a step (budget {:.0}%); checkpoint encode {:.1} us, unguarded",
        step * 1e6,
        check * 1e6,
        watchdog_fraction * 100.0,
        save * 1e6,
        snapshot_fraction * 100.0,
        prepared_fraction * 100.0,
        MAX_OVERHEAD_FRACTION * 100.0,
        encode * 1e6,
    );
    println!(
        "comm_guard: policed modeled step {:.2} us vs unpoliced {:.2} us — detection \
         hook {:.3} us/step ({:.3}% of an engine step, budget {:.0}%)",
        policed * 1e6,
        unpoliced * 1e6,
        comm_hook_per_step * 1e6,
        comm_fraction * 100.0,
        MAX_OVERHEAD_FRACTION * 100.0,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"lj\",\n  \"rounds\": {ROUNDS},\n  \
         \"steps_per_round\": {STEPS_PER_ROUND},\n  \"step_s\": {step:.6e},\n  \
         \"watchdog_check_s\": {check:.6e},\n  \"save_state_s\": {save:.6e},\n  \
         \"checkpoint_encode_s\": {encode:.6e},\n  \"snapshot_every\": {snapshot_every},\n  \
         \"watchdog_overhead_fraction\": {watchdog_fraction:.6},\n  \
         \"snapshot_overhead_fraction\": {snapshot_fraction:.6},\n  \
         \"prepared_overhead_fraction\": {prepared_fraction:.6},\n  \
         \"prepared_within_budget\": {within_budget},\n  \
         \"comm_hook_s_per_step\": {comm_hook_per_step:.6e},\n  \
         \"comm_overhead_fraction\": {comm_fraction:.6},\n  \
         \"overhead_budget\": {MAX_OVERHEAD_FRACTION}\n}}\n",
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resilience.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("bench_resilience: wrote {out}"),
        Err(e) => println!("bench_resilience: cannot write {out}: {e}"),
    }

    assert!(
        within_budget,
        "being prepared to recover costs {:.3}% of a step (watchdog check {:.3}% + snapshot \
         every {snapshot_every} steps {:.3}%; budget {:.0}%)",
        prepared_fraction * 100.0,
        watchdog_fraction * 100.0,
        snapshot_fraction * 100.0,
        MAX_OVERHEAD_FRACTION * 100.0
    );
    assert!(
        comm_fraction <= MAX_OVERHEAD_FRACTION,
        "comm-health detection hook costs {:.3}% of an engine step (budget {:.0}%)",
        comm_fraction * 100.0,
        MAX_OVERHEAD_FRACTION * 100.0
    );

    // Criterion entries so regressions show in reports.
    let mut group = c.benchmark_group("resilience");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    group.bench_function("watchdog_check", |b| {
        b.iter(|| dog.check(&deck.simulation).len())
    });
    group.bench_function("save_state", |b| {
        b.iter(|| deck.simulation.save_state().len())
    });
    group.bench_function("checkpoint_encode", |b| {
        b.iter(|| Checkpoint::capture(&deck, 3).encode().len())
    });
    group.finish();
}

criterion_group!(benches, guard_resilience_overhead);
criterion_main!(benches);
