//! In-core kernel guard: the lane-blocked (autovectorized) pair kernels
//! must actually pay for themselves. On a host built with wide vector units
//! (`avx2`/`neon` in the target features, i.e. `RUSTFLAGS="-C
//! target-cpu=native"` on any modern box) the lanes LJ kernel must run at
//! least 1.5x the scalar reference on the LJ melt deck. Hosts compiled
//! without a wide-SIMD target skip the ratio assertion (the blocked loops
//! then compete against scalar code with the same instruction set and the
//! win is not guaranteed) but still measure and report.
//!
//! Both paths are probed on the *same* configuration via
//! `Simulation::pair_probe`, so the comparison is pure kernel time — no
//! trajectory divergence, no neighbor-build noise. EAM density+embedding
//! passes are measured the same way, informationally.
//!
//! The neighbor build is timed beside them, informationally: a forced
//! rebuild (`Simulation::force_neighbor_rebuild`: wrap + build) of the LJ
//! and Chain decks as `run_deck` runs them, seconds per build and
//! nanoseconds per stored pair.
//!
//! So are the CHARMM kernels on the rhodo deck (scalar and lanes probes,
//! nanoseconds per stored pair on the scalar path) and one `erfc` call over
//! the `g·r` range that deck's real-space Coulomb term spans.
//!
//! Results are written to `BENCH_kernels.json` at the workspace root; the
//! harness reads the `lj_speedup` field to recalibrate the modeled CPU
//! ns/pair when `run_deck --kernel lanes` runs.

use criterion::{criterion_group, criterion_main, Criterion};
use md_core::math::erfc;
use md_core::{KernelPath, Threads};
use md_workloads::{build_deck_tuned, Benchmark, DeckTuning};
use std::time::{Duration, Instant};

/// Lanes LJ must be at least this many times faster than scalar.
const SPEEDUP_MIN: f64 = 1.5;

/// Interleaved scalar/lanes timing rounds per benchmark; the per-path
/// minimum over the rounds is reported, which cancels the slow frequency /
/// noisy-neighbor drift of small cloud hosts (a batch-per-path timing would
/// fold that drift straight into the ratio).
const ROUNDS: u32 = 12;
/// Probes per timing sample within a round.
const REPS: u32 = 3;

fn tuned(kernel: KernelPath) -> DeckTuning {
    DeckTuning {
        threads: Threads::serial(),
        kernel,
        sort_every: 0,
    }
}

/// Best-of-[`ROUNDS`] seconds per pair-force evaluation for the scalar and
/// lanes paths on the benchmark's deck, measured interleaved on the same
/// configuration, and the stored pairs one evaluation walks. The deck is
/// built on the lanes path so the neighbor rows carry padding for both
/// probes; the scalar kernel ignores the pad slots.
fn probe_seconds(benchmark: Benchmark) -> (f64, f64, usize) {
    let mut deck =
        build_deck_tuned(benchmark, 1, 3, tuned(KernelPath::Lanes)).expect("deck builds");
    deck.simulation.run(3).expect("warmup steps");
    let mut sample = |path: KernelPath| {
        let t0 = Instant::now();
        for _ in 0..REPS {
            deck.simulation.pair_probe(path).expect("timed probe");
        }
        t0.elapsed().as_secs_f64() / f64::from(REPS)
    };
    sample(KernelPath::Scalar);
    sample(KernelPath::Lanes);
    let (mut scalar, mut lanes) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        scalar = scalar.min(sample(KernelPath::Scalar));
        lanes = lanes.min(sample(KernelPath::Lanes));
    }
    let pairs = deck.simulation.neighbor_list().map_or(0, |nl| nl.len());
    (scalar, lanes, pairs)
}

/// Best-of-[`ROUNDS`] nanoseconds per `erfc` call over `g·r` from 0.27 to
/// 2.73: the rhodo deck's splitting parameter times 1 Å … its 10 Å cutoff.
fn erfc_ns_per_call() -> f64 {
    const CALLS: u32 = 1 << 20;
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let mut sum = 0.0;
        for k in 0..CALLS {
            let x = 0.27 + (2.73 - 0.27) * f64::from(k) / f64::from(CALLS);
            sum += erfc(std::hint::black_box(x));
        }
        std::hint::black_box(sum);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e9 / f64::from(CALLS)
}

/// Best-of-[`ROUNDS`] seconds per forced neighbor rebuild on the benchmark's
/// scalar serial deck, and the same per stored pair in nanoseconds.
fn neigh_build_seconds(benchmark: Benchmark) -> (f64, f64) {
    let mut deck =
        build_deck_tuned(benchmark, 1, 3, tuned(KernelPath::Scalar)).expect("deck builds");
    deck.simulation.run(3).expect("warmup steps");
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        deck.simulation
            .force_neighbor_rebuild()
            .expect("timed rebuild");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let pairs = deck.simulation.neighbor_list().map_or(0, |nl| nl.len());
    (best, best * 1e9 / pairs.max(1) as f64)
}

fn guard_kernel_speedup(c: &mut Criterion) {
    let (neigh_lj, neigh_lj_ns) = neigh_build_seconds(Benchmark::Lj);
    let (neigh_chain, neigh_chain_ns) = neigh_build_seconds(Benchmark::Chain);
    println!(
        "bench_kernels: neighbor build — lj {:.2} ms ({neigh_lj_ns:.1} ns/pair), \
         chain {:.2} ms ({neigh_chain_ns:.1} ns/pair)",
        neigh_lj * 1e3,
        neigh_chain * 1e3,
    );
    let (scalar_lj, lanes_lj, _) = probe_seconds(Benchmark::Lj);
    let lj_speedup = scalar_lj / lanes_lj.max(1e-12);
    let (scalar_eam, lanes_eam, _) = probe_seconds(Benchmark::Eam);
    let eam_speedup = scalar_eam / lanes_eam.max(1e-12);
    let (scalar_charmm, lanes_charmm, charmm_pairs) = probe_seconds(Benchmark::Rhodo);
    let charmm_speedup = scalar_charmm / lanes_charmm.max(1e-12);
    let charmm_ns = scalar_charmm * 1e9 / charmm_pairs.max(1) as f64;
    let erfc_ns = erfc_ns_per_call();
    println!(
        "bench_kernels: lj pair probe — scalar {:.2} ms, lanes {:.2} ms ({lj_speedup:.2}x); \
         eam — scalar {:.2} ms, lanes {:.2} ms ({eam_speedup:.2}x)",
        scalar_lj * 1e3,
        lanes_lj * 1e3,
        scalar_eam * 1e3,
        lanes_eam * 1e3,
    );
    println!(
        "bench_kernels: charmm pair probe — scalar {:.2} ms ({charmm_ns:.1} ns/pair), \
         lanes {:.2} ms ({charmm_speedup:.2}x); erfc {erfc_ns:.1} ns/call",
        scalar_charmm * 1e3,
        lanes_charmm * 1e3,
    );

    // The blocked loops only reliably beat the scalar reference when the
    // compiler had a wide vector ISA to aim them at AND the host gives a
    // core real memory bandwidth — the LJ kernel is cache-line-traffic
    // bound, so a single shared vCPU measures the host's throttling, not
    // the kernel (the same constrained-host convention as bench_threads).
    // A reader of the JSON must be able to tell a passing guard from one
    // that never ran.
    let wide_simd = cfg!(any(target_feature = "avx2", target_feature = "neon"));
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asserted = wide_simd && host_threads >= 2;
    let skip_reason = if asserted {
        String::new()
    } else if !wide_simd {
        "built without avx2/neon target features (set RUSTFLAGS=\\\"-C target-cpu=native\\\"); \
         speedup assertion needs a wide-SIMD target"
            .to_string()
    } else {
        format!(
            "host has {host_threads} hardware thread(s); the line-traffic-bound LJ ratio \
             needs an unthrottled multi-core host"
        )
    };
    let json = format!(
        "{{\n  \"benchmark\": \"lj\",\n  \"rounds\": {ROUNDS},\n  \"reps\": {REPS},\n  \
         \"scalar_lj_pair_s\": {scalar_lj:.6e},\n  \"lanes_lj_pair_s\": {lanes_lj:.6e},\n  \
         \"lj_speedup\": {lj_speedup:.4},\n  \
         \"scalar_eam_pair_s\": {scalar_eam:.6e},\n  \"lanes_eam_pair_s\": {lanes_eam:.6e},\n  \
         \"eam_speedup\": {eam_speedup:.4},\n  \
         \"scalar_charmm_pair_s\": {scalar_charmm:.6e},\n  \
         \"lanes_charmm_pair_s\": {lanes_charmm:.6e},\n  \
         \"charmm_speedup\": {charmm_speedup:.4},\n  \
         \"charmm_ns_per_pair\": {charmm_ns:.2},\n  \
         \"erfc_ns_per_call\": {erfc_ns:.2},\n  \
         \"lj_neigh_build_s\": {neigh_lj:.6e},\n  \
         \"lj_neigh_ns_per_pair\": {neigh_lj_ns:.2},\n  \
         \"chain_neigh_build_s\": {neigh_chain:.6e},\n  \
         \"chain_neigh_ns_per_pair\": {neigh_chain_ns:.2},\n  \
         \"speedup_min\": {SPEEDUP_MIN},\n  \"wide_simd\": {wide_simd},\n  \
         \"host_threads\": {host_threads},\n  \
         \"asserted\": {asserted},\n  \"skip_reason\": \"{skip_reason}\"\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("bench_kernels: wrote {out}"),
        Err(e) => println!("bench_kernels: cannot write {out}: {e}"),
    }

    if asserted {
        assert!(
            lj_speedup >= SPEEDUP_MIN,
            "lanes LJ kernel at {lj_speedup:.2}x scalar (floor {SPEEDUP_MIN}x)"
        );
    } else {
        eprintln!(
            "bench_kernels: WARNING: speedup assertion SKIPPED — {skip_reason}; \
             the numbers above are informational only"
        );
    }

    // Criterion records per-path probe times so regressions show in reports.
    let mut group = c.benchmark_group("kernels_lj_pair_probe");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(400));
    for (label, path) in [("scalar", KernelPath::Scalar), ("lanes", KernelPath::Lanes)] {
        group.bench_function(label, |b| {
            let mut deck = build_deck_tuned(Benchmark::Lj, 1, 3, tuned(KernelPath::Lanes))
                .expect("deck builds");
            deck.simulation.run(3).expect("warmup");
            b.iter(|| deck.simulation.pair_probe(path).expect("probe").1)
        });
    }
    group.finish();
}

criterion_group!(benches, guard_kernel_speedup);
criterion_main!(benches);
