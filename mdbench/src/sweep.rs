//! `model_sweep`: the characterization half of the repo, driven the way
//! `figures` drives it. A fresh `ExperimentContext` measures the four deck
//! profiles (the set-up), then one pass asks it for every modeled CPU and GPU
//! run of the sweep with all caches cold. The seed orders the requests inside
//! each (deck, scale) group.

use crate::report::{Outcome, Repeat};
use crate::{host, spans, stats, RunArgs};
use md_harness::context::{ExperimentContext, Fidelity, CPU_PROCS, GPU_DEVICES};
use md_model::{CpuModel, CpuRunOptions};
use md_observe::Recorder;
use md_parallel::{frame_ghost_payload, verify_ghost_payload, Decomposition, GhostExchange};
use md_workloads::{atoms_at_scale, Benchmark};
use std::hint::black_box;
use std::time::Instant;

const DECKS: [Benchmark; 4] = [
    Benchmark::Lj,
    Benchmark::Chain,
    Benchmark::Eam,
    Benchmark::Chute,
];
const SCALES: [usize; 3] = [1, 2, 3];
/// Cold passes per `--seconds` second: one pass takes about 5.5 s on the
/// reference host and its set-up about as long, so two fit eight seconds'
/// worth of measuring.
const PASSES_PER_SECOND: f64 = 0.25;
/// Slack on "parallel efficiency is at most 1".
const EFFICIENCY_SLACK: f64 = 1e-9;
/// Payload of the frame/verify probe.
const FRAME_PAYLOAD_BYTES: usize = 1 << 20;
const PROBE_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Cpu(usize),
    Gpu(usize),
}

#[derive(Debug, Clone, Copy)]
struct Request {
    benchmark: Benchmark,
    scale: usize,
    target: Target,
}

/// What the checks need from one modeled run.
#[derive(Debug, Clone, Copy)]
struct Modeled {
    ts_per_sec: f64,
    mpi_time_percent: f64,
    /// Share of the time spent waiting for slower ranks.
    mpi_imbalance_percent: f64,
}

/// The sweep in canonical order: per deck and scale, `cpu_run` over
/// `CPU_PROCS`, then `gpu_run` over `GPU_DEVICES` where supported.
fn plan() -> Vec<Request> {
    let mut requests = Vec::new();
    for benchmark in DECKS {
        for scale in SCALES {
            let cpu = CPU_PROCS.into_iter().map(Target::Cpu);
            let gpu = GPU_DEVICES
                .into_iter()
                .filter(|_| benchmark.gpu_supported())
                .map(Target::Gpu);
            requests.extend(cpu.chain(gpu).map(|target| Request {
                benchmark,
                scale,
                target,
            }));
        }
    }
    requests
}

/// SplitMix64, for the request order and the probe payload.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The seeded request order: the (deck, scale) groups stay in canonical order,
/// as `figures` walks them, and the seed shuffles the rank and device counts
/// inside each group (Fisher-Yates). Shuffling across groups would move the
/// moment the 864k-atom systems are built against a full cache, and with it
/// `peak_rss_mb`, by ~4 % from seed to seed.
fn request_order(requests: &[Request], seed: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed);
    let mut order: Vec<usize> = (0..requests.len()).collect();
    let mut start = 0;
    for group in requests.chunk_by(|a, b| (a.benchmark, a.scale) == (b.benchmark, b.scale)) {
        let slots = &mut order[start..start + group.len()];
        for i in (1..slots.len()).rev() {
            slots.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        start += group.len();
    }
    order
}

/// A fresh context with the four deck profiles measured: what `figures`
/// pays before its first modeled run.
fn set_up(rec: &Recorder) -> Result<(ExperimentContext, f64), String> {
    let _phase = spans::phase(rec, "setup");
    let start = Instant::now();
    let ctx = ExperimentContext::new(Fidelity::Full);
    for benchmark in DECKS {
        let (profile, _) = spans::call(rec, "md-model", "profile", || ctx.profile(benchmark));
        profile.map_err(|e| format!("profile of {benchmark} failed: {e}"))?;
    }
    Ok((ctx, start.elapsed().as_secs_f64()))
}

#[derive(Default)]
struct Pass {
    run_seconds: Vec<f64>,
    wall_seconds: f64,
    failed: u64,
    /// Results by plan index.
    modeled: Vec<Option<Modeled>>,
    // Only a decomposed (traced) pass fills these.
    system_seconds: f64,
    census_seconds: f64,
    census_atoms: usize,
    cpu_model_seconds: Vec<f64>,
    gpu_model_seconds: Vec<f64>,
}

/// One pass over the sweep. With `decompose`, each request is split at the
/// crate boundaries `cpu_run`/`gpu_run` cross: positions (md-workloads),
/// census (md-parallel), then the run itself with the census cached
/// (md-model).
fn run_pass(
    ctx: &ExperimentContext,
    requests: &[Request],
    order: &[usize],
    decompose: bool,
    rec: &Recorder,
) -> Pass {
    let mut pass = Pass {
        modeled: vec![None; requests.len()],
        ..Pass::default()
    };
    let start = Instant::now();
    for &index in order {
        let Request {
            benchmark,
            scale,
            target,
        } = requests[index];
        let mut seconds = 0.0;
        if decompose {
            let ranks = match target {
                Target::Cpu(p) => p,
                Target::Gpu(g) => {
                    (md_model::calib::RANKS_PER_GPU * g).min(md_model::calib::MAX_GPU_HOST_RANKS)
                }
            };
            let (system, s) = spans::call(rec, "md-workloads", "system", || {
                ctx.system(benchmark, scale)
            });
            black_box(system.is_ok());
            pass.system_seconds += s;
            seconds += s;
            let (census, s) = spans::call(rec, "md-parallel", "census", || {
                ctx.census(benchmark, scale, ranks)
            });
            black_box(census.is_ok());
            pass.census_seconds += s;
            pass.census_atoms += atoms_at_scale(scale);
            seconds += s;
        }
        let (modeled, s) = match target {
            Target::Cpu(p) => {
                let (r, s) = spans::call(rec, "md-model", "cpu_run", || {
                    ctx.cpu_run(benchmark, scale, p)
                });
                pass.cpu_model_seconds.push(s);
                let modeled = r.map(|r| Modeled {
                    ts_per_sec: r.ts_per_sec,
                    mpi_time_percent: r.mpi_time_percent,
                    mpi_imbalance_percent: r.mpi_imbalance_percent,
                });
                (modeled, s)
            }
            Target::Gpu(g) => {
                let (r, s) = spans::call(rec, "md-model", "gpu_run", || {
                    ctx.gpu_run(benchmark, scale, g)
                });
                pass.gpu_model_seconds.push(s);
                let modeled = r.map(|r| Modeled {
                    ts_per_sec: r.ts_per_sec,
                    mpi_time_percent: 0.0,
                    mpi_imbalance_percent: 0.0,
                });
                (modeled, s)
            }
        };
        match modeled {
            Ok(m) => {
                pass.modeled[index] = Some(m);
                pass.run_seconds.push(seconds + s);
            }
            Err(e) => {
                eprintln!("mdbench: {benchmark} scale {scale} {target:?} failed: {e}");
                pass.failed += 1;
            }
        }
    }
    pass.wall_seconds = start.elapsed().as_secs_f64();
    pass
}

impl Pass {
    /// Throughput and MPI shares of one CPU request of this pass.
    fn cpu_result(
        &self,
        requests: &[Request],
        benchmark: Benchmark,
        scale: usize,
        ranks: usize,
    ) -> Option<Modeled> {
        let index = requests.iter().position(|r| {
            r.benchmark == benchmark && r.scale == scale && r.target == Target::Cpu(ranks)
        })?;
        self.modeled[index]
    }
}

/// Model invariants over every pass made: throughput finite and positive, no
/// waiting for other ranks on one rank (`MPI_Init` still costs it MPI time),
/// parallel efficiency at most 1.
fn check_invariants(out: &mut Outcome, requests: &[Request], passes: &[Pass]) {
    let (mut bad_ts, mut bad_skew, mut worst_eff) = (0, 0, 0.0_f64);
    for pass in passes {
        for (request, modeled) in requests.iter().zip(&pass.modeled) {
            let Some(m) = modeled else { continue };
            if !(m.ts_per_sec.is_finite() && m.ts_per_sec > 0.0) {
                bad_ts += 1;
            }
            if let Target::Cpu(ranks) = request.target {
                if ranks == 1 && m.mpi_imbalance_percent != 0.0 {
                    bad_skew += 1;
                }
                if let Some(single) = pass.cpu_result(requests, request.benchmark, request.scale, 1)
                {
                    worst_eff = worst_eff.max(m.ts_per_sec / (single.ts_per_sec * ranks as f64));
                }
            }
        }
    }
    out.check(
        "model_ts_finite_positive",
        bad_ts == 0,
        format!("{bad_ts} runs outside (0, inf)"),
    );
    out.check(
        "model_one_rank_never_waits",
        bad_skew == 0,
        format!("{bad_skew} one-rank runs with skew wait"),
    );
    out.check(
        "model_parallel_efficiency_at_most_1",
        worst_eff <= 1.0 + EFFICIENCY_SLACK,
        format!("highest efficiency {worst_eff:.6}"),
    );
}

pub fn run(args: &RunArgs, rec: &Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::new(1);
    let requests = plan();
    let order = request_order(&requests, args.seed);

    if !args.trace {
        // Every pass meets a fresh context, so each pays its own set-up and
        // its own first-request costs: the passes are the repeats.
        let passes = ((PASSES_PER_SECOND * args.seconds).round() as usize).max(1);
        let mut repeats = Vec::new();
        let mut done = Vec::new();
        for _ in 0..passes {
            let (ctx, setup_seconds) = set_up(rec)?;
            let pass = run_pass(&ctx, &requests, &order, false, rec);
            repeats.push(Repeat {
                op_seconds: pass.run_seconds.clone(),
                wall_seconds: pass.wall_seconds,
                setup_seconds,
            });
            done.push(pass);
        }
        let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        out.ops = (passes * requests.len()) as u64;
        out.ops_failed = done.iter().map(|p| p.failed).sum();
        check_invariants(&mut out, &requests, &done);
        // The passes are one op list run twice: the modeled results, which
        // are simulated time, must not differ between them.
        let bits = |p: &Pass| -> Vec<Option<u64>> {
            let ts = |m: &Modeled| m.ts_per_sec.to_bits();
            p.modeled.iter().map(|m| m.as_ref().map(ts)).collect()
        };
        out.check(
            "passes_bitwise_equal",
            done.iter().all(|p| bits(p) == bits(&done[0])),
            format!("{} passes", done.len()),
        );
        out.set_end_to_end(&repeats, 0..requests.len(), peak_rss_mb);
        return Ok(out);
    }

    // Traced pass: an untraced cold pass as the reference for the tracing
    // overhead, then a cold pass split at the crate boundaries.
    let off = Recorder::disabled();
    let reference = {
        let (ctx, _) = set_up(&off)?;
        run_pass(&ctx, &requests, &order, false, &off)
    };
    let (ctx, _) = set_up(rec)?;
    let pass = {
        let _phase = spans::phase(rec, "window");
        run_pass(&ctx, &requests, &order, true, rec)
    };
    out.ops = 2 * requests.len() as u64;
    out.ops_failed = reference.failed + pass.failed;
    out.set_traced_window(&pass.run_seconds, pass.wall_seconds);
    out.set(
        "trace.overhead_pct",
        (stats::median(&pass.run_seconds) / stats::median(&reference.run_seconds) - 1.0) * 100.0,
    );
    out.set("workloads.build_positions_s", pass.system_seconds);
    out.set("parallel.census_s", pass.census_seconds);
    out.set("parallel.census_calls", requests.len() as f64);
    out.set(
        "parallel.census_ns_per_atom",
        pass.census_seconds * 1e9 / pass.census_atoms as f64,
    );
    out.set_median("model.cpu_simulate_ms", &pass.cpu_model_seconds, 1e3);
    out.set_median("model.gpu_simulate_ms", &pass.gpu_model_seconds, 1e3);

    // Simulated time, not host time: these must not move when a change only
    // makes the simulator faster.
    let checksum = pass.modeled.iter().flatten().map(|m| m.ts_per_sec).sum();
    out.set("model.sim_checksum", checksum);
    let named = |ranks: usize| pass.cpu_result(&requests, Benchmark::Lj, 1, ranks);
    if let (Some(one), Some(many)) = (named(1), named(64)) {
        out.set(
            "model.sim_lj_32k_64r_parallel_eff",
            many.ts_per_sec / (one.ts_per_sec * 64.0),
        );
        out.set("model.sim_lj_32k_64r_mpi_pct", many.mpi_time_percent);
    }

    let warm = {
        let _phase = spans::phase(rec, "probes");
        let (warm, warm_s) = spans::call(rec, "md-harness", "sweep_warm", || {
            run_pass(&ctx, &requests, &order, false, &off)
        });
        out.set("harness.sweep_warm_ms", warm_s * 1e3);
        parallel_probes(&mut out, &ctx, args.seed, rec)?;
        insight_probe(&mut out, &ctx, rec)?;
        warm
    };
    check_invariants(&mut out, &requests, &[reference, pass, warm]);
    Ok(out)
}

/// `GhostExchange::build` on the 256k-atom LJ system over 8 ranks, and the
/// CRC-framed wire format on a 1 MiB payload.
fn parallel_probes(
    out: &mut Outcome,
    ctx: &ExperimentContext,
    seed: u64,
    rec: &Recorder,
) -> Result<(), String> {
    let err = |e| format!("ghost probe: {e}");
    let (bx, x) = ctx.system(Benchmark::Lj, 2).map_err(err)?;
    let cutoff = ctx.profile(Benchmark::Lj).map_err(err)?.ghost_cutoff;
    let decomposition = Decomposition::new(bx, 8).map_err(err)?;
    let mut build = Vec::new();
    let mut ghosts = 0;
    for _ in 0..3 {
        let (exchange, s) = spans::call(rec, "md-parallel", "ghost_exchange_build", || {
            GhostExchange::build(&decomposition, &x, cutoff)
        });
        ghosts = exchange.total_ghosts();
        build.push(s);
    }
    out.set_median("parallel.ghost_build_ms", &build, 1e3);
    out.set("parallel.ghosts_total", ghosts as f64);

    let mut rng = SplitMix(seed);
    let payload: Vec<u8> = (0..FRAME_PAYLOAD_BYTES).map(|_| rng.next() as u8).collect();
    let mut frame_verify = Vec::new();
    let mut intact = true;
    for _ in 0..PROBE_REPS {
        let (back, s) = spans::call(rec, "md-parallel", "frame_verify_ghost_payload", || {
            verify_ghost_payload(&frame_ghost_payload(&payload))
        });
        intact &= back.is_ok_and(|b| b == payload);
        frame_verify.push(s);
    }
    out.check(
        "ghost_frame_round_trip",
        intact,
        format!("{FRAME_PAYLOAD_BYTES} bytes"),
    );
    out.set(
        "parallel.frame_verify_mb_per_s",
        FRAME_PAYLOAD_BYTES as f64 / 1e6 / stats::median(&frame_verify),
    );
    out.samples("parallel.frame_verify_mb_per_s", frame_verify.len());
    Ok(())
}

/// `md_harness::insight::analyze` on one 8-rank LJ run with rank statistics.
fn insight_probe(out: &mut Outcome, ctx: &ExperimentContext, rec: &Recorder) -> Result<(), String> {
    let err = |e| format!("insight probe: {e}");
    let profile = ctx.profile(Benchmark::Lj).map_err(err)?;
    let (decomposition, census) = ctx.census(Benchmark::Lj, 1, 8).map_err(err)?;
    let opts = CpuRunOptions {
        ranks: 8,
        collect_rank_stats: true,
        ..CpuRunOptions::default()
    };
    let result = CpuModel::new()
        .simulate_with_census(&profile, &decomposition, &census, &opts)
        .map_err(err)?;
    let recorder = Recorder::disabled();
    let mut analyze = Vec::new();
    for _ in 0..PROBE_REPS {
        let (report, s) = spans::call(rec, "md-insight", "analyze", || {
            md_harness::insight::analyze(&result, &recorder)
        });
        black_box(report);
        analyze.push(s);
    }
    out.set_median("insight.analyze_ms", &analyze, 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_is_84_cpu_and_45_gpu_requests() {
        let requests = plan();
        let cpu = requests
            .iter()
            .filter(|r| matches!(r.target, Target::Cpu(_)))
            .count();
        assert_eq!((cpu, requests.len() - cpu), (84, 45));
    }

    #[test]
    fn the_seed_orders_the_requests_reproducibly() {
        let requests = plan();
        let a = request_order(&requests, 7);
        assert_eq!(a, request_order(&requests, 7));
        assert_ne!(a, request_order(&requests, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..129).collect::<Vec<_>>());
        // Groups keep their canonical place: the first twelve requests are
        // lj at scale 1, in some order.
        assert!(a[..12].iter().all(|&i| i < 12));
    }
}
