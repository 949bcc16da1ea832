//! Golden-file test for md-observe's Chrome trace export: a short real LJ
//! run plus a small virtual-cluster scenario must round-trip through
//! `chrome_trace_json` into valid, Perfetto-loadable JSON with one lane per
//! virtual rank, per-lane monotonic span timestamps, and every task category
//! of the LAMMPS taxonomy represented.

use md_core::threads::THREAD_LANE_BASE;
use md_core::{TaskKind, Threads};
use md_observe::{chrome_trace_json, metrics_jsonl, text_report, Json, ObserveConfig, Recorder};
use md_parallel::{LinkModel, VirtualCluster};
use md_workloads::{build_deck, build_deck_with, Benchmark};
use std::collections::{BTreeMap, BTreeSet};

const STEPS: u64 = 5;

fn traced_recorder() -> Recorder {
    let rec = Recorder::new(ObserveConfig {
        enabled: true,
        ..ObserveConfig::default()
    });

    // Lane 0: the real engine, 5 steps of the 32k LJ deck.
    let mut deck = build_deck(Benchmark::Lj, 1, 7).expect("deck builds");
    deck.simulation.set_recorder(rec.clone());
    deck.simulation.run(STEPS).expect("short run");

    // Lanes 1..=4: a 4-rank virtual cluster covering the task categories the
    // LJ deck has no work for (Bond, Kspace, Comm at simulated time).
    let link = LinkModel {
        latency: 2e-6,
        bandwidth: 10e9,
    };
    let mut cluster = VirtualCluster::new(4);
    cluster.set_recorder(rec.clone());
    cluster.mpi_init(0.05, 0.002);
    for step in 0..3 {
        for r in 0..4 {
            let jitter = 1.0 + 0.05 * ((r + step) % 3) as f64;
            cluster.compute(r, TaskKind::Pair, 1e-3 * jitter);
            cluster.compute(r, TaskKind::Bond, 2e-4 * jitter);
            cluster.compute(r, TaskKind::Kspace, 4e-4 * jitter);
            cluster.compute(r, TaskKind::Modify, 1e-4);
        }
        let partners: Vec<Vec<usize>> = (0..4).map(|r| vec![(r + 1) % 4, (r + 3) % 4]).collect();
        cluster.halo_exchange(&partners, &[64e3, 64e3, 64e3, 64e3], link);
        cluster.allreduce(48.0, link, TaskKind::Output);
    }
    rec
}

#[test]
fn chrome_trace_round_trips_with_monotonic_lanes() {
    let rec = traced_recorder();
    let doc = chrome_trace_json(&rec);
    let json = Json::parse(&doc).expect("exporter emits valid JSON");

    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(
        events.len() > 50,
        "expected a real trace, got {} events",
        events.len()
    );

    // Lane names: the engine plus the four virtual ranks.
    let lane_names: BTreeSet<String> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_owned))
        .collect();
    for expected in ["engine", "rank 0", "rank 1", "rank 2", "rank 3"] {
        assert!(
            lane_names.contains(expected),
            "missing lane {expected:?} in {lane_names:?}"
        );
    }

    // Per-lane monotonicity of complete ("X") spans, in file order.
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut span_names: BTreeSet<String> = BTreeSet::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as i64;
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0, "negative time in event");
        if let Some(prev) = last_ts.insert(tid, ts) {
            assert!(
                ts >= prev,
                "lane {tid}: span at {ts} before previous {prev}"
            );
        }
        if e.get("cat").and_then(Json::as_str) == Some("task") {
            span_names.insert(e.get("name").and_then(Json::as_str).unwrap().to_owned());
        }
    }

    // Every category of the eight-task taxonomy shows up as a span.
    for task in TaskKind::ALL {
        assert!(
            span_names.contains(task.label()),
            "no {} span in trace (got {span_names:?})",
            task.label()
        );
    }
}

#[test]
fn metrics_jsonl_and_report_cover_the_run() {
    let rec = traced_recorder();

    let jsonl = metrics_jsonl(&rec);
    let mut step_lines = 0;
    for line in jsonl.lines().filter(|l| !l.is_empty()) {
        let obj = Json::parse(line).expect("each JSONL line parses");
        if obj.get("kind").and_then(Json::as_str) == Some("step") {
            step_lines += 1;
        }
    }
    assert_eq!(
        step_lines, STEPS as usize,
        "one step sample per engine step"
    );

    let report = text_report(&rec);
    assert!(report.contains("Pair"), "report lists tasks:\n{report}");
    assert!(report.contains("p99"), "report has percentiles:\n{report}");
}

/// The `(name, lane)` pairs of the `thread`-category spans recorded so far.
fn thread_spans(rec: &Recorder) -> BTreeSet<(&'static str, u32)> {
    rec.events()
        .iter()
        .filter(|e| e.cat == "thread")
        .map(|e| (e.name, e.lane))
        .collect()
}

#[test]
fn every_fork_of_a_threaded_step_shows_on_both_thread_lanes() {
    let rec = Recorder::default();
    let mut deck =
        build_deck_with(Benchmark::Rhodo, 1, 7, Threads::fast(2)).expect("rhodo deck builds");
    let sim = &mut deck.simulation;
    sim.set_recorder(rec.clone());
    let lanes = [THREAD_LANE_BASE, THREAD_LANE_BASE + 1];
    let names = rec.snapshot().lanes;
    assert_eq!(names.get(&lanes[0]).map(String::as_str), Some("thread 0"));
    assert_eq!(names.get(&lanes[1]).map(String::as_str), Some("thread 1"));

    // Any step: the pair kernel, the four PPPM phases and both FFT passes.
    sim.step().expect("one rhodo step");
    let seen = thread_spans(&rec);
    for name in [
        "pair",
        "pppm_bspline",
        "pppm_spread",
        "pppm_field",
        "pppm_interp",
        "fft_xy",
        "fft_z",
    ] {
        for lane in lanes {
            assert!(
                seen.contains(&(name, lane)),
                "no {name} span on lane {lane}: {seen:?}"
            );
        }
    }
    assert!(
        seen.iter().all(|(_, lane)| lanes.contains(lane)),
        "{seen:?}"
    );

    // A rebuild step adds the neighbor build.
    let builds = |sim: &md_core::Simulation| sim.neighbor_list().expect("pair deck").stats().builds;
    let built = builds(sim);
    for _ in 0..60 {
        if builds(sim) > built {
            break;
        }
        sim.step().expect("rhodo step");
    }
    assert!(builds(sim) > built, "no rebuild in 60 rhodo steps");
    let seen = thread_spans(&rec);
    for lane in lanes {
        assert!(
            seen.contains(&("neigh_build", lane)),
            "no neigh_build on lane {lane}"
        );
    }
}

#[test]
fn a_serial_step_records_no_thread_spans() {
    let rec = Recorder::default();
    let mut deck = build_deck_with(Benchmark::Lj, 1, 7, Threads::serial()).expect("lj deck builds");
    deck.simulation.set_recorder(rec.clone());
    deck.simulation.run(STEPS).expect("short run");
    assert!(rec.event_count() > 0, "the run was traced");
    assert_eq!(thread_spans(&rec), BTreeSet::new());
    assert!(!rec.snapshot().lanes.contains_key(&THREAD_LANE_BASE));
}
