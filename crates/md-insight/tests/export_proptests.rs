//! Property tests for the md-insight exporters: arbitrary valid
//! metric/stack sets must round-trip through the strict OpenMetrics and
//! folded-stack parsers (the hand-written cases in `export.rs` cover the
//! happy path; these cover the input space).

use std::collections::BTreeMap;

use md_insight::{folded_stacks, openmetrics, parse_folded, parse_openmetrics};
use md_observe::{ObserveConfig, Recorder, StepSample};
use proptest::collection::vec;
use proptest::prelude::*;

/// Gauge/counter names the generators draw from (registration requires
/// `&'static str` names, so the pool is static).
const GAUGE_NAMES: [&str; 6] = [
    "insight_findings",
    "imbalance_suspect_rank",
    "imbalance_worst_varavg_pct",
    "gpu_pcie_htod_bytes",
    "health_energy_drift",
    "fault_rank_slow",
];

/// Histogram names for `observe()`.
const HIST_NAMES: [&str; 3] = [
    "health_step_seconds",
    "insight_analyze_seconds",
    "fault_stall_seconds",
];

/// Span names for the folded-stack generator.
const SPAN_NAMES: [&str; 6] = ["step", "Pair", "Neigh", "Kspace", "Comm", "halo"];

/// The exporter's own value formatting: integers < 1e15 print as `{v:.1}`,
/// everything else as `{v:.9e}` (lossy) — so round-trip equality must be
/// checked against the *formatted* value, exactly as a reader of the file
/// would see it.
fn exported_value(v: f64) -> f64 {
    let text = if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:.9e}")
    };
    text.parse().expect("exporter output parses as f64")
}

/// Finite gauge values spanning magnitudes, signs, integers and fractions
/// (the vendored proptest has no `prop_oneof`, so pick via an index).
fn gauge_value() -> impl Strategy<Value = f64> {
    (0usize..4, -1.0e12..1.0e12f64, -1_000_000i64..1_000_000).prop_map(|(pick, wide, int)| {
        match pick {
            0 => wide,
            1 => int as f64,
            2 => wide * 1.0e-18,
            _ => 0.0,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary gauge/histogram/step-sample sets survive the strict
    /// OpenMetrics parser, and every exported value reads back exactly as
    /// formatted.
    #[test]
    fn openmetrics_round_trips_arbitrary_snapshots(
        gauges in vec((0..GAUGE_NAMES.len(), gauge_value()), 0..8),
        hist_obs in vec((0..HIST_NAMES.len(), 1.0e-6..10.0f64), 0..12),
        step_tasks in vec(vec(0.0..1.0f64, 8), 0..4),
    ) {
        let rec = Recorder::new(ObserveConfig::default());
        // Later writes to the same gauge overwrite earlier ones, matching
        // the exporter's one-sample-per-family output.
        let mut expected: BTreeMap<&str, f64> = BTreeMap::new();
        for &(i, v) in &gauges {
            rec.gauge(0, GAUGE_NAMES[i], v);
            expected.insert(GAUGE_NAMES[i], v);
        }
        for &(i, v) in &hist_obs {
            rec.observe(HIST_NAMES[i], v);
        }
        for tasks in &step_tasks {
            let mut sample = StepSample::default();
            for (slot, &v) in sample.task_seconds.iter_mut().zip(tasks) {
                *slot = v;
            }
            rec.push_step(sample);
        }
        let text = openmetrics(&rec.snapshot());
        let metrics = parse_openmetrics(&text);
        prop_assert!(metrics.is_ok(), "strict parse failed: {:?}", metrics.err());
        let metrics = metrics.unwrap();

        for (name, v) in expected {
            let family = format!("md_{name}");
            let got: Vec<f64> = metrics
                .iter()
                .filter(|m| m.name == family)
                .map(|m| m.value)
                .collect();
            prop_assert_eq!(got.len(), 1, "family {} sampled once", family);
            prop_assert_eq!(got[0], exported_value(v), "family {}", family);
        }
        // Per-task rows appear exactly when step samples were retained.
        let task_rows = metrics.iter().filter(|m| m.name == "md_task_seconds").count();
        if step_tasks.is_empty() {
            prop_assert_eq!(task_rows, 0);
        } else {
            prop_assert_eq!(task_rows, 8, "one row per task label");
        }
        // Histogram families export p50/p95/p99 + _count + _sum.
        for (i, name) in HIST_NAMES.iter().enumerate() {
            let n_obs = hist_obs.iter().filter(|&&(j, _)| j == i).count();
            let family = format!("md_{name}");
            let quantiles = metrics.iter().filter(|m| m.name == family).count();
            prop_assert_eq!(quantiles, if n_obs > 0 { 3 } else { 0 });
            if n_obs > 0 {
                let count = metrics
                    .iter()
                    .find(|m| m.name == format!("{family}_count"))
                    .expect("count sample");
                prop_assert_eq!(count.value, n_obs as f64);
            }
        }
    }

    /// Arbitrary span layouts survive the strict folded parser, and the
    /// emitted self-times never exceed the recorded wall time (integer-µs
    /// rounding can add at most one µs per emitted frame).
    #[test]
    fn folded_stacks_round_trip_arbitrary_span_sets(
        spans in vec(
            (0u32..3, 0..SPAN_NAMES.len(), 0.0..2_000.0f64, 0.5..300.0f64),
            1..24,
        ),
    ) {
        let rec = Recorder::new(ObserveConfig::default());
        rec.set_lane_name(0, "engine");
        let mut wall_us = 0.0;
        for &(lane, name, ts, dur) in &spans {
            rec.record_span_at(lane, "task", SPAN_NAMES[name], ts, dur);
            wall_us += dur;
        }
        let text = folded_stacks(&rec.snapshot());
        let parsed = parse_folded(&text);
        prop_assert!(parsed.is_ok(), "strict parse failed: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        let total: u64 = parsed.iter().map(|&(_, c)| c).sum();
        prop_assert!(
            (total as f64) <= wall_us + parsed.len() as f64,
            "self-time {} µs exceeds wall {} µs",
            total,
            wall_us
        );
        for (frames, count) in &parsed {
            prop_assert!(!frames.is_empty());
            prop_assert!(*count > 0, "zero-sample lines are never emitted");
            prop_assert!(frames.iter().all(|f| !f.is_empty()));
        }
    }

    /// Parser identity: any well-formed folded file (frames from the
    /// exporter's alphabet, positive counts) parses back to exactly the
    /// stacks it encodes.
    #[test]
    fn folded_parser_is_the_inverse_of_the_line_format(
        lines in vec((vec(0..SPAN_NAMES.len(), 1..5), 1u64..1_000_000), 0..16),
    ) {
        let text: String = lines
            .iter()
            .map(|(frames, count)| {
                let path: Vec<&str> = frames.iter().map(|&i| SPAN_NAMES[i]).collect();
                format!("{} {count}\n", path.join(";"))
            })
            .collect();
        let parsed = parse_folded(&text);
        prop_assert!(parsed.is_ok());
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.len(), lines.len());
        for ((frames, count), (want_idx, want_count)) in parsed.iter().zip(&lines) {
            let want: Vec<&str> = want_idx.iter().map(|&i| SPAN_NAMES[i]).collect();
            prop_assert_eq!(frames.iter().map(String::as_str).collect::<Vec<_>>(), want);
            prop_assert_eq!(count, want_count);
        }
    }
}
