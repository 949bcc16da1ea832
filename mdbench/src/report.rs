//! What one pass over one workload produced, and how it is printed: every
//! metric by name with its unit, the checks, a full run record appended to
//! the run file, and the driver's result line last.

use crate::manifest::{self, RUN_SECONDS};
use crate::{host, stats, RunArgs};
use md_observe::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::ops::Range;

/// A correctness check; counted in `attempted`, and in `failed` when not ok.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// One repeat of a timed pass: a set-up and the window run on it.
#[derive(Debug)]
pub struct Repeat {
    /// Wall time of each op of the window, in order.
    pub op_seconds: Vec<f64>,
    /// Wall time of the whole window.
    pub wall_seconds: f64,
    pub setup_seconds: f64,
}

/// Everything a pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing metric.
    samples: BTreeMap<&'static str, usize>,
    /// Window steps or modeled runs attempted, and how many returned `Err`.
    pub ops: u64,
    pub ops_failed: u64,
    pub checks: Vec<Check>,
    pub threads_used: usize,
    /// Percentile level of `op_ms_tail` (timed pass only).
    tail_level: u32,
    /// Window wall seconds and set-up seconds of every repeat of a timed
    /// pass, and the ops `ops_per_s` counted, for the run record.
    repeats: Vec<[f64; 2]>,
    counted: Range<usize>,
}

impl Outcome {
    pub fn new(threads_used: usize) -> Self {
        Outcome {
            threads_used,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            manifest::end_to_end(name).is_some() || manifest::per_layer(name).is_some(),
            "{name} is not in the manifest"
        );
        self.metrics.insert(name, value);
    }

    /// A timing metric: the median of `seconds`, scaled to the metric's
    /// unit, with its sample count.
    pub fn set_median(&mut self, name: &'static str, seconds: &[f64], per_second: f64) {
        self.set(name, stats::median(seconds) * per_second);
        self.samples.insert(name, seconds.len());
    }

    pub fn samples(&mut self, name: &'static str, count: usize) {
        self.samples.insert(name, count);
    }

    /// The end-to-end metrics of a timed pass. The repeats do the same work
    /// op for op, so an op's time is the shortest of its executions, the one
    /// the host disturbed least; no op is left out and none is re-weighted.
    /// `ops_per_s` is the `counted` ops over the sum of their times and
    /// `op_ms_p50` the median over the whole window; `setup_s` is the
    /// shortest set-up. `ops_per_s_wall` and `op_ms_tail` are what the wall
    /// clock saw over every op of every repeat. `peak_rss_mb` is the
    /// process's peak RSS as the caller read it.
    pub fn set_end_to_end(&mut self, repeats: &[Repeat], counted: Range<usize>, peak_rss_mb: f64) {
        let shortest =
            |of: &dyn Fn(&Repeat) -> f64| repeats.iter().map(of).fold(f64::INFINITY, f64::min);
        // A repeat cut short by a failed op (the run fails anyway) bounds it.
        let ops = repeats
            .iter()
            .map(|r| r.op_seconds.len())
            .min()
            .unwrap_or(0);
        let best: Vec<f64> = (0..ops).map(|i| shortest(&|r| r.op_seconds[i])).collect();
        let counted = counted.start.min(ops)..counted.end.min(ops);
        let all_ops: Vec<f64> = repeats.iter().flat_map(|r| r.op_seconds.clone()).collect();
        let all_wall: f64 = repeats.iter().map(|r| r.wall_seconds).sum();
        self.tail_level = stats::tail_level(all_ops.len());
        self.set(
            "ops_per_s",
            counted.len() as f64 / best[counted.clone()].iter().sum::<f64>(),
        );
        self.set("op_ms_p50", stats::median(&best) * 1e3);
        self.set("ops_per_s_wall", all_ops.len() as f64 / all_wall);
        self.set("op_ms_tail", stats::tail(&all_ops) * 1e3);
        self.set("setup_s", shortest(&|r| r.setup_seconds));
        self.set("peak_rss_mb", peak_rss_mb);
        self.samples("ops_per_s", counted.len());
        self.samples("op_ms_p50", ops);
        self.samples("ops_per_s_wall", all_ops.len());
        self.samples("op_ms_tail", all_ops.len());
        self.samples("setup_s", repeats.len());
        self.counted = counted;
        self.repeats = repeats
            .iter()
            .map(|r| [r.wall_seconds, r.setup_seconds])
            .collect();
    }

    /// The traced window's own size and pace, so a reader can turn the task
    /// seconds into shares.
    pub fn set_traced_window(&mut self, op_seconds: &[f64], wall_seconds: f64) {
        self.set("trace.window_s", wall_seconds);
        self.set("trace.window_ops", op_seconds.len() as f64);
        self.set_median("trace.op_ms_p50", op_seconds, 1e3);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn attempted(&self) -> u64 {
        self.ops + self.checks.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops_failed + self.checks.iter().filter(|c| !c.ok).count() as u64
    }
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The metrics this pass must print, in manifest order, with their units.
/// A per-layer metric the workload did not produce reads 0; a missing or
/// non-finite end-to-end metric is an error.
fn reported(
    outcome: &Outcome,
    traced: bool,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let expected: Vec<(&'static str, &'static str)> = if traced {
        manifest::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        manifest::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    expected
        .into_iter()
        .map(|(name, unit)| {
            let value = match outcome.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if value.is_finite() {
                Ok((name, unit, value))
            } else {
                Err(format!("metric {name} is not finite ({value})"))
            }
        })
        .collect()
}

/// Prints the pass, appends its record to the run file and ends with the
/// driver's result line. Returns whether every op and check succeeded.
pub fn emit(args: &RunArgs, outcome: &Outcome) -> Result<bool, String> {
    let metrics = reported(outcome, args.trace)?;
    let pass = if args.trace { "traced" } else { "timed" };
    let degraded = host::nproc() < 2;
    println!(
        "mdbench {} [{pass}] seed {} seconds {} threads {}",
        args.workload, args.seed, args.seconds, outcome.threads_used
    );
    if degraded {
        eprintln!(
            "mdbench: WARNING: this host has one hardware thread; rhodo_bio and lj_large_mt run \
             on one thread and are not comparable with 2-thread runs (degraded)"
        );
    }
    for (name, unit, value) in &metrics {
        let n = outcome
            .samples
            .get(name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {name:<40} {value:>16.6} {unit}{n}");
    }
    if !args.trace {
        println!(
            "  op_ms_tail is p{} of the ops; it and ops_per_s_wall are not gated",
            outcome.tail_level
        );
        println!(
            "  ops_per_s counts ops {}..{} of each repeat",
            outcome.counted.start, outcome.counted.end
        );
        for (i, [wall, setup]) in outcome.repeats.iter().enumerate() {
            println!("  repeat {i}: window {wall:.6} s, set-up {setup:.6} s");
        }
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("  check {:<34} {verdict:>6}  {}", c.name, c.detail);
    }
    let correct = outcome.failed() == 0;
    let metric_obj = |wanted: &dyn Fn(&str) -> bool| {
        Json::Obj(
            metrics
                .iter()
                .filter(|(name, _, _)| wanted(name))
                .map(|(name, unit, value)| {
                    let entry = obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).to_string())),
                    ]);
                    ((*name).to_string(), entry)
                })
                .collect(),
        )
    };
    let samples = Json::Obj(
        outcome
            .samples
            .iter()
            .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
            .collect(),
    );
    let checks = outcome
        .checks
        .iter()
        .map(|c| {
            obj([
                ("name", Json::Str(c.name.to_string())),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::Str(c.detail.clone())),
            ])
        })
        .collect();
    let repeats = outcome
        .repeats
        .iter()
        .map(|[wall, setup]| {
            obj([
                ("window_s", Json::Num(*wall)),
                ("setup_s", Json::Num(*setup)),
            ])
        })
        .collect();
    let record = obj([
        ("workload", Json::Str(args.workload.clone())),
        ("pass", Json::Str(pass.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "steps_factor",
            Json::Num(args.seconds / f64::from(RUN_SECONDS)),
        ),
        ("threads_used", Json::Num(outcome.threads_used as f64)),
        ("tail_level", Json::Num(f64::from(outcome.tail_level))),
        ("degraded", Json::Bool(degraded)),
        ("host", host::describe()),
        ("metrics", metric_obj(&|_| true)),
        ("samples", samples),
        ("repeats", Json::Arr(repeats)),
        (
            "ops_counted",
            Json::Arr(vec![
                Json::Num(outcome.counted.start as f64),
                Json::Num(outcome.counted.end as f64),
            ]),
        ),
        ("ops_attempted", Json::Num(outcome.attempted() as f64)),
        ("ops_failed", Json::Num(outcome.failed() as f64)),
        ("checks", Json::Arr(checks)),
    ]);
    append_line(&args.out, &record.to_string())?;
    // The driver's line carries the metrics `BENCHMARK.json` names.
    let gated = |name: &str| manifest::end_to_end(name).is_none_or(|m| m.gated);
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted().max(1) as f64)),
        ("failed", Json::Num(outcome.failed() as f64)),
        ("metrics", metric_obj(&gated)),
    ]);
    println!("{result}");
    Ok(correct)
}

fn append_line(path: &std::path::Path, line: &str) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(fail)?;
    writeln!(file, "{line}").map_err(fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_repo_parser() {
        let mut o = Outcome::default();
        for m in &manifest::END_TO_END {
            o.set(m.name, 1.25);
        }
        o.ops = 200;
        o.check("thermo_finite", true, String::new());
        o.check("nve_drift", false, "drift 0.5".to_string());
        let metrics = reported(&o, false).expect("all metrics set");
        assert_eq!(metrics.len(), manifest::END_TO_END.len());
        assert_eq!((o.attempted(), o.failed()), (202, 1));
        let line = obj([
            ("attempted", Json::Num(o.attempted() as f64)),
            ("value", Json::Num(metrics[0].2)),
            ("quote", Json::Str("a \"b\"\n".to_string())),
        ])
        .to_string();
        let parsed = Json::parse(&line).expect("emitted JSON parses");
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(202.0));
        assert_eq!(parsed.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(
            parsed.get("quote").and_then(Json::as_str),
            Some("a \"b\"\n")
        );
        assert!(line.contains("\"attempted\":202,"), "{line}");
    }

    #[test]
    fn an_ops_time_is_the_shortest_of_its_executions() {
        let repeat = |ops: [f64; 4], setup: f64| Repeat {
            op_seconds: ops.to_vec(),
            wall_seconds: ops.iter().sum(),
            setup_seconds: setup,
        };
        let mut o = Outcome::default();
        o.set_end_to_end(
            &[
                repeat([0.5, 0.125, 0.25, 0.125], 0.5),
                repeat([0.25, 0.25, 0.5, 0.125], 0.75),
            ],
            1..3,
            12.5,
        );
        // Op by op the shortest is 0.25, 0.125, 0.25, 0.125; ops 1 and 2 count.
        assert_eq!(o.get("ops_per_s"), Some(2.0 / 0.375));
        assert_eq!(o.get("op_ms_p50"), Some(187.5));
        assert_eq!(o.get("ops_per_s_wall"), Some(8.0 / 2.125));
        assert_eq!(o.get("setup_s"), Some(0.5));
        assert_eq!(o.get("peak_rss_mb"), Some(12.5));
        // Eight ops in all: too few for a tail percentile, so their median.
        assert_eq!(o.get("op_ms_tail"), Some(250.0));
        assert_eq!((o.counted.clone(), o.repeats.len()), (1..3, 2));
    }

    #[test]
    fn missing_layers_read_zero_but_missing_end_to_end_is_an_error() {
        let o = Outcome::default();
        let layers = reported(&o, true).expect("per-layer metrics default to 0");
        assert_eq!(layers.len(), manifest::PER_LAYER.len());
        assert!(layers.iter().all(|(_, _, v)| *v == 0.0));
        assert!(reported(&o, false).is_err());
        let mut o = Outcome::default();
        o.set("trace.spans", f64::NAN);
        assert!(reported(&o, true).is_err());
    }
}
