//! `mdbench compare A B`: two run files (one record per line, as every run
//! appends them) compared per workload and end-to-end metric by the rule of
//! the choosing-metrics guide, plus a diff of every exact count.

use crate::manifest::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use md_observe::Json;
use std::collections::{BTreeMap, BTreeSet};

/// The runs of one file: values per (workload, metric), timed and traced
/// records kept apart, and the failed-op total.
#[derive(Debug, Default)]
struct RunSet {
    timed: BTreeMap<(String, String), Vec<f64>>,
    traced: BTreeMap<(String, String), Vec<f64>>,
    ops_failed: f64,
}

fn parse(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let record = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let pass = record.get("pass").and_then(Json::as_str);
        let Some(Json::Obj(metrics)) = record.get("metrics") else {
            return Err(bad("no metrics"));
        };
        set.ops_failed += record
            .get("ops_failed")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let into = if pass == Some("traced") {
            &mut set.traced
        } else {
            &mut set.timed
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            into.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    /// The spread between runs of one side is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on `b` against `a` at the metric's bound.
fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match metric.better {
        Better::Higher => (ma - mb) / ma,
        Better::Lower => (mb - ma) / ma,
    };
    let better = |x: f64, y: f64| match metric.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let spread = [a, b]
        .into_iter()
        .filter_map(stats::spread)
        .fold(0.0, f64::max);
    if every_b_better {
        Verdict::Ok
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; `Ok(true)` when nothing is worse, no exact count
/// differs and no op failed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (read(path_a)?, read(path_b)?);
    println!("A = {path_a}\nB = {path_b}\nchange is (B - A) / A of the medians, base A\n");
    println!(
        "{:<12} {:<14} {:>3} {:>14} {:>3} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "nA", "median A", "nB", "median B", "change", "bound"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.timed.get(&key), b.timed.get(&key)) else {
                continue;
            };
            let verdict = judge(m, va, vb);
            let (ma, mb) = (stats::median(va), stats::median(vb));
            clean &= verdict != Verdict::Worse || !m.gated;
            println!(
                "{:<12} {:<14} {:>3} {:>14.4} {:>3} {:>14.4} {:>+8.2}% {:>6.0}%  {}{}",
                w.name,
                m.name,
                va.len(),
                ma,
                vb.len(),
                mb,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                verdict.label(),
                if m.gated { "" } else { " (not gated)" }
            );
        }
    }

    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|m| m.exact)
        .map(|m| m.name)
        .collect();
    let bits = |v: Option<&Vec<f64>>| -> BTreeSet<u64> {
        v.into_iter().flatten().map(|x| x.to_bits()).collect()
    };
    let (mut compared, mut differing) = (0, 0);
    for w in &WORKLOADS {
        for name in &exact {
            let key = (w.name.to_string(), (*name).to_string());
            let (sa, sb) = (bits(a.traced.get(&key)), bits(b.traced.get(&key)));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            compared += 1;
            if sa != sb || sa.len() > 1 {
                differing += 1;
                let show = |s: &BTreeSet<u64>| {
                    let v: Vec<String> = s.iter().map(|b| f64::from_bits(*b).to_string()).collect();
                    v.join(" | ")
                };
                println!(
                    "exact count differs: {} {name}: A {} B {}",
                    w.name,
                    show(&sa),
                    show(&sb)
                );
            }
        }
    }
    println!("\nexact counts: {compared} compared, {differing} differ");
    println!("ops_failed: A {} B {}", a.ops_failed, b.ops_failed);
    Ok(clean && differing == 0 && a.ops_failed == 0.0 && b.ops_failed == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better,
            bound: 0.05,
            gated: true,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_all_better_rule() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = metric(Better::Lower);
        let slower = base.map(|x| x * 1.10);
        assert_eq!(judge(&lower, &base, &slower), Verdict::Worse);
        assert_eq!(judge(&lower, &base, &base.map(|x| x * 1.02)), Verdict::Ok);
        // For a higher-is-better metric the same values read as a gain.
        assert_eq!(judge(&metric(Better::Higher), &base, &slower), Verdict::Ok);
        // A side whose own runs spread wider than the bound resolves nothing…
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&lower, &base, &noisy), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(
            judge(&lower, &noisy.map(|x| x + 200.0), &noisy),
            Verdict::Ok
        );
    }

    #[test]
    fn run_files_parse_into_timed_and_traced_values() {
        let text = "{\"workload\":\"lj_melt\",\"pass\":\"timed\",\"ops_failed\":0,\
                    \"metrics\":{\"ops_per_s\":{\"value\":33.5,\"unit\":\"1/s\"}}}\n\n\
                    {\"workload\":\"lj_melt\",\"pass\":\"traced\",\"ops_failed\":1,\
                    \"metrics\":{\"core.neigh_rebuilds\":{\"value\":18,\"unit\":\"count\"}}}\n";
        let set = parse(text).expect("parses");
        let key = |m: &str| ("lj_melt".to_string(), m.to_string());
        assert_eq!(set.timed[&key("ops_per_s")], vec![33.5]);
        assert_eq!(set.traced[&key("core.neigh_rebuilds")], vec![18.0]);
        assert_eq!(set.ops_failed, 1.0);
        assert!(parse("{\"workload\":\"x\"}").is_err());
    }
}
