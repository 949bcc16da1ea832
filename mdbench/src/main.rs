//! `mdbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! mdbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <run file>]
//! mdbench compare <run file A> <run file B>
//! mdbench manifest
//! ```
//!
//! One process runs one workload as one closed loop with one client.
//! `--trace 0` is the timed pass (end-to-end metrics), `--trace 1` the traced
//! pass (per-layer metrics and a Chrome trace). See `README.md` beside the
//! manifest for the workloads, the metrics and how they interact.

mod compare;
mod deck;
mod host;
mod layers;
mod manifest;
mod report;
mod spans;
mod stats;
mod sweep;

use manifest::{Kind, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The harness's `DECK_SEED`.
const DEFAULT_SEED: u64 = 2022;
/// Where run records and traces land, relative to the checkout root.
const DEFAULT_OUT: &str = "mdbench/out/runs.jsonl";
/// Longest window a run may ask for, as the driver's contract has it.
const MAX_SECONDS: f64 = 60.0;

/// Checked arguments of a run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The run file every pass appends its record to.
    pub out: PathBuf,
}

impl RunArgs {
    /// The directory of the run file: traces and scratch files go beside it.
    pub fn out_dir(&self) -> &Path {
        self.out
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or(Path::new("."))
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds > 0.0 && run.seconds <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => run.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if run.workload != "all" && manifest::workload(&run.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(run)
}

/// Runs one workload in this process.
fn run_workload(args: &RunArgs) -> Result<bool, String> {
    let workload = manifest::workload(&args.workload).expect("checked by parse_run_args");
    let rec = spans::recorder(args.trace, workload.name);
    let mut outcome = {
        let _workload = spans::phase(&rec, "workload");
        match &workload.kind {
            Kind::Deck(spec) => deck::run(spec, args, &rec)?,
            Kind::Sweep => sweep::run(args, &rec)?,
        }
    };
    if args.trace {
        outcome.set("trace.spans", rec.event_count() as f64);
        let path = args.out_dir().join(format!("trace-{}.json", workload.name));
        std::fs::create_dir_all(args.out_dir())
            .and_then(|()| std::fs::write(&path, md_observe::chrome_trace_json(&rec)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("mdbench: trace written to {}", path.display());
    }
    report::emit(args, &outcome)
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is per workload.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: mdbench compare <run file A> <run file B>".to_string()),
        },
        _ => parse_run_args(&args).and_then(|run| {
            if run.workload == "all" {
                run_all(&run)
            } else {
                run_workload(&run)
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("mdbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn the_drivers_flags_parse_and_bad_ones_are_refused() {
        let run = parse_run_args(&args(&[
            "--workload",
            "lj_melt",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .expect("the driver's command line");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 8.0, true));
        assert_eq!(run.out_dir(), Path::new("mdbench/out"));
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "lj_melt", "--trace", "2"],
            &["--workload", "lj_melt", "--seconds", "0"],
            &["--workload", "lj_melt", "--seconds", "61"],
            &["--workload", "lj_melt", "--seed"],
            &["--seed", "1"],
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
