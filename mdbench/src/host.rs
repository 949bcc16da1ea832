//! What the numbers were measured on: recorded in every run record so two
//! sets of runs are compared only when the hosts match.

use md_observe::Json;
use std::collections::BTreeMap;
use std::fs;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn l2_size() -> Option<String> {
    let size = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size").ok()?;
    Some(size.trim().to_string())
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// repository (the driver's checkout is not).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => Some(
            fs::read_to_string(format!(".git/{reference}"))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}

/// The host section of a run record.
pub fn describe() -> Json {
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".to_string()));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Obj(BTreeMap::from([
        ("nproc".to_string(), Json::Num(nproc() as f64)),
        ("cpu_model".to_string(), text(cpu_model())),
        ("l2_size".to_string(), text(l2_size())),
        ("build_profile".to_string(), Json::Str(profile.to_string())),
        (
            "avx2".to_string(),
            Json::Bool(cfg!(target_feature = "avx2")),
        ),
        ("git_commit".to_string(), text(git_commit())),
    ]))
}
