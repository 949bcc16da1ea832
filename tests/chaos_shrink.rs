//! Chaos at a fixed thread count: a rank crash at a fixed step must be
//! survived by the degraded-mode shrink on every deck, and because the
//! shrink rolls back to a healthy snapshot and replays on the survivors —
//! touching no physics knob — the post-shrink trajectory must be **bitwise
//! identical** both across two faulted runs and against a crash-free run of
//! the same deck. The `shrink.reports` artifact must round-trip the wire decoder.
//!
//! Riding along: a fault plan that defeats the whole mitigation ladder
//! (more crashes than the retry budget) must exit with the dedicated
//! unrecoverable code (4) and a structured report on stderr — never a
//! panic — and `--repartition-every` must surface suspect-triggered
//! re-splits on the modeled cluster through the CLI.

use std::path::{Path, PathBuf};
use std::process::Command;

use md_resilience::ShrinkReport;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run_deck(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_deck"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("run_deck executes")
}

/// Decodes `<dir>/shrink.reports`: u32-LE report count, then per report a
/// u32-LE length prefix and a checksummed [`ShrinkReport`] blob.
fn read_shrink_reports(dir: &Path) -> Vec<ShrinkReport> {
    let bytes = std::fs::read(dir.join("shrink.reports")).expect("shrink.reports written");
    assert!(bytes.len() >= 4, "file carries at least a count");
    let count = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let mut reports = Vec::with_capacity(count);
    let mut at = 4;
    for _ in 0..count {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        let report = ShrinkReport::decode(&bytes[at..at + len]).expect("report decodes");
        at += len;
        reports.push(report);
    }
    assert_eq!(at, bytes.len(), "no trailing garbage");
    reports
}

/// Two faulted runs and one crash-free run of `deck`, all on the same
/// thread count.
/// The crash at `crash_step` must be shrunk past, every arm must agree
/// bitwise on the final atom state, and the shrink report must record the
/// 8 -> 7 rank transition.
fn chaos_run_is_deterministic(deck: &str, steps: u64, crash_step: u64, ckpt_every: u64) {
    let base = std::env::temp_dir().join(format!("md-chaos-{deck}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let fault = format!("rank-crash:3@{crash_step}");
    let steps_s = steps.to_string();
    let thermo_s = ckpt_every.to_string();
    let ckpt_s = ckpt_every.to_string();

    let mut data: Vec<Vec<u8>> = Vec::new();
    for arm in ["a", "b"] {
        let dir = base.join(arm);
        std::fs::create_dir_all(&dir).expect("arm dir");
        let data_path = dir.join("final.data");
        let ckpt_dir = dir.join("ckpt");
        let output = run_deck(&[
            deck,
            "--steps",
            &steps_s,
            "--thermo",
            &thermo_s,
            "--faults",
            &fault,
            "--checkpoint-every",
            &ckpt_s,
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--write-data",
            data_path.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "{deck} arm {arm} must survive the crash.\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        assert!(
            stdout.contains("declared failed after"),
            "{deck} arm {arm}: detection must be narrated.\nstdout:\n{stdout}"
        );
        assert!(
            stdout.contains("re-decomposed over 7 ranks"),
            "{deck} arm {arm}: shrink must be narrated.\nstdout:\n{stdout}"
        );

        let reports = read_shrink_reports(&ckpt_dir);
        assert_eq!(reports.len(), 1, "{deck} arm {arm}: one crash, one shrink");
        let r = &reports[0];
        assert_eq!(r.failed_rank, 3, "{deck}: crashed rank is recorded");
        assert_eq!(r.step, crash_step, "{deck}: crash step is recorded");
        assert_eq!((r.ranks_before, r.ranks_after), (8, 7), "{deck}: 8 -> 7");
        assert!(r.rollback_step <= crash_step, "{deck}: rolled backwards");

        data.push(std::fs::read(&data_path).expect("data file written"));
    }
    assert_eq!(
        data[0], data[1],
        "{deck}: two faulted runs must agree bitwise"
    );

    // The crash-free reference: same deck, same cadence, no fault. The
    // shrink replays lost steps from a healthy snapshot, so recovery must
    // be invisible in the final state.
    let clean_dir = base.join("clean");
    std::fs::create_dir_all(&clean_dir).expect("clean dir");
    let clean_path = clean_dir.join("final.data");
    let output = run_deck(&[
        deck,
        "--steps",
        &steps_s,
        "--thermo",
        &thermo_s,
        "--checkpoint-every",
        &ckpt_s,
        "--checkpoint-dir",
        clean_dir.join("ckpt").to_str().unwrap(),
        "--write-data",
        clean_path.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{deck}: clean reference runs");
    let clean = std::fs::read(&clean_path).expect("clean data written");
    assert_eq!(
        data[0], clean,
        "{deck}: post-shrink trajectory must equal the crash-free one"
    );

    let _ = std::fs::remove_dir_all(&base);
}

macro_rules! chaos_tests {
    ($($name:ident: $deck:literal, $steps:expr, $crash:expr, $ckpt:expr;)*) => {$(
        #[test]
        fn $name() {
            chaos_run_is_deterministic($deck, $steps, $crash, $ckpt);
        }
    )*}
}

chaos_tests! {
    lj_crash_shrinks_deterministically: "lj", 30, 15, 10;
    chain_crash_shrinks_deterministically: "chain", 30, 15, 10;
    eam_crash_shrinks_deterministically: "eam", 30, 15, 10;
    chute_crash_shrinks_deterministically: "chute", 30, 15, 10;
    rhodo_crash_shrinks_deterministically: "rhodo", 8, 4, 4;
}

/// More crashes than the retry budget (`RecoveryPolicy::default().max_retries
/// = 4`) defeats every rung: the run must end in a structured failure report
/// and the dedicated exit code, not a panic.
#[test]
fn ladder_exhaustion_exits_with_the_unrecoverable_code() {
    let output = run_deck(&[
        "lj",
        "--steps",
        "30",
        "--thermo",
        "30",
        "--faults",
        "rank-crash:0@5,rank-crash:1@6,rank-crash:2@7,rank-crash:3@8,rank-crash:4@9",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(4),
        "exhaustion has its own exit code.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("unrecoverable"),
        "failure must be reported, not panicked: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "a defeated ladder is a report, not a panic: {stderr}"
    );
}

/// `--repartition-every` on a run with a slow rank must surface
/// suspect-triggered re-splits of the modeled cluster on stdout, and each
/// narrated re-split names the slowed rank.
#[test]
fn cli_repartitioning_names_the_slow_rank() {
    let output = run_deck(&[
        "lj",
        "--steps",
        "10",
        "--thermo",
        "10",
        "--faults",
        "rank-slow:3x4@0",
        "--repartition-every",
        "20",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "slow rank is survivable.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("[repartition] step"),
        "re-splits must be narrated.\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("rank 3 suspect"),
        "the slowed rank is the suspect.\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("imbalance_repartitions"),
        "counter must be printed.\nstdout:\n{stdout}"
    );
}
