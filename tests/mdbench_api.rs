//! `mdbench/` (the end-to-end benchmark behind `BENCHMARK.json`) is a
//! package of its own outside the workspace, so neither `cargo build` nor
//! `cargo test` compiles it, and a change to a public API it calls would go
//! unnoticed until the benchmark next runs. This test type-checks it against
//! the workspace as it stands, with the cargo that runs the test.

use std::path::Path;
use std::process::Command;

#[test]
fn mdbench_type_checks_against_the_workspace() {
    let mdbench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../mdbench");
    // Its own target directory, whatever `CARGO_TARGET_DIR` says: the
    // workspace's is in use by the `cargo test` this runs under.
    let out = Command::new(env!("CARGO"))
        .args(["check", "--offline", "--quiet", "--manifest-path"])
        .arg(mdbench.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(mdbench.join("target"))
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "`cargo check` of mdbench failed — a public API it calls has changed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
