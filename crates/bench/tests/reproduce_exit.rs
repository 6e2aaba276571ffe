//! `reproduce` reports failures through its exit status, so scripts and CI
//! steps that only run it (without `--json`) still fail when an experiment
//! does.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("spawn reproduce")
}

#[test]
fn a_successful_run_exits_zero() {
    let out = reproduce(&["fig8", "--scenario", "tiny"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_failed_experiment_exits_non_zero() {
    let missing = std::env::temp_dir().join("reproduce-exit-test-missing-dir").join("x.json");
    // The record cannot be written: that failure must reach the exit code.
    let out = reproduce(&["streams", "--scenario", "tiny", "--json", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed"), "{stderr}");
}
