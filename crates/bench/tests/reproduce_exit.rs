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

#[test]
fn json_without_a_single_experiment_is_a_usage_error() {
    let out = reproduce(&["all", "--scenario", "tiny", "--json", "unused.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--json"));
}

#[test]
fn list_prints_the_registry() {
    let out = reproduce(&["--list"]);
    assert!(out.status.success());
    let names: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.split('\t').next().unwrap_or_default().to_string())
        .collect();
    let registry: Vec<&str> = bench::exp::REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(names, registry);
}

#[test]
fn an_unwritable_artefact_exits_non_zero() {
    let dir = std::env::temp_dir().join(format!("reproduce-exit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    // A file where the output directory belongs makes every write fail.
    std::fs::write(dir.join("generated"), "").expect("write the blocking file");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["emit-artifacts", "--scenario", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("spawn reproduce");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    assert_eq!(out.status.code(), Some(1));
}
