//! `levrun` rejects core configurations the simulator cannot run with a
//! usage error that names the limit, before simulating anything.

use std::process::Command;

fn levrun_with_rob(rob: &str) -> (Option<i32>, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let prog = dir.join("levrun_cli_halt.s");
    std::fs::write(&prog, "li a0, 1\nhalt\n").expect("write test program");
    let out = Command::new(env!("CARGO_BIN_EXE_levrun"))
        .arg(&prog)
        .args(["--scheme", "unsafe", "--rob", rob])
        .output()
        .expect("spawn levrun");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn oversized_rob_is_a_usage_error() {
    let (code, stderr) = levrun_with_rob("600");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("ROB size 600 is out of range"), "stderr: {stderr}");
    assert!(stderr.contains("1..=512"), "the message names the limit: {stderr}");
}

#[test]
fn empty_rob_is_a_usage_error() {
    let (code, stderr) = levrun_with_rob("0");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("ROB size 0 is out of range"), "stderr: {stderr}");
}

#[test]
fn supported_rob_runs() {
    let (code, stderr) = levrun_with_rob("512");
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
