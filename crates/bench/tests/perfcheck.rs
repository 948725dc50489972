//! `perfcheck --require-measured` accepts a throughput snapshot only when
//! it measured fresh simulation work; plain `perfcheck` also accepts a
//! warm replay.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Writes a minimal `levioso-sim-throughput/2` snapshot with `cells`
/// fresh cells and `hits` cache hits into its own results directory.
fn snapshot_dir(name: &str, cells: u32, hits: u32) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create results dir");
    let busy = if cells > 0 { 2.5 } else { 0.0 };
    let doc = format!(
        r#"{{
  "schema": "levioso-sim-throughput/2",
  "current": {{
    "tier": "smoke",
    "threads": 1,
    "cells": {cells},
    "sim_cycles": {cycles},
    "retired_instrs": 0,
    "busy_seconds": {busy:.3},
    "wall_seconds": 2.600,
    "cells_per_busy_sec": 0.000,
    "kilocycles_per_busy_sec": 0.000,
    "retired_per_busy_sec": 0.000,
    "cache": {{ "enabled": {enabled}, "hits": {hits}, "l1_hits": 0, "misses": {misses}, "poisoned": 0 }}
  }}
}}
"#,
        cycles = cells * 1000,
        enabled = hits > 0,
        misses = if hits > 0 { cells } else { 0 },
    );
    std::fs::write(dir.join("BENCH_sim_throughput.json"), doc).expect("write snapshot");
    dir
}

fn perfcheck(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfcheck"))
        .args(args)
        .env("LEVIOSO_RESULTS_DIR", dir)
        .output()
        .expect("spawn perfcheck");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn require_measured_rejects_a_warm_replay() {
    let warm = snapshot_dir("perfcheck_warm", 0, 316);
    let (code, stderr) = perfcheck(&warm, &[]);
    assert_eq!(code, Some(0), "a warm replay is a valid snapshot: {stderr}");
    let (code, stderr) = perfcheck(&warm, &["--require-measured"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("measured no fresh cells"), "stderr: {stderr}");
}

#[test]
fn require_measured_accepts_a_measured_snapshot() {
    let cold = snapshot_dir("perfcheck_cold", 180, 0);
    let (code, stderr) = perfcheck(&cold, &["--require-measured"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn unknown_argument_is_a_usage_error() {
    let cold = snapshot_dir("perfcheck_usage", 180, 0);
    let (code, _) = perfcheck(&cold, &["--require-measure"]);
    assert_eq!(code, Some(2));
}
