//! CI validator for the simulator-throughput snapshot.
//!
//! Reads `results/BENCH_sim_throughput.json` (written by every `all` run),
//! validates it, and prints a human summary plus one machine-readable
//! `PERF ...` line. Exits 1 if the file is missing or malformed — the CI
//! pipeline runs this right after the smoke golden gate, so a change that
//! silently stops producing throughput numbers fails the build.
//!
//! Also validates `results/BENCH_serve_latency.json` when present (the
//! warm sweep server's request-latency book, `levioso-serve-latency/2`,
//! including the per-selector p50/p95/p99 distributions) — a server run
//! that stops recording latencies fails the build the same way a silent
//! throughput regression would. Likewise `results/METRICS_run.json` (the
//! `levioso-metrics/1` registry snapshot every `all` run and every served
//! request mirrors): a present file must be schema-tagged and every
//! counter/timer well-formed.
//!
//! With `--require-measured` it also fails unless the snapshot measured
//! simulation work itself (`cells > 0`): a warm replay records zero fresh
//! cells, which says nothing about simulator speed. CI runs this mode on
//! the committed snapshot, before any run in the pipeline rewrites it.
//!
//! ```text
//! perfcheck                     # validate + summarize results/BENCH_*.json
//! perfcheck --require-measured  # ... and reject a snapshot with cells: 0
//! ```
#[path = "../util.rs"]
mod util;

use levioso_support::Json;
use std::process::exit;

fn main() {
    let mut require_measured = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--require-measured" => require_measured = true,
            _ => {
                eprintln!("usage: perfcheck [--require-measured]");
                exit(2);
            }
        }
    }
    let path = util::results_dir().join("BENCH_sim_throughput.json");
    let doc = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfcheck: cannot read {}: {e}", path.display());
            eprintln!(
                "perfcheck: run the `all` driver first (it writes the snapshot in every mode)"
            );
            exit(1);
        }
    };
    if util::json_str_field(&doc, "schema").as_deref() != Some("levioso-sim-throughput/2") {
        eprintln!("perfcheck: {}: missing or unknown schema field", path.display());
        exit(1);
    }
    let Some(current) = util::json_object_field(&doc, "current") else {
        eprintln!("perfcheck: {}: no `current` object", path.display());
        exit(1);
    };
    let field = |key: &str| -> f64 {
        match util::json_num_field(&current, key) {
            Some(v) if v.is_finite() => v,
            _ => {
                eprintln!(
                    "perfcheck: {}: `current.{key}` missing or not a finite number",
                    path.display()
                );
                exit(1);
            }
        }
    };
    let tier = util::json_str_field(&current, "tier").unwrap_or_else(|| {
        eprintln!("perfcheck: {}: `current.tier` missing", path.display());
        exit(1);
    });
    let threads = field("threads");
    let cells = field("cells");
    let busy = field("busy_seconds");
    let wall = field("wall_seconds");
    let kc = field("kilocycles_per_busy_sec");
    let cps = field("cells_per_busy_sec");
    let Some(cache) = util::json_object_field(&current, "cache") else {
        eprintln!("perfcheck: {}: `current.cache` object missing", path.display());
        exit(1);
    };
    let cache_field = |key: &str| -> f64 {
        match util::json_num_field(&cache, key) {
            Some(v) if v.is_finite() && v >= 0.0 => v,
            _ => {
                eprintln!(
                    "perfcheck: {}: `current.cache.{key}` missing or invalid",
                    path.display()
                );
                exit(1);
            }
        }
    };
    let cache_enabled = util::json_bool_field(&cache, "enabled").unwrap_or_else(|| {
        eprintln!("perfcheck: {}: `current.cache.enabled` missing", path.display());
        exit(1);
    });
    let hits = cache_field("hits");
    let misses = cache_field("misses");
    // Additive field: present (and bounded by hits) since the hot tier
    // landed; absent in snapshots recorded before it.
    let l1_hits = util::json_num_field(&cache, "l1_hits").unwrap_or(0.0);
    if !(l1_hits.is_finite() && (0.0..=hits).contains(&l1_hits)) {
        eprintln!(
            "perfcheck: {}: `current.cache.l1_hits` ({l1_hits}) must be between 0 and hits \
             ({hits:.0})",
            path.display()
        );
        exit(1);
    }
    // The throughput meter must only sample freshly computed cells: every
    // recorded cell corresponds to exactly one cache miss (hits return
    // stored stats and skip the meter). A snapshot where cells != misses
    // means cached results polluted the busy-time samples — fail loudly.
    if cache_enabled && cells != misses {
        eprintln!(
            "perfcheck: {}: {cells:.0} throughput cells but {misses:.0} cache misses — \
             busy-time samples must come only from freshly computed cells",
            path.display()
        );
        exit(1);
    }
    // A fully warm cache legitimately records zero fresh cells; no work at
    // all (no cells AND no hits) still fails.
    if cells < 1.0 && hits < 1.0 {
        eprintln!("perfcheck: {}: snapshot records no simulation work", path.display());
        exit(1);
    }
    if require_measured && cells < 1.0 {
        eprintln!(
            "perfcheck: {}: snapshot measured no fresh cells (cells: {cells:.0}, {hits:.0} cache \
             hits) — record one with scripts/perf.sh, which forces --no-cache",
            path.display()
        );
        exit(1);
    }
    if cells >= 1.0 && busy <= 0.0 {
        eprintln!("perfcheck: {}: cells recorded but zero busy time", path.display());
        exit(1);
    }

    println!(
        "sim throughput ({tier} tier, {threads:.0} thread(s)): {cells:.0} cells in {busy:.1}s busy / {wall:.1}s wall"
    );
    println!(
        "  sweep-cache: enabled={cache_enabled} hits={hits:.0} misses={misses:.0} \
         (all throughput samples from fresh cells)"
    );
    println!("  {kc:.0} simulated kilocycles per busy-second, {cps:.2} cells per busy-second");
    if let Some(baseline) = util::json_object_field(&doc, "baseline") {
        if let (Some(bkc), Some(bcps)) = (
            util::json_num_field(&baseline, "kilocycles_per_busy_sec"),
            util::json_num_field(&baseline, "cells_per_busy_sec"),
        ) {
            if bkc > 0.0 && bcps > 0.0 {
                println!(
                    "  vs recorded baseline: {:.2}x kilocycles/busy-sec, {:.2}x cells/busy-sec",
                    kc / bkc,
                    cps / bcps
                );
            }
        }
    }
    println!(
        "PERF tier={tier} threads={threads:.0} cells={cells:.0} busy_seconds={busy:.3} \
         wall_seconds={wall:.3} kilocycles_per_busy_sec={kc:.3} cells_per_busy_sec={cps:.3}"
    );
    check_serve_latency();
    check_metrics_run();
    check_ledger();
}

/// Validates `results/ledger.jsonl` if runs have appended to it. Absence
/// is fine (fresh clone); a present file must parse record-for-record —
/// the loader is strict and names the corrupt line. Judging the trends
/// is delegated to `levhist --check`; perfcheck only guarantees the
/// sentinel's input is well-formed.
fn check_ledger() {
    let path = levioso_bench::ledger::ledger_path();
    if !path.exists() {
        return;
    }
    let records = match levioso_support::ledger::load(&path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("perfcheck: {e}");
            exit(1);
        }
    };
    let series = levioso_support::ledger::series_of(&records);
    let checkable =
        series.iter().filter(|s| s.points.len() >= levioso_support::ledger::MIN_SAMPLES).count();
    println!("LEDGER records={} series={} checkable={checkable}", records.len(), series.len());
}

/// Validates `results/BENCH_serve_latency.json` if a server wrote one.
/// Absence is fine (not every pipeline runs serve mode); a present file
/// must be well-formed, and every recorded latency finite.
fn check_serve_latency() {
    let path = util::results_dir().join("BENCH_serve_latency.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let fail = |reason: &str| -> ! {
        eprintln!("perfcheck: {}: {reason}", path.display());
        exit(1);
    };
    let Ok(doc) = Json::parse(&text) else { fail("not valid JSON") };
    if doc.get("schema").and_then(Json::as_str) != Some("levioso-serve-latency/2") {
        fail("missing or unknown schema field (expected levioso-serve-latency/2)");
    }
    // Either cold field may be null (no check request served yet), but a
    // recorded value must be a positive finite duration.
    let secs = |key: &str| -> Option<f64> {
        match doc.get(key) {
            Some(Json::Null) => None,
            Some(v) => match v.as_f64() {
                Some(s) if s.is_finite() && s > 0.0 => Some(s),
                _ => fail(&format!("`{key}` must be null or a positive finite number")),
            },
            None => fail(&format!("missing field `{key}`")),
        }
    };
    let cold = secs("cold_request_seconds");
    let warm = secs("warm_request_seconds");
    let Some(requests) = doc.get("requests").and_then(Json::as_arr) else {
        fail("missing or non-array field `requests`")
    };
    if requests.is_empty() {
        fail("a server wrote the latency book but recorded no requests");
    }
    for (i, req) in requests.iter().enumerate() {
        let wall = req.get("wall_seconds").and_then(Json::as_f64);
        if !wall.is_some_and(|w| w.is_finite() && w >= 0.0) {
            fail(&format!("requests[{i}].wall_seconds missing or not finite"));
        }
        for key in ["l1_hits", "l2_hits", "misses"] {
            let v = req.get("cache").and_then(|c| c.get(key)).and_then(Json::as_i64);
            if v.is_none_or(|n| n < 0) {
                fail(&format!("requests[{i}].cache.{key} missing or negative"));
            }
        }
    }
    // The per-selector latency distributions: every selector's entry must
    // carry a parsable histogram, ordered percentiles, and counts that sum
    // to the request book.
    let Some(Json::Obj(selectors)) = doc.get("selectors") else {
        fail("missing or non-object field `selectors`")
    };
    let mut selector_count = 0i64;
    for (selector, entry) in selectors {
        let sfail = |reason: &str| -> ! { fail(&format!("selectors.{selector}: {reason}")) };
        let count = match entry.get("count").and_then(Json::as_i64) {
            Some(n) if n >= 1 => n,
            _ => sfail("`count` missing or < 1"),
        };
        selector_count += count;
        let pct = |key: &str| -> f64 {
            match entry.get(key).and_then(Json::as_f64) {
                Some(v) if v.is_finite() && v >= 0.0 => v,
                _ => sfail(&format!("`{key}` missing or not a finite non-negative number")),
            }
        };
        let (p50, p95, p99) = (pct("p50_seconds"), pct("p95_seconds"), pct("p99_seconds"));
        if !(p50 <= p95 && p95 <= p99) {
            sfail(&format!("percentiles out of order: p50={p50} p95={p95} p99={p99}"));
        }
        let Some(h) = entry.get("histogram_micros").and_then(levioso_support::Histogram::from_json)
        else {
            sfail("`histogram_micros` missing or malformed")
        };
        if h.count() != count as u64 {
            sfail(&format!("histogram count {} disagrees with `count` {count}", h.count()));
        }
    }
    if selector_count != requests.len() as i64 {
        fail(&format!(
            "selector counts sum to {selector_count} but the book records {} request(s)",
            requests.len()
        ));
    }
    match (cold, warm) {
        (Some(c), Some(w)) => println!(
            "serve latency: {} request(s); smoke-check cold {c:.3}s -> warm {w:.3}s ({:.1}% of cold)",
            requests.len(),
            100.0 * w / c
        ),
        (Some(c), None) => {
            println!("serve latency: {} request(s); check cold {c:.3}s (no warm replay yet)", requests.len());
        }
        _ => println!("serve latency: {} request(s); no check request served yet", requests.len()),
    }
    println!(
        "SERVE requests={} cold_request_seconds={} warm_request_seconds={}",
        requests.len(),
        cold.map_or("null".to_string(), |c| format!("{c:.3}")),
        warm.map_or("null".to_string(), |w| format!("{w:.3}")),
    );
}

/// Validates `results/METRICS_run.json` if a run mirrored one. Absence is
/// fine (pre-telemetry snapshots); a present file must carry the schema
/// tag, u64-parsable counters, and well-formed timer histograms.
fn check_metrics_run() {
    let path = util::results_dir().join("METRICS_run.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let fail = |reason: &str| -> ! {
        eprintln!("perfcheck: {}: {reason}", path.display());
        exit(1);
    };
    let Ok(doc) = Json::parse(&text) else { fail("not valid JSON") };
    if doc.get("schema").and_then(Json::as_str) != Some("levioso-metrics/1") {
        fail("missing or unknown schema field (expected levioso-metrics/1)");
    }
    let obj = |key: &str| -> &Vec<(String, Json)> {
        match doc.get(key) {
            Some(Json::Obj(entries)) => entries,
            _ => fail(&format!("missing or non-object field `{key}`")),
        }
    };
    let counters = obj("counters");
    for (name, value) in counters {
        if value.as_str().is_none_or(|s| s.parse::<u64>().is_err()) {
            fail(&format!("counter `{name}` is not a u64-in-string"));
        }
    }
    let gauges = obj("gauges");
    for (name, value) in gauges {
        if value.as_i64().is_none() {
            fail(&format!("gauge `{name}` is not an integer"));
        }
    }
    let timers = obj("timers");
    for (name, value) in timers {
        if levioso_support::Histogram::from_json(value).is_none() {
            fail(&format!("timer `{name}` is not a parsable histogram"));
        }
    }
    println!(
        "METRICS counters={} gauges={} timers={} enabled={}",
        counters.len(),
        gauges.len(),
        timers.len(),
        doc.get("enabled").and_then(Json::as_bool).map_or("null".to_string(), |b| b.to_string()),
    );
}
