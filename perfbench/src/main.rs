//! Benchmark of the Levioso reproduction, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <check-cold|check-warm|nifuzz> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. One process, one worker thread. A run is
//! a set-up followed by passes for `--seconds`; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` times plain passes and reports the end-to-end
//! metrics; `--trace 1` is a separate traced run that reports the
//! per-layer metrics and reconciles its counts with plain passes. See
//! `perfbench/README.md` for what each metric means and should move.

mod check;
mod fuzz;
mod measure;

use measure::{interquartile_mean, median, quantile, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <check-cold|check-warm|nifuzz> [--seed N] \
                     [--seconds S] [--trace 0|1]";

/// End-to-end metrics printed by every `--trace 0` run, with units.
pub const END_TO_END: [(&str, &str); 3] =
    [("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics printed by every `--trace 1` run, with units. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("uarch.run_ns_per_cycle.unsafe", "ns"),
    ("uarch.run_ns_per_cycle.fence", "ns"),
    ("uarch.run_ns_per_cycle.commit-delay", "ns"),
    ("uarch.run_ns_per_cycle.execute-delay", "ns"),
    ("uarch.run_ns_per_cycle.levioso", "ns"),
    ("uarch.run_ns_per_cycle.stt", "ns"),
    ("uarch.busy_s", "s"),
    ("uarch.new_us", "us"),
    ("uarch.sim_cycles", "count"),
    ("uarch.sim_kinstr", "kinstr"),
    ("uarch.ipc", "instr/cycle"),
    ("bench.figure_s.fig1_motivation", "s"),
    ("bench.figure_s.fig2_overhead", "s"),
    ("bench.figure_s.fig3_ablation", "s"),
    ("bench.figure_s.fig4_rob_sweep", "s"),
    ("bench.figure_s.fig5_mem_sweep", "s"),
    ("bench.figure_s.fig6_transient_fills", "s"),
    ("bench.figure_s.fig7_hint_budget", "s"),
    ("bench.cell_lookups", "count"),
    ("bench.cells_simulated", "count"),
    ("bench.distinct_frac", "ratio"),
    ("bench.key_us", "us"),
    ("bench.decode_us", "us"),
    ("bench.gate_ms", "ms"),
    ("workloads.suite_ms", "ms"),
    ("support.cache.lookup_us", "us"),
    ("support.cache.estimate_us", "us"),
    ("support.cache.store_us", "us"),
    ("support.cache.hits", "count"),
    ("support.cache.misses", "count"),
    ("support.cache.stores", "count"),
    ("compiler.annotate_us", "us"),
    ("compiler.annotate_calls", "count"),
    ("isa.interp_ms", "ms"),
    ("isa.interp_calls", "count"),
    ("nisec.gen_us", "us"),
    ("nisec.cell_key_us", "us"),
    ("nisec.record_ms", "ms"),
    ("nisec.trace_events", "count"),
    ("nisec.diff_ms", "ms"),
    ("sim_kinstr_per_s", "kinstr/s"),
    ("trace_overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
];

/// Environment variables that change what the program computes or where
/// it reads and writes; the benchmark refuses to run under any of them.
const FORBIDDEN_ENV: [&str; 6] = [
    "LEVIOSO_TRACE",
    "LEVIOSO_METRICS",
    "LEVIOSO_THREADS",
    "LEVIOSO_SCALE",
    "LEVIOSO_RESULTS_DIR",
    "LEVIOSO_SWEEP_CACHE",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CheckCold,
    CheckWarm,
    Nifuzz,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = levioso_nisec::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "check-cold" => Workload::CheckCold,
                    "check-warm" => Workload::CheckWarm,
                    "nifuzz" => Workload::Nifuzz,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Refuses a run that would not be hermetic: a configuring environment
/// variable is set, or the golden snapshots the checks read are not under
/// the working directory (the repository root).
fn check_environment() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if FORBIDDEN_ENV.iter().any(|f| key == *f || key.starts_with("LEVIOSO_SWEEP_CACHE")) {
            return Err(format!("{key} is set; unset it for a benchmark run"));
        }
    }
    let cwd = std::env::current_dir().and_then(|d| d.canonicalize()).map_err(|e| e.to_string())?;
    let golden = levioso_bench::Tier::Smoke.golden_dir();
    let golden = golden
        .canonicalize()
        .map_err(|e| format!("golden snapshots {} missing ({e})", golden.display()))?;
    if !golden.starts_with(&cwd) {
        return Err(format!(
            "golden snapshots {} are outside the working directory; run from the repository root",
            golden.display()
        ));
    }
    Ok(())
}

/// Pass verdicts of a run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    first: Vec<String>,
}

impl Tally {
    /// Counts one pass; it failed when `failures` is non-empty.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            if self.first.len() < 8 {
                self.first.extend(failures.into_iter().take(4));
            }
        }
    }

    /// Failed passes over attempted passes (0 when none attempted).
    pub fn failed_frac(&self) -> f64 {
        measure::ratio(self.failed, self.attempted)
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    tally: Tally,
    run_failures: Vec<String>,
    notes: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
}

impl Outcome {
    /// A line of context printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A failure of the run as a whole (set-up, self-test, vacuity,
    /// reconciliation); makes the result incorrect.
    pub fn fail_run(&mut self, why: String) {
        self.run_failures.push(why);
    }

    /// Records the end-to-end metrics of a timed run from the unscaled
    /// pass times `walls`, the same times scaled to the reference host
    /// speed, the scaled set-up time and the median host probe.
    ///
    /// `pass_s` is the interquartile mean of the scaled pass times: nifuzz
    /// pass times are bimodal (one or two leak gadgets per program), and a
    /// plain median jumps between the modes as the seed changes the mix.
    pub fn report_passes(&mut self, walls: &[f64], scaled: &[f64], setup_s: f64, probe_s: f64) {
        self.end_to_end.push("pass_s", interquartile_mean(scaled), "s");
        self.end_to_end.push("setup_s", setup_s, "s");
        let (lo, hi) = walls.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        self.note(format!("passes = {}", walls.len()));
        self.note(format!(
            "unscaled pass wall time: interquartile mean = {} s, median = {} s, range = [{lo}, {hi}] s",
            interquartile_mean(walls),
            median(walls)
        ));
        self.note(format!(
            "host probe median = {} ms (reference {} ms)",
            probe_s * 1e3,
            measure::PROBE_REF_S * 1e3
        ));
        if scaled.len() >= 200 {
            self.note(format!("pass_s_p95 = {} s", quantile(scaled, 0.95)));
        } else {
            self.note(format!("pass_s_p95 undefined: {} < 200 passes", scaled.len()));
        }
    }
}

/// Per-metric median over traced iterations (names and units from the
/// first).
pub fn median_metrics(iterations: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for (i, (name, _, unit)) in iterations[0].0.iter().enumerate() {
        let values: Vec<f64> = iterations.iter().map(|m| m.0[i].1).collect();
        out.push(name.clone(), median(&values), unit);
    }
    out
}

/// Removes the run's private directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared by concurrent runs; remove it only if empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Orders `computed` as `canonical`, filling layers the workload did not
/// exercise with 0.
fn canonical(computed: &Metrics, canonical: &[(&str, &'static str)]) -> Metrics {
    for (name, _, _) in &computed.0 {
        assert!(canonical.iter().any(|(c, _)| c == name), "metric {name} missing from the list");
    }
    let mut out = Metrics::default();
    for &(name, unit) in canonical {
        let value = computed.0.iter().find(|(n, _, _)| n == name).map_or(0.0, |m| m.1);
        out.push(name, value, unit);
    }
    out
}

fn result_json(outcome: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = outcome.run_failures.is_empty() && outcome.tally.failed == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let work = WorkDir(Path::new(".bench_work").join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        return ExitCode::from(2);
    }
    // Both process-wide cell caches start disabled; the check workloads
    // bind the bench cache to private directories pass by pass.
    levioso_bench::cellcache::configure(levioso_support::Cache::disabled());
    levioso_nisec::cellcache::configure(levioso_support::Cache::disabled());
    let mut dirs = check::Dirs::new(work.0.clone());
    let (name, mut outcome) = match (args.workload, args.trace) {
        (Workload::CheckCold, false) => {
            ("check-cold", check::timed(check::Mode::Cold, args.seconds, &mut dirs))
        }
        (Workload::CheckCold, true) => {
            ("check-cold", check::traced(check::Mode::Cold, args.seconds, &mut dirs))
        }
        (Workload::CheckWarm, false) => {
            ("check-warm", check::timed(check::Mode::Warm, args.seconds, &mut dirs))
        }
        (Workload::CheckWarm, true) => {
            ("check-warm", check::traced(check::Mode::Warm, args.seconds, &mut dirs))
        }
        (Workload::Nifuzz, false) => ("nifuzz", fuzz::timed(args.seed, args.seconds)),
        (Workload::Nifuzz, true) => ("nifuzz", fuzz::traced(args.seed, args.seconds)),
    };
    if args.workload != Workload::Nifuzz {
        outcome.note("seed ignored: check workloads are fixed inputs (kernels seeded by name)");
    }
    let metrics = if args.trace {
        canonical(&outcome.per_layer, &PER_LAYER)
    } else {
        outcome.end_to_end.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
        canonical(&outcome.end_to_end, &END_TO_END)
    };
    println!("workload = {name}, trace = {}, worker threads = 1", u8::from(args.trace));
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "failed_frac = {} ({} of {} passes failed)",
        outcome.tally.failed_frac(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    for f in outcome.tally.first.iter().chain(&outcome.run_failures) {
        println!("FAIL {f}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("{name} = {value} {unit}");
    }
    println!("{}", result_json(&outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use levioso_support::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} is not a list") };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload nifuzz --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Nifuzz, 7, 3.0, true));
        assert!(parse("--seed 7").is_err(), "workload required");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload nifuzz --trace 2").is_err());
        assert!(parse("--workload nifuzz --seconds 0").is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.tally.record(Vec::new());
        o.tally.record(vec!["drift".into()]);
        let mut m = Metrics::default();
        m.push("pass_s", 1.25, "s");
        let doc = Json::parse(&result_json(&o, &m)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_i64), Some(2));
        assert_eq!(doc.get("failed").and_then(Json::as_i64), Some(1));
        assert_eq!(o.tally.failed_frac(), 0.5);
    }
}
