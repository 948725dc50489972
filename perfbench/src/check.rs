//! The `check-cold` and `check-warm` workloads: one pass is
//! `gate::shape_figures(&Sweep::new(1), Tier::Smoke)` followed by
//! `gate::check_figures`, with the bench cell cache bound to a private
//! directory (fresh and empty per cold pass, filled once at set-up for the
//! warm passes).

use crate::measure::{median, ratio, HostClock, Layers, Metrics, Sims};
use crate::{Outcome, Tally};
use levioso_bench::gate::{self, CheckReport, Drift, Tier};
use levioso_bench::{cellcache, throughput, Sweep};
use levioso_core::Scheme;
use levioso_stats::Figure;
use levioso_support::Cache;
use levioso_uarch::{core_fingerprint, CoreConfig, Simulator};
use levioso_workloads::{suite, Workload};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

const TIER: Tier = Tier::Smoke;

/// Schemes whose simulation speed is reported per simulated cycle.
pub const RUN_SCHEMES: [Scheme; 6] = [
    Scheme::Unsafe,
    Scheme::Fence,
    Scheme::CommitDelay,
    Scheme::ExecuteDelay,
    Scheme::Levioso,
    Scheme::Stt,
];

/// Whether the pass simulates into an empty cache or replays a filled one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every pass starts from a fresh, empty private cache.
    Cold,
    /// Every pass replays the private cache that set-up filled.
    Warm,
}

/// What one pass did, read from the program's public counters
/// (`cellcache::report()` and the `throughput::snapshot()` delta).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache stores.
    pub stores: u64,
    /// Envelopes that failed their integrity hash.
    pub poisoned: u64,
    /// Cells simulated (throughput meter).
    pub cells: u64,
    /// Simulated cycles (throughput meter).
    pub sim_cycles: u64,
    /// Committed instructions (throughput meter).
    pub retired: u64,
}

impl Counts {
    fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One finished pass.
#[derive(Debug)]
struct Pass {
    wall: f64,
    counts: Counts,
    failures: Vec<String>,
    /// Span per figure function plus `check_figures` (spanned passes only).
    spans: Vec<(&'static str, f64)>,
}

/// The failures of one pass: golden drift, a panic, or a cache split that
/// breaks the mode's invariant (cold: starts empty and simulates exactly
/// its misses; warm: no misses at all).
pub fn judge(
    mode: Mode,
    cells_at_start: usize,
    counts: &Counts,
    drifts: &[Drift],
    panic: Option<String>,
) -> Vec<String> {
    let mut fails: Vec<String> = drifts.iter().map(|d| d.to_string()).collect();
    if let Some(msg) = panic {
        fails.push(format!("panic: {msg}"));
    }
    let c = counts;
    let mut need = |ok: bool, what: String| {
        if !ok {
            fails.push(format!("cache split: {what}"));
        }
    };
    need(c.poisoned == 0, format!("{} poisoned envelopes", c.poisoned));
    match mode {
        Mode::Cold => {
            need(cells_at_start == 0, format!("cache held {cells_at_start} cells at start"));
            need(c.misses > 0, "no misses on an empty cache".into());
            need(
                c.cells == c.misses,
                format!("{} cells simulated for {} misses", c.cells, c.misses),
            );
            need(c.stores == c.misses, format!("{} stores for {} misses", c.stores, c.misses));
        }
        Mode::Warm => {
            need(c.misses == 0, format!("{} warm misses", c.misses));
            need(c.cells == 0, format!("{} cells simulated on a warm cache", c.cells));
            need(c.stores == 0, format!("{} stores on a warm cache", c.stores));
            need(c.hits > 0, "no hits on a filled cache".into());
        }
    }
    fails
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Binds the bench cell cache to `root` and runs one pass: `spanned`
/// calls the seven figure functions one by one under spans instead of
/// `gate::shape_figures`.
fn run_pass(mode: Mode, root: &Path, spanned: bool) -> Pass {
    let cache = Cache::new(root, core_fingerprint());
    let cells_at_start = cache.cell_count();
    cellcache::configure(cache);
    let before = throughput::snapshot();
    let mut spans = Vec::new();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let sweep = Sweep::new(1);
        let figures = if spanned {
            spanned_figures(&sweep, &mut spans)
        } else {
            gate::shape_figures(&sweep, TIER)
        };
        let gate_start = Instant::now();
        let report = gate::check_figures(&figures, TIER);
        if spanned {
            spans.push(("check_figures", gate_start.elapsed().as_secs_f64()));
        }
        report
    }));
    let wall = start.elapsed().as_secs_f64();
    let after = throughput::snapshot();
    let r = cellcache::report();
    let counts = Counts {
        hits: r.hits,
        misses: r.misses,
        stores: r.stores,
        poisoned: r.poisoned,
        cells: after.cells - before.cells,
        sim_cycles: after.sim_cycles - before.sim_cycles,
        retired: after.retired - before.retired,
    };
    let (drifts, panic) = match result {
        Ok(CheckReport { drifts, .. }) => (drifts, None),
        Err(payload) => (Vec::new(), Some(panic_message(payload))),
    };
    let failures = judge(mode, cells_at_start, &counts, &drifts, panic);
    Pass { wall, counts, failures, spans }
}

/// `gate::shape_figures` unrolled, one span per figure function.
fn spanned_figures(
    sweep: &Sweep,
    spans: &mut Vec<(&'static str, f64)>,
) -> Vec<(&'static str, Figure)> {
    use levioso_bench as b;
    let scale = TIER.scale();
    let calls: [(&'static str, &dyn Fn() -> Figure); 7] = [
        ("fig1_motivation", &|| b::motivation_figure(sweep, scale)),
        ("fig2_overhead", &|| b::overhead_figure(sweep, scale)),
        ("fig3_ablation", &|| b::ablation_figure(sweep, scale)),
        ("fig4_rob_sweep", &|| b::rob_sweep_figure(sweep, scale, TIER.rob_sizes())),
        ("fig5_mem_sweep", &|| b::mem_sweep_figure(sweep, scale, TIER.dram_latencies())),
        ("fig6_transient_fills", &|| b::transient_fill_figure(sweep, scale)),
        ("fig7_hint_budget", &|| b::annotation_cap_figure(sweep, scale, TIER.caps())),
    ];
    assert!(calls.iter().map(|(id, _)| *id).eq(gate::SHAPE_IDS), "figure list out of date");
    calls
        .iter()
        .map(|(id, f)| {
            let start = Instant::now();
            let fig = f();
            spans.push((id, start.elapsed().as_secs_f64()));
            (*id, fig)
        })
        .collect()
}

/// Feeds known-bad passes through [`judge`] and returns the failed share:
/// a perturbed copy of one golden figure, and a warm pass with a miss.
/// Anything but 1.0 means the failure count cannot fire.
pub fn self_test() -> Result<f64, String> {
    let path = TIER.golden_dir().join("fig2_overhead.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("golden snapshot {} unreadable: {e}", path.display()))?;
    let golden = Figure::from_json(&text).map_err(|e| format!("golden snapshot: {e}"))?;
    let mut perturbed = golden.clone();
    let point = perturbed
        .series
        .iter_mut()
        .find(|s| s.name == Scheme::Levioso.name())
        .and_then(|s| s.points.last_mut())
        .ok_or("fig2_overhead has no levioso series")?;
    point.1 *= 1.01;
    let mut tally = Tally::default();
    let drifts = gate::compare_figure("fig2_overhead", &perturbed, &golden);
    let warm = Counts { hits: 315, ..Counts::default() };
    tally.record(judge(Mode::Warm, 0, &warm, &drifts, None));
    let warm_miss = Counts { hits: 315, misses: 1, ..Counts::default() };
    tally.record(judge(Mode::Warm, 0, &warm_miss, &[], None));
    Ok(tally.failed_frac())
}

/// Owns the private cache directories of one run.
#[derive(Debug)]
pub struct Dirs {
    root: PathBuf,
    next: usize,
}

impl Dirs {
    /// Private directories live under `root`.
    pub fn new(root: PathBuf) -> Dirs {
        Dirs { root, next: 0 }
    }

    /// A fresh directory that does not exist yet.
    fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Set-up: validates the inputs — every kernel halts on the reference
/// interpreter, every golden snapshot parses, the replay's cell plan is
/// non-empty — and, for the warm mode, fills a private cache with one
/// cold pass. Returns the warm directory (if any) and the failures.
fn set_up(mode: Mode, dirs: &mut Dirs) -> (Option<PathBuf>, Vec<String>) {
    let mut fails = Vec::new();
    for w in suite(TIER.scale()) {
        if catch_unwind(|| w.expected_checksum()).is_err() {
            fails.push(format!("kernel {} does not halt on the interpreter", w.name));
        }
    }
    for id in gate::SHAPE_IDS {
        let path = TIER.golden_dir().join(format!("{id}.json"));
        if let Err(e) = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Figure::from_json(&t).map_err(|e| e.to_string()))
        {
            fails.push(format!("golden snapshot {}: {e}", path.display()));
        }
    }
    if plan().iter().all(|(_, cells)| cells.is_empty()) {
        fails.push("empty cell plan".into());
    }
    match mode {
        Mode::Cold => (None, fails),
        Mode::Warm => {
            let dir = dirs.fresh("warm");
            fails.extend(run_pass(Mode::Cold, &dir, false).failures);
            (Some(dir), fails)
        }
    }
}

/// Set-up repetitions per run: set-up is timed several times and the
/// median reported. The warm fill costs a cold pass, so it repeats less.
fn setups(mode: Mode) -> usize {
    match mode {
        Mode::Cold => 25,
        Mode::Warm => 3,
    }
}

/// Runs the timed passes for `seconds` and reports the end-to-end metrics.
pub fn timed(mode: Mode, seconds: f64, dirs: &mut Dirs) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = HostClock::start();
    let warm_dir = timed_setup(mode, dirs, &mut out, &mut clock);
    let setup_s = median(&clock.finish());
    let mut walls = Vec::new();
    let mut retired = 0u64;
    let start = clock.elapsed();
    while walls.is_empty() || clock.elapsed() - start < seconds {
        let dir = warm_dir.clone().unwrap_or_else(|| dirs.fresh("cold"));
        let (pass, wall) = clock.time(|| run_pass(mode, &dir, false));
        if mode == Mode::Cold {
            remove(&dir);
        }
        walls.push(wall);
        retired += pass.counts.retired;
        out.tally.record(pass.failures);
    }
    if let Some(dir) = warm_dir {
        remove(&dir);
    }
    out.report_passes(&walls, &clock.finish(), setup_s, clock.probe_median());
    if mode == Mode::Cold {
        let kinstr_per_s = retired as f64 / 1e3 / walls.iter().sum::<f64>();
        out.note(format!("sim_kinstr_per_s = {kinstr_per_s:.1} kinstr/s (unscaled)"));
    }
    out
}

/// Runs the self-test, then [`set_up`] several times as timed sections of
/// `clock`, and keeps the last warm directory for the passes.
fn timed_setup(
    mode: Mode,
    dirs: &mut Dirs,
    out: &mut Outcome,
    clock: &mut HostClock,
) -> Option<PathBuf> {
    match self_test() {
        Ok(frac) if frac == 1.0 => {
            out.note(format!("self-test: failed_frac = {frac} on known-bad passes (expected 1)"))
        }
        Ok(frac) => out.fail_run(format!("self-test: known-bad passes gave failed_frac {frac}")),
        Err(e) => out.fail_run(format!("self-test: {e}")),
    }
    let mut warm_dir = None;
    for _ in 0..setups(mode) {
        let ((dir, fails), _) = clock.time(|| set_up(mode, dirs));
        for f in fails {
            out.fail_run(format!("set-up: {f}"));
        }
        if let Some(old) = std::mem::replace(&mut warm_dir, dir) {
            remove(&old);
        }
    }
    warm_dir
}

/// One cell the figure functions look up, in their lookup order.
#[derive(Debug, Clone)]
struct Cell {
    workload: usize,
    scheme: Scheme,
    config: CoreConfig,
    /// F7's annotation cap (`Some` only for capped Levioso cells).
    cap: Option<usize>,
}

impl Cell {
    fn new(workload: usize, scheme: Scheme, config: &CoreConfig) -> Cell {
        Cell { workload, scheme, config: config.clone(), cap: None }
    }

    fn tag(&self) -> String {
        match self.cap {
            None => String::new(),
            Some(usize::MAX) => "cap=uncapped".into(),
            Some(cap) => format!("cap={cap}"),
        }
    }
}

/// Whether a figure's cells come from the full suite or the sweep kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suite {
    Full,
    Kernels,
}

/// The cells each shape figure looks up, in lookup order, mirroring the
/// figure functions of `levioso-bench` at the smoke tier.
fn plan() -> Vec<(Suite, Vec<Cell>)> {
    let full = suite(TIER.scale()).len();
    let kernels = levioso_bench::sweep_kernels(TIER.scale()).len();
    let base = CoreConfig::default();
    let grid = |n: usize, configs: &[CoreConfig], schemes: &[Scheme]| -> Vec<Cell> {
        let mut cells = Vec::new();
        for config in configs {
            for w in 0..n {
                cells.push(Cell::new(w, Scheme::Unsafe, config));
                for &s in schemes.iter().filter(|&&s| s != Scheme::Unsafe) {
                    cells.push(Cell::new(w, s, config));
                }
            }
        }
        cells
    };
    let one = std::slice::from_ref(&base);
    let sens = [Scheme::CommitDelay, Scheme::ExecuteDelay, Scheme::Levioso];
    let robs: Vec<CoreConfig> =
        TIER.rob_sizes().iter().map(|&r| base.clone().with_rob_size(r)).collect();
    let drams: Vec<CoreConfig> =
        TIER.dram_latencies().iter().map(|&d| base.clone().with_dram_latency(d)).collect();
    let f6 = Scheme::HEADLINE.iter().flat_map(|&s| (0..full).map(move |w| (s, w)));
    let mut f7: Vec<Cell> = (0..full).map(|w| Cell::new(w, Scheme::Unsafe, &base)).collect();
    for &cap in TIER.caps() {
        f7.extend(
            (0..full).map(|w| Cell { cap: Some(cap), ..Cell::new(w, Scheme::Levioso, &base) }),
        );
    }
    vec![
        (Suite::Full, (0..full).map(|w| Cell::new(w, Scheme::Levioso, &base)).collect()),
        (Suite::Full, grid(full, one, &Scheme::HEADLINE)),
        (
            Suite::Full,
            grid(full, one, &[Scheme::Levioso, Scheme::LeviosoStatic, Scheme::LeviosoCtrlOnly]),
        ),
        (Suite::Kernels, grid(kernels, &robs, &sens)),
        (Suite::Kernels, grid(kernels, &drams, &sens)),
        (Suite::Full, f6.map(|(s, w)| Cell::new(w, s, &base)).collect()),
        (Suite::Full, f7),
    ]
}

/// What the replay did: per-layer time, per-scheme simulation time and
/// cycles, and the counts to reconcile against a pass.
#[derive(Debug, Default)]
struct Replay {
    layers: Layers,
    sims: Sims,
    counts: Counts,
    distinct: usize,
    failures: Vec<String>,
}

/// Replays one pass by calling the inner public layer functions directly,
/// against a cache at `root`: per figure, `suite`, the cost estimates,
/// then per cell the key, the lookup, and on a hit the decode, on a miss
/// annotation, `Simulator::new`, the run, the reference interpreter and
/// the store — the path `levioso_bench::run_workload` takes.
fn replay(root: &Path) -> Replay {
    let cache = Cache::new(root, core_fingerprint());
    let mut r = Replay::default();
    let mut keys = HashSet::new();
    let l = &mut r.layers;
    for (which, cells) in plan() {
        let workloads: Vec<Workload> = l.time("workloads.suite", || match which {
            Suite::Full => suite(TIER.scale()),
            Suite::Kernels => levioso_bench::sweep_kernels(TIER.scale()),
        });
        for c in &cells {
            let w = &workloads[c.workload];
            let key = l.time("bench.key", || {
                cellcache::workload_key(w, c.scheme.name(), &c.config, &c.tag())
            });
            l.time("support.cache.estimate", || cache.estimate_cost(&key));
        }
        for c in &cells {
            let w = &workloads[c.workload];
            let tag = c.tag();
            let key = l
                .time("bench.key", || cellcache::workload_key(w, c.scheme.name(), &c.config, &tag));
            let label = cellcache::workload_label(w, c.scheme.name(), &tag);
            keys.insert(key.clone());
            if let Some(doc) = l.time("support.cache.lookup", || cache.lookup(&label, &key)) {
                if l.time("bench.decode", || cellcache::stats_from_json(&doc)).is_none() {
                    r.failures.push(format!("replay: undecodable cell {label}"));
                }
                continue;
            }
            let cell_start = Instant::now();
            let mut program = w.program.clone();
            l.time("compiler.annotate", || c.scheme.prepare(&mut program));
            if let Some(cap) = c.cap {
                program.annotations = program.annotations.take().map(|a| a.capped(cap));
            }
            let mut sim = l.time("uarch.new", || Simulator::new(&program, c.config.clone()));
            w.apply_memory(&mut sim);
            let Some(stats) = r.sims.run(&mut sim, c.scheme) else {
                r.failures.push(format!("replay: {label} failed to simulate"));
                continue;
            };
            let got = sim.mem.read_i64(w.checksum_addr);
            if got != l.time("isa.interp", || w.expected_checksum()) {
                r.failures.push(format!("replay: {label} checksum mismatch"));
            }
            r.counts.cells += 1;
            let busy = cell_start.elapsed().as_nanos() as u64;
            l.time("support.cache.store", || {
                cache.store(&label, &key, &cellcache::stats_to_json(&stats), busy)
            });
        }
    }
    let rep = cache.report();
    r.counts.hits = rep.hits;
    r.counts.misses = rep.misses;
    r.counts.stores = rep.stores;
    r.counts.poisoned = rep.poisoned;
    r.counts.sim_cycles = r.sims.total_cycles;
    r.counts.retired = r.sims.committed;
    r.distinct = keys.len();
    r
}

/// The traced run: per iteration, a plain pass (as timed), a spanned
/// pass, and the replay, reconciled count for count. Reports per-layer
/// metrics (medians over iterations) and fails the run on any mismatch.
pub fn traced(mode: Mode, seconds: f64, dirs: &mut Dirs) -> Outcome {
    let mut out = Outcome::default();
    let warm_dir = timed_setup(mode, dirs, &mut out, &mut HostClock::start());
    let mut iterations: Vec<Metrics> = Vec::new();
    let start = Instant::now();
    while iterations.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut dir = |tag| warm_dir.clone().unwrap_or_else(|| dirs.fresh(tag));
        let (plain_dir, spanned_dir, replay_dir) = (dir("plain"), dir("spanned"), dir("replay"));
        let plain = run_pass(mode, &plain_dir, false);
        let spanned = run_pass(mode, &spanned_dir, true);
        let rep = replay(&replay_dir);
        if mode == Mode::Cold {
            [&plain_dir, &spanned_dir, &replay_dir].iter().for_each(|d| remove(d));
        }
        for f in reconcile(&plain, &spanned, &rep) {
            out.fail_run(f);
        }
        iterations.push(layer_metrics(&plain, &spanned, &rep));
        out.tally.record(plain.failures);
        out.tally.record(spanned.failures);
    }
    if let Some(dir) = warm_dir {
        remove(&dir);
    }
    out.per_layer = crate::median_metrics(&iterations);
    out
}

/// Count-for-count agreement of the plain pass, the spanned pass, and the
/// replay.
fn reconcile(plain: &Pass, spanned: &Pass, rep: &Replay) -> Vec<String> {
    let mut fails = Vec::new();
    if plain.counts != spanned.counts {
        fails.push(format!(
            "reconcile: spanned pass {:?} != timed pass {:?}",
            spanned.counts, plain.counts
        ));
    }
    if rep.counts != spanned.counts {
        fails.push(format!("reconcile: replay {:?} != pass {:?}", rep.counts, spanned.counts));
    }
    fails.extend(rep.failures.iter().cloned());
    fails
}

fn us(secs: f64) -> f64 {
    secs * 1e6
}

/// The per-layer metrics of one traced iteration.
fn layer_metrics(plain: &Pass, spanned: &Pass, rep: &Replay) -> Metrics {
    let mut m = Metrics::default();
    let l = &rep.layers;
    let c = &spanned.counts;
    rep.sims.push_ns_per_cycle(&mut m, &RUN_SCHEMES);
    m.push("uarch.busy_s", l.secs("uarch.new") + rep.sims.secs(), "s");
    m.push("uarch.new_us", us(l.per_call("uarch.new")), "us");
    m.push("uarch.sim_cycles", c.sim_cycles as f64, "count");
    m.push("uarch.sim_kinstr", c.retired as f64 / 1e3, "kinstr");
    m.push("uarch.ipc", ratio(c.retired, c.sim_cycles), "instr/cycle");
    for (id, secs) in &spanned.spans {
        if *id != "check_figures" {
            m.push(format!("bench.figure_s.{id}"), *secs, "s");
        }
    }
    m.push("bench.cell_lookups", c.lookups() as f64, "count");
    m.push("bench.cells_simulated", c.cells as f64, "count");
    m.push("bench.distinct_frac", ratio(rep.distinct as u64, c.lookups()), "ratio");
    m.push("bench.key_us", us(l.per_call("bench.key")), "us");
    m.push("bench.decode_us", us(l.per_call("bench.decode")), "us");
    let gate_s = spanned.spans.iter().find(|(id, _)| *id == "check_figures").map_or(0.0, |s| s.1);
    m.push("bench.gate_ms", gate_s * 1e3, "ms");
    m.push("workloads.suite_ms", l.per_call("workloads.suite") * 1e3, "ms");
    m.push("support.cache.lookup_us", us(l.per_call("support.cache.lookup")), "us");
    m.push("support.cache.estimate_us", us(l.per_call("support.cache.estimate")), "us");
    m.push("support.cache.store_us", us(l.per_call("support.cache.store")), "us");
    m.push("support.cache.hits", c.hits as f64, "count");
    m.push("support.cache.misses", c.misses as f64, "count");
    m.push("support.cache.stores", c.stores as f64, "count");
    m.push("compiler.annotate_us", us(l.per_call("compiler.annotate")), "us");
    m.push("compiler.annotate_calls", l.calls("compiler.annotate") as f64, "count");
    m.push("isa.interp_ms", l.per_call("isa.interp") * 1e3, "ms");
    m.push("isa.interp_calls", l.calls("isa.interp") as f64, "count");
    m.push("sim_kinstr_per_s", plain.counts.retired as f64 / 1e3 / plain.wall, "kinstr/s");
    m.push("trace_overhead_frac", spanned.wall / plain.wall - 1.0, "ratio");
    let attributed = l.total_secs() + rep.sims.secs() + gate_s;
    m.push("unattributed_frac", 1.0 - attributed / spanned.wall, "ratio");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold(misses: u64) -> Counts {
        Counts { hits: 316 - misses, misses, stores: misses, cells: misses, ..Counts::default() }
    }

    #[test]
    fn clean_passes_do_not_fail() {
        assert!(judge(Mode::Cold, 0, &cold(180), &[], None).is_empty());
        let warm = Counts { hits: 316, ..Counts::default() };
        assert!(judge(Mode::Warm, 0, &warm, &[], None).is_empty());
    }

    #[test]
    fn every_failure_kind_fires() {
        assert!(!judge(Mode::Cold, 3, &cold(180), &[], None).is_empty(), "non-empty start");
        let extra = Counts { cells: 181, ..cold(180) };
        assert!(!judge(Mode::Cold, 0, &extra, &[], None).is_empty(), "cells != misses");
        assert!(!judge(Mode::Cold, 0, &cold(180), &[], Some("boom".into())).is_empty());
        let warm_miss = Counts { hits: 315, misses: 1, ..Counts::default() };
        assert!(!judge(Mode::Warm, 0, &warm_miss, &[], None).is_empty(), "warm miss");
        let drift = Drift::Structure { figure: "f".into(), detail: "d".into() };
        assert!(!judge(Mode::Cold, 0, &cold(180), &[drift], None).is_empty(), "drift");
    }

    #[test]
    fn self_test_sees_every_known_bad_pass_fail() {
        assert_eq!(self_test(), Ok(1.0));
    }

    #[test]
    fn plan_matches_the_smoke_lookup_count() {
        let cells: usize = plan().iter().map(|(_, c)| c.len()).sum();
        assert_eq!(cells, 316);
    }
}
