//! The `nifuzz` workload: one pass is one `levioso_nisec::fuzz` call on a
//! one-program campaign (4 secret pairs × `Scheme::ALL` × 2 recorded runs)
//! with the nisec cell cache disabled. Each pass takes its own seed, drawn
//! from the run seed.

use crate::measure::{median, ratio, HostClock, Layers, Metrics, Sims};
use crate::Outcome;
use levioso_core::Scheme;
use levioso_nisec::{
    assert_pair_low_equivalent, cellcache, diff, fuzz, gen_program, gen_secret_pair, CellResult,
    Divergence, Ev, FuzzConfig, FuzzReport, Observer, Recorder, SecretProgram, ENFORCED_CLEAN,
};
use levioso_support::{Cache, Rng, SplitMix64, Xoshiro256pp};
use levioso_uarch::{CoreConfig, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Secret pairs per program.
const PAIRS: usize = 4;
/// Programs generated and checked at set-up; passes cycle through them.
const CORPUS: usize = 2048;
/// Passes per traced iteration (fixed, so its counts are exact).
const BATCH: usize = 16;
/// Set-up repetitions per run (median reported).
const SETUPS: usize = 5;

fn campaign(seed: u64) -> FuzzConfig {
    FuzzConfig { programs: 1, pairs_per_program: PAIRS, seed, threads: 1 }
}

/// The pass seeds of a run: a SplitMix64 stream from the run seed.
pub fn pass_seeds(run_seed: u64, n: usize) -> Vec<u64> {
    let mut sm = SplitMix64::new(run_seed);
    (0..n).map(|_| sm.next_u64()).collect()
}

/// The program and secret pairs `fuzz` generates for a one-program
/// campaign with `seed`.
fn generate(seed: u64) -> (SecretProgram, Vec<Vec<(i64, i64)>>) {
    let mut master = Xoshiro256pp::seed_from_u64(seed);
    let mut rng = master.split();
    let sp = gen_program(&mut rng);
    let pairs = (0..PAIRS).map(|_| gen_secret_pair(&mut rng, sp.secret_addrs.len())).collect();
    (sp, pairs)
}

/// Set-up: derives the pass seeds and checks on the reference
/// interpreter that every generated pair is low-equivalent. Returns the
/// seeds, or the first seed whose input is invalid.
fn set_up(run_seed: u64) -> Result<Vec<u64>, String> {
    let seeds = pass_seeds(run_seed, CORPUS);
    for &seed in &seeds {
        let (sp, pairs) = generate(seed);
        catch_unwind(AssertUnwindSafe(|| {
            pairs.iter().for_each(|p| assert_pair_low_equivalent(&sp, p))
        }))
        .map_err(|_| format!("seed {seed:#x}: generated pair is not low-equivalent"))?;
    }
    Ok(seeds)
}

/// Failures of one pass: a wrong cell count or any divergence of an
/// `ENFORCED_CLEAN` scheme.
pub fn judge(report: &FuzzReport) -> Vec<String> {
    let mut fails = Vec::new();
    let expected = PAIRS * Scheme::ALL.len();
    if report.results.len() != expected {
        fails.push(format!("{} cells, expected {expected}", report.results.len()));
    }
    for cell in &report.results {
        if !ENFORCED_CLEAN.contains(&cell.scheme) {
            continue;
        }
        for (o, d) in Observer::ALL.iter().zip(&cell.diverged) {
            if let Some(d) = d {
                fails.push(format!(
                    "leak: {} diverged under {o} at seed {:#x} pair {}: {d}",
                    cell.scheme.name(),
                    report.seed,
                    cell.pair
                ));
            }
        }
    }
    fails
}

/// Cells on which the unsafe baseline leaked, per observer.
fn unsafe_leaks(report: &FuzzReport) -> [usize; 3] {
    Observer::ALL.map(|o| report.leaks(Scheme::Unsafe, o))
}

/// Run-level failures: an observer under which unsafe never leaked makes
/// the run vacuous.
fn vacuity(leaks: &[usize; 3], passes: usize) -> Vec<String> {
    Observer::ALL
        .iter()
        .zip(leaks)
        .filter(|(_, &n)| n == 0)
        .map(|(o, _)| {
            format!("vacuous: unsafe never leaked under the {o} observer in {passes} passes")
        })
        .collect()
}

/// Feeds a known-bad report (a Levioso divergence, and an unsafe
/// baseline that never leaks) through [`judge`] and [`vacuity`]; true when
/// both fire.
pub fn self_test() -> bool {
    let leak = Divergence { index: 0, a: "a".into(), b: "b".into(), rule_context: None };
    let cell = |scheme, d: Option<Divergence>| CellResult {
        scheme,
        program: 0,
        pair: 0,
        diverged: vec![d, None, None],
    };
    let report = FuzzReport {
        schemes: vec![Scheme::Unsafe, Scheme::Levioso],
        cells: 1,
        seed: 0,
        results: vec![cell(Scheme::Unsafe, None), cell(Scheme::Levioso, Some(leak))],
    };
    let mut tally = crate::Tally::default();
    tally.record(judge(&report));
    tally.failed_frac() > 0.0 && !vacuity(&unsafe_leaks(&report), 1).is_empty()
}

fn run_pass(seed: u64) -> (f64, Result<FuzzReport, String>) {
    cellcache::reset_counters();
    let start = Instant::now();
    let report = catch_unwind(|| fuzz(&campaign(seed), &Scheme::ALL));
    let wall = start.elapsed().as_secs_f64();
    (wall, report.map_err(|_| format!("seed {seed:#x}: fuzz panicked")))
}

/// Runs the self-test, then [`set_up`] [`SETUPS`] times as timed
/// sections of `clock`, and returns the pass seeds.
fn timed_setup(run_seed: u64, out: &mut Outcome, clock: &mut HostClock) -> Vec<u64> {
    if self_test() {
        out.note("self-test: a leaking levioso cell fails its pass; a clean unsafe run is vacuous");
    } else {
        out.fail_run("self-test: a known-bad fuzz report was not counted as failed".into());
    }
    let mut seeds = Vec::new();
    for _ in 0..SETUPS {
        match clock.time(|| set_up(run_seed)).0 {
            Ok(s) => seeds = s,
            Err(e) => out.fail_run(format!("set-up: {e}")),
        }
    }
    if seeds.is_empty() {
        seeds = pass_seeds(run_seed, 1);
    }
    seeds
}

/// Runs the timed passes for `seconds` and reports the end-to-end metrics.
pub fn timed(run_seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    out.note(format!("seed = {run_seed} ({run_seed:#x})"));
    let mut clock = HostClock::start();
    let seeds = timed_setup(run_seed, &mut out, &mut clock);
    let setup_s = median(&clock.finish());
    let mut walls = Vec::new();
    let mut leaks = [0usize; 3];
    let start = clock.elapsed();
    while walls.is_empty() || clock.elapsed() - start < seconds {
        let ((wall, report), _) = clock.time(|| run_pass(seeds[walls.len() % seeds.len()]));
        walls.push(wall);
        match report {
            Ok(report) => {
                out.tally.record(judge(&report));
                leaks.iter_mut().zip(unsafe_leaks(&report)).for_each(|(t, n)| *t += n);
            }
            Err(e) => out.tally.record(vec![e]),
        }
    }
    for f in vacuity(&leaks, walls.len()) {
        out.fail_run(f);
    }
    out.report_passes(&walls, &clock.finish(), setup_s, clock.probe_median());
    out
}

/// What the composed replay of one or more passes did.
#[derive(Debug, Default)]
struct Replay {
    /// Per-layer time; annotation and `Simulator::new` nest in record.
    layers: Layers,
    /// `Simulator::run` time and work, nested in record.
    sims: Sims,
    /// Time of the record stage, everything nested in it included.
    record_s: f64,
    events: u64,
    failures: Vec<String>,
}

/// Records both members of one pair under one scheme, as `fuzz` does.
fn record_pair(
    r: &mut Replay,
    sp: &SecretProgram,
    secrets: &[(i64, i64)],
    scheme: Scheme,
) -> Option<[Vec<Ev>; 2]> {
    let mut side = |side: usize| -> Option<Vec<Ev>> {
        let mut program = sp.program.clone();
        r.layers.time("compiler.annotate", || scheme.prepare(&mut program));
        let mut sim =
            r.layers.time("uarch.new", || Simulator::new(&program, CoreConfig::default()));
        for &(addr, v) in &sp.public_mem {
            sim.mem.write_i64(addr, v);
        }
        for (&addr, &(a, b)) in sp.secret_addrs.iter().zip(secrets) {
            sim.mem.write_i64(addr, if side == 0 { a } else { b });
        }
        for &(reg, v) in &sp.reg_init {
            sim.set_reg(reg, v);
        }
        sim.attach_tracer(Box::new(Recorder::default()));
        if r.sims.run(&mut sim, scheme).is_none() {
            r.failures.push(format!("replay: {} failed to simulate", scheme.name()));
            return None;
        }
        let events = sim.take_tracer()?.into_any().downcast::<Recorder>().ok()?.events;
        r.events += events.len() as u64;
        Some(events)
    };
    Some([side(0)?, side(1)?])
}

/// Replays one pass as its composed stages — generate, key, look up,
/// record, diff, store — calling the public nisec, compiler and uarch
/// functions directly against a disabled cache, like `fuzz` with the
/// nisec cache off.
fn replay(seed: u64, cache: &Cache, r: &mut Replay) -> Vec<CellResult> {
    let (sp, pairs) = r.layers.time("nisec.gen", || generate(seed));
    let core = CoreConfig::default();
    let jobs: Vec<(usize, Scheme)> = (0..PAIRS).flat_map(|p| Scheme::ALL.map(|s| (p, s))).collect();
    let keys: Vec<String> = jobs
        .iter()
        .map(|&(p, s)| {
            r.layers.time("nisec.cell_key", || cellcache::cell_key(&sp, &pairs[p], s.name(), &core))
        })
        .collect();
    for key in &keys {
        r.layers.time("support.cache.estimate", || cache.estimate_cost(key));
    }
    let mut results = Vec::with_capacity(jobs.len());
    for (&(pair, scheme), key) in jobs.iter().zip(&keys) {
        let label = cellcache::cell_label(scheme.name(), 0, pair);
        if r.layers.time("support.cache.lookup", || cache.lookup(&label, key)).is_some() {
            r.failures.push(format!("replay: disabled cache hit {label}"));
        }
        let started = Instant::now();
        let Some([a, b]) = record_pair(r, &sp, &pairs[pair], scheme) else { continue };
        r.record_s += started.elapsed().as_secs_f64();
        let diverged: Vec<Option<Divergence>> = r
            .layers
            .time("nisec.diff", || Observer::ALL.iter().map(|&o| diff(o, &a, &b)).collect());
        r.layers.time("support.cache.store", || {
            cache.store(
                &label,
                key,
                &cellcache::diverged_to_json(&diverged),
                started.elapsed().as_nanos() as u64,
            )
        });
        results.push(CellResult { scheme, program: 0, pair, diverged });
    }
    results
}

/// The traced run: iterations of [`BATCH`] passes, each pass run through
/// `fuzz` and through the composed replay, whose verdicts must match.
pub fn traced(run_seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    out.note(format!("seed = {run_seed} ({run_seed:#x})"));
    let seeds = timed_setup(run_seed, &mut out, &mut HostClock::start());
    let batch: Vec<u64> = seeds.iter().cycle().take(BATCH).copied().collect();
    let disabled = Cache::disabled();
    let mut iterations = Vec::new();
    let start = Instant::now();
    while iterations.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut rep = Replay::default();
        let (mut fuzz_s, mut replay_s) = (0.0, 0.0);
        let (mut misses, mut hits, mut stores) = (0, 0, 0);
        for &seed in &batch {
            let (wall, report) = run_pass(seed);
            fuzz_s += wall;
            let c = cellcache::report();
            (misses, hits, stores) = (misses + c.misses, hits + c.hits, stores + c.stores);
            let t = Instant::now();
            let composed = replay(seed, &disabled, &mut rep);
            replay_s += t.elapsed().as_secs_f64();
            match report {
                Ok(report) => {
                    out.tally.record(judge(&report));
                    if composed != report.results {
                        out.fail_run(format!(
                            "reconcile: composed stages disagree with fuzz at seed {seed:#x}"
                        ));
                    }
                }
                Err(e) => out.tally.record(vec![e]),
            }
        }
        for f in rep.failures.drain(..) {
            out.fail_run(f);
        }
        let mut m = Metrics::default();
        let l = &rep.layers;
        let per_pass = BATCH as f64;
        rep.sims.push_ns_per_cycle(&mut m, &crate::check::RUN_SCHEMES);
        m.push("uarch.busy_s", (l.secs("uarch.new") + rep.sims.secs()) / per_pass, "s");
        m.push("uarch.new_us", l.per_call("uarch.new") * 1e6, "us");
        m.push("uarch.sim_cycles", rep.sims.total_cycles as f64, "count");
        m.push("uarch.sim_kinstr", rep.sims.committed as f64 / 1e3, "kinstr");
        m.push("uarch.ipc", ratio(rep.sims.committed, rep.sims.total_cycles), "instr/cycle");
        m.push("support.cache.lookup_us", l.per_call("support.cache.lookup") * 1e6, "us");
        m.push("support.cache.estimate_us", l.per_call("support.cache.estimate") * 1e6, "us");
        m.push("support.cache.store_us", l.per_call("support.cache.store") * 1e6, "us");
        m.push("support.cache.hits", hits as f64, "count");
        m.push("support.cache.misses", misses as f64, "count");
        m.push("support.cache.stores", stores as f64, "count");
        m.push("compiler.annotate_us", l.per_call("compiler.annotate") * 1e6, "us");
        m.push("compiler.annotate_calls", l.calls("compiler.annotate") as f64, "count");
        m.push("nisec.gen_us", l.per_call("nisec.gen") * 1e6, "us");
        m.push("nisec.cell_key_us", l.per_call("nisec.cell_key") * 1e6, "us");
        m.push("nisec.record_ms", rep.record_s * 1e3 / per_pass, "ms");
        m.push("nisec.trace_events", rep.events as f64, "count");
        m.push("nisec.diff_ms", l.secs("nisec.diff") * 1e3 / per_pass, "ms");
        m.push("sim_kinstr_per_s", rep.sims.committed as f64 / 1e3 / fuzz_s, "kinstr/s");
        m.push("trace_overhead_frac", replay_s / fuzz_s - 1.0, "ratio");
        // Annotation, `Simulator::new` and the runs nest in the record stage.
        let nested = l.secs("compiler.annotate") + l.secs("uarch.new");
        let attributed = l.total_secs() - nested + rep.record_s;
        m.push("unattributed_frac", 1.0 - attributed / fuzz_s, "ratio");
        iterations.push(m);
    }
    out.per_layer = crate::median_metrics(&iterations);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_fires() {
        assert!(self_test());
    }

    #[test]
    fn seeds_are_a_pure_function_of_the_run_seed() {
        assert_eq!(pass_seeds(7, 4), pass_seeds(7, 4));
        assert_ne!(pass_seeds(7, 4), pass_seeds(8, 4));
    }

    #[test]
    fn composed_stages_reproduce_fuzz() {
        let seed = pass_seeds(levioso_nisec::DEFAULT_SEED, 1)[0];
        cellcache::configure(Cache::disabled());
        let report = fuzz(&campaign(seed), &Scheme::ALL);
        let mut r = Replay::default();
        assert_eq!(replay(seed, &Cache::disabled(), &mut r), report.results);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.layers.calls("compiler.annotate"), 2 * (PAIRS * Scheme::ALL.len()) as u64);
        assert!(judge(&report).is_empty());
    }
}
