//! Timing and reporting primitives: order statistics, per-layer timers,
//! peak memory, and the metric list a run prints.

use levioso_core::Scheme;
use levioso_uarch::{SimStats, Simulator};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of the sorted sample
/// (indices `n/4 ..= n-1-n/4`); 0 when empty.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank quantile `q` in `(0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accumulated busy time and call count per named layer operation.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    ops: BTreeMap<&'static str, (Duration, u64)>,
}

impl Layers {
    /// Runs `f`, charging its wall time and one call to `op`.
    pub fn time<R>(&mut self, op: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(op, start.elapsed(), 1);
        out
    }

    /// Charges `busy` and `calls` to `op`.
    pub fn add(&mut self, op: &'static str, busy: Duration, calls: u64) {
        let e = self.ops.entry(op).or_default();
        e.0 += busy;
        e.1 += calls;
    }

    /// Total busy seconds charged to `op`.
    pub fn secs(&self, op: &str) -> f64 {
        self.ops.get(op).map_or(0.0, |e| e.0.as_secs_f64())
    }

    /// Calls charged to `op`.
    pub fn calls(&self, op: &str) -> u64 {
        self.ops.get(op).map_or(0, |e| e.1)
    }

    /// Mean seconds per call of `op` (0 when never called).
    pub fn per_call(&self, op: &str) -> f64 {
        match self.calls(op) {
            0 => 0.0,
            n => self.secs(op) / n as f64,
        }
    }

    /// Busy seconds summed over every op.
    pub fn total_secs(&self) -> f64 {
        self.ops.values().map(|e| e.0.as_secs_f64()).sum()
    }
}

/// Simulation time and simulated work per scheme, from a replay.
#[derive(Debug, Default)]
pub struct Sims {
    time: Layers,
    cycles: BTreeMap<&'static str, u64>,
    /// Simulated cycles over all schemes.
    pub total_cycles: u64,
    /// Committed instructions over all schemes.
    pub committed: u64,
}

impl Sims {
    /// Runs `sim` to completion under `scheme`, charging the run time and
    /// the simulated work to the scheme; `None` if the simulation fails.
    pub fn run(&mut self, sim: &mut Simulator<'_>, scheme: Scheme) -> Option<SimStats> {
        let policy = scheme.policy();
        let start = Instant::now();
        let result = sim.run(policy.as_ref());
        self.time.add(scheme.name(), start.elapsed(), 1);
        let stats = result.ok()?;
        *self.cycles.entry(scheme.name()).or_default() += stats.cycles;
        self.total_cycles += stats.cycles;
        self.committed += stats.committed;
        Some(stats)
    }

    /// Seconds spent in `Simulator::run`, over all schemes.
    pub fn secs(&self) -> f64 {
        self.time.total_secs()
    }

    /// Pushes `uarch.run_ns_per_cycle.<scheme>` for each of `schemes` (0
    /// for a scheme that did not run).
    pub fn push_ns_per_cycle(&self, m: &mut Metrics, schemes: &[Scheme]) {
        for s in schemes {
            let cycles = self.cycles.get(s.name()).copied().unwrap_or(0);
            let ns = if cycles == 0 { 0.0 } else { self.time.secs(s.name()) * 1e9 / cycles as f64 };
            m.push(format!("uarch.run_ns_per_cycle.{}", s.name()), ns, "ns");
        }
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Ordered metric list with a terse push helper.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Probe time of the reference host: scaled times read as seconds on a
/// host where one [`probe`] takes this long.
pub const PROBE_REF_S: f64 = 0.010;

/// Minimum spacing of host-speed samples between passes.
const PROBE_EVERY_S: f64 = 1.0;

/// Seconds one fixed, benchmark-owned integer workload takes: a
/// table-driven state machine with data-dependent branches, loads and
/// stores over a 64 KiB table. It calls nothing in the program, so it
/// measures the host's speed at the moment, not the program's.
pub fn probe() -> f64 {
    const WORDS: usize = 1 << 14;
    let mut table: Vec<u32> = (0..WORDS as u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    let start = Instant::now();
    let (mut state, mut acc) = (0x2545_f491u32, 0u64);
    for step in 0..1_000_000u32 {
        let idx = state as usize & (WORDS - 1);
        let v = table[idx];
        match v & 3 {
            0 => acc = acc.wrapping_add(u64::from(v)),
            1 => acc ^= u64::from(v) << 7,
            2 => table[idx] = v.rotate_left(5) ^ step,
            _ => acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
        state ^= v ^ (state << 13);
        state ^= state >> 17;
        state ^= state << 5;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// A run's clock: host speed sampled with [`probe`] between timed
/// sections, so each section's wall time can be scaled to the reference
/// host speed. The host this runs on shares its cores; its speed drifts by
/// tens of percent over seconds to minutes, for every program alike.
#[derive(Debug)]
pub struct HostClock {
    start: Instant,
    /// `(seconds since start, probe seconds)`, in time order.
    probes: Vec<(f64, f64)>,
    /// `(seconds since start, wall seconds)` of each timed section.
    sections: Vec<(f64, f64)>,
}

impl HostClock {
    /// Starts the clock with one host-speed sample.
    pub fn start() -> HostClock {
        let mut clock =
            HostClock { start: Instant::now(), probes: Vec::new(), sections: Vec::new() };
        clock.sample();
        clock
    }

    /// Seconds since the clock started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn sample(&mut self) {
        let secs = median(&[probe(), probe(), probe()]);
        self.probes.push((self.elapsed(), secs));
    }

    /// Runs `f` as one timed section, sampling host speed first if a
    /// second has passed since the last sample. Returns `f`'s result and
    /// its wall seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        if self.elapsed() - self.probes.last().map_or(f64::MIN, |p| p.0) >= PROBE_EVERY_S {
            self.sample();
        }
        let begin = self.elapsed();
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        self.sections.push((begin, wall));
        (out, wall)
    }

    /// Ends the run with a last host-speed sample and returns the wall
    /// seconds of every section since the previous call to `finish`, each
    /// scaled by the mean of the samples just before and just after it.
    pub fn finish(&mut self) -> Vec<f64> {
        self.sample();
        let scaled = self
            .sections
            .iter()
            .map(|&(begin, wall)| {
                let before = self.probes.iter().rev().find(|p| p.0 <= begin);
                let after = self.probes.iter().find(|p| p.0 > begin);
                let host = match (before, after) {
                    (Some(b), Some(a)) => (b.1 + a.1) / 2.0,
                    (Some(p), None) | (None, Some(p)) => p.1,
                    (None, None) => PROBE_REF_S,
                };
                wall * PROBE_REF_S / host
            })
            .collect();
        self.sections.clear();
        scaled
    }

    /// Median host probe time so far.
    pub fn probe_median(&self) -> f64 {
        median(&self.probes.iter().map(|p| p.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(quantile(&[5.0], 0.95), 5.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 4.0, 0.0]), 3.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn layers_accumulate_per_op() {
        let mut l = Layers::default();
        l.add("a", Duration::from_millis(3), 1);
        l.add("a", Duration::from_millis(1), 1);
        assert_eq!(l.calls("a"), 2);
        assert!((l.per_call("a") - 0.002).abs() < 1e-12);
        assert_eq!(l.per_call("b"), 0.0);
        assert_eq!(l.time("b", || 7), 7);
        assert_eq!(l.calls("b"), 1);
    }
}
