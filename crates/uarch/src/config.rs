//! Core and memory-hierarchy configuration (the paper's Table 1).

use crate::specmask::SPEC_MASK_BITS;
use std::fmt;

/// Largest supported reorder buffer: the speculation masks need two slots
/// per ROB entry (see [`crate::specmask`]).
pub const MAX_ROB_SIZE: usize = SPEC_MASK_BITS / 2;

/// A configuration the core cannot simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The ROB size is outside `1..=MAX_ROB_SIZE`.
    RobSize {
        /// The requested size.
        rob_size: usize,
    },
    /// A width, queue size or unit count is zero, so the pipeline could
    /// never make progress.
    Zero {
        /// The offending [`CoreConfig`] field.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RobSize { rob_size } => write!(
                f,
                "ROB size {rob_size} is out of range: supported sizes are 1..={MAX_ROB_SIZE} \
                 (the speculation masks hold {SPEC_MASK_BITS} slots, two per ROB entry)"
            ),
            ConfigError::Zero { field } => write!(f, "{field} is 0; it must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Out-of-order core configuration.
///
/// The default mirrors the class of gem5 configuration the paper evaluates
/// on: an aggressive 8-wide core with a 224-entry reorder buffer and a
/// three-level memory hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Issue-queue entries (instructions dispatched but not yet issued).
    pub iq_size: usize,
    /// Load-queue entries.
    pub lq_size: usize,
    /// Store-queue entries.
    pub sq_size: usize,
    /// Simple-ALU count (1-cycle ops).
    pub alu_count: usize,
    /// Multiplier count.
    pub mul_count: usize,
    /// Divider count.
    pub div_count: usize,
    /// Miss-status-holding registers: maximum outstanding demand misses.
    pub mshr_count: usize,
    /// Load ports (loads issued per cycle).
    pub load_ports: usize,
    /// Store ports (store address/data computations per cycle).
    pub store_ports: usize,
    /// Multiply latency in cycles.
    pub mul_latency: u64,
    /// Divide latency in cycles.
    pub div_latency: u64,
    /// Front-end refill penalty after a control misprediction, in cycles.
    pub redirect_penalty: u64,
    /// Branch predictor configuration.
    pub predictor: PredictorConfig,
    /// Cache hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Hard safety limit on simulated cycles.
    pub max_cycles: u64,
}

impl CoreConfig {
    /// The default (Table 1) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks that the core can simulate this configuration: the ROB size
    /// is in `1..=MAX_ROB_SIZE`, and no width, queue or unit count is zero
    /// (the pipeline would stall forever).
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=MAX_ROB_SIZE).contains(&self.rob_size) {
            return Err(ConfigError::RobSize { rob_size: self.rob_size });
        }
        let counts = [
            ("fetch_width", self.fetch_width),
            ("dispatch_width", self.dispatch_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("iq_size", self.iq_size),
            ("lq_size", self.lq_size),
            ("sq_size", self.sq_size),
            ("alu_count", self.alu_count),
            ("mul_count", self.mul_count),
            ("div_count", self.div_count),
            ("mshr_count", self.mshr_count),
            ("load_ports", self.load_ports),
            ("store_ports", self.store_ports),
        ];
        match counts.iter().find(|(_, n)| *n == 0) {
            Some(&(field, _)) => Err(ConfigError::Zero { field }),
            None => Ok(()),
        }
    }

    /// Returns the configuration with a different reorder-buffer size,
    /// scaling the issue/load/store queues proportionally (used by the ROB
    /// sensitivity sweep, F4).
    pub fn with_rob_size(mut self, rob: usize) -> Self {
        let scale = rob as f64 / 224.0;
        self.rob_size = rob;
        self.iq_size = ((96.0 * scale) as usize).max(8);
        self.lq_size = ((72.0 * scale) as usize).max(8);
        self.sq_size = ((56.0 * scale) as usize).max(8);
        self
    }

    /// Returns the configuration with a different DRAM latency (used by the
    /// memory-latency sensitivity sweep, F5).
    pub fn with_dram_latency(mut self, latency: u64) -> Self {
        self.hierarchy.dram_latency = latency;
        self
    }

    /// Renders the configuration as the rows of the paper's Table 1.
    pub fn table_rows(&self) -> Vec<(String, String)> {
        vec![
            ("Pipeline width".into(), format!("{}-wide fetch/commit", self.fetch_width)),
            (
                "ROB / IQ / LQ / SQ".into(),
                format!(
                    "{} / {} / {} / {}",
                    self.rob_size, self.iq_size, self.lq_size, self.sq_size
                ),
            ),
            (
                "Functional units".into(),
                format!(
                    "{} ALU (1 cy), {} MUL ({} cy), {} DIV ({} cy), {} LD + {} ST ports, {} MSHRs",
                    self.alu_count,
                    self.mul_count,
                    self.mul_latency,
                    self.div_count,
                    self.div_latency,
                    self.load_ports,
                    self.store_ports,
                    self.mshr_count
                ),
            ),
            (
                "Branch predictor".into(),
                format!(
                    "gshare {}-bit history, {}-entry BTB, {}-entry RAS, {}-cycle redirect",
                    self.predictor.gshare_history_bits,
                    self.predictor.btb_entries,
                    self.predictor.ras_entries,
                    self.redirect_penalty
                ),
            ),
            (
                "L1D".into(),
                format!(
                    "{} KiB, {}-way, {} B lines, {} cy",
                    self.hierarchy.l1d.size_bytes / 1024,
                    self.hierarchy.l1d.assoc,
                    self.hierarchy.l1d.line_bytes,
                    self.hierarchy.l1d.hit_latency
                ),
            ),
            (
                "L2".into(),
                format!(
                    "{} KiB, {}-way, {} B lines, {} cy",
                    self.hierarchy.l2.size_bytes / 1024,
                    self.hierarchy.l2.assoc,
                    self.hierarchy.l2.line_bytes,
                    self.hierarchy.l2.hit_latency
                ),
            ),
            ("DRAM".into(), format!("{} cy", self.hierarchy.dram_latency)),
        ]
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_size: 224,
            iq_size: 96,
            lq_size: 72,
            sq_size: 56,
            alu_count: 6,
            mul_count: 2,
            div_count: 1,
            mshr_count: 16,
            load_ports: 2,
            store_ports: 1,
            mul_latency: 3,
            div_latency: 20,
            redirect_penalty: 15,
            predictor: PredictorConfig::default(),
            hierarchy: HierarchyConfig::default(),
            max_cycles: 500_000_000,
        }
    }
}

/// Branch predictor configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Bits of global history (gshare table has `2^bits` counters).
    pub gshare_history_bits: u32,
    /// Entries in the indirect-target buffer (power of two).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig { gshare_history_bits: 14, btb_entries: 4096, ras_entries: 32 }
    }
}

/// One cache level's parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

/// Cache hierarchy parameters (L1D + unified L2 + flat DRAM latency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Level-1 data cache.
    pub l1d: CacheConfig,
    /// Unified level-2 cache.
    pub l2: CacheConfig,
    /// Latency of an access that misses everywhere, in cycles.
    pub dram_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1d: CacheConfig { size_bytes: 32 * 1024, assoc: 8, line_bytes: 64, hit_latency: 4 },
            l2: CacheConfig { size_bytes: 1024 * 1024, assoc: 16, line_bytes: 64, hit_latency: 14 },
            dram_latency: 120,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CoreConfig::default();
        assert_eq!(c.rob_size, 224);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.hierarchy.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.table_rows().len(), 7);
    }

    #[test]
    fn rob_sweep_scales_queues() {
        let c = CoreConfig::default().with_rob_size(448);
        assert_eq!(c.rob_size, 448);
        assert_eq!(c.iq_size, 192);
        let tiny = CoreConfig::default().with_rob_size(16);
        assert!(tiny.iq_size >= 8);
    }

    #[test]
    fn validate_rejects_unsimulatable_configs() {
        assert_eq!(CoreConfig::default().validate(), Ok(()));
        assert_eq!(CoreConfig::default().with_rob_size(MAX_ROB_SIZE).validate(), Ok(()));
        for rob in [0, MAX_ROB_SIZE + 1, 600] {
            let err = CoreConfig::default().with_rob_size(rob).validate().unwrap_err();
            assert_eq!(err, ConfigError::RobSize { rob_size: rob });
            assert!(err.to_string().contains("1..=512"), "message names the limit: {err}");
        }
        let c = CoreConfig { load_ports: 0, ..CoreConfig::default() };
        assert_eq!(c.validate(), Err(ConfigError::Zero { field: "load_ports" }));
    }

    #[test]
    fn dram_sweep() {
        let c = CoreConfig::default().with_dram_latency(300);
        assert_eq!(c.hierarchy.dram_latency, 300);
    }
}
