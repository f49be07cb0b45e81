//! Machine configuration: the evaluation matrix of the paper.

use ssmp_core::addr::Geometry;
use ssmp_core::consistency::MemoryModel;
use ssmp_engine::Cycle;
use ssmp_mem::{ExactPrivateParams, MemTiming};
use ssmp_net::{FaultConfig, NetConfig, NetError, Topology};

/// A rejected machine configuration. Returned by
/// [`MachineConfig::validate`] so callers (the CLI in particular) can
/// report the problem instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Buffered consistency needs RIC's `WRITE-GLOBAL` path.
    BufferedNeedsRic,
    /// `private_hit_ratio` must lie in `[0, 1]`.
    HitRatioOutOfRange(f64),
    /// The per-node lock cache needs at least one entry.
    EmptyLockCache,
    /// A fault-injection probability is out of range (field name given).
    FaultProbability(&'static str),
    /// The retry timeout must be at least one cycle.
    ZeroRetryTimeout,
    /// Bounded retry needs at least one attempt.
    ZeroRetryAttempts,
    /// The interconnect geometry is invalid for the chosen topology.
    Net(NetError),
    /// [`crate::MachineBuilder::build`] was called without a workload.
    MissingWorkload,
    /// The workload is sized for a different machine (workload nodes,
    /// machine nodes).
    WorkloadNodes(usize, usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BufferedNeedsRic => write!(
                f,
                "buffered consistency requires the WRITE-GLOBAL path (DataScheme::Ric)"
            ),
            ConfigError::HitRatioOutOfRange(r) => write!(f, "hit ratio out of range: {r}"),
            ConfigError::EmptyLockCache => write!(f, "lock cache needs at least one entry"),
            ConfigError::FaultProbability(which) => {
                write!(f, "fault probability out of range: {which}")
            }
            ConfigError::ZeroRetryTimeout => write!(f, "retry timeout must be at least 1 cycle"),
            ConfigError::ZeroRetryAttempts => write!(f, "retry needs at least one attempt"),
            ConfigError::Net(e) => write!(f, "{e}"),
            ConfigError::MissingWorkload => {
                write!(f, "machine builder needs a workload before build()")
            }
            ConfigError::WorkloadNodes(w, m) => {
                write!(f, "workload sized for {w} nodes on a {m}-node machine")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<NetError> for ConfigError {
    fn from(e: NetError) -> Self {
        ConfigError::Net(e)
    }
}

/// Timeout-and-bounded-retry policy for outstanding protocol requests.
///
/// When enabled, a node that stalls on a protocol request arms a timeout;
/// if the reply has not arrived when it fires, the original messages are
/// retransmitted (at most `max_attempts` sends in total, spaced by the
/// timeout plus a randomized exponential backoff). Retransmissions reuse
/// the original wire ids, and delivery deduplicates by wire id, so a
/// retransmitted message that merely overtook a slow original is harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Master switch; off by default (the paper's machine assumes a
    /// reliable interconnect).
    pub enabled: bool,
    /// Cycles to wait for a reply before retransmitting.
    pub timeout: Cycle,
    /// Total send attempts per request (first send included).
    pub max_attempts: u32,
    /// Initial window of the retransmit backoff.
    pub backoff_base: Cycle,
    /// Window cap of the retransmit backoff.
    pub backoff_cap: Cycle,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            timeout: 10_000,
            max_attempts: 6,
            backoff_base: 16,
            backoff_cap: 4096,
        }
    }
}

impl RetryPolicy {
    /// An enabled policy with the default timing.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Coherence scheme for ordinary shared data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataScheme {
    /// Reader-initiated coherence (the paper's proposal, §4.1).
    Ric,
    /// Write-back invalidate directory protocol (the baseline).
    Wbi,
    /// Snooping MESI: write-invalidate with broadcast snoops — every
    /// write transaction interrogates every other cache (protocol zoo).
    Mesi,
    /// Dragon: write-update — stores to shared lines multicast the new
    /// word to every cached copy instead of invalidating (protocol zoo).
    Dragon,
}

impl DataScheme {
    /// The stable protocol token (`--protocol` values, report field).
    pub fn name(self) -> &'static str {
        match self {
            DataScheme::Ric => "ric",
            DataScheme::Wbi => "wbi",
            DataScheme::Mesi => "mesi",
            DataScheme::Dragon => "dragon",
        }
    }
}

/// Lock implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockScheme {
    /// Cache-based locks (the paper's proposal, §4.3).
    Cbl,
    /// Software test-and-test-and-set spinning on the cached copy.
    Tts,
    /// TTS with randomized exponential backoff (`Q-backoff`).
    TtsBackoff,
}

/// Barrier implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierScheme {
    /// Hardware barrier at the directory with a chained release (Table 3).
    Hw,
    /// Software sense-reversing counter barrier over the lock scheme.
    Sw,
}

/// How private references are modelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrivateMode {
    /// Table 4's assumed hit ratio (Archibald-&-Baer style).
    Probabilistic,
    /// A real per-node direct-mapped cache over a synthetic working set:
    /// the hit ratio emerges from locality (ablation A6).
    Exact(ExactPrivateParams),
}

/// A deliberately planted protocol bug, selectable per machine. Exists so
/// the chaos fuzzer (and CI) can prove end-to-end that the sanitizer
/// detects a real protocol break and that the shrinker reduces it to a
/// minimal reproducer. Never enabled by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// Skip wire-id deduplication for CBL messages: a duplicated lock
    /// message is processed twice at its destination, breaking the
    /// exactly-once delivery contract the queue protocol relies on.
    CblDedupSkip,
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Nodes / block size / shared-block count.
    pub geometry: Geometry,
    /// Coherence scheme for shared data blocks.
    pub data: DataScheme,
    /// Lock scheme.
    pub locks: LockScheme,
    /// Barrier scheme.
    pub barrier: BarrierScheme,
    /// Memory consistency model.
    pub model: MemoryModel,
    /// Network timing.
    pub net: NetConfig,
    /// Interconnect topology (the paper's Ω network by default).
    pub topology: Topology,
    /// Memory-module timing.
    pub mem: MemTiming,
    /// Lock-cache capacity per node (paper §4.3: small, fully associative).
    pub lock_cache_capacity: usize,
    /// Write-buffer capacity (`None` = infinite, the paper's assumption).
    pub write_buffer_capacity: Option<usize>,
    /// Probability that a private miss evicts a dirty victim.
    pub private_dirty_victim: f64,
    /// Private-reference hit ratio (Table 4: 0.95).
    pub private_hit_ratio: f64,
    /// Private-reference modelling mode.
    pub private_mode: PrivateMode,
    /// Hardware-barrier release as a binary tree (O(log n) notify depth)
    /// instead of the paper's linear chain — ablation A9.
    pub hw_tree_barrier: bool,
    /// Enable the MESI exclusive-clean extension on the WBI baseline
    /// (sole readers get silently-upgradeable copies — ablation A8).
    pub wbi_mesi: bool,
    /// Directory sharer limit for the WBI baseline (`None` = full map;
    /// `Some(i)` = a `Dir_i` limited directory that evicts on overflow —
    /// ablation A7, the §4.1 design-space contrast).
    pub wbi_sharer_limit: Option<usize>,
    /// Record every shared-read value into the report's `read_log`
    /// (memory-ordering litmus tests; off for performance runs).
    pub record_reads: bool,
    /// Master seed (forked per node).
    pub seed: u64,
    /// Cycle budget: if the simulation runs past this, the watchdog ends
    /// it with a [`crate::DeadlockReport`] instead of completing.
    pub max_cycles: u64,
    /// Interconnect fault injection (`None` = reliable network).
    pub fault: Option<FaultConfig>,
    /// Protocol-request timeout and bounded retry.
    pub retry: RetryPolicy,
    /// Sample machine gauges (network occupancy, write-buffer depth, CBL
    /// queue lengths, RIC list sizes, per-cause stall counts) every this
    /// many cycles into the report's `metrics` series (`None` = off).
    pub metrics_interval: Option<Cycle>,
    /// Deliberately planted protocol bug (`None` = correct protocol).
    /// Only the fuzzer's self-test and CI regression arm this.
    pub planted_bug: Option<PlantedBug>,
}

impl MachineConfig {
    /// The paper's Table 4 baseline at `nodes` processors, in the given
    /// scheme combination.
    pub fn paper(
        nodes: usize,
        data: DataScheme,
        locks: LockScheme,
        barrier: BarrierScheme,
        model: MemoryModel,
    ) -> Self {
        Self {
            geometry: Geometry::paper(nodes),
            data,
            locks,
            barrier,
            model,
            net: NetConfig::default(),
            topology: Topology::Omega,
            mem: MemTiming::default(),
            lock_cache_capacity: 8,
            write_buffer_capacity: None,
            private_dirty_victim: 0.3,
            private_hit_ratio: 0.95,
            private_mode: PrivateMode::Probabilistic,
            wbi_sharer_limit: None,
            hw_tree_barrier: false,
            wbi_mesi: false,
            record_reads: false,
            seed: 0x5511_9a3e,
            max_cycles: 2_000_000_000,
            fault: None,
            retry: RetryPolicy::default(),
            metrics_interval: None,
            planted_bug: None,
        }
    }

    /// The paper's `WBI` curve: invalidate protocol + TTS + software
    /// barrier under sequential consistency.
    pub fn wbi(nodes: usize) -> Self {
        Self::paper(
            nodes,
            DataScheme::Wbi,
            LockScheme::Tts,
            BarrierScheme::Sw,
            MemoryModel::Sequential,
        )
    }

    /// The paper's `Q-backoff` curve.
    pub fn wbi_backoff(nodes: usize) -> Self {
        Self::paper(
            nodes,
            DataScheme::Wbi,
            LockScheme::TtsBackoff,
            BarrierScheme::Sw,
            MemoryModel::Sequential,
        )
    }

    /// The `ric` protocol preset: reader-initiated coherence on the same
    /// software-synchronization substrate as [`MachineConfig::wbi`], so
    /// `--protocol` comparisons vary only the data-coherence backend.
    pub fn ric(nodes: usize) -> Self {
        Self::paper(
            nodes,
            DataScheme::Ric,
            LockScheme::Tts,
            BarrierScheme::Sw,
            MemoryModel::Sequential,
        )
    }

    /// The `mesi` protocol preset: snooping write-invalidate coherence on
    /// the [`MachineConfig::wbi`] synchronization substrate.
    pub fn mesi(nodes: usize) -> Self {
        Self::paper(
            nodes,
            DataScheme::Mesi,
            LockScheme::Tts,
            BarrierScheme::Sw,
            MemoryModel::Sequential,
        )
    }

    /// The `dragon` protocol preset: write-update coherence on the
    /// [`MachineConfig::wbi`] synchronization substrate.
    pub fn dragon(nodes: usize) -> Self {
        Self::paper(
            nodes,
            DataScheme::Dragon,
            LockScheme::Tts,
            BarrierScheme::Sw,
            MemoryModel::Sequential,
        )
    }

    /// The paper's `CBL` curve (Figs. 4–5): hardware locks and barriers,
    /// invalidate data coherence, sequential consistency.
    pub fn cbl(nodes: usize) -> Self {
        Self::paper(
            nodes,
            DataScheme::Wbi,
            LockScheme::Cbl,
            BarrierScheme::Hw,
            MemoryModel::Sequential,
        )
    }

    /// `SC-CBL` (Figs. 6–7): the full proposed architecture under
    /// sequential consistency.
    pub fn sc_cbl(nodes: usize) -> Self {
        Self::paper(
            nodes,
            DataScheme::Ric,
            LockScheme::Cbl,
            BarrierScheme::Hw,
            MemoryModel::Sequential,
        )
    }

    /// `BC-CBL` (Figs. 6–7): the full proposed architecture under buffered
    /// consistency.
    pub fn bc_cbl(nodes: usize) -> Self {
        Self::paper(
            nodes,
            DataScheme::Ric,
            LockScheme::Cbl,
            BarrierScheme::Hw,
            MemoryModel::Buffered,
        )
    }

    /// Validates cross-field constraints.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.model == MemoryModel::Buffered && self.data != DataScheme::Ric {
            return Err(ConfigError::BufferedNeedsRic);
        }
        if !(0.0..=1.0).contains(&self.private_hit_ratio) {
            return Err(ConfigError::HitRatioOutOfRange(self.private_hit_ratio));
        }
        if self.lock_cache_capacity == 0 {
            return Err(ConfigError::EmptyLockCache);
        }
        if let Some(fault) = &self.fault {
            fault.validate().map_err(ConfigError::FaultProbability)?;
        }
        if self.retry.enabled {
            if self.retry.timeout == 0 {
                return Err(ConfigError::ZeroRetryTimeout);
            }
            if self.retry.max_attempts == 0 {
                return Err(ConfigError::ZeroRetryAttempts);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            MachineConfig::wbi(8),
            MachineConfig::wbi_backoff(8),
            MachineConfig::cbl(8),
            MachineConfig::sc_cbl(8),
            MachineConfig::bc_cbl(8),
            MachineConfig::ric(8),
            MachineConfig::mesi(8),
            MachineConfig::dragon(8),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn protocol_names_are_stable() {
        assert_eq!(DataScheme::Ric.name(), "ric");
        assert_eq!(DataScheme::Wbi.name(), "wbi");
        assert_eq!(DataScheme::Mesi.name(), "mesi");
        assert_eq!(DataScheme::Dragon.name(), "dragon");
        // protocol presets differ only in the data scheme
        for cfg in [
            MachineConfig::ric(8),
            MachineConfig::mesi(8),
            MachineConfig::dragon(8),
        ] {
            assert_eq!(cfg.locks, LockScheme::Tts);
            assert_eq!(cfg.barrier, BarrierScheme::Sw);
            assert_eq!(cfg.model, MemoryModel::Sequential);
        }
    }

    #[test]
    fn bc_requires_ric() {
        let mut cfg = MachineConfig::bc_cbl(4);
        cfg.data = DataScheme::Wbi;
        assert_eq!(cfg.validate(), Err(ConfigError::BufferedNeedsRic));
    }

    #[test]
    fn bad_fault_and_retry_settings_rejected() {
        let mut cfg = MachineConfig::wbi(4);
        cfg.fault = Some(FaultConfig::uniform(1, 1.5, 0.0, 0.0));
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::FaultProbability("drop_prob"))
        );
        cfg.fault = None;
        cfg.retry = RetryPolicy::enabled();
        cfg.retry.timeout = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroRetryTimeout));
        cfg.retry = RetryPolicy::enabled();
        cfg.retry.max_attempts = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroRetryAttempts));
        cfg.retry = RetryPolicy::enabled();
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn config_errors_render() {
        // The CLI prints these; make sure every variant has a message.
        for e in [
            ConfigError::BufferedNeedsRic,
            ConfigError::HitRatioOutOfRange(1.5),
            ConfigError::EmptyLockCache,
            ConfigError::FaultProbability("dup_prob"),
            ConfigError::ZeroRetryTimeout,
            ConfigError::ZeroRetryAttempts,
            ConfigError::Net(ssmp_net::NetError::NoPorts),
            ConfigError::MissingWorkload,
            ConfigError::WorkloadNodes(4, 8),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn preset_matrix_matches_paper() {
        let wbi = MachineConfig::wbi(16);
        assert_eq!(wbi.data, DataScheme::Wbi);
        assert_eq!(wbi.locks, LockScheme::Tts);
        assert_eq!(wbi.barrier, BarrierScheme::Sw);
        let bc = MachineConfig::bc_cbl(16);
        assert_eq!(bc.data, DataScheme::Ric);
        assert_eq!(bc.locks, LockScheme::Cbl);
        assert_eq!(bc.model, ssmp_core::consistency::MemoryModel::Buffered);
    }
}
