//! # ssmp-machine
//!
//! The whole-machine simulator: per-node processors, caches, write buffers
//! and lock caches; the Ω network; distributed memory modules hosting the
//! central directories; and all four protocol families (reader-initiated
//! coherence, write-back invalidate, cache-based locks, hardware and
//! software barriers) wired together under a configurable consistency
//! model.
//!
//! A [`Machine`] executes a [`Workload`] — a per-node stream of abstract
//! operations ([`Op`]) — to completion and reports cycle-accurate timing
//! and message counts. The configuration matrix mirrors the paper's
//! evaluation:
//!
//! | Paper curve | [`MachineConfig`] |
//! |---|---|
//! | `WBI` | data WBI, TTS spin lock, software barrier, SC |
//! | `Q-backoff` | data WBI, TTS + exponential backoff, software barrier, SC |
//! | `CBL` | data WBI, CBL lock, hardware barrier, SC |
//! | `SC-CBL` | data RIC, CBL lock, hardware barrier, SC |
//! | `BC-CBL` | data RIC, CBL lock, hardware barrier, BC |

#![warn(missing_docs)]

pub mod asm;
pub mod config;
pub mod machine;
pub mod node;
pub mod op;
pub mod report;

pub use config::{
    BarrierScheme, ConfigError, DataScheme, LockScheme, MachineConfig, PlantedBug, PrivateMode,
    RetryPolicy,
};
pub use machine::{Machine, MachineBuilder};
pub use op::{LockId, Op, Workload};
pub use report::{DeadlockReport, LockDiag, Report, RicDiag, StalledNode};
pub use ssmp_check::{LineSummary, ViolationReport};
