//! # ssmp-engine
//!
//! Deterministic discrete-event simulation (DES) kernel used by every other
//! crate in the `ssmp` workspace.
//!
//! The kernel is deliberately small and completely deterministic:
//!
//! * [`WheelQueue`] — a timing-wheel event queue with FIFO tie-breaking,
//!   so two events scheduled for the same cycle always pop in the order they
//!   were pushed. This is what makes whole-machine simulations bit-for-bit
//!   reproducible from a seed.
//! * [`SimRng`] — a sealed xoshiro256++ pseudo-random generator (seeded via
//!   splitmix64) with the handful of distributions the workload models need.
//!   We implement it here rather than depending on an external crate so that
//!   a given seed produces the same reference stream forever, independent of
//!   dependency upgrades.
//! * [`stats`] — cheap counters and power-of-two histograms
//!   used for the paper's metrics (completion time, message counts, lock
//!   wait times, ...).
//! * [`IdMap`] — a dense table keyed by the machine's 1-based wire and
//!   transaction ids, bounded for ids read from a file; the observer folds
//!   keep their per-id state in it.
//!
//! Time is measured in **cache cycles** ([`Cycle`]), matching the paper's
//! Table 4 parameterisation (e.g. "main memory cycle time = 4 cache cycles").

//! # Example
//!
//! ```
//! use ssmp_engine::{SimRng, WheelQueue};
//!
//! let mut q = WheelQueue::new(64);
//! q.schedule(10, "fetch");
//! q.schedule(5, "decode");
//! assert_eq!(q.pop().unwrap().event, "decode");
//! assert_eq!(q.now(), 5);
//!
//! let mut rng = SimRng::new(42);
//! assert!(rng.below(10) < 10);
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod event;
pub mod idmap;
pub mod json;
pub mod rng;
pub mod series;
pub mod stats;
pub mod trace;
pub mod watchdog;
pub mod wheel;

pub use idmap::IdMap;
pub use json::{Json, JsonError};
pub use rng::SimRng;
pub use series::IntervalSeries;
pub use stats::{CounterId, CounterSet, Histogram};
pub use trace::{
    Family, JsonlSink, Kind, MemorySink, PerfettoSink, TraceEvent, TraceFilter, TraceRing,
    TraceSink, Tracer,
};
pub use watchdog::{Watchdog, WatchdogVerdict};
pub use wheel::{Scheduled, WheelQueue};

/// Simulation time, in cache cycles.
pub type Cycle = u64;
