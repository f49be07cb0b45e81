//! # ssmp-bench
//!
//! Shared infrastructure for the experiment binaries (`table2`, `table3`,
//! `fig4`–`fig7`, `ablations`) that regenerate the paper's tables and
//! figures.

#![warn(missing_docs)]

pub mod exp;
pub mod figures;
pub mod plot;
pub mod results;
pub mod runner;
pub mod scenarios;

pub use exp::{derive_seed, ExpArgs, Experiment, PointOutput, RunnerOpts, SweepResult};
pub use plot::{maybe_write_svg, to_svg};
pub use results::{Row, Table};
pub use runner::{
    run_solver, run_sync, run_work_queue, run_work_queue_strong, NODES_SWEEP, NODES_SWEEP_QUICK,
};
