//! `ssmp` — command-line driver for the machine simulator.
//!
//! ```text
//! ssmp run   --workload work-queue --config bc-cbl --nodes 16 [--grain medium]
//!            [--tasks 128] [--seed N] [--json]
//! ssmp sweep --workload sync --protocol wbi,ric --nodes 4,8,16,32
//! ssmp trace capture --workload sync --nodes 8 --out trace.json
//! ssmp trace replay  --in trace.json --config bc-cbl [--json]
//! ```
//!
//! Exit code 2 signals a usage error (with help on stderr).

use std::process::ExitCode;

mod args;
mod commands;
mod fuzz;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::from(2)
        }
    }
}
