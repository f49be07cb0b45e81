//! Helpers shared by the CLI tests that feed the offline readers bad
//! input: spawn the binary, bound its run time, collect its diagnostic.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Generous for a few thousand lines; a looping reader blows through it.
const BOUND: Duration = Duration::from_secs(10);

pub fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ssmp-cli"))
}

/// A per-process path in the temp directory, as a path and a string.
pub fn tmp(name: &str) -> (PathBuf, String) {
    let p = std::env::temp_dir().join(format!("ssmp-trace-input-{}-{name}", std::process::id()));
    let s = p.to_str().expect("utf-8 temp path").to_string();
    (p, s)
}

/// Runs `ssmp-cli args`, killing it if it outlives [`BOUND`]; returns the
/// exit code (`None` if a signal or the bound ended it) and stderr.
pub fn run_bounded(args: &[&str]) -> (Option<i32>, String) {
    let mut child = cli()
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ssmp-cli");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll ssmp-cli") {
            break status;
        }
        if start.elapsed() > BOUND {
            child.kill().ok();
            child.wait().ok();
            return (None, format!("still running after {BOUND:?}; killed"));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut err)
        .expect("read stderr");
    (status.code(), err)
}
