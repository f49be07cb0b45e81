//! Bad trace input at the CLI boundary: the offline readers must answer a
//! trace that repeats a transaction id with a diagnostic and exit code 2,
//! promptly, never by looping until memory runs out.
//!
//! The machine never reuses a span transaction id, so a repeated
//! `span-begin` means a corrupt or concatenated file. Left unchecked, the
//! second span of the id becomes its own critical-path parent and the
//! path walk never ends.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Generous for a few thousand lines; a looping reader blows through it.
const BOUND: Duration = Duration::from_secs(10);

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ssmp-cli"))
}

fn tmp(name: &str) -> (PathBuf, String) {
    let p = std::env::temp_dir().join(format!("ssmp-trace-input-{}-{name}", std::process::id()));
    let s = p.to_str().expect("utf-8 temp path").to_string();
    (p, s)
}

/// Runs `ssmp-cli args`, killing it if it outlives [`BOUND`]; returns the
/// exit code and stderr.
fn run_bounded(args: &[&str]) -> (Option<i32>, String) {
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
            panic!("ssmp-cli {args:?} still running after {BOUND:?}");
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

/// `spans` and `trace stats` both reject the file with exit 2, naming
/// the line of the second `span-begin`.
fn assert_rejected(path: &str, line: &str) {
    for argv in [
        &["spans", "--in", path][..],
        &["trace", "stats", "--in", path],
    ] {
        let (code, err) = run_bounded(argv);
        assert_eq!(code, Some(2), "ssmp-cli {argv:?}: {err}");
        assert!(
            err.contains(&format!("{line}: transaction")),
            "ssmp-cli {argv:?} did not name {line}: {err}"
        );
    }
}

#[test]
fn a_transaction_reopened_on_one_node_is_rejected() {
    let (p, path) = tmp("reopened.jsonl");
    let line = |cycle: u64, kind: &str| {
        format!(
            r#"{{"cycle":{cycle},"node":0,"family":"node","kind":"{kind}","detail":"lock","id":5,"arg":0}}"#
        )
    };
    let trace = [
        line(0, "span-begin"),
        line(10, "span-end"),
        line(20, "span-begin"),
        line(30, "span-end"),
    ]
    .join("\n");
    std::fs::write(&p, trace + "\n").unwrap();
    assert_rejected(&path, "line 3");
    std::fs::remove_file(p).ok();
}

#[test]
fn a_real_trace_concatenated_with_itself_is_rejected() {
    let (once_p, once) = tmp("once.jsonl");
    let status = cli()
        .args([
            "run",
            "--workload",
            "work-queue",
            "--config",
            "bc-cbl",
            "--nodes",
            "8",
            "--grain",
            "fine",
            "--tasks",
            "16",
            "--trace",
            &once,
        ])
        .stdout(Stdio::null())
        .status()
        .expect("spawn ssmp-cli run");
    assert!(status.success());
    let text = std::fs::read_to_string(&once_p).unwrap();
    // The first copy is a clean trace: it stitches and exits 0.
    assert_eq!(run_bounded(&["spans", "--in", &once]).0, Some(0));
    let (twice_p, twice) = tmp("twice.jsonl");
    std::fs::write(&twice_p, text.repeat(2)).unwrap();
    // The second copy's first span-begin reuses transaction 1.
    let first_begin = text
        .lines()
        .position(|l| l.contains(r#""kind":"span-begin""#))
        .expect("the trace opens a span");
    let line = format!("line {}", text.lines().count() + first_begin + 1);
    assert_rejected(&twice, &line);
    std::fs::remove_file(once_p).ok();
    std::fs::remove_file(twice_p).ok();
}
