//! Bad input at the CLI boundary: the offline trace readers and the
//! reproducer reader must answer a file the machine could not have
//! written with a diagnostic and exit code 2, promptly, never by looping
//! until memory runs out or by reading a rounded number.
//!
//! The machine never reuses a span transaction id or injects a wire
//! twice, so a repeated `span-begin` or `net-inject` means a corrupt or
//! concatenated file. Left unchecked, the second span of the id becomes
//! its own critical-path parent and the path walk never ends, and a fold
//! counts every event twice. It writes every number as an exact integer,
//! so a sign, a fraction or an out-of-range value means the same. A
//! reproducer field that cannot be read must not turn into a default:
//! the replay would run some other scenario.

mod common;

use common::{cli, run_bounded, tmp};
use std::process::Stdio;

/// Every reader in `argvs` rejects the file with exit 2, and its
/// diagnostic contains `names`.
fn assert_rejected(argvs: &[&[&str]], names: &str) {
    for argv in argvs {
        let (code, err) = run_bounded(argv);
        assert_eq!(code, Some(2), "ssmp-cli {argv:?}: {err}");
        assert!(
            err.contains(names),
            "ssmp-cli {argv:?} did not say {names:?}: {err}"
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
    assert_rejected(
        &[
            &["spans", "--in", &path],
            &["trace", "stats", "--in", &path],
            &["analyze", "--in", &path],
        ],
        "line 3: transaction 5 begins a second time",
    );
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
    // The first copy is a clean trace: it stitches, folds and exits 0.
    assert_eq!(run_bounded(&["spans", "--in", &once]).0, Some(0));
    assert_eq!(run_bounded(&["analyze", "--in", &once]).0, Some(0));
    let (twice_p, twice) = tmp("twice.jsonl");
    std::fs::write(&twice_p, text.repeat(2)).unwrap();
    // The second copy's first net-inject reuses wire 1 (before its first
    // span-begin reuses transaction 1).
    let first_inject = text
        .lines()
        .position(|l| l.contains(r#""kind":"net-inject""#))
        .expect("the trace injects a wire");
    let line = text.lines().count() + first_inject + 1;
    assert_rejected(
        &[
            &["spans", "--in", &twice],
            &["trace", "stats", "--in", &twice],
            &["analyze", "--in", &twice],
        ],
        &format!("line {line}: wire 1 is injected a second time"),
    );
    std::fs::remove_file(once_p).ok();
    std::fs::remove_file(twice_p).ok();
}

#[test]
fn a_number_that_is_not_an_exact_integer_is_rejected() {
    let (p, path) = tmp("inexact.jsonl");
    std::fs::write(
        &p,
        concat!(
            r#"{"cycle":-5,"node":0,"family":"node","kind":"issue","detail":"read","#,
            r#""id":1.5,"arg":18446744073709551616}"#,
            "\n"
        ),
    )
    .unwrap();
    let field = "field 'cycle' is not an unsigned 64-bit integer: -5";
    assert_rejected(
        &[&["trace", "stats", "--validate", "--in", &path]],
        &format!("{path}: line 1: {field}"),
    );
    assert_rejected(
        &[&["analyze", "--in", &path], &["spans", "--in", &path]],
        &format!("line 1: {field}"),
    );
    std::fs::remove_file(p).ok();
}

/// A reproducer of a random-mode fuzz scenario (the plan before
/// shrinking), with `TASKS` and `DUP` left to fill in.
const RANDOM_REPRO: &str = concat!(
    r#"{"schema":"ssmp-repro-v1","workload":"work-queue","config":"cbl","nodes":2,"#,
    r#""grain":"fine","tasks":TASKS,"seed":7,"retry":false,"max_cycles":200000,"#,
    r#""signature":"deadlock","faults":{"mode":"random","seed":1,"#,
    r#""dup_prob":DUP,"delay_prob":0.1,"delay_cycles":200}}"#
);

/// `run --repro` rejects the reproducer with `tasks` and `dup` filled in
/// (written to temp file `file`), naming the field.
fn assert_repro_rejected(file: &str, tasks: &str, dup: &str, names: &str) {
    let (p, path) = tmp(file);
    let repro = RANDOM_REPRO.replace("TASKS", tasks).replace("DUP", dup);
    std::fs::write(&p, repro).unwrap();
    assert_rejected(&[&["run", "--repro", &path]], names);
    std::fs::remove_file(p).ok();
}

#[test]
fn a_reproducer_probability_that_is_not_a_number_is_rejected() {
    let names = "repro: field 'dup_prob' is not a number";
    assert_repro_rejected("wordy-prob-repro.json", "8", r#""lots""#, names);
}

#[test]
fn a_reproducer_integer_that_is_not_exact_is_rejected() {
    let names = "repro: field 'tasks' is not an unsigned 64-bit integer: 8.0";
    assert_repro_rejected("inexact-tasks-repro.json", "8.0", "0.05", names);
}
