//! Seeded mutations of every artifact an offline reader takes: each
//! mutated file must get an answer — success, a diagnostic with exit
//! code 2, or (for `diff --gate`) a gate violation with exit code 1 —
//! within a time bound, never a panic or a hang.
//!
//! The inputs are made here: a bc-cbl work-queue trace at n=8, its `--json`
//! report with the `--profile=` and `--spans=` documents, a Table 3 sweep
//! artifact, and an `ssmp-repro-v1` reproducer of the planted CBL dedup
//! bug. Each is mutated line by line (a line duplicated, dropped,
//! truncated, or two lines swapped) and number by number (one number
//! token set to -1, 1.5, 2^53 + 1 or 2^64, none of which the machine
//! writes where an exact integer belongs).

mod common;

use common::{cli, run_bounded, tmp};
use std::ops::Range;

/// Mutated copies made of each input.
const CASES: usize = 24;

#[derive(Clone, Copy, Debug)]
enum Mutation {
    Duplicate,
    Drop,
    Truncate,
    Swap,
    Number(&'static str),
}

/// The mutations, taken in turn; the seeded generator picks where.
const MUTATIONS: [Mutation; 8] = [
    Mutation::Duplicate,
    Mutation::Drop,
    Mutation::Truncate,
    Mutation::Swap,
    Mutation::Number("-1"),
    Mutation::Number("1.5"),
    Mutation::Number("9007199254740993"),
    Mutation::Number("18446744073709551616"),
];

/// xorshift64*: a fixed seed gives the same mutations on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    }
}

/// Byte ranges of the number tokens of a JSON text, outside strings.
fn numbers(text: &str) -> Vec<Range<usize>> {
    let b = text.as_bytes();
    let (mut out, mut i, mut in_str) = (Vec::new(), 0, false);
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'-' | b'0'..=b'9' if !in_str => {
                let start = i;
                while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                out.push(start..i);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// `text` with mutation `m` applied at a place `rng` picks.
fn mutate(text: &str, m: Mutation, rng: &mut Rng) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let (i, j) = (rng.below(lines.len()), rng.below(lines.len()));
    match m {
        Mutation::Duplicate => lines.insert(i, lines[i]),
        Mutation::Drop => {
            lines.remove(i);
        }
        Mutation::Truncate => {
            let mut cut = rng.below(lines[i].len());
            while !lines[i].is_char_boundary(cut) {
                cut -= 1;
            }
            lines[i] = &lines[i][..cut];
        }
        Mutation::Swap => lines.swap(i, j),
        Mutation::Number(tok) => {
            let spans = numbers(text);
            let r = spans[rng.below(spans.len())].clone();
            return format!("{}{tok}{}", &text[..r.start], &text[r.end..]);
        }
    }
    lines.join("\n") + "\n"
}

/// Runs `ssmp-cli args` to completion and returns its stdout.
fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn ssmp-cli");
    assert!(
        out.status.success(),
        "ssmp-cli {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Stands for the mutated file in a command line.
const MUTATED: &str = "<mutated>";

/// Writes [`CASES`] seeded mutations of `original` to a temp file in
/// turn and runs each of `commands` on it, which must exit with one of
/// the `allowed` codes within the bound.
fn drive_mutations(name: &str, original: &str, seed: u64, allowed: &[i32], commands: &[&[&str]]) {
    let (p, path) = tmp(&format!("mutated-{name}"));
    let mut rng = Rng(seed);
    for case in 0..CASES {
        let m = MUTATIONS[case % MUTATIONS.len()];
        let text = mutate(original, m, &mut rng);
        std::fs::write(&p, &text).unwrap();
        for command in commands {
            let argv: Vec<&str> = command
                .iter()
                .map(|&a| if a == MUTATED { path.as_str() } else { a })
                .collect();
            let (code, err) = run_bounded(&argv);
            assert!(
                code.is_some_and(|c| allowed.contains(&c)),
                "{name} case {case} ({m:?}): ssmp-cli {argv:?} exited {code:?}: {err}\n\
                 input:\n{text}"
            );
        }
    }
    std::fs::remove_file(p).ok();
}

/// Reads and deletes a file a command wrote.
fn take(p: &std::path::Path) -> String {
    let text = std::fs::read_to_string(p).unwrap();
    std::fs::remove_file(p).ok();
    text
}

/// The bc-cbl work-queue run every input but the reproducer comes from.
const WORK_QUEUE: [&str; 11] = [
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
];

#[test]
fn every_trace_reader_answers_a_mutated_trace() {
    let (p, path) = tmp("mutation-source.jsonl");
    run_ok(&[&WORK_QUEUE[..], &["--trace", &path]].concat());
    drive_mutations(
        "trace.jsonl",
        &take(&p),
        0x5eed_0001,
        &[0, 2],
        &[
            &["trace", "stats", "--validate", "--in", MUTATED],
            &["analyze", "--in", MUTATED],
            &["spans", "--in", MUTATED],
        ],
    );
}

#[test]
fn the_diff_gate_answers_a_mutated_artifact_of_every_schema() {
    let (profile_p, profile) = tmp("mutation-source-profile.json");
    let (spans_p, spans) = tmp("mutation-source-spans.json");
    let (sweep_p, sweep) = tmp("mutation-source-sweep.json");
    let documents = [
        &format!("--profile={profile}")[..],
        &format!("--spans={spans}"),
        "--json",
    ];
    let report = run_ok(&[&WORK_QUEUE[..], &documents].concat());
    run_ok(&[
        "sweep", "--points", "table3:4", "--quick", "--json", "--out", &sweep,
    ]);
    let artifacts = [
        ("report.json", report),
        ("profile.json", take(&profile_p)),
        ("spans.json", take(&spans_p)),
        ("sweep.json", take(&sweep_p)),
    ];
    let (orig_p, orig) = tmp("mutation-original.json");
    for (seed, (name, text)) in (0x5eed_0010..).zip(&artifacts) {
        std::fs::write(&orig_p, text).unwrap();
        // Either side of the diff may be the mutated one.
        drive_mutations(
            name,
            text,
            seed,
            &[0, 1, 2],
            &[
                &["diff", "--gate", &orig, MUTATED],
                &["diff", "--gate", MUTATED, &orig],
            ],
        );
    }
    std::fs::remove_file(orig_p).ok();
}

/// The reproducer `ssmp fuzz --quick --planted-bug cbl-dedup
/// --cycle-budget 200000` writes, one field per line so the line
/// mutations reach each field. A replay is a simulation that its own
/// `max_cycles` bounds: with `tasks` mutated to 2^53 + 1 it runs out this
/// budget in about half a second in a debug build, where the quick fuzz
/// default of 5,000,000 cycles takes about ten.
const REPRO: &str = r#"{"schema":"ssmp-repro-v1",
"workload":"work-queue",
"config":"cbl",
"nodes":2,
"grain":"fine",
"tasks":1,
"seed":1608602172749942972,
"retry":false,
"max_cycles":200000,
"signature":"wire.exactly-once",
"faults":{"mode":"replay","entries":[
{"kind":"cbl","nth":0,"op":"dup"}
]},
"planted_bug":"cbl-dedup"}
"#;

#[test]
fn run_repro_answers_a_mutated_reproducer() {
    let (p, path) = tmp("mutation-source-repro.json");
    std::fs::write(&p, REPRO).unwrap();
    // The unmutated file replays the planted bug.
    assert_eq!(run_bounded(&["run", "--repro", &path]).0, Some(0));
    std::fs::remove_file(p).ok();
    drive_mutations(
        "repro.json",
        REPRO,
        0x5eed_0020,
        &[0, 2],
        &[&["run", "--repro", MUTATED]],
    );
}
