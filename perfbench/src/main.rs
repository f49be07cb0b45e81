//! Host-performance benchmark of the `ssmp` simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times whole `Machine::run` calls, one simulation at a time
//! on one thread, for `--seconds` and prints the end-to-end metrics.
//! `--trace 1` makes one traced run, replays its captured inputs through
//! each layer crate's public functions, and prints the per-layer metrics.
//! Either way every simulated output is checked, and the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The command exits nonzero when any check fails.

mod alloc;
mod calib;
mod replay;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Record, Spec, SPECS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Machine builds timed for `setup_s` before each timed run; the last
/// one is the machine that runs.
const BUILDS_PER_RUN: usize = 8;
/// Fewest timed runs a measurement makes, whatever `--seconds` says.
const MIN_RUNS: usize = 5;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                workload =
                    Some(workloads::find(&value).ok_or_else(|| {
                        format!("unknown workload '{value}' ({})", names.join("|"))
                    })?);
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one invocation found: the metrics plus its correctness tally.
#[derive(Default)]
pub struct Outcome {
    /// Simulations run.
    pub attempted: u64,
    /// Simulations with an exact-output mismatch, a watchdog end or a
    /// sanitizer violation.
    pub failed: u64,
    /// Failed self-checks, each explained.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn problem(&mut self, p: String) {
        eprintln!("check failed: {p}");
        self.problems.push(p);
    }

    /// Counts one simulation; `Err` (or a mismatch with `expected`)
    /// counts it failed.
    pub fn tally(&mut self, got: &Result<Record, String>, expected: Option<&Record>) {
        self.attempted += 1;
        let verdict = match (got, expected) {
            (Err(e), _) => Err(e.clone()),
            (Ok(g), Some(e)) if g != e => Err(format!("outputs {g:?}, expected {e:?}")),
            _ => Ok(()),
        };
        if let Err(e) = verdict {
            self.failed += 1;
            self.problem(e);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    finite(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that would be one is reported
/// as 0 (it only arises from an empty denominator).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The outputs a run must equal: the record for this seed if there is
/// one, else the first run of this invocation (so every later run, and
/// the traced run, must repeat it).
pub fn reference(spec: &Spec, seed: u64, first: &Result<Record, String>) -> Option<Record> {
    spec.record(seed).or_else(|| first.clone().ok())
}

/// Says on stderr what the outputs were checked against.
pub fn report_reference(spec: &Spec, seed: u64, rec: &Record) {
    let against = match spec.record(seed) {
        Some(_) => "equal to the recorded outputs",
        None => "no record for this seed, so every run was checked against the first",
    };
    eprintln!("{}: seed {seed}: {rec:?}: {against}", spec.name);
}

/// `--trace 0`: times `Machine::run` for `seconds`.
///
/// Host speed drifts by tens of percent here, so each run is bracketed by
/// the calibration kernel, and its host times (the run and the machine
/// builds before it) are scaled by `REFERENCE_MS / kernel time`; see
/// `calib`.
fn measure(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();

    // Warm-up run: checked, not timed.
    let first = Record::of(&spec.machine(seed, None, |w| w).run());
    let expected = reference(spec, seed, &first);
    out.tally(&first, expected.as_ref());

    // Set-up is timed throughout the window, not only before it.
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut allocs = Vec::new();
    let mut raw = Vec::new();
    let mut kernels = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let mut machine = None;
        let mut builds = [0.0; BUILDS_PER_RUN];
        for b in &mut builds {
            drop(black_box(machine.take()));
            let t = Instant::now();
            machine = Some(spec.machine(seed, None, |w| w));
            *b = t.elapsed().as_secs_f64();
        }
        let m = machine.expect("BUILDS_PER_RUN >= 1");
        let before = calib::kernel_ms();
        let a = alloc::Snapshot::now();
        let t = Instant::now();
        let r = m.run();
        let wall = t.elapsed().as_secs_f64();
        allocs.push(a.since());
        let kernel = (before + calib::kernel_ms()) / 2.0;
        let scale = calib::REFERENCE_MS / kernel;
        raw.push(wall);
        walls.push(wall * scale);
        setups.extend(builds.iter().map(|b| b * scale));
        kernels.push(kernel);
        out.tally(&Record::of(&r), expected.as_ref());
    }

    let Some(rec) = expected else {
        return out;
    };
    report_reference(spec, seed, &rec);
    // Allocation counts are nearly, not exactly, repeatable: some paths
    // depend on hash order and differ by an allocation or two per run.
    let counts = allocs.iter().map(|a| a.allocs);
    eprintln!(
        "{}: allocations per run ranged {} to {}",
        spec.name,
        counts.clone().min().unwrap_or(0),
        counts.max().unwrap_or(0)
    );
    let alloc_count = median(&allocs.iter().map(|a| a.allocs as f64).collect::<Vec<_>>());
    let alloc_bytes = median(&allocs.iter().map(|a| a.bytes as f64).collect::<Vec<_>>());
    let wall = median(&walls);
    let events = rec.events as f64;
    eprintln!(
        "{}: seed {seed}; medians of {} timed runs and {} machine builds, normalised; \
         raw median run {:.6} s, median kernel {:.3} ms",
        spec.name,
        walls.len(),
        setups.len(),
        median(&raw),
        median(&kernels)
    );
    out.metric("events_per_s", events / wall, "1/s");
    out.metric(
        "sim_cycles_per_s",
        rec.completion_cycles as f64 / wall,
        "1/s",
    );
    out.metric("wall_s", wall, "s");
    out.metric("setup_s", median(&setups), "s");
    match alloc::peak_rss_mb() {
        Ok(mb) => out.metric("peak_rss_mb", mb, "MiB"),
        Err(e) => out.problem(e),
    }
    out.metric("allocs_per_event", alloc_count / events, "count");
    out.metric("alloc_bytes_per_event", alloc_bytes / events, "B");
    out.metric("completion_cycles", rec.completion_cycles as f64, "cycles");
    out.metric("messages", rec.messages as f64, "count");
    out.metric("events", events, "count");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        replay::traced(args.workload, args.seed)
    } else {
        measure(args.workload, args.seed, args.seconds)
    };
    for (name, value, unit) in &out.metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
