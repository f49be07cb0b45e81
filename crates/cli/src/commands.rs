//! Subcommand implementations.

use ssmp_machine::{Machine, MachineConfig, Report, Workload};
use ssmp_workload::{
    Grain, Hotspot, HotspotParams, LinearSolver, SolverParams, Sor, SorParams, SyncModel,
    SyncParams, Trace, WorkQueue, WorkQueueParams,
};

use crate::args::Flags;

/// CLI usage text.
pub const USAGE: &str = "\
usage:
  ssmp run   --workload <wl> (--protocol <p> | --config <cfg>) [--nodes N]
             [--grain g] [--tasks T] [--seed S]
             [--topology omega|bus|ideal] [--json]
  ssmp sweep [--points <spec>] [--workload <wl>
             (--protocol <p>[,p...] | --config <cfg>[,cfg...])
             [--nodes 4,8,16,...]] [--jobs N] [--seed S] [--quick]
             [--grain g] [--tasks T] [--json] [--out <file>]
  ssmp trace capture --workload <wl> [--nodes N] [--grain g] [--tasks T]
             [--seed S] --out <file>
  ssmp trace replay  --in <file> --config <cfg> [--json]
  ssmp trace stats   --in <file> [--validate] [--json]
  ssmp analyze --in <trace.jsonl> [--top K] [--json] [--out <file>]
  ssmp spans   --in <trace.jsonl> [--top K] [--json] [--out <file>]
  ssmp diff  <a> <b> [--top K] [--json] [--out <file>] [--gate]
             [--tolerance FRAC]
  ssmp program --file <prog.sasm> --config <cfg> [--sems c0,c1,...] [--json]
  ssmp fuzz  [--quick] [--jobs N] [--seeds K] [--seed S] [--out <repro.json>]
             [--workload wl[,wl...]] [--config cfg[,cfg...]] [--nodes N]
             [--dup-prob p] [--delay-prob p] [--delay-cycles c] [--retry]
             [--grain g] [--tasks T] [--cycle-budget c]
             [--planted-bug cbl-dedup]
  ssmp run   --repro <repro.json> [--json]

sweep runs its points (config × nodes × scheme) in parallel on --jobs
worker threads; the emitted artifact is byte-identical for any --jobs.
  --points <wl>:<cfg,cfg>:<n,n>   explicit grid, e.g. sync:wbi,cbl:4,8,16
  --points table3[:<n,n>]         the Table 3 scenario points
  --out <file>                    write the full JSON artifact (points
                                  incl. failures + per-point seeds)
  --diff-against <artifact>       diff this sweep against a committed
                                  ssmp-sweep-v1 baseline (the diff gate
                                  policies apply; violations exit 1)

differential observability:
  ssmp diff takes any two artifacts of the same kind — two --json run
  reports, two ssmp-sweep-v1 sweeps (point-aligned by scenario label),
  two ssmp-profile-v1 profiles, or two ssmp-span-v1 span sets — and
  explains where the cycles, messages, and contention moved: exact
  counter deltas (the simulator is deterministic, so every nonzero
  delta is real), stall-attribution movement tables that preserve the
  exact-sum invariant on both sides, per-line heatmap deltas with
  false sharing that appears/disappears, per-lock latency/fairness/
  handoff shifts, span-segment tiling shifts with percentile-by-
  percentile comparison, and a ranked top-movers summary. --json /
  --out emit the deterministic ssmp-diff-v1 document; --gate exits 1
  on policy violations (sweeps gate by key class: exact keys must
  match, speedup sags past --tolerance fail, wall-clock keys are
  informational; other kinds gate on strict identity). Either path may
  be '-' for stdin.

fault injection / robustness (run, sweep, trace replay, program):
  [--fault-seed S] [--drop-prob p] [--dup-prob p] [--delay-prob p]
  [--delay-cycles c] [--retry] [--retry-timeout c] [--retry-max n]
  [--cycle-budget c]

observability (run, trace replay, program; sweep takes --metrics-interval):
  [--trace <file>] [--trace-format jsonl|perfetto] [--trace-filter f1,f2,...]
  [--trace-ring N] [--metrics-interval N]
  trace filter tokens: families wbi|ric|cbl|bar|sem|priv|node|net and/or
  kinds issue|net-inject|net-deliver|retry|fault|stall-begin|stall-end|
  lock-acquire|lock-release|flush|access|queue|done

profiling (run, sweep, trace replay, program):
  [--profile[=<out.json>]]  fold events live into the ssmp-profile-v1
  contention/stall profile: per-line heatmaps + false-sharing detector,
  per-lock latency/queue-depth/fairness, per-node stall attribution.
  Printed with the report (text) or embedded as \"profile\" (--json /
  sweep artifacts); --profile=<file> also writes the JSON document.
  'ssmp analyze' folds a --trace jsonl offline into the identical JSON.

span tracing (run, sweep, trace replay, program):
  [--spans[=<out.json>]]  stitch the event stream live into per-
  transaction spans (ssmp-span-v1): exact end-to-end latency with an
  exact-sum segment breakdown (issue/wbuf/net/mem/queue/complete/local),
  per-type latency quantiles up to p999, the critical path, and
  stitching-health counters. Printed with the report (text) or embedded
  as \"spans\" (--json / sweep artifacts); --spans=<file> also writes
  the JSON document. 'ssmp spans' stitches a --trace jsonl offline into
  the identical JSON; 'ssmp trace stats' reports stitching health.

sanitizing / fuzzing:
  [--check]   (run, sweep, trace replay, program) arm the live protocol
  sanitizer: every trace event is folded into a reference oracle (SWMR,
  exactly-once wire delivery, CBL FIFO + mutual exclusion, write-buffer
  drain order, value provenance) and violations are reported with the
  last trace events attached. Observation-only: the report is otherwise
  byte-identical to an unarmed run.
  'ssmp fuzz' sweeps seeded random fault plans across workload/config
  scenarios with the sanitizer armed; any violation, deadlock, or panic
  is shrunk (ddmin over the fault decision log, then nodes/tasks) to a
  minimal deterministic reproducer written to --out (default repro.json)
  and replayable with 'ssmp run --repro <file>'. --planted-bug arms a
  deliberate protocol bug (self-test of the pipeline).

workloads: work-queue | sync | solver | fft | hotspot | sor
  hotspot: [--hot h] [--hot-lock]   route hot refs through lock 0
  sor:     [--packed]               false-sharing boundary layout
protocols: ric | wbi | mesi | dragon
  --protocol picks the shared-data coherence backend by name (run, sweep,
  program, trace replay): the paper's reader-initiated scheme, the WBI
  write-invalidate directory, snooping MESI, or the Dragon write-update
  protocol. Each uses TTS locks and the software barrier, so the data
  protocols compare like-for-like.
configs:   wbi-backoff | cbl | sc-cbl | bc-cbl
  --config picks a lock-centric preset; the four coherence backends are
  named with --protocol only.
grains:    fine | medium | coarse";

const VALUED: &[&str] = &[
    "workload",
    "config",
    "protocol",
    "nodes",
    "grain",
    "tasks",
    "seed",
    "out",
    "in",
    "topology",
    "hot",
    "file",
    "sems",
    "points",
    "jobs",
    "fault-seed",
    "drop-prob",
    "dup-prob",
    "delay-prob",
    "delay-cycles",
    "retry-timeout",
    "retry-max",
    "cycle-budget",
    "trace",
    "trace-format",
    "trace-filter",
    "trace-ring",
    "metrics-interval",
    "top",
    "repro",
    "seeds",
    "planted-bug",
    "tolerance",
    "diff-against",
];

/// Splits an argv into positional operands and flag tokens, so commands
/// like `ssmp diff <a> <b> --json` can take paths without `--in`-style
/// spelling. Valued flags keep their value token even when it doesn't
/// start with `--`.
fn split_positionals(argv: &[String]) -> (Vec<String>, Vec<String>) {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        match a.strip_prefix("--") {
            // anything not `--`-prefixed is an operand (including the
            // stdin spelling '-')
            None => pos.push(a.clone()),
            Some(name) => {
                flags.push(a.clone());
                if !name.contains('=') && VALUED.contains(&name) {
                    if let Some(v) = argv.get(i + 1) {
                        flags.push(v.clone());
                        i += 1;
                    }
                }
            }
        }
        i += 1;
    }
    (pos, flags)
}

/// Dispatches a full argv (without the binary name).
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    match argv.first().map(|s| s.as_str()) {
        Some("run") => run(&Flags::parse(&argv[1..], VALUED)?),
        Some("sweep") => sweep(&Flags::parse(&argv[1..], VALUED)?),
        Some("diff") => {
            let (pos, flag_args) = split_positionals(&argv[1..]);
            diff(&pos, &Flags::parse(&flag_args, VALUED)?)
        }
        Some("trace") => match argv.get(1).map(|s| s.as_str()) {
            Some("capture") => trace_capture(&Flags::parse(&argv[2..], VALUED)?),
            Some("replay") => trace_replay(&Flags::parse(&argv[2..], VALUED)?),
            Some("stats") => trace_stats(&Flags::parse(&argv[2..], VALUED)?),
            _ => Err("trace needs 'capture', 'replay', or 'stats'".into()),
        },
        Some("analyze") => analyze(&Flags::parse(&argv[1..], VALUED)?),
        Some("spans") => spans(&Flags::parse(&argv[1..], VALUED)?),
        Some("program") => program(&Flags::parse(&argv[1..], VALUED)?),
        Some("fuzz") => crate::fuzz::fuzz(&Flags::parse(&argv[1..], VALUED)?),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".into()),
    }
}

pub(crate) fn parse_config(name: &str, nodes: usize) -> Result<MachineConfig, String> {
    if nodes == 0 || !nodes.is_power_of_two() {
        return Err(format!(
            "--nodes must be a power of two for the omega network, got {nodes}"
        ));
    }
    Ok(match name {
        "wbi" => MachineConfig::wbi(nodes),
        "wbi-backoff" => MachineConfig::wbi_backoff(nodes),
        "cbl" => MachineConfig::cbl(nodes),
        "sc-cbl" => MachineConfig::sc_cbl(nodes),
        "bc-cbl" => MachineConfig::bc_cbl(nodes),
        // coherence-protocol presets (the `--protocol` names; accepted as
        // configs too so sweep artifacts can mix them with lock presets)
        "ric" => MachineConfig::ric(nodes),
        "mesi" => MachineConfig::mesi(nodes),
        "dragon" => MachineConfig::dragon(nodes),
        other => return Err(format!("unknown config '{other}'")),
    })
}

/// The `--protocol` names: one per coherence backend.
pub(crate) const PROTOCOLS: &[&str] = &["ric", "wbi", "mesi", "dragon"];

/// Rejects a `--protocol` value that is not a coherence backend name
/// (unlike `--config`, which also accepts the lock-centric presets).
fn check_protocol(name: &str) -> Result<(), String> {
    if PROTOCOLS.contains(&name) {
        Ok(())
    } else {
        Err(format!("unknown protocol '{name}' (ric|wbi|mesi|dragon)"))
    }
}

/// Rejects a `--config` value that names a coherence backend: those are
/// selected with `--protocol`, and `--config` takes the lock presets.
fn check_config(value: &str) -> Result<(), String> {
    if PROTOCOLS.contains(&value) {
        return Err(format!(
            "--config {value} is not a lock preset; use --protocol {value} \
             (--config takes wbi-backoff|cbl|sc-cbl|bc-cbl)"
        ));
    }
    Ok(())
}

/// Resolves the configuration name from `--protocol` or `--config`; the
/// conflict table rejects giving both.
fn config_selector(f: &Flags) -> Result<&str, String> {
    match f.get("protocol") {
        Some(p) => {
            check_protocol(p)?;
            Ok(p)
        }
        None => {
            let c = f.require("config")?;
            check_config(c)?;
            Ok(c)
        }
    }
}

pub(crate) fn parse_grain(name: &str) -> Result<Grain, String> {
    Ok(match name {
        "fine" => Grain::Fine,
        "medium" => Grain::Medium,
        "coarse" => Grain::Coarse,
        other => return Err(format!("unknown grain '{other}'")),
    })
}

/// Flag pairs that cannot be combined, with the reason — one table
/// instead of ad-hoc per-flag checks scattered through the parsers.
/// Checked for every subcommand that takes simulator flags.
const CONFLICTS: &[(&str, &str, &str)] = &[
    (
        "profile",
        "trace-filter",
        "--profile needs the full event stream (the filter prunes events before \
         sinks and would skew attribution); drop --trace-filter",
    ),
    (
        "spans",
        "trace-filter",
        "--spans stitches spans out of the full event stream (the filter would \
         orphan begins/ends and drop wire links); drop --trace-filter",
    ),
    (
        "check",
        "trace-filter",
        "--check folds every event into the sanitizer's oracles (the filter would \
         blind them and fake violations); drop --trace-filter",
    ),
    (
        "protocol",
        "config",
        "--protocol picks a coherence backend and --config a lock preset; give \
         either, not both",
    ),
    (
        "repro",
        "workload",
        "--repro replays the scenario recorded in the file; drop --workload",
    ),
    (
        "repro",
        "config",
        "--repro replays the scenario recorded in the file; drop --config",
    ),
    (
        "repro",
        "fault-seed",
        "--repro carries its own fault plan; drop --fault-seed",
    ),
    (
        "repro",
        "planted-bug",
        "--repro records whether a bug was planted; drop --planted-bug",
    ),
];

/// Whether a flag was given in any form (`--name`, `--name value`, or
/// `--name=value`).
fn given(f: &Flags, name: &str) -> bool {
    f.has(name) || f.get(name).is_some()
}

/// Rejects any combination listed in [`CONFLICTS`].
fn check_conflicts(f: &Flags) -> Result<(), String> {
    for (a, b, why) in CONFLICTS {
        if given(f, a) && given(f, b) {
            return Err(format!("--{a} conflicts with --{b}: {why}"));
        }
    }
    Ok(())
}

/// The simulation flags shared by `run`, `sweep`, `program`, and
/// `trace replay`: interconnect topology, fault injection, the retry
/// layer, the cycle-budget watchdog, interval metrics sampling, the
/// profiler, and the protocol sanitizer.
///
/// Parsed once per invocation, then applied (with validation) to every
/// machine configuration the subcommand builds — `sweep` stamps the
/// same `SimFlags` onto each of its points.
#[derive(Debug, Clone, Default)]
struct SimFlags {
    topology: Option<ssmp_net::Topology>,
    fault: Option<ssmp_net::FaultConfig>,
    retry: Option<ssmp_machine::RetryPolicy>,
    max_cycles: Option<u64>,
    metrics_interval: Option<u64>,
    profile: bool,
    spans: bool,
    check: bool,
}

impl SimFlags {
    fn parse(f: &Flags) -> Result<Self, String> {
        check_conflicts(f)?;
        let mut s = SimFlags {
            profile: f.has("profile"),
            spans: f.has("spans"),
            check: f.has("check"),
            ..SimFlags::default()
        };
        if let Some(t) = f.get("topology") {
            s.topology = Some(match t {
                "omega" => ssmp_net::Topology::Omega,
                "bus" => ssmp_net::Topology::Bus,
                "ideal" => ssmp_net::Topology::Ideal,
                other => return Err(format!("unknown topology '{other}'")),
            });
        }
        let drop_prob = f.num::<f64>("drop-prob", 0.0)?;
        let dup_prob = f.num::<f64>("dup-prob", 0.0)?;
        let delay_prob = f.num::<f64>("delay-prob", 0.0)?;
        if f.get("fault-seed").is_some() || drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0 {
            let seed = f.num::<u64>("fault-seed", 0xFA)?;
            let mut fc = ssmp_net::FaultConfig::uniform(seed, drop_prob, dup_prob, delay_prob);
            fc.delay_cycles = f.num::<u64>("delay-cycles", fc.delay_cycles)?;
            s.fault = Some(fc);
        }
        if f.has("retry") || f.get("retry-timeout").is_some() || f.get("retry-max").is_some() {
            let mut rp = ssmp_machine::RetryPolicy::enabled();
            rp.timeout = f.num("retry-timeout", rp.timeout)?;
            rp.max_attempts = f.num("retry-max", rp.max_attempts)?;
            s.retry = Some(rp);
        }
        if f.get("cycle-budget").is_some() {
            s.max_cycles = Some(f.num::<u64>("cycle-budget", 0)?);
        }
        if f.get("metrics-interval").is_some() {
            let iv = f.num::<u64>("metrics-interval", 1000)?;
            if iv == 0 {
                return Err("--metrics-interval must be >= 1".into());
            }
            s.metrics_interval = Some(iv);
        }
        Ok(s)
    }

    /// Stamps the flags onto `cfg` and validates the result.
    fn apply(&self, cfg: &mut MachineConfig) -> Result<(), String> {
        if let Some(t) = self.topology {
            cfg.topology = t;
        }
        if let Some(fc) = &self.fault {
            cfg.fault = Some(fc.clone());
        }
        if let Some(rp) = self.retry {
            cfg.retry = rp;
        }
        if let Some(mc) = self.max_cycles {
            cfg.max_cycles = mc;
        }
        if let Some(iv) = self.metrics_interval {
            cfg.metrics_interval = Some(iv);
        }
        cfg.validate().map_err(|e| e.to_string())
    }
}

/// Builds the event tracer from the `--trace*` flags; off when `--trace`
/// is absent.
fn build_tracer(f: &Flags) -> Result<ssmp_engine::Tracer, String> {
    use ssmp_engine::{JsonlSink, PerfettoSink, TraceFilter, Tracer};
    let Some(path) = f.get("trace") else {
        return Ok(Tracer::off());
    };
    let filter = match f.get("trace-filter") {
        Some(spec) => TraceFilter::parse(spec)?,
        None => TraceFilter::all(),
    };
    let ring = f.num::<usize>("trace-ring", 256)?;
    let mut tracer = Tracer::new(filter).with_ring(ring);
    let file = std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
    let w = std::io::BufWriter::new(file);
    match f.get("trace-format").unwrap_or("jsonl") {
        "jsonl" => tracer.add_sink(JsonlSink::new(w)),
        "perfetto" => tracer.add_sink(PerfettoSink::new(w)),
        other => {
            return Err(format!(
                "unknown trace format '{other}' (expected jsonl or perfetto)"
            ))
        }
    }
    Ok(tracer)
}

/// Builds the named workload; returns it plus the machine lock count.
const WORKLOADS: &[&str] = &["work-queue", "sync", "solver", "fft", "hotspot", "sor"];

pub(crate) fn check_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.contains(&name) {
        Ok(())
    } else {
        Err(format!("unknown workload '{name}'"))
    }
}

fn build_workload(
    name: &str,
    nodes: usize,
    f: &Flags,
) -> Result<(Box<dyn Workload>, usize), String> {
    check_workload(name)?;
    let grain = parse_grain(f.get("grain").unwrap_or("medium"))?;
    let tasks = f.num::<usize>("tasks", 8 * nodes)?;
    let seed = f.num::<u64>("seed", 0xC11)?;
    let hot = f.num::<f64>("hot", 0.2)?;
    let shape = WorkloadShape {
        hot,
        hot_lock: f.has("hot-lock"),
        packed: f.has("packed"),
    };
    Ok(sweep_workload(name, nodes, grain, tasks, shape, seed))
}

pub(crate) fn adapt_geometry(cfg: &mut MachineConfig, workload: &str, nodes: usize) {
    // SOR owns one boundary block per chunk (padded layout upper bound)
    if workload == "sor" {
        cfg.geometry =
            ssmp_core::addr::Geometry::new(nodes, 4, nodes.max(cfg.geometry.shared_blocks));
    }
    // the solver and FFT size the shared region themselves
    if workload == "solver" {
        let p = SolverParams::paper(nodes, ssmp_workload::Allocation::Packed, 1);
        cfg.geometry = ssmp_core::addr::Geometry::new(
            nodes,
            4,
            p.shared_blocks().max(cfg.geometry.shared_blocks),
        );
    }
    if workload == "fft" {
        let p = ssmp_workload::FftParams::paper(nodes);
        cfg.geometry = ssmp_core::addr::Geometry::new(
            nodes,
            4,
            p.shared_blocks().max(cfg.geometry.shared_blocks),
        );
    }
}

fn print_report(r: &Report, json: bool) {
    if json {
        // Report::to_json owns the field list — it is the serde-stable
        // document `ssmp diff` compares, so the CLI only renders it.
        println!("{}", r.to_json().render());
    } else {
        // summary() already covers deadlock, retry, and fault lines
        print!("{}", r.summary());
    }
}

/// Writes the run's `ssmp-profile-v1` JSON to the `--profile=<file>`
/// target, when one was given (a bare `--profile` only prints/embeds).
fn write_profile_out(r: &Report, f: &Flags) -> Result<(), String> {
    let Some(path) = f.get("profile") else {
        return Ok(());
    };
    let p = r
        .profile
        .as_ref()
        .ok_or("internal error: --profile run produced no profile")?;
    std::fs::write(path, p.to_json().render() + "\n").map_err(|e| format!("--profile {path}: {e}"))
}

/// Writes the run's `ssmp-span-v1` JSON to the `--spans=<file>` target,
/// when one was given (a bare `--spans` only prints/embeds).
fn write_spans_out(r: &Report, f: &Flags) -> Result<(), String> {
    let Some(path) = f.get("spans") else {
        return Ok(());
    };
    let sp = r
        .spans
        .as_ref()
        .ok_or("internal error: --spans run produced no spans")?;
    std::fs::write(path, sp.to_json().render() + "\n").map_err(|e| format!("--spans {path}: {e}"))
}

fn run(f: &Flags) -> Result<(), String> {
    check_conflicts(f)?;
    if let Some(path) = f.get("repro") {
        return crate::fuzz::run_repro(path, f.has("json"));
    }
    let nodes = f.num::<usize>("nodes", 16)?;
    let workload = f.require("workload")?;
    let mut cfg = parse_config(config_selector(f)?, nodes)?;
    let sim = SimFlags::parse(f)?;
    sim.apply(&mut cfg)?;
    adapt_geometry(&mut cfg, workload, nodes);
    let (wl, locks) = build_workload(workload, nodes, f)?;
    let tracer = build_tracer(f)?;
    let r = Machine::builder(cfg)
        .workload(wl)
        .locks(locks)
        .tracer(tracer)
        .profile(sim.profile)
        .spans(sim.spans)
        .check(sim.check)
        .build()
        .unwrap()
        .run();
    print_report(&r, f.has("json"));
    write_profile_out(&r, f)?;
    write_spans_out(&r, f)
}

/// What a `sweep` invocation enumerates.
enum SweepSpec {
    /// workload × configs × node counts, one run per cell.
    Grid {
        workload: String,
        configs: Vec<String>,
        nodes: Vec<usize>,
    },
    /// The Table 3 synchronization scenarios (par/ser lock + barrier,
    /// WBI vs CBL) per node count — the CI determinism spec.
    Table3 { nodes: Vec<usize> },
}

fn parse_nodes(list: &[String]) -> Result<Vec<usize>, String> {
    list.iter()
        .map(|s| {
            let n: usize = s.parse().map_err(|_| format!("bad node count '{s}'"))?;
            if n == 0 || !n.is_power_of_two() {
                return Err(format!(
                    "--nodes must be powers of two for the omega network, got {n}"
                ));
            }
            Ok(n)
        })
        .collect()
}

fn parse_points_spec(spec: &str, quick: bool) -> Result<SweepSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["table3"] => {
            let ns: &[&str] = if quick {
                &["4", "16"]
            } else {
                &["4", "8", "16", "32", "64"]
            };
            Ok(SweepSpec::Table3 {
                nodes: parse_nodes(&ns.iter().map(|s| s.to_string()).collect::<Vec<_>>())?,
            })
        }
        ["table3", ns] => Ok(SweepSpec::Table3 {
            nodes: parse_nodes(
                &ns.split(',')
                    .map(|s| s.trim().to_string())
                    .collect::<Vec<_>>(),
            )?,
        }),
        [wl, cfgs, ns] => Ok(SweepSpec::Grid {
            workload: wl.to_string(),
            configs: cfgs.split(',').map(|s| s.trim().to_string()).collect(),
            nodes: parse_nodes(
                &ns.split(',')
                    .map(|s| s.trim().to_string())
                    .collect::<Vec<_>>(),
            )?,
        }),
        _ => Err(format!(
            "--points '{spec}': expected 'table3[:<nodes>]' or '<workload>:<cfg,cfg>:<n,n>'"
        )),
    }
}

/// The workload-shaping switches that don't fit a single number: the
/// hotspot fraction plus the profiler's showcase modes (hot refs routed
/// through lock 0; SOR's packed false-sharing boundary layout).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WorkloadShape {
    hot: f64,
    hot_lock: bool,
    packed: bool,
}

/// Builds a workload from explicit parameters (the parallel-sweep
/// equivalent of [`build_workload`]: point closures cannot hold `Flags`).
pub(crate) fn sweep_workload(
    name: &str,
    nodes: usize,
    grain: Grain,
    tasks: usize,
    shape: WorkloadShape,
    seed: u64,
) -> (Box<dyn Workload>, usize) {
    match name {
        "work-queue" => {
            let mut p = WorkQueueParams::strong(nodes, grain, tasks);
            p.seed = seed;
            let wl = WorkQueue::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "sync" => {
            let mut p = SyncParams::paper(nodes, grain.refs(), tasks.div_ceil(nodes));
            p.seed = seed;
            let wl = SyncModel::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "solver" => {
            let p = SolverParams::paper(nodes, ssmp_workload::Allocation::Packed, 6);
            let wl = LinearSolver::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "fft" => {
            let p = ssmp_workload::FftParams::paper(nodes);
            let wl = ssmp_workload::FftPhases::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "hotspot" => {
            let mut p = HotspotParams::new(nodes, shape.hot, grain.refs());
            p.hot_locks = shape.hot_lock;
            let wl = Hotspot::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "sor" => {
            // one full sweep per 8·nodes tasks keeps --tasks meaningful
            let sweeps = (tasks / (8 * nodes).max(1)).max(1) * 4;
            let p = if shape.packed {
                SorParams::packed(nodes, sweeps)
            } else {
                SorParams::new(nodes, sweeps)
            };
            let wl = Sor::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        other => unreachable!("workload '{other}' was validated at registration"),
    }
}

/// Runs a point sweep on the `ssmp_bench::exp` engine: every point is an
/// independent simulation fanned across `--jobs` worker threads, with
/// per-point seeds derived from `--seed` and the point index. The JSON
/// artifact (`--json` / `--out`) is byte-identical for any `--jobs`; a
/// point that trips the cycle-budget watchdog or panics is reported as a
/// failed point without aborting the rest of the sweep.
fn sweep(f: &Flags) -> Result<(), String> {
    use ssmp_bench::exp::{default_jobs, Experiment, PointOutput, RunnerOpts};

    let quick = f.has("quick") || std::env::var_os("SSMP_QUICK").is_some();
    let json = f.has("json");
    let sim = SimFlags::parse(f)?;
    let profile = sim.profile;
    let spans = sim.spans;
    let check = sim.check;
    let jobs = f.num::<usize>("jobs", default_jobs())?;
    let master = f.num::<u64>("seed", 0xC11)?;
    let grain = parse_grain(f.get("grain").unwrap_or("medium"))?;
    let tasks_flag = match f.get("tasks") {
        Some(s) => Some(
            s.parse::<usize>()
                .map_err(|_| format!("--tasks: cannot parse '{s}'"))?,
        ),
        None => None,
    };
    let shape = WorkloadShape {
        hot: f.num::<f64>("hot", 0.2)?,
        hot_lock: f.has("hot-lock"),
        packed: f.has("packed"),
    };

    let protocol_configs = match f.get("protocol") {
        Some(_) => {
            let ps = f.list("protocol", &[]);
            for p in &ps {
                check_protocol(p)?;
            }
            Some(ps)
        }
        None => None,
    };
    let spec = match f.get("points") {
        Some(s) => parse_points_spec(s, quick)?,
        None => SweepSpec::Grid {
            workload: f.require("workload")?.to_string(),
            configs: match protocol_configs {
                Some(ps) => ps,
                None => {
                    let cs = f.list("config", &["wbi", "cbl", "bc-cbl"]);
                    if f.get("config").is_some() {
                        for c in &cs {
                            check_config(c)?;
                        }
                    }
                    cs
                }
            },
            nodes: parse_nodes(&f.list(
                "nodes",
                if quick {
                    &["4", "8"]
                } else {
                    &["4", "8", "16", "32"]
                },
            ))?,
        },
    };

    let mut exp = Experiment::new("sweep").seed(master);
    match &spec {
        SweepSpec::Grid {
            workload,
            configs,
            nodes,
        } => {
            for &n in nodes {
                for c in configs {
                    // validate the cell eagerly so usage errors surface
                    // before any simulation starts
                    let mut cfg = parse_config(c, n)?;
                    sim.apply(&mut cfg)?;
                    adapt_geometry(&mut cfg, workload, n);
                    check_workload(workload)?;
                    let wl_name = workload.clone();
                    let tasks = tasks_flag.unwrap_or(8 * n);
                    exp.point_with(
                        format!("{wl_name}/{c}/n={n}"),
                        &[
                            ("workload", wl_name.clone()),
                            ("config", c.clone()),
                            ("nodes", n.to_string()),
                        ],
                        move |ctx| {
                            let (wl, locks) =
                                sweep_workload(&wl_name, n, grain, tasks, shape, ctx.seed);
                            let r = Machine::builder(cfg.clone())
                                .workload(wl)
                                .locks(locks)
                                .profile(profile)
                                .spans(spans)
                                .check(check)
                                .build()
                                .expect("config validated at registration")
                                .run();
                            if let Some(v) = r.violations.first() {
                                // points run under catch_unwind: a panic is
                                // recorded as a failed point, not a crash
                                panic!("{}", v.render());
                            }
                            PointOutput::from_report(r, |r| {
                                vec![
                                    ("completion".into(), r.completion as f64),
                                    ("messages".into(), r.total_messages() as f64),
                                    ("packets".into(), r.net_packets as f64),
                                ]
                            })
                        },
                    );
                }
            }
        }
        SweepSpec::Table3 { nodes } => {
            use ssmp_bench::scenarios::{one_barrier, parallel_lock, serial_lock};
            use ssmp_engine::stats::keys;
            const T_CS: u64 = 20;
            if profile {
                // the scenario helpers assemble their machines internally;
                // use SSMP_PROFILE=1 (process-wide) to profile them
                return Err("--profile is not supported with --points table3; \
                     set SSMP_PROFILE=1 instead"
                    .into());
            }
            if spans {
                // same story as --profile: the helpers build their own
                // machines, but the builder also arms off the environment
                return Err("--spans is not supported with --points table3; \
                     set SSMP_SPANS=1 instead"
                    .into());
            }
            if check {
                // same story as --profile: the helpers build their own
                // machines, but the builder also arms off the environment
                return Err("--check is not supported with --points table3; \
                     set SSMP_CHECK=1 instead"
                    .into());
            }
            for &n in nodes {
                for (scenario, scheme) in [
                    ("par", "WBI"),
                    ("par", "CBL"),
                    ("ser", "WBI"),
                    ("ser", "CBL"),
                    ("barr", "WBI"),
                    ("barr", "CBL"),
                ] {
                    let mut cfg = match scheme {
                        "WBI" => MachineConfig::wbi(n),
                        _ => MachineConfig::cbl(n),
                    };
                    sim.apply(&mut cfg)?;
                    exp.point_with(
                        format!("n={n}/{scenario}/{scheme}"),
                        &[
                            ("nodes", n.to_string()),
                            ("scenario", scenario.to_string()),
                            ("scheme", scheme.to_string()),
                        ],
                        move |_| {
                            let msg_prefix = match (scenario, scheme) {
                                ("barr", "WBI") => keys::MSG_PREFIX,
                                ("barr", _) => keys::MSG_BAR_PREFIX,
                                (_, "WBI") => keys::MSG_WBI_PREFIX,
                                _ => keys::MSG_CBL_PREFIX,
                            };
                            let r = match scenario {
                                "par" => parallel_lock(cfg.clone(), T_CS),
                                "ser" => serial_lock(cfg.clone(), T_CS),
                                _ => one_barrier(cfg.clone()),
                            };
                            PointOutput::from_report(r, |r| {
                                vec![
                                    ("messages".into(), r.messages(msg_prefix) as f64),
                                    ("cycles".into(), r.completion as f64),
                                ]
                            })
                        },
                    );
                }
            }
        }
    }

    let opts = RunnerOpts::new()
        .jobs(jobs)
        .progress(!json && std::env::var_os("SSMP_NO_PROGRESS").is_none());
    let sweep = exp.run(&opts);

    if json {
        println!("{}", sweep.to_json());
    } else {
        match &spec {
            SweepSpec::Grid {
                configs,
                nodes,
                workload,
            } => {
                print!("{:>6}", "n");
                for c in configs {
                    print!(" {c:>12}");
                }
                println!();
                for &n in nodes {
                    print!("{n:>6}");
                    for c in configs {
                        let label = format!("{workload}/{c}/n={n}");
                        match sweep.get(&label).and_then(|p| p.value("completion")) {
                            Some(v) => print!(" {:>12}", v as u64),
                            None => print!(" {:>12}", "FAILED"),
                        }
                    }
                    println!();
                }
            }
            SweepSpec::Table3 { nodes } => {
                let cols = [
                    ("par", "WBI"),
                    ("par", "CBL"),
                    ("ser", "WBI"),
                    ("ser", "CBL"),
                    ("barr", "WBI"),
                    ("barr", "CBL"),
                ];
                print!("{:>6}", "n");
                for (sc, s) in cols {
                    print!(" {:>12}", format!("{sc} {s}"));
                }
                println!("  (messages)");
                for &n in nodes {
                    print!("{n:>6}");
                    for (sc, s) in cols {
                        let label = format!("n={n}/{sc}/{s}");
                        match sweep.get(&label).and_then(|p| p.value("messages")) {
                            Some(v) => print!(" {:>12}", v as u64),
                            None => print!(" {:>12}", "FAILED"),
                        }
                    }
                    println!();
                }
            }
        }
    }
    if let Some(path) = f.get("out") {
        std::fs::write(path, sweep.to_json() + "\n").map_err(|e| format!("--out {path}: {e}"))?;
    }
    let fails = sweep.failures();
    if !fails.is_empty() {
        eprintln!("{} of {} points failed:", fails.len(), sweep.points.len());
        for p in &fails {
            eprintln!("  {}: {}", p.label, p.error().unwrap());
            if let ssmp_bench::exp::PointStatus::Deadlock(d) = &p.status {
                for line in d.render().lines() {
                    eprintln!("    {line}");
                }
            }
        }
        std::process::exit(1);
    }
    // Differential gate: diff this sweep's artifact against a committed
    // baseline (the diff engine's key classes decide what may move).
    if let Some(base_path) = f.get("diff-against") {
        let base = ssmp_diff::Artifact::parse(&read_input(base_path)?)
            .map_err(|e| format!("--diff-against {base_path}: {e}"))?;
        let current = ssmp_diff::Artifact::parse(&sweep.to_json())
            .map_err(|e| format!("internal error: sweep artifact unparseable: {e}"))?;
        let policy = ssmp_diff::DiffPolicy {
            tolerance: f.num::<f64>("tolerance", 0.5)?,
        };
        let d = ssmp_diff::Diff::between(&base, &current, base_path, "this sweep", &policy)?;
        print!("{}", d.render(f.num::<usize>("top", 8)?));
        let violations = d.violations();
        if !violations.is_empty() {
            eprintln!("{} violation(s) against {base_path}:", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}

fn program(f: &Flags) -> Result<(), String> {
    use ssmp_machine::Op;
    let path = f.require("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let progs = ssmp_machine::asm::parse_programs(&text).map_err(|e| e.to_string())?;
    let nodes = progs.len().next_power_of_two().max(2);
    // Barriers are global: every program must carry the same count, and
    // power-of-two padding nodes must participate too or the machine
    // deadlocks.
    let barrier_counts: Vec<usize> = progs
        .iter()
        .map(|p| p.iter().filter(|o| matches!(o, Op::Barrier)).count())
        .collect();
    let barriers = barrier_counts.first().copied().unwrap_or(0);
    if barrier_counts.iter().any(|&c| c != barriers) {
        return Err(format!(
            "barriers are global: every program needs the same barrier count, got {barrier_counts:?}"
        ));
    }
    // Size locks and semaphores from what the programs actually use.
    let mut max_lock = 1usize;
    let mut uses_sems = false;
    let mut max_sem = 0usize;
    for op in progs.iter().flatten() {
        match *op {
            Op::Lock(l, _)
            | Op::Unlock(l)
            | Op::LockedRead(l, _)
            | Op::LockedWrite(l, _)
            | Op::LockedWriteVal(l, _, _) => max_lock = max_lock.max(l + 1),
            Op::SemP(sid) | Op::SemV(sid) => {
                uses_sems = true;
                max_sem = max_sem.max(sid + 1);
            }
            _ => {}
        }
    }
    let mut streams = progs;
    streams.resize_with(nodes, || vec![Op::Barrier; barriers]);
    let mut cfg = parse_config(config_selector(f)?, nodes)?;
    let sim = SimFlags::parse(f)?;
    sim.apply(&mut cfg)?;
    cfg.record_reads = true;
    let sems: Vec<u64> = f
        .list("sems", &[])
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad semaphore credit '{s}'")))
        .collect::<Result<_, _>>()?;
    if uses_sems && sems.len() < max_sem {
        return Err(format!(
            "the program uses semaphore ids up to {} — pass --sems with {} credit value(s)",
            max_sem - 1,
            max_sem
        ));
    }
    let wl = ssmp_machine::op::Script::new(streams);
    let tracer = build_tracer(f)?;
    let r = Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(max_lock + 1)
        .semaphores(&sems)
        .tracer(tracer)
        .profile(sim.profile)
        .spans(sim.spans)
        .check(sim.check)
        .build()
        .unwrap()
        .run();
    print_report(&r, f.has("json"));
    if !f.has("json") && !r.read_log.is_empty() {
        println!("reads observed:");
        for (n, b, w, v) in &r.read_log {
            println!("  node {n}: block {b} word {w} = {v}");
        }
    }
    write_profile_out(&r, f)?;
    write_spans_out(&r, f)
}

fn trace_capture(f: &Flags) -> Result<(), String> {
    let nodes = f.num::<usize>("nodes", 8)?;
    let workload = f.require("workload")?;
    let out = f.require("out")?;
    let seed = f.num::<u64>("seed", 0xC11)?;
    // capture consumes the workload directly (idealised schedule)
    let grain = parse_grain(f.get("grain").unwrap_or("medium"))?;
    let tasks = f.num::<usize>("tasks", 8 * nodes)?;
    let trace = match workload {
        "sync" => {
            let mut p = SyncParams::paper(nodes, grain.refs(), tasks.div_ceil(nodes));
            p.seed = seed;
            Trace::capture(SyncModel::new(p), format!("sync n={nodes}"), seed)
        }
        "work-queue" => {
            let mut p = WorkQueueParams::strong(nodes, grain, tasks);
            p.seed = seed;
            Trace::capture(WorkQueue::new(p), format!("work-queue n={nodes}"), seed)
        }
        other => {
            return Err(format!(
                "trace capture supports sync|work-queue, not '{other}'"
            ))
        }
    };
    std::fs::write(out, trace.to_json()).map_err(|e| e.to_string())?;
    println!(
        "captured {} ops over {} nodes -> {out}",
        trace.len(),
        trace.nodes()
    );
    Ok(())
}

fn trace_replay(f: &Flags) -> Result<(), String> {
    use ssmp_machine::Op;
    let path = f.require("in")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let trace = Trace::from_json(&text)?;
    let mut cfg = parse_config(config_selector(f)?, trace.nodes())?;
    let sim = SimFlags::parse(f)?;
    sim.apply(&mut cfg)?;
    // size the lock space from the trace contents
    let mut max_lock = 1usize;
    for op in trace.streams.iter().flatten() {
        if let Op::Lock(l, _)
        | Op::Unlock(l)
        | Op::LockedRead(l, _)
        | Op::LockedWrite(l, _)
        | Op::LockedWriteVal(l, _, _) = *op
        {
            max_lock = max_lock.max(l + 1);
        }
    }
    let tracer = build_tracer(f)?;
    let r = Machine::builder(cfg)
        .workload(Box::new(trace.replay()))
        .locks(max_lock + 1)
        .tracer(tracer)
        .profile(sim.profile)
        .spans(sim.spans)
        .check(sim.check)
        .build()
        .unwrap()
        .run();
    print_report(&r, f.has("json"));
    write_profile_out(&r, f)?;
    write_spans_out(&r, f)
}

/// Reads an input operand; `-` reads stdin so pipelines compose
/// (`ssmp run --json ... | ssmp diff baseline.json -`).
fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        use std::io::Read as _;
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

/// `ssmp diff <a> <b>`: aligns two artifacts of the same kind (run
/// reports, sweeps, profiles, span sets) and explains where the cycles,
/// messages, and contention moved. `--json`/`--out` emit the
/// deterministic `ssmp-diff-v1` document; `--gate` exits 1 on policy
/// violations.
fn diff(pos: &[String], f: &Flags) -> Result<(), String> {
    let [a_path, b_path] = pos else {
        return Err(format!(
            "diff needs exactly two artifact paths (got {}): ssmp diff <a> <b>",
            pos.len()
        ));
    };
    let a =
        ssmp_diff::Artifact::parse(&read_input(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
    let b =
        ssmp_diff::Artifact::parse(&read_input(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
    let policy = ssmp_diff::DiffPolicy {
        tolerance: f.num::<f64>("tolerance", 0.5)?,
    };
    let d = ssmp_diff::Diff::between(&a, &b, a_path, b_path, &policy)?;
    if f.has("json") {
        println!("{}", d.to_json().render());
    } else {
        print!("{}", d.render(f.num::<usize>("top", 8)?));
    }
    if let Some(out) = f.get("out") {
        std::fs::write(out, d.to_json().render() + "\n")
            .map_err(|e| format!("--out {out}: {e}"))?;
    }
    if f.has("gate") {
        let violations = d.violations();
        if !violations.is_empty() {
            eprintln!("{} violation(s):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}

/// Folds a `--trace` JSONL file into the same `ssmp-profile-v1` profile
/// a live `--profile` run produces — byte-identical JSON, so the two
/// paths can be diffed against each other (and are, in CI).
fn analyze(f: &Flags) -> Result<(), String> {
    let path = f.require("in")?;
    let text = read_input(path).map_err(|e| format!("--in {e}"))?;
    let profile =
        ssmp_profile::Profile::from_jsonl(text.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
    if f.has("json") {
        println!("{}", profile.to_json().render());
    } else {
        let top = f.num::<usize>("top", 8)?;
        print!("{}", profile.render_table(top));
    }
    if let Some(out) = f.get("out") {
        std::fs::write(out, profile.to_json().render() + "\n")
            .map_err(|e| format!("--out {out}: {e}"))?;
    }
    Ok(())
}

/// Stitches a `--trace` JSONL file into the same `ssmp-span-v1` span set
/// a live `--spans` run produces — byte-identical JSON, so the two paths
/// can be diffed against each other (and are, in CI).
fn spans(f: &Flags) -> Result<(), String> {
    let path = f.require("in")?;
    let text = read_input(path).map_err(|e| format!("--in {e}"))?;
    let set =
        ssmp_span::SpanSet::from_jsonl(text.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
    if f.has("json") {
        println!("{}", set.to_json().render());
    } else {
        let top = f.num::<usize>("top", 8)?;
        print!("{}", set.render_table(top));
    }
    if let Some(out) = f.get("out") {
        std::fs::write(out, set.to_json().render() + "\n")
            .map_err(|e| format!("--out {out}: {e}"))?;
    }
    Ok(())
}

/// Summarizes (and optionally validates) an event-trace file produced by
/// `--trace`: JSONL (one event per line) or Chrome-trace/Perfetto JSON.
fn trace_stats(f: &Flags) -> Result<(), String> {
    use ssmp_engine::trace::validate_jsonl;
    use ssmp_engine::Json;
    use std::collections::BTreeMap;
    let path = f.require("in")?;
    let text = read_input(path).map_err(|e| format!("--in {e}"))?;
    let validate = f.has("validate");
    let json = f.has("json");
    // Both formats start with '{'; only a Chrome-trace file is a single
    // document with a traceEvents array (JSONL events never carry that key).
    let chrome = text
        .lines()
        .next()
        .is_some_and(|l| l.contains("\"traceEvents\"") || Json::parse(l).is_err());
    if chrome {
        // Chrome-trace / Perfetto JSON.
        let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .ok_or_else(|| format!("{path}: no traceEvents array — not a Chrome-trace file"))?;
        let mut by_phase: BTreeMap<String, u64> = BTreeMap::new();
        for ev in events {
            let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap_or("?");
            *by_phase.entry(ph.to_string()).or_insert(0) += 1;
            if validate && ev.get("ph").is_none() {
                return Err(format!("{path}: trace event without a 'ph' field"));
            }
        }
        if json {
            let doc = Json::Obj(vec![
                ("format".into(), Json::str("chrome-trace")),
                ("events".into(), Json::num(events.len() as u64)),
                (
                    "by_phase".into(),
                    Json::Obj(
                        by_phase
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::num(*v)))
                            .collect(),
                    ),
                ),
            ]);
            println!("{}", doc.render());
            return Ok(());
        }
        println!("chrome-trace: {} events", events.len());
        for (ph, n) in &by_phase {
            let label = match ph.as_str() {
                "M" => "metadata",
                "X" => "span",
                "i" => "instant",
                "s" => "flow-start",
                "f" => "flow-end",
                _ => "other",
            };
            println!("  ph={ph} ({label}): {n}");
        }
        return Ok(());
    }
    // JSONL: one event object per line.
    let mut total = 0u64;
    let mut by_key: BTreeMap<String, u64> = BTreeMap::new();
    let mut first: Option<u64> = None;
    let mut last = 0u64;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        if validate {
            validate_jsonl(&doc).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        }
        total += 1;
        let fam = doc.get("family").and_then(|v| v.as_str()).unwrap_or("?");
        let kind = doc.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
        *by_key.entry(format!("{fam}/{kind}")).or_insert(0) += 1;
        if let Some(c) = doc.get("cycle").and_then(|v| v.as_u64()) {
            first = Some(first.map_or(c, |f| f.min(c)));
            last = last.max(c);
        }
    }
    // Span-stitching health: re-fold the stream through the span
    // stitcher so a truncated or filtered trace is diagnosed here
    // before anyone trusts `ssmp spans` output built from it.
    let h = ssmp_span::SpanSet::from_jsonl(text.as_bytes())
        .map_err(|e| format!("{path}: {e}"))?
        .health();
    if json {
        let mut fields = vec![
            ("format".to_string(), Json::str("jsonl")),
            ("events".into(), Json::num(total)),
            (
                "cycles".into(),
                Json::Obj(vec![
                    ("first".into(), Json::num(first.unwrap_or(0))),
                    ("last".into(), Json::num(last)),
                ]),
            ),
            (
                "by_key".into(),
                Json::Obj(
                    by_key
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
            (
                "span_stitching".into(),
                Json::Obj(vec![
                    ("spans".into(), Json::num(h.spans)),
                    ("orphan_begins".into(), Json::num(h.orphan_begins)),
                    ("orphan_ends".into(), Json::num(h.orphan_ends)),
                    ("links".into(), Json::num(h.links)),
                    ("dangling_links".into(), Json::num(h.dangling_links)),
                    ("wires".into(), Json::num(h.wires)),
                    ("undelivered_wires".into(), Json::num(h.undelivered_wires)),
                    ("unmatched_delivers".into(), Json::num(h.unmatched_delivers)),
                    ("clean".into(), Json::Bool(h.clean())),
                ]),
            ),
        ];
        if validate {
            fields.push(("validation".into(), Json::str("ok")));
        }
        println!("{}", Json::Obj(fields).render());
        return Ok(());
    }
    println!(
        "jsonl: {} events over cycles {}..{}",
        total,
        first.unwrap_or(0),
        last
    );
    for (k, n) in &by_key {
        println!("  {k}: {n}");
    }
    println!(
        "span stitching: spans={} orphan-begins={} orphan-ends={} links={} \
         dangling-links={} wires={} undelivered={} unmatched-delivers={} -> {}",
        h.spans,
        h.orphan_begins,
        h.orphan_ends,
        h.links,
        h.dangling_links,
        h.wires,
        h.undelivered_wires,
        h.unmatched_delivers,
        if h.clean() { "clean" } else { "DEGRADED" }
    );
    if validate {
        println!("validation: ok");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&v(&["frobnicate"])).is_err());
        assert!(dispatch(&v(&[])).is_err());
    }

    #[test]
    fn run_executes_small_machine() {
        dispatch(&v(&[
            "run",
            "--workload",
            "work-queue",
            "--config",
            "bc-cbl",
            "--nodes",
            "4",
            "--grain",
            "fine",
            "--tasks",
            "8",
        ]))
        .unwrap();
    }

    #[test]
    fn run_rejects_non_power_of_two_nodes() {
        let e = dispatch(&v(&[
            "run",
            "--workload",
            "sync",
            "--config",
            "cbl",
            "--nodes",
            "12",
        ]))
        .unwrap_err();
        assert!(e.contains("power of two"), "{e}");
    }

    #[test]
    fn run_rejects_bad_config() {
        let e = dispatch(&v(&["run", "--workload", "sync", "--config", "zzz"])).unwrap_err();
        assert!(e.contains("unknown config"));
    }

    #[test]
    fn run_accepts_every_protocol() {
        for p in PROTOCOLS {
            dispatch(&v(&[
                "run",
                "--workload",
                "sync",
                "--protocol",
                p,
                "--nodes",
                "4",
            ]))
            .unwrap();
        }
    }

    #[test]
    fn run_rejects_unknown_protocol() {
        let e = dispatch(&v(&["run", "--workload", "sync", "--protocol", "moesi"])).unwrap_err();
        assert!(e.contains("unknown protocol"), "{e}");
        assert!(e.contains("ric|wbi|mesi|dragon"), "{e}");
    }

    #[test]
    fn protocol_and_config_flags_conflict() {
        let e = dispatch(&v(&[
            "run",
            "--workload",
            "sync",
            "--protocol",
            "mesi",
            "--config",
            "cbl",
        ]))
        .unwrap_err();
        assert!(e.contains("--protocol") && e.contains("--config"), "{e}");
    }

    #[test]
    fn sweep_accepts_protocol_list() {
        dispatch(&v(&[
            "sweep",
            "--workload",
            "sync",
            "--protocol",
            "ric,mesi,dragon",
            "--nodes",
            "4",
            "--quick",
        ]))
        .unwrap();
    }

    #[test]
    fn solver_and_fft_resize_geometry() {
        for wl in ["solver", "fft"] {
            dispatch(&v(&[
                "run",
                "--workload",
                wl,
                "--config",
                "sc-cbl",
                "--nodes",
                "8",
            ]))
            .unwrap();
        }
    }

    #[test]
    fn hotspot_runs_with_fraction() {
        dispatch(&v(&[
            "run",
            "--workload",
            "hotspot",
            "--config",
            "sc-cbl",
            "--nodes",
            "4",
            "--hot",
            "0.5",
            "--grain",
            "fine",
        ]))
        .unwrap();
    }

    #[test]
    fn trace_capture_then_replay_roundtrip() {
        let dir = std::env::temp_dir().join("ssmp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let path_s = path.to_str().unwrap();
        dispatch(&v(&[
            "trace",
            "capture",
            "--workload",
            "sync",
            "--nodes",
            "4",
            "--tasks",
            "8",
            "--out",
            path_s,
        ]))
        .unwrap();
        dispatch(&v(&["trace", "replay", "--in", path_s, "--config", "cbl"])).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn program_subcommand_runs_sasm() {
        let dir = std::env::temp_dir().join("ssmp_cli_prog");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.sasm");
        std::fs::write(
            &path,
            "writeval 0.0 7\nflush\nbarrier\n---\nbarrier\nread 0.0\n",
        )
        .unwrap();
        dispatch(&v(&[
            "program",
            "--file",
            path.to_str().unwrap(),
            "--config",
            "bc-cbl",
        ]))
        .unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn program_pads_barrier_participants() {
        // three programs with barriers pad to a 4-node machine; the idle
        // node must still participate or this deadlocks
        let dir = std::env::temp_dir().join("ssmp_cli_prog3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.sasm");
        std::fs::write(&path, "compute 5\nbarrier\n---\nbarrier\n---\nbarrier\n").unwrap();
        dispatch(&v(&[
            "program",
            "--file",
            path.to_str().unwrap(),
            "--config",
            "cbl",
        ]))
        .unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn program_rejects_unequal_barriers() {
        let dir = std::env::temp_dir().join("ssmp_cli_prog4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ub.sasm");
        std::fs::write(&path, "barrier\nbarrier\n---\nbarrier\n").unwrap();
        let e = dispatch(&v(&[
            "program",
            "--file",
            path.to_str().unwrap(),
            "--config",
            "cbl",
        ]))
        .unwrap_err();
        assert!(e.contains("same barrier count"), "{e}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn program_requires_sems_when_used() {
        let dir = std::env::temp_dir().join("ssmp_cli_prog5");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sasm");
        std::fs::write(&path, "semp 0\nsemv 0\n---\ncompute 1\n").unwrap();
        let e = dispatch(&v(&[
            "program",
            "--file",
            path.to_str().unwrap(),
            "--config",
            "cbl",
        ]))
        .unwrap_err();
        assert!(e.contains("--sems"), "{e}");
        // and with credits provided it runs
        dispatch(&v(&[
            "program",
            "--file",
            path.to_str().unwrap(),
            "--config",
            "cbl",
            "--sems",
            "1",
        ]))
        .unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn program_reports_parse_errors() {
        let dir = std::env::temp_dir().join("ssmp_cli_prog2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.sasm");
        std::fs::write(&path, "bogus 1\n").unwrap();
        let e = dispatch(&v(&[
            "program",
            "--file",
            path.to_str().unwrap(),
            "--config",
            "cbl",
        ]))
        .unwrap_err();
        assert!(e.contains("line 1"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_prints_matrix() {
        dispatch(&v(&[
            "sweep",
            "--workload",
            "work-queue",
            "--config",
            "cbl,bc-cbl",
            "--nodes",
            "4,8",
            "--grain",
            "fine",
            "--tasks",
            "8",
        ]))
        .unwrap();
    }

    #[test]
    fn points_spec_parses_all_forms() {
        match parse_points_spec("table3", false).unwrap() {
            SweepSpec::Table3 { nodes } => assert_eq!(nodes, vec![4, 8, 16, 32, 64]),
            _ => panic!("expected table3 spec"),
        }
        match parse_points_spec("table3", true).unwrap() {
            SweepSpec::Table3 { nodes } => assert_eq!(nodes, vec![4, 16]),
            _ => panic!("expected quick table3 spec"),
        }
        match parse_points_spec("table3:4,8", false).unwrap() {
            SweepSpec::Table3 { nodes } => assert_eq!(nodes, vec![4, 8]),
            _ => panic!("expected table3 spec with nodes"),
        }
        match parse_points_spec("sync:wbi,cbl:4,16", false).unwrap() {
            SweepSpec::Grid {
                workload,
                configs,
                nodes,
            } => {
                assert_eq!(workload, "sync");
                assert_eq!(configs, vec!["wbi", "cbl"]);
                assert_eq!(nodes, vec![4, 16]);
            }
            _ => panic!("expected grid spec"),
        }
        assert!(parse_points_spec("table3:4,12", false).is_err());
        assert!(parse_points_spec("sync:wbi", false).is_err());
        assert!(parse_points_spec("a:b:c:d", false).is_err());
    }

    #[test]
    fn sweep_points_table3_writes_artifact_independent_of_jobs() {
        let dir = std::env::temp_dir().join("ssmp_cli_sweep_jobs");
        std::fs::create_dir_all(&dir).unwrap();
        let out1 = dir.join("j1.json");
        let out2 = dir.join("j2.json");
        for (jobs, out) in [("1", &out1), ("4", &out2)] {
            dispatch(&v(&[
                "sweep",
                "--points",
                "table3:4",
                "--jobs",
                jobs,
                "--json",
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let a = std::fs::read_to_string(&out1).unwrap();
        let b = std::fs::read_to_string(&out2).unwrap();
        assert_eq!(a, b, "sweep artifact must not depend on --jobs");
        assert!(a.contains("\"n=4/par/WBI\""));
        assert!(a.contains("\"messages\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_grid_spec_runs_with_explicit_seed() {
        dispatch(&v(&[
            "sweep",
            "--points",
            "work-queue:cbl:4",
            "--grain",
            "fine",
            "--tasks",
            "8",
            "--seed",
            "7",
            "--jobs",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn sweep_rejects_bad_points_spec() {
        assert!(dispatch(&v(&["sweep", "--points", "nope:cbl:4"])).is_err());
        assert!(dispatch(&v(&["sweep", "--points", "table3:6"])).is_err());
    }

    #[test]
    fn traced_run_writes_jsonl_and_stats_validates() {
        let dir = std::env::temp_dir().join("ssmp_cli_trace_jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ev.jsonl");
        let path_s = path.to_str().unwrap();
        dispatch(&v(&[
            "run",
            "--workload",
            "work-queue",
            "--config",
            "bc-cbl",
            "--nodes",
            "4",
            "--grain",
            "fine",
            "--tasks",
            "8",
            "--trace",
            path_s,
            "--metrics-interval",
            "100",
            "--json",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "trace file empty");
        dispatch(&v(&["trace", "stats", "--in", path_s, "--validate"])).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn traced_run_writes_perfetto_and_stats_reads_it() {
        let dir = std::env::temp_dir().join("ssmp_cli_trace_perfetto");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ev.json");
        let path_s = path.to_str().unwrap();
        dispatch(&v(&[
            "run",
            "--workload",
            "sync",
            "--config",
            "cbl",
            "--nodes",
            "4",
            "--tasks",
            "4",
            "--trace",
            path_s,
            "--trace-format",
            "perfetto",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("traceEvents"));
        dispatch(&v(&["trace", "stats", "--in", path_s])).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_filter_rejects_unknown_token() {
        let e = dispatch(&v(&[
            "run",
            "--workload",
            "sync",
            "--config",
            "cbl",
            "--nodes",
            "4",
            "--trace",
            "/tmp/ssmp_never_written.jsonl",
            "--trace-filter",
            "bogus-token",
        ]))
        .unwrap_err();
        assert!(e.contains("bogus-token"), "{e}");
    }

    #[test]
    fn profiled_run_matches_offline_analyze() {
        // the tentpole guarantee: the live ProfileSink and the offline
        // `ssmp analyze` fold of the same trace emit identical JSON
        let dir = std::env::temp_dir().join("ssmp_cli_profile_equiv");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        let live = dir.join("live.json");
        let offline = dir.join("offline.json");
        dispatch(&v(&[
            "run",
            "--workload",
            "hotspot",
            "--config",
            "cbl",
            "--nodes",
            "4",
            "--hot",
            "0.8",
            "--hot-lock",
            "--grain",
            "fine",
            "--trace",
            trace.to_str().unwrap(),
            &format!("--profile={}", live.display()),
            "--json",
        ]))
        .unwrap();
        dispatch(&v(&[
            "analyze",
            "--in",
            trace.to_str().unwrap(),
            "--out",
            offline.to_str().unwrap(),
            "--top",
            "4",
        ]))
        .unwrap();
        let a = std::fs::read_to_string(&live).unwrap();
        let b = std::fs::read_to_string(&offline).unwrap();
        assert!(!a.is_empty() && a.contains("ssmp-profile-v1"));
        assert_eq!(a, b, "live sink and offline analyze diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_requires_input_file() {
        assert!(dispatch(&v(&["analyze"])).is_err());
        assert!(dispatch(&v(&["analyze", "--in", "/nonexistent/ssmp.jsonl"])).is_err());
    }

    #[test]
    fn spanned_run_matches_offline_spans() {
        // the tentpole guarantee: the live SpanSink and the offline
        // `ssmp spans` stitch of the same trace emit identical JSON
        let dir = std::env::temp_dir().join("ssmp_cli_spans_equiv");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        let live = dir.join("live.json");
        let offline = dir.join("offline.json");
        dispatch(&v(&[
            "run",
            "--workload",
            "work-queue",
            "--config",
            "bc-cbl",
            "--nodes",
            "4",
            "--grain",
            "fine",
            "--trace",
            trace.to_str().unwrap(),
            &format!("--spans={}", live.display()),
            "--json",
        ]))
        .unwrap();
        dispatch(&v(&[
            "spans",
            "--in",
            trace.to_str().unwrap(),
            "--out",
            offline.to_str().unwrap(),
            "--top",
            "4",
        ]))
        .unwrap();
        let a = std::fs::read_to_string(&live).unwrap();
        let b = std::fs::read_to_string(&offline).unwrap();
        assert!(!a.is_empty() && a.contains("ssmp-span-v1"));
        assert_eq!(a, b, "live sink and offline spans diverged");
        // and trace stats reports the stitch as clean
        dispatch(&v(&["trace", "stats", "--in", trace.to_str().unwrap()])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_requires_input_file() {
        assert!(dispatch(&v(&["spans"])).is_err());
        assert!(dispatch(&v(&["spans", "--in", "/nonexistent/ssmp.jsonl"])).is_err());
    }

    #[test]
    fn spans_rejects_trace_filter() {
        let e = dispatch(&v(&[
            "run",
            "--workload",
            "sync",
            "--config",
            "cbl",
            "--nodes",
            "4",
            "--spans",
            "--trace",
            "/tmp/ssmp_never_written4.jsonl",
            "--trace-filter",
            "cbl",
        ]))
        .unwrap_err();
        assert!(e.contains("--spans") && e.contains("--trace-filter"), "{e}");
    }

    #[test]
    fn sweep_embeds_spans_in_artifact() {
        let dir = std::env::temp_dir().join("ssmp_cli_sweep_spans");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("a.json");
        dispatch(&v(&[
            "sweep",
            "--points",
            "work-queue:bc-cbl:4",
            "--grain",
            "fine",
            "--tasks",
            "8",
            "--spans",
            "--json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("ssmp-span-v1"), "artifact lacks spans");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_table3_rejects_spans_flag() {
        let e = dispatch(&v(&["sweep", "--points", "table3:4", "--spans"])).unwrap_err();
        assert!(e.contains("SSMP_SPANS"), "{e}");
    }

    #[test]
    fn profile_rejects_trace_filter() {
        let e = dispatch(&v(&[
            "run",
            "--workload",
            "sync",
            "--config",
            "cbl",
            "--nodes",
            "4",
            "--profile",
            "--trace",
            "/tmp/ssmp_never_written2.jsonl",
            "--trace-filter",
            "cbl",
        ]))
        .unwrap_err();
        assert!(e.contains("--trace-filter"), "{e}");
    }

    #[test]
    fn check_rejects_trace_filter() {
        let e = dispatch(&v(&[
            "run",
            "--workload",
            "sync",
            "--config",
            "cbl",
            "--nodes",
            "4",
            "--check",
            "--trace",
            "/tmp/ssmp_never_written3.jsonl",
            "--trace-filter",
            "cbl",
        ]))
        .unwrap_err();
        assert!(e.contains("--check") && e.contains("--trace-filter"), "{e}");
    }

    #[test]
    fn repro_rejects_scenario_flags() {
        // --repro carries the whole scenario; combining it with scenario
        // flags would silently ignore one side
        for extra in [
            &["--workload", "sync"][..],
            &["--config", "cbl"],
            &["--fault-seed", "7"],
            &["--planted-bug", "cbl-dedup"],
        ] {
            let mut args = vec!["run", "--repro", "/tmp/ssmp_no_such_repro.json"];
            args.extend_from_slice(extra);
            let e = dispatch(&v(&args)).unwrap_err();
            assert!(e.contains("--repro"), "{extra:?}: {e}");
        }
    }

    #[test]
    fn armed_run_and_sweep_stay_clean() {
        dispatch(&v(&[
            "run",
            "--workload",
            "work-queue",
            "--config",
            "bc-cbl",
            "--nodes",
            "4",
            "--check",
        ]))
        .unwrap();
        let e = dispatch(&v(&["sweep", "--points", "table3", "--quick", "--check"])).unwrap_err();
        assert!(e.contains("SSMP_CHECK"), "{e}");
    }

    #[test]
    fn sor_runs_padded_and_packed() {
        for (flag, cfg) in [("--protocol", "wbi"), ("--config", "cbl")] {
            for layout in [
                &["--workload", "sor"][..],
                &["--workload", "sor", "--packed"],
            ] {
                let mut args = vec!["run"];
                args.extend_from_slice(layout);
                args.extend_from_slice(&[flag, cfg, "--nodes", "4", "--tasks", "32"]);
                dispatch(&v(&args)).unwrap();
            }
        }
    }

    #[test]
    fn sweep_embeds_profile_in_artifact() {
        let dir = std::env::temp_dir().join("ssmp_cli_sweep_profile");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("a.json");
        dispatch(&v(&[
            "sweep",
            "--points",
            "hotspot:cbl:4",
            "--grain",
            "fine",
            "--profile",
            "--json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("ssmp-profile-v1"), "artifact lacks profile");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_table3_rejects_profile_flag() {
        let e = dispatch(&v(&["sweep", "--points", "table3:4", "--profile"])).unwrap_err();
        assert!(e.contains("table3"), "{e}");
    }

    #[test]
    fn topology_flag_applies() {
        dispatch(&v(&[
            "run",
            "--workload",
            "sync",
            "--config",
            "bc-cbl",
            "--nodes",
            "4",
            "--topology",
            "bus",
            "--tasks",
            "4",
        ]))
        .unwrap();
    }
}
