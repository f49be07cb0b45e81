//! Byte-identity regression over the simulator's outputs.
//!
//! Every valid (workload, configuration) pair runs once at n=8 with quick
//! sizes and a JSONL tracer attached; the FNV-1a digests of the `--json`
//! report bytes and of the trace bytes are compared against the committed
//! table in `tests/golden/report_digests.txt`. Four dup+delay fault plans
//! with retry target one message kind each — lock-line traffic under
//! `wbi`, flag-line traffic under `dragon`, update-list traffic under
//! `bc-cbl` and lock-queue traffic under `cbl` — so routing a message
//! under the wrong kind or home changes a digest. Two more rows arm
//! `record_reads` and the sanitizer; their report digest also covers the
//! read log, so it pins every value a read returned, and the finish-time
//! cross-checks run. A refactor that
//! claims "same behaviour" must leave the table untouched; regenerate it
//! with `SSMP_BLESS=1` only for an intended behaviour change.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write;
use std::rc::Rc;

use ssmp::core::addr::Geometry;
use ssmp::engine::{JsonlSink, TraceFilter, Tracer};
use ssmp::machine::{Machine, MachineConfig, RetryPolicy, Workload};
use ssmp::net::{FaultConfig, MsgKind};
use ssmp::workload::{
    Allocation, FftParams, FftPhases, Grain, Hotspot, HotspotParams, LinearSolver, SolverParams,
    Sor, SorParams, SyncModel, SyncParams, WorkQueue, WorkQueueParams,
};

const NODES: usize = 8;
const SEED: u64 = 0xC11;

const WORKLOADS: [&str; 8] = [
    "work-queue",
    "sync",
    "solver",
    "fft",
    "hotspot",
    "hotspot-lock",
    "sor",
    "sor-packed",
];

const CONFIGS: [&str; 8] = [
    "wbi",
    "wbi-backoff",
    "cbl",
    "sc-cbl",
    "bc-cbl",
    "ric",
    "mesi",
    "dragon",
];

/// A `Write` into a buffer the test keeps a handle to after the tracer
/// (which owns the sink) is gone.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn config(name: &str) -> MachineConfig {
    match name {
        "wbi" => MachineConfig::wbi(NODES),
        "wbi-backoff" => MachineConfig::wbi_backoff(NODES),
        "cbl" => MachineConfig::cbl(NODES),
        "sc-cbl" => MachineConfig::sc_cbl(NODES),
        "bc-cbl" => MachineConfig::bc_cbl(NODES),
        "ric" => MachineConfig::ric(NODES),
        "mesi" => MachineConfig::mesi(NODES),
        "dragon" => MachineConfig::dragon(NODES),
        other => panic!("unknown config {other}"),
    }
}

/// Builds the workload (quick sizes) and sizes the shared region for it,
/// as `ssmp run` does. Returns the workload and its lock count.
fn workload(name: &str, cfg: &mut MachineConfig) -> (Box<dyn Workload>, usize) {
    let n = NODES;
    let mut fit = |blocks: usize| {
        cfg.geometry = Geometry::new(n, 4, blocks.max(cfg.geometry.shared_blocks));
    };
    match name {
        "work-queue" => {
            let mut p = WorkQueueParams::strong(n, Grain::Medium, 2 * n);
            p.seed = SEED;
            let wl = WorkQueue::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "sync" => {
            let mut p = SyncParams::paper(n, Grain::Medium.refs(), 2);
            p.seed = SEED;
            let wl = SyncModel::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "solver" => {
            let p = SolverParams::paper(n, Allocation::Packed, 2);
            fit(p.shared_blocks());
            let wl = LinearSolver::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "fft" => {
            let p = FftParams::paper(n);
            fit(p.shared_blocks());
            let wl = FftPhases::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "hotspot" | "hotspot-lock" => {
            let mut p = HotspotParams::new(n, 0.2, 40);
            p.hot_locks = name == "hotspot-lock";
            let wl = Hotspot::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "sor" | "sor-packed" => {
            fit(n);
            let p = if name == "sor-packed" {
                SorParams::packed(n, 2)
            } else {
                SorParams::new(n, 2)
            };
            let wl = Sor::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        other => panic!("unknown workload {other}"),
    }
}

/// What a case arms beyond the plain traced run.
#[derive(Clone, Copy)]
enum Extra {
    /// A dup+delay fault plan on messages of this kind, with retry.
    Faults(MsgKind),
    /// `record_reads` and the sanitizer.
    ReadsChecked,
}

/// Runs one case traced, with `extra` armed if given; returns `label
/// cycles report-digest trace-digest`.
fn digest_line(wl_name: &str, cfg_name: &str, extra: Option<Extra>) -> String {
    let mut cfg = config(cfg_name);
    let mut label = format!("{wl_name}/{cfg_name}");
    let check = matches!(extra, Some(Extra::ReadsChecked));
    match extra {
        Some(Extra::Faults(kind)) => {
            let mut plan = FaultConfig::uniform(0x5eed, 0.0, 0.2, 0.2);
            plan.kinds = Some(vec![kind]);
            cfg.fault = Some(plan);
            cfg.retry = RetryPolicy::enabled();
            label.push_str(&format!("+dup-delay-retry({kind:?})"));
        }
        Some(Extra::ReadsChecked) => {
            cfg.record_reads = true;
            label.push_str("+reads-check");
        }
        None => {}
    }
    let (wl, locks) = workload(wl_name, &mut cfg);
    let buf = SharedBuf::default();
    let mut tracer = Tracer::new(TraceFilter::all());
    tracer.add_sink(JsonlSink::new(buf.clone()));
    let report = Machine::builder(cfg)
        .workload(wl)
        .locks(locks)
        .tracer(tracer)
        .check(check)
        .build()
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .run();
    assert!(report.deadlock.is_none(), "{label}: the run wedged");
    assert!(
        report.violations.is_empty(),
        "{label}: the sanitizer flagged {:?}",
        report.violations
    );
    let mut json = report.to_json().render() + "\n";
    for (node, block, word, value) in &report.read_log {
        writeln!(json, "read {node} {block} {word} {value}").unwrap();
    }
    let trace = buf.0.borrow();
    format!(
        "{label} {} {:016x} {:016x}",
        report.completion,
        fnv1a(json.as_bytes()),
        fnv1a(&trace)
    )
}

fn cases() -> Vec<(&'static str, &'static str, Option<Extra>)> {
    let mut out: Vec<_> = WORKLOADS
        .iter()
        .flat_map(|&w| CONFIGS.iter().map(move |&c| (w, c, None)))
        .collect();
    out.push(("work-queue", "wbi", Some(Extra::Faults(MsgKind::WbiLock))));
    out.push((
        "work-queue",
        "dragon",
        Some(Extra::Faults(MsgKind::WbiFlag)),
    ));
    out.push(("work-queue", "bc-cbl", Some(Extra::Faults(MsgKind::Ric))));
    out.push(("work-queue", "cbl", Some(Extra::Faults(MsgKind::Cbl))));
    // fft runs READ-UPDATE / RESET-UPDATE phases
    out.push(("fft", "bc-cbl", Some(Extra::ReadsChecked)));
    out.push(("work-queue", "sc-cbl", Some(Extra::ReadsChecked)));
    out
}

#[test]
fn reports_and_traces_match_committed_digests() {
    // Split the cases over two threads: each run is independent and owns
    // its machine, tracer and buffer.
    let cases = cases();
    let (a, b) = cases.split_at(cases.len() / 2);
    let run = |part: &[(&str, &str, Option<Extra>)]| -> Vec<String> {
        part.iter().map(|&(w, c, f)| digest_line(w, c, f)).collect()
    };
    let lines = std::thread::scope(|s| {
        let first = s.spawn(|| run(a));
        let mut lines = run(b);
        let mut all = first.join().expect("digest thread panicked");
        all.append(&mut lines);
        all
    });
    let mut table = String::new();
    for l in &lines {
        writeln!(table, "{l}").unwrap();
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/report_digests.txt"
    );
    if std::env::var_os("SSMP_BLESS").is_some() {
        std::fs::write(path, &table).unwrap();
    }
    let golden =
        std::fs::read_to_string(path).expect("digest table missing — regenerate with SSMP_BLESS=1");
    let drifted: Vec<String> = table
        .lines()
        .zip(golden.lines())
        .filter(|(now, then)| now != then)
        .map(|(now, then)| format!("  now  {now}\n  was  {then}"))
        .collect();
    assert!(
        drifted.is_empty() && table.lines().count() == golden.lines().count(),
        "simulated output drifted from tests/golden/report_digests.txt \
         (regenerate with SSMP_BLESS=1 only if the change is intended):\n{}",
        drifted.join("\n")
    );
}
