//! End-to-end checks of the transaction-level span tracer:
//!
//! * arming span stitching is observation-only — the armed report is
//!   byte-identical (via `Debug`) to an unarmed run on every paper
//!   workload × configuration;
//! * every stitched transaction's segment breakdown sums *exactly* to
//!   its end-to-end latency, and every machine-produced trace stitches
//!   cleanly (no orphans, no dangling wire links);
//! * the live span set (a sink on the tracer) and offline
//!   `SpanSet::from_jsonl` over the same trace produce byte-identical
//!   `ssmp-span-v1` JSON;
//! * span-armed runs are byte-deterministic across repeated seeded runs.

use ssmp::engine::trace::MemorySink;
use ssmp::engine::{TraceFilter, Tracer};
use ssmp::machine::{Machine, MachineConfig, Report, Workload};
use ssmp::span::SpanSet;
use ssmp::workload::{
    FftParams, FftPhases, Grain, Hotspot, HotspotParams, LinearSolver, SolverParams, Sor,
    SorParams, SyncModel, SyncParams, WorkQueue, WorkQueueParams,
};

fn paper_workloads(nodes: usize) -> Vec<(&'static str, Box<dyn Workload>, usize)> {
    let wq = WorkQueue::new(WorkQueueParams::paper(nodes, Grain::Fine, 3 * nodes));
    let wq_locks = wq.machine_locks();
    let sync = SyncModel::new(SyncParams::paper(nodes, 40, 2));
    let sync_locks = sync.machine_locks();
    let solver = LinearSolver::new(SolverParams::paper(
        nodes,
        ssmp::workload::Allocation::Packed,
        3,
    ));
    let solver_locks = solver.machine_locks();
    let fft = FftPhases::new(FftParams::paper(nodes));
    let fft_locks = fft.machine_locks();
    let hot = Hotspot::new(HotspotParams::hot_locks(nodes, 0.6, 60));
    let hot_locks = hot.machine_locks();
    let sor = Sor::new(SorParams::packed(nodes, 2));
    let sor_locks = sor.machine_locks();
    vec![
        ("work-queue", Box::new(wq) as Box<dyn Workload>, wq_locks),
        ("sync", Box::new(sync), sync_locks),
        ("solver", Box::new(solver), solver_locks),
        ("fft", Box::new(fft), fft_locks),
        ("hotspot", Box::new(hot), hot_locks),
        ("sor-packed", Box::new(sor), sor_locks),
    ]
}

fn fit_geometry(cfg: &mut MachineConfig, name: &str, nodes: usize) {
    let blocks = match name {
        "solver" => {
            SolverParams::paper(nodes, ssmp::workload::Allocation::Packed, 3).shared_blocks()
        }
        "fft" => FftParams::paper(nodes).shared_blocks(),
        // SOR owns one boundary block per node
        "sor-packed" => nodes,
        _ => cfg.geometry.shared_blocks,
    };
    cfg.geometry =
        ssmp::core::addr::Geometry::new(nodes, 4, blocks.max(cfg.geometry.shared_blocks));
}

/// Runs `wl` span-armed with a memory sink attached; returns the report
/// (carrying the live span set) and the captured event stream.
fn spanned_run(
    cfg: MachineConfig,
    wl: Box<dyn Workload>,
    locks: usize,
) -> (Report, Vec<ssmp::engine::TraceEvent>) {
    let (sink, events) = MemorySink::new();
    let mut tracer = Tracer::new(TraceFilter::all());
    tracer.add_sink(sink);
    let r = Machine::builder(cfg)
        .workload(wl)
        .locks(locks)
        .tracer(tracer)
        .spans(true)
        .build()
        .unwrap()
        .run();
    let evs = events.borrow().clone();
    (r, evs)
}

fn jsonl_of(events: &[ssmp::engine::TraceEvent]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&e.to_jsonl());
        s.push('\n');
    }
    s
}

#[test]
fn span_armed_report_is_byte_identical_to_unarmed() {
    for cfg in [
        MachineConfig::wbi(4),
        MachineConfig::wbi_backoff(4),
        MachineConfig::cbl(4),
        MachineConfig::sc_cbl(4),
        MachineConfig::bc_cbl(4),
    ] {
        for (name, _, _) in paper_workloads(4) {
            let run = |armed: bool| {
                let (_, wl, locks) = paper_workloads(4)
                    .into_iter()
                    .find(|(n, _, _)| *n == name)
                    .unwrap();
                let mut cfg = cfg.clone();
                fit_geometry(&mut cfg, name, 4);
                let mut r = Machine::builder(cfg)
                    .workload(wl)
                    .locks(locks)
                    .spans(armed)
                    .build()
                    .unwrap()
                    .run();
                assert_eq!(r.spans.is_some(), armed, "{name}: spans arming mismatch");
                // the span set is the only allowed difference
                r.spans = None;
                format!("{r:?}")
            };
            assert_eq!(
                run(true),
                run(false),
                "{name}: arming spans perturbed the simulation"
            );
        }
    }
}

#[test]
fn segments_sum_exactly_to_e2e_and_stitch_is_clean() {
    for cfg in [
        MachineConfig::wbi(4),
        MachineConfig::cbl(4),
        MachineConfig::bc_cbl(4),
        MachineConfig::mesi(4),
        MachineConfig::dragon(4),
    ] {
        for (name, wl, locks) in paper_workloads(4) {
            let mut cfg = cfg.clone();
            fit_geometry(&mut cfg, name, 4);
            let (r, _) = spanned_run(cfg, wl, locks);
            assert!(r.deadlock.is_none(), "{name} deadlocked");
            let spans = r.spans.as_ref().unwrap();
            assert!(!spans.closed.is_empty(), "{name}: no spans stitched");
            for sp in spans.closed.values() {
                let sum: u64 = sp.segments.iter().sum();
                let ty = spans.type_name(sp);
                assert_eq!(
                    sum, sp.dur,
                    "{name} txn {} ({ty} @ node {}): segment sum {} != e2e {}",
                    sp.txn, sp.node, sum, sp.dur
                );
            }
            // undelivered wires are legitimate at end of run (in-flight
            // fan-out when the last node retires), so they are outside
            // `clean()`; everything else must be spotless
            let h = spans.health();
            assert_eq!(h.orphan_ends, 0, "{name}: orphan ends");
            assert_eq!(h.dangling_links, 0, "{name}: dangling links");
            assert_eq!(h.unmatched_delivers, 0, "{name}: unmatched delivers");
            assert!(h.clean(), "{name}: stitch degraded: {h:?}");
            assert!(h.links > 0, "{name}: no wire ownership links");
        }
    }
}

#[test]
fn live_sink_equals_offline_spans_byte_for_byte() {
    for cfg in [
        MachineConfig::wbi(4),
        MachineConfig::cbl(4),
        MachineConfig::bc_cbl(4),
        MachineConfig::mesi(4),
        MachineConfig::dragon(4),
    ] {
        for (name, wl, locks) in paper_workloads(4) {
            let mut cfg = cfg.clone();
            fit_geometry(&mut cfg, name, 4);
            let (r, events) = spanned_run(cfg, wl, locks);
            let live = r.spans.as_ref().expect("span-armed run carries spans");
            let offline = SpanSet::from_jsonl(std::io::Cursor::new(jsonl_of(&events))).unwrap();
            assert_eq!(
                live.to_json().render(),
                offline.to_json().render(),
                "live/offline divergence on {name}"
            );
            assert_eq!(live, &offline, "{name}: structural divergence");
        }
    }
}

#[test]
fn spanned_runs_are_byte_deterministic() {
    let run = || {
        let mut cfg = MachineConfig::bc_cbl(4);
        fit_geometry(&mut cfg, "solver", 4);
        let wl = LinearSolver::new(SolverParams::paper(
            4,
            ssmp::workload::Allocation::Packed,
            3,
        ));
        let locks = wl.machine_locks();
        let (r, _) = spanned_run(cfg, Box::new(wl), locks);
        r.spans.unwrap().to_json().render()
    };
    assert_eq!(run(), run(), "repeated seeded runs must render identically");
}

#[test]
fn critical_path_is_causally_ordered_and_spans_the_run() {
    let wl = ssmp::workload::Sor::new(SorParams::new(4, 4));
    let locks = wl.machine_locks();
    let mut cfg = MachineConfig::bc_cbl(4);
    cfg.geometry = ssmp::core::addr::Geometry::new(4, 4, 4usize.max(cfg.geometry.shared_blocks));
    let (r, _) = spanned_run(cfg, Box::new(wl), locks);
    let spans = r.spans.as_ref().unwrap();
    let chain = spans.critical_path();
    assert!(!chain.is_empty(), "no critical path extracted");
    // each hop is reached from its predecessor via the recorded parent
    // backpointer (program-order or causal wire edge)
    for w in chain.windows(2) {
        assert_eq!(
            w[1].path_parent,
            Some(w[0].txn),
            "critical path hop {} -> {} has no dependency edge",
            w[0].txn,
            w[1].txn
        );
        assert!(
            w[0].dist < w[1].dist,
            "critical path distance not increasing at txn {}",
            w[1].txn
        );
    }
    // the chain terminates at the globally maximal chain distance, and
    // that distance is exactly the chain's summed span durations
    let tail = chain.last().unwrap();
    let max_dist = spans.closed.values().map(|s| s.dist).max().unwrap();
    assert_eq!(
        tail.dist, max_dist,
        "critical path is not the longest chain"
    );
    let summed: u64 = chain.iter().map(|s| s.dur).sum();
    assert_eq!(
        summed, tail.dist,
        "chain durations do not sum to the terminal distance"
    );
}
