//! End-to-end trace export: the Perfetto/Chrome-trace render of a seeded
//! run must be valid JSON with per-node tracks, stall spans, and message
//! flows; it must be bit-deterministic across runs; and tracing must be a
//! pure observer (a traced run reports exactly what an untraced run does).

use ssmp::engine::trace::{parse_jsonl_event, render_chrome_trace, MemorySink};
use ssmp::engine::{Json, TraceEvent, TraceFilter, Tracer};
use ssmp::machine::{Machine, MachineConfig, Report};
use ssmp::workload::{Grain, SyncModel, SyncParams, WorkQueue, WorkQueueParams};

/// A small fig4-style contended run (work queue under BC + CBL).
fn build(cfg: MachineConfig, tracer: Tracer) -> Machine {
    let nodes = cfg.geometry.nodes;
    let wl = WorkQueue::new(WorkQueueParams::paper(nodes, Grain::Fine, 3 * nodes));
    let locks = wl.machine_locks();
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(locks)
        .tracer(tracer)
        .build()
        .unwrap()
}

/// Runs the workload with a memory sink attached; returns the report and
/// the recorded events.
fn traced_run(cfg: MachineConfig) -> (Report, Vec<TraceEvent>) {
    let (sink, events) = MemorySink::new();
    let mut tracer = Tracer::new(TraceFilter::all()).with_ring(64);
    tracer.add_sink(sink);
    let r = build(cfg, tracer).run();
    let evs = events.borrow().clone();
    (r, evs)
}

#[test]
fn perfetto_export_is_valid_chrome_trace() {
    let (r, events) = traced_run(MachineConfig::bc_cbl(4));
    assert!(r.deadlock.is_none());
    assert!(!events.is_empty(), "no events recorded");
    let rendered = render_chrome_trace(&events);
    let doc = Json::parse(&rendered).expect("chrome trace must be valid JSON");
    let evs = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    // Per-node tracks: a thread_name metadata record for every node plus
    // the machine track.
    let names: Vec<&str> = evs
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
        })
        .collect();
    for n in ["machine", "node 0", "node 1", "node 2", "node 3"] {
        assert!(names.contains(&n), "missing track '{n}' in {names:?}");
    }
    // Stall spans are complete duration events.
    let spans = evs
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    assert!(spans > 0, "no stall spans rendered");
    for e in evs {
        if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
            assert!(e.get("dur").is_some(), "span without dur");
        }
    }
    // Message flows: every flow start has a matching finish.
    let flows_s = evs
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
        .count();
    let flows_f = evs
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
        .count();
    assert!(flows_s > 0, "no flow events rendered");
    assert!(flows_f > 0, "no flow finishes rendered");
}

#[test]
fn perfetto_export_is_bit_deterministic() {
    let (_, a) = traced_run(MachineConfig::bc_cbl(4));
    let (_, b) = traced_run(MachineConfig::bc_cbl(4));
    assert_eq!(a, b, "event streams differ between identical seeded runs");
    assert_eq!(
        render_chrome_trace(&a),
        render_chrome_trace(&b),
        "rendered traces differ between identical seeded runs"
    );
}

#[test]
fn jsonl_lines_of_a_real_run_validate() {
    let (_, events) = traced_run(MachineConfig::cbl(4));
    for ev in &events {
        let line = ev.to_jsonl();
        let doc = Json::parse(&line).expect("jsonl line must parse");
        parse_jsonl_event(&doc).expect("jsonl line must validate");
    }
}

/// Tracing must be a pure observer: attaching a tracer cannot change a
/// single counter, timing, or the final memory image.
#[test]
fn traced_run_reports_exactly_as_untraced() {
    for cfg in [
        MachineConfig::bc_cbl(4),
        MachineConfig::wbi(4),
        MachineConfig::sc_cbl(4),
    ] {
        let plain = build(cfg.clone(), Tracer::off()).run();
        let (traced, _) = traced_run(cfg);
        assert_eq!(plain.completion, traced.completion);
        assert_eq!(plain.net_packets, traced.net_packets);
        assert_eq!(plain.net_words, traced.net_words);
        assert_eq!(plain.net_queueing, traced.net_queueing);
        assert_eq!(plain.shared_memory, traced.shared_memory);
        assert_eq!(plain.lock_blocks, traced.lock_blocks);
        assert_eq!(plain.stalled_cycles, traced.stalled_cycles);
        let a: Vec<_> = plain.counters.iter().collect();
        let b: Vec<_> = traced.counters.iter().collect();
        assert_eq!(a, b, "counters diverge under tracing");
    }
}

#[test]
fn interval_metrics_sample_the_run() {
    let mut cfg = MachineConfig::bc_cbl(4);
    cfg.metrics_interval = Some(50);
    let nodes = cfg.geometry.nodes;
    let wl = SyncModel::new(SyncParams::paper(nodes, 16, 4));
    let locks = wl.machine_locks();
    let r = Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(locks)
        .build()
        .unwrap()
        .run();
    let m = r.metrics.expect("metrics series requested");
    assert_eq!(m.interval(), 50);
    assert!(!m.is_empty(), "no samples taken");
    // Sample timestamps are the interval boundaries, in order.
    for (i, (at, row)) in m.rows().iter().enumerate() {
        assert_eq!(*at, 50 * i as u64);
        assert_eq!(row.len(), m.columns().len());
    }
    // The machine did stall at some point in a contended sync run.
    let stalled: u64 = m
        .columns()
        .iter()
        .filter(|c| c.starts_with("stall."))
        .filter_map(|c| m.column(c))
        .map(|col| col.iter().sum::<u64>())
        .sum();
    assert!(stalled > 0, "stall gauges never fired");
}
