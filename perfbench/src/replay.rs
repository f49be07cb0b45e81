//! `--trace 1`: one traced run of the workload, then replays of its
//! captured inputs through each layer crate's public functions.
//!
//! The simulator carries no timers of its own. Instead the traced run
//! captures the generator's op stream (a [`Capture`] wrapper around the
//! workload) and the machine's event stream (a `MemorySink` on the
//! tracer), and the benchmark replays them, timing each layer on its own:
//!
//! * `engine` — issue events and inject→deliver wire pairs, scheduled and
//!   popped through a `WheelQueue`;
//! * `net` — every injected packet, sent through an `Interconnect`;
//! * `core.ric`, `core.cbl`, `coherence.mesi`, `coherence.dragon`, `wbi`
//!   — the op stream driven through each protocol controller with
//!   in-order delivery: one transaction is delivered to quiescence before
//!   the next op starts;
//! * `workload` — the recorded `next_op` calls, made again on a fresh
//!   generator;
//! * observers — the event stream folded through each sink.
//!
//! Every controller replay ends with one join barrier per node, so the
//! lock and barrier controllers have work on every workload.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use ssmp_check::Checker;
use ssmp_coherence::{CohEffect, CohMsg, CoherenceProtocol, DragonBlock, MesiBlock};
use ssmp_core::addr::NodeId;
use ssmp_core::cbl::LockQueue;
use ssmp_core::primitive::LockMode;
use ssmp_core::ric::{RicMsg, UpdateList};
use ssmp_engine::trace::{JsonlSink, Kind, MemorySink, TraceEvent, TraceFilter, TraceSink, Tracer};
use ssmp_engine::{Cycle, SimRng, WheelQueue};
use ssmp_machine::{Op, Workload};
use ssmp_net::Interconnect;
use ssmp_profile::Profile;
use ssmp_span::SpanSet;
use ssmp_wbi::WbiBlock;

use crate::alloc::Snapshot;
use crate::calib;
use crate::workloads::{Record, Spec};
use crate::{median, reference, report_reference, Outcome};

/// Untraced runs made before the traced one; the first is a warm-up.
const UNTRACED_RUNS: usize = 5;
/// Calibration kernel runs behind `bench.calib_ms` (median).
const CALIB_RUNS: usize = 9;
/// Timed repetitions of each replay; the median is reported.
const REPLAY_REPS: usize = 3;
/// Upper bound on trace events per simulated event (the three workloads
/// emit 2.6–4.3).
const EVENTS_PER_SIM_EVENT: usize = 5;
/// Horizon of the replay's timing wheel, as the machine sizes its own.
const WHEEL_SLOTS: usize = 1024;

/// One `next_op` call: node, cycle, and what the generator returned.
type Call = (NodeId, Cycle, Option<Op>);

/// Records every `next_op` call of the wrapped generator.
struct Capture {
    inner: Box<dyn Workload>,
    calls: Rc<RefCell<Vec<Call>>>,
}

impl Workload for Capture {
    fn next_op(&mut self, node: NodeId, now: Cycle, rng: &mut SimRng) -> Option<Op> {
        let op = self.inner.next_op(node, now, rng);
        self.calls.borrow_mut().push((node, now, op));
        op
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
}

/// A replay's median host time and allocation count, and its work count
/// (events, sends or messages).
struct Timing {
    ns: f64,
    allocs: f64,
    work: u64,
}

impl Timing {
    fn ns_per(&self) -> f64 {
        self.ns / self.work as f64
    }

    fn allocs_per(&self) -> f64 {
        self.allocs / self.work as f64
    }
}

/// Times `run` on fresh state from `setup`, [`REPLAY_REPS`] times. Set-up
/// and tear-down stay outside the timed region. Returns the state of the
/// last repetition for the caller's fidelity checks.
fn time<S>(
    out: &mut Outcome,
    layer: &str,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> u64,
) -> (Timing, S) {
    let mut ns = Vec::with_capacity(REPLAY_REPS);
    let mut allocs = Vec::with_capacity(REPLAY_REPS);
    let mut first_work = None;
    let mut state = setup();
    for rep in 0..REPLAY_REPS {
        if rep > 0 {
            state = setup();
        }
        let a = Snapshot::now();
        let t = Instant::now();
        let work = black_box(run(&mut state));
        ns.push(t.elapsed().as_nanos() as f64);
        allocs.push(a.since().allocs as f64);
        match first_work {
            None => first_work = Some(work),
            Some(w) if w != work => out.problem(format!(
                "{layer} replay did not repeat: {w} then {work} items of work"
            )),
            Some(_) => {}
        }
    }
    let timing = Timing {
        ns: median(&ns),
        allocs: median(&allocs),
        work: first_work.expect("REPLAY_REPS >= 1"),
    };
    (timing, state)
}

/// `--trace 1` for `spec` at `seed`.
pub fn traced(spec: &Spec, seed: u64) -> Outcome {
    let mut out = Outcome::default();

    let mut walls = Vec::new();
    let mut expected = None;
    for i in 0..UNTRACED_RUNS {
        let m = spec.machine(seed, None, |w| w);
        let t = Instant::now();
        let r = m.run();
        let wall = t.elapsed().as_secs_f64();
        let rec = Record::of(&r);
        if i == 0 {
            expected = reference(spec, seed, &rec);
        } else {
            walls.push(wall);
        }
        out.tally(&rec, expected.as_ref());
    }
    let untraced_wall = median(&walls);
    if let Some(rec) = &expected {
        report_reference(spec, seed, rec);
    }

    let (sink, events) = MemorySink::new();
    // Room for every event up front: unwritten capacity costs no resident
    // memory, and growth by copying would double the peak.
    events
        .borrow_mut()
        .reserve(EVENTS_PER_SIM_EVENT * expected.map_or(0, |r| r.events as usize));
    let mut tracer = Tracer::new(TraceFilter::all());
    tracer.add_sink(sink);
    let calls = Rc::new(RefCell::new(Vec::new()));
    let m = spec.machine(seed, Some(tracer), |w| {
        Box::new(Capture {
            inner: w,
            calls: calls.clone(),
        })
    });
    let t = Instant::now();
    let report = m.run();
    let traced_wall = t.elapsed().as_secs_f64();
    out.tally(&Record::of(&report), expected.as_ref());
    let events = std::mem::take(&mut *events.borrow_mut());
    let calls = std::mem::take(&mut *calls.borrow_mut());
    eprintln!(
        "{}: seed {seed}, traced run captured {} events and {} generator calls; \
         {UNTRACED_RUNS} untraced runs (first is warm-up), {REPLAY_REPS} repetitions per replay (median)",
        spec.name,
        events.len(),
        calls.len()
    );

    let cfg = spec.config(seed);
    let nodes = cfg.geometry.nodes;
    let blocks = cfg.geometry.shared_blocks;
    let bw = cfg.geometry.block_words;
    let locks = spec.generator(seed).1;
    let mut ops: Vec<(NodeId, Op)> = calls
        .iter()
        .filter_map(|&(n, _, op)| op.map(|op| (n, op)))
        .collect();
    ops.extend((0..nodes).map(|n| (n, Op::Barrier)));

    // engine
    let items = engine_items(&events);
    let (engine, _) = time(
        &mut out,
        "engine",
        || WheelQueue::new(WHEEL_SLOTS),
        |q| replay_engine(q, &items),
    );
    if engine.work != items.len() as u64 {
        out.problem(format!(
            "engine replay popped {} events, {} captured",
            engine.work,
            items.len()
        ));
    }
    out.metric("engine.events", report.events_popped as f64, "count");
    out.metric("engine.ns_per_event", engine.ns_per(), "ns");
    drop(items);

    // net
    let sends = net_sends(&events);
    let (net, _) = time(
        &mut out,
        "net",
        || Interconnect::build(cfg.topology, nodes, cfg.net),
        |n| {
            for s in &sends {
                black_box(n.send(s.at, s.src, s.dst, 1));
            }
            sends.len() as u64
        },
    );
    if net.work != report.net_packets {
        out.problem(format!(
            "net replay sent {} packets, the run injected {}",
            net.work, report.net_packets
        ));
    }
    out.metric("net.packets", report.net_packets as f64, "count");
    out.metric(
        "net.queueing_per_packet",
        report.net_queueing as f64 / report.net_packets as f64,
        "cycles",
    );
    out.metric("net.max_transit", report.net_max_transit as f64, "cycles");
    out.metric("net.ns_per_send", net.ns_per(), "ns");
    out.metric("net.allocs_per_send", net.allocs_per(), "count");
    drop(sends);

    // core: RIC and CBL
    let c = &report.counters;
    let (ric, _) = time(
        &mut out,
        "core.ric",
        || (0..blocks).map(|_| UpdateList::new(bw)).collect::<Vec<_>>(),
        |lists| replay_ric(lists, &ops),
    );
    out.metric("core.ric.msgs", c.sum_prefix("msg.ric.") as f64, "count");
    out.metric(
        "core.ric.update_pushes",
        c.get("msg.ric.update_push") as f64,
        "count",
    );
    out.metric("core.ric.ns_per_msg", ric.ns_per(), "ns");
    out.metric("core.ric.allocs_per_msg", ric.allocs_per(), "count");
    let (cbl, _) = time(
        &mut out,
        "core.cbl",
        || {
            (0..locks)
                .map(|_| LockQueue::new(bw as u32))
                .collect::<Vec<_>>()
        },
        |queues| replay_cbl(queues, &ops, nodes),
    );
    out.metric("core.cbl.msgs", c.sum_prefix("msg.cbl.") as f64, "count");
    out.metric(
        "core.cbl.acquisitions",
        c.get("lock.cbl.granted") as f64,
        "count",
    );
    out.metric("core.cbl.ns_per_msg", cbl.ns_per(), "ns");
    out.metric("core.cbl.allocs_per_msg", cbl.allocs_per(), "count");
    out.metric("core.wbuf.peak", report.wbuf_peak as f64, "count");

    // coherence: MESI and Dragon through the CoherenceProtocol trait
    let (mesi, _) = time(
        &mut out,
        "coherence.mesi",
        || {
            (0..blocks)
                .map(|_| Box::new(MesiBlock::new(bw, nodes)) as Box<dyn CoherenceProtocol>)
                .collect::<Vec<_>>()
        },
        |b| replay_data(b, &ops),
    );
    out.metric(
        "coherence.mesi.msgs",
        c.sum_prefix("msg.mesi.") as f64,
        "count",
    );
    out.metric(
        "coherence.mesi.invalidations",
        c.get("msg.mesi.inv") as f64,
        "count",
    );
    out.metric("coherence.mesi.ns_per_msg", mesi.ns_per(), "ns");
    out.metric("coherence.mesi.allocs_per_msg", mesi.allocs_per(), "count");
    let (dragon, _) = time(
        &mut out,
        "coherence.dragon",
        || {
            (0..blocks)
                .map(|_| Box::new(DragonBlock::new(bw)) as Box<dyn CoherenceProtocol>)
                .collect::<Vec<_>>()
        },
        |b| replay_data(b, &ops),
    );
    out.metric(
        "coherence.dragon.msgs",
        c.sum_prefix("msg.dragon.") as f64,
        "count",
    );
    out.metric(
        "coherence.dragon.updates",
        c.get("msg.dragon.upd_push") as f64,
        "count",
    );
    out.metric("coherence.dragon.ns_per_msg", dragon.ns_per(), "ns");
    out.metric(
        "coherence.dragon.allocs_per_msg",
        dragon.allocs_per(),
        "count",
    );

    // wbi: lock blocks plus the barrier flag (the last block)
    let (wbi, _) = time(
        &mut out,
        "wbi",
        || {
            (0..=locks)
                .map(|_| Box::new(WbiBlock::new(bw)) as Box<dyn CoherenceProtocol>)
                .collect::<Vec<_>>()
        },
        |b| replay_wbi(b, &ops, nodes),
    );
    out.metric("wbi.msgs", c.sum_prefix("msg.wbi.") as f64, "count");
    out.metric("wbi.invalidations", c.get("msg.wbi.inv") as f64, "count");
    out.metric("wbi.ns_per_msg", wbi.ns_per(), "ns");
    out.metric("wbi.allocs_per_msg", wbi.allocs_per(), "count");

    // workload: the same calls on a fresh generator
    let (gen, (_, replayed)) = time(
        &mut out,
        "workload",
        || (spec.generator(seed).0, Vec::with_capacity(calls.len())),
        |(w, got)| {
            let mut rng = SimRng::new(0);
            for &(n, now, _) in &calls {
                got.push(w.next_op(n, now, &mut rng));
            }
            calls.len() as u64
        },
    );
    if !replayed.iter().eq(calls.iter().map(|c| &c.2)) {
        out.problem("workload replay returned different ops than the run saw".into());
    }
    out.metric("workload.calls", calls.len() as f64, "count");
    out.metric("workload.ns_per_call", gen.ns_per(), "ns");
    out.metric("workload.share", gen.ns / 1e9 / untraced_wall, "ratio");

    // Observers, each folding the captured events into fresh state. The
    // run folded the same events live, so equal results show the fold
    // timings measure the work the run did.
    let (jsonl, _) = fold(
        &mut out,
        "trace.jsonl",
        &events,
        || JsonlSink::new(std::io::sink()),
        |s, ev| s.record(ev),
    );
    let (profile, folded) = fold(&mut out, "profile", &events, Profile::new, |s, ev| {
        s.fold(ev)
    });
    if spec.observed && report.profile.as_ref() != Some(&folded) {
        out.problem("profile folded from the captured events differs from the run's".into());
    }
    drop(folded);
    let (span, folded) = fold(&mut out, "span", &events, SpanSet::new, |s, ev| s.fold(ev));
    if spec.observed && report.spans.as_ref() != Some(&folded) {
        out.problem("spans folded from the captured events differ from the run's".into());
    }
    drop(folded);
    let (check, _) = fold(&mut out, "check", &events, Checker::new, |s, ev| s.fold(ev));
    out.metric("trace.events", events.len() as f64, "count");
    out.metric("trace.jsonl_ns_per_event", jsonl.ns_per(), "ns");
    out.metric("profile.ns_per_event", profile.ns_per(), "ns");
    out.metric("span.ns_per_event", span.ns_per(), "ns");
    out.metric("check.ns_per_event", check.ns_per(), "ns");
    out.metric("trace.overhead", traced_wall / untraced_wall, "ratio");
    let kernel: Vec<f64> = (0..CALIB_RUNS).map(|_| calib::kernel_ms()).collect();
    out.metric("bench.calib_ms", median(&kernel), "ms");
    out
}

/// Times folding every captured event into fresh state from `new`.
fn fold<S>(
    out: &mut Outcome,
    layer: &str,
    events: &[TraceEvent],
    new: impl FnMut() -> S,
    f: impl Fn(&mut S, &TraceEvent),
) -> (Timing, S) {
    time(out, layer, new, |s| {
        for ev in events {
            f(s, ev);
        }
        events.len() as u64
    })
}

/// `(scheduled at, due)` pairs in scheduling order: each issue event is
/// scheduled at its node's previous issue, each delivered wire at its
/// injection.
fn engine_items(events: &[TraceEvent]) -> Vec<(Cycle, Cycle)> {
    let mut last_issue: HashMap<i64, Cycle> = HashMap::new();
    let mut injected: HashMap<u64, Cycle> = HashMap::new();
    let mut items = Vec::new();
    for ev in events {
        match ev.kind {
            Kind::Issue => {
                let prev = last_issue.insert(ev.node, ev.cycle).unwrap_or(0);
                items.push((prev, ev.cycle));
            }
            Kind::NetInject => {
                injected.insert(ev.id, ev.cycle);
            }
            Kind::NetDeliver => {
                if let Some(at) = injected.remove(&ev.id) {
                    items.push((at, ev.cycle));
                }
            }
            _ => {}
        }
    }
    items.sort_by_key(|&(at, _)| at);
    items
}

/// Schedules every item once the queue has popped everything due by its
/// scheduling time, then drains the queue. Returns the events popped.
fn replay_engine(q: &mut WheelQueue<usize>, items: &[(Cycle, Cycle)]) -> u64 {
    for (i, &(at, due)) in items.iter().enumerate() {
        while q.peek_time().is_some_and(|t| t <= at) {
            black_box(q.pop());
        }
        q.schedule(due, i);
    }
    while let Some(e) = q.pop() {
        black_box(e);
    }
    q.popped()
}

/// One captured packet injection.
struct Send {
    at: Cycle,
    src: usize,
    dst: usize,
}

/// Every injected packet, in injection order. Directory-side senders are
/// traced as node −1; they are the home module of the delivery being
/// processed when the packet left, i.e. the destination of the last
/// packet delivered to a directory.
fn net_sends(events: &[TraceEvent]) -> Vec<Send> {
    let mut in_flight: HashMap<u64, usize> = HashMap::new();
    let mut home = 0;
    let mut sends = Vec::new();
    for ev in events {
        match ev.kind {
            Kind::NetInject => {
                let dst = ev.arg as usize;
                in_flight.insert(ev.id, dst);
                let src = usize::try_from(ev.node).unwrap_or(home);
                sends.push(Send {
                    at: ev.cycle,
                    src,
                    dst,
                });
            }
            Kind::NetDeliver => {
                if let Some(dst) = in_flight.remove(&ev.id) {
                    if ev.node < 0 {
                        home = dst;
                    }
                }
            }
            _ => {}
        }
    }
    sends
}

/// Delivers `first` and everything it causes, in order. Returns the
/// messages delivered.
fn drain<M>(first: Vec<M>, mut deliver: impl FnMut(M) -> Vec<M>) -> u64 {
    let mut wire = VecDeque::from(first);
    let mut n = 0;
    while let Some(m) = wire.pop_front() {
        n += 1;
        wire.extend(deliver(m));
    }
    n
}

/// RIC: reads enroll (`READ-UPDATE`) unless the node is already on the
/// block's update list, writes are `WRITE-GLOBAL`s pushed down the list.
fn replay_ric(lists: &mut [UpdateList], ops: &[(NodeId, Op)]) -> u64 {
    let mut msgs = 0;
    let mut wid = 0;
    for &(n, op) in ops {
        let (block, first): (usize, Vec<RicMsg>) = match op {
            Op::SharedRead(a) | Op::SpinUntilGlobal(a, _) if !lists[a.block].is_member(n) => {
                (a.block, lists[a.block].read_update(n))
            }
            Op::ReadUpdate(b) if !lists[b].is_member(n) => (b, lists[b].read_update(n)),
            Op::ReadGlobal(a) => (a.block, lists[a.block].read_global(n, a.word)),
            Op::SharedWrite(a) | Op::SharedWriteVal(a, _) => {
                wid += 1;
                (a.block, lists[a.block].write_global(n, a.word, wid, wid))
            }
            Op::ResetUpdate(b) => (b, lists[b].leave(n)),
            _ => continue,
        };
        let list = &mut lists[block];
        msgs += drain(first, |m| list.deliver(m).0);
    }
    msgs
}

/// CBL: lock and unlock ops on their queues; a barrier arrival takes and
/// releases the last lock, as the software barrier does. Requests queue
/// in stream order, which need not be the order they reached the
/// directory in the run, so an op the queue cannot take yet (an unlock
/// before its grant, and the node's later lock ops) waits until it can.
fn replay_cbl(queues: &mut [LockQueue], ops: &[(NodeId, Op)], nodes: usize) -> u64 {
    let bar = queues.len() - 1;
    let mut deferred: Vec<VecDeque<Op>> = vec![VecDeque::new(); nodes];
    let mut blocked: Vec<NodeId> = Vec::new();
    let mut msgs = 0;
    let lock_ops = ops.iter().flat_map(|&(n, op)| {
        let expanded = match op {
            Op::Barrier => [Some(Op::Lock(bar, LockMode::Write)), Some(Op::Unlock(bar))],
            Op::Lock(..) | Op::Unlock(_) => [Some(op), None],
            _ => [None, None],
        };
        expanded.into_iter().flatten().map(move |op| (n, op))
    });
    for (n, op) in lock_ops {
        if !deferred[n].is_empty() {
            deferred[n].push_back(op);
            continue;
        }
        match try_cbl(queues, n, op) {
            Some(k) => msgs += k,
            None => {
                deferred[n].push_back(op);
                blocked.push(n);
                continue;
            }
        }
        // The queues moved: run whatever waiting ops can go now.
        let mut moved = true;
        while moved {
            moved = false;
            let mut i = 0;
            while i < blocked.len() {
                let m = blocked[i];
                while let Some(&op) = deferred[m].front() {
                    let Some(k) = try_cbl(queues, m, op) else {
                        break;
                    };
                    msgs += k;
                    deferred[m].pop_front();
                    moved = true;
                }
                if deferred[m].is_empty() {
                    blocked.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }
    msgs
}

/// Runs one CBL op to quiescence, or returns `None` if its queue cannot
/// take it yet.
fn try_cbl(queues: &mut [LockQueue], n: NodeId, op: Op) -> Option<u64> {
    let first = match op {
        Op::Lock(l, mode) if !queues[l].is_active(n) => (l, queues[l].request(n, mode)),
        Op::Unlock(l) if queues[l].holds(n) => (l, queues[l].release(n).0),
        _ => return None,
    };
    let q = &mut queues[first.0];
    Some(drain(first.1, |m| q.deliver(m).0))
}

/// Reads `word` at `node`, fetching the block on a miss.
fn coh_read(b: &mut dyn CoherenceProtocol, node: NodeId, word: u8) -> u64 {
    if b.local_read(node, word).is_some() {
        return 0;
    }
    let first = b.read_req(node);
    drain(first, |m| b.deliver(m).0)
}

/// Writes `word` at `node`, acquiring ownership (invalidate backends) or
/// serializing the store at home (Dragon) on a miss.
fn coh_write(b: &mut dyn CoherenceProtocol, node: NodeId, word: u8, value: u64) -> u64 {
    if b.local_write(node, word, value) {
        return 0;
    }
    let mut granted = false;
    let first = b.write_req(node, word, value);
    let msgs = drain(first, |m: CohMsg| {
        let (more, effects) = b.deliver(m);
        granted |= effects.iter().any(|e| {
            matches!(e, CohEffect::FilledExcl { node: x, .. } | CohEffect::UpgradeGranted { node: x } if *x == node)
        });
        more
    });
    if granted {
        b.local_write(node, word, value);
    }
    msgs
}

/// MESI and Dragon: the shared-data ops on the block's controller.
fn replay_data(blocks: &mut [Box<dyn CoherenceProtocol>], ops: &[(NodeId, Op)]) -> u64 {
    let mut msgs = 0;
    let mut stamp = 0;
    for &(n, op) in ops {
        msgs += match op {
            Op::SharedRead(a) | Op::ReadGlobal(a) | Op::SpinUntilGlobal(a, _) => {
                coh_read(blocks[a.block].as_mut(), n, a.word)
            }
            Op::ReadUpdate(b) => coh_read(blocks[b].as_mut(), n, 0),
            Op::SharedWrite(a) | Op::SharedWriteVal(a, _) => {
                stamp += 1;
                coh_write(blocks[a.block].as_mut(), n, a.word, stamp)
            }
            _ => 0,
        };
    }
    msgs
}

/// WBI as the TTS-lock and software-barrier substrate: a lock is a
/// test-and-set (ownership) of word 0 of its block and an unlock a store
/// of 0; a barrier arrival takes the last lock, bumps its count word and
/// releases it, then reads the flag (the last block) — except the last
/// arrival, which writes the flag, after which every waiter re-reads it.
fn replay_wbi(
    blocks: &mut [Box<dyn CoherenceProtocol>],
    ops: &[(NodeId, Op)],
    nodes: usize,
) -> u64 {
    let flag = blocks.len() - 1;
    let bar = flag - 1;
    let mut msgs = 0;
    let mut stamp = 0;
    let mut arrivals = 0;
    for &(n, op) in ops {
        stamp += 1;
        match op {
            Op::Lock(l, _) => msgs += coh_write(blocks[l].as_mut(), n, 0, 1),
            Op::Unlock(l) => msgs += coh_write(blocks[l].as_mut(), n, 0, 0),
            Op::LockedRead(l, w) => msgs += coh_read(blocks[l].as_mut(), n, w),
            Op::LockedWrite(l, w) | Op::LockedWriteVal(l, w, _) => {
                msgs += coh_write(blocks[l].as_mut(), n, w, stamp)
            }
            Op::Barrier => {
                msgs += coh_write(blocks[bar].as_mut(), n, 0, 1);
                msgs += coh_write(blocks[bar].as_mut(), n, 1, stamp);
                msgs += coh_write(blocks[bar].as_mut(), n, 0, 0);
                arrivals += 1;
                if arrivals % nodes == 0 {
                    msgs += coh_write(blocks[flag].as_mut(), n, 0, stamp);
                    for m in (0..nodes).filter(|&m| m != n) {
                        msgs += coh_read(blocks[flag].as_mut(), m, 0);
                    }
                } else {
                    msgs += coh_read(blocks[flag].as_mut(), n, 0);
                }
            }
            _ => {}
        }
    }
    msgs
}
