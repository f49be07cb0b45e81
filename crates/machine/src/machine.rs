//! The machine: event loop, protocol wiring, and timing.
//!
//! ## Timing model
//!
//! * Every locally-serviced operation costs one cache cycle.
//! * A protocol message departs its source, traverses the Ω network
//!   (contention included, see `ssmp-net`), and is then processed: at a
//!   **directory** (the home memory module of the block) processing costs
//!   `t_D` plus `t_m` when block data is read or written, serialised
//!   through the module; at a **node** processing costs `t_D` (the cache
//!   directory check of Table 3).
//! * A stalled processor resumes one cycle after the event that satisfies
//!   its stall.
//!
//! ## Spinning
//!
//! Spinning processors are *passive*: a node whose test-and-test-and-set
//! observed a held lock simply waits until its cached copy is invalidated
//! (the release), then re-reads — reproducing both the quiet spinning on
//! the cached copy and the burst of refills/test-and-sets at release time
//! that the paper identifies as WBI's scalability problem.

use std::collections::{BTreeMap, HashMap, HashSet};

use ssmp_coherence::{
    CohEffect, CohKind, CohOutbox, CoherenceProtocol, DragonBlock, DragonKind, MesiBlock, MesiKind,
    WbiBlock, WbiKind,
};
use ssmp_core::addr::{BlockId, NodeId};
use ssmp_core::barrier::{BarEffect, BarKind, HwBarrier};
use ssmp_core::cbl::{CblEffect, CblKind, CblOutbox, LockQueue};
use ssmp_core::line::BlockData;
use ssmp_core::msg::{Endpoint, Msg, Outbox};
use ssmp_core::primitive::{AccessClass, LockMode};
use ssmp_core::ric::{RicKind, RicOutbox, UpdateList};
use ssmp_core::semaphore::{HwSemaphore, SemEffect, SemKind};
use ssmp_core::wbuf::Enqueue;
use ssmp_engine::trace::{Family, Kind, TraceEvent, Tracer};
use ssmp_engine::{
    CounterId, CounterSet, Cycle, Histogram, IntervalSeries, SimRng, Watchdog, WatchdogVerdict,
    WheelQueue,
};
use ssmp_mem::{MemModule, PrivAccess, PrivCache, PrivateModel, PrivateOutcome};
use ssmp_net::{FaultDecision, FaultPlan, FaultyInterconnect, Interconnect, MsgDir, MsgKind};
use ssmp_wbi::Backoff;

use crate::config::{
    BarrierScheme, ConfigError, DataScheme, LockScheme, MachineConfig, PlantedBug, PrivateMode,
};
use crate::node::{MicroOp, Node, SpinTarget, SyncCtx, TtsPhase, Waiting};
use crate::op::{LockId, Op, Workload};
use crate::report::{DeadlockReport, LockDiag, Report, RicDiag, StalledNode};

/// Simulator events.
#[derive(Debug, Clone)]
enum Ev {
    /// The node is ready for its next (micro-)operation.
    Resume(NodeId),
    /// A protocol message is processed at its destination. `id` is the
    /// message's wire id: duplicate copies and retransmissions reuse it so
    /// delivery can be deduplicated.
    Deliver { id: u64, p: Proto },
    /// The write buffer issues its next buffered write.
    WbufIssue(NodeId),
    /// A spinning / backing-off node retries.
    Retry(NodeId),
    /// The retransmit timer of `node`'s outstanding request expired.
    Timeout { node: NodeId, epoch: u64 },
}

/// A protocol message on the machine's wire: the controllers' shared
/// envelope around a [`Body`].
type Proto = Msg<Body>;

/// A controller's message kind plus the context that routes it: which
/// controller delivers it and which module is its home.
#[derive(Debug, Clone, Copy)]
enum Body {
    Cbl {
        lock: LockId,
        kind: CblKind,
    },
    Ric {
        block: BlockId,
        kind: RicKind,
    },
    /// Coherence traffic of one line of [`Machine::coh`]: a shared-data
    /// block under the configured backend (WBI directory, snooping MESI,
    /// or Dragon — see [`DataScheme`]), or a WBI lock block or the
    /// barrier flag (see [`Line`]).
    Coh {
        line: usize,
        kind: CohKind,
    },
    Bar(BarKind),
    Sem {
        sem: usize,
        kind: SemKind,
    },
    /// Request leg of a private-data miss (node → home module).
    PrivReq {
        home: NodeId,
    },
    /// Reply of a private-data fetch (home module → node).
    PrivFill {
        home: NodeId,
    },
    /// Dirty-victim writeback of a private-data miss.
    PrivWb {
        home: NodeId,
    },
}

/// An outstanding tracked request: the stall it must resolve and the wire
/// messages to retransmit if the reply does not arrive in time.
#[derive(Debug, Clone)]
struct PendingReq {
    /// Matches stale [`Ev::Timeout`] events against re-armed timers.
    epoch: u64,
    /// Send attempts so far (the first transmission included).
    attempts: u32,
    /// The stall this request must resolve; if the node is no longer in
    /// this state the timer is stale.
    waiting: Waiting,
    /// The wire messages (id + payload) to retransmit.
    msgs: Vec<(u64, Proto)>,
}

/// What a line of [`Machine::coh`] holds. The kind decides the line's
/// home module and fault-plan [`MsgKind`], which waiters its effects wake,
/// and whether the data observers (read log, value oracle, heatmap,
/// end-of-run views) see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    /// A shared-data block; its line index is its block id.
    Data(BlockId),
    /// A TTS lock block: word 0 is the lock variable, the remaining words
    /// hold the lock-governed data.
    Lock(LockId),
    /// The software barrier's release flag.
    Flag,
}

/// The controllers' reused delivery outboxes, one per family. A delivery
/// takes its family's and puts it back drained (deliveries never nest),
/// so no delivery allocates once the buffers are warm.
#[derive(Default)]
struct Outboxes {
    cbl: CblOutbox,
    ric: RicOutbox,
    coh: CohOutbox,
    bar: Outbox<BarKind, BarEffect>,
    sem: Outbox<SemKind, SemEffect>,
}

/// Horizon of the timing wheel, in one-cycle slots. Most events land a few
/// cycles out (network hops, directory service); only retry timeouts and
/// long backoffs overflow past it, and those take the wheel's (correct but
/// slower) overflow path.
const WHEEL_SLOTS: usize = 1024;

/// The assembled machine.
pub struct Machine {
    cfg: MachineConfig,
    events: WheelQueue<Ev>,
    net: FaultyInterconnect,
    mems: Vec<MemModule>,
    nodes: Vec<Node>,
    /// RIC controllers for shared data blocks (DataScheme::Ric).
    ric: Vec<UpdateList>,
    /// The coherence line table, behind the one [`CoherenceProtocol`]
    /// trait: one line per shared-data block (the WBI directory, snooping
    /// MESI, or Dragon; a quiescent WBI line under RIC), then one WBI
    /// line per TTS lock, then the software barrier's release flag. See
    /// [`Line`].
    coh: Vec<Box<dyn CoherenceProtocol>>,
    /// CBL lock queues (LockScheme::Cbl).
    cbl: Vec<LockQueue>,
    /// Contents of CBL lock blocks (travel with the grant).
    lock_data: Vec<BlockData>,
    swbar: ssmp_wbi::SwBarrier,
    hwbar: HwBarrier,
    /// Hardware counting semaphores (paper §2's P/V, built like the
    /// hardware barrier). Empty unless configured via
    /// [`MachineBuilder::semaphores`].
    sems: Vec<HwSemaphore>,
    workload: Box<dyn Workload>,
    priv_model: PrivateModel,
    /// Per-node exact private caches (PrivateMode::Exact only).
    priv_caches: Vec<PrivCache>,
    counters: CounterSet,
    lock_wait: Histogram,
    /// SC release waiters: the next grant on the lock completes the release.
    release_waiters: BTreeMap<LockId, NodeId>,
    live: usize,
    completion: Cycle,
    /// Per-node write-stamp counters (see [`Machine::next_stamp`]).
    node_stamp: Vec<u64>,
    /// Observed shared-read values (when `record_reads` is configured).
    read_log: Vec<(NodeId, BlockId, u8, u64)>,
    /// Lock-order edges `held → requested` across all nodes.
    lock_order: std::collections::BTreeSet<(LockId, LockId)>,
    /// Monotonic wire-id source.
    wire_ctr: u64,
    /// Wire ids already delivered. Populated only when faults or retry can
    /// put a second copy of a message on the wire (`dedup`).
    delivered: HashSet<u64>,
    dedup: bool,
    /// Node whose outgoing requests are currently being recorded for
    /// possible retransmission.
    tracking: Option<NodeId>,
    track_buf: Vec<(u64, Proto)>,
    /// Outstanding tracked request per node.
    pending_req: Vec<Option<PendingReq>>,
    epoch_ctr: u64,
    /// Per-node retransmit backoff.
    retry_backoff: Vec<Backoff>,
    /// Per-node retransmission counts (surfaced in the report).
    retry_counts: Vec<u64>,
    /// Dedicated stream for retransmit jitter — faults and retries must
    /// not perturb the workload's per-node random streams.
    retry_rng: SimRng,
    /// Wire messages of issued-but-unacked buffered writes, per node,
    /// keyed by write id (the retransmission set for `Waiting::Flush`).
    wbuf_msgs: Vec<BTreeMap<u64, Vec<(u64, Proto)>>>,
    /// Set when the watchdog ended the run.
    deadlock: Option<DeadlockReport>,
    /// Event tracer (off by default; see [`MachineBuilder::tracer`]).
    tracer: Tracer,
    /// Live profiler handle (`Some` when [`MachineBuilder::profile`] is
    /// enabled); the folded profile is moved into the report at finish.
    profile: Option<ssmp_profile::SharedProfile>,
    /// Live span-stitcher handle (`Some` when [`MachineBuilder::spans`]
    /// is enabled); the folded span set is moved into the report at
    /// finish. Span *emission* is keyed on the tracer alone, so any
    /// traced run stitches offline even without this sink.
    spans: Option<ssmp_span::SharedSpans>,
    /// Monotonic span transaction-id source (ids start at 1; 0 = none).
    txn_ctr: u64,
    /// Wire id → owning span transaction. Consumed at delivery so the
    /// messages a delivery routes inherit the requester's transaction.
    /// Lookup-only (never iterated): determinism-safe as a HashMap.
    wire_txn: HashMap<u64, u64>,
    /// Transaction that caused the delivery currently being processed
    /// (0 = none); wires routed while it is set are linked to it.
    cause: u64,
    /// Node whose operation/continuation is currently executing under
    /// span attribution (see [`Machine::with_span`]).
    span_node: Option<NodeId>,
    /// Wires routed by the current operation before its span opened
    /// (flushed into the span when the stall begins, or into a
    /// zero-length span if the operation never stalls).
    span_pending: Vec<(u64, Family)>,
    /// Per-node open span transaction id (0 = none).
    open_txn: Vec<u64>,
    /// Begin cycle of each open buffered-write span, keyed by txn.
    wbuf_begin: HashMap<u64, Cycle>,
    /// Live protocol sanitizer (`Some` when [`MachineBuilder::check`] is
    /// enabled): shares the oracle with the `CheckSink` on the tracer and
    /// receives the state-exposure hooks; its violations land in the
    /// report at finish.
    check: Option<ssmp_check::SharedChecker>,
    /// Interval gauge sampler (`Some` when `cfg.metrics_interval` is set).
    metrics: Option<MetricsState>,
    out: Outboxes,
}

/// Lazy interval sampler: gauges are read every `interval` cycles as the
/// event loop advances past each boundary (no events are scheduled, so the
/// watchdog's quiescence detection is unaffected).
struct MetricsState {
    interval: Cycle,
    next_at: Cycle,
    /// Network counters are cumulative; deltas per interval are reported.
    last_packets: u64,
    last_queueing: u64,
    series: IntervalSeries,
}

/// Column order of the interval metrics series.
const METRIC_COLUMNS: [&str; 13] = [
    "net.packets",
    "net.queueing",
    "mem.busy",
    "wbuf.depth",
    "cbl.waiters",
    "ric.members",
    "stall.fill",
    "stall.lock",
    "stall.barrier",
    "stall.semaphore",
    "stall.flush",
    "stall.spin",
    "stall.timer",
];

/// Fluent, fallible construction of a [`Machine`]. This is the one way
/// to assemble a machine; the old constructor surface (`new`, `try_new`,
/// `with_tracer`, `with_semaphores`) has been removed.
///
/// ```
/// use ssmp_machine::{Machine, MachineConfig, Op};
/// use ssmp_machine::op::Script;
///
/// let cfg = MachineConfig::cbl(2);
/// let wl = Script::new(vec![vec![Op::Compute(1)]; 2]);
/// let report = Machine::builder(cfg)
///     .workload(Box::new(wl))
///     .locks(2)
///     .build()
///     .unwrap()
///     .run();
/// assert!(report.completion > 0);
/// ```
pub struct MachineBuilder {
    cfg: MachineConfig,
    workload: Option<Box<dyn Workload>>,
    locks: usize,
    sems: Vec<u64>,
    tracer: Tracer,
    profile: bool,
    spans: bool,
    check: bool,
}

impl MachineBuilder {
    /// Sets the workload the machine executes (required).
    pub fn workload(mut self, w: Box<dyn Workload>) -> Self {
        self.workload = Some(w);
        self
    }

    /// Provisions `n` lock blocks / CBL queues. Lock counts are a property
    /// of the experiment, not the workload trait, so they are set here
    /// (default 0 — any `Op::Lock` then panics on an out-of-range id).
    pub fn locks(mut self, n: usize) -> Self {
        self.locks = n;
        self
    }

    /// Attaches an event tracer. The tracer only *observes* the run — it
    /// never touches simulator state, RNG streams, or event ordering, so a
    /// traced run is bit-identical to an untraced one.
    pub fn tracer(mut self, t: Tracer) -> Self {
        self.tracer = t;
        self
    }

    /// Selects the shared-data coherence protocol, overriding whatever the
    /// preset chose: the paper's reader-initiated scheme, the WBI
    /// directory, snooping MESI, or Dragon. See [`DataScheme`].
    pub fn protocol(mut self, p: DataScheme) -> Self {
        self.cfg.data = p;
        self
    }

    /// Provisions hardware counting semaphores with the given initial
    /// credits (semaphore `i` is homed at module `(i + 1) % nodes`).
    pub fn semaphores(mut self, initial: &[u64]) -> Self {
        self.sems = initial.to_vec();
        self
    }

    /// Enables the protocol-level profiler: a [`ssmp_profile::ProfileSink`]
    /// is attached to the tracer (enabling it, unfiltered, if no tracer was
    /// set) and the folded [`ssmp_profile::Profile`] lands in
    /// [`Report::profile`]. Profiling, like tracing, is a pure observer.
    ///
    /// Note: if a tracer with a restrictive [`ssmp_engine::TraceFilter`]
    /// is also attached, the profile only sees the filtered stream and its
    /// attribution will be incomplete — combine profiling with an
    /// all-admitting filter.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Enables transaction-level span stitching: a [`ssmp_span::SpanSink`]
    /// is attached to the tracer (enabling it, unfiltered, if no tracer
    /// was set) and the folded [`ssmp_span::SpanSet`] lands in
    /// [`Report::spans`]. Like profiling, span stitching is a pure
    /// observer — an armed run's simulated behavior is bit-identical to
    /// an unarmed one.
    ///
    /// The span/link events themselves are emitted whenever the tracer is
    /// on, so a JSONL trace captured without this flag still stitches
    /// offline (`ssmp spans --in trace.jsonl`) into the same report.
    pub fn spans(mut self, on: bool) -> Self {
        self.spans = on;
        self
    }

    /// Arms the runtime protocol sanitizer: a [`ssmp_check::CheckSink`] is
    /// attached to the tracer (enabling it, unfiltered, if no tracer was
    /// set) and any [`ssmp_check::ViolationReport`]s land in
    /// [`Report::violations`]. Like tracing and profiling, the sanitizer
    /// is a pure observer: an armed run that violates nothing produces a
    /// report byte-identical to an unarmed run.
    pub fn check(mut self, on: bool) -> Self {
        self.check = on;
        self
    }

    /// Validates the configuration and assembles the machine.
    pub fn build(self) -> Result<Machine, ConfigError> {
        let workload = self.workload.ok_or(ConfigError::MissingWorkload)?;
        let mut m = Machine::assemble(self.cfg, workload, self.locks)?;
        m.sems = self.sems.iter().map(|&c| HwSemaphore::new(c)).collect();
        m.tracer = self.tracer;
        // `SSMP_PROFILE` force-enables profiling so sweep/bench binaries
        // built on `ExpArgs` pick up `--profile` without plumbing.
        if self.profile || std::env::var_os("SSMP_PROFILE").is_some() {
            if !m.tracer.is_on() {
                m.tracer = Tracer::new(ssmp_engine::TraceFilter::all());
            }
            let (sink, handle) = ssmp_profile::ProfileSink::new();
            m.tracer.add_sink(sink);
            m.profile = Some(handle);
        }
        // `SSMP_SPANS` force-enables span stitching the same way.
        if self.spans || std::env::var_os("SSMP_SPANS").is_some() {
            if !m.tracer.is_on() {
                m.tracer = Tracer::new(ssmp_engine::TraceFilter::all());
            }
            let (sink, handle) = ssmp_span::SpanSink::new();
            m.tracer.add_sink(sink);
            m.spans = Some(handle);
        }
        // `SSMP_CHECK` force-arms the sanitizer the same way.
        if self.check || std::env::var_os("SSMP_CHECK").is_some() {
            if !m.tracer.is_on() {
                m.tracer = Tracer::new(ssmp_engine::TraceFilter::all());
            }
            let (sink, handle) = ssmp_check::CheckSink::new();
            m.tracer.add_sink(sink);
            m.check = Some(handle);
        }
        Ok(m)
    }
}

impl Machine {
    /// Starts building a machine under `cfg`. See [`MachineBuilder`].
    pub fn builder(cfg: MachineConfig) -> MachineBuilder {
        MachineBuilder {
            cfg,
            workload: None,
            locks: 0,
            sems: Vec::new(),
            tracer: Tracer::off(),
            profile: false,
            spans: false,
            check: false,
        }
    }

    fn assemble(
        cfg: MachineConfig,
        workload: Box<dyn Workload>,
        locks: usize,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = cfg.geometry.nodes;
        if workload.nodes() != n {
            return Err(ConfigError::WorkloadNodes(workload.nodes(), n));
        }
        let bw = cfg.geometry.block_words;
        let master = SimRng::new(cfg.seed);
        let nodes = (0..n)
            .map(|id| {
                Node::new(
                    id,
                    &master,
                    cfg.lock_cache_capacity,
                    cfg.write_buffer_capacity,
                )
            })
            .collect();
        let shared = cfg.geometry.shared_blocks;
        let inner = Interconnect::try_build(cfg.topology, n, cfg.net)?;
        let net = match cfg.fault.clone() {
            Some(fc) => FaultyInterconnect::with_plan(inner, FaultPlan::new(fc)),
            None => FaultyInterconnect::transparent(inner),
        };
        let backoff_base = cfg.retry.backoff_base.max(1);
        let backoff_cap = cfg.retry.backoff_cap.max(backoff_base);
        Ok(Self {
            net,
            mems: (0..n).map(|_| MemModule::new()).collect(),
            nodes,
            ric: (0..shared).map(|_| UpdateList::new(bw)).collect(),
            coh: (0..shared)
                .map(|_| -> Box<dyn CoherenceProtocol> {
                    match cfg.data {
                        DataScheme::Mesi => Box::new(MesiBlock::new(bw, n)),
                        DataScheme::Dragon => Box::new(DragonBlock::new(bw)),
                        // RIC keeps (quiescent) WBI data lines too so line
                        // indexing stays uniform across schemes.
                        DataScheme::Ric | DataScheme::Wbi => {
                            Box::new(match (cfg.wbi_sharer_limit, cfg.wbi_mesi) {
                                (Some(limit), _) => WbiBlock::with_sharer_limit(bw, limit),
                                (None, true) => WbiBlock::with_mesi(bw),
                                (None, false) => WbiBlock::new(bw),
                            })
                        }
                    }
                })
                // the lock lines, then the barrier flag
                .chain(
                    (0..=locks)
                        .map(|_| -> Box<dyn CoherenceProtocol> { Box::new(WbiBlock::new(bw)) }),
                )
                .collect(),
            cbl: (0..locks).map(|_| LockQueue::new(bw as u32)).collect(),
            lock_data: (0..locks).map(|_| BlockData::new(bw)).collect(),
            swbar: ssmp_wbi::SwBarrier::new(n),
            hwbar: if cfg.hw_tree_barrier {
                HwBarrier::with_tree_release(n)
            } else {
                HwBarrier::new(n)
            },
            sems: Vec::new(),
            workload,
            priv_model: PrivateModel::new(cfg.private_hit_ratio, cfg.private_dirty_victim, n),
            priv_caches: match cfg.private_mode {
                PrivateMode::Exact(p) => (0..n).map(|_| PrivCache::new(p.lines)).collect(),
                PrivateMode::Probabilistic => Vec::new(),
            },
            counters: CounterSet::new(),
            lock_wait: Histogram::new(),
            release_waiters: BTreeMap::new(),
            live: n,
            completion: 0,
            node_stamp: vec![0; n],
            read_log: Vec::new(),
            lock_order: std::collections::BTreeSet::new(),
            wire_ctr: 0,
            delivered: HashSet::new(),
            dedup: cfg.fault.is_some() || cfg.retry.enabled,
            tracking: None,
            track_buf: Vec::new(),
            pending_req: (0..n).map(|_| None).collect(),
            epoch_ctr: 0,
            retry_backoff: vec![Backoff::new(backoff_base, backoff_cap); n],
            retry_counts: vec![0; n],
            retry_rng: master.fork(u64::MAX ^ 0xfa17),
            wbuf_msgs: vec![BTreeMap::new(); n],
            deadlock: None,
            tracer: Tracer::off(),
            profile: None,
            spans: None,
            txn_ctr: 0,
            wire_txn: HashMap::new(),
            cause: 0,
            span_node: None,
            span_pending: Vec::new(),
            open_txn: vec![0; n],
            wbuf_begin: HashMap::new(),
            check: None,
            metrics: cfg.metrics_interval.map(|iv| {
                let iv = iv.max(1);
                MetricsState {
                    interval: iv,
                    next_at: 0,
                    last_packets: 0,
                    last_queueing: 0,
                    series: IntervalSeries::new(iv, METRIC_COLUMNS.to_vec()),
                }
            }),
            events: WheelQueue::new(WHEEL_SLOTS),
            out: Outboxes::default(),
            cfg,
        })
    }

    fn now(&self) -> Cycle {
        self.events.now()
    }

    /// Number of shared-data lines. They come first in [`Machine::coh`],
    /// so a data block's line index is its block id.
    fn data_lines(&self) -> usize {
        self.cfg.geometry.shared_blocks
    }

    /// The line of TTS lock `lock`.
    fn lock_line(&self, lock: LockId) -> usize {
        self.data_lines() + lock
    }

    /// The line of the software barrier's release flag (the last one).
    fn flag_line(&self) -> usize {
        self.coh.len() - 1
    }

    /// What line `line` holds.
    fn line(&self, line: usize) -> Line {
        if line < self.data_lines() {
            Line::Data(line)
        } else if line < self.flag_line() {
            Line::Lock(line - self.data_lines())
        } else {
            Line::Flag
        }
    }

    /// Draws a fresh write stamp for `node`: `(node + 1) << 40 | counter`.
    /// Keying stamps by node (instead of a global counter) makes the final
    /// memory image of race-free programs independent of message timing —
    /// fault-injected runs must converge to the same state as fault-free
    /// runs.
    fn next_stamp(&mut self, node: NodeId) -> u64 {
        self.node_stamp[node] += 1;
        ((node as u64 + 1) << 40) | self.node_stamp[node]
    }

    /// The armed sanitizer's shared handle (`None` unless built with
    /// `.check(true)` or `SSMP_CHECK`). Harnesses that run the machine
    /// under `catch_unwind` clone this first so violations folded before
    /// a panic stay readable — [`Report::violations`] only exists when
    /// the run returns.
    pub fn checker(&self) -> Option<ssmp_check::SharedChecker> {
        self.check.clone()
    }

    /// Runs the workload to completion and returns the report.
    ///
    /// A run that wedges — the event queue drains with live nodes, or the
    /// `max_cycles` budget is exceeded — does not panic: the watchdog ends
    /// it and the report carries a [`DeadlockReport`].
    pub fn run(mut self) -> Report {
        for n in 0..self.nodes.len() {
            self.events.schedule(0, Ev::Resume(n));
        }
        let watchdog = Watchdog::new(self.cfg.max_cycles);
        while self.live > 0 {
            // Pop first and let the watchdog judge the popped timestamp: one
            // queue operation per event instead of a peek + pop pair. A
            // popped event that trips the budget is *not* dispatched — its
            // timestamp becomes the diagnosis time, exactly as the old
            // peek-based check reported it.
            let next = self.events.pop();
            if let Some(verdict) = watchdog.check(next.as_ref().map(|s| s.at), self.live) {
                self.diagnose_deadlock(verdict, next.map(|s| s.at));
                break;
            }
            let sch = next.expect("watchdog admits non-empty queues only");
            let at = sch.at;
            self.sample_metrics(at);
            match sch.event {
                Ev::Resume(n) => self.with_tracking(n, at, |m| m.resume(n)),
                Ev::Deliver { id, p } => self.deliver(id, p),
                Ev::WbufIssue(n) => self.with_tracking(n, at, |m| m.wbuf_issue(n)),
                Ev::Retry(n) => self.with_tracking(n, at, |m| m.retry(n)),
                Ev::Timeout { node, epoch } => self.handle_timeout(node, epoch),
            }
        }
        self.finish()
    }

    /// Samples the interval gauges for every interval boundary at or before
    /// `at`. Called from the event loop before each event is dispatched, so
    /// samples reflect machine state as of the boundary (state has not
    /// changed since the previous event).
    fn sample_metrics(&mut self, at: Cycle) {
        let Some(m) = &self.metrics else { return };
        if at < m.next_at {
            return;
        }
        let net = self.net.stats();
        let mem_busy = |t: Cycle, mems: &[MemModule]| -> u64 {
            mems.iter().filter(|m| m.busy_at(t)).count() as u64
        };
        let wbuf_depth: u64 = self.nodes.iter().map(|n| n.wbuf.pending() as u64).sum();
        let cbl_waiters: u64 = self.cbl.iter().map(|q| q.waiters().len() as u64).sum();
        let ric_members: u64 = self.ric.iter().map(|l| l.len() as u64).sum();
        // per-cause stall counts, indexed to match the stall.* columns of
        // METRIC_COLUMNS
        let mut stalls = [0u64; 7];
        for n in &self.nodes {
            if n.waiting != Waiting::None {
                let i = match Node::cause(n.waiting) {
                    "fill" => 0,
                    "lock" => 1,
                    "barrier" => 2,
                    "semaphore" => 3,
                    "flush" => 4,
                    "spin" => 5,
                    _ => 6, // "timer"
                };
                stalls[i] += 1;
            }
        }
        let row = [
            net.packets, // patched to delta below
            net.total_queueing,
            0, // mem.busy — patched per boundary below
            wbuf_depth,
            cbl_waiters,
            ric_members,
            stalls[0],
            stalls[1],
            stalls[2],
            stalls[3],
            stalls[4],
            stalls[5],
            stalls[6],
        ];
        let mems = std::mem::take(&mut self.mems);
        let m = self.metrics.as_mut().expect("checked above");
        while at >= m.next_at {
            let t = m.next_at;
            let mut r = row.to_vec();
            r[0] = net.packets - m.last_packets;
            r[1] = net.total_queueing - m.last_queueing;
            r[2] = mem_busy(t, &mems);
            m.last_packets = net.packets;
            m.last_queueing = net.total_queueing;
            m.series.push(t, r);
            m.next_at = t + m.interval;
        }
        self.mems = mems;
    }

    /// Builds the structured diagnosis when the watchdog ends a run: every
    /// stalled node's wait state, plus the CBL queues and RIC lists that
    /// still hold members.
    fn diagnose_deadlock(&mut self, verdict: WatchdogVerdict, at: Option<Cycle>) {
        let at = at.unwrap_or_else(|| self.now());
        let nodes = self
            .nodes
            .iter()
            .filter(|n| !n.done)
            .map(|n| StalledNode {
                node: n.id,
                waiting: format!("{:?}", n.waiting),
                sync: n.sync.map(|s| format!("{s:?}")),
                since: n.stall_start,
                wbuf_occupancy: n.wbuf.pending(),
                retries: self.retry_counts[n.id],
                recent: self.tracer.recent_for_node(n.id as i64, 8),
            })
            .collect();
        let locks = self
            .cbl
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_quiescent_free())
            .map(|(lock, q)| LockDiag {
                lock,
                holders: q
                    .holders()
                    .into_iter()
                    .map(|(n, m)| (n, format!("{m:?}")))
                    .collect(),
                waiters: q.waiters(),
            })
            .collect();
        let ric = self
            .ric
            .iter()
            .enumerate()
            .filter(|(_, u)| !u.is_empty())
            .map(|(block, u)| RicDiag {
                block,
                members: u.members_in_order(),
            })
            .collect();
        self.counters.bump_id(CounterId::WatchdogFired);
        // When the sanitizer is armed, attach its per-line ownership view
        // so hangs and violations share one diagnosis format.
        let lines = match &self.check {
            Some(c) => self.line_summaries(&c.borrow()),
            None => Vec::new(),
        };
        self.deadlock = Some(DeadlockReport {
            verdict,
            at,
            budget: self.cfg.max_cycles,
            nodes,
            locks,
            ric,
            lines,
        });
    }

    /// Per-block owner/sharers summary of the shared data from the
    /// authoritative directory state (RIC: the update list) plus the
    /// sanitizer's last-writer observations. Idle blocks nobody ever wrote
    /// are omitted.
    fn line_summaries(&self, checker: &ssmp_check::Checker) -> Vec<ssmp_check::LineSummary> {
        let mut out = Vec::new();
        for block in 0..self.data_lines() {
            let (owner, sharers) = match self.cfg.data {
                DataScheme::Ric => {
                    let mut members = self.ric[block].members_in_order();
                    members.sort_unstable();
                    (None, members)
                }
                _ => (self.coh[block].owner(), self.coh[block].sharers()),
            };
            let last_writer = checker.last_writer(block);
            if owner.is_none() && sharers.is_empty() && last_writer.is_none() {
                continue;
            }
            out.push(ssmp_check::LineSummary {
                block,
                owner,
                sharers,
                last_writer,
            });
        }
        out
    }

    fn finish(mut self) -> Report {
        let net_stats = self.net.stats();
        // Final coherent view of the shared region and the TTS lock
        // blocks: a line's authoritative copy may still live in an owner's
        // cache.
        let bw = self.cfg.geometry.block_words;
        let data = &self.coh[..self.data_lines()];
        let view = |lines: &[Box<dyn CoherenceProtocol>]| -> Vec<Vec<u64>> {
            lines
                .iter()
                .map(|b| (0..bw).map(|w| b.coherent_word(w)).collect())
                .collect()
        };
        let shared_memory: Vec<Vec<u64>> = match self.cfg.data {
            DataScheme::Ric => self.ric.iter().map(|u| u.mem().words().to_vec()).collect(),
            _ => view(data),
        };
        let lock_blocks: Vec<Vec<u64>> = match self.cfg.locks {
            LockScheme::Cbl => self.lock_data.iter().map(|d| d.words().to_vec()).collect(),
            _ => view(&self.coh[self.data_lines()..self.flag_line()]),
        };
        let dir_evictions: u64 = data.iter().map(|b| b.dir_evictions()).sum();
        if dir_evictions > 0 {
            self.counters
                .add_id(CounterId::WbiDirEvictions, dir_evictions);
        }
        // lock-order cycle detection (DFS over the edge set)
        let edges: Vec<(LockId, LockId)> = self.lock_order.iter().copied().collect();
        let lock_order_cycle = find_lock_cycle(&edges);
        let mut stall_breakdown = std::collections::BTreeMap::new();
        for n in &self.nodes {
            for (&k, &v) in &n.stall_breakdown {
                *stall_breakdown.entry(k).or_insert(0) += v;
            }
        }
        // Per-node retirement markers: the profiler keys its per-node cycle
        // totals (and hence busy = cycles − stalled) off these.
        if self.tracer.is_on() {
            for n in &self.nodes {
                if n.done {
                    self.tracer.emit(TraceEvent {
                        cycle: n.done_at,
                        node: n.id as i64,
                        family: Family::Node,
                        kind: Kind::Done,
                        detail: "done",
                        id: 0,
                        arg: 0,
                    });
                }
            }
        }
        // Move the folded observers out: no event follows, and copying
        // them would duplicate every wire and span.
        let profile = self
            .profile
            .as_ref()
            .map(|h| std::mem::take(&mut *h.borrow_mut()));
        let spans = self
            .spans
            .as_ref()
            .map(|h| std::mem::take(&mut *h.borrow_mut()));
        let violations = match &self.check {
            Some(c) => {
                let mut checker = c.borrow_mut();
                // End-of-run cross-checks only make sense for a completed
                // run: after a watchdog trip (and for CBL queues even on
                // success) final messages may legitimately still be in
                // flight when the machine stops.
                if self.deadlock.is_none() {
                    let at = self.completion;
                    for (block, u) in self.ric.iter().enumerate() {
                        let members = u.members_in_order();
                        checker.ric_membership(block, &members, &u.update_holders(), at);
                        checker.structural("ric.list", at, u.check_list());
                    }
                    for b in &self.coh[..self.data_lines()] {
                        checker.structural(b.swmr_invariant(), at, b.check_single_writer());
                        checker.structural(b.quiescent_invariant(), at, b.check_quiescent());
                    }
                    for (block, words) in shared_memory.iter().enumerate() {
                        for (w, &v) in words.iter().enumerate() {
                            checker.final_word(block, w as u8, v, at);
                        }
                    }
                }
                checker.take_violations()
            }
            None => Vec::new(),
        };
        let report = Report {
            protocol: self.cfg.data.name(),
            shared_memory,
            lock_blocks,
            read_log: self.read_log,
            stall_breakdown,
            lock_order_edges: edges,
            lock_order_cycle,
            completion: self.completion,
            counters: self.counters,
            lock_wait: self.lock_wait,
            events_popped: self.events.popped(),
            net_packets: net_stats.packets,
            net_words: net_stats.words,
            net_queueing: net_stats.total_queueing,
            net_max_transit: net_stats.max_transit,
            stalled_cycles: self.nodes.iter().map(|n| n.stalled_cycles).collect(),
            ops_completed: self.nodes.iter().map(|n| n.ops_completed).collect(),
            lock_cache_overflows: self.nodes.iter().map(|n| n.lock_cache.overflows).sum(),
            wbuf_peak: self.nodes.iter().map(|n| n.wbuf.peak()).max().unwrap_or(0),
            retries: self.retry_counts,
            faults: self.net.fault_stats(),
            metrics: self.metrics.map(|m| m.series),
            deadlock: self.deadlock,
            profile,
            spans,
            violations,
            fault_log: self.net.fault_log().map(<[_]>::to_vec).unwrap_or_default(),
        };
        if let Err(e) = self.tracer.finish() {
            eprintln!("warning: trace sink error: {e}");
        }
        report
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    fn home_of(&self, p: &Proto) -> NodeId {
        let n = self.cfg.geometry.nodes;
        match p.kind {
            Body::Cbl { lock, .. } => lock % n,
            Body::Ric { block, .. } => block % n,
            Body::Coh { line, .. } => match self.line(line) {
                Line::Data(block) => block % n,
                Line::Lock(lock) => lock % n,
                Line::Flag => n - 1,
            },
            Body::Bar(_) => 0,
            Body::Sem { sem, .. } => (sem + 1) % n,
            Body::PrivReq { home } | Body::PrivFill { home } | Body::PrivWb { home } => home,
        }
    }

    /// Protocol family of a message, for fault targeting.
    fn msg_kind(&self, p: &Proto) -> MsgKind {
        match p.kind {
            Body::Cbl { .. } => MsgKind::Cbl,
            Body::Ric { .. } => MsgKind::Ric,
            Body::Coh { line, .. } => match self.line(line) {
                Line::Data(_) => MsgKind::WbiData,
                Line::Lock(_) => MsgKind::WbiLock,
                Line::Flag => MsgKind::WbiFlag,
            },
            Body::Bar(_) => MsgKind::Barrier,
            Body::Sem { .. } => MsgKind::Semaphore,
            Body::PrivReq { .. } | Body::PrivFill { .. } | Body::PrivWb { .. } => MsgKind::Private,
        }
    }

    /// Direction of a message relative to the home directory.
    fn msg_dir(src: Endpoint, dst: Endpoint) -> MsgDir {
        match (src, dst) {
            (Endpoint::Node(_), Endpoint::Dir) => MsgDir::Request,
            (Endpoint::Dir, _) => MsgDir::Reply,
            (Endpoint::Node(_), Endpoint::Node(_)) => MsgDir::Peer,
        }
    }

    /// Counter id of a message; its name doubles as the `detail` label of
    /// trace events (see [`Machine::msg_name`]), so counters and traces
    /// stay name-compatible.
    fn msg_key(p: &Proto) -> CounterId {
        match p.kind {
            Body::Cbl { kind, .. } => match kind {
                CblKind::Request(_) => CounterId::MsgCblRequest,
                CblKind::Forward { .. } => CounterId::MsgCblForward,
                CblKind::GrantMem => CounterId::MsgCblGrantMem,
                CblKind::GrantChain => CounterId::MsgCblGrantChain,
                CblKind::Enqueued => CounterId::MsgCblEnqueued,
                CblKind::Release { .. } => CounterId::MsgCblRelease,
                CblKind::ReleaseAck => CounterId::MsgCblReleaseAck,
                CblKind::Bounce { .. } => CounterId::MsgCblBounce,
                CblKind::SpliceNext | CblKind::SplicePrev => CounterId::MsgCblSplice,
            },
            Body::Ric { kind, .. } => match kind {
                RicKind::ReadUpdateReq => CounterId::MsgRicReadUpdate,
                RicKind::ReadReply => CounterId::MsgRicReadReply,
                RicKind::ReadGlobalReq { .. } => CounterId::MsgRicReadGlobal,
                RicKind::ReadGlobalReply { .. } => CounterId::MsgRicReadGlobalReply,
                RicKind::WriteGlobal { .. } => CounterId::MsgRicWriteGlobal,
                RicKind::WriteAck { .. } => CounterId::MsgRicWriteAck,
                RicKind::UpdatePush => CounterId::MsgRicUpdatePush,
                RicKind::HeadChange => CounterId::MsgRicHeadChange,
                RicKind::Splice => CounterId::MsgRicSplice,
            },
            Body::Coh { kind, .. } => match kind {
                CohKind::Wbi(k) => match k {
                    WbiKind::ReadReq => CounterId::MsgWbiReadReq,
                    WbiKind::WriteReq => CounterId::MsgWbiWriteReq,
                    WbiKind::DataShared => CounterId::MsgWbiDataShared,
                    WbiKind::DataExclClean => CounterId::MsgWbiDataExclClean,
                    WbiKind::DataExcl { .. } => CounterId::MsgWbiDataExcl,
                    WbiKind::Inv => CounterId::MsgWbiInv,
                    WbiKind::InvAck => CounterId::MsgWbiInvAck,
                    WbiKind::FetchShared => CounterId::MsgWbiFetchShared,
                    WbiKind::FetchExcl => CounterId::MsgWbiFetchExcl,
                    WbiKind::OwnerData { .. } => CounterId::MsgWbiOwnerData,
                    WbiKind::WriteBack => CounterId::MsgWbiWriteBack,
                    WbiKind::WbRace => CounterId::MsgWbiWbRace,
                },
                CohKind::Mesi(k) => match k {
                    MesiKind::BusRd => CounterId::MsgMesiBusRd,
                    MesiKind::BusRdx => CounterId::MsgMesiBusRdx,
                    MesiKind::BusUpgr => CounterId::MsgMesiBusUpgr,
                    MesiKind::DataShared => CounterId::MsgMesiDataShared,
                    MesiKind::DataExcl => CounterId::MsgMesiDataExcl,
                    MesiKind::DataExclClean => CounterId::MsgMesiDataExclClean,
                    MesiKind::UpgradeAck => CounterId::MsgMesiUpgradeAck,
                    MesiKind::Inv => CounterId::MsgMesiInv,
                    MesiKind::InvAck => CounterId::MsgMesiInvAck,
                    MesiKind::Fetch { .. } => CounterId::MsgMesiFetch,
                    MesiKind::FetchMiss => CounterId::MsgMesiFetchMiss,
                    MesiKind::OwnerData { .. } => CounterId::MsgMesiOwnerData,
                },
                CohKind::Dragon(k) => match k {
                    DragonKind::Rd => CounterId::MsgDragonRd,
                    DragonKind::FillShared => CounterId::MsgDragonFillShared,
                    DragonKind::FillExcl => CounterId::MsgDragonFillExcl,
                    DragonKind::Fetch => CounterId::MsgDragonFetch,
                    DragonKind::FetchMiss => CounterId::MsgDragonFetchMiss,
                    DragonKind::OwnerData => CounterId::MsgDragonOwnerData,
                    DragonKind::Upd { .. } => CounterId::MsgDragonUpd,
                    DragonKind::UpdFill { .. } => CounterId::MsgDragonUpdFill,
                    DragonKind::UpdPush { .. } => CounterId::MsgDragonUpdPush,
                    DragonKind::UpdAck => CounterId::MsgDragonUpdAck,
                    DragonKind::UpdDone { .. } => CounterId::MsgDragonUpdDone,
                },
            },
            Body::Bar(kind) => match kind {
                BarKind::Arrive => CounterId::MsgBarArrive,
                BarKind::Ack => CounterId::MsgBarAck,
                BarKind::Release => CounterId::MsgBarRelease,
            },
            Body::Sem { kind, .. } => match kind {
                SemKind::P => CounterId::MsgSemP,
                SemKind::V => CounterId::MsgSemV,
                SemKind::Grant => CounterId::MsgSemGrant,
                SemKind::VAck => CounterId::MsgSemVAck,
            },
            Body::PrivReq { .. } | Body::PrivFill { .. } | Body::PrivWb { .. } => {
                CounterId::MsgPriv
            }
        }
    }

    /// Counter-key name of a message — the trace `detail` label.
    fn msg_name(p: &Proto) -> &'static str {
        Self::msg_key(p).name()
    }

    /// Trace family of a message.
    fn msg_family(p: &Proto) -> Family {
        match p.kind {
            Body::Cbl { .. } => Family::Cbl,
            Body::Ric { .. } => Family::Ric,
            Body::Coh { kind, .. } => match kind {
                CohKind::Wbi(_) => Family::Wbi,
                CohKind::Mesi(_) => Family::Mesi,
                CohKind::Dragon(_) => Family::Dragon,
            },
            Body::Bar(_) => Family::Bar,
            Body::Sem { .. } => Family::Sem,
            Body::PrivReq { .. } | Body::PrivFill { .. } | Body::PrivWb { .. } => Family::Priv,
        }
    }

    /// Trace-track attribution of an endpoint: nodes map to themselves,
    /// the directory side to the machine track (−1).
    fn trace_node(e: Endpoint) -> i64 {
        match e {
            Endpoint::Node(n) => n as i64,
            Endpoint::Dir => -1,
        }
    }

    /// Puts a fresh protocol message on the wire at `depart`; schedules its
    /// delivery (including directory service time for Dir-bound messages —
    /// the service itself is charged at delivery). When request tracking is
    /// active for the sending node, the message is recorded for possible
    /// retransmission.
    fn route(&mut self, depart: Cycle, p: Proto) {
        self.counters.bump_id(Self::msg_key(&p));
        self.wire_ctr += 1;
        let id = self.wire_ctr;
        if let Some(t) = self.tracking {
            if p.src == Endpoint::Node(t) {
                self.track_buf.push((id, p));
            }
        }
        if self.tracer.is_on() {
            let dst_mod = match p.dst {
                Endpoint::Node(x) => x,
                Endpoint::Dir => self.home_of(&p),
            };
            self.tracer.emit(TraceEvent {
                cycle: depart,
                node: Self::trace_node(p.src),
                family: Self::msg_family(&p),
                kind: Kind::NetInject,
                detail: Self::msg_name(&p),
                id,
                arg: dst_mod as u64,
            });
            // Span causality: a wire routed by an executing operation
            // belongs to that operation's span (deferred until the span
            // opens); a wire routed while processing a delivery inherits
            // the delivered wire's transaction.
            let owner = match self.span_node {
                Some(sn) => {
                    if self.open_txn[sn] != 0 {
                        self.open_txn[sn]
                    } else {
                        self.span_pending.push((id, Self::msg_family(&p)));
                        0
                    }
                }
                None => self.cause,
            };
            if owner != 0 {
                self.wire_txn.insert(id, owner);
                self.tracer.emit(TraceEvent {
                    cycle: depart,
                    node: Self::trace_node(p.src),
                    family: Self::msg_family(&p),
                    kind: Kind::Link,
                    detail: "wire",
                    id,
                    arg: owner,
                });
            }
        }
        self.route_wire(depart, id, p);
    }

    /// Sends one wire message — fresh, duplicate, or retransmission; they
    /// share `id` so delivery can dedup. The fault plan (if any) decides
    /// whether the message is dropped, duplicated, or delayed.
    fn route_wire(&mut self, depart: Cycle, id: u64, p: Proto) {
        let home = self.home_of(&p);
        let sp = match p.src {
            Endpoint::Node(x) => x,
            Endpoint::Dir => home,
        };
        let dp = match p.dst {
            Endpoint::Node(x) => x,
            Endpoint::Dir => home,
        };
        let kind = self.msg_kind(&p);
        let dir = Self::msg_dir(p.src, p.dst);
        let d = self.net.send(depart, sp, dp, p.words, kind, dir);
        if self.tracer.is_on() {
            let detail = match d.fault {
                Some(FaultDecision::Drop) => Some("drop"),
                Some(FaultDecision::Duplicate) => Some("dup"),
                Some(FaultDecision::Delay(_)) => Some("delay"),
                Some(FaultDecision::Deliver) | None => None,
            };
            if let Some(detail) = detail {
                let arg = match d.fault {
                    Some(FaultDecision::Delay(by)) => by,
                    _ => 0,
                };
                self.tracer.emit(TraceEvent {
                    cycle: depart,
                    node: Self::trace_node(p.src),
                    family: Self::msg_family(&p),
                    kind: Kind::Fault,
                    detail,
                    id,
                    arg,
                });
            }
        }
        if let Some(at) = d.duplicate {
            self.events.schedule(at, Ev::Deliver { id, p });
        }
        if let Some(at) = d.arrival {
            self.events.schedule(at, Ev::Deliver { id, p });
        }
    }

    /// Routes every message a controller sent, each wrapped with its
    /// routing context by `body`.
    fn route_all<K: Copy>(
        &mut self,
        depart: Cycle,
        msgs: impl IntoIterator<Item = Msg<K>>,
        body: impl Fn(K) -> Body,
    ) {
        for m in msgs {
            self.route(depart, m.with_kind(body(m.kind)));
        }
    }

    /// A read miss on coherence line `line`: sends the request and stalls
    /// `node` for the fill.
    fn coh_read_miss(&mut self, node: NodeId, line: usize, now: Cycle) {
        let msgs = self.coh[line].read_req(node);
        self.route_all(now, msgs, |kind| Body::Coh { line, kind });
        self.stall_node(node, Waiting::Fill, now);
    }

    /// A write miss on coherence line `line`: requests ownership (Dragon
    /// carries the `(word, value)` store home instead) and stalls `node`
    /// until the grant lets `pending` run.
    fn coh_write_miss(
        &mut self,
        node: NodeId,
        line: usize,
        (word, value): (u8, u64),
        pending: SyncCtx,
        now: Cycle,
    ) {
        let msgs = self.coh[line].write_req(node, word, value);
        self.route_all(now, msgs, |kind| Body::Coh { line, kind });
        self.nodes[node].sync = Some(pending);
        self.stall_node(node, Waiting::Fill, now);
    }

    // ------------------------------------------------------------------
    // Delivery
    // ------------------------------------------------------------------

    fn deliver(&mut self, id: u64, p: Proto) {
        // Span causality: the delivered wire's transaction (if linked)
        // becomes the cause of every wire this delivery routes in turn —
        // replies, forwards, and fan-out inherit the requester's span.
        // The mapping is consumed on first arrival, so duplicate copies
        // (dedup'd below) cannot re-link.
        self.cause = self.wire_txn.remove(&id).unwrap_or(0);
        self.deliver_inner(id, p);
        self.cause = 0;
    }

    fn deliver_inner(&mut self, id: u64, p: Proto) {
        // Faults and retransmission can put a second copy of a message on
        // the wire; the first copy to arrive wins, later ones are dropped
        // here so protocol controllers see exactly-once delivery.
        if self.dedup && !self.delivered.insert(id) {
            // The planted bug lets a duplicated CBL message through dedup,
            // so the protocol controller sees it twice — a deliberate
            // exactly-once violation the fuzzer must find and shrink.
            let planted = self.cfg.planted_bug == Some(PlantedBug::CblDedupSkip)
                && matches!(p.kind, Body::Cbl { .. });
            if !planted {
                self.counters.bump_id(CounterId::NetDedup);
                if self.tracer.is_on() {
                    self.tracer.emit(TraceEvent {
                        cycle: self.now(),
                        node: -1,
                        family: Self::msg_family(&p),
                        kind: Kind::Fault,
                        detail: "dedup",
                        id,
                        arg: 0,
                    });
                }
                return;
            }
        }
        let now = self.now();
        if self.tracer.is_on() {
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: Self::trace_node(p.dst),
                family: Self::msg_family(&p),
                kind: Kind::NetDeliver,
                detail: Self::msg_name(&p),
                id,
                arg: 0,
            });
        }
        // Process at the destination; outgoing messages depart after the
        // local processing time. Each arm delivers into its family's
        // reused outbox, applies the effects, then routes the messages.
        // Private-data traffic is serviced directly at the memory module,
        // with no protocol controller.
        match p.kind {
            Body::PrivReq { home } => {
                let t = self.mems[home].service(now, self.cfg.mem.data_cost());
                let words = self.cfg.geometry.block_words.into();
                self.route(
                    t,
                    Msg::data(Endpoint::Dir, p.src, words, Body::PrivFill { home }),
                );
            }
            Body::PrivFill { .. } => {
                self.counters.bump_id(CounterId::PrivFill);
                let Endpoint::Node(node) = p.dst else {
                    unreachable!("private fill to a home module")
                };
                if self.nodes[node].waiting == Waiting::Fill {
                    self.resume_from(node, Waiting::Fill, now);
                }
            }
            Body::PrivWb { home } => {
                self.mems[home].service(now, self.cfg.mem.data_cost());
            }
            Body::Cbl { lock, kind } => {
                if let Some(c) = &self.check {
                    // Directory arrival order of requests defines the FIFO
                    // the grant stream must honour.
                    if let (Endpoint::Node(n), Endpoint::Dir, CblKind::Request(_)) =
                        (p.src, p.dst, kind)
                    {
                        c.borrow_mut().cbl_request(lock, n, now);
                    }
                }
                let depth_before = self.tracer.is_on().then(|| self.cbl[lock].waiters().len());
                let mut out = std::mem::take(&mut self.out.cbl);
                self.cbl[lock].deliver_into(p.with_kind(kind), &mut out);
                let t_done = self.processing_done(&p, &out.msgs, now);
                if let Some(before) = depth_before {
                    let after = self.cbl[lock].waiters().len();
                    if after != before {
                        self.tracer.emit(TraceEvent {
                            cycle: t_done,
                            node: -1,
                            family: Family::Cbl,
                            kind: Kind::Queue,
                            detail: "depth",
                            id: lock as u64,
                            arg: after as u64,
                        });
                    }
                }
                self.apply_cbl_effects(lock, &mut out.effects, t_done);
                self.route_all(t_done, out.msgs.drain(..), |kind| Body::Cbl { lock, kind });
                self.out.cbl = out;
            }
            Body::Ric { block, kind } => {
                let len_before = self.tracer.is_on().then(|| self.ric[block].len());
                let mut out = std::mem::take(&mut self.out.ric);
                self.ric[block].deliver_into(p.with_kind(kind), &mut out);
                let t_done = self.processing_done(&p, &out.msgs, now);
                self.emit_ric_len_change(block, len_before, t_done);
                self.apply_coh_effects(block, &mut out.effects, t_done);
                if let Some(c) = &self.check {
                    let list = self.ric[block].check_list();
                    c.borrow_mut().structural("ric.list", t_done, list);
                }
                #[cfg(debug_assertions)]
                if let Err(e) = self.ric[block].check_list() {
                    panic!("RIC invariant violated on block {block}: {e}");
                }
                self.route_all(t_done, out.msgs.drain(..), |kind| Body::Ric { block, kind });
                self.out.ric = out;
            }
            Body::Coh { line, kind } => {
                let mut out = std::mem::take(&mut self.out.coh);
                self.coh[line].deliver_into(p.with_kind(kind), &mut out);
                let t_done = self.processing_done(&p, &out.msgs, now);
                self.apply_coh_effects(line, &mut out.effects, t_done);
                if let Some(c) = &self.check {
                    c.borrow_mut().structural(
                        self.coh[line].swmr_invariant(),
                        t_done,
                        self.coh[line].check_single_writer(),
                    );
                }
                self.route_all(t_done, out.msgs.drain(..), |kind| Body::Coh { line, kind });
                self.out.coh = out;
            }
            Body::Bar(kind) => {
                let mut out = std::mem::take(&mut self.out.bar);
                self.hwbar.deliver_into(p.with_kind(kind), &mut out);
                let t_done = self.processing_done(&p, &out.msgs, now);
                for BarEffect::Passed { node, .. } in out.effects.drain(..) {
                    self.counters.bump_id(CounterId::BarrierHwPassed);
                    if self.nodes[node].waiting == Waiting::BarrierPass {
                        self.resume_from(node, Waiting::BarrierPass, t_done);
                    }
                }
                self.route_all(t_done, out.msgs.drain(..), Body::Bar);
                self.out.bar = out;
            }
            Body::Sem { sem, kind } => {
                let mut out = std::mem::take(&mut self.out.sem);
                self.sems[sem].deliver_into(p.with_kind(kind), &mut out);
                let t_done = self.processing_done(&p, &out.msgs, now);
                for e in out.effects.drain(..) {
                    match e {
                        SemEffect::Acquired { node } => {
                            self.counters.bump_id(CounterId::SemAcquired);
                            if self.nodes[node].waiting == Waiting::SemGrant(sem) {
                                self.resume_from(node, Waiting::SemGrant(sem), t_done);
                            }
                        }
                        SemEffect::VDone { node } => {
                            if self.nodes[node].waiting == Waiting::SemDone(sem) {
                                self.resume_from(node, Waiting::SemDone(sem), t_done);
                            }
                        }
                    }
                }
                self.route_all(t_done, out.msgs.drain(..), |kind| Body::Sem { sem, kind });
                self.out.sem = out;
            }
        }
    }

    /// Computes when processing of delivered `p`, which sends `out` on,
    /// finishes: at a node, a cache-directory check; at the home
    /// directory, a memory-module service of `t_D` — plus `t_m` when main
    /// memory is read or written (block data moving in or out, a one-word
    /// `WRITE-GLOBAL` or `READ-GLOBAL`, or a barrier/semaphore counter
    /// update; pure directory-pointer transactions like a queue forward
    /// cost `t_D` only, as in Table 3).
    fn processing_done<K>(&mut self, p: &Proto, out: &[Msg<K>], arrival: Cycle) -> Cycle {
        match p.dst {
            Endpoint::Node(_) => arrival + self.cfg.mem.dir_check,
            Endpoint::Dir => {
                let data = Self::dir_touches_memory(&p.kind)
                    || p.carries_data()
                    || out.iter().any(Msg::carries_data);
                let cost = if data {
                    self.cfg.mem.data_cost()
                } else {
                    self.cfg.mem.control_cost()
                };
                let home = self.home_of(p);
                self.mems[home].service(arrival, cost)
            }
        }
    }

    /// Whether a directory-bound message necessarily accesses main memory
    /// (beyond the directory entry) even when all its payloads are
    /// control-sized.
    fn dir_touches_memory(body: &Body) -> bool {
        match body {
            Body::Ric { kind, .. } => matches!(
                kind,
                RicKind::WriteGlobal { .. } | RicKind::ReadGlobalReq { .. }
            ),
            Body::Bar(kind) => matches!(kind, BarKind::Arrive),
            Body::Sem { kind, .. } => matches!(kind, SemKind::P | SemKind::V),
            // A Dragon write request carries the store's word to the home,
            // which applies it to main memory on serialization.
            Body::Coh { kind, .. } => matches!(
                kind,
                CohKind::Dragon(DragonKind::Upd { .. } | DragonKind::UpdFill { .. })
            ),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Effects
    // ------------------------------------------------------------------

    /// Appends a completed shared read to the log (when configured) and
    /// feeds the sanitizer's value oracle (when armed).
    fn record_read(&mut self, node: NodeId, addr: ssmp_core::addr::SharedAddr, value: u64) {
        if let Some(c) = &self.check {
            c.borrow_mut()
                .value_read(node, addr.block, addr.word, value, self.now());
        }
        if self.cfg.record_reads {
            self.read_log.push((node, addr.block, addr.word, value));
        }
    }

    /// Feeds a shared-data store into the sanitizer's value oracle.
    fn record_write(&mut self, node: NodeId, block: BlockId, word: u8, value: u64) {
        if let Some(c) = &self.check {
            c.borrow_mut().value_write(node, block, word, value);
        }
    }

    /// Whether completed shared reads need routing through [`record_read`]
    /// (either the report wants the read log or the sanitizer is armed).
    fn wants_reads(&self) -> bool {
        self.cfg.record_reads || self.check.is_some()
    }

    fn resume_from(&mut self, node: NodeId, expected: Waiting, t: Cycle) {
        debug_assert_eq!(
            self.nodes[node].waiting, expected,
            "node {node} resumed from unexpected wait state"
        );
        self.unstall_node(node, t);
        self.events.schedule(t + 1, Ev::Resume(node));
    }

    /// Stalls `node` on `w` at `now` (tracing the stall begin with the
    /// coarse cause label).
    fn stall_node(&mut self, node: NodeId, w: Waiting, now: Cycle) {
        self.stall_node_tagged(node, w, now, Node::cause(w));
    }

    /// Stalls `node` on `w` at `now`, tracing the stall begin with a
    /// refined attribution tag. The tag is what the profiler blames the
    /// stalled cycles on (e.g. `"flush.wbuf-full"` vs `"flush.cp-synch"`);
    /// `Node::cause` stays the coarse per-report category.
    fn stall_node_tagged(&mut self, node: NodeId, w: Waiting, now: Cycle, tag: &'static str) {
        if self.tracer.is_on() {
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family: Family::Node,
                kind: Kind::StallBegin,
                detail: tag,
                id: 0,
                arg: 0,
            });
            // Every stall opens a span typed by the attribution tag; the
            // wires the stalling operation already routed become the
            // span's own messages.
            let txn = self.next_txn();
            self.open_txn[node] = txn;
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family: Family::Node,
                kind: Kind::SpanBegin,
                detail: tag,
                id: txn,
                arg: 0,
            });
            if self.span_node == Some(node) {
                self.flush_span_pending(txn, now, node);
            }
        }
        self.nodes[node].stall(w, now);
    }

    /// CP-Synch guard of `UNLOCK`, V and barrier arrival: when the model
    /// flushes before CP-Synch and `node`'s write buffer is not drained,
    /// stalls it on the flush with `op` pending and returns true.
    fn flush_before_cp_synch(&mut self, node: NodeId, op: Op, now: Cycle) -> bool {
        if !self.cfg.model.flush_before(AccessClass::CpSynch) || self.nodes[node].wbuf.is_drained()
        {
            return false;
        }
        self.counters.bump_id(CounterId::FlushBeforeCpSynch);
        self.nodes[node].pending_op = Some(op);
        self.stall_node_tagged(node, Waiting::Flush, now, "flush.cp-synch");
        true
    }

    /// Emits a heatmap access event (profiler input): which block/word a
    /// shared reference touched and how (`detail` is the access class).
    fn trace_access(
        &mut self,
        now: Cycle,
        node: i64,
        family: Family,
        detail: &'static str,
        block: BlockId,
        word: u8,
    ) {
        if self.tracer.is_on() {
            self.tracer.emit(TraceEvent {
                cycle: now,
                node,
                family,
                kind: Kind::Access,
                detail,
                id: block as u64,
                arg: word as u64,
            });
        }
    }

    /// Emits a RIC list-churn event when `block`'s update list changed
    /// length (join or leave); `before` is `None` when tracing is off.
    fn emit_ric_len_change(&mut self, block: BlockId, before: Option<usize>, t: Cycle) {
        if let Some(before) = before {
            let after = self.ric[block].len();
            if after != before {
                self.tracer.emit(TraceEvent {
                    cycle: t,
                    node: -1,
                    family: Family::Ric,
                    kind: Kind::Queue,
                    detail: if after > before { "join" } else { "leave" },
                    id: block as u64,
                    arg: after as u64,
                });
            }
        }
    }

    /// Clears `node`'s stall at `now` (tracing the stall end; `arg` is the
    /// stall duration in cycles).
    fn unstall_node(&mut self, node: NodeId, now: Cycle) {
        if self.tracer.is_on() && self.nodes[node].waiting != Waiting::None {
            let n = &self.nodes[node];
            let cause = Node::cause(n.waiting);
            let dur = n.stall_start.map_or(0, |s| now.saturating_sub(s));
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family: Family::Node,
                kind: Kind::StallEnd,
                detail: cause,
                id: 0,
                arg: dur,
            });
            let txn = self.open_txn[node];
            if txn != 0 {
                self.open_txn[node] = 0;
                self.tracer.emit(TraceEvent {
                    cycle: now,
                    node: node as i64,
                    family: Family::Node,
                    kind: Kind::SpanEnd,
                    detail: cause,
                    id: txn,
                    arg: dur,
                });
            }
        }
        self.nodes[node].unstall(now);
    }

    /// Applies (and drains) the effects a lock queue reported.
    fn apply_cbl_effects(&mut self, lock: LockId, effects: &mut Vec<CblEffect>, t: Cycle) {
        for e in effects.drain(..) {
            match e {
                CblEffect::Granted { node, mode, .. } => {
                    self.counters.bump_id(CounterId::LockCblGranted);
                    if let Some(c) = &self.check {
                        c.borrow_mut().cbl_grant(lock, node, t);
                    }
                    if self.tracer.is_on() {
                        let waited = self.nodes[node]
                            .lock_wait_start
                            .map_or(0, |s| t.saturating_sub(s));
                        self.tracer.emit(TraceEvent {
                            cycle: t,
                            node: node as i64,
                            family: Family::Cbl,
                            kind: Kind::LockAcquire,
                            detail: "cbl",
                            id: lock as u64,
                            arg: waited,
                        });
                    }
                    self.nodes[node].held_locks.insert(lock);
                    let _ = mode;
                    if let Some(start) = self.nodes[node].lock_wait_start.take() {
                        self.lock_wait.record(t.saturating_sub(start));
                    }
                    // SC: an in-flight release completes when its handover
                    // grant lands.
                    if let Some(w) = self.release_waiters.remove(&lock) {
                        self.resume_from(w, Waiting::ReleaseDone(lock), t);
                    }
                    if self.nodes[node].waiting == Waiting::LockGrant(lock) {
                        self.resume_from(node, Waiting::LockGrant(lock), t);
                    }
                }
                CblEffect::ReleaseComplete { node } => {
                    self.counters.bump_id(CounterId::LockCblReleaseComplete);
                    if self.tracer.is_on() {
                        self.tracer.emit(TraceEvent {
                            cycle: t,
                            node: node as i64,
                            family: Family::Cbl,
                            kind: Kind::LockRelease,
                            detail: "cbl",
                            id: lock as u64,
                            arg: 0,
                        });
                    }
                    self.nodes[node].lock_cache.remove(lock);
                    if self.nodes[node].waiting == Waiting::ReleaseDone(lock) {
                        self.release_waiters.remove(&lock);
                        self.resume_from(node, Waiting::ReleaseDone(lock), t);
                    } else if self.nodes[node].waiting == Waiting::LineFree(lock) {
                        // A re-request was waiting for the line to drain.
                        self.unstall_node(node, t);
                        if let Some(op) = self.nodes[node].pending_op.take() {
                            self.with_tracking(node, t, |m| m.execute(node, op, t));
                        }
                    }
                }
                CblEffect::ReleaseForwarded { from, .. } => {
                    self.counters.bump_id(CounterId::LockCblReleaseForwarded);
                    self.nodes[from].lock_cache.remove(lock);
                }
            }
        }
        if let Some(c) = &self.check {
            c.borrow_mut()
                .structural("cbl.exclusion", t, self.cbl[lock].check_exclusion());
        }
        #[cfg(debug_assertions)]
        if let Err(e) = self.cbl[lock].check_exclusion() {
            panic!("CBL invariant violated on lock {lock}: {e}");
        }
    }

    /// Trace family of the configured shared-data scheme.
    fn data_family(&self) -> Family {
        match self.cfg.data {
            DataScheme::Ric => Family::Ric,
            DataScheme::Wbi => Family::Wbi,
            DataScheme::Mesi => Family::Mesi,
            DataScheme::Dragon => Family::Dragon,
        }
    }

    /// Applies (and drains) the effects a data-line controller (any of
    /// the four backends, RIC included) or a lock or flag line emitted
    /// while processing a delivery. Lock and flag lines wake their TTS and
    /// barrier waiters; only data lines feed the read log, the value
    /// oracle and the access heatmap.
    fn apply_coh_effects(&mut self, line: usize, effects: &mut Vec<CohEffect>, t: Cycle) {
        let kind = self.line(line);
        for e in effects.drain(..) {
            match e {
                CohEffect::FilledShared { node, ref data } => {
                    if let Line::Data(block) = kind {
                        if let Some(addr) = self.nodes[node].pending_record.take() {
                            if addr.block == block {
                                let v = data.get(addr.word);
                                self.record_read(node, addr, v);
                            } else {
                                self.nodes[node].pending_record = Some(addr);
                            }
                        }
                    }
                    match self.nodes[node].sync {
                        Some(SyncCtx::TtsLock {
                            lock,
                            phase: TtsPhase::Fetch,
                        }) if kind == Line::Lock(lock) => {
                            self.unstall_node(node, t);
                            self.with_tracking(node, t, |m| {
                                m.with_span(node, t, "lock", |m| m.tts_try(node, lock, t))
                            });
                        }
                        Some(SyncCtx::SwSpinFlag) if kind == Line::Flag => {
                            self.unstall_node(node, t);
                            self.nodes[node].sync = None;
                            self.with_tracking(node, t, |m| {
                                m.with_span(node, t, "barrier", |m| m.sw_spin_flag(node, t))
                            });
                        }
                        _ => {
                            if self.nodes[node].spin_global.is_some()
                                && self.nodes[node].waiting == Waiting::Fill
                            {
                                // re-check the freshly filled value
                                self.unstall_node(node, t);
                                self.stall_node_tagged(node, Waiting::Timer, t, "timer.flag");
                                self.events.schedule(t + 1, Ev::Retry(node));
                            } else if self.nodes[node].waiting == Waiting::Fill {
                                self.resume_from(node, Waiting::Fill, t);
                            }
                        }
                    }
                }
                CohEffect::FilledExcl { node, .. } | CohEffect::UpgradeGranted { node } => {
                    self.coh_ownership_arrived(line, kind, node, t);
                }
                CohEffect::Invalidated { node } => match kind {
                    Line::Data(block) => {
                        let ctr = match self.cfg.data {
                            DataScheme::Mesi => CounterId::MesiInvalidated,
                            _ => CounterId::WbiInvalidated,
                        };
                        self.counters.bump_id(ctr);
                        let fam = self.data_family();
                        self.trace_access(t, node as i64, fam, "invalidate", block, 0);
                    }
                    _ => {
                        // A release or flag write invalidated the copy a
                        // spinner watches: it re-reads a cycle later.
                        self.counters.bump_id(CounterId::WbiInvalidated);
                        let tag = match (kind, self.nodes[node].waiting) {
                            (Line::Lock(l), Waiting::SpinInv(SpinTarget::LockVar(m))) if l == m => {
                                "timer.lock"
                            }
                            (Line::Flag, Waiting::SpinInv(SpinTarget::Flag)) => "timer.flag",
                            _ => continue,
                        };
                        self.unstall_node(node, t);
                        self.stall_node_tagged(node, Waiting::Timer, t, tag);
                        self.events.schedule(t + 1, Ev::Retry(node));
                    }
                },
                CohEffect::Downgraded { .. } => {
                    let ctr = match (kind, self.cfg.data) {
                        (Line::Data(_), DataScheme::Mesi) => CounterId::MesiDowngraded,
                        (Line::Data(_), DataScheme::Dragon) => CounterId::DragonDowngraded,
                        _ => CounterId::WbiDowngraded,
                    };
                    self.counters.bump_id(ctr);
                }
                // The remaining effects come from Dragon and RIC, which
                // only ever run data lines, so `line` is the block id.
                CohEffect::UpdateApplied { node, word } => {
                    // A Dragon multicast or a RIC push landed fresh data in
                    // `node`'s copy in place — the update-protocol
                    // counterpart of an invalidation, and the heatmap signal
                    // that separates update from invalidate false-sharing
                    // behavior.
                    self.counters.bump_id(match self.cfg.data {
                        DataScheme::Ric => CounterId::RicUpdateApplied,
                        _ => CounterId::DragonUpdateApplied,
                    });
                    let fam = self.data_family();
                    self.trace_access(t, node as i64, fam, "update.apply", line, word);
                }
                CohEffect::StoreSerialized { node, word, value } => {
                    // The home serialized the store into main memory: this
                    // is the point the value becomes visible to fills, so
                    // the provenance oracle learns it here — before any
                    // pushed copy can be read.
                    self.record_write(node, line, word, value);
                }
                CohEffect::StoreComplete { node } => {
                    if matches!(
                        self.nodes[node].sync,
                        Some(SyncCtx::PendingStore { line: l, .. }) if l == line
                    ) {
                        self.nodes[node].sync = None;
                        self.resume_from(node, Waiting::Fill, t);
                    } else if self.nodes[node].waiting == Waiting::Fill {
                        self.resume_from(node, Waiting::Fill, t);
                    }
                }
                CohEffect::WriteDone { node, wid } => {
                    let txn = self.nodes[node].wbuf.txn_of(wid);
                    let acked = self.nodes[node].wbuf.ack(wid);
                    debug_assert!(acked, "write-ack for unknown wid");
                    self.wbuf_msgs[node].remove(&wid);
                    self.counters.bump_id(CounterId::WbufAcked);
                    if self.tracer.is_on() {
                        self.tracer.emit(TraceEvent {
                            cycle: t,
                            node: node as i64,
                            family: Family::Node,
                            kind: Kind::Queue,
                            detail: "wbuf.ack",
                            id: wid,
                            arg: self.nodes[node].wbuf.pending() as u64,
                        });
                        if txn != 0 {
                            let begin = self.wbuf_begin.remove(&txn).unwrap_or(t);
                            self.tracer.emit(TraceEvent {
                                cycle: t,
                                node: node as i64,
                                family: Family::Node,
                                kind: Kind::SpanEnd,
                                detail: "wbuf.write",
                                id: txn,
                                arg: t.saturating_sub(begin),
                            });
                        }
                    }
                    if self.nodes[node].wbuf.is_drained()
                        && self.nodes[node].waiting == Waiting::Flush
                    {
                        self.flush_done(node, t);
                    }
                }
                CohEffect::ReadValue { node, word, value } => {
                    if let Some(addr) = self.nodes[node].pending_record.take() {
                        if addr.block == line && addr.word == word {
                            self.record_read(node, addr, value);
                        } else {
                            self.nodes[node].pending_record = Some(addr);
                        }
                    }
                    if let Some((addr, target)) = self.nodes[node].spin_global {
                        if addr.block == line && addr.word == word {
                            if value == target {
                                self.nodes[node].spin_global = None;
                                self.resume_from(node, Waiting::Fill, t);
                            } else {
                                // re-poll after a cycle
                                self.unstall_node(node, t);
                                self.stall_node_tagged(node, Waiting::Timer, t, "timer.flag");
                                self.events.schedule(t + 1, Ev::Retry(node));
                            }
                            continue;
                        }
                    }
                    if self.nodes[node].waiting == Waiting::Fill {
                        self.resume_from(node, Waiting::Fill, t);
                    }
                }
                CohEffect::UpdateDropped { .. } => {
                    self.counters.bump_id(CounterId::RicUpdateDropped);
                }
            }
        }
    }

    /// Exclusive ownership (or an upgrade) arrived for `node` on `line`:
    /// perform the deferred store — a data or locked store, a TTS unlock,
    /// the barrier's flag write — or the test-and-set.
    fn coh_ownership_arrived(&mut self, line: usize, kind: Line, node: NodeId, t: Cycle) {
        let store = match self.nodes[node].sync {
            Some(SyncCtx::PendingStore {
                line: l,
                word,
                value,
            }) if l == line => Some((word, value)),
            Some(SyncCtx::TtsUnlock { lock }) if kind == Line::Lock(lock) => Some((0, 0)),
            Some(SyncCtx::SwWriteFlag) if kind == Line::Flag => Some((0, self.swbar.flag_value())),
            Some(SyncCtx::TtsLock {
                lock,
                phase: TtsPhase::Acquire,
            }) if kind == Line::Lock(lock) => {
                let old = self
                    .test_and_set(line, node)
                    .expect("test-and-set without ownership");
                self.counters.bump_id(CounterId::LockTtsTestAndSet);
                self.unstall_node(node, t);
                if old == 0 {
                    self.tts_acquired(node, lock, t);
                    return;
                }
                // Lost the race: the lock is held. Spin or back off.
                self.counters.bump_id(CounterId::LockTtsFailedTs);
                if self.cfg.locks == LockScheme::TtsBackoff {
                    let d = {
                        let n = &mut self.nodes[node];
                        let mut rng = n.rng.clone();
                        let d = n.backoff.next_delay(&mut rng);
                        n.rng = rng;
                        d
                    };
                    self.stall_node_tagged(node, Waiting::Timer, t, "timer.lock");
                    self.events.schedule(t + d, Ev::Retry(node));
                } else {
                    // We own the line (value 1); the releaser's write
                    // will invalidate us.
                    self.stall_node_tagged(
                        node,
                        Waiting::SpinInv(SpinTarget::LockVar(lock)),
                        t,
                        "spin.lock",
                    );
                }
                return;
            }
            _ => None,
        };
        match store {
            Some((word, value)) => {
                let ok = self.coh[line].local_write(node, word, value);
                debug_assert!(ok, "store failed after ownership");
                if let Line::Data(block) = kind {
                    self.record_write(node, block, word, value);
                }
                self.nodes[node].sync = None;
                self.resume_from(node, Waiting::Fill, t);
            }
            // A stale grant whose purpose was already served (a queued
            // transaction completing late); just resume if stalled on it.
            None => {
                if self.nodes[node].waiting == Waiting::Fill {
                    self.resume_from(node, Waiting::Fill, t);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Processor operation execution
    // ------------------------------------------------------------------

    fn resume(&mut self, node: NodeId) {
        let now = self.now();
        if self.nodes[node].done {
            return;
        }
        debug_assert_eq!(
            self.nodes[node].waiting,
            Waiting::None,
            "node {node} resumed while stalled"
        );
        self.nodes[node].ops_completed += 1;
        // Micro-ops first, then the workload.
        if let Some(m) = self.nodes[node].injected.pop_front() {
            match m {
                MicroOp::Op(op) => self.execute(node, op, now),
                MicroOp::SwArrive => {
                    self.with_span(node, now, "barrier", |m| m.sw_arrive(node, now))
                }
                MicroOp::SwWriteFlag => {
                    self.with_span(node, now, "barrier", |m| m.sw_write_flag(node, now))
                }
                MicroOp::SwSpinFlag => {
                    self.with_span(node, now, "barrier", |m| m.sw_spin_flag(node, now))
                }
            }
            return;
        }
        let op = {
            let n = &mut self.nodes[node];
            let mut rng = n.rng.clone();
            let op = self.workload.next_op(node, now, &mut rng);
            n.rng = rng;
            op
        };
        match op {
            Some(op) => self.execute(node, op, now),
            None => {
                let n = &mut self.nodes[node];
                n.done = true;
                n.done_at = now;
                self.live -= 1;
                self.completion = self.completion.max(now);
            }
        }
    }

    /// Short label of an operation (the `detail` of issue trace events).
    fn op_name(op: &Op) -> &'static str {
        match op {
            Op::Compute(_) => "compute",
            Op::Private { write: false } => "private.read",
            Op::Private { write: true } => "private.write",
            Op::SharedRead(_) => "shared.read",
            Op::ReadGlobal(_) => "read.global",
            Op::SpinUntilGlobal(..) => "spin.global",
            Op::SharedWrite(_) | Op::SharedWriteVal(..) => "shared.write",
            Op::ReadUpdate(_) => "read.update",
            Op::ResetUpdate(_) => "reset.update",
            Op::Lock(..) => "lock",
            Op::Unlock(_) => "unlock",
            Op::LockedRead(..) => "locked.read",
            Op::LockedWrite(..) | Op::LockedWriteVal(..) => "locked.write",
            Op::SemP(_) => "sem.p",
            Op::SemV(_) => "sem.v",
            Op::Barrier => "barrier",
            Op::FlushBuffer => "flush.buffer",
        }
    }

    /// Draws a fresh span transaction id.
    fn next_txn(&mut self) -> u64 {
        self.txn_ctr += 1;
        self.txn_ctr
    }

    /// Links every wire the current operation routed before its span
    /// opened to `txn` (emitting the `Link` events after the span's
    /// `SpanBegin`, which the stitcher requires).
    fn flush_span_pending(&mut self, txn: u64, now: Cycle, node: NodeId) {
        for (id, family) in std::mem::take(&mut self.span_pending) {
            self.wire_txn.insert(id, txn);
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family,
                kind: Kind::Link,
                detail: "wire",
                id,
                arg: txn,
            });
        }
    }

    /// Runs a node-level action under span attribution: wires it routes
    /// before stalling are collected and linked to the span its stall
    /// opens. An action that routes traffic but never stalls (a BC
    /// unlock, a BC `sem.v`) gets a zero-length span labelled `label` so
    /// its messages still have an owner — the causal anchor for the
    /// wakeups they trigger elsewhere. Nested calls are pass-throughs,
    /// and the delivery cause is masked for the duration: traffic the
    /// node initiates belongs to its new span, not to the wire that
    /// happened to wake it.
    fn with_span(
        &mut self,
        node: NodeId,
        now: Cycle,
        label: &'static str,
        f: impl FnOnce(&mut Self),
    ) {
        if !self.tracer.is_on() || self.span_node.is_some() {
            f(self);
            return;
        }
        let caused_by = self.cause;
        self.cause = 0;
        self.span_node = Some(node);
        f(self);
        self.span_node = None;
        self.cause = caused_by;
        if !self.span_pending.is_empty() {
            let txn = self.next_txn();
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family: Family::Node,
                kind: Kind::SpanBegin,
                detail: label,
                id: txn,
                arg: 0,
            });
            self.flush_span_pending(txn, now, node);
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family: Family::Node,
                kind: Kind::SpanEnd,
                detail: label,
                id: txn,
                arg: 0,
            });
        }
    }

    fn execute(&mut self, node: NodeId, op: Op, now: Cycle) {
        let label = Self::op_name(&op);
        self.with_span(node, now, label, |m| m.execute_inner(node, op, now));
    }

    fn execute_inner(&mut self, node: NodeId, op: Op, now: Cycle) {
        if self.tracer.is_on() {
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family: Family::Node,
                kind: Kind::Issue,
                detail: Self::op_name(&op),
                id: 0,
                arg: 0,
            });
        }
        match op {
            Op::Compute(c) => {
                self.events.schedule(now + c.max(1), Ev::Resume(node));
            }
            Op::Private { write } => {
                let outcome = match self.cfg.private_mode {
                    PrivateMode::Probabilistic => {
                        let n = &mut self.nodes[node];
                        let mut rng = n.rng.clone();
                        let o = self.priv_model.reference(&mut rng);
                        n.rng = rng;
                        o
                    }
                    PrivateMode::Exact(p) => {
                        // Draw a working-set address and run it through the
                        // node's real private cache; homes hash from the
                        // block address.
                        let nn = self.cfg.geometry.nodes;
                        let (block, dirty_victim) = {
                            let nd = &mut self.nodes[node];
                            let mut rng = nd.rng.clone();
                            let block = p.address(&mut rng);
                            nd.rng = rng;
                            match self.priv_caches[node].access(block, write) {
                                PrivAccess::Hit => (None, false),
                                PrivAccess::Miss { victim_dirty } => (Some(block), victim_dirty),
                            }
                        };
                        match block {
                            None => PrivateOutcome::Hit,
                            Some(b) => PrivateOutcome::Miss {
                                home: (b as usize) % nn,
                                dirty_victim,
                                victim_home: (b as usize).wrapping_mul(31) % nn,
                            },
                        }
                    }
                };
                match outcome {
                    PrivateOutcome::Hit => {
                        self.counters.bump_id(CounterId::PrivHit);
                        self.events.schedule(now + 1, Ev::Resume(node));
                    }
                    PrivateOutcome::Miss {
                        home,
                        dirty_victim,
                        victim_home,
                    } => {
                        self.counters.bump_id(CounterId::PrivMiss);
                        let me = Endpoint::Node(node);
                        self.route(now, Msg::ctl(me, Endpoint::Dir, Body::PrivReq { home }));
                        if dirty_victim {
                            self.counters.bump_id(CounterId::PrivWriteback);
                            let words = self.cfg.geometry.block_words.into();
                            let wb = Body::PrivWb { home: victim_home };
                            self.route(now, Msg::data(me, Endpoint::Dir, words, wb));
                        }
                        self.stall_node(node, Waiting::Fill, now);
                    }
                }
            }
            Op::SharedRead(addr) => {
                let fam = self.data_family();
                self.trace_access(now, node as i64, fam, "read", addr.block, addr.word);
                match self.cfg.data {
                    DataScheme::Ric => {
                        if let Some(v) = self.ric[addr.block].cached(node, addr.word) {
                            self.counters.bump_id(CounterId::SharedReadHit);
                            self.record_read(node, addr, v);
                            self.events.schedule(now + 1, Ev::Resume(node));
                        } else {
                            self.counters.bump_id(CounterId::SharedReadMiss);
                            if self.wants_reads() {
                                self.nodes[node].pending_record = Some(addr);
                            }
                            let msgs = self.ric[addr.block].read_update(node);
                            self.route_all(now, msgs, |kind| Body::Ric {
                                block: addr.block,
                                kind,
                            });
                            self.stall_node(node, Waiting::Fill, now);
                        }
                    }
                    _ => {
                        if let Some(v) = self.coh[addr.block].local_read(node, addr.word) {
                            self.counters.bump_id(CounterId::SharedReadHit);
                            self.record_read(node, addr, v);
                            self.events.schedule(now + 1, Ev::Resume(node));
                        } else {
                            self.counters.bump_id(CounterId::SharedReadMiss);
                            if self.wants_reads() {
                                self.nodes[node].pending_record = Some(addr);
                            }
                            self.coh_read_miss(node, addr.block, now);
                        }
                    }
                }
            }
            Op::ReadGlobal(addr) => match self.cfg.data {
                DataScheme::Ric => {
                    self.counters.bump_id(CounterId::SharedReadGlobal);
                    self.trace_access(
                        now,
                        node as i64,
                        Family::Ric,
                        "read.global",
                        addr.block,
                        addr.word,
                    );
                    if self.wants_reads() {
                        self.nodes[node].pending_record = Some(addr);
                    }
                    let msgs = self.ric[addr.block].read_global(node, addr.word);
                    self.route_all(now, msgs, |kind| Body::Ric {
                        block: addr.block,
                        kind,
                    });
                    self.stall_node(node, Waiting::Fill, now);
                }
                _ => {
                    // The write-coherent schemes have no cache-bypass read;
                    // a coherent read is the closest equivalent.
                    self.execute(node, Op::SharedRead(addr), now);
                }
            },
            Op::SpinUntilGlobal(addr, target) => {
                self.nodes[node].spin_global = Some((addr, target));
                self.counters.bump_id(CounterId::SharedSpinGlobal);
                let fam = self.data_family();
                self.trace_access(now, node as i64, fam, "read.global", addr.block, addr.word);
                match self.cfg.data {
                    DataScheme::Ric => {
                        if self.wants_reads() {
                            self.nodes[node].pending_record = Some(addr);
                        }
                        let msgs = self.ric[addr.block].read_global(node, addr.word);
                        self.route_all(now, msgs, |kind| Body::Ric {
                            block: addr.block,
                            kind,
                        });
                        self.stall_node(node, Waiting::Fill, now);
                    }
                    _ => {
                        // Poll coherently: read (miss fetches); the value is
                        // checked when the fill or the cached copy arrives.
                        // Invalidate backends wake the spinner through the
                        // refill; Dragon updates the copy in place and the
                        // poll sees the new word.
                        match self.coh[addr.block].local_read(node, addr.word) {
                            Some(v) if v == target => {
                                self.record_read(node, addr, v);
                                self.nodes[node].spin_global = None;
                                self.events.schedule(now + 1, Ev::Resume(node));
                            }
                            Some(_) => {
                                // spin on the cached copy
                                self.nodes[node].sync = None;
                                self.stall_node_tagged(node, Waiting::Timer, now, "timer.flag");
                                self.events.schedule(now + 2, Ev::Retry(node));
                            }
                            None => {
                                if self.wants_reads() {
                                    self.nodes[node].pending_record = Some(addr);
                                }
                                self.coh_read_miss(node, addr.block, now);
                            }
                        }
                    }
                }
            }
            Op::SharedWrite(addr) => {
                let stamp = self.next_stamp(node);
                self.execute(node, Op::SharedWriteVal(addr, stamp), now);
            }
            Op::SharedWriteVal(addr, stamp) => {
                match self.cfg.data {
                    DataScheme::Ric => {
                        match self.nodes[node].wbuf.push(addr, stamp) {
                            Enqueue::Accepted(wid) => {
                                // Keep the local copy fresh for our own reads.
                                self.ric[addr.block].store(node, addr.word, stamp, wid);
                                self.record_write(node, addr.block, addr.word, stamp);
                                self.counters.bump_id(CounterId::SharedWriteGlobal);
                                self.trace_access(
                                    now,
                                    node as i64,
                                    Family::Ric,
                                    "write",
                                    addr.block,
                                    addr.word,
                                );
                                if self.tracer.is_on() {
                                    self.tracer.emit(TraceEvent {
                                        cycle: now,
                                        node: node as i64,
                                        family: Family::Node,
                                        kind: Kind::Queue,
                                        detail: "wbuf.push",
                                        id: wid,
                                        arg: self.nodes[node].wbuf.pending() as u64,
                                    });
                                    // The buffered write's own span: open
                                    // now, closed by the write-ack. Its
                                    // wires are linked at issue time.
                                    let txn = self.next_txn();
                                    self.nodes[node].wbuf.tag_txn(wid, txn);
                                    self.wbuf_begin.insert(txn, now);
                                    self.tracer.emit(TraceEvent {
                                        cycle: now,
                                        node: node as i64,
                                        family: Family::Node,
                                        kind: Kind::SpanBegin,
                                        detail: "wbuf.write",
                                        id: txn,
                                        arg: 0,
                                    });
                                }
                                self.schedule_wbuf_issue(node, now);
                                if self.cfg.model.stalls_on_global_write() {
                                    // SC: wait until the write is performed.
                                    self.stall_node_tagged(
                                        node,
                                        Waiting::Flush,
                                        now,
                                        "flush.write",
                                    );
                                } else {
                                    self.events.schedule(now + 1, Ev::Resume(node));
                                }
                            }
                            Enqueue::Full => {
                                self.counters.bump_id(CounterId::WbufFullStall);
                                self.nodes[node].pending_op = Some(op);
                                self.stall_node_tagged(
                                    node,
                                    Waiting::Flush,
                                    now,
                                    "flush.wbuf-full",
                                );
                            }
                        }
                    }
                    _ => {
                        let fam = self.data_family();
                        self.trace_access(now, node as i64, fam, "write", addr.block, addr.word);
                        if self.coh[addr.block].local_write(node, addr.word, stamp) {
                            self.record_write(node, addr.block, addr.word, stamp);
                            self.counters.bump_id(CounterId::SharedWriteHit);
                            self.events.schedule(now + 1, Ev::Resume(node));
                        } else {
                            self.counters.bump_id(CounterId::SharedWriteMiss);
                            let store = SyncCtx::PendingStore {
                                line: addr.block,
                                word: addr.word,
                                value: stamp,
                            };
                            self.coh_write_miss(node, addr.block, (addr.word, stamp), store, now);
                        }
                    }
                }
            }
            Op::ReadUpdate(block) => match self.cfg.data {
                DataScheme::Ric => {
                    if self.ric[block].has_update(node) {
                        self.events.schedule(now + 1, Ev::Resume(node));
                    } else {
                        let msgs = self.ric[block].read_update(node);
                        self.route_all(now, msgs, |kind| Body::Ric { block, kind });
                        self.stall_node(node, Waiting::Fill, now);
                    }
                }
                _ => {
                    self.execute(
                        node,
                        Op::SharedRead(ssmp_core::addr::SharedAddr::new(block, 0)),
                        now,
                    );
                }
            },
            Op::ResetUpdate(block) => {
                if self.cfg.data == DataScheme::Ric {
                    let len_before = self.tracer.is_on().then(|| self.ric[block].len());
                    let msgs = self.ric[block].leave(node);
                    self.emit_ric_len_change(block, len_before, now);
                    self.route_all(now, msgs, |kind| Body::Ric { block, kind });
                }
                self.events.schedule(now + 1, Ev::Resume(node));
            }
            Op::Lock(lock, mode) => {
                for &h in &self.nodes[node].held_locks.clone() {
                    if h != lock {
                        self.lock_order.insert((h, lock));
                    }
                }
                self.nodes[node].lock_wait_start = Some(now);
                match self.cfg.locks {
                    LockScheme::Cbl => {
                        if self.cbl[lock].is_active(node) {
                            // Our previous release of this lock has not
                            // been acknowledged yet (BC lets the processor
                            // race ahead): the line must drain first.
                            self.counters.bump_id(CounterId::LockCblRerequestWait);
                            self.nodes[node].pending_op = Some(op);
                            self.stall_node(node, Waiting::LineFree(lock), now);
                            return;
                        }
                        let _ = self.nodes[node].lock_cache.try_insert(lock);
                        let msgs = self.cbl[lock].request(node, mode);
                        self.route_all(now, msgs, |kind| Body::Cbl { lock, kind });
                        self.stall_node(node, Waiting::LockGrant(lock), now);
                    }
                    LockScheme::Tts | LockScheme::TtsBackoff => {
                        // TTS supports exclusive locks only.
                        self.tts_try(node, lock, now);
                    }
                }
            }
            Op::Unlock(lock) => {
                // CP-Synch: drain the write buffer first (buffered
                // consistency); under SC the buffer is trivially drained.
                if self.flush_before_cp_synch(node, op, now) {
                    return;
                }
                match self.cfg.locks {
                    LockScheme::Cbl => {
                        self.nodes[node].held_locks.remove(&lock);
                        let (msgs, mut effects) = self.cbl[lock].release(node);
                        self.route_all(now, msgs, |kind| Body::Cbl { lock, kind });
                        let immediate_done = effects
                            .iter()
                            .any(|e| matches!(e, CblEffect::ReleaseComplete { .. }));
                        self.apply_cbl_effects(lock, &mut effects, now);
                        if self.cfg.model.waits_for_synch_completion() && !immediate_done {
                            self.release_waiters.insert(lock, node);
                            self.stall_node(node, Waiting::ReleaseDone(lock), now);
                        } else {
                            // BC: "the unlocking processor is allowed to
                            // continue its computation immediately".
                            self.events.schedule(now + 1, Ev::Resume(node));
                        }
                    }
                    LockScheme::Tts | LockScheme::TtsBackoff => {
                        self.tts_unlock(node, lock, now);
                    }
                }
            }
            Op::LockedRead(lock, word) => {
                match self.cfg.locks {
                    LockScheme::Cbl => {
                        debug_assert!(self.cbl[lock].holds(node), "locked read without the lock");
                        let _ = self.lock_data[lock].get(word);
                        self.events.schedule(now + 1, Ev::Resume(node));
                    }
                    LockScheme::Tts | LockScheme::TtsBackoff => {
                        // Lock-governed data lives in the lock block.
                        let line = self.lock_line(lock);
                        if self.coh[line].local_read(node, word).is_some() {
                            self.events.schedule(now + 1, Ev::Resume(node));
                        } else {
                            self.coh_read_miss(node, line, now);
                        }
                    }
                }
            }
            Op::LockedWrite(lock, word) => {
                let stamp = self.next_stamp(node);
                self.execute(node, Op::LockedWriteVal(lock, word, stamp), now);
            }
            Op::LockedWriteVal(lock, word, stamp) => match self.cfg.locks {
                LockScheme::Cbl => {
                    debug_assert!(self.cbl[lock].holds(node), "locked write without the lock");
                    self.lock_data[lock].set(word, stamp);
                    self.events.schedule(now + 1, Ev::Resume(node));
                }
                LockScheme::Tts | LockScheme::TtsBackoff => {
                    let line = self.lock_line(lock);
                    if self.coh[line].local_write(node, word, stamp) {
                        self.events.schedule(now + 1, Ev::Resume(node));
                    } else {
                        let store = SyncCtx::PendingStore {
                            line,
                            word,
                            value: stamp,
                        };
                        self.coh_write_miss(node, line, (word, stamp), store, now);
                    }
                }
            },
            Op::SemP(sem) => {
                // NP-Synch: no flush required.
                self.counters.bump_id(CounterId::SemP);
                let msgs = self.sems[sem].p(node);
                self.route_all(now, msgs, |kind| Body::Sem { sem, kind });
                self.stall_node(node, Waiting::SemGrant(sem), now);
            }
            Op::SemV(sem) => {
                // CP-Synch: prior global writes must be performed first.
                if self.flush_before_cp_synch(node, op, now) {
                    return;
                }
                self.counters.bump_id(CounterId::SemV);
                let msgs = self.sems[sem].v(node);
                self.route_all(now, msgs, |kind| Body::Sem { sem, kind });
                if self.cfg.model.waits_for_synch_completion() {
                    self.stall_node(node, Waiting::SemDone(sem), now);
                } else {
                    self.events.schedule(now + 1, Ev::Resume(node));
                }
            }
            Op::Barrier => {
                if self.flush_before_cp_synch(node, op, now) {
                    return;
                }
                match self.cfg.barrier {
                    BarrierScheme::Hw => {
                        let msgs = self.hwbar.arrive(node);
                        self.route_all(now, msgs, Body::Bar);
                        self.stall_node(node, Waiting::BarrierPass, now);
                    }
                    BarrierScheme::Sw => {
                        // Expand: lock; decrement; unlock; then write or
                        // spin on the flag.
                        let bl = self.barrier_lock();
                        self.nodes[node]
                            .injected
                            .push_back(MicroOp::Op(Op::Lock(bl, LockMode::Write)));
                        self.nodes[node].injected.push_back(MicroOp::SwArrive);
                        self.events.schedule(now + 1, Ev::Resume(node));
                    }
                }
            }
            Op::FlushBuffer => {
                if self.nodes[node].wbuf.is_drained() {
                    self.events.schedule(now + 1, Ev::Resume(node));
                } else {
                    self.counters.bump_id(CounterId::FlushExplicit);
                    self.stall_node_tagged(node, Waiting::Flush, now, "flush.explicit");
                }
            }
        }
    }

    /// The software barrier uses the last lock id as its own lock.
    fn barrier_lock(&self) -> LockId {
        self.flag_line() - 1 - self.data_lines()
    }

    /// TTS test-and-set of word 0 of a lock line: the old value, or `None`
    /// when `node` holds no writable copy. It is a local read then a local
    /// write, which only a Modified or Exclusive line accepts (and leaves
    /// Modified).
    fn test_and_set(&mut self, line: usize, node: NodeId) -> Option<u64> {
        let old = self.coh[line].local_read(node, 0)?;
        self.coh[line].local_write(node, 0, 1).then_some(old)
    }

    // ------------------------------------------------------------------
    // TTS spin lock
    // ------------------------------------------------------------------

    fn tts_try(&mut self, node: NodeId, lock: LockId, now: Cycle) {
        assert!(
            !self.nodes[node].held_locks.contains(&lock),
            "node {node} re-acquired lock {lock} it already holds (TTS would spin on itself forever)"
        );
        let line = self.lock_line(lock);
        match self.coh[line].local_read(node, 0) {
            Some(0) => {
                // Observed free: attempt the test-and-set (needs ownership).
                if self.test_and_set(line, node).is_some() {
                    // Already owner: acquired locally.
                    self.counters.bump_id(CounterId::LockTtsTestAndSet);
                    self.tts_acquired(node, lock, now);
                } else {
                    let phase = TtsPhase::Acquire;
                    self.coh_write_miss(node, line, (0, 1), SyncCtx::TtsLock { lock, phase }, now);
                }
            }
            Some(_) => {
                // Held: spin passively on the cached copy.
                self.counters.bump_id(CounterId::LockTtsSpin);
                self.nodes[node].sync = Some(SyncCtx::TtsLock {
                    lock,
                    phase: TtsPhase::Fetch,
                });
                self.stall_node_tagged(
                    node,
                    Waiting::SpinInv(SpinTarget::LockVar(lock)),
                    now,
                    "spin.lock",
                );
            }
            None => {
                // No cached copy: fetch it.
                let phase = TtsPhase::Fetch;
                self.nodes[node].sync = Some(SyncCtx::TtsLock { lock, phase });
                self.coh_read_miss(node, line, now);
            }
        }
    }

    fn tts_acquired(&mut self, node: NodeId, lock: LockId, t: Cycle) {
        self.counters.bump_id(CounterId::LockTtsAcquired);
        if self.tracer.is_on() {
            let waited = self.nodes[node]
                .lock_wait_start
                .map_or(0, |s| t.saturating_sub(s));
            self.tracer.emit(TraceEvent {
                cycle: t,
                node: node as i64,
                family: Family::Wbi,
                kind: Kind::LockAcquire,
                detail: "tts",
                id: lock as u64,
                arg: waited,
            });
        }
        self.nodes[node].held_locks.insert(lock);
        self.nodes[node].sync = None;
        self.nodes[node].backoff.reset();
        if let Some(start) = self.nodes[node].lock_wait_start.take() {
            self.lock_wait.record(t.saturating_sub(start));
        }
        self.events.schedule(t + 1, Ev::Resume(node));
    }

    fn tts_unlock(&mut self, node: NodeId, lock: LockId, now: Cycle) {
        self.nodes[node].held_locks.remove(&lock);
        if self.tracer.is_on() {
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family: Family::Wbi,
                kind: Kind::LockRelease,
                detail: "tts",
                id: lock as u64,
                arg: 0,
            });
        }
        let line = self.lock_line(lock);
        if self.coh[line].local_write(node, 0, 0) {
            // We still own the line: release is local (no spinners hold
            // copies, so nobody needs waking).
            self.counters.bump_id(CounterId::LockTtsReleaseLocal);
            self.events.schedule(now + 1, Ev::Resume(node));
        } else {
            // Regain ownership; the invalidations wake the spinners — the
            // release burst of the paper.
            self.counters.bump_id(CounterId::LockTtsReleaseRemote);
            self.coh_write_miss(node, line, (0, 0), SyncCtx::TtsUnlock { lock }, now);
        }
    }

    // ------------------------------------------------------------------
    // Software barrier
    // ------------------------------------------------------------------

    fn sw_arrive(&mut self, node: NodeId, now: Cycle) {
        // Holding the barrier lock: decrement the counter (a word of the
        // lock block — the machine tracks the count in `swbar`).
        let last = self.swbar.arrive(node);
        self.counters.bump_id(CounterId::BarrierSwArrive);
        let bl = self.barrier_lock();
        // store the new count into the lock block (local: we own it)
        let count_stamp = self.next_stamp(node);
        let line = self.lock_line(bl);
        let _ = self.coh[line].local_write(node, 1, count_stamp);
        self.nodes[node]
            .injected
            .push_back(MicroOp::Op(Op::Unlock(bl)));
        self.nodes[node].injected.push_back(if last {
            MicroOp::SwWriteFlag
        } else {
            MicroOp::SwSpinFlag
        });
        self.events.schedule(now + 1, Ev::Resume(node));
    }

    fn sw_write_flag(&mut self, node: NodeId, now: Cycle) {
        self.counters.bump_id(CounterId::BarrierSwNotify);
        let v = self.swbar.flag_value();
        let line = self.flag_line();
        if self.coh[line].local_write(node, 0, v) {
            self.events.schedule(now + 1, Ev::Resume(node));
        } else {
            self.coh_write_miss(node, line, (0, v), SyncCtx::SwWriteFlag, now);
        }
    }

    fn sw_spin_flag(&mut self, node: NodeId, now: Cycle) {
        if self.swbar.passable(node) {
            // Release flag observed (or bookkeeping already flipped): pass.
            self.counters.bump_id(CounterId::BarrierSwPassed);
            self.events.schedule(now + 1, Ev::Resume(node));
            return;
        }
        let line = self.flag_line();
        self.nodes[node].sync = Some(SyncCtx::SwSpinFlag);
        if self.coh[line].local_read(node, 0).is_some() {
            // Cached copy says "not yet": spin until invalidated.
            self.stall_node_tagged(node, Waiting::SpinInv(SpinTarget::Flag), now, "spin.flag");
        } else {
            self.coh_read_miss(node, line, now);
        }
    }

    // ------------------------------------------------------------------
    // Write buffer
    // ------------------------------------------------------------------

    fn schedule_wbuf_issue(&mut self, node: NodeId, now: Cycle) {
        if !self.nodes[node].wbuf_issue_scheduled {
            self.nodes[node].wbuf_issue_scheduled = true;
            self.events.schedule(now + 1, Ev::WbufIssue(node));
        }
    }

    fn wbuf_issue(&mut self, node: NodeId) {
        let now = self.now();
        self.nodes[node].wbuf_issue_scheduled = false;
        let Some(w) = self.nodes[node].wbuf.next_unissued() else {
            return;
        };
        self.counters.bump_id(CounterId::WbufIssued);
        let msgs = self.ric[w.addr.block].write_global(node, w.addr.word, w.value, w.id);
        let mark = self.track_buf.len();
        // Wires of a buffered write belong to its wbuf span (tagged at
        // enqueue), not to whatever context scheduled the issue.
        self.cause = w.txn;
        self.route_all(now, msgs, |kind| Body::Ric {
            block: w.addr.block,
            kind,
        });
        self.cause = 0;
        if self.cfg.retry.enabled {
            // Remember this write's wire messages until its ack retires it
            // — the retransmission set for a flush stall.
            let sent: Vec<(u64, Proto)> = self.track_buf[mark..].to_vec();
            if !sent.is_empty() {
                self.wbuf_msgs[node].insert(w.id, sent);
            }
        }
        // more to issue?
        if self.nodes[node].wbuf.pending() > 0 {
            self.schedule_wbuf_issue(node, now);
        }
    }

    fn flush_done(&mut self, node: NodeId, t: Cycle) {
        if self.tracer.is_on() {
            self.tracer.emit(TraceEvent {
                cycle: t,
                node: node as i64,
                family: Family::Node,
                kind: Kind::Flush,
                detail: "drained",
                id: 0,
                arg: 0,
            });
        }
        self.unstall_node(node, t);
        if let Some(op) = self.nodes[node].pending_op.take() {
            self.with_tracking(node, t, |m| m.execute(node, op, t));
        } else {
            self.events.schedule(t + 1, Ev::Resume(node));
        }
    }

    // ------------------------------------------------------------------
    // Protocol retry (timeout + bounded retransmission)
    // ------------------------------------------------------------------

    /// Runs a node-level action, recording the requests it puts on the
    /// wire; if the node ends up stalled waiting for a reply, a retransmit
    /// timer is armed over them. Nested calls are pass-throughs (the
    /// outermost wins), as is the whole mechanism when retry is disabled.
    fn with_tracking(&mut self, node: NodeId, now: Cycle, f: impl FnOnce(&mut Self)) {
        if !self.cfg.retry.enabled || self.tracking.is_some() {
            f(self);
            return;
        }
        self.tracking = Some(node);
        self.track_buf.clear();
        f(self);
        self.tracking = None;
        self.commit_tracking(node, now);
    }

    /// Which stalls a retransmission can resolve: waits for a protocol
    /// reply to a request this node sent. Passive spins and timers have no
    /// outstanding request to retransmit (a lost wakeup there is caught by
    /// the watchdog instead).
    fn retryable(w: Waiting) -> bool {
        matches!(
            w,
            Waiting::Fill
                | Waiting::LockGrant(_)
                | Waiting::ReleaseDone(_)
                | Waiting::BarrierPass
                | Waiting::SemGrant(_)
                | Waiting::SemDone(_)
                | Waiting::Flush
        )
    }

    fn commit_tracking(&mut self, node: NodeId, now: Cycle) {
        let mut msgs = std::mem::take(&mut self.track_buf);
        let waiting = self.nodes[node].waiting;
        if !Self::retryable(waiting) {
            return;
        }
        if waiting == Waiting::Flush {
            // A flush stall is resolved by write acks; the retransmission
            // set is every issued-but-unacked buffered write.
            msgs = self.wbuf_msgs[node].values().flatten().cloned().collect();
        }
        if msgs.is_empty() {
            return;
        }
        self.epoch_ctr += 1;
        let epoch = self.epoch_ctr;
        self.retry_backoff[node].reset();
        self.pending_req[node] = Some(PendingReq {
            epoch,
            attempts: 1,
            waiting,
            msgs,
        });
        self.events
            .schedule(now + self.cfg.retry.timeout, Ev::Timeout { node, epoch });
    }

    fn handle_timeout(&mut self, node: NodeId, epoch: u64) {
        let now = self.now();
        let live = match &self.pending_req[node] {
            Some(req) => {
                req.epoch == epoch
                    && !self.nodes[node].done
                    && self.nodes[node].waiting == req.waiting
            }
            None => false,
        };
        if !live {
            // The reply arrived (or the node moved on): the timer is stale.
            if self.pending_req[node]
                .as_ref()
                .is_some_and(|r| r.epoch == epoch)
            {
                self.pending_req[node] = None;
            }
            return;
        }
        let (waiting, attempts) = {
            let req = self.pending_req[node].as_mut().expect("validated above");
            if req.attempts >= self.cfg.retry.max_attempts {
                // Out of attempts: stop retransmitting; the watchdog will
                // report the node if nothing else unblocks it.
                self.counters.bump_id(CounterId::RetryExhausted);
                let attempts = req.attempts;
                self.pending_req[node] = None;
                if self.tracer.is_on() {
                    self.tracer.emit(TraceEvent {
                        cycle: now,
                        node: node as i64,
                        family: Family::Net,
                        kind: Kind::Retry,
                        detail: "exhausted",
                        id: epoch,
                        arg: attempts as u64,
                    });
                }
                return;
            }
            req.attempts += 1;
            (req.waiting, req.attempts)
        };
        let msgs: Vec<(u64, Proto)> = if waiting == Waiting::Flush {
            // Refresh against acks that landed since the timer was armed.
            self.wbuf_msgs[node].values().flatten().cloned().collect()
        } else {
            self.pending_req[node]
                .as_ref()
                .expect("validated above")
                .msgs
                .clone()
        };
        if msgs.is_empty() {
            self.pending_req[node] = None;
            return;
        }
        self.counters.bump_id(CounterId::RetryRetransmit);
        self.retry_counts[node] += 1;
        if self.tracer.is_on() {
            self.tracer.emit(TraceEvent {
                cycle: now,
                node: node as i64,
                family: Family::Net,
                kind: Kind::Retry,
                detail: "retransmit",
                id: epoch,
                arg: attempts as u64,
            });
        }
        for (id, p) in msgs {
            self.route_wire(now, id, p);
        }
        let jitter = self.retry_backoff[node].next_delay(&mut self.retry_rng);
        self.events.schedule(
            now + self.cfg.retry.timeout + jitter,
            Ev::Timeout { node, epoch },
        );
    }

    // ------------------------------------------------------------------
    // Retry (spin wakeup / backoff expiry)
    // ------------------------------------------------------------------

    fn retry(&mut self, node: NodeId) {
        let now = self.now();
        if self.nodes[node].done {
            return;
        }
        if self.nodes[node].waiting == Waiting::Timer {
            self.unstall_node(node, now);
        }
        if let Some((addr, target)) = self.nodes[node].spin_global {
            self.execute(node, Op::SpinUntilGlobal(addr, target), now);
            return;
        }
        match self.nodes[node].sync {
            Some(SyncCtx::TtsLock { lock, .. }) => {
                self.with_span(node, now, "lock", |m| m.tts_try(node, lock, now))
            }
            Some(SyncCtx::SwSpinFlag) => {
                self.nodes[node].sync = None;
                self.with_span(node, now, "barrier", |m| m.sw_spin_flag(node, now));
            }
            other => panic!("retry with no spin context: {other:?}"),
        }
    }
}

/// Finds a cycle in the lock-order graph, if any (DFS with colors).
fn find_lock_cycle(edges: &[(LockId, LockId)]) -> Option<Vec<LockId>> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<LockId, Vec<LockId>> = BTreeMap::new();
    let mut nodes: BTreeSet<LockId> = BTreeSet::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut visited: BTreeSet<LockId> = BTreeSet::new();
    for &start in &nodes {
        if visited.contains(&start) {
            continue;
        }
        // iterative DFS tracking the current path
        let mut path: Vec<LockId> = Vec::new();
        let mut on_path: BTreeSet<LockId> = BTreeSet::new();
        let mut stack: Vec<(LockId, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i == 0 {
                path.push(v);
                on_path.insert(v);
                visited.insert(v);
            }
            let next = adj.get(&v).and_then(|ns| ns.get(*i)).copied();
            *i += 1;
            match next {
                Some(w) => {
                    if on_path.contains(&w) {
                        // cycle: slice of path from w
                        let pos = path.iter().position(|&x| x == w).expect("on path");
                        return Some(path[pos..].to_vec());
                    }
                    if !visited.contains(&w) {
                        stack.push((w, 0));
                    }
                }
                None => {
                    stack.pop();
                    path.pop();
                    on_path.remove(&v);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Script;
    use ssmp_core::addr::SharedAddr;

    fn addr(b: BlockId, w: u8) -> SharedAddr {
        SharedAddr::new(b, w)
    }

    fn run(cfg: MachineConfig, streams: Vec<Vec<Op>>, locks: usize) -> Report {
        let wl = Script::new(streams);
        Machine::builder(cfg)
            .workload(Box::new(wl))
            .locks(locks)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn wire_envelope_keeps_the_event_layout() {
        // The shared header around `Body` is no larger than the former
        // per-controller message variants: 80-byte wire message, 88-byte
        // event.
        assert!(std::mem::size_of::<Proto>() <= 80);
        assert!(std::mem::size_of::<Ev>() <= 88);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn data_effect_stays_within_88_bytes() {
        // Every data-line delivery (RIC pushes included) reports through
        // `CohEffect`; the RIC shapes must not widen the fill variants'
        // inline block.
        assert!(std::mem::size_of::<CohEffect>() <= 88);
    }

    #[test]
    fn empty_workload_finishes_at_zero() {
        let r = run(MachineConfig::wbi(4), vec![vec![]; 4], 1);
        assert_eq!(r.completion, 0);
    }

    #[test]
    fn compute_only() {
        let r = run(
            MachineConfig::wbi(2),
            vec![vec![Op::Compute(100)], vec![]],
            1,
        );
        assert_eq!(r.completion, 100);
    }

    #[test]
    fn private_references_progress() {
        let ops = vec![Op::Private { write: false }; 200];
        let r = run(MachineConfig::wbi(4), vec![ops; 4], 1);
        assert!(r.completion > 200, "misses must cost time");
        assert!(r.counters.get("priv.hit") > 600, "most references hit");
        assert!(r.counters.get("priv.miss") > 0);
    }

    #[test]
    fn shared_rw_wbi_roundtrip() {
        // One node writes, another reads the same word.
        let streams = vec![
            vec![Op::SharedWrite(addr(0, 1)), Op::Barrier],
            vec![Op::Barrier, Op::SharedRead(addr(0, 1))],
        ];
        let r = run(MachineConfig::wbi(2), streams, 1);
        assert!(r.completion > 0);
        assert!(r.counters.get("msg.wbi.read_req") >= 1);
    }

    #[test]
    fn shared_rw_ric_roundtrip() {
        let streams = vec![
            vec![Op::SharedWrite(addr(0, 1)), Op::Barrier],
            vec![
                Op::SharedRead(addr(0, 1)),
                Op::Barrier,
                Op::SharedRead(addr(0, 1)),
            ],
        ];
        let r = run(MachineConfig::sc_cbl(2), streams, 1);
        assert!(r.counters.get("msg.ric.write_global") == 1);
        // reader enrolled, so the write pushed an update
        assert!(r.counters.get("msg.ric.update_push") >= 1);
    }

    #[test]
    fn cbl_lock_mutual_exclusion_traffic() {
        let cs = |n: usize| {
            vec![
                Op::Lock(0, LockMode::Write),
                Op::LockedWrite(0, 1),
                Op::Compute(n as u64 + 5),
                Op::Unlock(0),
            ]
        };
        let streams: Vec<Vec<Op>> = (0..4).map(cs).collect();
        let r = run(MachineConfig::cbl(4), streams, 1);
        assert_eq!(r.counters.get("lock.cbl.granted"), 4);
        assert_eq!(r.lock_wait.count(), 4);
    }

    #[test]
    fn tts_lock_acquire_release() {
        let streams: Vec<Vec<Op>> = (0..4)
            .map(|_| vec![Op::Lock(0, LockMode::Write), Op::Compute(10), Op::Unlock(0)])
            .collect();
        let r = run(MachineConfig::wbi(4), streams, 1);
        assert_eq!(r.counters.get("lock.tts.acquired"), 4);
        // contention should generate invalidation traffic
        assert!(r.counters.get("msg.wbi.inv") > 0);
    }

    #[test]
    fn tts_backoff_variant_acquires() {
        let streams: Vec<Vec<Op>> = (0..8)
            .map(|_| vec![Op::Lock(0, LockMode::Write), Op::Compute(20), Op::Unlock(0)])
            .collect();
        let r = run(MachineConfig::wbi_backoff(8), streams, 1);
        assert_eq!(r.counters.get("lock.tts.acquired"), 8);
    }

    #[test]
    fn hw_barrier_synchronises() {
        // Node 0 computes long, others arrive early; all must leave
        // together.
        let mut streams = vec![vec![Op::Compute(500), Op::Barrier]];
        for _ in 1..4 {
            streams.push(vec![Op::Barrier]);
        }
        let r = run(MachineConfig::cbl(4), streams, 1);
        assert!(r.completion >= 500);
        assert_eq!(r.counters.get("barrier.hw.passed"), 4);
    }

    #[test]
    fn sw_barrier_synchronises() {
        let mut streams = vec![vec![Op::Compute(500), Op::Barrier]];
        for _ in 1..4 {
            streams.push(vec![Op::Barrier]);
        }
        let r = run(MachineConfig::wbi(4), streams, 2);
        assert!(r.completion >= 500);
        assert_eq!(r.counters.get("barrier.sw.arrive"), 4);
        assert_eq!(r.counters.get("barrier.sw.notify"), 1);
    }

    #[test]
    fn bc_overlaps_writes_sc_does_not() {
        // A burst of global writes followed by compute: BC should overlap
        // them; SC pays a round trip per write.
        let ops: Vec<Op> = (0..16)
            .map(|i| Op::SharedWrite(addr(i % 8, (i % 4) as u8)))
            .chain(std::iter::once(Op::FlushBuffer))
            .collect();
        let sc = run(MachineConfig::sc_cbl(4), vec![ops.clone(); 4], 1);
        let bc = run(MachineConfig::bc_cbl(4), vec![ops; 4], 1);
        assert!(
            bc.completion < sc.completion,
            "BC ({}) must beat SC ({}) on write bursts",
            bc.completion,
            sc.completion
        );
    }

    #[test]
    fn unlock_flushes_under_bc() {
        let ops = vec![
            Op::Lock(0, LockMode::Write),
            Op::SharedWrite(addr(0, 0)),
            Op::SharedWrite(addr(1, 0)),
            Op::Unlock(0),
        ];
        let r = run(MachineConfig::bc_cbl(2), vec![ops, vec![]], 1);
        assert!(
            r.counters.get("flush.before_cp_synch") >= 1,
            "unlock after buffered writes must flush: {}",
            r.counters
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mk = || {
            let streams: Vec<Vec<Op>> = (0..4)
                .map(|_| {
                    vec![
                        Op::Private { write: false },
                        Op::Lock(0, LockMode::Write),
                        Op::Compute(7),
                        Op::Unlock(0),
                        Op::Barrier,
                    ]
                })
                .collect();
            run(MachineConfig::cbl(4), streams, 1)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.net_packets, b.net_packets);
    }

    #[test]
    fn contended_cbl_beats_tts_on_messages() {
        let cs: Vec<Op> = vec![Op::Lock(0, LockMode::Write), Op::Compute(5), Op::Unlock(0)];
        let n = 16;
        let cbl = run(MachineConfig::cbl(n), vec![cs.clone(); n], 1);
        let tts = run(MachineConfig::wbi(n), vec![cs; n], 1);
        let cbl_msgs = cbl.messages("msg.cbl.");
        let tts_msgs = tts.messages("msg.wbi.");
        assert!(
            cbl_msgs * 2 < tts_msgs,
            "CBL ({cbl_msgs}) should use far fewer messages than TTS ({tts_msgs})"
        );
    }

    #[test]
    fn read_locks_share_under_cbl() {
        let reader = vec![
            Op::Lock(0, LockMode::Read),
            Op::LockedRead(0, 1),
            Op::Compute(50),
            Op::Unlock(0),
        ];
        let r = run(MachineConfig::cbl(4), vec![reader; 4], 1);
        assert_eq!(r.counters.get("lock.cbl.granted"), 4);
        // with sharing, waits should be short: mean well under the CS time
        assert!(r.lock_wait.mean().unwrap() < 100.0);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::op::Script;
    use ssmp_core::addr::SharedAddr;

    fn run_with_sems(cfg: MachineConfig, streams: Vec<Vec<Op>>, sems: &[u64]) -> Report {
        Machine::builder(cfg)
            .workload(Box::new(Script::new(streams)))
            .locks(2)
            .semaphores(sems)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn semaphore_blocks_until_v() {
        // node 1 P's an empty semaphore; node 0 V's it after a long compute
        let streams = vec![vec![Op::Compute(500), Op::SemV(0)], vec![Op::SemP(0)]];
        let r = run_with_sems(MachineConfig::cbl(2), streams, &[0]);
        assert!(
            r.completion >= 500,
            "P must wait for the V: {}",
            r.completion
        );
        assert_eq!(r.counters.get("sem.acquired"), 1);
    }

    #[test]
    fn semaphore_v_flushes_under_bc() {
        let streams = vec![
            vec![
                Op::SharedWrite(SharedAddr::new(0, 0)),
                Op::SharedWrite(SharedAddr::new(1, 0)),
                Op::SemV(0),
            ],
            vec![Op::SemP(0)],
        ];
        let r = run_with_sems(MachineConfig::bc_cbl(2), streams, &[0]);
        assert!(
            r.counters.get("flush.before_cp_synch") >= 1,
            "V is CP-Synch and must flush: {}",
            r.counters
        );
    }

    #[test]
    fn semaphore_works_under_every_config() {
        for cfg in [
            MachineConfig::wbi(4),
            MachineConfig::cbl(4),
            MachineConfig::bc_cbl(4),
        ] {
            let streams: Vec<Vec<Op>> = (0..4)
                .map(|_| vec![Op::SemP(0), Op::Compute(10), Op::SemV(0)])
                .collect();
            let r = run_with_sems(cfg, streams, &[2]);
            assert_eq!(r.counters.get("sem.acquired"), 4);
            // capacity 2: the four 10-cycle holds need at least two rounds
            assert!(r.completion >= 20);
        }
    }

    #[test]
    fn spin_until_global_under_wbi() {
        let streams = vec![
            vec![
                Op::Compute(300),
                Op::SharedWriteVal(SharedAddr::new(3, 0), 7),
            ],
            vec![Op::SpinUntilGlobal(SharedAddr::new(3, 0), 7)],
        ];
        let r = Machine::builder(MachineConfig::wbi(2))
            .workload(Box::new(Script::new(streams)))
            .locks(2)
            .build()
            .unwrap()
            .run();
        assert!(r.completion >= 300);
    }

    #[test]
    fn spin_until_global_under_ric() {
        let streams = vec![
            vec![
                Op::Compute(300),
                Op::SharedWriteVal(SharedAddr::new(3, 0), 7),
                Op::FlushBuffer,
            ],
            vec![Op::SpinUntilGlobal(SharedAddr::new(3, 0), 7)],
        ];
        let r = Machine::builder(MachineConfig::bc_cbl(2))
            .workload(Box::new(Script::new(streams)))
            .locks(2)
            .build()
            .unwrap()
            .run();
        assert!(r.completion >= 300);
        assert!(r.counters.get("msg.ric.read_global") >= 1);
    }

    #[test]
    fn bus_topology_runs_and_serialises() {
        let mut omega = MachineConfig::bc_cbl(8);
        let mut bus = MachineConfig::bc_cbl(8);
        bus.topology = ssmp_net::Topology::Bus;
        omega.topology = ssmp_net::Topology::Omega;
        let mk = |cfg: MachineConfig| {
            let streams: Vec<Vec<Op>> = (0..8)
                .map(|i| {
                    (0..20)
                        .map(|k| Op::ReadGlobal(SharedAddr::new((i + k) % 8, 0)))
                        .collect()
                })
                .collect();
            Machine::builder(cfg)
                .workload(Box::new(Script::new(streams)))
                .locks(1)
                .build()
                .unwrap()
                .run()
                .completion
        };
        let o = mk(omega);
        let b = mk(bus);
        assert!(
            b > o,
            "bus ({b}) must be slower than omega ({o}) under load"
        );
    }

    #[test]
    fn exact_private_mode_runs() {
        let mut cfg = MachineConfig::bc_cbl(4);
        cfg.private_mode = crate::config::PrivateMode::Exact(Default::default());
        let streams: Vec<Vec<Op>> = (0..4)
            .map(|_| vec![Op::Private { write: false }; 300])
            .collect();
        let r = Machine::builder(cfg)
            .workload(Box::new(Script::new(streams)))
            .locks(1)
            .build()
            .unwrap()
            .run();
        let hits = r.counters.get("priv.hit");
        let misses = r.counters.get("priv.miss");
        assert_eq!(hits + misses, 4 * 300);
        assert!(misses > 0, "cold caches must miss");
    }

    #[test]
    fn stall_breakdown_populates() {
        let streams: Vec<Vec<Op>> = (0..4)
            .map(|_| {
                vec![
                    Op::Lock(0, LockMode::Write),
                    Op::Compute(20),
                    Op::Unlock(0),
                    Op::Barrier,
                ]
            })
            .collect();
        let r = Machine::builder(MachineConfig::cbl(4))
            .workload(Box::new(Script::new(streams)))
            .locks(2)
            .build()
            .unwrap()
            .run();
        assert!(r.stall_breakdown.get("lock").copied().unwrap_or(0) > 0);
        assert!(r.stall_breakdown.get("barrier").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn limited_directory_config_applies() {
        let mut cfg = MachineConfig::wbi(8);
        cfg.wbi_sharer_limit = Some(1);
        let streams: Vec<Vec<Op>> = (0..8)
            .map(|_| vec![Op::SharedRead(SharedAddr::new(0, 0)); 4])
            .collect();
        let r = Machine::builder(cfg)
            .workload(Box::new(Script::new(streams)))
            .locks(2)
            .build()
            .unwrap()
            .run();
        assert!(
            r.counters.get("wbi.dir_evictions") > 0,
            "eight readers of one block must overflow a Dir_1"
        );
    }
}
