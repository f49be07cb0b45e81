//! Cycle-accurate event tracing.
//!
//! The paper's evaluation reasons about *when* things happen — write-buffer
//! absorption before CP-Synch, RIC update pushes racing readers, CBL queue
//! hand-offs — but aggregate counters only say *how often*. This module
//! records a typed [`TraceEvent`] at every point the machine already bumps
//! a counter, into a bounded [`TraceRing`] and through pluggable
//! [`TraceSink`]s:
//!
//! * [`JsonlSink`] — one JSON object per line, streamed as events occur
//!   (cheap, greppable, machine-validated by `ssmp trace stats`).
//! * [`PerfettoSink`] — Chrome-trace / Perfetto JSON with per-node tracks,
//!   stall duration spans, and message flow events; open the file in
//!   <https://ui.perfetto.dev> or `chrome://tracing`.
//! * [`MemorySink`] — events into a shared `Vec` for tests and tooling.
//!
//! Tracing is **always compiled and zero-cost when off**: a disabled
//! [`Tracer`] reduces `emit` to one branch, and recording never touches
//! simulation state, RNG streams, or event ordering — a traced run's
//! completion time and counters are bit-identical to an untraced run.

use std::cell::RefCell;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::rc::Rc;

use crate::json::{escape, Escaped, Json};
use crate::{Cycle, IdMap};

/// Protocol family (or subsystem) an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Write-back-invalidate coherence (data, lock, and flag blocks).
    Wbi,
    /// Reader-initiated coherence (update lists).
    Ric,
    /// Cache-based queued locks.
    Cbl,
    /// Hardware barrier.
    Bar,
    /// Hardware counting semaphores.
    Sem,
    /// Private-data miss traffic.
    Priv,
    /// Processor-local events (op issue, stalls).
    Node,
    /// Interconnect-level events (faults, dedup).
    Net,
    /// Snooping MESI write-invalidate coherence (data blocks).
    Mesi,
    /// Dragon write-update coherence (data blocks).
    Dragon,
}

impl Family {
    /// All families, in declaration order.
    pub const ALL: [Family; 10] = [
        Family::Wbi,
        Family::Ric,
        Family::Cbl,
        Family::Bar,
        Family::Sem,
        Family::Priv,
        Family::Node,
        Family::Net,
        Family::Mesi,
        Family::Dragon,
    ];

    /// The stable token used in trace files and `--trace-filter`.
    pub fn token(self) -> &'static str {
        match self {
            Family::Wbi => "wbi",
            Family::Ric => "ric",
            Family::Cbl => "cbl",
            Family::Bar => "bar",
            Family::Sem => "sem",
            Family::Priv => "priv",
            Family::Node => "node",
            Family::Net => "net",
            Family::Mesi => "mesi",
            Family::Dragon => "dragon",
        }
    }

    /// Parses a filter/file token.
    pub fn from_token(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.token() == s)
    }
}

/// What kind of event occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A processor issued an operation.
    Issue,
    /// A protocol message departed onto the interconnect.
    NetInject,
    /// A protocol message was processed at its destination.
    NetDeliver,
    /// A timed-out request was retransmitted.
    Retry,
    /// The fault plan dropped, duplicated, or delayed a message (or a
    /// duplicate was suppressed at delivery).
    Fault,
    /// A processor stalled (detail = cause).
    StallBegin,
    /// A stalled processor resumed (detail = cause).
    StallEnd,
    /// A lock was acquired.
    LockAcquire,
    /// A lock was released.
    LockRelease,
    /// A write-buffer drain completed.
    Flush,
    /// A shared-data access touched a block (detail = access class:
    /// `"read"`, `"read.global"`, `"write"`, `"update.apply"`,
    /// `"invalidate"`; id = block, arg = word). Feeds the per-line
    /// heatmaps and the false-sharing detector.
    Access,
    /// A queue/list membership change (CBL waiter queue, RIC update list,
    /// write-buffer residency; id = lock/block/write id, arg = new depth).
    Queue,
    /// A node retired its final operation (emitted once per node at end of
    /// run; cycle = the node's completion time).
    Done,
    /// A transaction span opened (detail = transaction type: the stall
    /// cause tag, `"wbuf.write"` for buffered global writes, or the op
    /// name for fire-and-forget ops; id = transaction id).
    SpanBegin,
    /// A transaction span closed (detail = transaction type, id =
    /// transaction id, arg = end-to-end duration in cycles).
    SpanEnd,
    /// A causal edge binding a wire to the transaction that caused it
    /// (id = wire id, arg = transaction id). Emitted at injection time,
    /// after the owning `SpanBegin` for request wires and inside the
    /// delivery that triggered the send for replies/forwards.
    Link,
}

impl Kind {
    /// All kinds, in declaration order.
    pub const ALL: [Kind; 16] = [
        Kind::Issue,
        Kind::NetInject,
        Kind::NetDeliver,
        Kind::Retry,
        Kind::Fault,
        Kind::StallBegin,
        Kind::StallEnd,
        Kind::LockAcquire,
        Kind::LockRelease,
        Kind::Flush,
        Kind::Access,
        Kind::Queue,
        Kind::Done,
        Kind::SpanBegin,
        Kind::SpanEnd,
        Kind::Link,
    ];

    /// The stable token used in trace files and `--trace-filter`.
    pub fn token(self) -> &'static str {
        match self {
            Kind::Issue => "issue",
            Kind::NetInject => "net-inject",
            Kind::NetDeliver => "net-deliver",
            Kind::Retry => "retry",
            Kind::Fault => "fault",
            Kind::StallBegin => "stall-begin",
            Kind::StallEnd => "stall-end",
            Kind::LockAcquire => "lock-acquire",
            Kind::LockRelease => "lock-release",
            Kind::Flush => "flush",
            Kind::Access => "access",
            Kind::Queue => "queue",
            Kind::Done => "done",
            Kind::SpanBegin => "span-begin",
            Kind::SpanEnd => "span-end",
            Kind::Link => "link",
        }
    }

    /// Parses a filter/file token.
    pub fn from_token(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.token() == s)
    }
}

/// One trace record. The machine emits `TraceEvent<&'static str>` (the
/// default), whose fields are all plain values, so construction is cheap
/// and the event is `Copy`; [`read_jsonl`] yields `TraceEvent<String>`.
/// An observer folds both through one `D: AsRef<str>` entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<D = &'static str> {
    /// Simulation time of the event.
    pub cycle: Cycle,
    /// The node the event is attributed to (`-1` = machine-global, e.g. a
    /// directory with no node context).
    pub node: i64,
    /// Protocol family / subsystem.
    pub family: Family,
    /// Event kind.
    pub kind: Kind,
    /// Fine-grained label: the counter key for messages
    /// (`"msg.cbl.request"`), the stall cause (`"fill"`), the fault fate
    /// (`"drop"`), the op name for issues, ...
    pub detail: D,
    /// Primary payload: wire id for message events, lock/block id for
    /// lock events, epoch for retries.
    pub id: u64,
    /// Secondary payload: destination node for message events, attempt
    /// count for retries, stall duration (cycles) for `StallEnd`.
    pub arg: u64,
}

impl<D: AsRef<str>> TraceEvent<D> {
    /// Writes the event as one JSONL line (no trailing newline) straight
    /// into `out`, escaping the detail in place.
    pub(crate) fn write_jsonl<W: Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        write!(
            out,
            "{{\"cycle\":{},\"node\":{},\"family\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\",\"id\":{},\"arg\":{}}}",
            self.cycle,
            self.node,
            self.family.token(),
            self.kind.token(),
            Escaped(self.detail.as_ref()),
            self.id,
            self.arg
        )
    }

    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut line = Vec::new();
        self.write_jsonl(&mut line)
            .expect("writing into a Vec cannot fail");
        String::from_utf8(line).expect("a JSONL line is UTF-8")
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{} n{} {}/{} {} id={} arg={}",
            self.cycle,
            self.node,
            self.family.token(),
            self.kind.token(),
            self.detail,
            self.id,
            self.arg
        )
    }
}

/// Parses one JSONL trace record, checking it against the event schema:
/// required fields present, `cycle`, `id` and `arg` exact unsigned
/// integers, `node` an exact signed integer, `family` and `kind` drawn
/// from the known token sets, so the format cannot bit-rot silently.
pub fn parse_jsonl_event(doc: &Json) -> Result<TraceEvent<String>, String> {
    const UNSIGNED: &str = "an unsigned 64-bit integer";
    let cycle = doc.exact_int("cycle", UNSIGNED)?;
    let node = doc.exact_int("node", "a signed 64-bit integer")?;
    let id = doc.exact_int("id", UNSIGNED)?;
    let arg = doc.exact_int("arg", UNSIGNED)?;
    let text = |field: &str| {
        doc.get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing field '{field}'"))
    };
    let family = text("family")?;
    let family = Family::from_token(family).ok_or_else(|| format!("unknown family '{family}'"))?;
    let kind = text("kind")?;
    let kind = Kind::from_token(kind).ok_or_else(|| format!("unknown event kind '{kind}'"))?;
    Ok(TraceEvent {
        cycle,
        node,
        family,
        kind,
        detail: text("detail")?.to_string(),
        id,
        arg,
    })
}

/// Reads a JSONL trace (one event object per line), handing each event
/// to `fold`. Blank lines are skipped. A malformed line, a second
/// `net-inject` of a wire id or a second `span-begin` of a transaction id
/// aborts with the line number: the machine never reuses either id, so
/// such a file is corrupt or concatenated, and folding it would count its
/// events twice (and make a reopened span its own critical-path parent).
/// Every offline reader (`ssmp trace stats`, `analyze`, `spans`) shares
/// this.
pub fn read_jsonl<R: BufRead>(
    reader: R,
    mut fold: impl FnMut(&TraceEvent<String>),
) -> Result<(), String> {
    let mut injected = IdMap::new();
    let mut begun = IdMap::new();
    for (i, line) in reader.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let line = line.map_err(|e| at(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(&line).map_err(|e| at(e.to_string()))?;
        let ev = parse_jsonl_event(&doc).map_err(at)?;
        if ev.kind == Kind::NetInject && injected.insert(ev.id, ()).is_some() {
            return Err(at(format!("wire {} is injected a second time", ev.id)));
        }
        if ev.kind == Kind::SpanBegin && begun.insert(ev.id, ()).is_some() {
            return Err(at(format!("transaction {} begins a second time", ev.id)));
        }
        fold(&ev);
    }
    Ok(())
}

/// An event filter: `None` sets admit everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// Admitted families (`None` = all).
    pub families: Option<Vec<Family>>,
    /// Admitted kinds (`None` = all).
    pub kinds: Option<Vec<Kind>>,
}

impl TraceFilter {
    /// A filter that admits every event.
    pub fn all() -> Self {
        Self::default()
    }

    /// Parses a comma-separated token list mixing family and kind names,
    /// e.g. `"cbl,ric,stall-begin"`. Family tokens restrict families,
    /// kind tokens restrict kinds; an empty/absent spec admits everything.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut f = TraceFilter::all();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(fam) = Family::from_token(tok) {
                f.families.get_or_insert_with(Vec::new).push(fam);
            } else if let Some(kind) = Kind::from_token(tok) {
                f.kinds.get_or_insert_with(Vec::new).push(kind);
            } else {
                let families: Vec<_> = Family::ALL.iter().map(|x| x.token()).collect();
                let kinds: Vec<_> = Kind::ALL.iter().map(|x| x.token()).collect();
                return Err(format!(
                    "unknown trace filter token '{tok}' (families: {}; kinds: {})",
                    families.join("|"),
                    kinds.join("|")
                ));
            }
        }
        Ok(f)
    }

    /// Whether the filter admits an event.
    #[inline]
    pub fn admits(&self, ev: &TraceEvent) -> bool {
        if let Some(fams) = &self.families {
            if !fams.contains(&ev.family) {
                return false;
            }
        }
        if let Some(kinds) = &self.kinds {
            if !kinds.contains(&ev.kind) {
                return false;
            }
        }
        true
    }
}

/// A bounded ring of the most recent events (deadlock forensics).
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position; wraps at `cap`.
    head: usize,
    /// Total events ever recorded (so `len` is `total.min(cap)`).
    total: u64,
}

impl TraceRing {
    /// A ring holding the last `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            total: 0,
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head = (self.head + 1) % self.cap;
        self.total += 1;
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The held events in chronological (recording) order.
    pub fn in_order(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    /// The last `k` events attributed to `node`, oldest first.
    pub fn recent_for_node(&self, node: i64, k: usize) -> Vec<TraceEvent> {
        let all = self.in_order();
        let mut out: Vec<TraceEvent> = all.into_iter().filter(|e| e.node == node).collect();
        if out.len() > k {
            out.drain(..out.len() - k);
        }
        out
    }
}

/// A destination for admitted trace events.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent);
    /// Flushes / finalizes the sink (called once, at end of run).
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A shared observer is a sink: the tracer holds one handle and the caller
/// keeps another to read the observer back after the run.
impl<T: TraceSink> TraceSink for Rc<RefCell<T>> {
    fn record(&mut self, ev: &TraceEvent) {
        self.borrow_mut().record(ev);
    }

    fn finish(&mut self) -> io::Result<()> {
        self.borrow_mut().finish()
    }
}

/// Streams events as JSON Lines.
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing one JSON object per line to `out`.
    pub fn new(out: W) -> Self {
        Self { out, error: None }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = ev.write_jsonl(&mut self.out);
        if let Err(e) = line.and_then(|()| self.out.write_all(b"\n")) {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// Buffers events and writes a Chrome-trace / Perfetto JSON document at
/// the end of the run.
pub struct PerfettoSink<W: Write> {
    out: W,
    events: Vec<TraceEvent>,
}

impl<W: Write> PerfettoSink<W> {
    /// A sink writing the full Chrome-trace document to `out` on finish.
    pub fn new(out: W) -> Self {
        Self {
            out,
            events: Vec::new(),
        }
    }
}

impl<W: Write> TraceSink for PerfettoSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }

    fn finish(&mut self) -> io::Result<()> {
        let doc = render_chrome_trace(&self.events);
        self.out.write_all(doc.as_bytes())?;
        self.out.flush()
    }
}

/// Renders events as a Chrome-trace JSON document (the format Perfetto and
/// `chrome://tracing` load):
///
/// * one track (tid) per node, named via `thread_name` metadata;
/// * `StallBegin`/`StallEnd` pairs become `"X"` duration spans;
/// * `NetInject`/`NetDeliver` pairs (matched by wire id) become `"s"`/`"f"`
///   flow events bracketing instant events, so Perfetto draws message
///   arrows between node tracks;
/// * every other event is an `"i"` instant on its node's track.
///
/// Timestamps are in simulated cache cycles (1 cycle = 1 "µs" on the
/// Chrome-trace timeline).
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let tid = |node: i64| node + 2; // tid 1 = "machine" track for node -1
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"ssmp\"}}",
    );
    let mut nodes: Vec<i64> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for &n in &nodes {
        let name = if n < 0 {
            "machine".to_string()
        } else {
            format!("node {n}")
        };
        out.push_str(&format!(
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            tid(n),
            name
        ));
        out.push_str(&format!(
            ",{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"sort_index\":{}}}}}",
            tid(n),
            n
        ));
    }
    // Open stall per node → matched into X spans.
    let mut open_stall: std::collections::BTreeMap<i64, TraceEvent> = Default::default();
    let push = |s: &mut String, frag: String| {
        s.push(',');
        s.push_str(&frag);
    };
    for ev in events {
        let args = format!(
            "{{\"detail\":\"{}\",\"id\":{},\"arg\":{}}}",
            escape(ev.detail),
            ev.id,
            ev.arg
        );
        match ev.kind {
            Kind::StallBegin => {
                open_stall.insert(ev.node, *ev);
            }
            Kind::StallEnd => {
                let start = open_stall.remove(&ev.node).map_or(ev.cycle, |b| b.cycle);
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"stall:{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":0,\"tid\":{},\"args\":{}}}",
                        escape(ev.detail),
                        ev.family.token(),
                        start,
                        ev.cycle.saturating_sub(start).max(1),
                        tid(ev.node),
                        args
                    ),
                );
            }
            Kind::NetInject | Kind::NetDeliver => {
                let (ph, bp) = if ev.kind == Kind::NetInject {
                    ("s", "")
                } else {
                    ("f", ",\"bp\":\"e\"")
                };
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\
                         \"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{}}}",
                        escape(ev.detail),
                        ev.family.token(),
                        ev.cycle,
                        tid(ev.node),
                        args
                    ),
                );
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\"{},\"id\":{},\
                         \"ts\":{},\"pid\":0,\"tid\":{}}}",
                        escape(ev.detail),
                        ev.family.token(),
                        ph,
                        bp,
                        ev.id,
                        ev.cycle,
                        tid(ev.node)
                    ),
                );
            }
            _ => {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}:{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\
                         \"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{}}}",
                        ev.kind.token(),
                        escape(ev.detail),
                        ev.family.token(),
                        ev.cycle,
                        tid(ev.node),
                        args
                    ),
                );
            }
        }
    }
    // Close any stall still open at end of trace as a zero-length span.
    for (node, b) in open_stall {
        push(
            &mut out,
            format!(
                "{{\"name\":\"stall:{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":1,\"pid\":0,\"tid\":{},\"args\":{{\"detail\":\"unfinished\"}}}}",
                escape(b.detail),
                b.family.token(),
                b.cycle,
                tid(node)
            ),
        );
    }
    out.push_str("]}");
    out
}

/// Shared event store for [`MemorySink`].
pub type SharedEvents = Rc<RefCell<Vec<TraceEvent>>>;

/// Collects events into a shared in-memory vector (tests, tooling, and
/// the interval-metrics layer).
#[derive(Debug, Default)]
pub struct MemorySink {
    events: SharedEvents,
}

impl MemorySink {
    /// Creates a sink plus the shared handle to read events back after the
    /// run (the machine consumes the sink itself).
    pub fn new() -> (Self, SharedEvents) {
        let events: SharedEvents = Rc::new(RefCell::new(Vec::new()));
        (
            Self {
                events: events.clone(),
            },
            events,
        )
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.borrow_mut().push(*ev);
    }
}

/// The tracing handle threaded through the machine. Disabled by default;
/// `emit` on a disabled tracer is a single branch.
pub struct Tracer {
    on: bool,
    filter: TraceFilter,
    ring: TraceRing,
    sinks: Vec<Box<dyn TraceSink>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::off()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("on", &self.on)
            .field("filter", &self.filter)
            .field("ring_len", &self.ring.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Tracer {
    /// Default ring capacity (deadlock forensics window).
    pub const DEFAULT_RING: usize = 256;

    /// A disabled tracer: `emit` is a no-op.
    pub fn off() -> Self {
        Self {
            on: false,
            filter: TraceFilter::all(),
            ring: TraceRing::new(1),
            sinks: Vec::new(),
        }
    }

    /// An enabled tracer with the given filter and the default ring.
    pub fn new(filter: TraceFilter) -> Self {
        Self {
            on: true,
            filter,
            ring: TraceRing::new(Self::DEFAULT_RING),
            sinks: Vec::new(),
        }
    }

    /// Replaces the ring capacity.
    pub fn with_ring(mut self, cap: usize) -> Self {
        self.ring = TraceRing::new(cap);
        self
    }

    /// Attaches a sink.
    pub fn add_sink(&mut self, sink: impl TraceSink + 'static) {
        self.sinks.push(Box::new(sink));
    }

    /// Whether events are being recorded. Call before constructing an
    /// event so a disabled tracer costs one branch.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Records one event (if enabled and admitted by the filter).
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        if !self.on || !self.filter.admits(&ev) {
            return;
        }
        self.ring.record(ev);
        for s in &mut self.sinks {
            s.record(&ev);
        }
    }

    /// The last `k` recorded events attributed to `node`, oldest first.
    pub fn recent_for_node(&self, node: i64, k: usize) -> Vec<TraceEvent> {
        self.ring.recent_for_node(node, k)
    }

    /// Total events recorded (post-filter).
    pub fn recorded(&self) -> u64 {
        self.ring.total()
    }

    /// Finalizes every sink, returning the first error.
    pub fn finish(&mut self) -> io::Result<()> {
        let mut first: Option<io::Error> = None;
        for s in &mut self.sinks {
            if let Err(e) = s.finish() {
                first.get_or_insert(e);
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: Cycle, node: i64, kind: Kind) -> TraceEvent {
        TraceEvent {
            cycle,
            node,
            family: Family::Cbl,
            kind,
            detail: "msg.cbl.request",
            id: cycle,
            arg: 0,
        }
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut r = TraceRing::new(4);
        for i in 0..10 {
            r.record(ev(i, 0, Kind::NetInject));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 10);
        let cycles: Vec<Cycle> = r.in_order().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_partial_fill_is_in_order() {
        let mut r = TraceRing::new(8);
        for i in 0..3 {
            r.record(ev(i, 0, Kind::Issue));
        }
        let cycles: Vec<Cycle> = r.in_order().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    #[test]
    fn ring_recent_for_node_filters_and_caps() {
        let mut r = TraceRing::new(16);
        for i in 0..12 {
            r.record(ev(i, (i % 2) as i64, Kind::NetDeliver));
        }
        let n1 = r.recent_for_node(1, 3);
        let cycles: Vec<Cycle> = n1.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 9, 11]);
        assert!(r.recent_for_node(5, 3).is_empty());
    }

    #[test]
    fn filter_parses_and_admits() {
        let f = TraceFilter::parse("cbl, stall-begin ,stall-end").unwrap();
        let mut e = ev(1, 0, Kind::StallBegin);
        assert!(f.admits(&e));
        e.kind = Kind::NetInject;
        assert!(!f.admits(&e), "kind not in filter");
        e.kind = Kind::StallEnd;
        e.family = Family::Ric;
        assert!(!f.admits(&e), "family not in filter");
        assert!(TraceFilter::all().admits(&e));
        assert!(TraceFilter::parse("bogus").is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.emit(ev(1, 0, Kind::Issue));
        assert_eq!(t.recorded(), 0);
        assert!(!t.is_on());
    }

    #[test]
    fn tracer_filters_into_ring_and_sinks() {
        let (sink, events) = MemorySink::new();
        let mut t = Tracer::new(TraceFilter::parse("net-inject").unwrap());
        t.add_sink(sink);
        t.emit(ev(1, 0, Kind::NetInject));
        t.emit(ev(2, 0, Kind::Issue)); // filtered out
        t.emit(ev(3, 1, Kind::NetInject));
        assert_eq!(t.recorded(), 2);
        assert_eq!(events.borrow().len(), 2);
        assert_eq!(t.recent_for_node(1, 8).len(), 1);
        t.finish().unwrap();
    }

    #[test]
    fn jsonl_lines_validate() {
        let events = [
            ev(7, 2, Kind::NetInject),
            ev(9, -1, Kind::Fault),
            TraceEvent {
                detail: "tab\there \"quoted\"",
                ..ev(11, 0, Kind::Issue)
            },
        ];
        let mut buf = Vec::new();
        {
            let mut s = JsonlSink::new(&mut buf);
            for e in &events {
                s.record(e);
            }
            s.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        assert_eq!(text, lines, "the sink writes the bytes of to_jsonl");
        assert!(text.contains(r#""detail":"tab\there \"quoted\"""#));
        for line in text.lines() {
            let doc = Json::parse(line).unwrap();
            parse_jsonl_event(&doc).unwrap();
        }
    }

    #[test]
    fn validate_rejects_unknown_kind() {
        let doc = Json::parse(
            r#"{"cycle":1,"node":0,"family":"cbl","kind":"frob","detail":"x","id":0,"arg":0}"#,
        )
        .unwrap();
        assert!(parse_jsonl_event(&doc)
            .unwrap_err()
            .contains("unknown event"));
        let doc = Json::parse(r#"{"cycle":1}"#).unwrap();
        assert!(parse_jsonl_event(&doc).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_spans_and_flows() {
        let events = vec![
            TraceEvent {
                cycle: 5,
                node: 0,
                family: Family::Node,
                kind: Kind::StallBegin,
                detail: "fill",
                id: 0,
                arg: 0,
            },
            ev(6, 0, Kind::NetInject),
            ev(9, 1, Kind::NetDeliver),
            TraceEvent {
                cycle: 12,
                node: 0,
                family: Family::Node,
                kind: Kind::StallEnd,
                detail: "fill",
                id: 0,
                arg: 7,
            },
        ];
        let doc = render_chrome_trace(&events);
        let v = Json::parse(&doc).expect("chrome trace must be valid JSON");
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        let ph = |p: &str| {
            evs.iter()
                .filter(|e| e.get("ph").and_then(|x| x.as_str()) == Some(p))
                .count()
        };
        assert!(ph("M") >= 3, "metadata for process + two node tracks");
        assert_eq!(ph("X"), 1, "one stall span");
        assert_eq!(ph("s"), 1, "one flow start");
        assert_eq!(ph("f"), 1, "one flow finish");
        let span = evs
            .iter()
            .find(|e| e.get("ph").and_then(|x| x.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_u64(), Some(5));
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn chrome_trace_closes_unfinished_stalls() {
        let events = vec![TraceEvent {
            cycle: 3,
            node: 2,
            family: Family::Node,
            kind: Kind::StallBegin,
            detail: "lock",
            id: 0,
            arg: 0,
        }];
        let doc = render_chrome_trace(&events);
        let v = Json::parse(&doc).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(evs
            .iter()
            .any(|e| e.get("ph").and_then(|x| x.as_str()) == Some("X")));
    }

    #[test]
    fn parse_jsonl_event_roundtrips() {
        let orig = TraceEvent {
            cycle: 42,
            node: -1,
            family: Family::Ric,
            kind: Kind::Access,
            detail: "write",
            id: 7,
            arg: 3,
        };
        let doc = Json::parse(&orig.to_jsonl()).unwrap();
        let parsed = parse_jsonl_event(&doc).unwrap();
        assert_eq!(parsed.detail, orig.detail);
        assert_eq!(parsed.to_jsonl(), orig.to_jsonl());
        let bad = Json::parse(r#"{"cycle":1}"#).unwrap();
        assert!(parse_jsonl_event(&bad).is_err());
    }

    /// A record with `field` set to the raw number token `value`.
    fn with_number(field: &str, value: &str) -> Json {
        let mut doc = Json::parse(&ev(1, 0, Kind::Issue).to_jsonl()).unwrap();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == field {
                    *v = Json::Num(value.to_string());
                }
            }
        }
        doc
    }

    #[test]
    fn read_jsonl_rejects_a_reinjected_wire_or_a_reopened_transaction() {
        let line = |kind, id| {
            let e = TraceEvent {
                id,
                ..ev(5, 0, kind)
            };
            e.to_jsonl() + "\n"
        };
        // Far-apart ids land in the side map; the second u64::MAX is caught.
        let ids = [1, u64::MAX, 2, u64::MAX];
        for (kind, what) in [(Kind::NetInject, "wire"), (Kind::SpanBegin, "transaction")] {
            let text: String = ids.map(|id| line(kind, id)).concat();
            let mut folded = 0;
            let err = read_jsonl(text.as_bytes(), |_| folded += 1).unwrap_err();
            assert!(
                err.starts_with(&format!("line 4: {what} {} ", u64::MAX)),
                "{err}"
            );
            assert_eq!(folded, 3);
        }
        // Wire and transaction ids are separate spaces, and blank lines
        // still count toward the line number.
        let text = line(Kind::NetInject, 7) + "\n" + &line(Kind::SpanBegin, 7);
        assert_eq!(read_jsonl(text.as_bytes(), |_| {}), Ok(()));
        let text = text + &line(Kind::SpanBegin, 7);
        let err = read_jsonl(text.as_bytes(), |_| {}).unwrap_err();
        assert_eq!(err, "line 4: transaction 7 begins a second time");
    }

    #[test]
    fn integer_fields_must_be_exact() {
        for field in ["cycle", "id", "arg"] {
            for bad in ["-5", "1.5", "1e3", "18446744073709551616"] {
                let err = parse_jsonl_event(&with_number(field, bad)).unwrap_err();
                assert!(
                    err.contains(&format!("field '{field}'")),
                    "{field}={bad}: {err}"
                );
            }
        }
        for bad in ["1.5", "1e3", "-1.0", "9223372036854775808"] {
            let err = parse_jsonl_event(&with_number("node", bad)).unwrap_err();
            assert!(err.contains("field 'node'"), "node={bad}: {err}");
        }
        // 2^53 + 1 has no f64: it must come back exactly, not rounded.
        let big = (1u64 << 53) + 1;
        let ev = parse_jsonl_event(&with_number("id", &big.to_string())).unwrap();
        assert_eq!(ev.id, big);
        let ev = parse_jsonl_event(&with_number("arg", &u64::MAX.to_string())).unwrap();
        assert_eq!(ev.arg, u64::MAX);
        let ev = parse_jsonl_event(&with_number("node", "-1")).unwrap();
        assert_eq!(ev.node, -1);
    }

    #[test]
    fn tokens_roundtrip() {
        for f in Family::ALL {
            assert_eq!(Family::from_token(f.token()), Some(f));
        }
        for k in Kind::ALL {
            assert_eq!(Kind::from_token(k.token()), Some(k));
        }
        assert_eq!(Family::from_token("nope"), None);
        assert_eq!(Kind::from_token("nope"), None);
    }
}
