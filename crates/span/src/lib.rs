//! # ssmp-span
//!
//! Transaction-level causal tracing, folded from trace events.
//!
//! The paper's claims are ultimately about the *path one transaction
//! takes* — a global write through the write buffer and omega network to
//! the directory and back, a lock handoff through the CBL queue — yet
//! aggregate counters and even the stall-attribution profiler only show
//! totals. This crate stitches the existing event stream into
//! per-transaction **spans**:
//!
//! * every stalled memory reference, lock acquire, barrier episode, and
//!   buffered global write becomes a span (`SpanBegin`/`SpanEnd`, machine
//!   transaction ids);
//! * `Link` events bind each injected wire to the transaction that caused
//!   it, so the span owns its request, forward, and reply messages
//!   (`NetInject`/`NetDeliver` pairs, matched by wire id);
//! * each closed span is tiled into segments — issue, wbuf residency,
//!   network transit, memory/directory service, CBL queue wait,
//!   completion — that **sum exactly to its end-to-end latency** (the
//!   same invariant style as the profiler's stall attribution);
//! * a wakeup delivered by *another* transaction's wire (a CBL grant, an
//!   invalidation that wakes a spinner, a barrier release) is adopted as
//!   a causal edge, and the longest dependency chain over those edges is
//!   the run's **critical path**;
//! * raw per-type latencies are retained, so p50/p95/p99/p999 are exact
//!   nearest-rank quantiles, not bucket upper bounds.
//!
//! The same [`SpanSet`] accumulator backs both pipelines: **live**, a
//! [`SpanSink`] attached as a [`TraceSink`] folds events as the machine
//! runs; **offline**, [`SpanSet::from_jsonl`] replays a JSONL trace file
//! through the identical fold. Given the same event stream the two paths
//! produce byte-identical JSON ([`SpanSet::to_json`], schema [`SCHEMA`]).

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;
use std::rc::Rc;

use ssmp_engine::trace::{parse_jsonl_event, OwnedEvent};
use ssmp_engine::{Cycle, Family, IdMap, Json, Kind, TraceEvent, TraceSink};

/// The stable schema identifier stamped into rendered span reports.
pub const SCHEMA: &str = "ssmp-span-v1";

/// Segment labels, in rendering order. Every cycle of a span's
/// end-to-end latency lands in exactly one segment, so per span the
/// segment sum equals the span's duration.
pub const SEGMENTS: [&str; 7] = ["issue", "wbuf", "net", "mem", "queue", "complete", "local"];

// Positions of the labels in `SEGMENTS` (and in `ClosedSpan::segments`).
const ISSUE: usize = 0;
const WBUF: usize = 1;
const NET: usize = 2;
const MEM: usize = 3;
const QUEUE: usize = 4;
const COMPLETE: usize = 5;
const LOCAL: usize = 6;

/// Cycles per segment, indexed like [`SEGMENTS`].
pub type Segments = [Cycle; SEGMENTS.len()];

/// Cycles per protocol family, indexed like [`Family::ALL`].
pub type FamilyCycles = [Cycle; Family::ALL.len()];

/// Exact nearest-rank quantile — the engine's shared definition, re-exported
/// so span consumers keep their historical import path. The diff engine's
/// distribution comparison uses the same function, so both layers pin
/// identical percentile semantics.
pub use ssmp_engine::stats::nearest_rank;

/// One wire (a routed protocol message) observed on the interconnect.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WireInfo {
    /// Protocol family of the message.
    family: Family,
    /// Injection cycle.
    inject: Cycle,
    /// Delivery cycle, once processed at the destination.
    deliver: Option<Cycle>,
}

/// A span that has begun but not yet ended.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OpenSpan {
    node: i64,
    detail: String,
    begin: Cycle,
    /// Wires linked to this transaction, in link order.
    wires: Vec<u64>,
}

/// What the stitcher remembers about one node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NodeLog {
    /// Delivery history `(cycle, wire)` in stream order.
    delivered: Vec<(Cycle, u64)>,
    /// Closed spans `(end, txn)` in close order (ends are monotone, so
    /// this is binary-searchable).
    closed: Vec<(Cycle, u64)>,
}

/// The [`SpanSet::nodes`] key of a node: directory and module
/// attribution (`-1`) comes first, then the nodes in id order.
fn node_key(node: i64) -> u64 {
    node.wrapping_add(1) as u64
}

/// A finished transaction span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedSpan {
    /// Transaction id (machine-allocated, unique per run).
    pub txn: u64,
    /// The node the transaction ran on.
    pub node: i64,
    /// Transaction type: the stall cause tag (`"fill"`, `"lock"`,
    /// `"flush.cp-synch"`, ...), `"wbuf.write"` for buffered global
    /// writes, or the op name for fire-and-forget sends.
    pub detail: String,
    /// Begin cycle.
    pub begin: Cycle,
    /// End cycle.
    pub end: Cycle,
    /// End-to-end latency (`end - begin`).
    pub dur: Cycle,
    /// Exact-sum segment breakdown, indexed like [`SEGMENTS`]:
    /// `segments.iter().sum() == dur`.
    pub segments: Segments,
    /// Network-transit cycles per protocol family, indexed like
    /// [`Family::ALL`].
    pub family_net: FamilyCycles,
    /// Wires owned by (linked to) this transaction.
    pub wires: Vec<u64>,
    /// A foreign wire whose delivery woke this span (cross-transaction
    /// causal edge), if one was adopted.
    pub adopted_wire: Option<u64>,
    /// Program-order predecessor on the same node (txn id).
    pub prog_parent: Option<u64>,
    /// The transaction owning the adopted wire (causal parent).
    pub causal_parent: Option<u64>,
    /// Critical-path distance: `dur` plus the longest parent distance.
    pub dist: Cycle,
    /// The parent achieving `dist` (backpointer for the path walk).
    pub path_parent: Option<u64>,
}

/// Stitching-health counters: a truncated or filtered trace shows up
/// here instead of silently under-counting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Health {
    /// Spans closed normally.
    pub spans: u64,
    /// `SpanBegin` without a matching `SpanEnd` (still open at EOF).
    pub orphan_begins: u64,
    /// `SpanEnd` without a matching `SpanBegin`.
    pub orphan_ends: u64,
    /// `Link` events observed.
    pub links: u64,
    /// Links naming a transaction that never began.
    pub dangling_links: u64,
    /// Links arriving after their transaction already closed (benign:
    /// update fan-out outliving a write span).
    pub late_links: u64,
    /// Wires injected.
    pub wires: u64,
    /// Wires injected but never delivered.
    pub undelivered_wires: u64,
    /// `NetDeliver` without a matching `NetInject`.
    pub unmatched_delivers: u64,
    /// Cross-transaction wakeup wires adopted into spans.
    pub adopted: u64,
}

impl Health {
    /// Whether the trace stitched cleanly (no orphans, no dangling
    /// links, no unmatched wire ids).
    pub fn clean(&self) -> bool {
        self.orphan_ends == 0 && self.dangling_links == 0 && self.unmatched_delivers == 0
    }
}

/// Gap classification: cycles between one wire's delivery and the next
/// wire's injection are time the transaction sat *at* the component that
/// received the first wire — the CBL queue for lock messages, directory
/// or memory service otherwise.
fn gap_after(family: Family) -> usize {
    match family {
        Family::Cbl => QUEUE,
        _ => MEM,
    }
}

/// Whether a span type may adopt a foreign wakeup wire. Timer spans end
/// by local countdown and buffered writes end on their own acknowledged
/// wire, so a foreign delivery inside their window is coincidence, not
/// cause.
fn adoptable(detail: &str, dur: Cycle) -> bool {
    dur > 0 && detail != "wbuf.write" && !detail.starts_with("timer")
}

/// The span accumulator: folds trace events into closed spans, latency
/// distributions, and the critical path. Identical whether fed live
/// (via [`SpanSink`]) or offline (via [`SpanSet::from_jsonl`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSet {
    wires: IdMap<WireInfo>,
    /// Wire id → owning transaction (from `Link` events).
    wire_owner: IdMap<u64>,
    open: IdMap<OpenSpan>,
    /// Finished spans, keyed by transaction id.
    pub closed: IdMap<ClosedSpan>,
    /// Per node, keyed by [`node_key`].
    nodes: IdMap<NodeLog>,
    /// `close`'s buffer for a span's wires in injection order, kept for
    /// its capacity; empty between calls.
    timeline: Vec<(Cycle, u64)>,
    /// Health counters (orphans, dangling links, adoption count).
    pub health: Health,
}

impl SpanSet {
    /// An empty span set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one live trace event.
    pub fn fold(&mut self, ev: &TraceEvent) {
        self.observe(
            ev.cycle, ev.node, ev.family, ev.kind, ev.detail, ev.id, ev.arg,
        );
    }

    /// Folds one event parsed back from a JSONL trace file.
    pub fn fold_owned(&mut self, ev: &OwnedEvent) {
        self.observe(
            ev.cycle, ev.node, ev.family, ev.kind, &ev.detail, ev.id, ev.arg,
        );
    }

    /// The single fold both pipelines share.
    #[allow(clippy::too_many_arguments)] // mirrors the TraceEvent field list
    pub fn observe(
        &mut self,
        cycle: Cycle,
        node: i64,
        family: Family,
        kind: Kind,
        detail: &str,
        id: u64,
        arg: u64,
    ) {
        match kind {
            Kind::NetInject => {
                self.health.wires += 1;
                self.wires.insert(
                    id,
                    WireInfo {
                        family,
                        inject: cycle,
                        deliver: None,
                    },
                );
            }
            Kind::NetDeliver => match self.wires.get_mut(id) {
                Some(w) => {
                    if w.deliver.is_none() {
                        w.deliver = Some(cycle);
                        let log = self
                            .nodes
                            .get_or_insert_with(node_key(node), NodeLog::default);
                        log.delivered.push((cycle, id));
                    }
                }
                None => self.health.unmatched_delivers += 1,
            },
            Kind::Link => {
                // id = wire, arg = owning transaction.
                self.health.links += 1;
                self.wire_owner.insert(id, arg);
                match self.open.get_mut(arg) {
                    Some(s) => s.wires.push(id),
                    None if self.closed.contains_key(arg) => self.health.late_links += 1,
                    None => self.health.dangling_links += 1,
                }
            }
            Kind::SpanBegin => {
                self.open.insert(
                    id,
                    OpenSpan {
                        node,
                        detail: detail.to_string(),
                        begin: cycle,
                        wires: Vec::new(),
                    },
                );
            }
            Kind::SpanEnd => self.close(id, cycle),
            _ => {}
        }
    }

    /// Closes span `txn` at `end`: adopts a foreign wakeup wire if one
    /// explains the end, tiles the window into exact-sum segments, and
    /// extends the critical-path DP.
    fn close(&mut self, txn: u64, end: Cycle) {
        let Some(o) = self.open.remove(txn) else {
            self.health.orphan_ends += 1;
            return;
        };
        let (node, begin) = (o.node, o.begin);
        let dur = end.saturating_sub(begin);

        // Adoption: the latest wire delivered to this node inside the
        // span window. If it is foreign, *its* transaction caused the
        // wakeup (a CBL grant, an invalidation, a barrier release) —
        // adopt it so its transit is tiled and record the causal edge.
        let log = self
            .nodes
            .get_or_insert_with(node_key(node), NodeLog::default);
        let mut adopted_wire = None;
        if adoptable(&o.detail, dur) {
            for &(c, w) in log.delivered.iter().rev() {
                if c > end {
                    continue;
                }
                if c < begin {
                    break;
                }
                if self.wire_owner.get(w).copied() != Some(txn) {
                    adopted_wire = Some(w);
                    self.health.adopted += 1;
                }
                break; // only the latest delivery explains the end
            }
        }
        let causal_parent = adopted_wire
            .and_then(|w| self.wire_owner.get(w).copied())
            .filter(|&p| p != txn);

        // Tile [begin, end] by walking the span's wires in injection
        // order with a monotone cursor: gaps before a wire are issue /
        // wbuf / queue / mem time, the transit itself is net time, and
        // the remainder is completion (or purely local work). Every
        // cursor advance lands in exactly one segment, so the segment
        // sum equals `dur` by construction.
        let mut span_wires = o.wires;
        span_wires.extend(adopted_wire);
        let mut timeline = std::mem::take(&mut self.timeline);
        timeline.extend(
            span_wires
                .iter()
                .filter_map(|&w| self.wires.get(w).map(|i| (i.inject, w))),
        );
        timeline.sort_unstable();
        let mut segments = Segments::default();
        let mut family_net = FamilyCycles::default();
        let first_gap = if o.detail == "wbuf.write" {
            WBUF
        } else {
            ISSUE
        };
        let mut cursor = begin;
        let mut prev: Option<Family> = None;
        for &(inject, w) in &timeline {
            if cursor >= end {
                break;
            }
            let info = &self.wires[w];
            let at = inject.clamp(cursor, end);
            if at > cursor {
                segments[prev.map_or(first_gap, gap_after)] += at - cursor;
                cursor = at;
            }
            let Some(deliver) = info.deliver else {
                continue; // truncated trace; shows up as undelivered
            };
            let until = deliver.clamp(cursor, end);
            if until > cursor {
                segments[NET] += until - cursor;
                family_net[info.family as usize] += until - cursor;
                cursor = until;
            }
            prev = Some(info.family);
        }
        if cursor < end {
            segments[if prev.is_none() { LOCAL } else { COMPLETE }] += end - cursor;
        }
        timeline.clear();
        self.timeline = timeline;

        // Critical-path DP over program-order and causal edges. Ends
        // are monotone in stream order, so the per-node history is
        // sorted and the program-order predecessor (latest span on this
        // node ending at or before `begin`) is a binary search away.
        let idx = log.closed.partition_point(|&(e, _)| e <= begin);
        let prog_parent = idx.checked_sub(1).map(|i| log.closed[i].1);
        log.closed.push((end, txn));
        let parent_dist = |p: Option<u64>| -> Option<(Cycle, u64)> {
            let p = p?;
            self.closed.get(p).map(|s| (s.dist, p))
        };
        let best = [parent_dist(prog_parent), parent_dist(causal_parent)]
            .into_iter()
            .flatten()
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let (dist, path_parent) = match best {
            Some((d, p)) => (dur + d, Some(p)),
            None => (dur, None),
        };

        self.health.spans += 1;
        self.closed.insert(
            txn,
            ClosedSpan {
                txn,
                node,
                detail: o.detail,
                begin,
                end,
                dur,
                segments,
                family_net,
                wires: span_wires,
                adopted_wire,
                prog_parent,
                causal_parent,
                dist,
                path_parent,
            },
        );
    }

    /// Replays a JSONL trace (one event object per line) through the
    /// fold. Blank lines are skipped; any malformed line aborts with its
    /// line number, and so does a second `span-begin` of a transaction id
    /// already seen: the machine never reuses one, so the file is
    /// corrupt or concatenated (and re-opening a closed span would make
    /// it its own critical-path parent).
    pub fn from_jsonl<R: BufRead>(reader: R) -> Result<SpanSet, String> {
        let mut s = SpanSet::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
            if line.trim().is_empty() {
                continue;
            }
            let doc = Json::parse(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let ev = parse_jsonl_event(&doc).map_err(|e| format!("line {}: {e}", i + 1))?;
            if ev.kind == Kind::SpanBegin
                && (s.open.contains_key(ev.id) || s.closed.contains_key(ev.id))
            {
                return Err(format!(
                    "line {}: transaction {} begins a second time",
                    i + 1,
                    ev.id
                ));
            }
            s.fold_owned(&ev);
        }
        Ok(s)
    }

    /// Health counters with end-of-stream state folded in (spans still
    /// open become orphaned begins, wires still in flight undelivered).
    pub fn health(&self) -> Health {
        let mut h = self.health;
        h.orphan_begins = self.open.len() as u64;
        h.undelivered_wires = self.wires.values().filter(|w| w.deliver.is_none()).count() as u64;
        h
    }

    /// Raw end-to-end latencies per transaction type, ascending.
    pub fn latencies_by_type(&self) -> BTreeMap<&str, Vec<u64>> {
        let mut m: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in self.closed.values() {
            m.entry(&s.detail).or_default().push(s.dur);
        }
        for v in m.values_mut() {
            v.sort_unstable();
        }
        m
    }

    /// All end-to-end latencies, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.closed.values().map(|s| s.dur).collect();
        v.sort_unstable();
        v
    }

    /// Total cycles per segment label across every closed span (labels
    /// with no cycles are absent).
    pub fn segment_totals(&self) -> BTreeMap<&'static str, Cycle> {
        labelled(SEGMENTS, sum(self.closed.values().map(|s| &s.segments)))
    }

    /// Network-transit cycles per protocol family token across every span
    /// (families with no transit are absent).
    pub fn family_totals(&self) -> BTreeMap<&'static str, Cycle> {
        labelled(
            Family::ALL.map(Family::token),
            sum(self.closed.values().map(|s| &s.family_net)),
        )
    }

    /// The critical path: the longest dependency chain of spans, walked
    /// back from the maximal critical-path distance (ties broken toward
    /// the lowest transaction id), returned begin-to-end.
    pub fn critical_path(&self) -> Vec<&ClosedSpan> {
        let Some(tail) = self
            .closed
            .values()
            .max_by(|a, b| a.dist.cmp(&b.dist).then(b.txn.cmp(&a.txn)))
        else {
            return Vec::new();
        };
        let mut chain = vec![tail];
        let mut cur = tail;
        // A path visits each closed span at most once, so the walk is
        // bounded even if a corrupt parent link forms a cycle.
        while let Some(p) = cur.path_parent.and_then(|p| self.closed.get(p)) {
            if chain.len() == self.closed.len() {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    fn quantile_obj(sorted: &[u64]) -> Json {
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
        };
        Json::Obj(vec![
            ("count".into(), Json::num(sorted.len() as u64)),
            ("mean".into(), Json::num(mean)),
            ("p50".into(), Json::num(nearest_rank(sorted, 0.50))),
            ("p95".into(), Json::num(nearest_rank(sorted, 0.95))),
            ("p99".into(), Json::num(nearest_rank(sorted, 0.99))),
            ("p999".into(), Json::num(nearest_rank(sorted, 0.999))),
            ("max".into(), Json::num(sorted.last().copied().unwrap_or(0))),
        ])
    }

    fn segments_obj(m: &Segments) -> Json {
        Json::Obj(
            SEGMENTS
                .iter()
                .zip(m)
                .map(|(&s, &v)| (s.to_string(), Json::num(v)))
                .collect(),
        )
    }

    /// Renders the span report as the stable `ssmp-span-v1` JSON
    /// document. Deterministic: every map is ordered, every number
    /// rendered the same way regardless of pipeline.
    pub fn to_json(&self) -> Json {
        let overall = self.latencies();
        let by_type = self.latencies_by_type();
        let mut type_segments: BTreeMap<&str, Segments> = BTreeMap::new();
        for s in self.closed.values() {
            add(type_segments.entry(&s.detail).or_default(), &s.segments);
        }
        let txns: Vec<Json> = by_type
            .iter()
            .map(|(&ty, lats)| {
                let mut obj = vec![("type".to_string(), Json::str(ty))];
                if let Json::Obj(stats) = Self::quantile_obj(lats) {
                    obj.extend(stats);
                }
                obj.push(("segments".into(), Self::segments_obj(&type_segments[ty])));
                Json::Obj(obj)
            })
            .collect();
        let chain = self.critical_path();
        let chain_cycles: Cycle = chain.iter().map(|s| s.dur).sum();
        let chain_segments = sum(chain.iter().map(|s| &s.segments));
        let chain_families = labelled(
            Family::ALL.map(Family::token),
            sum(chain.iter().map(|s| &s.family_net)),
        );
        let mut top: Vec<&&ClosedSpan> = chain.iter().collect();
        top.sort_by(|a, b| b.dur.cmp(&a.dur).then(a.txn.cmp(&b.txn)));
        let top: Vec<Json> = top
            .into_iter()
            .take(32)
            .map(|s| {
                Json::Obj(vec![
                    ("txn".into(), Json::num(s.txn)),
                    ("node".into(), Json::num(s.node)),
                    ("type".into(), Json::str(s.detail.clone())),
                    ("begin".into(), Json::num(s.begin)),
                    ("dur".into(), Json::num(s.dur)),
                    ("segments".into(), Self::segments_obj(&s.segments)),
                ])
            })
            .collect();
        let families: Vec<(String, Json)> = self
            .family_totals()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::num(v)))
            .collect();
        let chain_families: Vec<(String, Json)> = chain_families
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::num(v)))
            .collect();
        let h = self.health();
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("overall".into(), Self::quantile_obj(&overall)),
            ("txns".into(), Json::Arr(txns)),
            (
                "segments".into(),
                Self::segments_obj(&sum(self.closed.values().map(|s| &s.segments))),
            ),
            ("families".into(), Json::Obj(families)),
            (
                "critical_path".into(),
                Json::Obj(vec![
                    ("spans".into(), Json::num(chain.len() as u64)),
                    ("cycles".into(), Json::num(chain_cycles)),
                    ("segments".into(), Self::segments_obj(&chain_segments)),
                    ("families".into(), Json::Obj(chain_families)),
                    ("top".into(), Json::Arr(top)),
                ]),
            ),
            (
                "health".into(),
                Json::Obj(vec![
                    ("spans".into(), Json::num(h.spans)),
                    ("orphan_begins".into(), Json::num(h.orphan_begins)),
                    ("orphan_ends".into(), Json::num(h.orphan_ends)),
                    ("links".into(), Json::num(h.links)),
                    ("dangling_links".into(), Json::num(h.dangling_links)),
                    ("late_links".into(), Json::num(h.late_links)),
                    ("wires".into(), Json::num(h.wires)),
                    ("undelivered_wires".into(), Json::num(h.undelivered_wires)),
                    ("unmatched_delivers".into(), Json::num(h.unmatched_delivers)),
                    ("adopted".into(), Json::num(h.adopted)),
                ]),
            ),
        ])
    }

    /// Renders the human-readable table view (`ssmp spans` default):
    /// per-type latency quantiles, segment attribution, per-family net
    /// transit, the critical path's top-`k` spans, and stitching health.
    pub fn render_table(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== transaction latency (cycles) ==");
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "type", "count", "mean", "p50", "p95", "p99", "p999", "max"
        );
        let row = |out: &mut String, name: &str, lats: &[u64]| {
            let mean = if lats.is_empty() {
                0.0
            } else {
                lats.iter().sum::<u64>() as f64 / lats.len() as f64
            };
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>9.1} {:>7} {:>7} {:>7} {:>7} {:>7}",
                name,
                lats.len(),
                mean,
                nearest_rank(lats, 0.50),
                nearest_rank(lats, 0.95),
                nearest_rank(lats, 0.99),
                nearest_rank(lats, 0.999),
                lats.last().copied().unwrap_or(0)
            );
        };
        for (ty, lats) in self.latencies_by_type() {
            row(&mut out, ty, &lats);
        }
        row(&mut out, "(all)", &self.latencies());

        let totals = self.segment_totals();
        let grand: Cycle = totals.values().sum();
        let _ = writeln!(out, "\n== segment attribution (cycles, all spans) ==");
        for &s in &SEGMENTS {
            let v = totals.get(s).copied().unwrap_or(0);
            let share = if grand == 0 {
                0.0
            } else {
                v as f64 * 100.0 / grand as f64
            };
            let _ = writeln!(out, "{s:<10} {v:>10}  {share:>5.1}%");
        }

        let fams = self.family_totals();
        if !fams.is_empty() {
            let _ = writeln!(out, "\n== net transit by protocol family (cycles) ==");
            for (f, v) in &fams {
                let _ = writeln!(out, "{f:<10} {v:>10}");
            }
        }

        let chain = self.critical_path();
        let chain_cycles: Cycle = chain.iter().map(|s| s.dur).sum();
        let _ = writeln!(
            out,
            "\n== critical path ({} spans, {} cycles) — top {k} by duration ==",
            chain.len(),
            chain_cycles
        );
        let _ = writeln!(
            out,
            "{:>8} {:>5} {:<16} {:>9} {:>7}  {:>6} {:>6} {:>6} {:>6}",
            "txn", "node", "type", "begin", "dur", "net", "mem", "queue", "local"
        );
        let mut top: Vec<&&ClosedSpan> = chain.iter().collect();
        top.sort_by(|a, b| b.dur.cmp(&a.dur).then(a.txn.cmp(&b.txn)));
        for s in top.into_iter().take(k) {
            let _ = writeln!(
                out,
                "{:>8} {:>5} {:<16} {:>9} {:>7}  {:>6} {:>6} {:>6} {:>6}",
                s.txn,
                s.node,
                s.detail,
                s.begin,
                s.dur,
                s.segments[NET],
                s.segments[MEM],
                s.segments[QUEUE],
                s.segments[LOCAL]
            );
        }

        let h = self.health();
        let _ = writeln!(out, "\n== stitching health ==");
        let _ = writeln!(
            out,
            "spans={} orphan-begins={} orphan-ends={} links={} dangling-links={} \
             late-links={} wires={} undelivered={} unmatched-delivers={} adopted={}",
            h.spans,
            h.orphan_begins,
            h.orphan_ends,
            h.links,
            h.dangling_links,
            h.late_links,
            h.wires,
            h.undelivered_wires,
            h.unmatched_delivers,
            h.adopted
        );
        out
    }
}

/// Adds `x` into `acc` element-wise.
fn add<const N: usize>(acc: &mut [Cycle; N], x: &[Cycle; N]) {
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// Element-wise sum of per-span arrays.
fn sum<'a, const N: usize>(arrays: impl Iterator<Item = &'a [Cycle; N]>) -> [Cycle; N] {
    let mut acc = [0; N];
    for x in arrays {
        add(&mut acc, x);
    }
    acc
}

/// The non-zero entries of `v`, keyed by their labels.
fn labelled<const N: usize>(
    labels: [&'static str; N],
    v: [Cycle; N],
) -> BTreeMap<&'static str, Cycle> {
    labels.into_iter().zip(v).filter(|&(_, c)| c > 0).collect()
}

/// Shared handle to a [`SpanSet`] being filled by a [`SpanSink`].
pub type SharedSpans = Rc<RefCell<SpanSet>>;

/// A [`TraceSink`] that folds events into a [`SpanSet`] as the machine
/// runs. Attach it to a tracer with an *unrestricted* filter — a filter
/// that drops span or wire events orphans the stitch (the health
/// counters will say so, but the report will be incomplete).
#[derive(Debug, Default)]
pub struct SpanSink {
    spans: SharedSpans,
}

impl SpanSink {
    /// Creates the sink plus the shared handle to read the spans back
    /// after the run (the tracer consumes the sink itself).
    pub fn new() -> (Self, SharedSpans) {
        let spans: SharedSpans = Rc::new(RefCell::new(SpanSet::new()));
        (
            Self {
                spans: spans.clone(),
            },
            spans,
        )
    }
}

impl TraceSink for SpanSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.spans.borrow_mut().fold(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn ev(
        cycle: Cycle,
        node: i64,
        family: Family,
        kind: Kind,
        detail: &'static str,
        id: u64,
        arg: u64,
    ) -> TraceEvent {
        TraceEvent {
            cycle,
            node,
            family,
            kind,
            detail,
            id,
            arg,
        }
    }

    /// A read miss: request wire out at 10, served at the directory,
    /// fill wire back, delivered at 30, span 10→30.
    fn fill_events() -> Vec<TraceEvent> {
        vec![
            ev(10, 0, Family::Ric, Kind::NetInject, "msg.ric.read", 1, 5),
            ev(10, 0, Family::Node, Kind::SpanBegin, "fill", 100, 0),
            ev(10, 0, Family::Ric, Kind::Link, "wire", 1, 100),
            ev(16, -1, Family::Ric, Kind::NetDeliver, "msg.ric.read", 1, 0),
            ev(20, -1, Family::Ric, Kind::NetInject, "msg.ric.fill", 2, 0),
            ev(20, -1, Family::Ric, Kind::Link, "wire", 2, 100),
            ev(30, 0, Family::Ric, Kind::NetDeliver, "msg.ric.fill", 2, 0),
            ev(30, 0, Family::Node, Kind::SpanEnd, "fill", 100, 20),
        ]
    }

    #[test]
    fn fill_span_tiles_exactly() {
        let mut s = SpanSet::new();
        for e in fill_events() {
            s.fold(&e);
        }
        let span = &s.closed[100];
        assert_eq!(span.dur, 20);
        assert_eq!(span.segments.iter().sum::<Cycle>(), 20);
        assert_eq!(span.segments[NET], 6 + 10, "two transits: 10→16, 20→30");
        assert_eq!(span.segments[MEM], 4, "directory service 16→20");
        assert_eq!(span.segments[ISSUE], 0, "inject at begin");
        assert_eq!(span.family_net[Family::Ric as usize], 16);
        assert!(s.health().clean());
    }

    #[test]
    fn a_repeated_delivery_keeps_the_first() {
        let mut once = SpanSet::new();
        let mut twice = SpanSet::new();
        for e in fill_events() {
            once.fold(&e);
            twice.fold(&e);
            if e.kind == Kind::NetDeliver && e.id == 1 {
                twice.fold(&TraceEvent { cycle: 18, ..e });
            }
        }
        assert_eq!(twice.closed[100].segments, once.closed[100].segments);
        assert_eq!(twice.closed[100].segments[NET], 16);
    }

    #[test]
    fn cbl_gap_is_queue_time() {
        let mut s = SpanSet::new();
        let evs = vec![
            ev(5, 1, Family::Cbl, Kind::NetInject, "msg.cbl.request", 7, 0),
            ev(5, 1, Family::Node, Kind::SpanBegin, "lock", 50, 0),
            ev(5, 1, Family::Cbl, Kind::Link, "wire", 7, 50),
            ev(
                9,
                -1,
                Family::Cbl,
                Kind::NetDeliver,
                "msg.cbl.request",
                7,
                0,
            ),
            ev(40, -1, Family::Cbl, Kind::NetInject, "msg.cbl.grant", 8, 0),
            ev(40, -1, Family::Cbl, Kind::Link, "wire", 8, 50),
            ev(44, 1, Family::Cbl, Kind::NetDeliver, "msg.cbl.grant", 8, 0),
            ev(44, 1, Family::Node, Kind::SpanEnd, "lock", 50, 39),
        ];
        for e in evs {
            s.fold(&e);
        }
        let span = &s.closed[50];
        assert_eq!(span.dur, 39);
        assert_eq!(span.segments.iter().sum::<Cycle>(), 39);
        assert_eq!(span.segments[QUEUE], 31, "9→40 waiting in the CBL queue");
        assert_eq!(span.segments[NET], 8);
    }

    /// Node 0 releases a lock (async span owning the release wire); the
    /// directory forwards a grant to node 1, whose lock span adopts it.
    fn handoff_events() -> Vec<TraceEvent> {
        vec![
            // node 1 requests the lock and stalls
            ev(5, 1, Family::Cbl, Kind::NetInject, "msg.cbl.request", 1, 0),
            ev(5, 1, Family::Node, Kind::SpanBegin, "lock", 10, 0),
            ev(5, 1, Family::Cbl, Kind::Link, "wire", 1, 10),
            ev(
                8,
                -1,
                Family::Cbl,
                Kind::NetDeliver,
                "msg.cbl.request",
                1,
                0,
            ),
            // node 0 releases: fire-and-forget span
            ev(20, 0, Family::Node, Kind::SpanBegin, "unlock", 11, 0),
            ev(20, 0, Family::Cbl, Kind::NetInject, "msg.cbl.release", 2, 0),
            ev(20, 0, Family::Cbl, Kind::Link, "wire", 2, 11),
            ev(20, 0, Family::Node, Kind::SpanEnd, "unlock", 11, 0),
            ev(
                23,
                -1,
                Family::Cbl,
                Kind::NetDeliver,
                "msg.cbl.release",
                2,
                0,
            ),
            // the directory hands the lock to node 1 (caused by txn 11)
            ev(23, -1, Family::Cbl, Kind::NetInject, "msg.cbl.grant", 3, 0),
            ev(23, -1, Family::Cbl, Kind::Link, "wire", 3, 11),
            ev(27, 1, Family::Cbl, Kind::NetDeliver, "msg.cbl.grant", 3, 0),
            ev(27, 1, Family::Node, Kind::SpanEnd, "lock", 10, 22),
        ]
    }

    #[test]
    fn adoption_builds_cross_txn_causal_edge() {
        let mut s = SpanSet::new();
        for e in handoff_events() {
            s.fold(&e);
        }
        let lock = &s.closed[10];
        assert_eq!(lock.adopted_wire, Some(3), "grant wire adopted");
        assert_eq!(lock.causal_parent, Some(11), "edge to the releaser");
        assert_eq!(lock.dur, 22);
        assert_eq!(lock.segments.iter().sum::<Cycle>(), 22);
        // grant transit 23→27 tiled as net
        assert_eq!(lock.segments[NET], 3 + 4);
        let path = s.critical_path();
        let txns: Vec<u64> = path.iter().map(|p| p.txn).collect();
        assert_eq!(txns, vec![11, 10], "release → grant chain");
        assert_eq!(s.health().adopted, 1);
    }

    #[test]
    fn zero_length_async_span_has_no_segments() {
        let mut s = SpanSet::new();
        let evs = vec![
            ev(20, 0, Family::Node, Kind::SpanBegin, "unlock", 1, 0),
            ev(20, 0, Family::Cbl, Kind::NetInject, "msg.cbl.release", 9, 0),
            ev(20, 0, Family::Cbl, Kind::Link, "wire", 9, 1),
            ev(20, 0, Family::Node, Kind::SpanEnd, "unlock", 1, 0),
        ];
        for e in evs {
            s.fold(&e);
        }
        let span = &s.closed[1];
        assert_eq!(span.dur, 0);
        assert_eq!(span.segments.iter().sum::<Cycle>(), 0);
    }

    #[test]
    fn program_order_chains_same_node_spans() {
        let mut s = SpanSet::new();
        for (b, e, t) in [(10u64, 20u64, 1u64), (25, 45, 2), (50, 60, 3)] {
            s.fold(&ev(b, 0, Family::Node, Kind::SpanBegin, "fill", t, 0));
            s.fold(&ev(e, 0, Family::Node, Kind::SpanEnd, "fill", t, e - b));
        }
        assert_eq!(s.closed[2].prog_parent, Some(1));
        assert_eq!(s.closed[3].prog_parent, Some(2));
        assert_eq!(s.closed[3].dist, 10 + 20 + 10);
        let chain: Vec<u64> = s.critical_path().iter().map(|p| p.txn).collect();
        assert_eq!(chain, vec![1, 2, 3]);
    }

    #[test]
    fn health_counts_orphans_and_dangles() {
        let mut s = SpanSet::new();
        s.fold(&ev(1, 0, Family::Node, Kind::SpanBegin, "fill", 1, 0));
        s.fold(&ev(2, 0, Family::Node, Kind::SpanEnd, "fill", 99, 0)); // orphan end
        s.fold(&ev(3, 0, Family::Ric, Kind::Link, "wire", 5, 77)); // dangling
        s.fold(&ev(
            4,
            0,
            Family::Ric,
            Kind::NetInject,
            "msg.ric.read",
            6,
            0,
        ));
        s.fold(&ev(
            5,
            0,
            Family::Ric,
            Kind::NetDeliver,
            "msg.ric.fill",
            42,
            0,
        )); // unmatched
        let h = s.health();
        assert_eq!(h.orphan_begins, 1, "txn 1 still open");
        assert_eq!(h.orphan_ends, 1);
        assert_eq!(h.dangling_links, 1);
        assert_eq!(h.undelivered_wires, 1);
        assert_eq!(h.unmatched_delivers, 1);
        assert!(!h.clean());
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.95), 95);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 0.999), 100);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn live_and_offline_folds_agree_byte_for_byte() {
        let mut events = fill_events();
        events.extend(handoff_events());
        let (mut sink, live) = SpanSink::new();
        let mut jsonl = String::new();
        for e in &events {
            sink.record(e);
            jsonl.push_str(&e.to_jsonl());
            jsonl.push('\n');
        }
        let offline = SpanSet::from_jsonl(Cursor::new(jsonl)).unwrap();
        assert_eq!(*live.borrow(), offline);
        assert_eq!(live.borrow().to_json().render(), offline.to_json().render());
    }

    #[test]
    fn json_schema_and_table_render() {
        let mut s = SpanSet::new();
        for e in handoff_events() {
            s.fold(&e);
        }
        let doc = s.to_json();
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        for field in ["overall", "txns", "segments", "critical_path", "health"] {
            assert!(doc.get(field).is_some(), "missing {field}");
        }
        let reparsed = Json::parse(&doc.render()).expect("rendered report parses");
        assert_eq!(reparsed.render(), doc.render());
        let table = s.render_table(5);
        assert!(table.contains("transaction latency"));
        assert!(table.contains("critical path"));
        assert!(table.contains("stitching health"));
    }

    #[test]
    fn family_net_is_indexed_like_family_all() {
        for (i, f) in Family::ALL.into_iter().enumerate() {
            assert_eq!(f as usize, i, "{f:?}");
        }
    }

    /// Ids come from the file, so a wire id of `u64::MAX` and a
    /// transaction id of 2^60 must fold into the side maps, with no
    /// allocation sized by their values, and render the pinned document.
    #[test]
    fn from_jsonl_folds_ids_far_past_the_dense_range() {
        let trace = [
            r#"{"cycle":10,"node":0,"family":"ric","kind":"net-inject","detail":"msg.ric.read","id":18446744073709551615,"arg":0}"#,
            r#"{"cycle":10,"node":0,"family":"node","kind":"span-begin","detail":"fill","id":1152921504606846976,"arg":0}"#,
            r#"{"cycle":10,"node":0,"family":"ric","kind":"link","detail":"wire","id":18446744073709551615,"arg":1152921504606846976}"#,
            r#"{"cycle":16,"node":0,"family":"ric","kind":"net-deliver","detail":"msg.ric.read","id":18446744073709551615,"arg":0}"#,
            r#"{"cycle":30,"node":0,"family":"node","kind":"span-end","detail":"fill","id":1152921504606846976,"arg":20}"#,
        ]
        .join("\n");
        let s = SpanSet::from_jsonl(Cursor::new(trace)).unwrap();
        assert_eq!(s.closed[1 << 60].wires, [u64::MAX]);
        let pinned = concat!(
            r#"{"schema":"ssmp-span-v1","overall":{"count":1,"mean":20,"p50":20,"p95":20,"p99":"#,
            r#"20,"p999":20,"max":20},"txns":[{"type":"fill","count":1,"mean":20,"p50":20,"p95""#,
            r#":20,"p99":20,"p999":20,"max":20,"segments":{"issue":0,"wbuf":0,"net":6,"mem":0,""#,
            r#"queue":0,"complete":14,"local":0}}],"segments":{"issue":0,"wbuf":0,"net":6,"mem""#,
            r#":0,"queue":0,"complete":14,"local":0},"families":{"ric":6},"critical_path":{"spa"#,
            r#"ns":1,"cycles":20,"segments":{"issue":0,"wbuf":0,"net":6,"mem":0,"queue":0,"comp"#,
            r#"lete":14,"local":0},"families":{"ric":6},"top":[{"txn":1152921504606846976,"node"#,
            r#"":0,"type":"fill","begin":10,"dur":20,"segments":{"issue":0,"wbuf":0,"net":6,"me"#,
            r#"m":0,"queue":0,"complete":14,"local":0}}]},"health":{"spans":1,"orphan_begins":0"#,
            r#","orphan_ends":0,"links":1,"dangling_links":0,"late_links":0,"wires":1,"undelive"#,
            r#"red_wires":0,"unmatched_delivers":0,"adopted":0}}"#,
        );
        assert_eq!(s.to_json().render(), pinned);
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        assert!(SpanSet::from_jsonl(Cursor::new("not json\n")).is_err());
        let bad =
            r#"{"cycle":1,"node":0,"family":"zzz","kind":"issue","detail":"x","id":0,"arg":0}"#;
        let err = SpanSet::from_jsonl(Cursor::new(bad)).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(SpanSet::from_jsonl(Cursor::new("\n\n")).unwrap() == SpanSet::new());
    }

    /// Transaction 5 opened and closed twice on one node: the machine
    /// never reuses an id, so the reader names the second begin.
    fn reused_txn() -> Vec<TraceEvent> {
        let (n, s) = (Family::Node, "lock");
        vec![
            ev(0, 0, n, Kind::SpanBegin, s, 5, 0),
            ev(10, 0, n, Kind::SpanEnd, s, 5, 10),
            ev(20, 0, n, Kind::SpanBegin, s, 5, 0),
            ev(30, 0, n, Kind::SpanEnd, s, 5, 10),
        ]
    }

    #[test]
    fn from_jsonl_rejects_a_reused_transaction_id() {
        let jsonl: String = reused_txn().iter().map(|e| e.to_jsonl() + "\n").collect();
        let err = SpanSet::from_jsonl(Cursor::new(jsonl)).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn critical_path_walk_is_bounded_by_the_closed_spans() {
        // Folded live, the reused id makes span 5 its own path parent;
        // the walk must stop instead of looping.
        let mut s = SpanSet::new();
        for e in reused_txn() {
            s.fold(&e);
        }
        assert_eq!(s.closed[5].path_parent, Some(5));
        assert_eq!(s.critical_path().len(), s.closed.len());
    }
}
