//! # ssmp-profile
//!
//! Protocol-level profiling and attribution, folded from trace events.
//!
//! The paper's central claims — BC hides write latency behind the write
//! buffer, RIC's per-word dirty bits eliminate false sharing, CBL turns
//! hot-lock spinning into a quiet queue — are per-address, per-lock,
//! per-cause phenomena. This crate attributes every stalled cycle and
//! every coherence action to the line, lock, and mechanism that caused it:
//!
//! * **Per-line heatmaps** — reads, global reads, global writes, update
//!   pushes, invalidations, plus a false-sharing detector that flags lines
//!   where distinct nodes write disjoint word sets yet invalidations
//!   occurred (RIC's per-word dirty bits mean it should flag nothing;
//!   write-invalidate baselines should not be so lucky).
//! * **Per-lock contention profiles** — acquire-latency histograms,
//!   queue-depth timelines, handoff chains, and fairness.
//! * **Per-node stall attribution** — every stalled cycle blamed to
//!   wbuf-full, FLUSH-BUFFER drain, lock wait, semaphore wait, barrier
//!   wait, or memory/network occupancy, summing exactly to
//!   `cycles − busy`; plus RIC list churn and write-buffer residency.
//!
//! The same [`Profile`] accumulator backs both pipelines through one
//! [`Profile::fold`]: **live**, the profile itself is a [`TraceSink`] the
//! machine attaches to its tracer (zero extra passes); **offline**,
//! [`Profile::from_jsonl`] replays a JSONL trace file through the same
//! fold. Given the same event stream the two paths produce byte-identical
//! JSON ([`Profile::to_json`], schema [`SCHEMA`]).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

use ssmp_engine::trace::read_jsonl;
use ssmp_engine::{Cycle, Family, Histogram, Json, Kind, TraceEvent, TraceSink};

/// The stable schema identifier stamped into rendered profiles.
pub const SCHEMA: &str = "ssmp-profile-v1";

/// Stall-attribution buckets, in rendering order. Every stalled cycle
/// lands in exactly one bucket, so per node the bucket sum equals the
/// node's total stalled cycles (`cycles − busy`).
pub const STALL_BUCKETS: [&str; 7] = [
    "wbuf-full",
    "flush-drain",
    "lock",
    "semaphore",
    "barrier",
    "mem-net",
    "other",
];

/// Maps a `StallBegin` cause tag to its attribution bucket.
///
/// The machine emits refined tags (`"flush.wbuf-full"`, `"spin.lock"`,
/// `"timer.flag"`, ...) so the fold can separate a processor blocked on a
/// *full* write buffer from one voluntarily draining it, and a lock-var
/// spin from a flag spin. Unknown tags fall into `"other"` rather than
/// being dropped, keeping the per-node sum exact.
pub fn stall_bucket(tag: &str) -> &'static str {
    match tag {
        "flush.wbuf-full" => "wbuf-full",
        t if t.starts_with("flush") => "flush-drain",
        "lock" | "spin.lock" | "timer.lock" | "spin" | "timer" => "lock",
        "barrier" | "spin.flag" | "timer.flag" => "barrier",
        "semaphore" => "semaphore",
        "fill" => "mem-net",
        _ => "other",
    }
}

/// Per-node profile: completion time, attributed stalls, and write-buffer
/// residency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeProfile {
    /// The cycle the node retired its last operation (from the `done`
    /// event; 0 if the node never finished).
    pub cycles: Cycle,
    /// Stalled cycles per attribution bucket.
    pub stalls: BTreeMap<&'static str, Cycle>,
    /// Total stalled cycles (sum of the buckets).
    pub stall_total: Cycle,
    /// Cycles each buffered global write spent in the write buffer
    /// (push → ack).
    pub wbuf_residency: Histogram,
}

impl NodeProfile {
    /// Busy cycles: completion time minus stalled cycles.
    pub fn busy(&self) -> Cycle {
        self.cycles.saturating_sub(self.stall_total)
    }
}

/// Per-line (shared data block) heatmap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineProfile {
    /// Cached shared reads issued against the line.
    pub reads: u64,
    /// READ-GLOBAL round trips against the line.
    pub global_reads: u64,
    /// Global writes (RIC) / ownership writes (WBI) against the line.
    pub writes: u64,
    /// RIC update pushes applied to list members caching the line.
    pub update_pushes: u64,
    /// Invalidations suffered by caches holding the line.
    pub invalidations: u64,
    /// Per-writer word masks (bit `w` set = the node wrote word `w`).
    pub writers: BTreeMap<i64, u64>,
}

impl LineProfile {
    /// Total traffic against the line (hotness rank key).
    pub fn traffic(&self) -> u64 {
        self.reads + self.global_reads + self.writes + self.update_pushes + self.invalidations
    }

    /// Whether the line exhibits false sharing: at least two distinct
    /// nodes wrote *disjoint* word sets, yet some cache holding the line
    /// was invalidated. Per-word dirty bits (RIC) never invalidate on a
    /// data write, so RIC flags zero lines by construction.
    pub fn false_sharing(&self) -> bool {
        if self.invalidations == 0 {
            return false;
        }
        let masks: Vec<u64> = self.writers.values().copied().filter(|&m| m != 0).collect();
        masks
            .iter()
            .enumerate()
            .any(|(i, &a)| masks[i + 1..].iter().any(|&b| a & b == 0))
    }
}

/// Per-lock contention profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockProfile {
    /// Lock mechanism (`"cbl"` or `"tts"`, from the acquire event).
    pub kind: String,
    /// Total acquisitions.
    pub acquires: u64,
    /// Acquisitions per node (fairness).
    pub per_node: BTreeMap<i64, u64>,
    /// Acquire latency (request → grant), cycles.
    pub latency: Histogram,
    /// Holder transitions: (from, to) → count (`from == to` is a
    /// re-acquisition by the same node).
    pub handoffs: BTreeMap<(i64, i64), u64>,
    /// Waiter-queue depth after each change, in event order.
    pub depth_timeline: Vec<(Cycle, u64)>,
    last_holder: Option<i64>,
}

impl LockProfile {
    /// Maximum observed queue depth.
    pub fn depth_max(&self) -> u64 {
        self.depth_timeline
            .iter()
            .map(|&(_, d)| d)
            .max()
            .unwrap_or(0)
    }

    /// Mean queue depth over the depth-change samples.
    pub fn depth_mean(&self) -> f64 {
        if self.depth_timeline.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.depth_timeline.iter().map(|&(_, d)| d).sum();
        sum as f64 / self.depth_timeline.len() as f64
    }

    /// Fairness: (max, mean) acquisitions per participating node.
    pub fn fairness(&self) -> (u64, f64) {
        let max = self.per_node.values().copied().max().unwrap_or(0);
        let mean = if self.per_node.is_empty() {
            0.0
        } else {
            self.acquires as f64 / self.per_node.len() as f64
        };
        (max, mean)
    }
}

/// Per-block RIC update-list churn.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RicProfile {
    /// Nodes enrolling on the update list.
    pub joins: u64,
    /// Nodes leaving the update list.
    pub leaves: u64,
    /// Update pushes delivered to list members.
    pub pushes: u64,
    /// Update-list length after each membership change.
    pub len: Histogram,
}

/// The profiler accumulator: folds trace events into heatmaps, lock
/// profiles, and stall attribution. Identical whether fed live (as a
/// [`TraceSink`]) or offline (via [`Profile::from_jsonl`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-node profiles, keyed by node id.
    pub nodes: BTreeMap<i64, NodeProfile>,
    /// Per-line heatmaps, keyed by shared block id.
    pub lines: BTreeMap<u64, LineProfile>,
    /// Per-lock contention profiles, keyed by lock id.
    pub locks: BTreeMap<u64, LockProfile>,
    /// RIC list churn, keyed by shared block id.
    pub ric: BTreeMap<u64, RicProfile>,
    /// Per node, the attribution bucket of its open stall, picked by the
    /// `StallBegin` tag.
    open_stalls: BTreeMap<i64, &'static str>,
    open_writes: BTreeMap<(i64, u64), Cycle>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one trace event, live (`&'static str` detail) or read back
    /// from a JSONL file (`String` detail).
    pub fn fold<D: AsRef<str>>(&mut self, ev: &TraceEvent<D>) {
        let &TraceEvent {
            cycle,
            node,
            family,
            kind,
            ref detail,
            id,
            arg,
        } = ev;
        let detail = detail.as_ref();
        match kind {
            Kind::Access => {
                let line = self.lines.entry(id).or_default();
                match detail {
                    "read" => line.reads += 1,
                    "read.global" => line.global_reads += 1,
                    "write" => {
                        line.writes += 1;
                        *line.writers.entry(node).or_insert(0) |= 1u64 << arg.min(63);
                    }
                    "update.apply" => {
                        line.update_pushes += 1;
                        self.ric.entry(id).or_default().pushes += 1;
                    }
                    "invalidate" => line.invalidations += 1,
                    _ => {}
                }
            }
            Kind::Queue => match family {
                Family::Cbl => {
                    self.locks
                        .entry(id)
                        .or_default()
                        .depth_timeline
                        .push((cycle, arg));
                }
                Family::Ric => {
                    let r = self.ric.entry(id).or_default();
                    match detail {
                        "join" => r.joins += 1,
                        "leave" => r.leaves += 1,
                        _ => return,
                    }
                    r.len.record(arg);
                }
                Family::Node => match detail {
                    "wbuf.push" => {
                        self.open_writes.insert((node, id), cycle);
                    }
                    "wbuf.ack" => {
                        if let Some(t0) = self.open_writes.remove(&(node, id)) {
                            self.nodes
                                .entry(node)
                                .or_default()
                                .wbuf_residency
                                .record(cycle.saturating_sub(t0));
                        }
                    }
                    _ => {}
                },
                _ => {}
            },
            Kind::StallBegin => {
                self.open_stalls.insert(node, stall_bucket(detail));
            }
            Kind::StallEnd => {
                // `arg` carries the machine-computed stall duration — the
                // exact quantity accumulated into the node's stalled-cycle
                // counter — so the bucket sum matches the report exactly.
                let bucket = self
                    .open_stalls
                    .remove(&node)
                    .unwrap_or_else(|| stall_bucket(detail));
                let n = self.nodes.entry(node).or_default();
                *n.stalls.entry(bucket).or_insert(0) += arg;
                n.stall_total += arg;
            }
            Kind::LockAcquire => {
                let l = self.locks.entry(id).or_default();
                if l.kind.is_empty() {
                    l.kind = detail.to_string();
                }
                l.acquires += 1;
                *l.per_node.entry(node).or_insert(0) += 1;
                l.latency.record(arg);
                if let Some(prev) = l.last_holder {
                    *l.handoffs.entry((prev, node)).or_insert(0) += 1;
                }
                l.last_holder = Some(node);
            }
            Kind::Done => {
                self.nodes.entry(node).or_default().cycles = cycle;
            }
            _ => {}
        }
    }

    /// Replays a JSONL trace (one event object per line) through the fold.
    /// Blank lines are skipped; a malformed line or a reused wire or
    /// transaction id aborts with its line number (see [`read_jsonl`]).
    pub fn from_jsonl<R: BufRead>(reader: R) -> Result<Profile, String> {
        let mut p = Profile::new();
        read_jsonl(reader, |ev| p.fold(ev))?;
        Ok(p)
    }

    /// Renders the profile as the stable `ssmp-profile-v1` JSON document.
    /// Deterministic: every map is ordered, every number rendered the same
    /// way regardless of pipeline.
    pub fn to_json(&self) -> Json {
        let hist = |h: &Histogram| {
            let buckets: Vec<Json> = h
                .buckets()
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| Json::Arr(vec![Json::num(i), Json::num(c)]))
                .collect();
            Json::Obj(vec![
                ("count".into(), Json::num(h.count())),
                ("mean".into(), Json::num(h.mean().unwrap_or(0.0))),
                ("p50".into(), Json::num(h.p50().unwrap_or(0))),
                ("p95".into(), Json::num(h.p95().unwrap_or(0))),
                ("p99".into(), Json::num(h.p99().unwrap_or(0))),
                ("buckets".into(), Json::Arr(buckets)),
            ])
        };
        let nodes: Vec<Json> = self
            .nodes
            .iter()
            .map(|(&n, p)| {
                let stalls = STALL_BUCKETS
                    .iter()
                    .map(|&b| {
                        (
                            b.to_string(),
                            Json::num(p.stalls.get(b).copied().unwrap_or(0)),
                        )
                    })
                    .collect();
                Json::Obj(vec![
                    ("node".into(), Json::num(n)),
                    ("cycles".into(), Json::num(p.cycles)),
                    ("busy".into(), Json::num(p.busy())),
                    ("stall_total".into(), Json::num(p.stall_total)),
                    ("stalls".into(), Json::Obj(stalls)),
                    ("wbuf_residency".into(), hist(&p.wbuf_residency)),
                ])
            })
            .collect();
        let lines: Vec<Json> = self
            .lines
            .iter()
            .map(|(&b, l)| {
                let writers: Vec<Json> = l
                    .writers
                    .iter()
                    .map(|(&n, &mask)| {
                        let words: Vec<Json> = (0..64)
                            .filter(|w| mask >> w & 1 == 1)
                            .map(Json::num)
                            .collect();
                        Json::Obj(vec![
                            ("node".into(), Json::num(n)),
                            ("words".into(), Json::Arr(words)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("block".into(), Json::num(b)),
                    ("reads".into(), Json::num(l.reads)),
                    ("global_reads".into(), Json::num(l.global_reads)),
                    ("writes".into(), Json::num(l.writes)),
                    ("update_pushes".into(), Json::num(l.update_pushes)),
                    ("invalidations".into(), Json::num(l.invalidations)),
                    ("writers".into(), Json::Arr(writers)),
                    ("false_sharing".into(), Json::Bool(l.false_sharing())),
                ])
            })
            .collect();
        let locks: Vec<Json> = self
            .locks
            .iter()
            .map(|(&id, l)| {
                let per_node: Vec<Json> = l
                    .per_node
                    .iter()
                    .map(|(&n, &c)| {
                        Json::Obj(vec![
                            ("node".into(), Json::num(n)),
                            ("acquires".into(), Json::num(c)),
                        ])
                    })
                    .collect();
                let handoffs: Vec<Json> = l
                    .handoffs
                    .iter()
                    .map(|(&(from, to), &c)| {
                        Json::Obj(vec![
                            ("from".into(), Json::num(from)),
                            ("to".into(), Json::num(to)),
                            ("count".into(), Json::num(c)),
                        ])
                    })
                    .collect();
                let timeline: Vec<Json> = l
                    .depth_timeline
                    .iter()
                    .map(|&(c, d)| Json::Arr(vec![Json::num(c), Json::num(d)]))
                    .collect();
                let (fmax, fmean) = l.fairness();
                Json::Obj(vec![
                    ("lock".into(), Json::num(id)),
                    ("kind".into(), Json::str(l.kind.clone())),
                    ("acquires".into(), Json::num(l.acquires)),
                    ("per_node".into(), Json::Arr(per_node)),
                    (
                        "fairness".into(),
                        Json::Obj(vec![
                            ("max".into(), Json::num(fmax)),
                            ("mean".into(), Json::num(fmean)),
                        ]),
                    ),
                    ("latency".into(), hist(&l.latency)),
                    (
                        "queue_depth".into(),
                        Json::Obj(vec![
                            ("max".into(), Json::num(l.depth_max())),
                            ("mean".into(), Json::num(l.depth_mean())),
                            ("timeline".into(), Json::Arr(timeline)),
                        ]),
                    ),
                    ("handoffs".into(), Json::Arr(handoffs)),
                ])
            })
            .collect();
        let ric: Vec<Json> = self
            .ric
            .iter()
            .map(|(&b, r)| {
                Json::Obj(vec![
                    ("block".into(), Json::num(b)),
                    ("joins".into(), Json::num(r.joins)),
                    ("leaves".into(), Json::num(r.leaves)),
                    ("pushes".into(), Json::num(r.pushes)),
                    ("len".into(), hist(&r.len)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("nodes".into(), Json::Arr(nodes)),
            ("lines".into(), Json::Arr(lines)),
            ("locks".into(), Json::Arr(locks)),
            ("ric".into(), Json::Arr(ric)),
        ])
    }

    /// Lines flagged by the false-sharing detector, hottest first.
    pub fn false_sharing_lines(&self) -> Vec<u64> {
        let mut v: Vec<(u64, u64)> = self
            .lines
            .iter()
            .filter(|(_, l)| l.false_sharing())
            .map(|(&b, l)| (b, l.traffic()))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(b, _)| b).collect()
    }

    /// Renders the human-readable table view (`ssmp analyze` default):
    /// per-node stall attribution, top-`k` hot lines, hot locks, RIC
    /// churn, and write-buffer residency.
    pub fn render_table(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== stall attribution (cycles) ==");
        let _ = writeln!(
            out,
            "{:>5} {:>9} {:>9} {:>9}  {:>9} {:>11} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "node",
            "cycles",
            "busy",
            "stalled",
            "wbuf-full",
            "flush-drain",
            "lock",
            "sem",
            "barrier",
            "mem-net",
            "other"
        );
        for (&n, p) in &self.nodes {
            let g = |b: &str| p.stalls.get(b).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{:>5} {:>9} {:>9} {:>9}  {:>9} {:>11} {:>9} {:>9} {:>9} {:>9} {:>7}",
                n,
                p.cycles,
                p.busy(),
                p.stall_total,
                g("wbuf-full"),
                g("flush-drain"),
                g("lock"),
                g("semaphore"),
                g("barrier"),
                g("mem-net"),
                g("other")
            );
        }
        let mut hot: Vec<(&u64, &LineProfile)> = self.lines.iter().collect();
        hot.sort_by(|a, b| b.1.traffic().cmp(&a.1.traffic()).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "\n== hot lines (top {k} by traffic) ==");
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8}  false-sharing",
            "block", "reads", "g-reads", "writes", "pushes", "invals"
        );
        for (&b, l) in hot.into_iter().take(k) {
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
                b,
                l.reads,
                l.global_reads,
                l.writes,
                l.update_pushes,
                l.invalidations,
                if l.false_sharing() { "FLAGGED" } else { "-" }
            );
        }
        let mut locks: Vec<(&u64, &LockProfile)> = self.locks.iter().collect();
        locks.sort_by(|a, b| b.1.acquires.cmp(&a.1.acquires).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "\n== hot locks (top {k} by acquisitions) ==");
        let _ = writeln!(
            out,
            "{:>5} {:>5} {:>9} {:>9} {:>10}  {:>9} {:>8} {:>8}  {:>8} {:>9}",
            "lock",
            "kind",
            "acquires",
            "max-depth",
            "mean-depth",
            "lat-mean",
            "lat-p50",
            "lat-p95",
            "fair-max",
            "fair-mean"
        );
        for (&id, l) in locks.into_iter().take(k) {
            let (fmax, fmean) = l.fairness();
            let _ = writeln!(
                out,
                "{:>5} {:>5} {:>9} {:>9} {:>10.2}  {:>9.1} {:>8} {:>8}  {:>8} {:>9.2}",
                id,
                l.kind,
                l.acquires,
                l.depth_max(),
                l.depth_mean(),
                l.latency.mean().unwrap_or(0.0),
                l.latency.p50().unwrap_or(0),
                l.latency.p95().unwrap_or(0),
                fmax,
                fmean
            );
        }
        if !self.ric.is_empty() {
            let _ = writeln!(out, "\n== ric list churn (top {k} by pushes) ==");
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>8} {:>8} {:>8}",
                "block", "joins", "leaves", "pushes", "len-p95"
            );
            let mut churn: Vec<(&u64, &RicProfile)> = self.ric.iter().collect();
            churn.sort_by(|a, b| b.1.pushes.cmp(&a.1.pushes).then(a.0.cmp(b.0)));
            for (&b, r) in churn.into_iter().take(k) {
                let _ = writeln!(
                    out,
                    "{:>6} {:>8} {:>8} {:>8} {:>8}",
                    b,
                    r.joins,
                    r.leaves,
                    r.pushes,
                    r.len.p95().unwrap_or(0)
                );
            }
        }
        if self.nodes.values().any(|p| p.wbuf_residency.count() > 0) {
            let _ = writeln!(out, "\n== write-buffer residency (cycles in buffer) ==");
            let _ = writeln!(
                out,
                "{:>5} {:>8} {:>9} {:>8} {:>8}",
                "node", "writes", "mean", "p50", "p95"
            );
            for (&n, p) in &self.nodes {
                if p.wbuf_residency.count() == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:>5} {:>8} {:>9.1} {:>8} {:>8}",
                    n,
                    p.wbuf_residency.count(),
                    p.wbuf_residency.mean().unwrap_or(0.0),
                    p.wbuf_residency.p50().unwrap_or(0),
                    p.wbuf_residency.p95().unwrap_or(0)
                );
            }
        }
        out
    }
}

/// Attach the profile with an *unrestricted* tracer filter: a filter that
/// drops event kinds starves the fold (the offline pipeline over the same
/// filtered file would agree, but both would be incomplete).
impl TraceSink for Profile {
    fn record(&mut self, ev: &TraceEvent) {
        self.fold(ev);
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

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            ev(1, 0, Family::Ric, Kind::Access, "read", 3, 1),
            ev(2, 1, Family::Ric, Kind::Access, "write", 3, 0),
            ev(3, 2, Family::Ric, Kind::Access, "write", 3, 2),
            ev(4, 1, Family::Wbi, Kind::Access, "invalidate", 3, 0),
            ev(5, 0, Family::Node, Kind::StallBegin, "fill", 0, 0),
            ev(9, 0, Family::Node, Kind::StallEnd, "fill", 0, 4),
            ev(10, 1, Family::Cbl, Kind::LockAcquire, "cbl", 0, 6),
            ev(11, -1, Family::Cbl, Kind::Queue, "depth", 0, 2),
            ev(12, 2, Family::Cbl, Kind::LockAcquire, "cbl", 0, 9),
            ev(13, 0, Family::Ric, Kind::Queue, "join", 3, 1),
            ev(14, 0, Family::Node, Kind::Queue, "wbuf.push", 17, 1),
            ev(20, 0, Family::Node, Kind::Queue, "wbuf.ack", 17, 0),
            ev(30, 0, Family::Node, Kind::Done, "done", 0, 0),
            ev(31, 1, Family::Node, Kind::Done, "done", 0, 0),
            ev(32, 2, Family::Node, Kind::Done, "done", 0, 0),
        ]
    }

    #[test]
    fn live_and_offline_folds_agree_byte_for_byte() {
        let events = sample_events();
        let live = std::rc::Rc::new(std::cell::RefCell::new(Profile::new()));
        let mut sink = live.clone();
        let mut jsonl = String::new();
        for e in &events {
            sink.record(e);
            jsonl.push_str(&e.to_jsonl());
            jsonl.push('\n');
        }
        let offline = Profile::from_jsonl(Cursor::new(jsonl)).unwrap();
        assert_eq!(*live.borrow(), offline);
        assert_eq!(live.borrow().to_json().render(), offline.to_json().render());
    }

    #[test]
    fn stall_attribution_buckets_and_sums() {
        let mut p = Profile::new();
        for (tag, bucket) in [
            ("flush.wbuf-full", "wbuf-full"),
            ("flush.cp-synch", "flush-drain"),
            ("flush.explicit", "flush-drain"),
            ("flush.write", "flush-drain"),
            ("lock", "lock"),
            ("spin.lock", "lock"),
            ("timer.lock", "lock"),
            ("barrier", "barrier"),
            ("spin.flag", "barrier"),
            ("timer.flag", "barrier"),
            ("semaphore", "semaphore"),
            ("fill", "mem-net"),
            ("mystery", "other"),
        ] {
            assert_eq!(stall_bucket(tag), bucket, "tag {tag}");
        }
        p.fold(&ev(
            0,
            0,
            Family::Node,
            Kind::StallBegin,
            "flush.wbuf-full",
            0,
            0,
        ));
        p.fold(&ev(7, 0, Family::Node, Kind::StallEnd, "flush", 0, 7));
        p.fold(&ev(10, 0, Family::Node, Kind::StallBegin, "fill", 0, 0));
        p.fold(&ev(15, 0, Family::Node, Kind::StallEnd, "fill", 0, 5));
        p.fold(&ev(40, 0, Family::Node, Kind::Done, "done", 0, 0));
        let n = &p.nodes[&0];
        assert_eq!(n.stalls["wbuf-full"], 7, "refined begin tag wins");
        assert_eq!(n.stalls["mem-net"], 5);
        assert_eq!(n.stall_total, 12);
        assert_eq!(n.cycles, 40);
        assert_eq!(n.busy(), 28);
        assert_eq!(n.stall_total, n.cycles - n.busy());
    }

    #[test]
    fn false_sharing_requires_disjoint_writers_and_invalidations() {
        let mut disjoint = LineProfile::default();
        disjoint.writers.insert(0, 0b0011);
        disjoint.writers.insert(1, 0b1100);
        assert!(!disjoint.false_sharing(), "no invalidations yet");
        disjoint.invalidations = 2;
        assert!(disjoint.false_sharing());

        let mut overlapping = LineProfile::default();
        overlapping.writers.insert(0, 0b0011);
        overlapping.writers.insert(1, 0b0110);
        overlapping.invalidations = 2;
        assert!(!overlapping.false_sharing(), "word sets overlap");

        let mut single = LineProfile::default();
        single.writers.insert(0, 0b1111);
        single.invalidations = 5;
        assert!(!single.false_sharing(), "one writer cannot false-share");
    }

    #[test]
    fn lock_profile_tracks_handoffs_fairness_and_depth() {
        let mut p = Profile::new();
        for (t, n, wait) in [(5u64, 0i64, 2u64), (9, 1, 4), (14, 0, 6), (20, 0, 1)] {
            p.fold(&ev(t, n, Family::Cbl, Kind::LockAcquire, "cbl", 7, wait));
        }
        p.fold(&ev(6, -1, Family::Cbl, Kind::Queue, "depth", 7, 3));
        p.fold(&ev(10, -1, Family::Cbl, Kind::Queue, "depth", 7, 1));
        let l = &p.locks[&7];
        assert_eq!(l.kind, "cbl");
        assert_eq!(l.acquires, 4);
        assert_eq!(l.handoffs[&(0, 1)], 1);
        assert_eq!(l.handoffs[&(1, 0)], 1);
        assert_eq!(l.handoffs[&(0, 0)], 1);
        let (fmax, fmean) = l.fairness();
        assert_eq!(fmax, 3);
        assert!((fmean - 2.0).abs() < 1e-9);
        assert_eq!(l.depth_max(), 3);
        assert!((l.depth_mean() - 2.0).abs() < 1e-9);
        assert_eq!(l.latency.count(), 4);
    }

    #[test]
    fn json_schema_and_table_render() {
        let mut p = Profile::new();
        for e in sample_events() {
            p.fold(&e);
        }
        let doc = p.to_json();
        assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        for field in ["nodes", "lines", "locks", "ric"] {
            assert!(doc.get(field).and_then(|v| v.as_array()).is_some());
        }
        let reparsed = Json::parse(&doc.render()).expect("rendered profile parses");
        assert_eq!(reparsed.render(), doc.render());
        let table = p.render_table(5);
        assert!(table.contains("stall attribution"));
        assert!(table.contains("hot lines"));
        assert!(table.contains("hot locks"));
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        assert!(Profile::from_jsonl(Cursor::new("not json\n")).is_err());
        let bad =
            r#"{"cycle":1,"node":0,"family":"zzz","kind":"issue","detail":"x","id":0,"arg":0}"#;
        let err = Profile::from_jsonl(Cursor::new(bad)).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let inject = ev(5, 0, Family::Cbl, Kind::NetInject, "msg.cbl.request", 7, 0).to_jsonl();
        let err = Profile::from_jsonl(Cursor::new(format!("{inject}\n{inject}\n"))).unwrap_err();
        assert_eq!(err, "line 2: wire 7 is injected a second time");
        assert!(Profile::from_jsonl(Cursor::new("\n\n")).unwrap() == Profile::new());
    }

    #[test]
    fn wbuf_residency_pairs_push_and_ack() {
        let mut p = Profile::new();
        p.fold(&ev(10, 2, Family::Node, Kind::Queue, "wbuf.push", 5, 1));
        p.fold(&ev(25, 2, Family::Node, Kind::Queue, "wbuf.ack", 5, 0));
        p.fold(&ev(30, 2, Family::Node, Kind::Queue, "wbuf.ack", 99, 0)); // unmatched
        let n = &p.nodes[&2];
        assert_eq!(n.wbuf_residency.count(), 1);
        assert_eq!(n.wbuf_residency.mean(), Some(15.0));
    }
}
