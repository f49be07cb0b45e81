//! **Differential observability**: a structured diff over any pair of ssmp
//! artifacts, answering *why* two runs differ instead of just *that* they do.
//!
//! The simulator is deterministic, so any nonzero delta between two
//! artifacts is real — no noise model is needed. This crate aligns:
//!
//! - `ssmp run --json` reports (counters, stall breakdown, embedded
//!   profile/span documents),
//! - `ssmp-sweep-v1` sweeps, point-aligned by scenario label, with the
//!   gate's key classes (exact / speedup-floor / informational) applied
//!   as diff policies,
//! - `ssmp-profile-v1` profiles: stall-attribution *movement* tables that
//!   preserve the exact-sum invariant on both sides (busy + the seven
//!   stall buckets sum to total node cycles, so the row deltas sum exactly
//!   to the total cycle delta), per-line heatmap deltas with false sharing
//!   that appears/disappears, per-lock latency/fairness/handoff shifts,
//! - `ssmp-span-v1` span sets: segment tiling shifts plus
//!   percentile-by-percentile latency distribution comparison,
//!
//! and renders both a deterministic `ssmp-diff-v1` JSON artifact and a
//! human narrative with a ranked "top movers" summary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ssmp_engine::Json;

/// The stable schema identifier stamped into rendered diff artifacts.
pub const SCHEMA: &str = "ssmp-diff-v1";

// ---------------------------------------------------------------------------
// Key classification policy for sweep gating
// ---------------------------------------------------------------------------

/// How one sweep measurement key is judged when diffing against a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyClass {
    /// A deterministic simulation product: must match the baseline exactly;
    /// any drift is a silent behaviour change, not noise.
    Exact,
    /// A relative in-process timing ratio, checked against a lower bound
    /// `baseline × (1 − tolerance)` — only regressions fail.
    SpeedupFloor,
    /// Host-dependent wall-clock: reported in the delta table, never
    /// enforced.
    Informational,
}

/// Classifies a sweep measurement key:
/// `*_secs` / `*_per_sec` are informational, `speedup` has a floor,
/// everything else is exact.
pub fn classify(key: &str) -> KeyClass {
    if key.ends_with("_secs") || key.ends_with("_per_sec") {
        KeyClass::Informational
    } else if key == "speedup" {
        KeyClass::SpeedupFloor
    } else {
        KeyClass::Exact
    }
}

/// Diff gating policy: the tolerance band for [`KeyClass::SpeedupFloor`]
/// keys. The default 0.5 lets a speedup sag to half its recorded value.
#[derive(Debug, Clone, Copy)]
pub struct DiffPolicy {
    /// Fractional sag allowed below a speedup baseline before the key is
    /// judged regressed.
    pub tolerance: f64,
}

impl Default for DiffPolicy {
    fn default() -> Self {
        DiffPolicy { tolerance: 0.5 }
    }
}

// ---------------------------------------------------------------------------
// Small delta types
// ---------------------------------------------------------------------------

/// An aligned pair of exact (integer) measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Du {
    /// Baseline value.
    pub a: u64,
    /// Comparison value.
    pub b: u64,
}

impl Du {
    /// Signed movement `b − a`.
    pub fn delta(&self) -> i64 {
        self.b as i64 - self.a as i64
    }

    /// Whether the pair moved at all.
    pub fn changed(&self) -> bool {
        self.a != self.b
    }
}

/// An aligned pair of floating-point measurements.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Df {
    /// Baseline value.
    pub a: f64,
    /// Comparison value.
    pub b: f64,
}

impl Df {
    /// Signed movement `b − a`.
    pub fn delta(&self) -> f64 {
        self.b - self.a
    }

    /// Whether the pair moved at all (exact comparison — determinism means
    /// equal runs render bit-identical numbers).
    pub fn changed(&self) -> bool {
        self.a != self.b
    }
}

// ---------------------------------------------------------------------------
// JSON access helpers
// ---------------------------------------------------------------------------

fn req<'a>(j: &'a Json, k: &str, ctx: &str) -> Result<&'a Json, String> {
    j.get(k).ok_or_else(|| format!("{ctx}: missing '{k}'"))
}

fn req_u64(j: &Json, k: &str, ctx: &str) -> Result<u64, String> {
    req(j, k, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: '{k}' is not an integer"))
}

fn req_f64(j: &Json, k: &str, ctx: &str) -> Result<f64, String> {
    req(j, k, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: '{k}' is not numeric"))
}

fn req_str<'a>(j: &'a Json, k: &str, ctx: &str) -> Result<&'a str, String> {
    req(j, k, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: '{k}' is not a string"))
}

fn req_arr<'a>(j: &'a Json, k: &str, ctx: &str) -> Result<&'a [Json], String> {
    req(j, k, ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: '{k}' is not an array"))
}

fn obj_fields<'a>(j: &'a Json, ctx: &str) -> Result<&'a [(String, Json)], String> {
    match j {
        Json::Obj(f) => Ok(f),
        _ => Err(format!("{ctx}: expected an object")),
    }
}

/// An object of numeric values folded into an ordered map.
fn u64_map(j: &Json, ctx: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut m = BTreeMap::new();
    for (k, v) in obj_fields(j, ctx)? {
        let n = v
            .as_u64()
            .ok_or_else(|| format!("{ctx}: '{k}' is not an integer"))?;
        m.insert(k.clone(), n);
    }
    Ok(m)
}

/// The numeric fields of an object, in document order, skipping the named
/// keys — the generic "stats object" reader (quantile blocks, value maps).
fn stat_vec(j: &Json, skip: &[&str], ctx: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (k, v) in obj_fields(j, ctx)? {
        if skip.contains(&k.as_str()) {
            continue;
        }
        if let Some(n) = v.as_f64() {
            out.push((k.clone(), n));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Views: schema-aware readers over the four artifact kinds
// ---------------------------------------------------------------------------

/// One node's profile slice: completion cycles and attributed stalls.
#[derive(Debug, Clone, Default)]
pub struct NodeView {
    /// Node completion cycles.
    pub cycles: u64,
    /// Stalled cycles per attribution bucket.
    pub stalls: BTreeMap<String, u64>,
}

impl NodeView {
    /// Busy cycles, derived as `cycles − Σ stalls` so the movement table's
    /// exact-sum invariant holds by construction.
    pub fn busy(&self) -> u64 {
        self.cycles.saturating_sub(self.stalls.values().sum())
    }
}

/// One shared line's heatmap slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineView {
    /// The heatmap counts, in schema order (reads, global_reads, writes,
    /// update_pushes, invalidations).
    pub fields: Vec<(String, u64)>,
    /// Whether the false-sharing detector flagged the line.
    pub false_sharing: bool,
}

impl LineView {
    /// Total traffic against the line (hotness rank key).
    pub fn traffic(&self) -> u64 {
        self.fields.iter().map(|(_, v)| v).sum()
    }
}

/// One lock's contention slice.
#[derive(Debug, Clone, Default)]
pub struct LockView {
    /// Lock mechanism (`"cbl"` or `"tts"`).
    pub kind: String,
    /// Total acquisitions.
    pub acquires: u64,
    /// Acquire-latency stats (count/mean/p50/p95/p99).
    pub latency: Vec<(String, f64)>,
    /// Fairness (max, mean) acquisitions per node.
    pub fairness: (f64, f64),
    /// Waiter-queue depth (max, mean).
    pub depth: (f64, f64),
    /// Holder transitions `(from, to) → count`.
    pub handoffs: BTreeMap<(i64, i64), u64>,
}

impl LockView {
    /// The heaviest handoff edge and its share of all transitions.
    pub fn dominant_handoff(&self) -> Option<((i64, i64), u64, f64)> {
        let total: u64 = self.handoffs.values().sum();
        let (&pair, &count) = self
            .handoffs
            .iter()
            .max_by(|x, y| x.1.cmp(y.1).then(y.0.cmp(x.0)))?;
        Some((pair, count, count as f64 / total as f64 * 100.0))
    }
}

/// A parsed `ssmp-profile-v1` document.
#[derive(Debug, Clone, Default)]
pub struct ProfileView {
    /// Per-node slices, keyed by node id.
    pub nodes: BTreeMap<i64, NodeView>,
    /// Per-line slices, keyed by shared block id.
    pub lines: BTreeMap<u64, LineView>,
    /// Per-lock slices, keyed by lock id.
    pub locks: BTreeMap<u64, LockView>,
}

impl ProfileView {
    /// Parses the stable `ssmp-profile-v1` JSON document.
    pub fn from_json(doc: &Json) -> Result<ProfileView, String> {
        let mut v = ProfileView::default();
        for n in req_arr(doc, "nodes", "profile")? {
            let id = req_f64(n, "node", "profile node")? as i64;
            v.nodes.insert(
                id,
                NodeView {
                    cycles: req_u64(n, "cycles", "profile node")?,
                    stalls: u64_map(req(n, "stalls", "profile node")?, "profile stalls")?,
                },
            );
        }
        for l in req_arr(doc, "lines", "profile")? {
            let block = req_u64(l, "block", "profile line")?;
            let mut fields = Vec::new();
            for k in [
                "reads",
                "global_reads",
                "writes",
                "update_pushes",
                "invalidations",
            ] {
                fields.push((k.to_string(), req_u64(l, k, "profile line")?));
            }
            let fs = matches!(l.get("false_sharing"), Some(Json::Bool(true)));
            v.lines.insert(
                block,
                LineView {
                    fields,
                    false_sharing: fs,
                },
            );
        }
        for l in req_arr(doc, "locks", "profile")? {
            let id = req_u64(l, "lock", "profile lock")?;
            let fair = req(l, "fairness", "profile lock")?;
            let depth = req(l, "queue_depth", "profile lock")?;
            let mut handoffs = BTreeMap::new();
            for h in req_arr(l, "handoffs", "profile lock")? {
                let from = req_f64(h, "from", "handoff")? as i64;
                let to = req_f64(h, "to", "handoff")? as i64;
                handoffs.insert((from, to), req_u64(h, "count", "handoff")?);
            }
            v.locks.insert(
                id,
                LockView {
                    kind: req_str(l, "kind", "profile lock")?.to_string(),
                    acquires: req_u64(l, "acquires", "profile lock")?,
                    latency: stat_vec(req(l, "latency", "profile lock")?, &["buckets"], "latency")?,
                    fairness: (
                        req_f64(fair, "max", "fairness")?,
                        req_f64(fair, "mean", "fairness")?,
                    ),
                    depth: (
                        req_f64(depth, "max", "queue_depth")?,
                        req_f64(depth, "mean", "queue_depth")?,
                    ),
                    handoffs,
                },
            );
        }
        Ok(v)
    }

    /// The stall movement table for one side: `busy` plus the seven stall
    /// buckets, aggregated over nodes. Exact-sum: the rows total the
    /// machine's summed node cycles.
    pub fn movement(&self) -> (Vec<(String, u64)>, u64) {
        let mut busy = 0u64;
        let mut cycles = 0u64;
        let mut buckets: BTreeMap<String, u64> = BTreeMap::new();
        for n in self.nodes.values() {
            busy += n.busy();
            cycles += n.cycles;
            for (k, &v) in &n.stalls {
                *buckets.entry(k.clone()).or_insert(0) += v;
            }
        }
        let mut rows = vec![("busy".to_string(), busy)];
        for &b in ssmp_profile::STALL_BUCKETS.iter() {
            rows.push((b.to_string(), buckets.remove(b).unwrap_or(0)));
        }
        // unknown buckets (future schema growth) still count, keeping the sum exact
        for (k, v) in buckets {
            rows.push((k, v));
        }
        (rows, cycles)
    }
}

/// One transaction type's latency/segment slice from a span document.
#[derive(Debug, Clone, Default)]
pub struct TypeView {
    /// Latency stats (count/mean/p50/p95/p99/p999/max), document order.
    pub stats: Vec<(String, f64)>,
    /// Segment cycle totals for this type.
    pub segments: BTreeMap<String, u64>,
}

/// A parsed `ssmp-span-v1` document.
#[derive(Debug, Clone, Default)]
pub struct SpanView {
    /// Overall latency stats (count/mean/p50/p95/p99/p999/max).
    pub overall: Vec<(String, f64)>,
    /// Per-transaction-type slices.
    pub types: BTreeMap<String, TypeView>,
    /// Segment cycle totals across every span.
    pub segments: BTreeMap<String, u64>,
    /// Critical path (spans, cycles).
    pub critical: (u64, u64),
}

impl SpanView {
    /// Parses the stable `ssmp-span-v1` JSON document.
    pub fn from_json(doc: &Json) -> Result<SpanView, String> {
        let mut v = SpanView {
            overall: stat_vec(req(doc, "overall", "spans")?, &[], "overall")?,
            ..SpanView::default()
        };
        for t in req_arr(doc, "txns", "spans")? {
            let ty = req_str(t, "type", "span txn")?.to_string();
            v.types.insert(
                ty,
                TypeView {
                    stats: stat_vec(t, &["type", "segments"], "span txn")?,
                    segments: u64_map(req(t, "segments", "span txn")?, "txn segments")?,
                },
            );
        }
        v.segments = u64_map(req(doc, "segments", "spans")?, "segments")?;
        let cp = req(doc, "critical_path", "spans")?;
        v.critical = (
            req_u64(cp, "spans", "critical_path")?,
            req_u64(cp, "cycles", "critical_path")?,
        );
        Ok(v)
    }
}

/// A parsed `ssmp run --json` report document.
#[derive(Debug, Clone, Default)]
pub struct ReportView {
    /// The coherence protocol the run used.
    pub protocol: String,
    /// Completion cycles.
    pub completion: u64,
    /// Top-level numeric fields (completion, net_*, lock_wait_*, ...),
    /// document order.
    pub scalars: Vec<(String, f64)>,
    /// Named event counters.
    pub counters: BTreeMap<String, u64>,
    /// Stalled cycles by cause.
    pub stalls: BTreeMap<String, u64>,
    /// Embedded profile, when the run was profiled.
    pub profile: Option<ProfileView>,
    /// Embedded span set, when the run traced spans.
    pub spans: Option<SpanView>,
}

impl ReportView {
    /// Parses an `ssmp run --json` report document.
    pub fn from_json(doc: &Json) -> Result<ReportView, String> {
        let mut v = ReportView {
            completion: req_u64(doc, "completion_cycles", "report")?,
            ..ReportView::default()
        };
        for (k, val) in obj_fields(doc, "report")? {
            match k.as_str() {
                "protocol" => v.protocol = val.as_str().unwrap_or("?").to_string(),
                "counters" => v.counters = u64_map(val, "counters")?,
                "stall_breakdown" => v.stalls = u64_map(val, "stall_breakdown")?,
                "profile" => v.profile = Some(ProfileView::from_json(val)?),
                "spans" => v.spans = Some(SpanView::from_json(val)?),
                // structured sub-documents with no scalar alignment
                "metrics" | "faults" | "retries_per_node" | "deadlocked" => {}
                _ => {
                    if let Some(n) = val.as_f64() {
                        v.scalars.push((k.clone(), n));
                    }
                }
            }
        }
        Ok(v)
    }
}

/// One sweep point's measurements and embedded documents.
#[derive(Debug, Clone, Default)]
pub struct PointView {
    /// Scenario label (the alignment key).
    pub label: String,
    /// Measurement values, artifact order.
    pub values: Vec<(String, f64)>,
    /// Embedded profile, when the sweep was profiled.
    pub profile: Option<ProfileView>,
    /// Embedded span set.
    pub spans: Option<SpanView>,
}

/// A parsed `ssmp-sweep-v1` artifact.
#[derive(Debug, Clone, Default)]
pub struct SweepView {
    /// Artifact name.
    pub name: String,
    /// Points in artifact order.
    pub points: Vec<PointView>,
}

impl SweepView {
    /// Parses the stable `ssmp-sweep-v1` artifact. Rejects failed points:
    /// a sweep with deadlocked/panicked points has nothing comparable.
    pub fn from_json(doc: &Json) -> Result<SweepView, String> {
        let mut v = SweepView {
            name: doc
                .get("artifact")
                .and_then(|a| a.as_str())
                .unwrap_or("sweep")
                .to_string(),
            ..SweepView::default()
        };
        for p in req_arr(doc, "points", "sweep")? {
            let label = req_str(p, "label", "sweep point")?.to_string();
            if p.get("status").and_then(|s| s.as_str()) != Some("ok") {
                return Err(format!("point '{label}' did not complete"));
            }
            let values = req(p, "values", "sweep point")?;
            let mut vs = Vec::new();
            for (k, val) in obj_fields(values, "point values")? {
                let n = val
                    .as_f64()
                    .ok_or_else(|| format!("'{label}.{k}' is not numeric"))?;
                vs.push((k.clone(), n));
            }
            v.points.push(PointView {
                label,
                values: vs,
                profile: p.get("profile").map(ProfileView::from_json).transpose()?,
                spans: p.get("spans").map(SpanView::from_json).transpose()?,
            });
        }
        Ok(v)
    }

    /// Looks a point up by label.
    pub fn point(&self, label: &str) -> Option<&PointView> {
        self.points.iter().find(|p| p.label == label)
    }
}

/// Any artifact the diff engine can ingest, detected by its `schema` field
/// (reports carry none and are recognized by `completion_cycles`).
#[derive(Debug, Clone)]
pub enum Artifact {
    /// An `ssmp run --json` report.
    Report(ReportView),
    /// An `ssmp-sweep-v1` sweep.
    Sweep(SweepView),
    /// An `ssmp-profile-v1` profile.
    Profile(ProfileView),
    /// An `ssmp-span-v1` span set.
    Span(SpanView),
}

impl Artifact {
    /// Parses artifact text, detecting the kind from its schema.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        match doc.get("schema").and_then(|s| s.as_str()) {
            Some("ssmp-sweep-v1") => Ok(Artifact::Sweep(SweepView::from_json(&doc)?)),
            Some("ssmp-profile-v1") => Ok(Artifact::Profile(ProfileView::from_json(&doc)?)),
            Some("ssmp-span-v1") => Ok(Artifact::Span(SpanView::from_json(&doc)?)),
            Some(other) => Err(format!("unsupported artifact schema '{other}'")),
            None if doc.get("completion_cycles").is_some() => {
                Ok(Artifact::Report(ReportView::from_json(&doc)?))
            }
            None => Err(
                "unrecognized artifact: no 'schema' field and no 'completion_cycles' \
                 (expected an ssmp-sweep-v1 / ssmp-profile-v1 / ssmp-span-v1 artifact \
                 or an `ssmp run --json` report)"
                    .into(),
            ),
        }
    }

    /// The artifact kind, as stamped into the diff document.
    pub fn kind(&self) -> &'static str {
        match self {
            Artifact::Report(_) => "report",
            Artifact::Sweep(_) => "sweep",
            Artifact::Profile(_) => "profile",
            Artifact::Span(_) => "span",
        }
    }
}

// ---------------------------------------------------------------------------
// Diff structures
// ---------------------------------------------------------------------------

/// A ranked "top mover": one named quantity and how far it moved.
#[derive(Debug, Clone)]
pub struct Mover {
    /// What moved (a stall bucket, counter, segment, line, or point.key).
    pub name: String,
    /// Baseline and comparison values.
    pub d: Df,
    /// This mover's share of the total cycle delta, in percent, when the
    /// quantity is cycle-denominated and the total moved.
    pub share: Option<f64>,
}

fn rank_movers(movers: &mut Vec<Mover>) {
    movers.retain(|m| m.d.changed());
    movers.sort_by(|x, y| {
        y.d.delta()
            .abs()
            .partial_cmp(&x.d.delta().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.name.cmp(&y.name))
    });
}

fn share_of(delta: i64, denom: i64) -> Option<f64> {
    (denom != 0).then(|| delta.abs() as f64 / denom.abs() as f64 * 100.0)
}

/// One changed line's heatmap diff: block id, per-field deltas, and the
/// false-sharing verdict on each side.
pub type LineDiff = (u64, Vec<(String, Du)>, (bool, bool));

/// The dominant handoff edge of one side: `(from, to)` pair, count, and
/// percent share of all handoffs.
pub type DominantHandoff = Option<((i64, i64), u64, f64)>;

/// Diff of two profiles: stall movement, line heatmaps, lock contention.
#[derive(Debug, Clone, Default)]
pub struct ProfileDiff {
    /// Stall movement rows (`busy` + stall buckets), summed over nodes.
    /// Exact-sum on both sides: `Σ rows.a == cycles.a` and likewise for b,
    /// so `Σ row deltas == cycles.delta()`.
    pub movement: Vec<(String, Du)>,
    /// Total node cycles on each side.
    pub cycles: Du,
    /// Node counts on each side.
    pub nodes: Du,
    /// Lines whose heatmap moved, with per-field deltas and the
    /// false-sharing verdict on each side.
    pub lines: Vec<LineDiff>,
    /// Lines identical on both sides.
    pub lines_unchanged: u64,
    /// Lines flagged for false sharing only in b (appeared between backends).
    pub fs_appeared: Vec<u64>,
    /// Lines flagged only in a (disappeared).
    pub fs_disappeared: Vec<u64>,
    /// Per-lock shifts, keyed by lock id.
    pub locks: Vec<LockDiff>,
}

/// One lock's contention shift.
#[derive(Debug, Clone, Default)]
pub struct LockDiff {
    /// Lock id.
    pub lock: u64,
    /// Lock mechanism on each side.
    pub kind: (String, String),
    /// Acquisition counts.
    pub acquires: Du,
    /// Latency stats aligned by name (count/mean/p50/p95/p99).
    pub latency: Vec<(String, Df)>,
    /// Fairness max/mean.
    pub fairness: (Df, Df),
    /// Queue-depth max/mean.
    pub depth: (Df, Df),
    /// Handoff-matrix entries that moved (absent side counts 0).
    pub handoffs: Vec<((i64, i64), Du)>,
    /// The dominant handoff edge on each side.
    pub dominant: (DominantHandoff, DominantHandoff),
}

impl LockDiff {
    /// Whether anything about the lock moved.
    pub fn changed(&self) -> bool {
        self.kind.0 != self.kind.1
            || self.acquires.changed()
            || self.latency.iter().any(|(_, d)| d.changed())
            || self.fairness.0.changed()
            || self.fairness.1.changed()
            || self.depth.0.changed()
            || self.depth.1.changed()
            || !self.handoffs.is_empty()
    }
}

fn diff_stats(a: &[(String, f64)], b: &[(String, f64)]) -> Vec<(String, Df)> {
    let bmap: BTreeMap<&str, f64> = b.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut out: Vec<(String, Df)> = a
        .iter()
        .map(|(k, va)| {
            let vb = bmap.get(k.as_str()).copied().unwrap_or(0.0);
            (k.clone(), Df { a: *va, b: vb })
        })
        .collect();
    let amap: BTreeMap<&str, f64> = a.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (k, vb) in b {
        if !amap.contains_key(k.as_str()) {
            out.push((k.clone(), Df { a: 0.0, b: *vb }));
        }
    }
    out
}

fn diff_u64_maps(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Vec<(String, Du)> {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            (
                k.clone(),
                Du {
                    a: a.get(k).copied().unwrap_or(0),
                    b: b.get(k).copied().unwrap_or(0),
                },
            )
        })
        .collect()
}

impl ProfileDiff {
    /// Diffs two parsed profiles.
    pub fn between(a: &ProfileView, b: &ProfileView) -> ProfileDiff {
        let (rows_a, cyc_a) = a.movement();
        let (rows_b, cyc_b) = b.movement();
        let map_a: BTreeMap<String, u64> = rows_a.iter().cloned().collect();
        let map_b: BTreeMap<String, u64> = rows_b.iter().cloned().collect();
        let mut movement = Vec::new();
        let mut seen = Vec::new();
        for (k, va) in &rows_a {
            movement.push((
                k.clone(),
                Du {
                    a: *va,
                    b: map_b.get(k).copied().unwrap_or(0),
                },
            ));
            seen.push(k.clone());
        }
        for (k, vb) in &rows_b {
            if !seen.contains(k) {
                movement.push((
                    k.clone(),
                    Du {
                        a: map_a.get(k).copied().unwrap_or(0),
                        b: *vb,
                    },
                ));
            }
        }

        let mut lines = Vec::new();
        let mut lines_unchanged = 0u64;
        let mut fs_appeared = Vec::new();
        let mut fs_disappeared = Vec::new();
        let empty_line = LineView::default();
        let mut blocks: Vec<u64> = a.lines.keys().chain(b.lines.keys()).copied().collect();
        blocks.sort_unstable();
        blocks.dedup();
        for block in blocks {
            let la = a.lines.get(&block).unwrap_or(&empty_line);
            let lb = b.lines.get(&block).unwrap_or(&empty_line);
            if la == lb {
                lines_unchanged += 1;
                continue;
            }
            if lb.false_sharing && !la.false_sharing {
                fs_appeared.push(block);
            }
            if la.false_sharing && !lb.false_sharing {
                fs_disappeared.push(block);
            }
            let bmap: BTreeMap<&str, u64> =
                lb.fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            let fields = la
                .fields
                .iter()
                .map(|(k, va)| {
                    (
                        k.clone(),
                        Du {
                            a: *va,
                            b: bmap.get(k.as_str()).copied().unwrap_or(0),
                        },
                    )
                })
                .collect();
            lines.push((block, fields, (la.false_sharing, lb.false_sharing)));
        }

        let mut locks = Vec::new();
        let empty_lock = LockView::default();
        let mut ids: Vec<u64> = a.locks.keys().chain(b.locks.keys()).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let la = a.locks.get(&id).unwrap_or(&empty_lock);
            let lb = b.locks.get(&id).unwrap_or(&empty_lock);
            let mut pairs: Vec<(i64, i64)> = la
                .handoffs
                .keys()
                .chain(lb.handoffs.keys())
                .copied()
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let handoffs: Vec<((i64, i64), Du)> = pairs
                .into_iter()
                .map(|p| {
                    (
                        p,
                        Du {
                            a: la.handoffs.get(&p).copied().unwrap_or(0),
                            b: lb.handoffs.get(&p).copied().unwrap_or(0),
                        },
                    )
                })
                .filter(|(_, d)| d.changed())
                .collect();
            locks.push(LockDiff {
                lock: id,
                kind: (la.kind.clone(), lb.kind.clone()),
                acquires: Du {
                    a: la.acquires,
                    b: lb.acquires,
                },
                latency: diff_stats(&la.latency, &lb.latency),
                fairness: (
                    Df {
                        a: la.fairness.0,
                        b: lb.fairness.0,
                    },
                    Df {
                        a: la.fairness.1,
                        b: lb.fairness.1,
                    },
                ),
                depth: (
                    Df {
                        a: la.depth.0,
                        b: lb.depth.0,
                    },
                    Df {
                        a: la.depth.1,
                        b: lb.depth.1,
                    },
                ),
                handoffs,
                dominant: (la.dominant_handoff(), lb.dominant_handoff()),
            });
        }

        ProfileDiff {
            movement,
            cycles: Du { a: cyc_a, b: cyc_b },
            nodes: Du {
                a: a.nodes.len() as u64,
                b: b.nodes.len() as u64,
            },
            lines,
            lines_unchanged,
            fs_appeared,
            fs_disappeared,
            locks,
        }
    }

    /// Count of moved quantities (identicality check).
    pub fn changed_count(&self) -> u64 {
        self.movement.iter().filter(|(_, d)| d.changed()).count() as u64
            + self.lines.len() as u64
            + self.locks.iter().filter(|l| l.changed()).count() as u64
    }
}

/// One transaction type's shift: name, latency-stat deltas, segment deltas.
pub type TypeDiff = (String, Vec<(String, Df)>, Vec<(String, Du)>);

/// Diff of two span sets: tiling shifts and distribution comparison.
#[derive(Debug, Clone, Default)]
pub struct SpanDiff {
    /// Overall latency stats, percentile by percentile.
    pub overall: Vec<(String, Df)>,
    /// Segment tiling rows.
    pub segments: Vec<(String, Du)>,
    /// Total segment cycles each side.
    pub seg_total: Du,
    /// Per-type shifts for types present on both sides and changed.
    pub types: Vec<TypeDiff>,
    /// Types unchanged on both sides.
    pub types_unchanged: u64,
    /// Transaction types only in a.
    pub only_a: Vec<String>,
    /// Transaction types only in b.
    pub only_b: Vec<String>,
    /// Critical path (spans, cycles) shift.
    pub critical: (Du, Du),
}

impl SpanDiff {
    /// Diffs two parsed span sets.
    pub fn between(a: &SpanView, b: &SpanView) -> SpanDiff {
        let segments = diff_u64_maps(&a.segments, &b.segments);
        let seg_total = Du {
            a: a.segments.values().sum(),
            b: b.segments.values().sum(),
        };
        let mut types = Vec::new();
        let mut types_unchanged = 0u64;
        let mut only_a = Vec::new();
        let mut only_b: Vec<String> = b
            .types
            .keys()
            .filter(|t| !a.types.contains_key(*t))
            .cloned()
            .collect();
        only_b.sort();
        for (ty, ta) in &a.types {
            match b.types.get(ty) {
                None => only_a.push(ty.clone()),
                Some(tb) => {
                    let stats = diff_stats(&ta.stats, &tb.stats);
                    let segs = diff_u64_maps(&ta.segments, &tb.segments);
                    if stats.iter().any(|(_, d)| d.changed())
                        || segs.iter().any(|(_, d)| d.changed())
                    {
                        types.push((ty.clone(), stats, segs));
                    } else {
                        types_unchanged += 1;
                    }
                }
            }
        }
        SpanDiff {
            overall: diff_stats(&a.overall, &b.overall),
            segments,
            seg_total,
            types,
            types_unchanged,
            only_a,
            only_b,
            critical: (
                Du {
                    a: a.critical.0,
                    b: b.critical.0,
                },
                Du {
                    a: a.critical.1,
                    b: b.critical.1,
                },
            ),
        }
    }

    /// Count of moved quantities (identicality check).
    pub fn changed_count(&self) -> u64 {
        self.overall.iter().filter(|(_, d)| d.changed()).count() as u64
            + self.segments.iter().filter(|(_, d)| d.changed()).count() as u64
            + self.types.len() as u64
            + (self.only_a.len() + self.only_b.len()) as u64
            + u64::from(self.critical.0.changed())
            + u64::from(self.critical.1.changed())
    }
}

/// Diff of two run reports.
#[derive(Debug, Clone, Default)]
pub struct ReportDiff {
    /// Protocol on each side.
    pub protocol: (String, String),
    /// Completion cycles.
    pub completion: Du,
    /// Top-level scalar fields present on both sides, aligned.
    pub scalars: Vec<(String, Df)>,
    /// Scalar keys present only on one side.
    pub scalars_only_a: Vec<String>,
    /// Scalar keys present only in b.
    pub scalars_only_b: Vec<String>,
    /// Counter deltas over the key union (absent side counts 0).
    pub counters: Vec<(String, Du)>,
    /// Stall-breakdown movement rows over the cause union.
    pub stalls: Vec<(String, Du)>,
    /// Embedded profile diff, when both sides were profiled.
    pub profile: Option<ProfileDiff>,
    /// Embedded span diff, when both sides traced spans.
    pub spans: Option<SpanDiff>,
}

impl ReportDiff {
    /// Diffs two parsed reports.
    pub fn between(a: &ReportView, b: &ReportView) -> ReportDiff {
        let bmap: BTreeMap<&str, f64> = b.scalars.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let amap: BTreeMap<&str, f64> = a.scalars.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let scalars = a
            .scalars
            .iter()
            .filter(|(k, _)| bmap.contains_key(k.as_str()))
            .map(|(k, va)| {
                (
                    k.clone(),
                    Df {
                        a: *va,
                        b: bmap[k.as_str()],
                    },
                )
            })
            .collect();
        ReportDiff {
            protocol: (a.protocol.clone(), b.protocol.clone()),
            completion: Du {
                a: a.completion,
                b: b.completion,
            },
            scalars,
            scalars_only_a: a
                .scalars
                .iter()
                .filter(|(k, _)| !bmap.contains_key(k.as_str()))
                .map(|(k, _)| k.clone())
                .collect(),
            scalars_only_b: b
                .scalars
                .iter()
                .filter(|(k, _)| !amap.contains_key(k.as_str()))
                .map(|(k, _)| k.clone())
                .collect(),
            counters: diff_u64_maps(&a.counters, &b.counters),
            stalls: diff_u64_maps(&a.stalls, &b.stalls),
            profile: match (&a.profile, &b.profile) {
                (Some(pa), Some(pb)) => Some(ProfileDiff::between(pa, pb)),
                _ => None,
            },
            spans: match (&a.spans, &b.spans) {
                (Some(sa), Some(sb)) => Some(SpanDiff::between(sa, sb)),
                _ => None,
            },
        }
    }

    /// Count of moved quantities (identicality check).
    pub fn changed_count(&self) -> u64 {
        u64::from(self.protocol.0 != self.protocol.1)
            + self.scalars.iter().filter(|(_, d)| d.changed()).count() as u64
            + (self.scalars_only_a.len() + self.scalars_only_b.len()) as u64
            + self.counters.iter().filter(|(_, d)| d.changed()).count() as u64
            + self.stalls.iter().filter(|(_, d)| d.changed()).count() as u64
            + self.profile.as_ref().map_or(0, |p| p.changed_count())
            + self.spans.as_ref().map_or(0, |s| s.changed_count())
    }

    /// Ranked movers: (cycle-denominated, count-denominated).
    pub fn top_movers(&self) -> (Vec<Mover>, Vec<Mover>) {
        let mut cycles = Vec::new();
        if let Some(p) = &self.profile {
            let denom = p.cycles.delta();
            for (name, d) in &p.movement {
                let label = if name == "busy" {
                    "busy".to_string()
                } else {
                    format!("stall.{name}")
                };
                cycles.push(Mover {
                    name: label,
                    d: Df {
                        a: d.a as f64,
                        b: d.b as f64,
                    },
                    share: share_of(d.delta(), denom),
                });
            }
        } else {
            for (name, d) in &self.stalls {
                cycles.push(Mover {
                    name: format!("stall.{name}"),
                    d: Df {
                        a: d.a as f64,
                        b: d.b as f64,
                    },
                    share: None,
                });
            }
        }
        if let Some(s) = &self.spans {
            for (name, d) in &s.segments {
                cycles.push(Mover {
                    name: format!("span.{name}"),
                    d: Df {
                        a: d.a as f64,
                        b: d.b as f64,
                    },
                    share: None,
                });
            }
        }
        let mut counts: Vec<Mover> = self
            .counters
            .iter()
            .map(|(name, d)| Mover {
                name: name.clone(),
                d: Df {
                    a: d.a as f64,
                    b: d.b as f64,
                },
                share: None,
            })
            .collect();
        rank_movers(&mut cycles);
        rank_movers(&mut counts);
        (cycles, counts)
    }
}

/// Verdict for one sweep value under the diff policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within policy.
    Ok,
    /// An exact key drifted — simulation behaviour changed.
    Drift,
    /// A speedup-floor key fell below its floor.
    Regressed,
    /// Informational key: never enforced.
    Info,
}

impl Verdict {
    /// The verdict label of the gate's delta table.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Drift => "DRIFT",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "info",
        }
    }
}

/// One aligned sweep measurement with its class and verdict.
#[derive(Debug, Clone)]
pub struct ValueDelta {
    /// Measurement key.
    pub key: String,
    /// The policy class the key fell into.
    pub class: KeyClass,
    /// Aligned values.
    pub d: Df,
    /// The policy verdict.
    pub verdict: Verdict,
}

/// One aligned sweep point.
#[derive(Debug, Clone, Default)]
pub struct PointDiff {
    /// Scenario label.
    pub label: String,
    /// Aligned values in baseline key order.
    pub values: Vec<ValueDelta>,
    /// Embedded profile diff, when both points carry profiles.
    pub profile: Option<ProfileDiff>,
    /// Embedded span diff.
    pub spans: Option<SpanDiff>,
}

/// Diff of two sweeps, point-aligned by scenario label.
#[derive(Debug, Clone, Default)]
pub struct SweepDiff {
    /// Aligned points in baseline order.
    pub points: Vec<PointDiff>,
    /// Labels present in the baseline but missing from b (violations).
    pub missing_points: Vec<String>,
    /// Labels only in b (new points — reported, never enforced).
    pub new_points: Vec<String>,
    /// `(label, key)` pairs in a baseline point but missing from b.
    pub missing_keys: Vec<(String, String)>,
    /// Policy violations, in detection order.
    pub violations: Vec<String>,
}

impl SweepDiff {
    /// Diffs two parsed sweeps under a policy. `b_name` labels the
    /// comparison side in violation messages.
    pub fn between(a: &SweepView, b: &SweepView, b_name: &str, policy: &DiffPolicy) -> SweepDiff {
        let mut out = SweepDiff::default();
        let tolerance = policy.tolerance;
        for pa in &a.points {
            let label = &pa.label;
            let Some(pb) = b.point(label) else {
                out.missing_points.push(label.clone());
                out.violations
                    .push(format!("point '{label}' missing from {b_name}"));
                continue;
            };
            let mut values = Vec::new();
            for (key, &va) in pa.values.iter().map(|(k, v)| (k, v)) {
                let Some(&(_, vb)) = pb.values.iter().find(|(k, _)| k == key) else {
                    out.missing_keys.push((label.clone(), key.clone()));
                    out.violations
                        .push(format!("'{label}.{key}' missing from {b_name}"));
                    continue;
                };
                let class = classify(key);
                let verdict = match class {
                    KeyClass::Exact => {
                        if va == vb {
                            Verdict::Ok
                        } else {
                            out.violations.push(format!(
                                "'{label}.{key}' drifted: baseline {va} != current {vb} \
                                 (deterministic key — simulation behaviour changed)"
                            ));
                            Verdict::Drift
                        }
                    }
                    KeyClass::SpeedupFloor => {
                        if vb >= va * (1.0 - tolerance) {
                            Verdict::Ok
                        } else {
                            out.violations.push(format!(
                                "'{label}.{key}' regressed: current {vb:.3} < floor {:.3} \
                                 (baseline {va:.3} × (1 − {tolerance}))",
                                va * (1.0 - tolerance)
                            ));
                            Verdict::Regressed
                        }
                    }
                    KeyClass::Informational => Verdict::Info,
                };
                values.push(ValueDelta {
                    key: key.clone(),
                    class,
                    d: Df { a: va, b: vb },
                    verdict,
                });
            }
            out.points.push(PointDiff {
                label: label.clone(),
                values,
                profile: match (&pa.profile, &pb.profile) {
                    (Some(x), Some(y)) => Some(ProfileDiff::between(x, y)),
                    _ => None,
                },
                spans: match (&pa.spans, &pb.spans) {
                    (Some(x), Some(y)) => Some(SpanDiff::between(x, y)),
                    _ => None,
                },
            });
        }
        for pb in &b.points {
            if a.point(&pb.label).is_none() {
                out.new_points.push(pb.label.clone());
            }
        }
        out
    }

    /// Count of moved quantities (identicality check).
    pub fn changed_count(&self) -> u64 {
        self.points
            .iter()
            .map(|p| {
                p.values.iter().filter(|v| v.d.changed()).count() as u64
                    + p.profile.as_ref().map_or(0, |d| d.changed_count())
                    + p.spans.as_ref().map_or(0, |d| d.changed_count())
            })
            .sum::<u64>()
            + (self.missing_points.len() + self.new_points.len() + self.missing_keys.len()) as u64
    }

    /// The gate's delta table: one row per aligned value, with the
    /// historical column layout and verdict labels.
    pub fn render_guard(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<24} {:<20} {:>14} {:>14} {:>9}  verdict",
            "point", "key", "baseline", "current", "delta"
        );
        for p in &self.points {
            for v in &p.values {
                let (a, b) = (v.d.a, v.d.b);
                let delta = if a == 0.0 { 0.0 } else { (b - a) / a * 100.0 };
                let _ = writeln!(
                    s,
                    "{:<24} {:<20} {a:>14.3} {b:>14.3} {delta:>+8.1}%  {}",
                    p.label,
                    v.key,
                    v.verdict.label()
                );
            }
        }
        for label in &self.new_points {
            let _ = writeln!(s, "{label:<24} (not in baseline — new point, ignored)");
        }
        s
    }

    /// Ranked movers: sweep values are count-denominated.
    pub fn top_movers(&self) -> (Vec<Mover>, Vec<Mover>) {
        let mut counts = Vec::new();
        for p in &self.points {
            for v in &p.values {
                counts.push(Mover {
                    name: format!("{}.{}", p.label, v.key),
                    d: v.d,
                    share: None,
                });
            }
        }
        rank_movers(&mut counts);
        (Vec::new(), counts)
    }
}

// ---------------------------------------------------------------------------
// The top-level diff
// ---------------------------------------------------------------------------

/// The body of a diff: one variant per artifact kind.
#[derive(Debug, Clone)]
pub enum DiffBody {
    /// Two run reports.
    Report(Box<ReportDiff>),
    /// Two sweeps.
    Sweep(SweepDiff),
    /// Two profiles.
    Profile(ProfileDiff),
    /// Two span sets.
    Span(SpanDiff),
}

/// A computed diff between two artifacts of the same kind.
#[derive(Debug, Clone)]
pub struct Diff {
    /// Label for the baseline side (usually its path).
    pub a_name: String,
    /// Label for the comparison side.
    pub b_name: String,
    /// The speedup tolerance the diff was computed under.
    pub tolerance: f64,
    /// The kind-specific body.
    pub body: DiffBody,
}

impl Diff {
    /// Diffs two artifacts; errors when the kinds differ.
    pub fn between(
        a: &Artifact,
        b: &Artifact,
        a_name: &str,
        b_name: &str,
        policy: &DiffPolicy,
    ) -> Result<Diff, String> {
        let body = match (a, b) {
            (Artifact::Report(x), Artifact::Report(y)) => {
                DiffBody::Report(Box::new(ReportDiff::between(x, y)))
            }
            (Artifact::Sweep(x), Artifact::Sweep(y)) => {
                DiffBody::Sweep(SweepDiff::between(x, y, b_name, policy))
            }
            (Artifact::Profile(x), Artifact::Profile(y)) => {
                DiffBody::Profile(ProfileDiff::between(x, y))
            }
            (Artifact::Span(x), Artifact::Span(y)) => DiffBody::Span(SpanDiff::between(x, y)),
            _ => {
                return Err(format!(
                    "cannot diff a {} artifact against a {} artifact",
                    a.kind(),
                    b.kind()
                ))
            }
        };
        Ok(Diff {
            a_name: a_name.to_string(),
            b_name: b_name.to_string(),
            tolerance: policy.tolerance,
            body,
        })
    }

    /// The artifact kind stamped into the document.
    pub fn kind(&self) -> &'static str {
        match &self.body {
            DiffBody::Report(_) => "report",
            DiffBody::Sweep(_) => "sweep",
            DiffBody::Profile(_) => "profile",
            DiffBody::Span(_) => "span",
        }
    }

    /// Total count of moved quantities.
    pub fn changed_count(&self) -> u64 {
        match &self.body {
            DiffBody::Report(d) => d.changed_count(),
            DiffBody::Sweep(d) => d.changed_count(),
            DiffBody::Profile(d) => d.changed_count(),
            DiffBody::Span(d) => d.changed_count(),
        }
    }

    /// Whether the two artifacts are observationally identical.
    pub fn identical(&self) -> bool {
        self.changed_count() == 0
    }

    /// Policy violations for gating. Sweeps gate on the key classes;
    /// the other kinds gate on strict identity (their quantities are all
    /// deterministic simulation products).
    pub fn violations(&self) -> Vec<String> {
        match &self.body {
            DiffBody::Sweep(d) => d.violations.clone(),
            _ => {
                let n = self.changed_count();
                if n == 0 {
                    Vec::new()
                } else {
                    vec![format!(
                        "{} quantities moved between {} and {} (deterministic artifacts \
                         must be identical under --gate)",
                        n, self.a_name, self.b_name
                    )]
                }
            }
        }
    }

    /// Ranked movers: (cycle-denominated, count-denominated).
    pub fn top_movers(&self) -> (Vec<Mover>, Vec<Mover>) {
        match &self.body {
            DiffBody::Report(d) => d.top_movers(),
            DiffBody::Sweep(d) => d.top_movers(),
            DiffBody::Profile(d) => {
                let denom = d.cycles.delta();
                let mut cycles: Vec<Mover> = d
                    .movement
                    .iter()
                    .map(|(name, du)| Mover {
                        name: if name == "busy" {
                            "busy".to_string()
                        } else {
                            format!("stall.{name}")
                        },
                        d: Df {
                            a: du.a as f64,
                            b: du.b as f64,
                        },
                        share: share_of(du.delta(), denom),
                    })
                    .collect();
                let mut counts: Vec<Mover> = d
                    .lines
                    .iter()
                    .map(|(block, fields, _)| Mover {
                        name: format!("line {block}"),
                        d: Df {
                            a: fields.iter().map(|(_, d)| d.a).sum::<u64>() as f64,
                            b: fields.iter().map(|(_, d)| d.b).sum::<u64>() as f64,
                        },
                        share: None,
                    })
                    .chain(d.locks.iter().map(|l| Mover {
                        name: format!("lock {} acquires", l.lock),
                        d: Df {
                            a: l.acquires.a as f64,
                            b: l.acquires.b as f64,
                        },
                        share: None,
                    }))
                    .collect();
                rank_movers(&mut cycles);
                rank_movers(&mut counts);
                (cycles, counts)
            }
            DiffBody::Span(d) => {
                let denom = d.seg_total.delta();
                let mut cycles: Vec<Mover> = d
                    .segments
                    .iter()
                    .map(|(name, du)| Mover {
                        name: format!("span.{name}"),
                        d: Df {
                            a: du.a as f64,
                            b: du.b as f64,
                        },
                        share: share_of(du.delta(), denom),
                    })
                    .collect();
                rank_movers(&mut cycles);
                (cycles, Vec::new())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Serde-stable comparison entry points for the in-memory types
// ---------------------------------------------------------------------------

/// In-memory comparison entry point: `a.compare(&b)` funnels both sides
/// through their stable JSON schema, so the diff of two in-memory objects
/// is guaranteed identical to the diff of their rendered artifacts.
pub trait Compare {
    /// The diff type this comparison produces.
    type Output;
    /// Diffs `self` (baseline) against `other`.
    fn compare(&self, other: &Self) -> Self::Output;
}

impl Compare for ssmp_profile::Profile {
    type Output = ProfileDiff;
    fn compare(&self, other: &Self) -> ProfileDiff {
        let a = ProfileView::from_json(&self.to_json()).expect("Profile::to_json is schema-stable");
        let b =
            ProfileView::from_json(&other.to_json()).expect("Profile::to_json is schema-stable");
        ProfileDiff::between(&a, &b)
    }
}

impl Compare for ssmp_span::SpanSet {
    type Output = SpanDiff;
    fn compare(&self, other: &Self) -> SpanDiff {
        let a = SpanView::from_json(&self.to_json()).expect("SpanSet::to_json is schema-stable");
        let b = SpanView::from_json(&other.to_json()).expect("SpanSet::to_json is schema-stable");
        SpanDiff::between(&a, &b)
    }
}

impl Compare for ssmp_machine::Report {
    type Output = ReportDiff;
    fn compare(&self, other: &Self) -> ReportDiff {
        let a = ReportView::from_json(&self.to_json()).expect("Report::to_json is schema-stable");
        let b = ReportView::from_json(&other.to_json()).expect("Report::to_json is schema-stable");
        ReportDiff::between(&a, &b)
    }
}

mod render;

#[cfg(test)]
mod tests;
