//! Rendering the diff: the deterministic `ssmp-diff-v1` JSON artifact and
//! the human narrative.

use std::fmt::Write as _;

use ssmp_engine::Json;

use crate::{
    Df, Diff, DiffBody, Du, KeyClass, LockDiff, Mover, ProfileDiff, ReportDiff, SpanDiff,
    SweepDiff, SCHEMA,
};

fn du(d: &Du) -> Json {
    Json::Obj(vec![
        ("a".into(), Json::num(d.a)),
        ("b".into(), Json::num(d.b)),
        ("delta".into(), Json::num(d.delta())),
    ])
}

fn df(d: &Df) -> Json {
    Json::Obj(vec![
        ("a".into(), Json::num(d.a)),
        ("b".into(), Json::num(d.b)),
        ("delta".into(), Json::num(d.delta())),
    ])
}

fn du_rows(rows: &[(String, Du)], key: &str) -> Json {
    Json::Arr(
        rows.iter()
            .map(|(k, d)| {
                let mut o = vec![(key.to_string(), Json::str(k.clone()))];
                if let Json::Obj(fields) = du(d) {
                    o.extend(fields);
                }
                Json::Obj(o)
            })
            .collect(),
    )
}

fn df_rows(rows: &[(String, Df)], key: &str) -> Json {
    Json::Arr(
        rows.iter()
            .map(|(k, d)| {
                let mut o = vec![(key.to_string(), Json::str(k.clone()))];
                if let Json::Obj(fields) = df(d) {
                    o.extend(fields);
                }
                Json::Obj(o)
            })
            .collect(),
    )
}

fn pair_str(a: &str, b: &str) -> Json {
    Json::Obj(vec![("a".into(), Json::str(a)), ("b".into(), Json::str(b))])
}

fn str_arr(xs: &[String]) -> Json {
    Json::Arr(xs.iter().map(|x| Json::str(x.clone())).collect())
}

fn u64_arr(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::num(x)).collect())
}

fn movers_json(movers: &[Mover], cap: usize) -> Json {
    Json::Arr(
        movers
            .iter()
            .take(cap)
            .map(|m| {
                let mut o = vec![("name".to_string(), Json::str(m.name.clone()))];
                if let Json::Obj(fields) = df(&m.d) {
                    o.extend(fields);
                }
                if let Some(s) = m.share {
                    o.push(("share".into(), Json::num(s)));
                }
                Json::Obj(o)
            })
            .collect(),
    )
}

fn dominant_json(d: &Option<((i64, i64), u64, f64)>) -> Json {
    match d {
        None => Json::Null,
        Some(((from, to), count, share)) => Json::Obj(vec![
            ("from".into(), Json::num(*from)),
            ("to".into(), Json::num(*to)),
            ("count".into(), Json::num(*count)),
            ("share".into(), Json::num(*share)),
        ]),
    }
}

fn lock_json(l: &LockDiff) -> Json {
    Json::Obj(vec![
        ("lock".into(), Json::num(l.lock)),
        ("kind".into(), pair_str(&l.kind.0, &l.kind.1)),
        ("acquires".into(), du(&l.acquires)),
        ("latency".into(), df_rows(&l.latency, "stat")),
        (
            "fairness".into(),
            Json::Obj(vec![
                ("max".into(), df(&l.fairness.0)),
                ("mean".into(), df(&l.fairness.1)),
            ]),
        ),
        (
            "queue_depth".into(),
            Json::Obj(vec![
                ("max".into(), df(&l.depth.0)),
                ("mean".into(), df(&l.depth.1)),
            ]),
        ),
        (
            "handoffs".into(),
            Json::Obj(vec![
                ("changed".into(), Json::num(l.handoffs.len() as u64)),
                (
                    "entries".into(),
                    Json::Arr(
                        l.handoffs
                            .iter()
                            .map(|((from, to), d)| {
                                let mut o = vec![
                                    ("from".to_string(), Json::num(*from)),
                                    ("to".to_string(), Json::num(*to)),
                                ];
                                if let Json::Obj(fields) = du(d) {
                                    o.extend(fields);
                                }
                                Json::Obj(o)
                            })
                            .collect(),
                    ),
                ),
                ("dominant_a".into(), dominant_json(&l.dominant.0)),
                ("dominant_b".into(), dominant_json(&l.dominant.1)),
            ]),
        ),
    ])
}

fn profile_json(p: &ProfileDiff) -> Json {
    Json::Obj(vec![
        ("cycles".into(), du(&p.cycles)),
        ("nodes".into(), du(&p.nodes)),
        ("movement".into(), du_rows(&p.movement, "bucket")),
        (
            "lines".into(),
            Json::Obj(vec![
                (
                    "changed".into(),
                    Json::Arr(
                        p.lines
                            .iter()
                            .map(|(block, fields, fs)| {
                                let mut o = vec![("block".to_string(), Json::num(*block))];
                                for (k, d) in fields {
                                    o.push((k.clone(), du(d)));
                                }
                                o.push((
                                    "false_sharing".into(),
                                    Json::Obj(vec![
                                        ("a".into(), Json::Bool(fs.0)),
                                        ("b".into(), Json::Bool(fs.1)),
                                    ]),
                                ));
                                Json::Obj(o)
                            })
                            .collect(),
                    ),
                ),
                ("unchanged".into(), Json::num(p.lines_unchanged)),
                ("false_sharing_appeared".into(), u64_arr(&p.fs_appeared)),
                (
                    "false_sharing_disappeared".into(),
                    u64_arr(&p.fs_disappeared),
                ),
            ]),
        ),
        (
            "locks".into(),
            Json::Arr(
                p.locks
                    .iter()
                    .filter(|l| l.changed())
                    .map(lock_json)
                    .collect(),
            ),
        ),
    ])
}

fn span_json(s: &SpanDiff) -> Json {
    Json::Obj(vec![
        ("overall".into(), df_rows(&s.overall, "stat")),
        (
            "segments".into(),
            Json::Obj(vec![
                ("rows".into(), du_rows(&s.segments, "segment")),
                ("total".into(), du(&s.seg_total)),
            ]),
        ),
        (
            "types".into(),
            Json::Obj(vec![
                (
                    "changed".into(),
                    Json::Arr(
                        s.types
                            .iter()
                            .map(|(ty, stats, segs)| {
                                Json::Obj(vec![
                                    ("type".into(), Json::str(ty.clone())),
                                    ("stats".into(), df_rows(stats, "stat")),
                                    ("segments".into(), du_rows(segs, "segment")),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("unchanged".into(), Json::num(s.types_unchanged)),
                ("only_a".into(), str_arr(&s.only_a)),
                ("only_b".into(), str_arr(&s.only_b)),
            ]),
        ),
        (
            "critical_path".into(),
            Json::Obj(vec![
                ("spans".into(), du(&s.critical.0)),
                ("cycles".into(), du(&s.critical.1)),
            ]),
        ),
    ])
}

fn report_json(r: &ReportDiff) -> Json {
    let changed_scalars: Vec<(String, Df)> = r
        .scalars
        .iter()
        .filter(|(_, d)| d.changed())
        .cloned()
        .collect();
    let changed_counters: Vec<(String, Du)> = r
        .counters
        .iter()
        .filter(|(_, d)| d.changed())
        .cloned()
        .collect();
    let stall_total = Du {
        a: r.stalls.iter().map(|(_, d)| d.a).sum(),
        b: r.stalls.iter().map(|(_, d)| d.b).sum(),
    };
    let mut fields = vec![
        (
            "protocol".to_string(),
            pair_str(&r.protocol.0, &r.protocol.1),
        ),
        ("completion".into(), du(&r.completion)),
        (
            "scalars".into(),
            Json::Obj(vec![
                ("changed".into(), df_rows(&changed_scalars, "key")),
                (
                    "unchanged".into(),
                    Json::num((r.scalars.len() - changed_scalars.len()) as u64),
                ),
                ("only_a".into(), str_arr(&r.scalars_only_a)),
                ("only_b".into(), str_arr(&r.scalars_only_b)),
            ]),
        ),
        (
            "counters".into(),
            Json::Obj(vec![
                ("changed".into(), du_rows(&changed_counters, "key")),
                (
                    "unchanged".into(),
                    Json::num((r.counters.len() - changed_counters.len()) as u64),
                ),
            ]),
        ),
        (
            "stalls".into(),
            Json::Obj(vec![
                ("rows".into(), du_rows(&r.stalls, "cause")),
                ("total".into(), du(&stall_total)),
            ]),
        ),
    ];
    if let Some(p) = &r.profile {
        fields.push(("profile".into(), profile_json(p)));
    }
    if let Some(s) = &r.spans {
        fields.push(("spans".into(), span_json(s)));
    }
    Json::Obj(fields)
}

fn sweep_json(s: &SweepDiff) -> Json {
    let points = s
        .points
        .iter()
        .map(|p| {
            let values = p
                .values
                .iter()
                .map(|v| {
                    let class = match v.class {
                        KeyClass::Exact => "exact",
                        KeyClass::Informational => "informational",
                    };
                    let mut o = vec![
                        ("key".to_string(), Json::str(v.key.clone())),
                        ("class".to_string(), Json::str(class)),
                    ];
                    if let Json::Obj(fields) = df(&v.d) {
                        o.extend(fields);
                    }
                    o.push(("verdict".into(), Json::str(v.verdict.label())));
                    Json::Obj(o)
                })
                .collect();
            let mut o = vec![
                ("label".to_string(), Json::str(p.label.clone())),
                ("values".to_string(), Json::Arr(values)),
            ];
            if let Some(d) = &p.profile {
                o.push(("profile".into(), profile_json(d)));
            }
            if let Some(d) = &p.spans {
                o.push(("spans".into(), span_json(d)));
            }
            Json::Obj(o)
        })
        .collect();
    Json::Obj(vec![
        ("points".into(), Json::Arr(points)),
        ("missing_points".into(), str_arr(&s.missing_points)),
        ("new_points".into(), str_arr(&s.new_points)),
        (
            "missing_keys".into(),
            Json::Arr(
                s.missing_keys
                    .iter()
                    .map(|(l, k)| {
                        Json::Obj(vec![
                            ("label".into(), Json::str(l.clone())),
                            ("key".into(), Json::str(k.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("violations".into(), str_arr(&s.violations)),
    ])
}

impl Diff {
    /// Renders the deterministic `ssmp-diff-v1` document. Byte-identical
    /// for the same pair of inputs (and the same names), however the
    /// artifacts were produced.
    pub fn to_json(&self) -> Json {
        let (cycles, counts) = self.top_movers();
        let body = match &self.body {
            DiffBody::Report(d) => report_json(d),
            DiffBody::Sweep(d) => sweep_json(d),
            DiffBody::Profile(d) => profile_json(d),
            DiffBody::Span(d) => span_json(d),
        };
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("kind".into(), Json::str(self.kind())),
            ("a".into(), Json::str(self.a_name.clone())),
            ("b".into(), Json::str(self.b_name.clone())),
            ("identical".into(), Json::Bool(self.identical())),
            ("changed".into(), Json::num(self.changed_count())),
            (self.kind().to_string(), body),
            (
                "top_movers".into(),
                Json::Obj(vec![
                    ("cycles".into(), movers_json(&cycles, 16)),
                    ("counts".into(), movers_json(&counts, 16)),
                ]),
            ),
        ])
    }

    /// Renders the human narrative, capping ranked lists at `top` entries.
    pub fn render(&self, top: usize) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== ssmp diff ({}): {} vs {} ==",
            self.kind(),
            self.a_name,
            self.b_name
        );
        if self.identical() {
            let _ = writeln!(s, "identical: no deltas (the two artifacts agree exactly)");
            return s;
        }
        match &self.body {
            DiffBody::Report(d) => render_report(&mut s, d, top),
            DiffBody::Sweep(d) => render_sweep(&mut s, d, top),
            DiffBody::Profile(d) => render_profile(&mut s, d, top),
            DiffBody::Span(d) => render_span(&mut s, d, top),
        }
        let (cycles, counts) = self.top_movers();
        render_movers(&mut s, &cycles, &counts, top);
        s
    }
}

fn pct(d: &Du) -> String {
    if d.a == 0 {
        String::new()
    } else {
        format!(", {:+.1}%", d.delta() as f64 / d.a as f64 * 100.0)
    }
}

fn fnum(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

fn render_movers(s: &mut String, cycles: &[Mover], counts: &[Mover], top: usize) {
    if !cycles.is_empty() {
        let _ = writeln!(s, "top movers (cycles):");
        for m in cycles.iter().take(top) {
            let share = m
                .share
                .map(|p| format!("  ({p:.1}% of cycle delta)"))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "  {:<20} {:>12} -> {:>12}  {:>+12}{share}",
                m.name,
                fnum(m.d.a),
                fnum(m.d.b),
                fnum(m.d.delta())
            );
        }
        if cycles.len() > top {
            let _ = writeln!(s, "  … and {} more", cycles.len() - top);
        }
    }
    if !counts.is_empty() {
        let _ = writeln!(s, "top movers (counts):");
        for m in counts.iter().take(top) {
            let _ = writeln!(
                s,
                "  {:<28} {:>12} -> {:>12}  {:>+12}",
                m.name,
                fnum(m.d.a),
                fnum(m.d.b),
                fnum(m.d.delta())
            );
        }
        if counts.len() > top {
            let _ = writeln!(s, "  … and {} more", counts.len() - top);
        }
    }
}

fn render_profile(s: &mut String, d: &ProfileDiff, top: usize) {
    let _ = writeln!(
        s,
        "node cycles (summed): {} -> {}  ({:+}{})",
        d.cycles.a,
        d.cycles.b,
        d.cycles.delta(),
        pct(&d.cycles)
    );
    let _ = writeln!(
        s,
        "stall movement (exact-sum: rows total node cycles on each side):"
    );
    let _ = writeln!(
        s,
        "  {:<12} {:>12} {:>12} {:>10}",
        "bucket", "a", "b", "delta"
    );
    for (k, dd) in &d.movement {
        let _ = writeln!(
            s,
            "  {:<12} {:>12} {:>12} {:>+10}",
            k,
            dd.a,
            dd.b,
            dd.delta()
        );
    }
    if !d.fs_appeared.is_empty() || !d.fs_disappeared.is_empty() {
        let _ = writeln!(
            s,
            "false sharing: appeared on lines {:?}, disappeared on {:?}",
            d.fs_appeared, d.fs_disappeared
        );
    }
    let _ = writeln!(
        s,
        "lines: {} changed, {} unchanged",
        d.lines.len(),
        d.lines_unchanged
    );
    let mut hot: Vec<&crate::LineDiff> = d.lines.iter().collect();
    hot.sort_by_key(|(block, fields, _)| {
        (
            std::cmp::Reverse(
                fields
                    .iter()
                    .map(|(_, dd)| dd.delta().unsigned_abs())
                    .sum::<u64>(),
            ),
            *block,
        )
    });
    for (block, fields, fs) in hot.into_iter().take(top) {
        let moved: Vec<String> = fields
            .iter()
            .filter(|(_, dd)| dd.changed())
            .map(|(k, dd)| format!("{k} {} -> {}", dd.a, dd.b))
            .collect();
        let fs_note = match fs {
            (false, true) => "  [false sharing APPEARED]",
            (true, false) => "  [false sharing disappeared]",
            _ => "",
        };
        let _ = writeln!(s, "  line {block}: {}{fs_note}", moved.join(", "));
    }
    for l in d.locks.iter().filter(|l| l.changed()) {
        let kind = if l.kind.0 == l.kind.1 {
            l.kind.0.clone()
        } else {
            format!("{} -> {}", l.kind.0, l.kind.1)
        };
        let _ = writeln!(
            s,
            "lock {} ({kind}): acquires {} -> {}",
            l.lock, l.acquires.a, l.acquires.b
        );
        let moved: Vec<String> = l
            .latency
            .iter()
            .filter(|(_, dd)| dd.changed())
            .map(|(k, dd)| format!("{k} {} -> {}", fnum(dd.a), fnum(dd.b)))
            .collect();
        if !moved.is_empty() {
            let _ = writeln!(s, "  wait latency: {}", moved.join(", "));
        }
        if l.fairness.0.changed() || l.fairness.1.changed() {
            let _ = writeln!(
                s,
                "  fairness: max {} -> {}, mean {} -> {}",
                fnum(l.fairness.0.a),
                fnum(l.fairness.0.b),
                fnum(l.fairness.1.a),
                fnum(l.fairness.1.b)
            );
        }
        if !l.handoffs.is_empty() {
            let dom = |x: &Option<((i64, i64), u64, f64)>| match x {
                Some(((f, t), c, share)) => format!("{f}->{t} ×{c} ({share:.0}%)"),
                None => "none".into(),
            };
            let _ = writeln!(
                s,
                "  handoff matrix: {} entries moved; dominant a: {}, b: {}",
                l.handoffs.len(),
                dom(&l.dominant.0),
                dom(&l.dominant.1)
            );
        }
    }
}

fn render_span(s: &mut String, d: &SpanDiff, top: usize) {
    let _ = writeln!(s, "latency distribution (percentile by percentile):");
    let _ = writeln!(s, "  {:<8} {:>12} {:>12} {:>12}", "stat", "a", "b", "delta");
    for (k, dd) in &d.overall {
        let _ = writeln!(
            s,
            "  {:<8} {:>12} {:>12} {:>12}",
            k,
            fnum(dd.a),
            fnum(dd.b),
            format!("{:+}", fnum(dd.delta()))
        );
    }
    let _ = writeln!(
        s,
        "segment tiling (exact-sum: rows total span cycles on each side):"
    );
    let _ = writeln!(
        s,
        "  {:<10} {:>12} {:>12} {:>10}",
        "segment", "a", "b", "delta"
    );
    for (k, dd) in &d.segments {
        let _ = writeln!(
            s,
            "  {:<10} {:>12} {:>12} {:>+10}",
            k,
            dd.a,
            dd.b,
            dd.delta()
        );
    }
    let _ = writeln!(
        s,
        "  {:<10} {:>12} {:>12} {:>+10}",
        "total",
        d.seg_total.a,
        d.seg_total.b,
        d.seg_total.delta()
    );
    if !d.only_a.is_empty() || !d.only_b.is_empty() {
        let _ = writeln!(
            s,
            "transaction types only in a: {:?}, only in b: {:?}",
            d.only_a, d.only_b
        );
    }
    let _ = writeln!(
        s,
        "types: {} changed, {} unchanged",
        d.types.len(),
        d.types_unchanged
    );
    for (ty, stats, _) in d.types.iter().take(top) {
        let moved: Vec<String> = stats
            .iter()
            .filter(|(_, dd)| dd.changed())
            .map(|(k, dd)| format!("{k} {} -> {}", fnum(dd.a), fnum(dd.b)))
            .collect();
        let _ = writeln!(s, "  {ty}: {}", moved.join(", "));
    }
    if d.critical.1.changed() {
        let _ = writeln!(
            s,
            "critical path: {} spans / {} cycles -> {} spans / {} cycles",
            d.critical.0.a, d.critical.1.a, d.critical.0.b, d.critical.1.b
        );
    }
}

fn render_report(s: &mut String, d: &ReportDiff, top: usize) {
    if d.protocol.0 != d.protocol.1 {
        let _ = writeln!(s, "protocol: {} -> {}", d.protocol.0, d.protocol.1);
    }
    let _ = writeln!(
        s,
        "completion: {} -> {} cycles  ({:+}{})",
        d.completion.a,
        d.completion.b,
        d.completion.delta(),
        pct(&d.completion)
    );
    let changed_scalars: Vec<&(String, Df)> =
        d.scalars.iter().filter(|(_, dd)| dd.changed()).collect();
    for (k, dd) in changed_scalars.iter().take(top) {
        if k == "completion_cycles" {
            continue;
        }
        let _ = writeln!(s, "{k}: {} -> {}", fnum(dd.a), fnum(dd.b));
    }
    let changed_counters = d.counters.iter().filter(|(_, dd)| dd.changed()).count();
    let _ = writeln!(
        s,
        "counters: {} changed, {} unchanged",
        changed_counters,
        d.counters.len() - changed_counters
    );
    let _ = writeln!(s, "stall movement (report breakdown, cycles):");
    for (k, dd) in d.stalls.iter().filter(|(_, dd)| dd.changed()) {
        let _ = writeln!(
            s,
            "  {:<12} {:>12} -> {:>12}  {:+}",
            k,
            dd.a,
            dd.b,
            dd.delta()
        );
    }
    if let Some(p) = &d.profile {
        let _ = writeln!(s, "-- profile --");
        render_profile(s, p, top);
    }
    if let Some(sp) = &d.spans {
        let _ = writeln!(s, "-- spans --");
        render_span(s, sp, top);
    }
}

fn render_sweep(s: &mut String, d: &SweepDiff, top: usize) {
    s.push_str(&d.render_guard());
    if !d.violations.is_empty() {
        let _ = writeln!(s, "{} violation(s):", d.violations.len());
        for v in &d.violations {
            let _ = writeln!(s, "  {v}");
        }
    }
    for p in &d.points {
        if let Some(pd) = &p.profile {
            if pd.changed_count() > 0 {
                let _ = writeln!(s, "-- profile: {} --", p.label);
                render_profile(s, pd, top);
            }
        }
        if let Some(sd) = &p.spans {
            if sd.changed_count() > 0 {
                let _ = writeln!(s, "-- spans: {} --", p.label);
                render_span(s, sd, top);
            }
        }
    }
}
