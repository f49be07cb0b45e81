use super::*;

// -------------------------------------------------------------------------
// Fixtures: minimal but schema-complete artifact documents
// -------------------------------------------------------------------------

fn profile_doc(n0_cycles: u64, n0_lock: u64, line0_writes: u64, fs: bool) -> String {
    format!(
        r#"{{
  "schema": "ssmp-profile-v1",
  "nodes": [
    {{"node": 0, "cycles": {n0_cycles},
      "stalls": {{"wbuf-full": 100, "flush-drain": 0, "lock": {n0_lock},
                  "semaphore": 0, "barrier": 0, "mem-net": 50, "other": 0}}}},
    {{"node": 1, "cycles": 900,
      "stalls": {{"wbuf-full": 20, "flush-drain": 10, "lock": 40,
                  "semaphore": 0, "barrier": 5, "mem-net": 25, "other": 0}}}}
  ],
  "lines": [
    {{"block": 16, "reads": 40, "global_reads": 12, "writes": {line0_writes},
      "update_pushes": 3, "invalidations": 2, "writers": 2, "false_sharing": {fs}}},
    {{"block": 17, "reads": 8, "global_reads": 1, "writes": 4,
      "update_pushes": 0, "invalidations": 1, "writers": 1, "false_sharing": false}}
  ],
  "locks": [
    {{"lock": 32, "kind": "cbl", "acquires": 10,
      "per_node": {{"0": 6, "1": 4}},
      "fairness": {{"max": 6.0, "mean": 5.0}},
      "latency": {{"count": 10, "mean": 12.5, "p50": 10, "p95": 30, "p99": 30, "buckets": []}},
      "queue_depth": {{"max": 3, "mean": 1.2, "timeline": []}},
      "handoffs": [{{"from": 0, "to": 1, "count": 4}}, {{"from": 1, "to": 0, "count": 3}}]}}
  ],
  "ric": {{}}
}}"#
    )
}

fn span_doc(p95: u64, net: u64) -> String {
    format!(
        r#"{{
  "schema": "ssmp-span-v1",
  "overall": {{"count": 10, "mean": 5.5, "p50": 4, "p95": {p95}, "p99": 9, "p999": 9, "max": 9}},
  "txns": [
    {{"type": "lock-crit", "count": 10, "mean": 5.5, "p50": 4, "p95": {p95},
      "p99": 9, "p999": 9, "max": 9,
      "segments": {{"issue": 10, "net": {net}, "mem": 5}}}}
  ],
  "segments": {{"issue": 10, "net": {net}, "mem": 5}},
  "critical_path": {{"spans": 3, "cycles": 42, "segments": {{}}, "families": {{}}, "top": []}}
}}"#
    )
}

fn sweep_doc(completion: u64, speedup: f64, extra_point: bool) -> String {
    let extra = if extra_point {
        r#", {"label": "p2", "params": {}, "seed": 1, "status": "ok",
             "values": {"completion": 7}}"#
    } else {
        ""
    };
    format!(
        r#"{{
  "schema": "ssmp-sweep-v1", "artifact": "unit", "seed": 1, "failed": 0,
  "points": [
    {{"label": "p1", "params": {{}}, "seed": 1, "status": "ok",
      "values": {{"completion": {completion}, "speedup": {speedup}, "build_secs": 0.5}}}}{extra}
  ],
  "tables": {{}}
}}"#
    )
}

fn report_doc(completion: u64, reads: u64) -> String {
    format!(
        r#"{{
  "protocol": "wbi", "completion_cycles": {completion}, "net_packets": 10,
  "messages": 20, "lock_wait_mean": 3.5,
  "stall_breakdown": {{"lock": 5, "mem-net": 2}},
  "counters": {{"reads": {reads}, "writes": 50}}
}}"#
    )
}

fn diff_of(a: &str, b: &str) -> Diff {
    let aa = Artifact::parse(a).unwrap();
    let bb = Artifact::parse(b).unwrap();
    Diff::between(&aa, &bb, "a.json", "b.json").unwrap()
}

// -------------------------------------------------------------------------
// Key classification (the sweep gate's rule)
// -------------------------------------------------------------------------

#[test]
fn classify_matches_gate_rule() {
    assert_eq!(classify("build_secs"), KeyClass::Informational);
    assert_eq!(classify("events_per_sec"), KeyClass::Informational);
    assert_eq!(classify("speedup"), KeyClass::Exact);
    assert_eq!(classify("completion"), KeyClass::Exact);
    assert_eq!(classify("net_words"), KeyClass::Exact);
}

// -------------------------------------------------------------------------
// Identity: `ssmp diff a a` reports zero deltas
// -------------------------------------------------------------------------

#[test]
fn identical_artifacts_have_zero_deltas() {
    for doc in [
        profile_doc(1000, 150, 9, false),
        span_doc(9, 20),
        sweep_doc(100, 2.0, false),
        report_doc(500, 100),
    ] {
        let d = diff_of(&doc, &doc);
        assert!(
            d.identical(),
            "{} diff of a vs a must be identical",
            d.kind()
        );
        assert_eq!(d.changed_count(), 0);
        assert!(d.violations().is_empty());
        assert!(d.render(10).contains("identical: no deltas"));
        let j = d.to_json();
        assert_eq!(j.get("identical"), Some(&Json::Bool(true)));
    }
}

// -------------------------------------------------------------------------
// Exact-sum invariant: movement rows total node cycles on each side
// -------------------------------------------------------------------------

#[test]
fn movement_rows_sum_exactly_to_cycles_on_both_sides() {
    let a =
        ProfileView::from_json(&Json::parse(&profile_doc(1000, 150, 9, false)).unwrap()).unwrap();
    let b =
        ProfileView::from_json(&Json::parse(&profile_doc(1400, 450, 9, false)).unwrap()).unwrap();
    let d = ProfileDiff::between(&a, &b);
    let sum_a: u64 = d.movement.iter().map(|(_, du)| du.a).sum();
    let sum_b: u64 = d.movement.iter().map(|(_, du)| du.b).sum();
    assert_eq!(sum_a, d.cycles.a, "side a rows must total node cycles");
    assert_eq!(sum_b, d.cycles.b, "side b rows must total node cycles");
    let delta_sum: i64 = d.movement.iter().map(|(_, du)| du.delta()).sum();
    assert_eq!(
        delta_sum,
        d.cycles.delta(),
        "row deltas must sum exactly to the total cycle delta"
    );
}

#[test]
fn movement_orders_busy_then_stall_buckets() {
    let a =
        ProfileView::from_json(&Json::parse(&profile_doc(1000, 150, 9, false)).unwrap()).unwrap();
    let (rows, _) = a.movement();
    assert_eq!(rows[0].0, "busy");
    for (i, b) in ssmp_profile::STALL_BUCKETS.iter().enumerate() {
        assert_eq!(rows[i + 1].0, *b);
    }
}

// -------------------------------------------------------------------------
// False sharing appearing / disappearing between the two sides
// -------------------------------------------------------------------------

#[test]
fn false_sharing_appearance_is_flagged() {
    let a =
        ProfileView::from_json(&Json::parse(&profile_doc(1000, 150, 9, false)).unwrap()).unwrap();
    let b =
        ProfileView::from_json(&Json::parse(&profile_doc(1000, 150, 9, true)).unwrap()).unwrap();
    let d = ProfileDiff::between(&a, &b);
    assert_eq!(d.fs_appeared, vec![16]);
    assert!(d.fs_disappeared.is_empty());
    let back = ProfileDiff::between(&b, &a);
    assert_eq!(back.fs_disappeared, vec![16]);
    assert!(back.fs_appeared.is_empty());
}

// -------------------------------------------------------------------------
// Lock shifts
// -------------------------------------------------------------------------

#[test]
fn lock_dominant_handoff_and_latency_shift() {
    let a =
        ProfileView::from_json(&Json::parse(&profile_doc(1000, 150, 9, false)).unwrap()).unwrap();
    let lock = &a.locks[&32];
    let (pair, count, share) = lock.dominant_handoff().unwrap();
    assert_eq!(pair, (0, 1));
    assert_eq!(count, 4);
    assert!((share - 4.0 / 7.0 * 100.0).abs() < 1e-9);
    assert_eq!(
        lock.latency.iter().find(|(k, _)| k == "p95").unwrap().1,
        30.0
    );
}

// -------------------------------------------------------------------------
// Sweep gating verdicts
// -------------------------------------------------------------------------

#[test]
fn sweep_exact_drift_is_a_violation() {
    let d = diff_of(&sweep_doc(100, 2.0, false), &sweep_doc(101, 2.0, false));
    let v = d.violations();
    assert_eq!(v.len(), 1);
    assert!(
        v[0].contains("'p1.completion' drifted: baseline 100 != current 101"),
        "got: {}",
        v[0]
    );
    assert!(v[0].contains("simulation behaviour changed"));
}

#[test]
fn sweep_informational_keys_never_gate() {
    let a = sweep_doc(100, 2.0, false).replace("0.5", "0.1");
    let d = diff_of(&sweep_doc(100, 2.0, false), &a);
    assert!(d.violations().is_empty());
    assert!(
        !d.identical(),
        "the informational delta still counts as changed"
    );
}

#[test]
fn sweep_missing_point_and_new_point() {
    let d = diff_of(&sweep_doc(100, 2.0, true), &sweep_doc(100, 2.0, false));
    assert_eq!(
        d.violations(),
        vec!["point 'p2' missing from b.json".to_string()]
    );
    let d2 = diff_of(&sweep_doc(100, 2.0, false), &sweep_doc(100, 2.0, true));
    assert!(
        d2.violations().is_empty(),
        "new points are reported, not enforced"
    );
    let DiffBody::Sweep(body) = &d2.body else {
        panic!("expected sweep body")
    };
    assert_eq!(body.new_points, vec!["p2".to_string()]);
    assert!(body
        .render_guard()
        .contains("(not in baseline — new point, ignored)"));
}

#[test]
fn sweep_missing_key_is_a_violation() {
    let b = sweep_doc(100, 2.0, false).replace(r#""speedup": 2, "#, "");
    let d = diff_of(&sweep_doc(100, 2.0, false), &b);
    let v = d.violations();
    assert_eq!(v, vec!["'p1.speedup' missing from b.json".to_string()]);
}

#[test]
fn sweep_rejects_failed_points() {
    let doc = sweep_doc(100, 2.0, false).replace(r#""status": "ok""#, r#""status": "deadlock""#);
    let err = SweepView::from_json(&Json::parse(&doc).unwrap()).unwrap_err();
    assert!(err.contains("did not complete"), "got: {err}");
}

// -------------------------------------------------------------------------
// Non-sweep kinds gate on strict identity
// -------------------------------------------------------------------------

#[test]
fn deterministic_kinds_gate_on_identity() {
    let d = diff_of(
        &profile_doc(1000, 150, 9, false),
        &profile_doc(1000, 150, 12, false),
    );
    let v = d.violations();
    assert_eq!(v.len(), 1);
    assert!(v[0].contains("deterministic artifacts must be identical under --gate"));
}

// -------------------------------------------------------------------------
// Span diffs: percentile-by-percentile plus segment tiling
// -------------------------------------------------------------------------

#[test]
fn span_diff_aligns_percentiles_and_segments() {
    let a = SpanView::from_json(&Json::parse(&span_doc(8, 20)).unwrap()).unwrap();
    let b = SpanView::from_json(&Json::parse(&span_doc(11, 35)).unwrap()).unwrap();
    let d = SpanDiff::between(&a, &b);
    let p95 = d.overall.iter().find(|(k, _)| k == "p95").unwrap();
    assert_eq!((p95.1.a, p95.1.b), (8.0, 11.0));
    let net = d.segments.iter().find(|(k, _)| k == "net").unwrap();
    assert_eq!(net.1.delta(), 15);
    assert_eq!(d.seg_total.delta(), 15);
    assert_eq!(d.types.len(), 1, "the lock-crit type moved");
}

#[test]
fn span_type_appearing_only_on_one_side() {
    let a = SpanView::from_json(&Json::parse(&span_doc(8, 20)).unwrap()).unwrap();
    let extra = span_doc(8, 20).replace(
        r#""txns": ["#,
        r#""txns": [
    {"type": "barrier", "count": 2, "mean": 9, "p50": 9, "p95": 9,
     "p99": 9, "p999": 9, "max": 9, "segments": {"issue": 4}},"#,
    );
    let b = SpanView::from_json(&Json::parse(&extra).unwrap()).unwrap();
    let d = SpanDiff::between(&a, &b);
    assert_eq!(d.only_b, vec!["barrier".to_string()]);
    assert!(d.only_a.is_empty());
}

// -------------------------------------------------------------------------
// Report diffs
// -------------------------------------------------------------------------

#[test]
fn report_diff_counters_and_stalls() {
    let d = diff_of(&report_doc(500, 100), &report_doc(650, 160));
    let DiffBody::Report(body) = &d.body else {
        panic!("expected report body")
    };
    assert_eq!(body.completion.delta(), 150);
    let reads = body.counters.iter().find(|(k, _)| k == "reads").unwrap();
    assert_eq!(reads.1.delta(), 60);
    let (_, counts) = d.top_movers();
    assert_eq!(counts[0].name, "reads", "largest count mover ranks first");
}

#[test]
fn report_scalar_union_tracks_one_sided_keys() {
    let b = report_doc(500, 100).replace(
        r#""net_packets": 10,"#,
        r#""net_packets": 10, "net_queueing": 3,"#,
    );
    let d = diff_of(&report_doc(500, 100), &b);
    let DiffBody::Report(body) = &d.body else {
        panic!("expected report body")
    };
    assert_eq!(body.scalars_only_b, vec!["net_queueing".to_string()]);
    assert!(!d.identical());
}

// -------------------------------------------------------------------------
// Artifact detection and kind mismatches
// -------------------------------------------------------------------------

#[test]
fn artifact_parse_detects_every_kind() {
    assert_eq!(
        Artifact::parse(&profile_doc(1000, 150, 9, false))
            .unwrap()
            .kind(),
        "profile"
    );
    assert_eq!(Artifact::parse(&span_doc(9, 20)).unwrap().kind(), "span");
    assert_eq!(
        Artifact::parse(&sweep_doc(100, 2.0, false)).unwrap().kind(),
        "sweep"
    );
    assert_eq!(
        Artifact::parse(&report_doc(500, 100)).unwrap().kind(),
        "report"
    );
}

#[test]
fn artifact_parse_rejects_unknown_schema() {
    let err = Artifact::parse(r#"{"schema": "ssmp-repro-v1"}"#).unwrap_err();
    assert!(err.contains("unsupported artifact schema 'ssmp-repro-v1'"));
    let err = Artifact::parse(r#"{"hello": 1}"#).unwrap_err();
    assert!(err.contains("unrecognized artifact"));
}

#[test]
fn kind_mismatch_is_an_error() {
    let a = Artifact::parse(&profile_doc(1000, 150, 9, false)).unwrap();
    let b = Artifact::parse(&span_doc(9, 20)).unwrap();
    let err = Diff::between(&a, &b, "a", "b").unwrap_err();
    assert_eq!(
        err,
        "cannot diff a profile artifact against a span artifact"
    );
}

// -------------------------------------------------------------------------
// Determinism of the rendered artifact
// -------------------------------------------------------------------------

#[test]
fn diff_artifact_is_byte_deterministic() {
    let mk = || {
        diff_of(
            &profile_doc(1000, 150, 9, false),
            &profile_doc(1400, 450, 12, true),
        )
    };
    let one = mk().to_json().render();
    let two = mk().to_json().render();
    assert_eq!(
        one, two,
        "same inputs must render byte-identical diff artifacts"
    );
    assert_eq!(mk().render(5), mk().render(5));
    let doc = Json::parse(&one).expect("diff artifact must be valid JSON");
    assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
    assert_eq!(doc.get("kind").and_then(|s| s.as_str()), Some("profile"));
}

// -------------------------------------------------------------------------
// Internal helpers
// -------------------------------------------------------------------------

#[test]
fn diff_stats_unions_keys_in_order() {
    let a = vec![("mean".to_string(), 1.0), ("p50".to_string(), 2.0)];
    let b = vec![("mean".to_string(), 1.5), ("p99".to_string(), 7.0)];
    let d = diff_stats(&a, &b);
    let keys: Vec<&str> = d.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, vec!["mean", "p50", "p99"]);
    assert_eq!(
        d[1].1,
        Df { a: 2.0, b: 0.0 },
        "keys missing from b read as 0"
    );
    assert_eq!(
        d[2].1,
        Df { a: 0.0, b: 7.0 },
        "keys missing from a read as 0"
    );
}

#[test]
fn diff_u64_maps_unions_sorted() {
    let mut a = BTreeMap::new();
    a.insert("x".to_string(), 1u64);
    let mut b = BTreeMap::new();
    b.insert("y".to_string(), 2u64);
    let d = diff_u64_maps(&a, &b);
    assert_eq!(d.len(), 2);
    assert_eq!(d[0], ("x".to_string(), Du { a: 1, b: 0 }));
    assert_eq!(d[1], ("y".to_string(), Du { a: 0, b: 2 }));
}

#[test]
fn mover_ranking_is_by_magnitude_then_name() {
    let mut movers = vec![
        Mover {
            name: "b".into(),
            d: Df { a: 0.0, b: 5.0 },
            share: None,
        },
        Mover {
            name: "a".into(),
            d: Df { a: 0.0, b: -5.0 },
            share: None,
        },
        Mover {
            name: "c".into(),
            d: Df { a: 0.0, b: 0.0 },
            share: None,
        },
        Mover {
            name: "d".into(),
            d: Df { a: 0.0, b: 9.0 },
            share: None,
        },
    ];
    rank_movers(&mut movers);
    let names: Vec<&str> = movers.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["d", "a", "b"],
        "unchanged movers drop; ties break by name"
    );
}
