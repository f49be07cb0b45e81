//! `ssmp fuzz` — seeded chaos fuzzing with shrinking reproducers.
//!
//! The harness sweeps seeded random fault plans (message duplication and
//! delay — the classes the protocols are guaranteed to mask) across
//! workload × config scenarios with the protocol sanitizer armed. Any
//! sanitizer violation, watchdog deadlock, or panic is a finding; the
//! first finding is then *shrunk* to a minimal deterministic reproducer:
//!
//! 1. the probabilistic plan is re-run and its per-message decision log
//!    extracted ([`ssmp_net::FaultPlan::log`]), turning randomness into
//!    an explicit fault list that replays exactly;
//! 2. ddmin over that list removes every fault entry not needed to
//!    re-trigger the same failure signature;
//! 3. node count and task count are halved while the signature persists.
//!
//! The result is written as a `ssmp-repro-v1` JSON file replayable with
//! `ssmp run --repro <file>`.

use std::sync::{Arc, Mutex};

use ssmp_engine::Json;
use ssmp_machine::{Machine, PlantedBug, RetryPolicy};
use ssmp_net::{FaultConfig, FaultOp, ForcedFault, MsgKind};
use ssmp_workload::Grain;

use crate::args::Flags;
use crate::commands::{
    adapt_geometry, check_workload, parse_config, parse_grain, sweep_workload, WorkloadShape,
};

/// The fault layer of a scenario: a seeded probabilistic plan while
/// searching; the explicit decision list once shrinking converts it.
#[derive(Debug, Clone)]
enum FaultSpec {
    Random {
        seed: u64,
        dup: f64,
        delay: f64,
        delay_cycles: u64,
    },
    Replay(Vec<ForcedFault>),
}

/// One self-contained fuzz case: everything needed to rebuild and re-run
/// the exact same simulation.
#[derive(Debug, Clone)]
struct Scenario {
    workload: String,
    config: String,
    nodes: usize,
    grain: Grain,
    tasks: usize,
    seed: u64,
    retry: bool,
    max_cycles: u64,
    fault: FaultSpec,
    planted: Option<PlantedBug>,
}

/// What one armed run produced.
struct Outcome {
    /// `None` on a clean run; otherwise the failure signature — the first
    /// violated invariant, `"deadlock"`, or `"panic"`.
    signature: Option<String>,
    /// Human-readable details of the failure.
    detail: String,
    /// The fault plan's decision log (`None` when the run panicked before
    /// a report could be assembled).
    fault_log: Option<Vec<ForcedFault>>,
}

fn build_config(sc: &Scenario) -> Result<ssmp_machine::MachineConfig, String> {
    let mut cfg = parse_config(&sc.config, sc.nodes)?;
    cfg.seed = sc.seed;
    cfg.max_cycles = sc.max_cycles;
    if sc.retry {
        cfg.retry = RetryPolicy::enabled();
    }
    cfg.fault = Some(match &sc.fault {
        FaultSpec::Random {
            seed,
            dup,
            delay,
            delay_cycles,
        } => {
            let mut fc = FaultConfig::uniform(*seed, 0.0, *dup, *delay);
            fc.delay_cycles = *delay_cycles;
            fc
        }
        FaultSpec::Replay(entries) => FaultConfig::replay(entries.clone()),
    });
    cfg.planted_bug = sc.planted;
    adapt_geometry(&mut cfg, &sc.workload, sc.nodes);
    Ok(cfg)
}

/// Runs a scenario with the sanitizer armed, converting every failure
/// mode — violation, deadlock, panic — into an [`Outcome`]. Violations
/// folded before a panic survive via the shared checker handle.
fn run_armed(sc: &Scenario) -> Result<Outcome, String> {
    let cfg = build_config(sc)?;
    let (wl, locks) = sweep_workload(
        &sc.workload,
        sc.nodes,
        sc.grain,
        sc.tasks,
        WorkloadShape::default(),
        sc.seed,
    );
    let m = Machine::builder(cfg)
        .workload(wl)
        .locks(locks)
        .check(true)
        .build()
        .map_err(|e| e.to_string())?;
    let checker = m.checker().expect("fuzz machines are always armed");
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || m.run()));
    Ok(match res {
        Ok(r) => {
            if let Some(v) = r.violations.first() {
                Outcome {
                    signature: Some(v.invariant.to_string()),
                    detail: v.render(),
                    fault_log: Some(r.fault_log),
                }
            } else if let Some(d) = &r.deadlock {
                Outcome {
                    signature: Some("deadlock".into()),
                    detail: d.render(),
                    fault_log: Some(r.fault_log),
                }
            } else {
                Outcome {
                    signature: None,
                    detail: String::new(),
                    fault_log: Some(r.fault_log),
                }
            }
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            // A violation folded before the panic is the more precise
            // (and more shrink-stable) signature.
            let vs = checker.borrow();
            match vs.violations().first() {
                Some(v) => Outcome {
                    signature: Some(v.invariant.to_string()),
                    detail: v.render(),
                    fault_log: None,
                },
                None => Outcome {
                    signature: Some("panic".into()),
                    detail: msg,
                    fault_log: None,
                },
            }
        }
    })
}

/// Whether a candidate scenario still fails with the same signature.
fn fails_same(sc: &Scenario, sig: &str) -> bool {
    matches!(run_armed(sc), Ok(o) if o.signature.as_deref() == Some(sig))
}

/// Extracts the fault plan's decision log for a scenario. When the run
/// panics before a report exists, re-runs without the planted bug: the
/// plan's decisions are a pure function of the message sequence, which is
/// identical up to the trigger point.
fn extract_log(sc: &Scenario) -> Option<Vec<ForcedFault>> {
    if let Ok(o) = run_armed(sc) {
        if let Some(log) = o.fault_log {
            return Some(log);
        }
    }
    let clean = Scenario {
        planted: None,
        ..sc.clone()
    };
    run_armed(&clean).ok().and_then(|o| o.fault_log)
}

/// Classic ddmin over the forced-fault list: repeatedly try removing
/// complement chunks while the failure signature is preserved.
fn ddmin(
    sc: &Scenario,
    entries: Vec<ForcedFault>,
    sig: &str,
    runs: &mut usize,
) -> Vec<ForcedFault> {
    let mut cur = entries;
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut i = 0;
        while i * chunk < cur.len() {
            let lo = i * chunk;
            let hi = (lo + chunk).min(cur.len());
            let cand: Vec<ForcedFault> = cur
                .iter()
                .enumerate()
                .filter(|(j, _)| *j < lo || *j >= hi)
                .map(|(_, e)| *e)
                .collect();
            let c = Scenario {
                fault: FaultSpec::Replay(cand.clone()),
                ..sc.clone()
            };
            *runs += 1;
            if fails_same(&c, sig) {
                cur = cand;
                n = 2.max(n - 1);
                reduced = true;
                break;
            }
            i += 1;
        }
        if !reduced {
            if n >= cur.len() {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

/// Shrinks a failing scenario to a minimal deterministic reproducer:
/// nodes and tasks are halved while the signature persists, then the
/// probabilistic fault plan is converted to its explicit decision log and
/// ddmin removes every entry not needed to re-trigger the failure.
fn shrink(sc: &Scenario, sig: &str) -> (Scenario, usize) {
    let mut cur = sc.clone();
    let mut runs = 0usize;

    // 1. structural reduction: fewer nodes, fewer tasks
    loop {
        let mut reduced = false;
        if cur.nodes > 2 {
            let c = Scenario {
                nodes: cur.nodes / 2,
                tasks: (cur.tasks / 2).max(1),
                ..cur.clone()
            };
            runs += 1;
            if fails_same(&c, sig) {
                cur = c;
                reduced = true;
            }
        }
        if cur.tasks > 1 {
            let c = Scenario {
                tasks: cur.tasks / 2,
                ..cur.clone()
            };
            runs += 1;
            if fails_same(&c, sig) {
                cur = c;
                reduced = true;
            }
        }
        if !reduced {
            break;
        }
    }

    // 2. freeze the randomness: convert the probabilistic plan into its
    //    own decision log and verify the replay still fails identically
    if matches!(cur.fault, FaultSpec::Random { .. }) {
        if let Some(log) = extract_log(&cur) {
            runs += 1;
            let c = Scenario {
                fault: FaultSpec::Replay(log.clone()),
                ..cur.clone()
            };
            runs += 1;
            if fails_same(&c, sig) {
                cur = c;
            }
        }
    }

    // 3. ddmin the fault list down to the entries that matter
    if let FaultSpec::Replay(entries) = &cur.fault {
        let min = ddmin(&cur, entries.clone(), sig, &mut runs);
        cur.fault = FaultSpec::Replay(min);
    }

    (cur, runs)
}

// ----------------------------------------------------------------------
// Reproducer files (`ssmp-repro-v1`)
// ----------------------------------------------------------------------

fn kind_name(k: MsgKind) -> &'static str {
    match k {
        MsgKind::Cbl => "cbl",
        MsgKind::Ric => "ric",
        MsgKind::WbiData => "wbi-data",
        MsgKind::WbiLock => "wbi-lock",
        MsgKind::WbiFlag => "wbi-flag",
        MsgKind::Barrier => "barrier",
        MsgKind::Semaphore => "semaphore",
        MsgKind::Private => "private",
    }
}

fn parse_kind(s: &str) -> Result<MsgKind, String> {
    Ok(match s {
        "cbl" => MsgKind::Cbl,
        "ric" => MsgKind::Ric,
        "wbi-data" => MsgKind::WbiData,
        "wbi-lock" => MsgKind::WbiLock,
        "wbi-flag" => MsgKind::WbiFlag,
        "barrier" => MsgKind::Barrier,
        "semaphore" => MsgKind::Semaphore,
        "private" => MsgKind::Private,
        other => return Err(format!("repro: unknown message kind '{other}'")),
    })
}

fn grain_name(g: Grain) -> &'static str {
    match g {
        Grain::Fine => "fine",
        Grain::Medium => "medium",
        Grain::Coarse => "coarse",
    }
}

fn to_json(sc: &Scenario, signature: &str) -> Json {
    let faults = match &sc.fault {
        FaultSpec::Random {
            seed,
            dup,
            delay,
            delay_cycles,
        } => Json::Obj(vec![
            ("mode".into(), Json::Str("random".into())),
            ("seed".into(), Json::num(seed)),
            ("dup_prob".into(), Json::num(dup)),
            ("delay_prob".into(), Json::num(delay)),
            ("delay_cycles".into(), Json::num(delay_cycles)),
        ]),
        FaultSpec::Replay(entries) => Json::Obj(vec![
            ("mode".into(), Json::Str("replay".into())),
            (
                "entries".into(),
                Json::Arr(
                    entries
                        .iter()
                        .map(|e| {
                            let mut f = vec![
                                ("kind".into(), Json::Str(kind_name(e.kind).into())),
                                ("nth".into(), Json::num(e.nth)),
                            ];
                            match e.op {
                                FaultOp::Drop => f.push(("op".into(), Json::Str("drop".into()))),
                                FaultOp::Dup => f.push(("op".into(), Json::Str("dup".into()))),
                                FaultOp::Delay(c) => {
                                    f.push(("op".into(), Json::Str("delay".into())));
                                    f.push(("delay".into(), Json::num(c)));
                                }
                            }
                            Json::Obj(f)
                        })
                        .collect(),
                ),
            ),
        ]),
    };
    let mut fields = vec![
        ("schema".into(), Json::Str("ssmp-repro-v1".into())),
        ("workload".into(), Json::Str(sc.workload.clone())),
        ("config".into(), Json::Str(sc.config.clone())),
        ("nodes".into(), Json::num(sc.nodes)),
        ("grain".into(), Json::Str(grain_name(sc.grain).into())),
        ("tasks".into(), Json::num(sc.tasks)),
        ("seed".into(), Json::num(sc.seed)),
        ("retry".into(), Json::Bool(sc.retry)),
        ("max_cycles".into(), Json::num(sc.max_cycles)),
        ("signature".into(), Json::Str(signature.into())),
        ("faults".into(), faults),
    ];
    if sc.planted == Some(PlantedBug::CblDedupSkip) {
        fields.push(("planted_bug".into(), Json::Str("cbl-dedup".into())));
    }
    Json::Obj(fields)
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("repro: missing string field '{key}'"))
}

fn num_field(j: &Json, key: &str) -> Result<u64, String> {
    j.exact_int(key, "an unsigned 64-bit integer")
        .map_err(|e| format!("repro: {e}"))
}

fn prob_field(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        None => Err(format!("repro: missing field '{key}'")),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("repro: field '{key}' is not a number")),
    }
}

fn from_json(j: &Json) -> Result<(Scenario, String), String> {
    if str_field(j, "schema")? != "ssmp-repro-v1" {
        return Err(format!(
            "repro: unsupported schema '{}'",
            str_field(j, "schema")?
        ));
    }
    let fj = j.get("faults").ok_or("repro: missing 'faults'")?;
    let fault = match str_field(fj, "mode")? {
        "random" => FaultSpec::Random {
            seed: num_field(fj, "seed")?,
            dup: prob_field(fj, "dup_prob")?,
            delay: prob_field(fj, "delay_prob")?,
            delay_cycles: num_field(fj, "delay_cycles")?,
        },
        "replay" => {
            let entries = fj
                .get("entries")
                .and_then(|v| v.as_array())
                .ok_or("repro: replay mode needs 'entries'")?;
            FaultSpec::Replay(
                entries
                    .iter()
                    .map(|e| {
                        let kind = parse_kind(str_field(e, "kind")?)?;
                        let nth = num_field(e, "nth")?;
                        let op = match str_field(e, "op")? {
                            "drop" => FaultOp::Drop,
                            "dup" => FaultOp::Dup,
                            "delay" => FaultOp::Delay(num_field(e, "delay")?),
                            other => return Err(format!("repro: unknown fault op '{other}'")),
                        };
                        Ok(ForcedFault { kind, nth, op })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            )
        }
        other => return Err(format!("repro: unknown fault mode '{other}'")),
    };
    let planted = match j.get("planted_bug").and_then(|v| v.as_str()) {
        None => None,
        Some("cbl-dedup") => Some(PlantedBug::CblDedupSkip),
        Some(other) => return Err(format!("repro: unknown planted bug '{other}'")),
    };
    let sc = Scenario {
        workload: str_field(j, "workload")?.to_string(),
        config: str_field(j, "config")?.to_string(),
        nodes: num_field(j, "nodes")? as usize,
        grain: parse_grain(str_field(j, "grain")?)?,
        tasks: num_field(j, "tasks")? as usize,
        seed: num_field(j, "seed")?,
        retry: matches!(j.get("retry"), Some(Json::Bool(true))),
        max_cycles: num_field(j, "max_cycles")?,
        fault,
        planted,
    };
    Ok((sc, str_field(j, "signature")?.to_string()))
}

/// `ssmp run --repro <file>`: rebuilds the recorded scenario, runs it with
/// the sanitizer armed, and succeeds iff the recorded failure signature
/// re-triggers.
pub fn run_repro(path: &str, json: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--repro {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("--repro {path}: {e}"))?;
    let (sc, expected) = from_json(&doc)?;
    let quiet = QuietPanics::new();
    let o = run_armed(&sc)?;
    drop(quiet);
    let got = o.signature.clone().unwrap_or_else(|| "clean".into());
    if json {
        let doc = Json::Obj(vec![
            ("expected".into(), Json::Str(expected.clone())),
            ("observed".into(), Json::Str(got.clone())),
            ("reproduced".into(), Json::Bool(got == expected)),
        ]);
        println!("{}", doc.render());
    } else if !o.detail.is_empty() {
        print!("{}", o.detail);
        if !o.detail.ends_with('\n') {
            println!();
        }
    }
    if got == expected {
        if !json {
            println!("reproduced: {expected}");
        }
        Ok(())
    } else {
        Err(format!(
            "repro did not re-trigger: expected signature '{expected}', observed '{got}'"
        ))
    }
}

/// Silences the default panic hook for the duration of a value's lifetime
/// (shrinking deliberately runs panicking scenarios dozens of times).
struct QuietPanics;

impl QuietPanics {
    fn new() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

// ----------------------------------------------------------------------
// The fuzz driver
// ----------------------------------------------------------------------

/// `ssmp fuzz`: sweep seeded chaos scenarios in parallel; shrink and
/// persist the first failure. Exits nonzero when anything failed.
pub fn fuzz(f: &Flags) -> Result<(), String> {
    use ssmp_bench::exp::{default_jobs, Experiment, PointOutput, RunnerOpts};

    let quick = f.has("quick") || std::env::var_os("SSMP_QUICK").is_some();
    let jobs = f.num::<usize>("jobs", default_jobs())?;
    let nodes = f.num::<usize>("nodes", 4)?;
    let seeds = f.num::<u64>("seeds", if quick { 2 } else { 6 })?;
    let base_seed = f.num::<u64>("seed", 0xF0CC)?;
    let dup = f.num::<f64>("dup-prob", 0.05)?;
    let delay = f.num::<f64>("delay-prob", 0.10)?;
    let delay_cycles = f.num::<u64>("delay-cycles", 200)?;
    let grain = parse_grain(f.get("grain").unwrap_or("fine"))?;
    let tasks = f.num::<usize>("tasks", 2 * nodes)?;
    let retry = f.has("retry");
    let max_cycles = f.num::<u64>("cycle-budget", 5_000_000)?;
    let planted = match f.get("planted-bug") {
        None => None,
        Some("cbl-dedup") => Some(PlantedBug::CblDedupSkip),
        Some(other) => return Err(format!("unknown planted bug '{other}' (try cbl-dedup)")),
    };
    let workloads = f.list(
        "workload",
        if quick {
            &["work-queue", "sync"]
        } else {
            &["work-queue", "sync", "solver", "hotspot"]
        },
    );
    let configs = f.list("config", &["cbl", "sc-cbl", "bc-cbl"]);
    for w in &workloads {
        check_workload(w)?;
    }
    for c in &configs {
        parse_config(c, nodes.max(2))?;
    }

    // the scenario matrix, in deterministic order
    let mut scenarios: Vec<(String, Scenario)> = Vec::new();
    for w in &workloads {
        for c in &configs {
            for s in 0..seeds {
                let seed = base_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(s);
                let sc = Scenario {
                    workload: w.clone(),
                    config: c.clone(),
                    nodes,
                    grain,
                    tasks,
                    seed,
                    retry,
                    max_cycles,
                    fault: FaultSpec::Random {
                        seed: seed ^ 0xFA17,
                        dup,
                        delay,
                        delay_cycles,
                    },
                    planted,
                };
                scenarios.push((format!("{w}/{c}/seed={s}"), sc));
            }
        }
    }

    let quiet = QuietPanics::new();
    let findings: Arc<Mutex<Vec<(usize, String, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut exp = Experiment::new("fuzz");
    for (idx, (label, sc)) in scenarios.iter().enumerate() {
        let sc = sc.clone();
        let label = label.clone();
        let findings = Arc::clone(&findings);
        exp.point(label.clone(), move |_| {
            let o = run_armed(&sc).unwrap_or_else(|e| Outcome {
                signature: Some("setup-error".into()),
                detail: e,
                fault_log: None,
            });
            match o.signature {
                Some(sig) => {
                    findings.lock().unwrap().push((idx, label.clone(), sig));
                    PointOutput::values(vec![("failed".into(), 1.0)])
                }
                None => PointOutput::values(vec![("failed".into(), 0.0)]),
            }
        });
    }
    let opts = RunnerOpts::new()
        .jobs(jobs)
        .progress(std::env::var_os("SSMP_NO_PROGRESS").is_none());
    exp.run(&opts);

    let mut found = findings.lock().unwrap().clone();
    found.sort();
    println!(
        "fuzz: {} scenarios, {} failing",
        scenarios.len(),
        found.len()
    );
    if found.is_empty() {
        drop(quiet);
        return Ok(());
    }
    for (_, label, sig) in &found {
        println!("  FAIL {label}  [{sig}]");
    }

    // shrink the first (deterministically ordered) finding
    let (idx, label, sig) = found.first().cloned().expect("non-empty");
    println!("shrinking {label} [{sig}] ...");
    let (min, runs) = shrink(&scenarios[idx].1, &sig);
    drop(quiet);
    let entries = match &min.fault {
        FaultSpec::Replay(e) => e.len(),
        FaultSpec::Random { .. } => usize::MAX,
    };
    match entries {
        usize::MAX => println!(
            "shrunk to nodes={} tasks={} (fault plan stayed probabilistic) in {runs} runs",
            min.nodes, min.tasks
        ),
        n => println!(
            "shrunk to nodes={} tasks={} with {n} fault entr{} in {runs} runs",
            min.nodes,
            min.tasks,
            if n == 1 { "y" } else { "ies" }
        ),
    }

    let out = f.get("out").unwrap_or("repro.json");
    std::fs::write(out, to_json(&min, &sig).render() + "\n")
        .map_err(|e| format!("--out {out}: {e}"))?;
    println!("reproducer written to {out}  (replay: ssmp run --repro {out})");
    // a finding is a failed fuzz run, but not a usage error: exit like a
    // failed sweep instead of bubbling through the usage-printing path
    eprintln!(
        "fuzz: {} of {} scenarios failed; first signature '{sig}'",
        found.len(),
        scenarios.len()
    );
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_scenario() -> Scenario {
        Scenario {
            workload: "sync".into(),
            config: "bc-cbl".into(),
            nodes: 4,
            grain: Grain::Fine,
            tasks: 8,
            seed: 0xC11,
            retry: false,
            max_cycles: 5_000_000,
            fault: FaultSpec::Random {
                seed: 7,
                dup: 0.05,
                delay: 0.10,
                delay_cycles: 200,
            },
            planted: None,
        }
    }

    #[test]
    fn clean_scenario_has_no_signature() {
        let o = run_armed(&base_scenario()).unwrap();
        assert_eq!(o.signature, None, "{}", o.detail);
        assert!(o.fault_log.is_some());
    }

    #[test]
    fn repro_roundtrips_through_json() {
        let mut sc = base_scenario();
        sc.fault = FaultSpec::Replay(vec![
            ForcedFault {
                kind: MsgKind::Cbl,
                nth: 3,
                op: FaultOp::Dup,
            },
            ForcedFault {
                kind: MsgKind::Ric,
                nth: 0,
                op: FaultOp::Delay(99),
            },
        ]);
        sc.planted = Some(PlantedBug::CblDedupSkip);
        let doc = to_json(&sc, "wire.exactly-once");
        let (back, sig) = from_json(&Json::parse(&doc.render()).unwrap()).unwrap();
        assert_eq!(sig, "wire.exactly-once");
        assert_eq!(format!("{back:?}"), format!("{sc:?}"));
    }

    /// The seeded known-bug regression: with the planted CBL dedup bug, a
    /// dup-faulted scenario must fail with a stable signature, and the
    /// shrinker must reduce the fault plan to at most 3 explicit entries
    /// whose replay deterministically re-triggers the same signature.
    #[test]
    fn planted_bug_shrinks_to_minimal_replay() {
        let _quiet = QuietPanics::new();
        let mut sc = base_scenario();
        sc.planted = Some(PlantedBug::CblDedupSkip);
        sc.fault = FaultSpec::Random {
            seed: 7,
            dup: 0.10,
            delay: 0.0,
            delay_cycles: 200,
        };
        let o = run_armed(&sc).unwrap();
        let sig = o.signature.expect("planted bug must trigger a failure");
        assert_eq!(sig, "wire.exactly-once");

        let (min, _runs) = shrink(&sc, &sig);
        let FaultSpec::Replay(entries) = &min.fault else {
            panic!("shrinker must freeze the fault plan into a replay list");
        };
        assert!(
            entries.len() <= 3,
            "shrinker left {} fault entries: {entries:?}",
            entries.len()
        );
        assert!(entries.iter().any(|e| e.op == FaultOp::Dup));
        // the minimal reproducer re-triggers deterministically
        assert!(fails_same(&min, &sig));
        assert!(fails_same(&min, &sig), "reproducer must be deterministic");
    }
}
