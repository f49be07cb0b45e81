//! End-to-end checks of the protocol-level profiler:
//!
//! * the live profile (a sink on the tracer) and offline
//!   `Profile::from_jsonl` over the same trace produce byte-identical
//!   `ssmp-profile-v1` JSON;
//! * profiled runs are byte-deterministic across repeated seeded runs;
//! * per-node stall attribution sums exactly to the report's stalled
//!   cycles (`cycles − busy`) on every paper workload;
//! * the false-sharing detector flags SOR's packed boundary layout under
//!   write-invalidate and stays silent under RIC's per-word dirty bits;
//! * the `ssmp analyze` table render matches a golden file on a small
//!   fixed-seed hotspot run.

use ssmp::engine::trace::MemorySink;
use ssmp::engine::{TraceFilter, Tracer};
use ssmp::machine::{Machine, MachineConfig, Report, Workload};
use ssmp::profile::Profile;
use ssmp::workload::{
    FftParams, FftPhases, Grain, Hotspot, HotspotParams, LinearSolver, SolverParams, Sor,
    SorParams, SyncModel, SyncParams, WorkQueue, WorkQueueParams,
};

fn paper_workloads(nodes: usize) -> Vec<(&'static str, Box<dyn Workload>, usize)> {
    let wq = WorkQueue::new(WorkQueueParams::paper(nodes, Grain::Fine, 3 * nodes));
    let wq_locks = wq.machine_locks();
    let sync = SyncModel::new(SyncParams::paper(nodes, 40, 2));
    let sync_locks = sync.machine_locks();
    let solver = LinearSolver::new(SolverParams::paper(
        nodes,
        ssmp::workload::Allocation::Packed,
        3,
    ));
    let solver_locks = solver.machine_locks();
    let fft = FftPhases::new(FftParams::paper(nodes));
    let fft_locks = fft.machine_locks();
    let hot = Hotspot::new(HotspotParams::hot_locks(nodes, 0.6, 60));
    let hot_locks = hot.machine_locks();
    let sor = Sor::new(SorParams::packed(nodes, 2));
    let sor_locks = sor.machine_locks();
    vec![
        ("work-queue", Box::new(wq) as Box<dyn Workload>, wq_locks),
        ("sync", Box::new(sync), sync_locks),
        ("solver", Box::new(solver), solver_locks),
        ("fft", Box::new(fft), fft_locks),
        ("hotspot", Box::new(hot), hot_locks),
        ("sor-packed", Box::new(sor), sor_locks),
    ]
}

fn fit_geometry(cfg: &mut MachineConfig, name: &str, nodes: usize) {
    let blocks = match name {
        "solver" => {
            SolverParams::paper(nodes, ssmp::workload::Allocation::Packed, 3).shared_blocks()
        }
        "fft" => FftParams::paper(nodes).shared_blocks(),
        // SOR owns one boundary block per node
        "sor-packed" => nodes,
        _ => cfg.geometry.shared_blocks,
    };
    cfg.geometry =
        ssmp::core::addr::Geometry::new(nodes, 4, blocks.max(cfg.geometry.shared_blocks));
}

/// Runs `wl` profiled with a memory sink attached; returns the report
/// (carrying the live profile) and the captured event stream.
fn profiled_run(
    cfg: MachineConfig,
    wl: Box<dyn Workload>,
    locks: usize,
) -> (Report, Vec<ssmp::engine::TraceEvent>) {
    let (sink, events) = MemorySink::new();
    let mut tracer = Tracer::new(TraceFilter::all());
    tracer.add_sink(sink);
    let r = Machine::builder(cfg)
        .workload(wl)
        .locks(locks)
        .tracer(tracer)
        .profile(true)
        .build()
        .unwrap()
        .run();
    let evs = events.borrow().clone();
    (r, evs)
}

fn jsonl_of(events: &[ssmp::engine::TraceEvent]) -> String {
    let mut s = String::new();
    for e in events {
        s.push_str(&e.to_jsonl());
        s.push('\n');
    }
    s
}

#[test]
fn live_sink_equals_offline_analyze_byte_for_byte() {
    for cfg in [
        MachineConfig::wbi(4),
        MachineConfig::cbl(4),
        MachineConfig::bc_cbl(4),
        MachineConfig::mesi(4),
        MachineConfig::dragon(4),
    ] {
        for (name, wl, locks) in paper_workloads(4) {
            let mut cfg = cfg.clone();
            fit_geometry(&mut cfg, name, 4);
            let (r, events) = profiled_run(cfg, wl, locks);
            let live = r.profile.as_ref().expect("profiled run carries profile");
            let offline = Profile::from_jsonl(std::io::Cursor::new(jsonl_of(&events))).unwrap();
            assert_eq!(
                live.to_json().render(),
                offline.to_json().render(),
                "live/offline divergence on {name}"
            );
            assert_eq!(live, &offline, "{name}: structural divergence");
        }
    }
}

#[test]
fn profiled_runs_are_byte_deterministic() {
    let run = || {
        let mut cfg = MachineConfig::bc_cbl(4);
        fit_geometry(&mut cfg, "solver", 4);
        let wl = LinearSolver::new(SolverParams::paper(
            4,
            ssmp::workload::Allocation::Packed,
            3,
        ));
        let locks = wl.machine_locks();
        let (r, _) = profiled_run(cfg, Box::new(wl), locks);
        r.profile.unwrap().to_json().render()
    };
    assert_eq!(run(), run(), "repeated seeded runs must render identically");
}

#[test]
fn stall_attribution_sums_to_cycles_minus_busy_on_paper_workloads() {
    for cfg in [
        MachineConfig::wbi(4),
        MachineConfig::wbi_backoff(4),
        MachineConfig::cbl(4),
        MachineConfig::sc_cbl(4),
        MachineConfig::bc_cbl(4),
    ] {
        for (name, wl, locks) in paper_workloads(4) {
            let mut cfg = cfg.clone();
            fit_geometry(&mut cfg, name, 4);
            let (r, _) = profiled_run(cfg, wl, locks);
            assert!(r.deadlock.is_none(), "{name} deadlocked");
            let p = r.profile.as_ref().unwrap();
            for n in 0..4i64 {
                let np = p
                    .nodes
                    .get(&n)
                    .unwrap_or_else(|| panic!("{name}: node {n} missing from profile"));
                let bucket_sum: u64 = np.stalls.values().sum();
                assert_eq!(
                    bucket_sum, np.stall_total,
                    "{name} node {n}: buckets don't sum to stall_total"
                );
                assert_eq!(
                    np.stall_total, r.stalled_cycles[n as usize],
                    "{name} node {n}: profile disagrees with report stalls"
                );
                assert_eq!(
                    np.stall_total,
                    np.cycles - np.busy(),
                    "{name} node {n}: stalls != cycles - busy"
                );
            }
        }
    }
}

#[test]
fn false_sharing_flagged_under_wbi_silent_under_ric() {
    let run = |cfg: MachineConfig| {
        let nodes = cfg.geometry.nodes;
        let wl = Sor::new(SorParams::packed(nodes, 4));
        let locks = wl.machine_locks();
        let (r, _) = profiled_run(cfg, Box::new(wl), locks);
        assert!(r.deadlock.is_none());
        r.profile.unwrap()
    };
    let geom = |mut cfg: MachineConfig| {
        cfg.geometry = ssmp::core::addr::Geometry::new(4, 4, 8);
        cfg
    };
    let wbi = run(geom(MachineConfig::wbi(4)));
    assert!(
        !wbi.false_sharing_lines().is_empty(),
        "packed SOR under write-invalidate must flag at least one line"
    );
    let ric = run(geom(MachineConfig::bc_cbl(4)));
    assert!(
        ric.false_sharing_lines().is_empty(),
        "RIC's per-word dirty bits must flag nothing, got {:?}",
        ric.false_sharing_lines()
    );
}

#[test]
fn hot_lock_run_reports_latency_histogram_and_depth_timeline() {
    let wl = Hotspot::new(HotspotParams::hot_locks(4, 0.8, 80));
    let locks = wl.machine_locks();
    let (r, _) = profiled_run(MachineConfig::cbl(4), Box::new(wl), locks);
    let p = r.profile.as_ref().unwrap();
    let hot = p.locks.get(&0).expect("hot lock profiled");
    assert_eq!(hot.kind, "cbl");
    assert!(hot.acquires > 0);
    assert!(hot.latency.count() == hot.acquires);
    assert!(
        !hot.depth_timeline.is_empty(),
        "contended CBL lock must show queue-depth changes"
    );
    assert!(hot.depth_max() > 0);
    let (fmax, fmean) = hot.fairness();
    assert!(fmax as f64 >= fmean && fmean > 0.0);
}

#[test]
fn analyze_table_matches_golden_file() {
    let wl = Hotspot::new(HotspotParams::hot_locks(4, 0.8, 40));
    let locks = wl.machine_locks();
    let (r, _) = profiled_run(MachineConfig::bc_cbl(4), Box::new(wl), locks);
    let table = r.profile.unwrap().render_table(4);
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/analyze_hotspot.txt"
    );
    if std::env::var_os("SSMP_BLESS").is_some() {
        std::fs::write(golden_path, &table).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — regenerate with SSMP_BLESS=1");
    assert_eq!(
        table, golden,
        "analyze table drifted from tests/golden/analyze_hotspot.txt \
         (regenerate with SSMP_BLESS=1 if intentional)"
    );
}
