//! **Transaction latency**: tail-latency attribution for the paper's
//! workloads, from the causal span tracer.
//!
//! Every point runs one workload × machine configuration with span
//! stitching armed, then reduces the stitched `SpanSet` to its latency
//! distribution (count / mean / p50 / p95 / p99 / p999 / max, in machine
//! cycles) plus the share of transaction time spent in the network. The
//! run also asserts the stitcher's exact-sum contract — every span's
//! segment breakdown sums to its end-to-end latency — and that the
//! stitch was clean (no orphans, no dangling wire links).
//!
//! The simulation is deterministic, so the emitted `ssmp-sweep-v1`
//! artifact is byte-for-byte reproducible; CI regenerates it and diffs
//! against the committed `BENCH_latency.json`.
//!
//! Usage: `latency [--quick] [--json] [--jobs N] [--seed N] [--out FILE]`

use ssmp_bench::exp::{ExpArgs, Experiment, PointOutput, SweepResult};
use ssmp_bench::Table;
use ssmp_core::addr::Geometry;
use ssmp_machine::{Machine, MachineConfig, Workload};
use ssmp_span::nearest_rank;
use ssmp_workload::{
    Allocation, FftParams, FftPhases, Grain, LinearSolver, SolverParams, Sor, SorParams, SyncModel,
    SyncParams, WorkQueue, WorkQueueParams,
};

const WORKLOADS: &[&str] = &["work-queue", "sync", "solver", "fft", "sor"];
const CONFIGS: &[&str] = &["wbi", "cbl", "bc-cbl"];

/// Problem sizes (full / `--quick`).
struct Sizes {
    nodes: usize,
    tasks: usize,
    solver_iters: usize,
    sor_sweeps: usize,
}

impl Sizes {
    fn pick(quick: bool) -> Self {
        if quick {
            Sizes {
                nodes: 8,
                tasks: 64,
                solver_iters: 4,
                sor_sweeps: 4,
            }
        } else {
            Sizes {
                nodes: 16,
                tasks: 256,
                solver_iters: 8,
                sor_sweeps: 8,
            }
        }
    }
}

fn config_for(name: &str, nodes: usize) -> MachineConfig {
    match name {
        "wbi" => MachineConfig::wbi(nodes),
        "cbl" => MachineConfig::cbl(nodes),
        _ => MachineConfig::bc_cbl(nodes),
    }
}

/// Builds the workload and resizes the machine's shared region where the
/// workload dictates its own footprint (mirrors the CLI's geometry
/// adaptation).
fn workload_for(
    name: &str,
    cfg: &mut MachineConfig,
    s: &Sizes,
    seed: u64,
) -> (Box<dyn Workload>, usize) {
    let nodes = s.nodes;
    match name {
        "work-queue" => {
            let mut p = WorkQueueParams::strong(nodes, Grain::Fine, s.tasks);
            p.seed = seed;
            let wl = WorkQueue::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "sync" => {
            let mut p = SyncParams::paper(nodes, Grain::Fine.refs(), s.tasks.div_ceil(nodes));
            p.seed = seed;
            let wl = SyncModel::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "solver" => {
            let p = SolverParams::paper(nodes, Allocation::Packed, s.solver_iters);
            cfg.geometry = Geometry::new(
                nodes,
                cfg.geometry.block_words,
                p.shared_blocks().max(cfg.geometry.shared_blocks),
            );
            let wl = LinearSolver::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "fft" => {
            let p = FftParams::paper(nodes);
            cfg.geometry = Geometry::new(
                nodes,
                cfg.geometry.block_words,
                p.shared_blocks().max(cfg.geometry.shared_blocks),
            );
            let wl = FftPhases::new(p);
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        "sor" => {
            cfg.geometry = Geometry::new(
                nodes,
                cfg.geometry.block_words,
                nodes.max(cfg.geometry.shared_blocks),
            );
            let wl = Sor::new(SorParams::new(nodes, s.sor_sweeps));
            let locks = wl.machine_locks();
            (Box::new(wl), locks)
        }
        other => unreachable!("workload '{other}' not registered"),
    }
}

fn main() {
    let args = ExpArgs::parse();

    let mut exp = Experiment::new("latency").seed(args.seed);
    for &wl in WORKLOADS {
        for &cfg_name in CONFIGS {
            exp.point_with(
                format!("{wl}/{cfg_name}"),
                &[
                    ("workload", wl.to_string()),
                    ("config", cfg_name.to_string()),
                ],
                move |ctx| {
                    let s = Sizes::pick(args.quick);
                    let mut cfg = config_for(cfg_name, s.nodes);
                    let (workload, locks) = workload_for(wl, &mut cfg, &s, ctx.seed);
                    let mut r = Machine::builder(cfg)
                        .workload(workload)
                        .locks(locks)
                        .spans(true)
                        .build()
                        .expect("latency configs are valid")
                        .run();
                    let spans = r.spans.take().expect("span-armed run carries spans");
                    // The stitcher's hard contracts, enforced on every
                    // point: exact-sum segments and a clean stitch.
                    for sp in spans.closed.values() {
                        let sum: u64 = sp.segments.iter().sum();
                        let ty = spans.type_name(sp);
                        assert_eq!(
                            sum, sp.dur,
                            "txn {} ({ty}): segments sum {} != e2e {}",
                            sp.txn, sum, sp.dur
                        );
                    }
                    let h = spans.health();
                    assert!(h.clean(), "span stitch degraded: {h:?}");
                    let lats = spans.latencies();
                    let mean = if lats.is_empty() {
                        0.0
                    } else {
                        lats.iter().sum::<u64>() as f64 / lats.len() as f64
                    };
                    let segs = spans.segment_totals();
                    let total: u64 = segs.values().sum();
                    let net = segs.get("net").copied().unwrap_or(0);
                    PointOutput::from_report(r, |r| {
                        vec![
                            ("completion".into(), r.completion as f64),
                            ("spans".into(), lats.len() as f64),
                            ("mean".into(), mean),
                            ("p50".into(), nearest_rank(&lats, 0.50) as f64),
                            ("p95".into(), nearest_rank(&lats, 0.95) as f64),
                            ("p99".into(), nearest_rank(&lats, 0.99) as f64),
                            ("p999".into(), nearest_rank(&lats, 0.999) as f64),
                            ("max".into(), lats.last().copied().unwrap_or(0) as f64),
                            (
                                "net_share".into(),
                                if total == 0 {
                                    0.0
                                } else {
                                    net as f64 / total as f64
                                },
                            ),
                        ]
                    })
                },
            );
        }
    }

    let sweep = exp.run(&args.opts());
    sweep.expect_ok();

    let table = latency_table(&sweep);
    args.emit(&[table], &sweep);
}

fn latency_table(sweep: &SweepResult) -> Table {
    let mut t = Table::new(
        "Transaction latency (cycles): stitched spans per workload × config",
        &[
            "spans",
            "mean",
            "p50",
            "p95",
            "p99",
            "p999",
            "max",
            "net share",
        ],
    );
    for &wl in WORKLOADS {
        for &cfg in CONFIGS {
            let label = format!("{wl}/{cfg}");
            t.row(
                label.clone(),
                vec![
                    sweep.value(&label, "spans"),
                    sweep.value(&label, "mean"),
                    sweep.value(&label, "p50"),
                    sweep.value(&label, "p95"),
                    sweep.value(&label, "p99"),
                    sweep.value(&label, "p999"),
                    sweep.value(&label, "max"),
                    sweep.value(&label, "net_share"),
                ],
            );
        }
    }
    t.note("a transaction = one blocking memory/sync operation (fill, lock, barrier, buffered write, ...)");
    t.note("quantiles are nearest-rank over exact per-transaction latencies; net share = network transit / all attributed cycles");
    t
}
