//! **Simulator throughput baseline**: end-to-end events/sec and
//! cycles/sec of the machine simulator itself (on its timing-wheel event
//! queue), across three paper workloads × two interconnect topologies.
//!
//! Unlike the paper-artifact binaries this measures the *simulator*, not
//! the simulated machine. The simulated `cycles` and `events` of each
//! point are exact and gated; the wall-clock columns are informational.
//!
//! Usage: `throughput [--quick] [--json] [--seed N] [--out FILE]`
//! (runs single-threaded regardless of `--jobs`: timed points must not
//! contend with each other).

use std::time::Instant;

use ssmp_bench::exp::{ExpArgs, Experiment, PointOutput, RunnerOpts, SweepResult};
use ssmp_bench::{run_solver, run_sync, run_work_queue_strong, Table};
use ssmp_machine::{MachineConfig, Report};
use ssmp_net::Topology;
use ssmp_workload::{Allocation, Grain};

const WORKLOADS: &[&str] = &["work-queue", "sync", "solver"];
const TOPOLOGIES: &[(&str, Topology)] = &[("omega", Topology::Omega), ("bus", Topology::Bus)];

/// Problem sizes per workload (full / `--quick`).
struct Sizes {
    nodes: usize,
    tasks: usize,
    solver_iters: usize,
    /// Timed repetitions; the fastest is recorded.
    reps: usize,
}

impl Sizes {
    fn pick(quick: bool) -> Self {
        if quick {
            Sizes {
                nodes: 16,
                tasks: 512,
                solver_iters: 8,
                reps: 2,
            }
        } else {
            Sizes {
                nodes: 32,
                tasks: 2048,
                solver_iters: 24,
                reps: 3,
            }
        }
    }
}

fn run_workload(wl: &str, cfg: MachineConfig, s: &Sizes) -> Report {
    match wl {
        "work-queue" => run_work_queue_strong(cfg, Grain::Fine, s.tasks),
        "sync" => {
            let per_node = s.tasks.div_ceil(cfg.geometry.nodes);
            run_sync(cfg, Grain::Fine.refs(), per_node)
        }
        "solver" => run_solver(cfg, Allocation::Packed, s.solver_iters),
        other => unreachable!("workload '{other}' not registered"),
    }
}

/// Runs `wl` `reps` times, returning the last report and the fastest
/// wall time in seconds.
fn timed(wl: &str, cfg: MachineConfig, s: &Sizes) -> (Report, f64) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..s.reps.max(1) {
        let t0 = Instant::now();
        let r = run_workload(wl, cfg.clone(), s);
        best = best.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    (report.expect("reps >= 1"), best)
}

fn main() {
    let args = ExpArgs::parse();
    let sizes = Sizes::pick(args.quick);

    let mut exp = Experiment::new("throughput").seed(args.seed);
    for &wl in WORKLOADS {
        for &(topo_name, topo) in TOPOLOGIES {
            let nodes = sizes.nodes;
            exp.point_with(
                format!("{wl}/{topo_name}"),
                &[
                    ("workload", wl.to_string()),
                    ("topology", topo_name.to_string()),
                    ("nodes", nodes.to_string()),
                ],
                move |_| {
                    let sizes = Sizes::pick(args.quick);
                    let mut cfg = MachineConfig::cbl(nodes);
                    cfg.topology = topo;
                    let (r, secs) = timed(wl, cfg, &sizes);
                    let events = r.events_popped as f64;
                    let cycles = r.completion as f64;
                    PointOutput::values(vec![
                        ("cycles".into(), cycles),
                        ("events".into(), events),
                        ("wheel_secs".into(), secs),
                        ("wheel_events_per_sec".into(), events / secs.max(1e-12)),
                        ("wheel_cycles_per_sec".into(), cycles / secs.max(1e-12)),
                    ])
                },
            );
        }
    }

    // Timed points must not contend for cores: force one worker.
    let opts = RunnerOpts::new()
        .jobs(1)
        .progress(!args.json && std::env::var_os("SSMP_NO_PROGRESS").is_none());
    let sweep = exp.run(&opts);
    sweep.expect_ok();

    let table = throughput_table(&sweep);
    args.emit(&[table], &sweep);
}

fn throughput_table(sweep: &SweepResult) -> Table {
    let mut t = Table::new(
        "Simulator throughput (timing-wheel event queue)",
        &["cycles", "events", "ev/s", "cyc/s"],
    );
    for &wl in WORKLOADS {
        for &(topo_name, _) in TOPOLOGIES {
            let label = format!("{wl}/{topo_name}");
            t.row(
                label.clone(),
                vec![
                    sweep.value(&label, "cycles"),
                    sweep.value(&label, "events"),
                    sweep.value(&label, "wheel_events_per_sec"),
                    sweep.value(&label, "wheel_cycles_per_sec"),
                ],
            );
        }
    }
    t.note(
        "wall-clock rates are the fastest of the timed repetitions; cycles and events are exact",
    );
    t
}
