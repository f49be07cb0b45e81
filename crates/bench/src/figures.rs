//! The sweeps behind the figure binaries: `fig4`/`fig5` sweep machine
//! size at one task grain, `fig6`/`fig7` compare buffered and sequential
//! consistency at one grain. Each binary names its figure and calls one.

use ssmp_machine::{MachineConfig, Report};
use ssmp_workload::Grain;

use crate::exp::{ExpArgs, Experiment, PointOutput};
use crate::{run_sync, run_work_queue_strong, Table, NODES_SWEEP, NODES_SWEEP_QUICK};

const SERIES: &[&str] = &["WBI", "CBL", "Q-WBI", "Q-backoff", "Q-CBL"];

fn series_run(series: &str, n: usize, grain: Grain, total: usize, sync_tasks: usize) -> Report {
    match series {
        "WBI" => run_sync(MachineConfig::wbi(n), grain.refs(), sync_tasks),
        "CBL" => run_sync(MachineConfig::cbl(n), grain.refs(), sync_tasks),
        "Q-WBI" => run_work_queue_strong(MachineConfig::wbi(n), grain, total),
        "Q-backoff" => run_work_queue_strong(MachineConfig::wbi_backoff(n), grain, total),
        "Q-CBL" => run_work_queue_strong(MachineConfig::cbl(n), grain, total),
        other => unreachable!("unknown series {other}"),
    }
}

/// The node counts and the work-queue problem size for the command line.
fn sweep_size(args: &ExpArgs) -> (&'static [usize], usize) {
    if args.quick {
        (NODES_SWEEP_QUICK, 32)
    } else {
        (NODES_SWEEP, 128)
    }
}

/// Figures 4 and 5: completion time against machine size at `grain`, for
/// the sync model (`WBI`, `CBL`) and the work queue (`Q-WBI`,
/// `Q-backoff`, `Q-CBL`). Parses the command line and emits the table.
pub fn scaling(name: &str, grain: Grain, title: &str, notes: &[&str]) {
    let args = ExpArgs::parse();
    let (ns, total_tasks) = sweep_size(&args);
    let sync_tasks = if args.quick { 2 } else { 4 };

    let mut exp = Experiment::new(name).seed(args.seed);
    for &n in ns {
        for &series in SERIES {
            exp.point_with(
                format!("n={n}/{series}"),
                &[("nodes", n.to_string()), ("series", series.to_string())],
                move |_| {
                    PointOutput::from_report(
                        series_run(series, n, grain, total_tasks, sync_tasks),
                        |r| vec![("completion".into(), r.completion as f64)],
                    )
                },
            );
        }
    }
    let sweep = exp.run(&args.opts());
    sweep.expect_ok();

    let mut t = Table::new(title, SERIES);
    for &n in ns {
        t.row(
            format!("n={n}"),
            SERIES
                .iter()
                .map(|s| sweep.value(&format!("n={n}/{s}"), "completion"))
                .collect(),
        );
    }
    for &note in notes {
        t.note(note);
    }
    crate::maybe_write_svg(&t);
    args.emit(&[t], &sweep);
}

/// Figures 6 and 7: BC-CBL against SC-CBL on the work queue at `grain`,
/// with BC's improvement in percent. Parses the command line and emits
/// the table.
pub fn consistency(name: &str, grain: Grain, title: &str, note: &str) {
    let args = ExpArgs::parse();
    let (ns, total_tasks) = sweep_size(&args);

    let mut exp = Experiment::new(name).seed(args.seed);
    for &n in ns {
        for (scheme, mk) in [
            (
                "SC-CBL",
                MachineConfig::sc_cbl as fn(usize) -> MachineConfig,
            ),
            (
                "BC-CBL",
                MachineConfig::bc_cbl as fn(usize) -> MachineConfig,
            ),
        ] {
            exp.point_with(
                format!("n={n}/{scheme}"),
                &[("nodes", n.to_string()), ("scheme", scheme.to_string())],
                move |_| {
                    PointOutput::from_report(
                        run_work_queue_strong(mk(n), grain, total_tasks),
                        |r| vec![("completion".into(), r.completion as f64)],
                    )
                },
            );
        }
    }
    let sweep = exp.run(&args.opts());
    sweep.expect_ok();

    let mut t = Table::new(title, &["SC-CBL", "BC-CBL", "improvement %"]);
    for &n in ns {
        let sc = sweep.value(&format!("n={n}/SC-CBL"), "completion");
        let bc = sweep.value(&format!("n={n}/BC-CBL"), "completion");
        let imp = 100.0 * (sc - bc) / sc;
        t.row(format!("n={n}"), vec![sc, bc, imp]);
    }
    t.note(note);
    crate::maybe_write_svg(&t);
    args.emit(&[t], &sweep);
}
