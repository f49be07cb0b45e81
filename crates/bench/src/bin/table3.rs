//! **E2 — Table 3**: messages and time for the four synchronization
//! scenarios under WBI (software sync) vs. CBL (hardware sync).
//!
//! Prints the paper's closed forms, then measures the same scenarios on
//! the simulator and checks the complexity classes: CBL parallel-lock
//! traffic must grow linearly in `n`, WBI quadratically.
//!
//! Usage: `table3 [--quick] [--json] [--jobs N] [--out FILE]`

use ssmp_analytic::{Scenario, SyncScheme, Table3, Table3Params};
use ssmp_bench::exp::{ExpArgs, Experiment, SweepResult};
use ssmp_bench::scenarios::{table3_points, TABLE3_T_CS as T_CS};
use ssmp_bench::Table;
use ssmp_machine::MachineConfig;

fn analytic_table(ns: &[u64]) -> Table {
    let mut t = Table::new(
        "Table 3 (analytic): messages [time] per scenario",
        &[
            "par msgs WBI",
            "par msgs CBL",
            "par time WBI",
            "par time CBL",
            "ser msgs WBI",
            "ser msgs CBL",
            "barr req WBI",
            "barr req CBL",
            "barr ntf WBI",
            "barr ntf CBL",
        ],
    );
    for &n in ns {
        let m = Table3::new(Table3Params::paper(n, T_CS as f64));
        t.row(
            format!("n={n}"),
            vec![
                m.messages(Scenario::ParallelLock, SyncScheme::Wbi) as f64,
                m.messages(Scenario::ParallelLock, SyncScheme::Cbl) as f64,
                m.time(Scenario::ParallelLock, SyncScheme::Wbi),
                m.time(Scenario::ParallelLock, SyncScheme::Cbl),
                m.messages(Scenario::SerialLock, SyncScheme::Wbi) as f64,
                m.messages(Scenario::SerialLock, SyncScheme::Cbl) as f64,
                m.messages(Scenario::BarrierRequest, SyncScheme::Wbi) as f64,
                m.messages(Scenario::BarrierRequest, SyncScheme::Cbl) as f64,
                m.messages(Scenario::BarrierNotify, SyncScheme::Wbi) as f64,
                m.messages(Scenario::BarrierNotify, SyncScheme::Cbl) as f64,
            ],
        );
    }
    t.note("printed forms: WBI parallel lock 6n²+4n msgs (O(n²)); CBL 6n−3 (O(n))");
    t
}

fn measured_table(ns: &[usize], sweep: &SweepResult) -> Table {
    let mut t = Table::new(
        "Table 3 (simulated): total protocol messages / completion cycles",
        &[
            "par msgs WBI",
            "par msgs CBL",
            "par cyc WBI",
            "par cyc CBL",
            "ser msgs WBI",
            "ser msgs CBL",
            "barr msgs WBI",
            "barr msgs CBL",
        ],
    );
    for &n in ns {
        let v = |scenario: &str, scheme: &str, key: &str| {
            sweep.value(&format!("n={n}/{scenario}/{scheme}"), key)
        };
        t.row(
            format!("n={n}"),
            vec![
                v("par", "WBI", "messages"),
                v("par", "CBL", "messages"),
                v("par", "WBI", "cycles"),
                v("par", "CBL", "cycles"),
                v("ser", "WBI", "messages"),
                v("ser", "CBL", "messages"),
                v("barr", "WBI", "messages"),
                v("barr", "CBL", "messages"),
            ],
        );
    }
    t.note("WBI parallel-lock messages include the spin refill / test-and-set storms");
    t.note("CBL serial lock measures 4 messages where the paper prints 3 (the off-critical-path release ack)");
    t
}

fn check_complexity(t: &Table) {
    // messages column 0 (WBI) vs 1 (CBL) across the sweep: fit growth
    if t.rows.len() >= 2 {
        let first = &t.rows[0];
        let last = &t.rows[t.rows.len() - 1];
        let scale = last.label.trim_start_matches("n=").parse::<f64>().unwrap()
            / first.label.trim_start_matches("n=").parse::<f64>().unwrap();
        let wbi_growth = last.values[0] / first.values[0];
        let cbl_growth = last.values[1] / first.values[1];
        println!(
            "complexity check over {scale}x nodes: WBI messages x{wbi_growth:.1}, CBL messages x{cbl_growth:.1}"
        );
        println!(
            "  -> WBI superlinear: {} | CBL ~linear: {}",
            wbi_growth > 1.5 * scale,
            cbl_growth < 1.5 * scale
        );
    }
}

fn main() {
    let args = ExpArgs::parse();
    let ns_a: &[u64] = if args.quick {
        &[4, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };
    let ns_s: &[usize] = if args.quick {
        &[4, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };

    let mut exp = Experiment::new("table3").seed(args.seed);
    for &n in ns_s {
        table3_points(&mut exp, n, MachineConfig::wbi(n), MachineConfig::cbl(n));
    }
    let sweep = exp.run(&args.opts());
    sweep.expect_ok();

    let tables = [analytic_table(ns_a), measured_table(ns_s, &sweep)];
    args.emit(&tables, &sweep);
    if !args.json {
        check_complexity(&tables[1]);
    }
}
