//! Script builders for the Table 3 synchronization scenarios, and the
//! six measured Table 3 points that `--bin table3` and `ssmp sweep
//! --points table3` both register.

use ssmp_core::primitive::LockMode;
use ssmp_engine::stats::keys;
use ssmp_machine::{Machine, MachineConfig, Op, Report};

use crate::exp::{Experiment, PointOutput};

/// Critical-section length of the Table 3 lock scenarios, in cycles.
pub const TABLE3_T_CS: u64 = 20;

/// The measured Table 3 points of one node count, as `(scenario,
/// scheme)`: parallel lock, serial lock and one barrier, each under WBI
/// (software synchronization) and CBL (hardware).
pub const TABLE3_POINTS: [(&str, &str); 6] = [
    ("par", "WBI"),
    ("par", "CBL"),
    ("ser", "WBI"),
    ("ser", "CBL"),
    ("barr", "WBI"),
    ("barr", "CBL"),
];

/// Registers the [`TABLE3_POINTS`] for `n` nodes, labelled
/// `n={n}/{scenario}/{scheme}`: the WBI points run on `wbi_cfg`, the CBL
/// points on `cbl_cfg`. Each reports the scenario's protocol `messages`
/// and its completion `cycles`.
pub fn table3_points(
    exp: &mut Experiment,
    n: usize,
    wbi_cfg: MachineConfig,
    cbl_cfg: MachineConfig,
) {
    for (scenario, scheme) in TABLE3_POINTS {
        let cfg = match scheme {
            "WBI" => wbi_cfg.clone(),
            _ => cbl_cfg.clone(),
        };
        let msg_prefix = match (scenario, scheme) {
            ("barr", "WBI") => keys::MSG_PREFIX,
            ("barr", _) => keys::MSG_BAR_PREFIX,
            (_, "WBI") => keys::MSG_WBI_PREFIX,
            _ => keys::MSG_CBL_PREFIX,
        };
        exp.point_with(
            format!("n={n}/{scenario}/{scheme}"),
            &[
                ("nodes", n.to_string()),
                ("scenario", scenario.to_string()),
                ("scheme", scheme.to_string()),
            ],
            move |_| {
                let r = match scenario {
                    "par" => parallel_lock(cfg.clone(), TABLE3_T_CS),
                    "ser" => serial_lock(cfg.clone(), TABLE3_T_CS),
                    _ => one_barrier(cfg.clone()),
                };
                PointOutput::from_report(r, |r| {
                    vec![
                        ("messages".into(), r.messages(msg_prefix) as f64),
                        ("cycles".into(), r.completion as f64),
                    ]
                })
            },
        );
    }
}

/// Parallel lock: every node requests the same lock at t=0 and holds it
/// for `t_cs` cycles.
pub fn parallel_lock(cfg: MachineConfig, t_cs: u64) -> Report {
    let n = cfg.geometry.nodes;
    let script = vec![
        vec![
            Op::Lock(0, LockMode::Write),
            Op::Compute(t_cs),
            Op::Unlock(0),
        ];
        n
    ];
    let wl = ssmp_machine::op::Script::new(script);
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(2)
        .build()
        .unwrap()
        .run()
}

/// Serial lock: node 0 acquires and releases once, everyone else idle.
pub fn serial_lock(cfg: MachineConfig, t_cs: u64) -> Report {
    let n = cfg.geometry.nodes;
    let mut script = vec![vec![]; n];
    script[0] = vec![
        Op::Lock(0, LockMode::Write),
        Op::Compute(t_cs),
        Op::Unlock(0),
    ];
    let wl = ssmp_machine::op::Script::new(script);
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(2)
        .build()
        .unwrap()
        .run()
}

/// One barrier episode over all nodes (staggered arrivals so the last
/// arriver is unambiguous).
pub fn one_barrier(cfg: MachineConfig) -> Report {
    let n = cfg.geometry.nodes;
    let script: Vec<Vec<Op>> = (0..n)
        .map(|i| vec![Op::Compute(1 + i as u64), Op::Barrier])
        .collect();
    let wl = ssmp_machine::op::Script::new(script);
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(2)
        .build()
        .unwrap()
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_complete() {
        assert!(parallel_lock(MachineConfig::cbl(8), 10).completion > 0);
        assert!(serial_lock(MachineConfig::wbi(8), 10).completion > 0);
        assert!(one_barrier(MachineConfig::cbl(8)).completion > 0);
        assert!(one_barrier(MachineConfig::wbi(8)).completion > 0);
    }

    #[test]
    fn parallel_lock_serialises_critical_sections() {
        let t_cs = 50;
        let r = parallel_lock(MachineConfig::cbl(8), t_cs);
        assert!(
            r.completion >= 8 * t_cs,
            "eight CSs of {t_cs} cycles cannot overlap: {}",
            r.completion
        );
    }
}
