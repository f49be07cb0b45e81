//! Experiment runners: configure, run, and sweep machines in parallel.

use ssmp_core::addr::Geometry;
use ssmp_machine::{Machine, MachineConfig, Report};
use ssmp_workload::{
    Allocation, Grain, LinearSolver, SolverParams, SyncModel, SyncParams, WorkQueue,
    WorkQueueParams,
};

/// The node counts the figures sweep (paper Figs. 4–7 span 4–64).
pub const NODES_SWEEP: &[usize] = &[4, 8, 16, 32, 64];

/// A cheaper sweep for `--quick` runs.
pub const NODES_SWEEP_QUICK: &[usize] = &[4, 8, 16];

/// Runs the work-queue model (weak scaling: `tasks_per_node` per node).
pub fn run_work_queue(cfg: MachineConfig, grain: Grain, tasks_per_node: usize) -> Report {
    let nodes = cfg.geometry.nodes;
    let wl = WorkQueue::new(WorkQueueParams::paper(nodes, grain, tasks_per_node));
    let locks = wl.machine_locks();
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(locks)
        .build()
        .unwrap()
        .run()
}

/// Runs the work-queue model on a fixed problem of `total_tasks` tasks
/// (strong scaling — how the paper's figures sweep machine size).
pub fn run_work_queue_strong(cfg: MachineConfig, grain: Grain, total_tasks: usize) -> Report {
    let nodes = cfg.geometry.nodes;
    let wl = WorkQueue::new(WorkQueueParams::strong(nodes, grain, total_tasks));
    let locks = wl.machine_locks();
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(locks)
        .build()
        .unwrap()
        .run()
}

/// Runs the sync model.
pub fn run_sync(cfg: MachineConfig, grain: usize, tasks_per_node: usize) -> Report {
    let nodes = cfg.geometry.nodes;
    let wl = SyncModel::new(SyncParams::paper(nodes, grain, tasks_per_node));
    let locks = wl.machine_locks();
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(locks)
        .build()
        .unwrap()
        .run()
}

/// Runs the linear solver, resizing the machine's shared region to the
/// allocation's footprint.
pub fn run_solver(mut cfg: MachineConfig, alloc: Allocation, iterations: usize) -> Report {
    let nodes = cfg.geometry.nodes;
    let p = SolverParams::paper(nodes, alloc, iterations);
    cfg.geometry = Geometry::new(nodes, cfg.geometry.block_words, p.shared_blocks().max(1));
    let wl = LinearSolver::new(p);
    let locks = wl.machine_locks();
    Machine::builder(cfg)
        .workload(Box::new(wl))
        .locks(locks)
        .build()
        .unwrap()
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_produce_reports() {
        let r = run_work_queue(MachineConfig::cbl(4), Grain::Fine, 2);
        assert!(r.completion > 0);
        let r = run_sync(MachineConfig::wbi(4), 8, 2);
        assert!(r.completion > 0);
        let r = run_solver(MachineConfig::sc_cbl(4), Allocation::Packed, 2);
        assert!(r.completion > 0);
    }
}
