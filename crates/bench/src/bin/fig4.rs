//! **E3 — Figure 4**: completion time vs. number of processors at *medium*
//! task granularity (64 references/task), for both workload models.
//!
//! Series (as in the paper): `WBI` and `CBL` on the sync model; `Q-WBI`,
//! `Q-backoff` and `Q-CBL` on the work-queue model. Weak scaling: the
//! task count grows with the machine.
//!
//! Expected shape: the two sync-model lines sit together at the bottom;
//! `Q-WBI` blows up beyond 16 nodes; `Q-backoff` removes the cliff but
//! still fails to scale; `Q-CBL` stays far below both.
//!
//! Usage: `fig4 [--quick] [--json] [--jobs N] [--out FILE] [--svg FILE]`

use ssmp_workload::Grain;

fn main() {
    ssmp_bench::figures::scaling(
        "fig4",
        Grain::Medium,
        "Figure 4: completion time (cycles), medium granularity",
        &[
            "work-queue: strong scaling (128-task problem); sync model: 4 tasks/node",
            "expected: Q-WBI explodes >16 nodes; Q-backoff grows slower but still fails; Q-CBL near-flat; WBI≈CBL at the bottom",
        ],
    );
}
