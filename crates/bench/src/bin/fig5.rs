//! **E4 — Figure 5**: completion time vs. number of processors at *coarse*
//! task granularity (256 references/task).
//!
//! Expected shape: the larger grain dilutes synchronization, so `Q-WBI`
//! scales acceptably up to ~32 nodes but degrades beyond; `Q-CBL` stays
//! near-flat.
//!
//! Usage: `fig5 [--quick] [--json] [--jobs N] [--out FILE] [--svg FILE]`

use ssmp_workload::Grain;

fn main() {
    ssmp_bench::figures::scaling(
        "fig5",
        Grain::Coarse,
        "Figure 5: completion time (cycles), coarse granularity",
        &["expected: Q-WBI improved vs Fig 4 but still degrades above 32 nodes; Q-CBL near-flat"],
    );
}
