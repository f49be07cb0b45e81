//! **E6 — Figure 7**: buffered vs. sequential consistency on the CBL
//! architecture at *medium* granularity (work-queue model).
//!
//! Same comparison as Figure 6 at a larger task grain: the global-write
//! fraction shrinks further, so the BC advantage should narrow.
//!
//! Usage: `fig7 [--quick] [--json] [--jobs N] [--out FILE] [--svg FILE]`

use ssmp_workload::Grain;

fn main() {
    ssmp_bench::figures::consistency(
        "fig7",
        Grain::Medium,
        "Figure 7: BC-CBL vs SC-CBL, medium granularity (work-queue)",
        "expected: BC <= SC; smaller improvement than Fig 6 (writes are a smaller fraction)",
    );
}
