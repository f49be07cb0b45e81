//! **E5 — Figure 6**: buffered vs. sequential consistency on the CBL
//! architecture at *fine* granularity (work-queue model).
//!
//! BC-CBL buffers global writes and flushes only before CP-Synch
//! operations; SC-CBL stalls on every global write. The paper expects BC
//! to win consistently but modestly ("the improvement is not very
//! impressive"), because global writes occur with probability
//! `sh × write_ratio ≈ 0.0045` in the tested workload.
//!
//! Usage: `fig6 [--quick] [--json] [--jobs N] [--out FILE] [--svg FILE]`

use ssmp_workload::Grain;

fn main() {
    ssmp_bench::figures::consistency(
        "fig6",
        Grain::Fine,
        "Figure 6: BC-CBL vs SC-CBL, fine granularity (work-queue)",
        "expected: BC <= SC everywhere; improvement real but modest",
    );
}
