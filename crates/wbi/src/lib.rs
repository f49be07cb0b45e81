//! # ssmp-wbi
//!
//! The software synchronization that runs on the paper's **baseline**
//! write-back-invalidate protocol in the evaluation: the exponential
//! backoff of the `Q-backoff` test-and-test-and-set variant (Figs. 4–5)
//! and a sense-reversing counter barrier.
//!
//! The WBI directory protocol itself lives in `ssmp-coherence` beside
//! MESI and Dragon. The machine runs TTS lock blocks and the barrier's
//! release flag as ordinary WBI lines there, so spinning happens on the
//! cached copy (per Rudolph & Segall) and a release invalidates every
//! spinner, exactly as in the paper's baseline.

#![warn(missing_docs)]

pub mod backoff;
pub mod swbarrier;

pub use backoff::Backoff;
pub use ssmp_coherence::WbiBlock;
pub use swbarrier::SwBarrier;
