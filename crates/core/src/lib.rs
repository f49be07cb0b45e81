//! # ssmp-core
//!
//! The paper's primary contribution, implemented as *pure protocol state
//! machines* with no timing or event-engine dependency. Each protocol
//! handler consumes a message (or a processor-issued primitive) and returns
//! the set of messages it would put on the interconnect; the `ssmp-machine`
//! crate assigns network timing and delivers them. This factoring makes
//! every transition unit-testable and lets property tests explore message
//! interleavings directly.
//!
//! Contents, mapped to the paper:
//!
//! | Module | Paper section |
//! |---|---|
//! | [`msg`] | §4, Fig. 2 — one list mechanism over one network: the `Msg<K>` envelope (source, destination, size, kind) every controller shares |
//! | [`primitive`] | Table 1 — the `READ-LOCK`/`WRITE-LOCK` modes; §2 — NP-/CP-Synch classes |
//! | [`line`](mod@line) | Fig. 2a — block data with word-granular merges; the CBL lock field |
//! | [`lockcache`] | §4.3 — the small fully-associative lock cache |
//! | [`wbuf`] | §4.2 — the write buffer and `FLUSH-BUFFER` |
//! | [`ric`] | §4.1, Fig. 2 — reader-initiated coherence (`READ-UPDATE`/`RESET-UPDATE`): update list and the nodes' cached copies |
//! | [`cbl`] | §4.3 — cache-based locking (`READ-LOCK`/`WRITE-LOCK`/`UNLOCK`) |
//! | [`barrier`] | Table 3 — the hardware barrier (request + chained notify) |
//! | [`semaphore`] | §2 — counting semaphores (P = NP-Synch, V = CP-Synch) |
//! | [`consistency`] | §2–3 — buffered vs. sequential consistency policies |

#![warn(missing_docs)]

pub mod addr;
pub mod barrier;
pub mod cbl;
pub mod consistency;
pub mod line;
pub mod lockcache;
pub mod msg;
pub mod primitive;
pub mod ric;
pub mod semaphore;
pub mod wbuf;

pub use addr::{BlockId, Geometry, NodeId, SharedAddr};
pub use primitive::{AccessClass, LockMode};
