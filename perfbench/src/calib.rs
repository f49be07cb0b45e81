//! The frozen calibration kernel: a small discrete-event loop in the
//! simulator's own idiom (a binary-heap schedule, per-node FIFOs, a hash
//! map of line states and short-lived message vectors), std only.
//!
//! Host speed here drifts by tens of percent over seconds to minutes, so
//! every timed run is bracketed by this kernel and its host times are
//! expressed against the kernel's. A pointer chase over 8 MiB was tried
//! first and tracked the simulator poorly; this kernel, which does the
//! same kinds of work, cut the quartile spread of per-process median run
//! times from 53% to 6% (`hotspot-mesi-n256`) and from 13% to 11%
//! (`wq-bccbl-n64`). Its code and size must never change, or normalised
//! figures stop being comparable across commits.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time in ms on the host normalised figures are quoted for, about
/// its time on the 2.1 GHz Xeon (2 vCPUs) this benchmark was written on.
/// A normalised time reads as if measured where the kernel takes this.
pub const REFERENCE_MS: f64 = 30.0;

/// Events per kernel run.
const STEPS: u64 = 200_000;
const NODES: usize = 64;
/// Distinct lines in the state map.
const LINES: u64 = 1 << 17;

/// Runs the kernel once; returns its host time in milliseconds.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(STEPS)));
    t.elapsed().as_secs_f64() * 1e3
}

fn kernel(steps: u64) -> u64 {
    let mut schedule = BinaryHeap::with_capacity(NODES);
    let mut fifos: Vec<VecDeque<u64>> = vec![VecDeque::new(); NODES];
    let mut lines: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for n in 0..NODES {
        schedule.push(Reverse((n as u64, n)));
    }
    for _ in 0..steps {
        let Reverse((t, n)) = schedule.pop().expect("one event per node");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let state = lines.entry(x % LINES).or_insert(0);
        *state = state.wrapping_add(t);
        let msgs: Vec<u64> = (0..1 + (x >> 62))
            .map(|k| x.rotate_left(k as u32))
            .collect();
        for m in msgs {
            fifos[m as usize % NODES].push_back(m);
        }
        while fifos[n].len() > 4 {
            acc ^= fifos[n].pop_front().expect("non-empty");
        }
        schedule.push(Reverse((t + 1 + (x & 7), n)));
    }
    acc ^ lines.len() as u64
}
