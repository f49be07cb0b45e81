//! Microbenchmarks of the simulator substrates: the timing-wheel
//! scheduler under simulator-like load, PRNG, Ω-network routing, and raw
//! protocol transition rates.

use ssmp_bench::Bench;
use ssmp_core::cbl::LockQueue;
use ssmp_core::primitive::LockMode;
use ssmp_core::ric::UpdateList;
use ssmp_engine::{SimRng, WheelQueue};
use ssmp_net::{NetConfig, OmegaNetwork};

fn bench_wheel(b: &Bench) {
    // simulator-like load: mostly near-future events, occasional far ones
    b.run("engine_wheel/simload_10k", || {
        let mut q = WheelQueue::new(64);
        let mut rng = SimRng::new(2);
        for i in 0..10_000u64 {
            let d = if rng.chance(0.95) {
                rng.below(8)
            } else {
                rng.below(500)
            };
            q.schedule_in(d, i);
            if i % 2 == 0 {
                std::hint::black_box(q.pop());
            }
        }
        while q.pop().is_some() {}
    });
}

fn bench_rng(b: &Bench) {
    let mut r = SimRng::new(42);
    b.run("engine_rng/next_u64_100k", || {
        let mut acc = 0u64;
        for _ in 0..100_000 {
            acc = acc.wrapping_add(r.next_u64());
        }
        std::hint::black_box(acc);
    });
}

fn bench_network(b: &Bench) {
    b.run("omega_network/send_10k_64ports", || {
        let mut net = OmegaNetwork::new(64, NetConfig::default());
        let mut rng = SimRng::new(7);
        let mut t = 0;
        for _ in 0..10_000 {
            let s = rng.index(64);
            let d = rng.index(64);
            t = net.send(t, s, d, 4).max(t);
        }
        std::hint::black_box(t);
    });
}

fn bench_protocols(b: &Bench) {
    b.run("protocol_transitions/cbl_1k_lock_cycles", || {
        let mut q = LockQueue::new(4);
        let mut wire = std::collections::VecDeque::new();
        for round in 0..1_000usize {
            let node = round % 8;
            wire.extend(q.request(node, LockMode::Write));
            while let Some(m) = wire.pop_front() {
                let (ms, _) = q.deliver(m);
                wire.extend(ms);
            }
            let (ms, _) = q.release(node);
            wire.extend(ms);
            while let Some(m) = wire.pop_front() {
                let (ms, _) = q.deliver(m);
                wire.extend(ms);
            }
        }
        std::hint::black_box(q.is_quiescent_free());
    });
    b.run("protocol_transitions/ric_1k_write_push_rounds", || {
        let mut u = UpdateList::new(4);
        let mut wire = std::collections::VecDeque::new();
        for n in 0..8 {
            wire.extend(u.read_update(n));
            while let Some(m) = wire.pop_front() {
                let (ms, _) = u.deliver(m);
                wire.extend(ms);
            }
        }
        for i in 0..1_000u64 {
            wire.extend(u.write_global(0, (i % 4) as u8, i, i));
            while let Some(m) = wire.pop_front() {
                let (ms, _) = u.deliver(m);
                wire.extend(ms);
            }
        }
        std::hint::black_box(u.len());
    });
}

fn main() {
    let b = Bench::from_args();
    bench_wheel(&b);
    bench_rng(&b);
    bench_network(&b);
    bench_protocols(&b);
}
