//! Ω-network routing and timing.

use ssmp_engine::Cycle;

use crate::NetError;

/// Timing parameters of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Pipeline latency of one switch stage, in cycles.
    pub switch_delay: Cycle,
    /// Cycles a switch output port is occupied per word of payload.
    pub word_cycles: Cycle,
    /// Switch radix (the paper uses two-way switches; higher radices trade
    /// fewer stages for wider switches). Must be a power of two, and ports
    /// must be a power of it.
    pub radix: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            switch_delay: 1,
            word_cycles: 1,
            radix: 2,
        }
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Total packets injected.
    pub packets: u64,
    /// Total payload words carried.
    pub words: u64,
    /// Sum over packets of (arrival − departure), in cycles.
    pub total_transit: u64,
    /// Sum over packets of queueing delay (transit − uncontended transit).
    pub total_queueing: u64,
    /// Worst single-packet transit (arrival − departure), in cycles — the
    /// network-layer tail that the span tracer's per-transaction `net`
    /// segment decomposes by cause.
    pub max_transit: u64,
}

/// An Ω network connecting `n = radix^stages` ports.
///
/// `send` computes the arrival time of a packet injected at a given cycle,
/// advancing the internal port-reservation state. Self-sends (`src == dst`)
/// bypass the network entirely and arrive instantaneously; the machine model
/// uses this for a node accessing its co-located memory module.
///
/// The paper's network uses two-way switches (radix 2); higher radices
/// trade fewer stages (lower latency) for wider switches — exposed for
/// design-space exploration via [`OmegaNetwork::with_radix`]. The radix
/// must be a power of two, so a destination digit is a bit field and each
/// stage routes by shift and mask.
#[derive(Debug, Clone)]
pub struct OmegaNetwork {
    ports: usize,
    stages: u32,
    radix: usize,
    /// `log2(radix)`: the destination bits one stage consumes.
    digit_bits: u32,
    cfg: NetConfig,
    /// Stage-major: `next_free[stage * ports + port]` is the earliest cycle
    /// the output port is idle.
    next_free: Vec<Cycle>,
    stats: NetStats,
}

impl OmegaNetwork {
    /// Creates a network with `ports` endpoints and the paper's two-way
    /// switches. `ports` must be a power of two and at least 1. A 1-port
    /// network has zero stages (everything is local).
    ///
    /// Panics on an invalid geometry; use [`OmegaNetwork::with_radix`] to
    /// get the error as a value.
    pub fn new(ports: usize, cfg: NetConfig) -> Self {
        Self::with_radix(ports, cfg.radix, cfg).expect("invalid network geometry")
    }

    /// Creates a network of `radix`-way switches; `radix` must be a power
    /// of two and `ports` a power of `radix`.
    pub fn with_radix(ports: usize, radix: usize, cfg: NetConfig) -> Result<Self, NetError> {
        if radix < 2 {
            return Err(NetError::RadixTooSmall { radix });
        }
        if !radix.is_power_of_two() {
            return Err(NetError::RadixNotPowerOfTwo { radix });
        }
        if ports < 1 {
            return Err(NetError::NoPorts);
        }
        let digit_bits = radix.trailing_zeros();
        let port_bits = ports.trailing_zeros();
        if !ports.is_power_of_two() || !port_bits.is_multiple_of(digit_bits) {
            return Err(NetError::NotPowerOfRadix { ports, radix });
        }
        let stages = port_bits / digit_bits;
        Ok(Self {
            ports,
            stages,
            radix,
            digit_bits,
            cfg,
            next_free: vec![0; stages as usize * ports],
            stats: NetStats::default(),
        })
    }

    /// The switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of endpoint ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of switch stages (`log_radix(ports)`).
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// The network configuration.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Uncontended transit latency for a packet of `words` payload words.
    ///
    /// This is the paper's `t_nw` when `words == 1` (a control message).
    pub fn uncontended_transit(&self, words: u32) -> Cycle {
        if self.stages == 0 {
            return 0;
        }
        self.stages as Cycle * self.cfg.switch_delay
            + (words.max(1) as Cycle - 1) * self.cfg.word_cycles
    }

    /// The sequence of `(stage, output_port)` resources a packet from `src`
    /// to `dst` crosses. Exposed for tests and for conflict analysis.
    pub fn route(&self, src: usize, dst: usize) -> Vec<(u32, usize)> {
        let mut hops = Vec::with_capacity(self.stages as usize);
        self.route_into(src, dst, &mut hops);
        hops
    }

    /// [`OmegaNetwork::route`] into a caller-owned buffer (cleared first),
    /// so conflict analysis over many packets reuses one allocation.
    pub fn route_into(&self, src: usize, dst: usize, hops: &mut Vec<(u32, usize)>) {
        assert!(src < self.ports && dst < self.ports);
        hops.clear();
        hops.extend((0..self.stages).zip(self.output_ports(src, dst)));
    }

    /// The output port a packet from `src` to `dst` leaves each stage on,
    /// first stage first. Destination-tag routing over a perfect shuffle:
    /// each stage shifts the address up one digit and brings in the
    /// destination's next digit, most significant first. The iterator
    /// holds copies, not a borrow, so `send` can reserve ports while it
    /// walks them.
    fn output_ports(&self, src: usize, dst: usize) -> impl Iterator<Item = usize> {
        let (bits, digit, mask) = (self.digit_bits, self.radix - 1, self.ports - 1);
        let mut addr = src;
        let mut shift = self.stages * bits;
        (0..self.stages).map(move |_| {
            shift -= bits;
            addr = ((addr << bits) | ((dst >> shift) & digit)) & mask;
            addr
        })
    }

    /// Sends a packet of `words` payload words from port `src` to port `dst`,
    /// departing at cycle `depart`. Returns the arrival cycle at `dst`.
    ///
    /// The per-stage output ports on the route are reserved, so later packets
    /// crossing the same ports queue behind this one.
    pub fn send(&mut self, depart: Cycle, src: usize, dst: usize, words: u32) -> Cycle {
        assert!(src < self.ports && dst < self.ports);
        let words = words.max(1);
        if src == dst || self.stages == 0 {
            // Local: processor to its co-located memory module.
            self.stats.packets += 1;
            return depart;
        }
        let occupancy = words as Cycle * self.cfg.word_cycles;
        let mut head = depart; // time the packet header is ready to enter next stage
        let route = self.output_ports(src, dst);
        for (stage, addr) in self.next_free.chunks_exact_mut(self.ports).zip(route) {
            let port = &mut stage[addr];
            let start = head.max(*port);
            head = start + self.cfg.switch_delay;
            *port = start + occupancy.max(self.cfg.switch_delay);
        }
        // Tail of the packet arrives occupancy-1 word-slots after the header
        // for multi-word packets (cut-through).
        let arrival = head + (words as Cycle - 1) * self.cfg.word_cycles;
        self.stats.packets += 1;
        self.stats.words += words as u64;
        self.stats.total_transit += arrival - depart;
        self.stats.total_queueing +=
            (arrival - depart).saturating_sub(self.uncontended_transit(words));
        self.stats.max_transit = self.stats.max_transit.max(arrival - depart);
        arrival
    }

    /// Resets the reservation state and statistics (the topology persists).
    pub fn reset(&mut self) {
        self.next_free.fill(0);
        self.stats = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn net(ports: usize) -> OmegaNetwork {
        OmegaNetwork::new(ports, NetConfig::default())
    }

    #[test]
    fn stage_count() {
        assert_eq!(net(1).stages(), 0);
        assert_eq!(net(2).stages(), 1);
        assert_eq!(net(16).stages(), 4);
        assert_eq!(net(64).stages(), 6);
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert_eq!(
            OmegaNetwork::with_radix(12, 2, NetConfig::default()).unwrap_err(),
            NetError::NotPowerOfRadix {
                ports: 12,
                radix: 2
            }
        );
        assert_eq!(
            OmegaNetwork::with_radix(0, 2, NetConfig::default()).unwrap_err(),
            NetError::NoPorts
        );
        assert_eq!(
            OmegaNetwork::with_radix(8, 1, NetConfig::default()).unwrap_err(),
            NetError::RadixTooSmall { radix: 1 }
        );
    }

    #[test]
    fn route_terminates_at_destination() {
        for k in [2usize, 4, 8, 16, 32, 64] {
            let n = net(k);
            for s in 0..k {
                for d in 0..k {
                    let hops = n.route(s, d);
                    assert_eq!(hops.len() as u32, n.stages());
                    assert_eq!(hops.last().unwrap().1, d, "src={s} dst={d} n={k}");
                }
            }
        }
    }

    #[test]
    fn route_is_unique_per_stage_port() {
        // In an omega network the (stage, port) pairs of a route are the
        // unique path; two routes to the same destination share a suffix.
        let n = net(8);
        let r1 = n.route(0, 5);
        let r2 = n.route(3, 5);
        assert_eq!(r1.last(), r2.last());
    }

    #[test]
    fn uncontended_latency_matches_formula() {
        let n = net(16);
        assert_eq!(n.uncontended_transit(1), 4);
        assert_eq!(n.uncontended_transit(4), 7);
        let n1 = net(1);
        assert_eq!(n1.uncontended_transit(4), 0);
    }

    #[test]
    fn self_send_is_free() {
        let mut n = net(8);
        assert_eq!(n.send(100, 3, 3, 4), 100);
    }

    #[test]
    fn single_packet_sees_uncontended_latency() {
        let mut n = net(16);
        let arr = n.send(10, 0, 9, 1);
        assert_eq!(arr - 10, n.uncontended_transit(1));
        let mut n = net(16);
        let arr = n.send(10, 0, 9, 4);
        assert_eq!(arr - 10, n.uncontended_transit(4));
    }

    #[test]
    fn max_transit_tracks_the_worst_packet() {
        // A hotspot burst: the first packet sees uncontended latency, the
        // last queues behind all the others — max_transit records it.
        let mut n = net(16);
        let worst = (1..16).map(|s| n.send(0, s, 0, 1)).max().unwrap();
        assert_eq!(n.stats().max_transit, worst);
        assert!(n.stats().max_transit > n.uncontended_transit(1));
    }

    #[test]
    fn hotspot_serialises() {
        // n-1 simultaneous control packets to the same destination must
        // serialise on the final output port: arrivals strictly increase.
        let mut n = net(16);
        let mut arrivals: Vec<Cycle> = (1..16).map(|s| n.send(0, s, 0, 1)).collect();
        assert!(arrivals.is_sorted());
        arrivals.dedup();
        assert_eq!(
            arrivals.len(),
            15,
            "two packets arrived simultaneously at a hotspot"
        );
        // The last arrival reflects ~15 serialised services.
        assert!(*arrivals.last().unwrap() >= 15);
    }

    #[test]
    fn identity_permutation_is_conflict_free() {
        // src==dst bypasses; use the "exchange" permutation dst = src ^ 1,
        // which the omega network passes without conflicts.
        let mut n = net(8);
        let t0 = n.uncontended_transit(1);
        for s in 0..8 {
            let arr = n.send(0, s, s ^ 1, 1);
            assert_eq!(arr, t0, "src {s} was delayed by a conflict");
        }
    }

    #[test]
    fn contention_delays_second_packet() {
        let mut n = net(8);
        let a1 = n.send(0, 1, 0, 4);
        let a2 = n.send(0, 2, 0, 4);
        assert!(a2 > a1);
        // queueing recorded
        assert!(n.stats().total_queueing > 0);
    }

    #[test]
    fn later_departure_not_affected_by_drained_port() {
        let mut n = net(8);
        let _ = n.send(0, 1, 0, 1);
        // long after the port drained: no queueing
        let arr = n.send(1_000, 2, 0, 1);
        assert_eq!(arr - 1_000, n.uncontended_transit(1));
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(8);
        n.send(0, 1, 2, 4);
        n.send(0, 3, 4, 1);
        let s = n.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.words, 5);
        assert!(s.total_transit >= 2 * n.uncontended_transit(1));
    }

    #[test]
    fn reset_clears_state() {
        let mut n = net(8);
        n.send(0, 1, 0, 4);
        n.reset();
        assert_eq!(n.stats().packets, 0);
        let arr = n.send(0, 2, 0, 1);
        assert_eq!(arr, n.uncontended_transit(1));
    }

    #[test]
    fn two_port_network_routes() {
        let mut n = net(2);
        let arr = n.send(0, 0, 1, 1);
        assert_eq!(arr, 1);
    }

    proptest! {
        #[test]
        fn prop_routes_end_at_dst(k in 1u32..7, s in 0usize..64, d in 0usize..64) {
            let ports = 1usize << k;
            let n = net(ports);
            let (s, d) = (s % ports, d % ports);
            let hops = n.route(s, d);
            prop_assert_eq!(hops.last().map(|h| h.1).unwrap_or(s), d);
        }

        #[test]
        fn prop_arrival_after_departure(
            k in 1u32..7,
            sends in proptest::collection::vec((0u64..1000, 0usize..64, 0usize..64, 1u32..8), 1..100),
        ) {
            let ports = 1usize << k;
            let mut n = net(ports);
            let mut sends = sends;
            sends.sort_by_key(|&(t, ..)| t);
            for (t, s, d, w) in sends {
                let (s, d) = (s % ports, d % ports);
                let arr = n.send(t, s, d, w);
                prop_assert!(arr >= t);
                if s != d {
                    prop_assert!(arr >= t + n.uncontended_transit(w));
                }
            }
        }

        #[test]
        fn prop_port_reservations_monotone(
            sends in proptest::collection::vec((0usize..16, 0usize..16, 1u32..8), 2..60),
        ) {
            // Same-cycle sends through shared ports must produce distinct,
            // increasing arrivals on any shared final port.
            let mut n = net(16);
            let mut per_dst: std::collections::HashMap<usize, Vec<Cycle>> = Default::default();
            for (s, d, w) in sends {
                if s == d { continue; }
                let arr = n.send(0, s, d, w);
                per_dst.entry(d).or_default().push(arr);
            }
            for (_, arrs) in per_dst {
                prop_assert!(arrs.is_sorted(), "arrivals at a single port went backwards");
                prop_assert!(arrs.windows(2).all(|w| w[0] != w[1]), "two packets occupied one port simultaneously");
            }
        }
    }
}

#[cfg(test)]
mod radix_tests {
    use super::*;

    #[test]
    fn radix4_stage_count() {
        let n = OmegaNetwork::with_radix(64, 4, NetConfig::default()).unwrap();
        assert_eq!(n.stages(), 3, "64 = 4^3");
        assert_eq!(n.radix(), 4);
        let n = OmegaNetwork::with_radix(16, 4, NetConfig::default()).unwrap();
        assert_eq!(n.stages(), 2);
    }

    #[test]
    fn radix4_rejects_non_powers() {
        assert_eq!(
            OmegaNetwork::with_radix(32, 4, NetConfig::default()).unwrap_err(),
            NetError::NotPowerOfRadix {
                ports: 32,
                radix: 4
            }
        );
    }

    #[test]
    fn radix4_routes_terminate() {
        let n = OmegaNetwork::with_radix(64, 4, NetConfig::default()).unwrap();
        for s in 0..64 {
            for d in 0..64 {
                let hops = n.route(s, d);
                assert_eq!(hops.last().unwrap().1, d, "src={s} dst={d}");
            }
        }
        // Every radix routes by shift and mask, so one that is not a
        // power of two is refused rather than mis-routed.
        assert_eq!(
            OmegaNetwork::with_radix(27, 3, NetConfig::default()).unwrap_err(),
            NetError::RadixNotPowerOfTwo { radix: 3 }
        );
    }

    #[test]
    fn higher_radix_has_lower_uncontended_latency() {
        let r2 = OmegaNetwork::with_radix(64, 2, NetConfig::default()).unwrap();
        let r4 = OmegaNetwork::with_radix(64, 4, NetConfig::default()).unwrap();
        let r8 = OmegaNetwork::with_radix(64, 8, NetConfig::default()).unwrap();
        assert!(r4.uncontended_transit(1) < r2.uncontended_transit(1));
        assert!(r8.uncontended_transit(1) < r4.uncontended_transit(1));
    }

    #[test]
    fn radix4_hotspot_still_serialises() {
        let mut n = OmegaNetwork::with_radix(16, 4, NetConfig::default()).unwrap();
        let arrivals: Vec<Cycle> = (1..16).map(|s| n.send(0, s, 0, 1)).collect();
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]), "{arrivals:?}");
    }

    #[test]
    fn radix2_matches_legacy_constructor() {
        let a = OmegaNetwork::new(32, NetConfig::default());
        let b = OmegaNetwork::with_radix(32, 2, NetConfig::default()).unwrap();
        for s in 0..32 {
            for d in 0..32 {
                assert_eq!(a.route(s, d), b.route(s, d));
            }
        }
    }
}

/// The shift-and-mask route and the flat port table, checked packet for
/// packet against a division-based model with a nested port table.
#[cfg(test)]
mod reference_tests {
    use super::*;
    use proptest::prelude::*;

    /// The division-based Ω model: each stage's digit is
    /// `dst / radix^(stages-1-stage) % radix`, the address is
    /// `(addr * radix + digit) % ports`, and `next_free[stage][port]`
    /// holds the reservations.
    struct Reference {
        ports: usize,
        stages: u32,
        radix: usize,
        cfg: NetConfig,
        next_free: Vec<Vec<Cycle>>,
        stats: NetStats,
    }

    impl Reference {
        fn new(radix: usize, stages: u32, cfg: NetConfig) -> Self {
            let ports = radix.pow(stages);
            Self {
                ports,
                stages,
                radix,
                cfg,
                next_free: vec![vec![0; ports]; stages as usize],
                stats: NetStats::default(),
            }
        }

        fn route(&self, src: usize, dst: usize) -> Vec<(u32, usize)> {
            let r = self.radix;
            let mut addr = src;
            let mut hops = Vec::new();
            for stage in 0..self.stages {
                let digit = (dst / r.pow(self.stages - 1 - stage)) % r;
                addr = (addr * r + digit) % self.ports;
                hops.push((stage, addr));
            }
            hops
        }

        fn uncontended_transit(&self, words: u32) -> Cycle {
            if self.stages == 0 {
                return 0;
            }
            self.stages as Cycle * self.cfg.switch_delay
                + (words.max(1) as Cycle - 1) * self.cfg.word_cycles
        }

        fn send(&mut self, depart: Cycle, src: usize, dst: usize, words: u32) -> Cycle {
            let words = words.max(1);
            if src == dst || self.stages == 0 {
                self.stats.packets += 1;
                return depart;
            }
            let occupancy = words as Cycle * self.cfg.word_cycles;
            let mut head = depart;
            for (stage, addr) in self.route(src, dst) {
                let port = &mut self.next_free[stage as usize][addr];
                let start = head.max(*port);
                head = start + self.cfg.switch_delay;
                *port = start + occupancy.max(self.cfg.switch_delay);
            }
            let arrival = head + (words as Cycle - 1) * self.cfg.word_cycles;
            self.stats.packets += 1;
            self.stats.words += words as u64;
            self.stats.total_transit += arrival - depart;
            self.stats.total_queueing +=
                (arrival - depart).saturating_sub(self.uncontended_transit(words));
            self.stats.max_transit = self.stats.max_transit.max(arrival - depart);
            arrival
        }
    }

    /// Radix 2, 4 and 8 with up to 512 ports: `(radix, stages)`.
    fn geometries() -> impl Iterator<Item = (usize, u32)> {
        [(2usize, 9u32), (4, 4), (8, 3)]
            .into_iter()
            .flat_map(|(r, max)| (0..=max).map(move |k| (r, k)))
    }

    #[test]
    fn every_route_matches_the_reference() {
        let mut hops = Vec::new();
        for (radix, stages) in geometries() {
            let cfg = NetConfig {
                radix,
                ..NetConfig::default()
            };
            let reference = Reference::new(radix, stages, cfg);
            let net = OmegaNetwork::with_radix(reference.ports, radix, cfg).unwrap();
            assert_eq!(net.stages(), stages);
            for src in 0..reference.ports {
                for dst in 0..reference.ports {
                    net.route_into(src, dst, &mut hops);
                    assert_eq!(hops, reference.route(src, dst), "r={radix} {src}->{dst}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random packet streams with nondecreasing departures, as the
        /// machine sends them, half of them to a hot spot at port 0 so
        /// packets queue at every stage: equal arrivals and equal
        /// statistics.
        #[test]
        fn send_matches_the_reference(
            pick in 0usize..1000,
            switch_delay in 1u64..4,
            word_cycles in 1u64..4,
            sends in proptest::collection::vec(
                (0u64..3, 0usize..512, (proptest::bool::ANY, 0usize..512), 1u32..=5),
                1..200,
            ),
        ) {
            let all: Vec<_> = geometries().collect();
            let (radix, stages) = all[pick % all.len()];
            let cfg = NetConfig { switch_delay, word_cycles, radix };
            let mut reference = Reference::new(radix, stages, cfg);
            let ports = reference.ports;
            let mut net = OmegaNetwork::with_radix(ports, radix, cfg).unwrap();
            let mut depart = 0;
            for (gap, src, (hot, dst), words) in sends {
                depart += gap;
                let (src, dst) = (src % ports, if hot { 0 } else { dst % ports });
                prop_assert_eq!(
                    net.send(depart, src, dst, words),
                    reference.send(depart, src, dst, words),
                    "{} -> {} at {}", src, dst, depart
                );
            }
            prop_assert_eq!(net.stats(), reference.stats);
        }
    }
}
