//! # ssmp-net
//!
//! Model of the multistage **Ω (omega) interconnection network** the paper
//! simulates: "the nodes are interconnected via a multistage Ω network with
//! two-way switches. It is assumed that each switching element in the network
//! has infinite buffer capacity."
//!
//! An Ω network for `n = 2^k` ports has `k` stages of `n/2` two-input/
//! two-output switches, with a perfect-shuffle interconnection between
//! stages. Routing is *destination-tag*: at stage `i` a packet exits on the
//! switch output selected by bit `k-1-i` of the destination address. With
//! `r`-way switches ([`NetConfig::radix`], a power of two) a stage consumes
//! the next `log2(r)` bits instead, so every stage's output port is a shift
//! and a mask of the address, never a division.
//!
//! ## Contention model
//!
//! Because buffers are infinite, packets are never dropped; contention
//! manifests purely as queueing delay. We model every switch *output port*
//! as a unit-service resource with a `next_free` time. A packet of `w` words
//! occupies each output port it crosses for `w × word_cycles` cycles, and
//! experiences `switch_delay` pipeline latency per stage. This
//! resource-reservation formulation gives the same arrival times an
//! event-per-hop simulation would, at a fraction of the cost, and it is
//! exact for the paper's infinite-buffer assumption as long as packets that
//! share a port are serialised in arrival order — which the machine
//! simulator guarantees by sending packets in event order.
//!
//! The memory modules are distributed among the nodes (paper §5.2), so port
//! `p` carries both node `p`'s processor traffic and the traffic of the
//! memory module it hosts.

#![warn(missing_docs)]

pub mod bus;
pub mod fault;
pub mod omega;

pub use bus::{BusNetwork, IdealNetwork};
pub use fault::{
    Delivery, FaultConfig, FaultDecision, FaultOp, FaultPlan, FaultStats, FaultyInterconnect,
    ForcedFault, MsgDir, MsgKind,
};
pub use omega::{NetConfig, NetStats, OmegaNetwork};

/// Errors constructing a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The switch radix must be at least 2.
    RadixTooSmall {
        /// The offending radix.
        radix: usize,
    },
    /// The switch radix must be a power of two (each stage routes on a
    /// bit field of the destination).
    RadixNotPowerOfTwo {
        /// The offending radix.
        radix: usize,
    },
    /// A network needs at least one port.
    NoPorts,
    /// The port count must be a power of the switch radix.
    NotPowerOfRadix {
        /// The offending port count.
        ports: usize,
        /// The switch radix.
        radix: usize,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::RadixTooSmall { radix } => {
                write!(f, "switch radix must be at least 2, got {radix}")
            }
            NetError::RadixNotPowerOfTwo { radix } => {
                write!(f, "switch radix must be a power of two, got {radix}")
            }
            NetError::NoPorts => write!(f, "network needs at least one port"),
            NetError::NotPowerOfRadix { ports, radix } => write!(
                f,
                "ports must be a power of the switch radix {radix}, got {ports}"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// Which interconnect a machine uses (paper §1 compares the scalability of
/// buses vs. multistage networks; Ideal isolates protocol behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The paper's multistage Ω network.
    Omega,
    /// A single shared bus (the §1 non-scalable baseline).
    Bus,
    /// Fixed-latency, contention-free (protocol-isolation runs).
    Ideal,
}

/// A runtime-selected interconnect with a uniform `send` interface.
#[derive(Debug, Clone)]
pub enum Interconnect {
    /// Multistage Ω network.
    Omega(OmegaNetwork),
    /// Shared bus.
    Bus(BusNetwork),
    /// Ideal network.
    Ideal(IdealNetwork),
}

impl Interconnect {
    /// Builds the chosen topology over `ports` endpoints.
    ///
    /// Panics on an invalid geometry; see [`Interconnect::try_build`].
    pub fn build(topology: Topology, ports: usize, cfg: NetConfig) -> Self {
        Self::try_build(topology, ports, cfg).expect("invalid network geometry")
    }

    /// Builds the chosen topology, reporting an invalid geometry as an
    /// error instead of panicking.
    pub fn try_build(topology: Topology, ports: usize, cfg: NetConfig) -> Result<Self, NetError> {
        if ports < 1 {
            return Err(NetError::NoPorts);
        }
        Ok(match topology {
            Topology::Omega => {
                Interconnect::Omega(OmegaNetwork::with_radix(ports, cfg.radix, cfg)?)
            }
            Topology::Bus => {
                Interconnect::Bus(BusNetwork::new(ports, cfg.switch_delay, cfg.word_cycles))
            }
            Topology::Ideal => Interconnect::Ideal(IdealNetwork::new(
                ports,
                // match the omega's uncontended control latency
                (ports.max(2).ilog2() as u64) * cfg.switch_delay,
            )),
        })
    }

    /// Sends a packet, returning its arrival time.
    pub fn send(
        &mut self,
        depart: ssmp_engine::Cycle,
        src: usize,
        dst: usize,
        words: u32,
    ) -> ssmp_engine::Cycle {
        match self {
            Interconnect::Omega(n) => n.send(depart, src, dst, words),
            Interconnect::Bus(n) => n.send(depart, src, dst, words),
            Interconnect::Ideal(n) => n.send(depart, src, dst, words),
        }
    }

    /// Traffic statistics.
    pub fn stats(&self) -> NetStats {
        match self {
            Interconnect::Omega(n) => n.stats(),
            Interconnect::Bus(n) => n.stats(),
            Interconnect::Ideal(n) => n.stats(),
        }
    }
}
