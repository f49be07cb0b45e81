//! Deterministic fault injection for the interconnect.
//!
//! A [`FaultyInterconnect`] wraps any [`Interconnect`] and, driven by a
//! seeded [`FaultPlan`], can **drop**, **duplicate**, or **extra-delay**
//! individual protocol messages. Faults are selected per message by kind,
//! direction, probability, and an optional active cycle window, from a
//! dedicated xoshiro stream — so a `(machine seed, fault seed)` pair always
//! produces the same fault pattern, independent of how many random numbers
//! the workload itself consumes.
//!
//! The wrapper is transparent when no plan is installed: the packet still
//! traverses the wrapped network (occupying switch ports and accumulating
//! queueing) and the caller gets exactly one arrival time. A *dropped*
//! packet also traverses the network — it is lost, not un-sent — but the
//! caller gets no arrival. A *duplicated* packet is sent twice back to
//! back, so the copy pays real contention. A *delayed* packet arrives
//! `delay_cycles` later than the network alone would deliver it.

use ssmp_engine::{Cycle, SimRng};

use crate::Interconnect;

/// Protocol family of a message, used to target faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgKind {
    /// Circulating-Block-Lock queue traffic.
    Cbl,
    /// Read-Interest-Chain (update list) traffic.
    Ric,
    /// Write-Back-Invalidate traffic for shared data blocks.
    WbiData,
    /// WBI traffic for lock blocks (TTS schemes).
    WbiLock,
    /// WBI traffic for the software barrier's release flag.
    WbiFlag,
    /// Hardware barrier messages.
    Barrier,
    /// Hardware semaphore messages.
    Semaphore,
    /// Private-data miss traffic (request, fill, writeback).
    Private,
}

/// Direction of a message relative to the block's home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgDir {
    /// Node to home directory (a request or writeback).
    Request,
    /// Home directory to node (a reply, grant, fill, or push).
    Reply,
    /// Node to node (a forwarded grant or owner-to-owner transfer).
    Peer,
}

/// A fault applied deterministically to one specific message, identified
/// by its per-kind sequence number. The building block of replayable
/// fault schedules: a [`FaultPlan`] logs every probabilistic decision as
/// a `ForcedFault`, and a plan built from that log (with zero
/// probabilities) reproduces the original run exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedFault {
    /// Message kind the fault targets.
    pub kind: MsgKind,
    /// Which message of that kind (0-based, counted over the whole run,
    /// regardless of any kind/direction/window filters).
    pub nth: u64,
    /// What happens to it.
    pub op: FaultOp,
}

/// The fault applied by a [`ForcedFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Lose the message.
    Drop,
    /// Deliver it twice.
    Dup,
    /// Deliver it late by the given number of cycles.
    Delay(Cycle),
}

/// Configuration of a fault plan. Probabilities are per message and must
/// lie in `[0, 1]`; at most one fault is applied to a given message
/// (drop wins over duplicate wins over delay, from a single uniform draw).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault plan's private random stream.
    pub seed: u64,
    /// Probability that a matching message is silently dropped.
    pub drop_prob: f64,
    /// Probability that a matching message is delivered twice.
    pub dup_prob: f64,
    /// Probability that a matching message is delivered late.
    pub delay_prob: f64,
    /// Extra latency applied to delayed messages.
    pub delay_cycles: Cycle,
    /// Restrict faults to these kinds (`None` = all kinds).
    pub kinds: Option<Vec<MsgKind>>,
    /// Restrict faults to these directions (`None` = all directions).
    pub dirs: Option<Vec<MsgDir>>,
    /// Restrict faults to departures in `[start, end)` (`None` = always).
    pub window: Option<(Cycle, Cycle)>,
    /// Guaranteed faults of any kind, applied before the kind/direction/
    /// window filters and the probability draw — the replay half of the
    /// fuzzer's shrinking loop (see [`FaultPlan::log`]), and the one loss
    /// of [`FaultConfig::drop_nth`].
    pub forced: Vec<ForcedFault>,
}

impl FaultConfig {
    /// A plan that applies the given probabilities uniformly to every
    /// message.
    pub fn uniform(seed: u64, drop_prob: f64, dup_prob: f64, delay_prob: f64) -> Self {
        Self {
            seed,
            drop_prob,
            dup_prob,
            delay_prob,
            delay_cycles: 200,
            kinds: None,
            dirs: None,
            window: None,
            forced: Vec::new(),
        }
    }

    /// A plan that replays exactly the given forced faults and nothing
    /// else (all probabilities zero).
    pub fn replay(forced: Vec<ForcedFault>) -> Self {
        let mut c = Self::uniform(0, 0.0, 0.0, 0.0);
        c.forced = forced;
        c
    }

    /// A plan whose only effect is dropping the `n`-th message of `kind`.
    pub fn drop_nth(kind: MsgKind, n: u64) -> Self {
        Self::replay(vec![ForcedFault {
            kind,
            nth: n,
            op: FaultOp::Drop,
        }])
    }

    /// Checks that every probability lies in `[0, 1]`; returns the name of
    /// the first offending field otherwise.
    pub fn validate(&self) -> Result<(), &'static str> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
            ("delay_prob", self.delay_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(name);
            }
        }
        if self.drop_prob + self.dup_prob + self.delay_prob > 1.0 {
            return Err("drop_prob + dup_prob + delay_prob");
        }
        Ok(())
    }
}

/// What the plan decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Lose the message.
    Drop,
    /// Deliver it twice.
    Duplicate,
    /// Deliver it late by the given number of cycles.
    Delay(Cycle),
}

/// Counts of faults injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages inspected by the plan.
    pub inspected: u64,
    /// Messages dropped (including forced drops).
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages delayed.
    pub delayed: u64,
}

/// A seeded, deterministic schedule of message faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SimRng,
    /// Per-kind sequence counters for forced faults (indexed by the kind's
    /// position in the `MsgKind` declaration).
    seq: [u64; 8],
    stats: FaultStats,
    /// Every non-`Deliver` decision taken so far, as a replayable forced
    /// fault. Counters tick for every inspected message whether or not
    /// probabilities fire, so feeding this log back through
    /// [`FaultConfig::replay`] reproduces the run exactly.
    log: Vec<ForcedFault>,
}

fn kind_index(k: MsgKind) -> usize {
    match k {
        MsgKind::Cbl => 0,
        MsgKind::Ric => 1,
        MsgKind::WbiData => 2,
        MsgKind::WbiLock => 3,
        MsgKind::WbiFlag => 4,
        MsgKind::Barrier => 5,
        MsgKind::Semaphore => 6,
        MsgKind::Private => 7,
    }
}

impl FaultPlan {
    /// Builds a plan from a validated configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        debug_assert!(cfg.validate().is_ok(), "invalid fault configuration");
        // Offset the seed so plan 0 and machine seed 0 use distinct streams.
        let rng = SimRng::new(cfg.seed ^ 0xfa17_5eed_c0de_0001);
        Self {
            cfg,
            rng,
            seq: [0; 8],
            stats: FaultStats::default(),
            log: Vec::new(),
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Fault counts so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Every non-`Deliver` decision taken so far, in decision order.
    pub fn log(&self) -> &[ForcedFault] {
        &self.log
    }

    fn matches(&self, kind: MsgKind, dir: MsgDir, depart: Cycle) -> bool {
        if let Some((start, end)) = self.cfg.window {
            if depart < start || depart >= end {
                return false;
            }
        }
        if let Some(kinds) = &self.cfg.kinds {
            if !kinds.contains(&kind) {
                return false;
            }
        }
        if let Some(dirs) = &self.cfg.dirs {
            if !dirs.contains(&dir) {
                return false;
            }
        }
        true
    }

    /// Decides the fate of one message departing at `depart`.
    ///
    /// Consumes exactly one random draw per matching message, so the fault
    /// pattern for a seed is a fixed function of the matching-message
    /// sequence.
    pub fn decide(&mut self, kind: MsgKind, dir: MsgDir, depart: Cycle) -> FaultDecision {
        self.stats.inspected += 1;
        let n = self.seq[kind_index(kind)];
        self.seq[kind_index(kind)] += 1;
        if let Some(f) = self
            .cfg
            .forced
            .iter()
            .find(|f| f.kind == kind && f.nth == n)
        {
            let d = match f.op {
                FaultOp::Drop => FaultDecision::Drop,
                FaultOp::Dup => FaultDecision::Duplicate,
                FaultOp::Delay(extra) => FaultDecision::Delay(extra),
            };
            return self.record(kind, n, d);
        }
        if !self.matches(kind, dir, depart) {
            return FaultDecision::Deliver;
        }
        let u = self.rng.next_f64();
        let d = if u < self.cfg.drop_prob {
            FaultDecision::Drop
        } else if u < self.cfg.drop_prob + self.cfg.dup_prob {
            FaultDecision::Duplicate
        } else if u < self.cfg.drop_prob + self.cfg.dup_prob + self.cfg.delay_prob {
            FaultDecision::Delay(self.cfg.delay_cycles)
        } else {
            return FaultDecision::Deliver;
        };
        self.record(kind, n, d)
    }

    /// Bumps the stats for a non-`Deliver` decision and logs it as a
    /// replayable forced fault.
    fn record(&mut self, kind: MsgKind, nth: u64, d: FaultDecision) -> FaultDecision {
        let op = match d {
            FaultDecision::Drop => {
                self.stats.dropped += 1;
                FaultOp::Drop
            }
            FaultDecision::Duplicate => {
                self.stats.duplicated += 1;
                FaultOp::Dup
            }
            FaultDecision::Delay(extra) => {
                self.stats.delayed += 1;
                FaultOp::Delay(extra)
            }
            FaultDecision::Deliver => unreachable!("record() only takes faults"),
        };
        self.log.push(ForcedFault { kind, nth, op });
        d
    }
}

/// The outcome of sending one message through a [`FaultyInterconnect`]:
/// where (and whether) the primary copy arrives, and the arrival of a
/// duplicate copy if the plan injected one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival cycle of the message; `None` if it was dropped.
    pub arrival: Option<Cycle>,
    /// Arrival cycle of an injected duplicate copy, if any.
    pub duplicate: Option<Cycle>,
    /// The fault decision applied, if a plan is installed (`None` when the
    /// wrapper is transparent). Lets callers observe injected delays, which
    /// are otherwise indistinguishable from network queueing.
    pub fault: Option<FaultDecision>,
}

impl Delivery {
    fn clean(arrival: Cycle) -> Self {
        Self {
            arrival: Some(arrival),
            duplicate: None,
            fault: None,
        }
    }
}

/// An [`Interconnect`] that can lose, repeat, and delay messages according
/// to a [`FaultPlan`]. With no plan installed it behaves exactly like the
/// wrapped network.
#[derive(Debug, Clone)]
pub struct FaultyInterconnect {
    inner: Interconnect,
    plan: Option<FaultPlan>,
    /// Latest arrival already promised per (src, dst) pair. The Ω network
    /// routes a given pair over one path with FIFO port queues, so
    /// same-pair messages can never overtake each other; injected delays
    /// must preserve that (a delayed packet stalls the ones behind it),
    /// or the protocol controllers would observe reorderings no real
    /// network of this class can produce.
    last_arrival: std::collections::BTreeMap<(usize, usize), Cycle>,
}

impl FaultyInterconnect {
    /// Wraps `inner` with no faults: every send arrives exactly once.
    pub fn transparent(inner: Interconnect) -> Self {
        Self {
            inner,
            plan: None,
            last_arrival: std::collections::BTreeMap::new(),
        }
    }

    /// Wraps `inner` with the given fault plan.
    pub fn with_plan(inner: Interconnect, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan: Some(plan),
            last_arrival: std::collections::BTreeMap::new(),
        }
    }

    /// Clamps `t` so the (src, dst) channel stays FIFO, and records it.
    fn fifo(&mut self, src: usize, dst: usize, t: Cycle) -> Cycle {
        let last = self.last_arrival.entry((src, dst)).or_insert(0);
        let t = t.max(*last);
        *last = t;
        t
    }

    /// Sends a classified packet; the plan (if any) decides its fate.
    pub fn send(
        &mut self,
        depart: Cycle,
        src: usize,
        dst: usize,
        words: u32,
        kind: MsgKind,
        dir: MsgDir,
    ) -> Delivery {
        let arrival = self.inner.send(depart, src, dst, words);
        let Some(plan) = &mut self.plan else {
            return Delivery::clean(arrival);
        };
        let decision = plan.decide(kind, dir, depart);
        match decision {
            FaultDecision::Deliver => Delivery {
                arrival: Some(self.fifo(src, dst, arrival)),
                duplicate: None,
                fault: Some(decision),
            },
            FaultDecision::Drop => Delivery {
                arrival: None,
                duplicate: None,
                fault: Some(decision),
            },
            FaultDecision::Duplicate => {
                let copy = self.inner.send(depart, src, dst, words);
                Delivery {
                    arrival: Some(self.fifo(src, dst, arrival)),
                    duplicate: Some(self.fifo(src, dst, copy)),
                    fault: Some(decision),
                }
            }
            FaultDecision::Delay(extra) => Delivery {
                arrival: Some(self.fifo(src, dst, arrival.saturating_add(extra))),
                duplicate: None,
                fault: Some(decision),
            },
        }
    }

    /// Traffic statistics of the wrapped network.
    pub fn stats(&self) -> crate::NetStats {
        self.inner.stats()
    }

    /// Fault counts, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.plan.as_ref().map(|p| p.stats())
    }

    /// The plan's replayable decision log, if a plan is installed.
    pub fn fault_log(&self) -> Option<&[ForcedFault]> {
        self.plan.as_ref().map(|p| p.log())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, Topology};

    fn ideal() -> Interconnect {
        Interconnect::build(Topology::Ideal, 4, NetConfig::default())
    }

    #[test]
    fn transparent_wrapper_always_delivers() {
        let mut f = FaultyInterconnect::transparent(ideal());
        for i in 0..100 {
            let d = f.send(i, 0, 1, 1, MsgKind::Cbl, MsgDir::Request);
            assert!(d.arrival.is_some());
            assert!(d.duplicate.is_none());
            assert!(d.fault.is_none(), "no plan means no fault decision");
        }
        assert!(f.fault_stats().is_none());
    }

    #[test]
    fn probabilities_hit_expected_rates() {
        let plan = FaultPlan::new(FaultConfig::uniform(7, 0.2, 0.2, 0.2));
        let mut f = FaultyInterconnect::with_plan(ideal(), plan);
        let n = 4000u64;
        for i in 0..n {
            f.send(i, 0, 1, 1, MsgKind::Ric, MsgDir::Request);
        }
        let s = f.fault_stats().unwrap();
        assert_eq!(s.inspected, n);
        for (name, count) in [
            ("dropped", s.dropped),
            ("duplicated", s.duplicated),
            ("delayed", s.delayed),
        ] {
            let rate = count as f64 / n as f64;
            assert!(
                (rate - 0.2).abs() < 0.05,
                "{name} rate {rate} far from configured 0.2"
            );
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || {
            let mut plan = FaultPlan::new(FaultConfig::uniform(99, 0.1, 0.1, 0.1));
            (0..500)
                .map(|i| plan.decide(MsgKind::WbiData, MsgDir::Reply, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn forced_drop_hits_exactly_the_nth() {
        let mut plan = FaultPlan::new(FaultConfig::drop_nth(MsgKind::Cbl, 3));
        let fates: Vec<_> = (0..10)
            .map(|i| plan.decide(MsgKind::Cbl, MsgDir::Request, i))
            .collect();
        assert_eq!(fates[3], FaultDecision::Drop);
        assert_eq!(
            fates.iter().filter(|f| **f == FaultDecision::Drop).count(),
            1
        );
        // other kinds are untouched
        assert_eq!(
            plan.decide(MsgKind::Ric, MsgDir::Request, 50),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn kind_and_window_filters_apply() {
        let mut cfg = FaultConfig::uniform(1, 1.0, 0.0, 0.0);
        cfg.kinds = Some(vec![MsgKind::Barrier]);
        cfg.window = Some((100, 200));
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(
            plan.decide(MsgKind::Cbl, MsgDir::Request, 150),
            FaultDecision::Deliver,
            "wrong kind"
        );
        assert_eq!(
            plan.decide(MsgKind::Barrier, MsgDir::Request, 50),
            FaultDecision::Deliver,
            "outside window"
        );
        assert_eq!(
            plan.decide(MsgKind::Barrier, MsgDir::Request, 150),
            FaultDecision::Drop
        );
        assert_eq!(
            plan.decide(MsgKind::Barrier, MsgDir::Request, 200),
            FaultDecision::Deliver,
            "window end is exclusive"
        );
    }

    #[test]
    fn delayed_packets_arrive_later_dropped_never() {
        let mut cfg = FaultConfig::uniform(5, 0.0, 0.0, 1.0);
        cfg.delay_cycles = 500;
        let mut f = FaultyInterconnect::with_plan(ideal(), FaultPlan::new(cfg));
        let base = FaultyInterconnect::transparent(ideal())
            .send(0, 0, 1, 1, MsgKind::Cbl, MsgDir::Request)
            .arrival
            .unwrap();
        let d = f.send(0, 0, 1, 1, MsgKind::Cbl, MsgDir::Request);
        assert_eq!(d.arrival, Some(base + 500));
        assert_eq!(d.fault, Some(FaultDecision::Delay(500)));

        let mut f = FaultyInterconnect::with_plan(
            ideal(),
            FaultPlan::new(FaultConfig::uniform(5, 1.0, 0.0, 0.0)),
        );
        let d = f.send(0, 0, 1, 1, MsgKind::Cbl, MsgDir::Request);
        assert_eq!(d.arrival, None);
    }

    #[test]
    fn delays_preserve_per_pair_fifo_order() {
        // delay the first message by a lot; later same-pair sends must not
        // overtake it (the Ω network is FIFO per path)
        let mut cfg = FaultConfig::uniform(5, 0.0, 0.0, 1.0);
        cfg.delay_cycles = 10_000;
        cfg.window = Some((0, 1)); // only the first send is delayed
        let mut f = FaultyInterconnect::with_plan(ideal(), FaultPlan::new(cfg));
        let first = f
            .send(0, 0, 1, 1, MsgKind::Cbl, MsgDir::Request)
            .arrival
            .unwrap();
        let mut prev = first;
        for i in 1..20 {
            let a = f
                .send(i, 0, 1, 1, MsgKind::Cbl, MsgDir::Request)
                .arrival
                .unwrap();
            assert!(
                a >= prev,
                "send {i} overtook the delayed head: {a} < {prev}"
            );
            prev = a;
        }
        // a different pair is unaffected by the stalled channel
        let other = f
            .send(1, 2, 3, 1, MsgKind::Cbl, MsgDir::Request)
            .arrival
            .unwrap();
        assert!(other < first);
    }

    #[test]
    fn decision_log_replays_identically() {
        // run a probabilistic plan, capture its log, then replay the log
        // through a zero-probability plan: every decision must match
        let msgs: Vec<(MsgKind, MsgDir)> = (0..300)
            .map(|i| match i % 3 {
                0 => (MsgKind::Cbl, MsgDir::Request),
                1 => (MsgKind::Ric, MsgDir::Reply),
                _ => (MsgKind::WbiData, MsgDir::Peer),
            })
            .collect();
        let mut original = FaultPlan::new(FaultConfig::uniform(42, 0.05, 0.1, 0.1));
        let fates: Vec<_> = msgs
            .iter()
            .enumerate()
            .map(|(i, &(k, d))| original.decide(k, d, i as Cycle))
            .collect();
        assert!(!original.log().is_empty(), "seed produced no faults");
        let mut replay = FaultPlan::new(FaultConfig::replay(original.log().to_vec()));
        let replayed: Vec<_> = msgs
            .iter()
            .enumerate()
            .map(|(i, &(k, d))| replay.decide(k, d, i as Cycle))
            .collect();
        assert_eq!(fates, replayed);
        assert_eq!(original.log(), replay.log());
    }

    #[test]
    fn forced_faults_apply_each_op() {
        let cfg = FaultConfig::replay(vec![
            ForcedFault {
                kind: MsgKind::Cbl,
                nth: 1,
                op: FaultOp::Dup,
            },
            ForcedFault {
                kind: MsgKind::Cbl,
                nth: 2,
                op: FaultOp::Delay(77),
            },
            ForcedFault {
                kind: MsgKind::Ric,
                nth: 0,
                op: FaultOp::Drop,
            },
        ]);
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(
            plan.decide(MsgKind::Cbl, MsgDir::Request, 0),
            FaultDecision::Deliver
        );
        assert_eq!(
            plan.decide(MsgKind::Cbl, MsgDir::Request, 1),
            FaultDecision::Duplicate
        );
        assert_eq!(
            plan.decide(MsgKind::Cbl, MsgDir::Request, 2),
            FaultDecision::Delay(77)
        );
        assert_eq!(
            plan.decide(MsgKind::Ric, MsgDir::Reply, 3),
            FaultDecision::Drop
        );
        let s = plan.stats();
        assert_eq!((s.dropped, s.duplicated, s.delayed), (1, 1, 1));
    }

    #[test]
    fn validation_rejects_bad_probabilities() {
        assert!(FaultConfig::uniform(0, 1.5, 0.0, 0.0).validate().is_err());
        assert!(FaultConfig::uniform(0, -0.1, 0.0, 0.0).validate().is_err());
        assert!(FaultConfig::uniform(0, 0.5, 0.4, 0.4).validate().is_err());
        assert!(FaultConfig::uniform(0, 0.3, 0.3, 0.3).validate().is_ok());
    }
}
