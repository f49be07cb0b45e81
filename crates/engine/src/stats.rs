//! Statistics collection: counters and histograms.
//!
//! The paper's evaluation reports completion time in machine cycles and
//! reasons extensively about *message counts* (Table 3 compares WBI and CBL
//! by messages and time). Components therefore bump named counters as they
//! operate; experiment harnesses read them back to regenerate the tables.
//!
//! Counters are keyed by `&'static str` names but stored densely: the
//! `counters!` table below generates both the canonical key constants and a
//! [`CounterId`] enum, so a bump is an array index instead of a `BTreeMap`
//! lookup. The table is listed in sorted key order (checked by a test), so
//! iteration is deterministic and byte-identical to the old map-backed
//! store: a `touched` bitmask reproduces its "only ever-bumped keys appear"
//! reporting semantics.

use std::fmt;

/// Generates the `keys` constants, the dense [`CounterId`] enum, and the
/// name⇄id tables from one list of counters. Entries MUST be in sorted
/// key order (asserted by a unit test) so that ordinal order equals name
/// order and reports iterate identically to a sorted map.
macro_rules! counters {
    ($( $(#[$doc:meta])* $variant:ident, $konst:ident => $key:literal; )+) => {
        pub mod keys {
            //! Canonical counter-key names.
            //!
            //! Every component that bumps a counter and every reader that
            //! consumes one goes through these constants, so a typo cannot
            //! silently split a counter into two names. Keys are dotted
            //! paths grouped by subsystem; `msg.*` keys double as the
            //! `detail` field of trace events, keeping counters and traces
            //! aligned.

            $( $(#[$doc])* pub const $konst: &str = $key; )+

            /// Prefix of all interconnect message counters.
            pub const MSG_PREFIX: &str = "msg.";
            /// Prefix of CBL protocol message counters.
            pub const MSG_CBL_PREFIX: &str = "msg.cbl.";
            /// Prefix of WBI protocol message counters.
            pub const MSG_WBI_PREFIX: &str = "msg.wbi.";
            /// Prefix of RIC protocol message counters.
            pub const MSG_RIC_PREFIX: &str = "msg.ric.";
            /// Prefix of snooping-MESI protocol message counters.
            pub const MSG_MESI_PREFIX: &str = "msg.mesi.";
            /// Prefix of Dragon protocol message counters.
            pub const MSG_DRAGON_PREFIX: &str = "msg.dragon.";
            /// Prefix of hardware-barrier message counters.
            pub const MSG_BAR_PREFIX: &str = "msg.bar.";
        }

        /// Dense index of every counter key — one variant per entry of the
        /// `counters!` table, in sorted key order. Hot paths bump by id
        /// (an array index); names are recovered via [`CounterId::name`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum CounterId {
            $( $(#[$doc])* $variant, )+
        }

        impl CounterId {
            /// Key names, in the same (sorted) order as the variants.
            const NAMES: &'static [&'static str] = &[ $( $key, )+ ];

            /// Every counter id, in variant (= sorted key) order.
            pub const ALL: &'static [CounterId] = &[ $( CounterId::$variant, )+ ];

            /// Number of counters.
            pub const COUNT: usize = Self::NAMES.len();
        }
    };
}

counters! {
    /// Hardware barrier episode passed.
    BarrierHwPassed, BARRIER_HW_PASSED => "barrier.hw.passed";
    /// Software barrier arrival.
    BarrierSwArrive, BARRIER_SW_ARRIVE => "barrier.sw.arrive";
    /// Software barrier notify write.
    BarrierSwNotify, BARRIER_SW_NOTIFY => "barrier.sw.notify";
    /// Software barrier episode passed.
    BarrierSwPassed, BARRIER_SW_PASSED => "barrier.sw.passed";
    /// Dragon owner copy downgraded to shared-clean (read elsewhere).
    DragonDowngraded, DRAGON_DOWNGRADED => "dragon.downgraded";
    /// Dragon multicast update applied at a sharer's copy.
    DragonUpdateApplied, DRAGON_UPDATE_APPLIED => "dragon.update_applied";
    /// Write-buffer flush forced by CP-Synch semantics.
    FlushBeforeCpSynch, FLUSH_BEFORE_CP_SYNCH => "flush.before_cp_synch";
    /// Explicit FlushBuffer op completed.
    FlushExplicit, FLUSH_EXPLICIT => "flush.explicit";
    /// CBL lock granted to a requester.
    LockCblGranted, LOCK_CBL_GRANTED => "lock.cbl.granted";
    /// CBL release completed at home memory.
    LockCblReleaseComplete, LOCK_CBL_RELEASE_COMPLETE => "lock.cbl.release_complete";
    /// CBL release forwarded down the chain.
    LockCblReleaseForwarded, LOCK_CBL_RELEASE_FORWARDED => "lock.cbl.release_forwarded";
    /// CBL re-request issued after a bounce.
    LockCblRerequestWait, LOCK_CBL_REREQUEST_WAIT => "lock.cbl.rerequest_wait";
    /// Test&test&set lock acquired.
    LockTtsAcquired, LOCK_TTS_ACQUIRED => "lock.tts.acquired";
    /// Test&set observed the lock held.
    LockTtsFailedTs, LOCK_TTS_FAILED_TS => "lock.tts.failed_ts";
    /// Test&test&set release hit locally.
    LockTtsReleaseLocal, LOCK_TTS_RELEASE_LOCAL => "lock.tts.release_local";
    /// Test&test&set release went remote.
    LockTtsReleaseRemote, LOCK_TTS_RELEASE_REMOTE => "lock.tts.release_remote";
    /// Test&test&set local spin iteration.
    LockTtsSpin, LOCK_TTS_SPIN => "lock.tts.spin";
    /// Test&set attempt issued.
    LockTtsTestAndSet, LOCK_TTS_TEST_AND_SET => "lock.tts.test_and_set";
    /// MESI owner line downgraded to shared (read elsewhere).
    MesiDowngraded, MESI_DOWNGRADED => "mesi.downgraded";
    /// MESI invalidation applied at a cache.
    MesiInvalidated, MESI_INVALIDATED => "mesi.invalidated";
    /// Hardware barrier arrival acknowledgement.
    MsgBarAck, MSG_BAR_ACK => "msg.bar.ack";
    /// Hardware barrier arrival.
    MsgBarArrive, MSG_BAR_ARRIVE => "msg.bar.arrive";
    /// Hardware barrier release broadcast.
    MsgBarRelease, MSG_BAR_RELEASE => "msg.bar.release";
    /// CBL request bounced (queue hand-off race).
    MsgCblBounce, MSG_CBL_BOUNCE => "msg.cbl.bounce";
    /// CBL requester spliced into the queue.
    MsgCblEnqueued, MSG_CBL_ENQUEUED => "msg.cbl.enqueued";
    /// CBL request forwarded to the current tail.
    MsgCblForward, MSG_CBL_FORWARD => "msg.cbl.forward";
    /// CBL grant handed down the waiting chain.
    MsgCblGrantChain, MSG_CBL_GRANT_CHAIN => "msg.cbl.grant_chain";
    /// CBL grant issued by home memory.
    MsgCblGrantMem, MSG_CBL_GRANT_MEM => "msg.cbl.grant_mem";
    /// CBL release sent to home memory.
    MsgCblRelease, MSG_CBL_RELEASE => "msg.cbl.release";
    /// CBL release acknowledged.
    MsgCblReleaseAck, MSG_CBL_RELEASE_ACK => "msg.cbl.release_ack";
    /// CBL lock request to home memory.
    MsgCblRequest, MSG_CBL_REQUEST => "msg.cbl.request";
    /// CBL queue splice message.
    MsgCblSplice, MSG_CBL_SPLICE => "msg.cbl.splice";
    /// Dragon fetch forwarded to the exclusive owner.
    MsgDragonFetch, MSG_DRAGON_FETCH => "msg.dragon.fetch";
    /// Dragon fetch raced a vanished line; memory already current.
    MsgDragonFetchMiss, MSG_DRAGON_FETCH_MISS => "msg.dragon.fetch_miss";
    /// Dragon exclusive-clean fill (sole reader).
    MsgDragonFillExcl, MSG_DRAGON_FILL_EXCL => "msg.dragon.fill_excl";
    /// Dragon shared-clean fill.
    MsgDragonFillShared, MSG_DRAGON_FILL_SHARED => "msg.dragon.fill_shared";
    /// Dragon owner-to-home data transfer.
    MsgDragonOwnerData, MSG_DRAGON_OWNER_DATA => "msg.dragon.owner_data";
    /// Dragon read miss to home memory.
    MsgDragonRd, MSG_DRAGON_RD => "msg.dragon.rd";
    /// Dragon word update to home memory (write hit on a shared copy).
    MsgDragonUpd, MSG_DRAGON_UPD => "msg.dragon.upd";
    /// Dragon update acknowledged by a sharer.
    MsgDragonUpdAck, MSG_DRAGON_UPD_ACK => "msg.dragon.upd_ack";
    /// Dragon update complete, back to the writer.
    MsgDragonUpdDone, MSG_DRAGON_UPD_DONE => "msg.dragon.upd_done";
    /// Dragon write miss: fill plus word update in one transaction.
    MsgDragonUpdFill, MSG_DRAGON_UPD_FILL => "msg.dragon.upd_fill";
    /// Dragon update multicast to a sharer's copy.
    MsgDragonUpdPush, MSG_DRAGON_UPD_PUSH => "msg.dragon.upd_push";
    /// MESI bus read (read miss).
    MsgMesiBusRd, MSG_MESI_BUS_RD => "msg.mesi.bus_rd";
    /// MESI bus read-exclusive (write miss).
    MsgMesiBusRdx, MSG_MESI_BUS_RDX => "msg.mesi.bus_rdx";
    /// MESI bus upgrade (write hit on a shared copy).
    MsgMesiBusUpgr, MSG_MESI_BUS_UPGR => "msg.mesi.bus_upgr";
    /// MESI exclusive data reply.
    MsgMesiDataExcl, MSG_MESI_DATA_EXCL => "msg.mesi.data_excl";
    /// MESI exclusive-clean data reply (sole reader, 'E' grant).
    MsgMesiDataExclClean, MSG_MESI_DATA_EXCL_CLEAN => "msg.mesi.data_excl_clean";
    /// MESI shared data reply.
    MsgMesiDataShared, MSG_MESI_DATA_SHARED => "msg.mesi.data_shared";
    /// MESI fetch forwarded to the owner.
    MsgMesiFetch, MSG_MESI_FETCH => "msg.mesi.fetch";
    /// MESI fetch raced a vanished line; memory already current.
    MsgMesiFetchMiss, MSG_MESI_FETCH_MISS => "msg.mesi.fetch_miss";
    /// MESI snoop invalidation (broadcast to every other node).
    MsgMesiInv, MSG_MESI_INV => "msg.mesi.inv";
    /// MESI snoop invalidation acknowledged.
    MsgMesiInvAck, MSG_MESI_INV_ACK => "msg.mesi.inv_ack";
    /// MESI owner-to-home data transfer.
    MsgMesiOwnerData, MSG_MESI_OWNER_DATA => "msg.mesi.owner_data";
    /// MESI ownership-only upgrade grant.
    MsgMesiUpgradeAck, MSG_MESI_UPGRADE_ACK => "msg.mesi.upgrade_ack";
    /// Private-memory miss traffic (request or fill).
    MsgPriv, MSG_PRIV => "msg.priv";
    /// RIC update-list head change.
    MsgRicHeadChange, MSG_RIC_HEAD_CHANGE => "msg.ric.head_change";
    /// RIC global read (bypassing cache).
    MsgRicReadGlobal, MSG_RIC_READ_GLOBAL => "msg.ric.read_global";
    /// RIC global read reply.
    MsgRicReadGlobalReply, MSG_RIC_READ_GLOBAL_REPLY => "msg.ric.read_global_reply";
    /// RIC read reply with data.
    MsgRicReadReply, MSG_RIC_READ_REPLY => "msg.ric.read_reply";
    /// RIC read that joins the update list.
    MsgRicReadUpdate, MSG_RIC_READ_UPDATE => "msg.ric.read_update";
    /// RIC update-list splice.
    MsgRicSplice, MSG_RIC_SPLICE => "msg.ric.splice";
    /// RIC update pushed to a list member.
    MsgRicUpdatePush, MSG_RIC_UPDATE_PUSH => "msg.ric.update_push";
    /// RIC write acknowledgement.
    MsgRicWriteAck, MSG_RIC_WRITE_ACK => "msg.ric.write_ack";
    /// RIC global write to home memory.
    MsgRicWriteGlobal, MSG_RIC_WRITE_GLOBAL => "msg.ric.write_global";
    /// Semaphore grant.
    MsgSemGrant, MSG_SEM_GRANT => "msg.sem.grant";
    /// Semaphore P request.
    MsgSemP, MSG_SEM_P => "msg.sem.p";
    /// Semaphore V request.
    MsgSemV, MSG_SEM_V => "msg.sem.v";
    /// Semaphore V acknowledgement.
    MsgSemVAck, MSG_SEM_V_ACK => "msg.sem.v_ack";
    /// WBI data reply, exclusive state.
    MsgWbiDataExcl, MSG_WBI_DATA_EXCL => "msg.wbi.data_excl";
    /// WBI data reply, exclusive-clean state.
    MsgWbiDataExclClean, MSG_WBI_DATA_EXCL_CLEAN => "msg.wbi.data_excl_clean";
    /// WBI data reply, shared state.
    MsgWbiDataShared, MSG_WBI_DATA_SHARED => "msg.wbi.data_shared";
    /// WBI fetch (exclusive) forwarded to owner.
    MsgWbiFetchExcl, MSG_WBI_FETCH_EXCL => "msg.wbi.fetch_excl";
    /// WBI fetch (shared) forwarded to owner.
    MsgWbiFetchShared, MSG_WBI_FETCH_SHARED => "msg.wbi.fetch_shared";
    /// WBI invalidation request.
    MsgWbiInv, MSG_WBI_INV => "msg.wbi.inv";
    /// WBI invalidation acknowledgement.
    MsgWbiInvAck, MSG_WBI_INV_ACK => "msg.wbi.inv_ack";
    /// WBI owner-to-requester data transfer.
    MsgWbiOwnerData, MSG_WBI_OWNER_DATA => "msg.wbi.owner_data";
    /// WBI read request.
    MsgWbiReadReq, MSG_WBI_READ_REQ => "msg.wbi.read_req";
    /// WBI write-back race resolution message.
    MsgWbiWbRace, MSG_WBI_WB_RACE => "msg.wbi.wb_race";
    /// WBI write-back to memory.
    MsgWbiWriteBack, MSG_WBI_WRITE_BACK => "msg.wbi.write_back";
    /// WBI write (ownership) request.
    MsgWbiWriteReq, MSG_WBI_WRITE_REQ => "msg.wbi.write_req";
    /// Duplicate delivery suppressed by wire-id dedup.
    NetDedup, NET_DEDUP => "net.dedup";
    /// Private miss fill completed.
    PrivFill, PRIV_FILL => "priv.fill";
    /// Private cache hit.
    PrivHit, PRIV_HIT => "priv.hit";
    /// Private cache miss.
    PrivMiss, PRIV_MISS => "priv.miss";
    /// Private dirty-line writeback.
    PrivWriteback, PRIV_WRITEBACK => "priv.writeback";
    /// Retry budget exhausted for a request.
    RetryExhausted, RETRY_EXHAUSTED => "retry.exhausted";
    /// Timed-out request retransmitted.
    RetryRetransmit, RETRY_RETRANSMIT => "retry.retransmit";
    /// RIC update applied at a list member.
    RicUpdateApplied, RIC_UPDATE_APPLIED => "ric.update_applied";
    /// RIC update dropped (member no longer caching).
    RicUpdateDropped, RIC_UPDATE_DROPPED => "ric.update_dropped";
    /// Semaphore acquired (P granted).
    SemAcquired, SEM_ACQUIRED => "sem.acquired";
    /// Semaphore P issued.
    SemP, SEM_P => "sem.p";
    /// Semaphore V issued.
    SemV, SEM_V => "sem.v";
    /// Shared read served globally (uncached).
    SharedReadGlobal, SHARED_READ_GLOBAL => "shared.read.global";
    /// Shared read hit in cache.
    SharedReadHit, SHARED_READ_HIT => "shared.read.hit";
    /// Shared read missed in cache.
    SharedReadMiss, SHARED_READ_MISS => "shared.read.miss";
    /// Spin iteration on a global location.
    SharedSpinGlobal, SHARED_SPIN_GLOBAL => "shared.spin_global";
    /// Shared write performed globally (uncached).
    SharedWriteGlobal, SHARED_WRITE_GLOBAL => "shared.write.global";
    /// Shared write hit in cache.
    SharedWriteHit, SHARED_WRITE_HIT => "shared.write.hit";
    /// Shared write missed in cache.
    SharedWriteMiss, SHARED_WRITE_MISS => "shared.write.miss";
    /// Watchdog declared a deadlock / budget exhaustion.
    WatchdogFired, WATCHDOG_FIRED => "watchdog.fired";
    /// WBI directory evicted an entry.
    WbiDirEvictions, WBI_DIR_EVICTIONS => "wbi.dir_evictions";
    /// WBI exclusive line downgraded to shared.
    WbiDowngraded, WBI_DOWNGRADED => "wbi.downgraded";
    /// WBI invalidation applied at a cache.
    WbiInvalidated, WBI_INVALIDATED => "wbi.invalidated";
    /// Write-buffer entry acknowledged.
    WbufAcked, WBUF_ACKED => "wbuf.acked";
    /// Processor stalled on a full write buffer.
    WbufFullStall, WBUF_FULL_STALL => "wbuf.full_stall";
    /// Write-buffer entry issued to the network.
    WbufIssued, WBUF_ISSUED => "wbuf.issued";
}

// The touched bitmask below is a u128; the table must fit.
const _: () = assert!(CounterId::COUNT <= 128);

impl CounterId {
    /// The canonical key name for this counter.
    #[inline]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Looks a key name up by binary search (the table is sorted).
    pub fn from_name(name: &str) -> Option<CounterId> {
        Self::NAMES
            .binary_search_by(|probe| (**probe).cmp(name))
            .ok()
            .map(|i| Self::ALL[i])
    }
}

/// A set of named monotone counters, stored densely: one `u64` slot per
/// [`CounterId`] plus a bitmask of counters that were ever bumped, so that
/// iteration (and therefore report/JSON output) lists exactly the counters
/// a map-backed store would — in the same sorted order, since variant
/// order equals name order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet {
    values: [u64; CounterId::COUNT],
    touched: u128,
}

impl Default for CounterSet {
    fn default() -> Self {
        Self {
            values: [0; CounterId::COUNT],
            touched: 0,
        }
    }
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `id`.
    #[inline]
    pub fn add_id(&mut self, id: CounterId, by: u64) {
        self.values[id as usize] += by;
        self.touched |= 1u128 << (id as u32);
    }

    /// Increments counter `id` by one.
    #[inline]
    pub fn bump_id(&mut self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Reads counter `name` (0 if never bumped or unknown).
    pub fn get(&self, name: &str) -> u64 {
        CounterId::from_name(name).map_or(0, |id| self.values[id as usize])
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        CounterId::ALL
            .iter()
            .filter(|id| id.name().starts_with(prefix))
            .map(|&id| self.values[id as usize])
            .sum()
    }

    /// Iterates `(name, value)` pairs of ever-bumped counters in
    /// deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterId::ALL
            .iter()
            .filter(move |&&id| self.touched >> (id as u32) & 1 == 1)
            .map(move |&id| (id.name(), self.values[id as usize]))
    }

    /// Merges another counter set into this one (summing matching names).
    pub fn merge(&mut self, other: &CounterSet) {
        self.touched |= other.touched;
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b;
        }
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<40} {v:>14}")?;
        }
        Ok(())
    }
}

/// Power-of-two bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples `x` with `floor(log2(x+1)) == i`, i.e. bucket 0
/// holds `x == 0`, bucket 1 holds `1..=2`, bucket 2 holds `3..=6`, and so on.
/// Good enough for latency distributions at simulator cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: u64) {
        let b = 64 - (x + 1).leading_zeros().min(63) as usize - 1;
        self.buckets[b.min(63)] += 1;
        self.count += 1;
        self.sum += x as u128;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples (`None` if empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate quantile: returns the *upper bound* of the bucket in which
    /// the `q`-quantile sample falls. `q` in `[0, 1]`.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // upper bound of bucket i is 2^(i+1) - 2 (inclusive)
                return Some((1u64 << (i + 1)).saturating_sub(2));
            }
        }
        Some(u64::MAX)
    }

    /// Median bound — see [`Histogram::quantile_bound`] (`None` if empty).
    pub fn p50(&self) -> Option<u64> {
        self.quantile_bound(0.50)
    }

    /// 95th-percentile bound (`None` if empty).
    pub fn p95(&self) -> Option<u64> {
        self.quantile_bound(0.95)
    }

    /// 99th-percentile bound (`None` if empty).
    pub fn p99(&self) -> Option<u64> {
        self.quantile_bound(0.99)
    }

    /// 99.9th-percentile bound (`None` if empty) — the tail-latency
    /// quantile the span layer reports per transaction type.
    pub fn p999(&self) -> Option<u64> {
        self.quantile_bound(0.999)
    }

    /// Raw bucket counts (64 power-of-two buckets).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Exact nearest-rank quantile over an ascending-sorted slice: the
/// smallest value with at least `ceil(q·n)` observations at or below it.
/// Returns 0 for an empty slice.
///
/// This is the one exact-percentile definition shared by the span layer's
/// per-type latency quantiles and the diff engine's distribution
/// comparison — unlike [`Histogram::quantile_bound`], which returns the
/// power-of-two *bucket upper bound* the quantile sample falls in.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let mut c = CounterSet::new();
        c.bump_id(CounterId::MsgCblRequest);
        c.add_id(CounterId::MsgCblRequest, 2);
        c.bump_id(CounterId::MsgCblRelease);
        assert_eq!(c.get(keys::MSG_CBL_REQUEST), 3);
        assert_eq!(c.get(keys::MSG_CBL_RELEASE), 1);
        assert_eq!(c.get("absent"), 0);
        assert_eq!(c.sum_prefix(keys::MSG_CBL_PREFIX), 4);
        let listed: Vec<_> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(listed, vec![keys::MSG_CBL_RELEASE, keys::MSG_CBL_REQUEST]);
    }

    #[test]
    fn counters_merge() {
        let mut a = CounterSet::new();
        a.add_id(CounterId::PrivHit, 2);
        let mut b = CounterSet::new();
        b.add_id(CounterId::PrivHit, 3);
        b.add_id(CounterId::PrivMiss, 1);
        a.merge(&b);
        assert_eq!(a.get(keys::PRIV_HIT), 5);
        assert_eq!(a.get(keys::PRIV_MISS), 1);
        // merge must not surface counters neither side ever bumped
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn counter_display_lists_all() {
        let mut c = CounterSet::new();
        c.add_id(CounterId::WbufIssued, 1);
        c.add_id(CounterId::WbufAcked, 2);
        let s = format!("{c}");
        assert!(s.contains(keys::WBUF_ISSUED) && s.contains(keys::WBUF_ACKED));
    }

    #[test]
    fn counter_table_is_sorted_and_distinct() {
        // the dense store relies on variant order == sorted name order so
        // iteration matches what the old BTreeMap produced
        assert_eq!(CounterId::ALL.len(), CounterId::COUNT);
        for w in CounterId::ALL.windows(2) {
            assert!(
                w[0].name() < w[1].name(),
                "counters! table out of order: '{}' before '{}'",
                w[0].name(),
                w[1].name()
            );
        }
    }

    #[test]
    fn counter_id_name_roundtrip() {
        for &id in CounterId::ALL {
            assert_eq!(CounterId::from_name(id.name()), Some(id));
            assert_eq!(id.name(), CounterId::ALL[id as usize].name());
        }
        assert_eq!(CounterId::from_name("msg."), None);
        assert_eq!(CounterId::from_name(""), None);
    }

    #[test]
    fn untouched_counters_do_not_iterate() {
        let mut c = CounterSet::new();
        assert_eq!(c.iter().count(), 0);
        c.bump_id(CounterId::NetDedup);
        let listed: Vec<_> = c.iter().collect();
        assert_eq!(listed, vec![(keys::NET_DEDUP, 1)]);
        assert_eq!(c.get(keys::NET_DEDUP), 1);
    }

    #[test]
    fn histogram_buckets_boundaries() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 1
        h.record(3); // bucket 2
        h.record(6); // bucket 2
        h.record(7); // bucket 3
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        for x in [10, 20, 30] {
            h.record(x);
        }
        assert_eq!(h.mean(), Some(20.0));
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let mut h = Histogram::new();
        for x in 0..1000u64 {
            h.record(x);
        }
        let q50 = h.quantile_bound(0.5).unwrap();
        let q99 = h.quantile_bound(0.99).unwrap();
        assert!(q50 <= q99);
        assert!(q50 >= 499 / 2, "median bound too low: {q50}");
        assert!(h.quantile_bound(0.0).is_some());
    }

    #[test]
    fn histogram_named_percentiles() {
        let mut h = Histogram::new();
        for x in 0..1000u64 {
            h.record(x);
        }
        let (p50, p95, p99) = (h.p50().unwrap(), h.p95().unwrap(), h.p99().unwrap());
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 >= 499, "median bound must cover the true median");
        assert!(p99 >= 989, "p99 bound must cover the true p99");
        assert_eq!(Histogram::new().p95(), None);
    }

    #[test]
    fn keys_are_distinct() {
        let all = [
            keys::MSG_CBL_REQUEST,
            keys::MSG_RIC_UPDATE_PUSH,
            keys::MSG_WBI_INV,
            keys::LOCK_CBL_GRANTED,
            keys::LOCK_TTS_ACQUIRED,
            keys::WBUF_ISSUED,
            keys::RETRY_RETRANSMIT,
            keys::NET_DEDUP,
            keys::WATCHDOG_FIRED,
        ];
        let mut set: Vec<_> = all.to_vec();
        set.sort_unstable();
        set.dedup();
        assert_eq!(set.len(), all.len());
        assert!(keys::MSG_CBL_REQUEST.starts_with(keys::MSG_CBL_PREFIX));
        assert!(keys::MSG_WBI_INV.starts_with(keys::MSG_WBI_PREFIX));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), Some(67.0));
    }

    #[test]
    fn histogram_empty_quantile() {
        let h = Histogram::new();
        assert_eq!(h.quantile_bound(0.5), None);
        assert_eq!(h.mean(), None);
    }

    // Percentile edge cases, pinned for every consumer of the two quantile
    // definitions: report summaries (Histogram::quantile_bound — bucket
    // upper bounds) and the span/diff distribution comparison
    // (nearest_rank — exact values).

    #[test]
    fn histogram_single_sample_quantiles() {
        let mut h = Histogram::new();
        h.record(5); // bucket 2 holds 3..=6, upper bound 6
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile_bound(q), Some(6), "q={q}");
        }
        assert_eq!(h.mean(), Some(5.0));
    }

    #[test]
    fn histogram_all_equal_quantiles() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(7); // bucket 3 holds 7..=14, upper bound 14
        }
        assert_eq!(h.p50(), Some(14));
        assert_eq!(h.p999(), Some(14));
        assert_eq!(h.mean(), Some(7.0));
    }

    #[test]
    fn histogram_zero_sample_lands_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0 holds exactly x == 0, upper bound 0
        assert_eq!(h.p50(), Some(0));
        assert_eq!(h.quantile_bound(1.0), Some(0));
    }

    #[test]
    fn nearest_rank_empty_is_zero() {
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[], 0.999), 0);
    }

    #[test]
    fn nearest_rank_single_sample_every_quantile() {
        for q in [0.0, 0.5, 0.95, 0.999, 1.0] {
            assert_eq!(nearest_rank(&[42], q), 42, "q={q}");
        }
    }

    #[test]
    fn nearest_rank_all_equal() {
        let xs = [9u64; 50];
        assert_eq!(nearest_rank(&xs, 0.5), 9);
        assert_eq!(nearest_rank(&xs, 0.999), 9);
    }

    #[test]
    fn nearest_rank_exact_semantics_pinned() {
        // smallest value with at least ceil(q·n) observations at or below
        let xs = [1, 2, 3, 4];
        assert_eq!(nearest_rank(&xs, 0.50), 2); // rank ceil(2.0) = 2
        assert_eq!(nearest_rank(&xs, 0.51), 3); // rank ceil(2.04) = 3
        assert_eq!(nearest_rank(&xs, 0.0), 1); // rank clamps to 1
        assert_eq!(nearest_rank(&xs, 1.0), 4);
        assert_eq!(nearest_rank(&[10, 20, 30], 0.999), 30);
    }

    proptest! {
        /// The dense store reports exactly what a sorted map would for any
        /// bump sequence: same keys, same order, same values.
        #[test]
        fn prop_dense_counters_match_sorted_map(
            ops in proptest::collection::vec((0usize..CounterId::COUNT, 1u64..100), 0..100),
        ) {
            let mut dense = CounterSet::new();
            let mut map = std::collections::BTreeMap::<&'static str, u64>::new();
            for (i, by) in ops {
                let id = CounterId::ALL[i];
                dense.add_id(id, by);
                *map.entry(id.name()).or_insert(0) += by;
            }
            let a: Vec<_> = dense.iter().collect();
            let b: Vec<_> = map.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_histogram_count_and_mean(xs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = Histogram::new();
            for &x in &xs { h.record(x); }
            prop_assert_eq!(h.count(), xs.len() as u64);
            let mean = xs.iter().copied().map(|x| x as f64).sum::<f64>() / xs.len() as f64;
            prop_assert!((h.mean().unwrap() - mean).abs() < 1e-6);
        }

        #[test]
        fn prop_bucket_monotone_with_value(x in 0u64..u64::MAX/2) {
            // the bucket index for x is <= bucket index for 2x+1
            let mut h1 = Histogram::new();
            h1.record(x);
            let b1 = h1.buckets().iter().position(|&c| c > 0).unwrap();
            let mut h2 = Histogram::new();
            h2.record(2*x + 1);
            let b2 = h2.buckets().iter().position(|&c| c > 0).unwrap();
            prop_assert!(b1 <= b2);
        }
    }
}
