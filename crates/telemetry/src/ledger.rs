//! Causal op ledger: bounded per-op rings of decision events.
//!
//! Every decision point in an operation's life — admission verdicts, retry
//! and backoff choices, breaker trips and skips, fetch ranking demotions,
//! hedge launches and cancellations, stripe reassignment, quorum detach,
//! repair triggers, adaptive placement actions — records one compact
//! [`LedgerEvent`] into its op's bounded ring. Events carry a `cause`
//! reference to the event that induced them (a hedge cancellation points at
//! its launch; a backoff wait points at the transfer failure it recovers
//! from), so a completed op's ring is a small causal DAG from which the
//! exact critical path can be reconstructed.
//!
//! Design constraints, in priority order:
//!
//! - **Disabled cost is one relaxed atomic load.** Every entry point checks
//!   [`OpLedger::enabled`] first and returns immediately when the ledger is
//!   off, so default-config runs stay byte-identical to builds without it.
//! - **Zero allocations per recorded event.** A ring's storage is
//!   pre-allocated at its configured capacity when the ring is created;
//!   recording into an existing ring never touches the heap, including on
//!   eviction (which is a `Vec::remove` memmove). A finished or discarded
//!   ring's storage goes on a free list that the next new ring takes from,
//!   so once the ledger has seen its peak of live ops, opening a ring
//!   allocates nothing either. The eviction mark bitmap is scratch space
//!   allocated once per ledger and reused.
//! - **Eviction never drops a live critical path.** When a full ring must
//!   evict, events on the transitive cause chain of the incoming event (and
//!   of the most recent event) are protected; the oldest *unreferenced*
//!   event goes first. Only a cause chain longer than the ring itself can
//!   lose its tail.
//!
//! Determinism: the ledger draws no randomness and never mutates anything
//! outside its own rings, so recording is purely observational — enabling
//! it cannot perturb event timing, RNG streams, or any simulation outcome.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::TimeNs;

/// The null ledger reference: "no cause" / "nothing recorded".
pub const LEDGER_NONE: u32 = 0;

/// The kind of decision a [`LedgerEvent`] records — the causal event
/// taxonomy. Labels are stable strings used by exports and the `explain`
/// renderer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum CauseKind {
    /// The overload plane admitted the op.
    Admit,
    /// The overload plane shed the op (`a` = reason code).
    Shed,
    /// A timed-out DHT request was reissued (`a` = retry number).
    DhtRetry,
    /// A retry was denied by an exhausted retry budget (`a` = site code).
    RetryDenied,
    /// The op entered an exponential-backoff wait (`a` = wait ns,
    /// `b` = backoff round).
    Backoff,
    /// A transfer carrying this op's bytes was severed (`a` = flow id).
    TransferFailed,
    /// A candidate was skipped because its path's breaker is open
    /// (`a` = path address).
    BreakerSkip,
    /// This op's failure tripped a path breaker open (`a` = path address).
    BreakerTrip,
    /// Fetch ranking demoted non-viable holders (`a` = demoted count).
    RankDemote,
    /// A hedge copy of a slow stripe was launched (`a` = stripe,
    /// `b` = holder).
    HedgeLaunch,
    /// The losing copy of a hedged stripe was cancelled (`a` = stripe).
    HedgeCancel,
    /// A stripe was reassigned to another holder (`a` = stripe,
    /// `b` = holder).
    StripeReassign,
    /// A store published at quorum, detaching straggler replicas
    /// (`a` = copies present, `b` = flows detached).
    QuorumDetach,
    /// The op's completion breached its kind's sliding-window SLO
    /// (`a` = window p99 ns, `b` = objective ns).
    SloBreach,
    /// The repair daemon queued a re-replication (`a` = the object's DHT key).
    RepairTrigger,
    /// The adaptive plane grew an object's replica set (`a` = the object's DHT key).
    AdaptiveGrow,
    /// The adaptive plane shrank an object's replica set (`a` = the object's DHT key).
    AdaptiveShrink,
    /// The adaptive plane converted an object to erasure-coded stripes
    /// (`a` = the object's DHT key).
    AdaptiveEncode,
}

impl CauseKind {
    /// The kind's stable label, used by exports and renderers.
    pub fn label(self) -> &'static str {
        match self {
            CauseKind::Admit => "admit",
            CauseKind::Shed => "shed",
            CauseKind::DhtRetry => "dht.retry",
            CauseKind::RetryDenied => "retry.denied",
            CauseKind::Backoff => "backoff.wait",
            CauseKind::TransferFailed => "transfer.failed",
            CauseKind::BreakerSkip => "breaker.skip",
            CauseKind::BreakerTrip => "breaker.trip",
            CauseKind::RankDemote => "rank.demote",
            CauseKind::HedgeLaunch => "hedge.launch",
            CauseKind::HedgeCancel => "hedge.cancel",
            CauseKind::StripeReassign => "stripe.reassign",
            CauseKind::QuorumDetach => "quorum.detach",
            CauseKind::SloBreach => "slo.breach",
            CauseKind::RepairTrigger => "repair.trigger",
            CauseKind::AdaptiveGrow => "adaptive.grow",
            CauseKind::AdaptiveShrink => "adaptive.shrink",
            CauseKind::AdaptiveEncode => "adaptive.encode",
        }
    }
}

/// One compact causal event: 40 POD bytes, copied by value everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEvent {
    /// This event's sequence number within its op's ring (starts at 1;
    /// [`LEDGER_NONE`] never names an event).
    pub seq: u32,
    /// The event that induced this one, or [`LEDGER_NONE`] for a root.
    pub cause: u32,
    /// Virtual-time instant of the decision.
    pub ts_ns: TimeNs,
    /// What was decided.
    pub kind: CauseKind,
    /// Kind-specific detail (see [`CauseKind`] variants).
    pub a: u64,
    /// Kind-specific detail (see [`CauseKind`] variants).
    pub b: u64,
}

/// One op's bounded event ring, kept in `seq` order.
#[derive(Debug)]
struct OpRing {
    events: Vec<LedgerEvent>,
    next_seq: u32,
    /// `seq` of the most recent event (the chain head), or [`LEDGER_NONE`].
    last: u32,
    /// Events this ring has evicted.
    evicted: u32,
}

impl OpRing {
    /// A fresh ring over `events`, an empty buffer of at least the ring's
    /// capacity.
    fn new(events: Vec<LedgerEvent>) -> Self {
        debug_assert!(events.is_empty());
        OpRing {
            events,
            next_seq: 1,
            last: LEDGER_NONE,
            evicted: 0,
        }
    }
}

/// The causal op ledger: a map of bounded per-op rings plus whole-ledger
/// counters. Owned by the runtime (single-threaded access); the enabled
/// flag is atomic only so the disabled check is one relaxed load with no
/// borrow gymnastics at call sites.
#[derive(Debug)]
pub struct OpLedger {
    enabled: AtomicBool,
    cap: usize,
    rings: BTreeMap<u64, OpRing>,
    /// Emptied event buffers of finished and discarded rings, each of
    /// capacity at least `cap`, for the next new ring.
    spare: Vec<Vec<LedgerEvent>>,
    /// Reusable eviction mark bitmap, one bit per ring index.
    mark: Vec<u64>,
    recorded: u64,
    dropped: u64,
}

impl OpLedger {
    /// Creates a ledger whose per-op rings hold at most `cap` events
    /// (minimum 2: a cause and its effect).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(2);
        OpLedger {
            enabled: AtomicBool::new(false),
            cap,
            rings: BTreeMap::new(),
            spare: Vec::new(),
            mark: vec![0; cap.div_ceil(64)],
            recorded: 0,
            dropped: 0,
        }
    }

    /// Whether the ledger is recording. One relaxed atomic load — the
    /// entire cost of the disabled path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Existing rings are kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Per-op ring capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The chain head of `op`'s ring — the `seq` of its most recent event —
    /// or [`LEDGER_NONE`] when nothing is recorded. The idiom for linking
    /// a decision to "whatever this op decided last".
    pub fn last(&self, op: u64) -> u32 {
        self.rings.get(&op).map_or(LEDGER_NONE, |r| r.last)
    }

    /// Records one event into `op`'s ring and returns its `seq` (or
    /// [`LEDGER_NONE`] when disabled). `cause` is the inducing event's
    /// `seq` ([`LEDGER_NONE`] for a root decision). Allocation-free once
    /// the op's ring exists; eviction (full ring) protects the transitive
    /// cause chains of both `cause` and the current chain head.
    pub fn record(
        &mut self,
        op: u64,
        kind: CauseKind,
        cause: u32,
        ts_ns: TimeNs,
        a: u64,
        b: u64,
    ) -> u32 {
        if !self.enabled() {
            return LEDGER_NONE;
        }
        let (cap, spare) = (self.cap, &mut self.spare);
        let ring = self
            .rings
            .entry(op)
            .or_insert_with(|| OpRing::new(spare.pop().unwrap_or_else(|| Vec::with_capacity(cap))));
        if ring.events.len() >= cap {
            Self::evict(ring, &mut self.mark, cause);
            self.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq = ring.next_seq.saturating_add(1);
        ring.events.push(LedgerEvent {
            seq,
            cause,
            ts_ns,
            kind,
            a,
            b,
        });
        ring.last = seq;
        self.recorded += 1;
        seq
    }

    /// Drops the oldest event off every protected chain. Preference order:
    /// an event on neither the incoming event's transitive cause chain nor
    /// the chain head's; failing that, one off the incoming chain (the
    /// stale head-side chain yields to the chain the new event extends);
    /// failing that — a single chain longer than the ring — its own tail.
    fn evict(ring: &mut OpRing, mark: &mut [u64], incoming_cause: u32) {
        let events = &ring.events;
        let protect = |mark: &mut [u64], mut seq: u32| {
            // Chains only point backward (cause < seq), so this terminates
            // in at most `len` steps even against a malformed link.
            let mut steps = events.len();
            while seq != LEDGER_NONE && steps > 0 {
                steps -= 1;
                match events.binary_search_by_key(&seq, |e| e.seq) {
                    Ok(i) => {
                        if mark[i / 64] & (1 << (i % 64)) != 0 {
                            break; // already walked from here
                        }
                        mark[i / 64] |= 1 << (i % 64);
                        seq = events[i].cause;
                    }
                    Err(_) => break, // already evicted (over-long chain)
                }
            }
        };
        let oldest_unmarked =
            |mark: &[u64]| (0..events.len()).find(|&i| mark[i / 64] & (1 << (i % 64)) == 0);
        for w in mark.iter_mut() {
            *w = 0;
        }
        protect(mark, incoming_cause);
        let incoming_only = oldest_unmarked(mark);
        protect(mark, ring.last);
        let victim = oldest_unmarked(mark).or(incoming_only).unwrap_or(0);
        ring.events.remove(victim);
        ring.evicted += 1;
    }

    /// `op`'s recorded events, in `seq` order.
    pub fn chain(&self, op: u64) -> &[LedgerEvent] {
        self.rings.get(&op).map_or(&[], |r| r.events.as_slice())
    }

    /// How many events `op`'s ring has evicted.
    pub fn evicted(&self, op: u64) -> u32 {
        self.rings.get(&op).map_or(0, |r| r.evicted)
    }

    /// Removes `op`'s ring, returning a copy of its events. The ring's
    /// own storage goes back to the ledger for the next op.
    pub fn finish(&mut self, op: u64) -> Vec<LedgerEvent> {
        self.finish_with(op, <[LedgerEvent]>::to_vec)
    }

    /// Removes `op`'s ring and hands its events, in `seq` order, to `read`
    /// (an empty slice when nothing was recorded). Call at op completion.
    /// The ring's storage goes back to the ledger for the next op.
    pub fn finish_with<R>(&mut self, op: u64, read: impl FnOnce(&[LedgerEvent]) -> R) -> R {
        match self.rings.remove(&op) {
            Some(ring) => {
                let out = read(&ring.events);
                self.recycle(ring);
                out
            }
            None => read(&[]),
        }
    }

    /// Removes `op`'s ring without reading its events.
    pub fn discard(&mut self, op: u64) {
        if let Some(ring) = self.rings.remove(&op) {
            self.recycle(ring);
        }
    }

    fn recycle(&mut self, ring: OpRing) {
        let mut events = ring.events;
        events.clear();
        self.spare.push(events);
    }

    /// Total events recorded over the ledger's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Total events evicted from full rings over the ledger's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Live (unfinished) rings.
    pub fn rings_live(&self) -> usize {
        self.rings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut l = OpLedger::new(8);
        assert!(!l.enabled());
        assert_eq!(l.record(1, CauseKind::Admit, LEDGER_NONE, 0, 0, 0), 0);
        assert_eq!(l.chain(1), &[]);
        assert_eq!(l.recorded(), 0);
    }

    #[test]
    fn records_chain_and_finishes() {
        let mut l = OpLedger::new(8);
        l.set_enabled(true);
        let a = l.record(7, CauseKind::Admit, LEDGER_NONE, 10, 0, 0);
        let b = l.record(7, CauseKind::DhtRetry, l.last(7), 20, 1, 0);
        assert_eq!((a, b), (1, 2));
        assert_eq!(l.last(7), 2);
        let chain = l.finish(7);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[1].cause, 1);
        assert_eq!(l.last(7), LEDGER_NONE);
        assert!(l.finish(7).is_empty());
    }

    #[test]
    fn finished_and_discarded_rings_lend_their_buffers_to_new_ones() {
        let mut l = OpLedger::new(8);
        l.set_enabled(true);
        l.record(1, CauseKind::Admit, LEDGER_NONE, 0, 0, 0);
        l.record(2, CauseKind::Admit, LEDGER_NONE, 0, 0, 0);
        l.record(2, CauseKind::DhtRetry, 1, 5, 1, 0);
        assert_eq!(l.finish_with(1, <[LedgerEvent]>::len), 1);
        l.discard(2);
        assert_eq!(l.spare.len(), 2);
        let seq = l.record(3, CauseKind::Admit, LEDGER_NONE, 9, 0, 0);
        assert_eq!(l.spare.len(), 1, "the new ring took a spare buffer");
        assert_eq!((seq, l.chain(3).len()), (1, 1), "and started it empty");
        assert!(l.finish_with(4, <[LedgerEvent]>::is_empty));
    }

    #[test]
    fn eviction_protects_the_cause_chain() {
        let mut l = OpLedger::new(4);
        l.set_enabled(true);
        // A linked chain of three, then unlinked side events.
        let c1 = l.record(1, CauseKind::TransferFailed, LEDGER_NONE, 1, 0, 0);
        let c2 = l.record(1, CauseKind::Backoff, c1, 2, 0, 0);
        let c3 = l.record(1, CauseKind::Backoff, c2, 3, 0, 0);
        let s1 = l.record(1, CauseKind::RankDemote, LEDGER_NONE, 4, 0, 0);
        assert_eq!(l.chain(1).len(), 4);
        // The next chained event must evict the side event, not the chain.
        let c4 = l.record(1, CauseKind::Backoff, c3, 5, 0, 0);
        let seqs: Vec<u32> = l.chain(1).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![c1, c2, c3, c4]);
        assert!(!seqs.contains(&s1));
        assert_eq!(l.evicted(1), 1);
        assert_eq!(l.dropped(), 1);
    }

    #[test]
    fn overlong_chain_truncates_its_own_tail() {
        let mut l = OpLedger::new(3);
        l.set_enabled(true);
        let mut cause = LEDGER_NONE;
        for ts in 0..6u64 {
            cause = l.record(1, CauseKind::Backoff, cause, ts, 0, 0);
        }
        let chain = l.chain(1);
        assert_eq!(chain.len(), 3);
        // The newest three survive; links beyond the ring are gone.
        let seqs: Vec<u32> = chain.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
    }

    #[test]
    fn record_is_allocation_free_once_the_ring_exists() {
        // Structural proxy for the bench gate: capacity never grows past
        // the preallocation, however many events flow through.
        let mut l = OpLedger::new(16);
        l.set_enabled(true);
        l.record(9, CauseKind::Admit, LEDGER_NONE, 0, 0, 0);
        let cap_before = {
            let r = l.rings.get(&9).unwrap();
            r.events.capacity()
        };
        for ts in 1..10_000u64 {
            l.record(9, CauseKind::Backoff, l.last(9), ts, 0, 0);
        }
        let r = l.rings.get(&9).unwrap();
        assert_eq!(r.events.capacity(), cap_before);
        assert_eq!(r.events.len(), 16);
    }
}
