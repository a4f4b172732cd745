//! A deterministic event queue keyed by [`SimTime`].
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (FIFO), which keeps simulations reproducible regardless of payload type.
//!
//! # Engine
//!
//! [`EventQueue`] is a hierarchical timer wheel: 11 levels of 64 slots,
//! each level bucketing events by one 6-bit group of their nanosecond
//! timestamp (level 0 = 1 ns slots, level 1 = 64 ns, … level 10 ≈ 36.6
//! virtual years per slot). 11 × 6 = 66 bits cover the entire `u64`
//! timestamp domain, so arbitrarily far-future events — including
//! [`SimTime::MAX`] sentinels — park in the top levels with no separate
//! overflow structure. Scheduling is O(1); popping finds the earliest
//! occupied slot through per-level occupancy bitmaps and cascades coarse
//! buckets downward as the clock reaches them, so each event is touched at
//! most once per level over its lifetime. Same-instant events share one
//! level-0 bucket and are delivered in `seq` (insertion) order, preserving
//! the `(at, seq)` total order the simulation's byte-determinism contract
//! is built on. The answer of the 11-level scan for the earliest bucket is
//! kept until a pop drains a bucket, so a loop that peeks before it pops
//! scans the wheel once per drained instant, not once per peek.
//!
//! # Payload slab
//!
//! Payloads live in a generational slab owned by the queue; the wheel's
//! buckets hold only 24-byte `(at, seq, id)` slots. Cascading a coarse
//! bucket and sorting a same-instant run therefore move plain-old-data
//! slots, never the payloads themselves — for the runtime's event enum
//! (~100 bytes) that cuts the memory traffic of a cascade ~5×. Freed slab
//! cells go on a free list and are reused, and cascaded bucket
//! allocations are recycled through a spare pool to the slots filling
//! ahead of the clock, so the steady-state schedule/pop cycle allocates
//! nothing once capacities have converged (the counting-allocator harness
//! in `c4h-bench` asserts exactly this).
//!
//! One baseline survives for differential testing and benchmarking:
//! [`reference::RefQueue`], the pre-wheel `BinaryHeap` scheduler.
//! `tests/queue_equiv.rs` drives the two in lockstep; `engine_throughput`
//! measures the wheel against it.

use std::collections::VecDeque;
use std::mem;
use std::time::Duration;

use crate::time::SimTime;

/// Minimum capacity (in slots) a cascaded bucket must have for its
/// allocation to be donated to the spare pool rather than restored in
/// place. Small buckets recur too often to be worth pooling — donating
/// them would leave most of the wheel at zero capacity and turn every
/// insert into an adoption check; only the big accumulator buckets carry
/// capacity worth recycling across slots.
const SPARE_MIN: usize = 64;

/// Maximum donated allocations held in the spare pool. A small hard cap
/// keeps both sides of the recycling O(1): donation falls back to
/// restoring in place when the pool is full (the pre-pool behavior), and
/// adoption's largest-first scan touches at most this many entries. A
/// handful is enough — only one accumulator slot per active level needs
/// big capacity at a time.
const SPARE_MAX: usize = 8;

/// Bits of the timestamp consumed per wheel level.
const SLOT_BITS: usize = 6;
/// Slots per level (`2^SLOT_BITS`).
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed to cover all 64 timestamp bits (`ceil(64 / 6)`).
/// Public so introspection consumers can size per-level views.
pub const LEVELS: usize = 11;

/// A pending wheel slot: the scheduled instant (nanoseconds), the
/// insertion sequence number breaking same-instant ties, and the payload's
/// slab cell. Plain old data — cascades and same-instant sorts copy these
/// 24 bytes, never the payload.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: u64,
    seq: u64,
    id: u32,
    /// Generation of the slab cell when this slot was filed; checked on
    /// redemption (debug builds) to catch internal filing bugs — an id
    /// must never be redeemed after its cell was freed and reused.
    gen: u32,
}

/// One wheel bucket: its pending slots plus a cached minimum timestamp,
/// maintained on push and reset on drain, so finding the earliest event
/// never rescans bucket contents.
#[derive(Debug)]
struct Bucket {
    entries: Vec<Slot>,
    min_at: u64,
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            entries: Vec::new(),
            min_at: u64::MAX,
        }
    }
}

/// A slab cell: the payload (taken on pop) and the cell's generation,
/// bumped on every free so stale slots are detectable.
#[derive(Debug)]
struct Cell<E> {
    gen: u32,
    payload: Option<E>,
}

/// A min-priority queue of simulation events ordered by virtual time.
///
/// The queue also tracks the current virtual clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Scheduling into the past is
/// a programming error and panics, because it would silently reorder the
/// simulation.
///
/// # Examples
///
/// ```
/// use c4h_simnet::{EventQueue, SimTime};
/// use std::time::Duration;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_in(Duration::from_millis(5), "second");
/// q.schedule_at(SimTime::from_millis(1), "first");
///
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "first"));
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` buckets, flattened level-major.
    buckets: Vec<Bucket>,
    /// One occupancy bit per slot, per level: bit `s` of `occupied[l]` is
    /// set iff `buckets[l * SLOTS + s]` is non-empty.
    occupied: [u64; LEVELS],
    /// Slots at exactly `now`, drained from their level-0 bucket and
    /// sorted by `seq`; popped from the front. This is the hot path: a
    /// burst of same-instant events costs one bucket drain, then pure
    /// `VecDeque` pops.
    ready: VecDeque<Slot>,
    /// The payload arena. Cells are reused through `free`; capacity
    /// converges to the peak pending population and then stays put.
    slab: Vec<Cell<E>>,
    /// Free slab cells, reused LIFO.
    free: Vec<u32>,
    /// Spare bucket allocations recycled across slots. Cascading a coarse
    /// bucket empties a slot that will not refill until the clock wraps
    /// its entire level, so parking the allocation there would strand it;
    /// instead it is pooled here and handed to the next zero-capacity
    /// bucket that fills — typically the accumulator slot just ahead of
    /// the clock, which would otherwise grow from scratch on every
    /// first visit forever.
    spare: Vec<Vec<Slot>>,
    now: u64,
    len: usize,
    next_seq: u64,
    /// Coarse-bucket cascades performed by `pop` since creation.
    cascades: u64,
    /// Total slots re-placed by those cascades.
    cascaded_slots: u64,
    /// The answer of the last full scan, kept while it holds (see
    /// [`earliest`](Self::earliest)): the earliest pending instant in the
    /// wheel and the levels whose first occupied slot holds it, one bit
    /// each. `None` means "scan". A `Cell`, as the scan runs under
    /// `peek_time(&self)`.
    memo: std::cell::Cell<Option<(u64, u16)>>,
    /// Full wheel scans `earliest` has made since creation.
    scans: std::cell::Cell<u64>,
    /// `advance_to` calls since creation.
    advances: u64,
}

/// A point-in-time view of an [`EventQueue`]'s internals, for the engine
/// introspection surface. Pure observation: taking one never mutates the
/// queue, draws no randomness, and costs a handful of popcounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Pending events.
    pub len: usize,
    /// Events drained into the same-instant ready run, not yet popped.
    pub ready: usize,
    /// Coarse-bucket cascades performed since creation.
    pub cascades: u64,
    /// Total slots re-placed by those cascades.
    pub cascaded_slots: u64,
    /// Events popped since creation.
    pub pops: u64,
    /// `advance_to` calls since creation.
    pub advances: u64,
    /// Full wheel scans (all 11 levels) made to find the earliest bucket.
    /// A scan's answer is kept until a pop drains a bucket, so a loop that
    /// peeks before it pops makes at most one per popped event.
    pub scans: u64,
    /// Occupied slots per wheel level (popcount of each occupancy bitmap).
    pub level_occupancy: [u32; LEVELS],
    /// Payload slab cells allocated (live + free).
    pub slab_cells: usize,
    /// Slab cells on the free list.
    pub free_cells: usize,
    /// Bucket allocations parked in the spare pool.
    pub spare_buckets: usize,
    /// Total slot capacity of the spare pool.
    pub spare_capacity: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The wheel coordinates of timestamp `at` relative to clock `now`:
/// the level of the highest 6-bit group where they differ (0 when equal),
/// and `at`'s slot index within that level.
fn level_slot(now: u64, at: u64) -> (usize, usize) {
    let xor = at ^ now;
    let level = if xor == 0 {
        0
    } else {
        (63 - xor.leading_zeros() as usize) / SLOT_BITS
    };
    (level, slot_of(at, level))
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..LEVELS * SLOTS).map(|_| Bucket::new()).collect(),
            occupied: [0; LEVELS],
            ready: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
            now: 0,
            len: 0,
            next_seq: 0,
            cascades: 0,
            cascaded_slots: 0,
            memo: std::cell::Cell::new(None),
            scans: std::cell::Cell::new(0),
            advances: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Snapshots the wheel's internals (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        let mut level_occupancy = [0u32; LEVELS];
        for (l, bits) in self.occupied.iter().enumerate() {
            level_occupancy[l] = bits.count_ones();
        }
        QueueStats {
            len: self.len,
            ready: self.ready.len(),
            cascades: self.cascades,
            cascaded_slots: self.cascaded_slots,
            // Every schedule took a sequence number; the pending ones are
            // the rest.
            pops: self.next_seq - self.len as u64,
            advances: self.advances,
            scans: self.scans.get(),
            level_occupancy,
            slab_cells: self.slab.len(),
            free_cells: self.free.len(),
            spare_buckets: self.spare.len(),
            spare_capacity: self.spare.iter().map(Vec::capacity).sum(),
        }
    }

    /// Schedules `payload` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at.as_nanos() >= self.now,
            "cannot schedule into the past: at={at} now={}",
            SimTime::from_nanos(self.now)
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let (id, gen) = self.store(payload);
        self.insert(Slot {
            at: at.as_nanos(),
            seq,
            id,
            gen,
        });
        self.len += 1;
    }

    /// Schedules `payload` after a relative `delay` from the current time.
    pub fn schedule_in(&mut self, delay: Duration, payload: E) {
        let at = SimTime::from_nanos(self.now) + delay;
        self.schedule_at(at, payload);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.ready.is_empty() {
            return Some(SimTime::from_nanos(self.now));
        }
        self.earliest().map(|(at, _)| SimTime::from_nanos(at))
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(s) = self.ready.pop_front() {
                debug_assert_eq!(s.at, self.now, "ready entries live at the clock instant");
                if let Some(next) = self.ready.front() {
                    self.prefetch_cell(next.id);
                }
                self.len -= 1;
                return Some((SimTime::from_nanos(s.at), self.redeem(s)));
            }
            let (at, ties) = self.earliest()?;
            debug_assert!(at >= self.now, "wheel surfaced an event from the past");
            // Ties prefer the highest level, so `pop` cascades stale coarse
            // buckets before draining the level-0 bucket of the same
            // instant: all same-instant events must share one ready run
            // for `seq` ordering to be global.
            let level = (u16::BITS - 1 - ties.leading_zeros()) as usize;
            let slot = slot_of(at, level);
            // Advance the clock to the earliest pending instant, then move
            // that bucket: a level-0 bucket holds exactly the events at
            // `at` and drains into the ready run; a coarser bucket spans a
            // range of instants and cascades down a level (re-placement is
            // relative to the new clock, so entries at exactly `at` land
            // in the level-0 slot picked up on the next loop iteration).
            // Both moves copy 24-byte slots; payloads never leave the slab.
            self.now = at;
            let idx = level * SLOTS + slot;
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // Every event at `at` leaves the wheel: the next earliest
                // instant is unknown.
                self.memo.set(None);
                // Most instants hold exactly one event; skip the
                // drain/sort/ready round trip and redeem it in place.
                if self.buckets[idx].entries.len() == 1 {
                    let s = self.buckets[idx].entries[0];
                    self.buckets[idx].entries.clear();
                    self.buckets[idx].min_at = u64::MAX;
                    self.len -= 1;
                    return Some((SimTime::from_nanos(s.at), self.redeem(s)));
                }
            }
            let mut drained = mem::take(&mut self.buckets[idx].entries);
            self.buckets[idx].min_at = u64::MAX;
            if level == 0 {
                debug_assert!(drained.iter().all(|s| s.at == at));
                // Start the payload reads now: the head of this run is
                // redeemed as soon as the sort and drain finish.
                for s in drained.iter().take(4) {
                    self.prefetch_cell(s.id);
                }
                drained.sort_unstable_by_key(|s| s.seq);
                self.ready.extend(drained.drain(..));
                // Level-0 slots recur every 64 ns of clock, so hand the
                // emptied allocation straight back to its bucket.
                self.buckets[idx].entries = drained;
            } else {
                self.cascades += 1;
                self.cascaded_slots += drained.len() as u64;
                for s in drained.drain(..) {
                    self.insert(s);
                }
                // The earliest instant is still `at`: its entries moved
                // to the level-0 slot (re-filed relative to a clock at
                // `at`), and the lower levels that tied keep their slots.
                self.memo.set(Some((at, (ties & !(1 << level)) | 1)));
                // A big coarse slot will not refill until the clock wraps
                // its whole level; pool the allocation for the bucket
                // that needs it next instead of stranding it here. Small
                // slots keep theirs — they recur constantly and pooling
                // them would just churn the pool. A full pool keeps the
                // largest allocations: evicting its smallest entry into
                // this bucket strands the least capacity, so the top
                // accumulators always round-trip through the pool.
                if drained.capacity() >= SPARE_MIN {
                    if self.spare.len() < SPARE_MAX {
                        self.spare.push(drained);
                    } else {
                        let min = (0..self.spare.len())
                            .min_by_key(|&i| self.spare[i].capacity())
                            .expect("spare pool is non-empty");
                        if self.spare[min].capacity() < drained.capacity() {
                            self.buckets[idx].entries = mem::replace(&mut self.spare[min], drained);
                        } else {
                            self.buckets[idx].entries = drained;
                        }
                    }
                } else {
                    self.buckets[idx].entries = drained;
                }
            }
        }
    }

    /// Advances the clock to `at` without delivering events.
    ///
    /// Useful when an external model (e.g. the flow network) decides the next
    /// interesting instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time, or if an event is
    /// pending before `at` (advancing past it would drop causality).
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at.as_nanos() >= self.now, "cannot rewind the clock");
        if let Some(t) = self.peek_time() {
            assert!(t >= at, "cannot advance past a pending event at {t}");
        }
        // Pending entries keep valid wheel coordinates across the jump:
        // every entry's timestamp is ≥ `at`, and an interval sharing a
        // binary prefix at its endpoints shares it throughout, so each
        // entry's stored level can only be coarser than (never below) its
        // ideal level relative to the new clock. `earliest` reads coarse
        // slots through their cached minima and `pop` cascades them lazily,
        // so no eager re-filing is needed. The same argument keeps the
        // memo: no slot between a level's old and new cursor can hold an
        // entry, so each level's first occupied slot is the one it was.
        self.now = at.as_nanos();
        self.advances += 1;
    }

    /// Parks a payload in the slab, reusing a freed cell when one exists.
    fn store(&mut self, payload: E) -> (u32, u32) {
        match self.free.pop() {
            Some(id) => {
                let cell = &mut self.slab[id as usize];
                debug_assert!(cell.payload.is_none(), "free-listed cell still occupied");
                cell.payload = Some(payload);
                (id, cell.gen)
            }
            None => {
                let id = u32::try_from(self.slab.len()).expect("event slab exhausted");
                self.slab.push(Cell {
                    gen: 0,
                    payload: Some(payload),
                });
                (id, 0)
            }
        }
    }

    /// Hints the prefetcher at a slab cell about to be redeemed.
    ///
    /// Payload cells go cold between schedule and redemption (every other
    /// pending event is written in between), so without the hint each pop
    /// stalls on the cell read — the one place the arena's
    /// move-slots-not-payloads design touches uncached memory.
    #[inline]
    fn prefetch_cell(&self, id: u32) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `id` indexes a live slab cell; prefetch has no effect
        // on program semantics even for a dangling address.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(
                self.slab.as_ptr().add(id as usize).cast::<i8>(),
                _MM_HINT_T0,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = id;
    }

    /// Takes a popped slot's payload back out of the slab, bumping the
    /// cell's generation and returning the cell to the free list.
    fn redeem(&mut self, s: Slot) -> E {
        let cell = &mut self.slab[s.id as usize];
        debug_assert_eq!(cell.gen, s.gen, "slot redeemed against a reused cell");
        let payload = cell.payload.take().expect("slot points at an empty cell");
        cell.gen = cell.gen.wrapping_add(1);
        self.free.push(s.id);
        payload
    }

    /// Files a slot into the wheel relative to the current clock.
    fn insert(&mut self, s: Slot) {
        let (level, slot) = level_slot(self.now, s.at);
        let idx = level * SLOTS + slot;
        if self.buckets[idx].entries.capacity() == 0 && !self.spare.is_empty() {
            // First fill since this slot's last cascade (or ever): adopt
            // the largest pooled allocation. Accumulator buckets inherit
            // the high-water capacity of their predecessors, so the
            // steady-state schedule/pop cycle stays allocation-free even
            // as the clock sweeps into virgin slots. The scan is cheap:
            // adoption only happens on a slot's first fill per level wrap.
            let best = (0..self.spare.len())
                .max_by_key(|&i| self.spare[i].capacity())
                .expect("spare pool is non-empty");
            self.buckets[idx].entries = self.spare.swap_remove(best);
        }
        let b = &mut self.buckets[idx];
        b.min_at = b.min_at.min(s.at);
        b.entries.push(s);
        self.occupied[level] |= 1u64 << slot;
        if let Some((at, ties)) = self.memo.get() {
            if s.at < at {
                // A strict new minimum: its level's first occupied slot is
                // this one (an earlier slot would hold an earlier entry), and
                // no other level can tie it.
                self.memo.set(Some((s.at, 1 << level)));
            } else if s.at == at {
                // A tie never lands above the memo's top level: the entry
                // behind that level's `at` was filed there or higher than
                // the level `at` has relative to the clock now (a filing
                // only ever grows coarse), and that is the level this slot
                // went to.
                debug_assert!(1 << level <= ties, "a tie above the memo's top level");
                self.memo.set(Some((at, ties | 1 << level)));
            }
        }
    }

    /// The earliest pending instant in the wheel and the levels whose first
    /// occupied slot holds it (bit `l` for level `l`).
    ///
    /// Per level, only slots at or after the clock's own slot can be
    /// occupied (entries are never in the past), and their time windows
    /// ascend with the slot index, so the first occupied slot holds the
    /// level's minimum; the cached `min_at` makes the cross-level compare
    /// exact even for coarse buckets. A level that holds the instant holds
    /// it in the slot of the instant's own digit at that level.
    ///
    /// The answer is kept in `memo` while it holds: `insert` moves it to a
    /// strictly earlier entry or adds a tying level, `pop` updates it when
    /// it cascades a bucket and forgets it when it drains one, and
    /// `advance_to` leaves it be (no slot between a level's old and new
    /// cursor can hold an entry). A runtime loop that peeks two or three
    /// times per event therefore scans once per drained instant.
    fn earliest(&self) -> Option<(u64, u16)> {
        if let Some(hit) = self.memo.get() {
            debug_assert_eq!(Some(hit), self.scan(), "stale earliest-instant memo");
            return Some(hit);
        }
        self.scans.set(self.scans.get() + 1);
        let found = self.scan();
        self.memo.set(found);
        found
    }

    /// The full scan behind [`earliest`](Self::earliest): the first
    /// occupied slot at or after the cursor, on all 11 levels.
    fn scan(&self) -> Option<(u64, u16)> {
        let mut best: Option<(u64, u16)> = None;
        for level in 0..LEVELS {
            let cursor = slot_of(self.now, level);
            let mask = self.occupied[level] & (!0u64 << cursor);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                let at = self.buckets[level * SLOTS + slot].min_at;
                best = match best {
                    Some((b, ties)) if at == b => Some((b, ties | 1 << level)),
                    Some((b, _)) if at > b => best,
                    _ => Some((at, 1 << level)),
                };
            }
        }
        best
    }
}

/// The slot of instant `at` at wheel `level`: its 6-bit digit there.
fn slot_of(at: u64, level: usize) -> usize {
    ((at >> (level * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize
}

pub mod reference {
    //! The reference scheduler kept for differential testing and as the
    //! benchmark baseline. Production code uses
    //! [`EventQueue`](super::EventQueue); [`RefQueue`] — the original
    //! `BinaryHeap` scheduler, the simplest possible statement of the
    //! `(at, seq)` contract — exists so tests can prove the wheel agrees
    //! with it on every schedule/pop/advance sequence and benches can
    //! measure the speedup.

    use std::collections::BinaryHeap;
    use std::time::Duration;

    use crate::time::SimTime;

    /// A pending entry in the [`RefQueue`].
    #[derive(Debug)]
    struct Scheduled<E> {
        at: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }

    impl<E> Eq for Scheduled<E> {}

    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap; invert so the earliest event pops
            // first, breaking ties by insertion sequence for determinism.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The `BinaryHeap`-backed reference implementation of the event-queue
    /// contract: identical API and `(at, seq)` delivery order to
    /// [`EventQueue`](super::EventQueue), O(log n) operations. Test and
    /// bench use only.
    #[derive(Debug)]
    pub struct RefQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        now: SimTime,
        next_seq: u64,
    }

    impl<E> Default for RefQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> RefQueue<E> {
        /// Creates an empty queue with the clock at [`SimTime::ZERO`].
        pub fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                next_seq: 0,
            }
        }

        /// The current virtual time (the timestamp of the last popped
        /// event).
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Returns `true` if no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedules `payload` at the absolute instant `at`.
        ///
        /// # Panics
        ///
        /// Panics if `at` is earlier than the current virtual time.
        pub fn schedule_at(&mut self, at: SimTime, payload: E) {
            assert!(
                at >= self.now,
                "cannot schedule into the past: at={at} now={}",
                self.now
            );
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { at, seq, payload });
        }

        /// Schedules `payload` after a relative `delay` from the current
        /// time.
        pub fn schedule_in(&mut self, delay: Duration, payload: E) {
            let at = self.now + delay;
            self.schedule_at(at, payload);
        }

        /// Timestamp of the next pending event, if any.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.at)
        }

        /// Pops the earliest event, advancing the clock to its timestamp.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let s = self.heap.pop()?;
            debug_assert!(s.at >= self.now);
            self.now = s.at;
            Some((s.at, s.payload))
        }

        /// Advances the clock to `at` without delivering events.
        ///
        /// # Panics
        ///
        /// Panics if `at` is earlier than the current time, or if an event
        /// is pending before `at`.
        pub fn advance_to(&mut self, at: SimTime) {
            assert!(at >= self.now, "cannot rewind the clock");
            if let Some(t) = self.peek_time() {
                assert!(t >= at, "cannot advance past a pending event at {t}");
            }
            self.now = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefQueue;
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), 3);
        q.schedule_at(SimTime::from_millis(10), 1);
        q.schedule_at(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    #[should_panic(expected = "pending event")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.advance_to(SimTime::from_millis(20));
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(1));
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    /// Same instant scheduled from different clock positions: the entries
    /// start in different wheel levels but must merge into one seq-ordered
    /// delivery run.
    #[test]
    fn same_instant_entries_merge_across_levels() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(10);
        q.schedule_at(t, 0); // filed at a coarse level relative to now = 0
        q.schedule_at(SimTime::from_millis(9_999), -1);
        q.pop(); // now = 9.999 s: t is one millisecond out
        q.schedule_at(t, 1); // filed at a fine level relative to the new now
        q.schedule_at(t, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2], "seq order must survive cascades");
    }

    /// `stats()` observes cascades, occupancy, and slab population without
    /// perturbing the queue.
    #[test]
    fn stats_observe_without_mutating() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats().cascades, 0);
        for i in 0..100u64 {
            q.schedule_at(SimTime::from_millis(1 + i * 7), i);
        }
        let s = q.stats();
        assert_eq!(s.len, 100);
        assert_eq!(s.slab_cells, 100);
        assert!(s.level_occupancy.iter().map(|&n| n as u64).sum::<u64>() > 0);
        let before = q.peek_time();
        assert_eq!(q.peek_time(), before, "stats took no events");
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        let s = q.stats();
        assert_eq!(popped, 100);
        assert_eq!(s.len, 0);
        assert!(
            s.cascades > 0,
            "multi-millisecond spread must cascade coarse buckets"
        );
        assert!(s.cascaded_slots >= s.cascades);
        assert_eq!(s.free_cells, 100, "all payload cells returned to free");
    }

    /// Far-future events (including the `SimTime::MAX` sentinel) park in
    /// the top wheel levels and still pop in order.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::MAX, 3);
        q.schedule_at(SimTime::from_secs(3_600 * 24 * 365), 2); // one year
        q.schedule_at(SimTime::from_millis(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.now(), SimTime::MAX);
    }

    /// Zero-delay re-arming from inside the pop loop: each rescheduled
    /// event lands at the same instant with a later seq, after events
    /// already queued there.
    #[test]
    fn zero_delay_rearm_delivers_after_queued_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, "a");
        q.schedule_in(Duration::ZERO, "rearmed"); // at == now == t
        let (t2, second) = q.pop().unwrap();
        assert_eq!((t2, second), (t, "b"), "queued tie pops before re-arm");
        let (t3, third) = q.pop().unwrap();
        assert_eq!((t3, third), (t, "rearmed"));
    }

    /// `advance_to` across a long empty stretch, then scheduling near the
    /// new clock: lazily mis-leveled coarse buckets must still surface
    /// their minima correctly.
    #[test]
    fn advance_past_empty_slots_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(100), "far");
        q.advance_to(SimTime::from_secs(99));
        q.schedule_at(SimTime::from_secs(99) + Duration::from_nanos(1), "near");
        assert_eq!(
            q.peek_time(),
            Some(SimTime::from_secs(99) + Duration::from_nanos(1))
        );
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["near", "far"]);
    }

    /// Slab cells are reused: a long schedule/pop churn at a held
    /// population must not grow the slab beyond the peak population.
    #[test]
    fn slab_reuses_freed_cells() {
        let mut q = EventQueue::new();
        let mut state = 0xD1CEu64;
        let mut rng = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        for i in 0..64u64 {
            q.schedule_in(Duration::from_nanos(rng() % 1_000_000), i);
        }
        for i in 0..100_000u64 {
            let (_, _) = q.pop().expect("population held at 64");
            q.schedule_in(Duration::from_nanos(rng() % 1_000_000), i);
        }
        assert_eq!(q.len(), 64);
        // 100k events flowed through; the slab stayed at the held
        // population (cells reused through the free list).
        assert!(
            q.slab.len() <= 64,
            "slab grew to {} cells for a held population of 64",
            q.slab.len()
        );
    }

    /// A randomized hold-model churn must agree with the reference engine
    /// exactly — the in-crate smoke version of the differential oracle in
    /// `tests/queue_equiv.rs`.
    #[test]
    fn wheel_agrees_with_references_under_churn() {
        let mut wheel = EventQueue::new();
        let mut oracle = RefQueue::new();
        // Deterministic splitmix64 stream.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut rng = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in 0..50_000u64 {
            let r = rng();
            if r % 3 == 0 && !wheel.is_empty() {
                let a = wheel.pop();
                let b = oracle.pop();
                assert_eq!(a, b, "slab wheel diverged from heap at op {i}");
            } else {
                // Delays spanning ten orders of magnitude, with a bias
                // toward ties (delay 0).
                let shift = (r >> 8) % 34;
                let delay = Duration::from_nanos(if r % 5 == 0 { 0 } else { r % (1 << shift) });
                wheel.schedule_in(delay, i);
                oracle.schedule_in(delay, i);
            }
            assert_eq!(wheel.len(), oracle.len());
            assert_eq!(wheel.peek_time(), oracle.peek_time());
            assert_eq!(wheel.now(), oracle.now());
        }
        while let Some(a) = wheel.pop() {
            assert_eq!(Some(a), oracle.pop());
        }
        assert!(oracle.is_empty());
    }

    mod reference_contract {
        //! The oracle itself honors the documented contract.
        use super::*;

        #[test]
        fn pops_in_time_order_with_fifo_ties() {
            let mut q = RefQueue::new();
            let t = SimTime::from_millis(5);
            q.schedule_at(SimTime::from_millis(9), 99);
            for i in 0..4 {
                q.schedule_at(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![0, 1, 2, 3, 99]);
        }

        #[test]
        #[should_panic(expected = "into the past")]
        fn scheduling_into_past_panics() {
            let mut q = RefQueue::new();
            q.schedule_at(SimTime::from_millis(10), ());
            q.pop();
            q.schedule_at(SimTime::from_millis(5), ());
        }

        #[test]
        #[should_panic(expected = "pending event")]
        fn advance_past_pending_event_panics() {
            let mut q = RefQueue::new();
            q.schedule_at(SimTime::from_millis(10), ());
            q.advance_to(SimTime::from_millis(20));
        }
    }
}
