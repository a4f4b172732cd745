//! The event and metric collector.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::series::GaugeSeries;
use crate::TimeNs;

/// A recorded argument value attached to a span or instant.
///
/// Only integers and strings are representable — floating point is banned
/// from the telemetry path so exports stay byte-identical across runs and
/// hosts. A `&'static str` (a literal, an interned name) is borrowed, not
/// copied; only a `String` the caller built is owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A string.
    Str(Cow<'static, str>),
}

impl ArgValue {
    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ArgValue::U64(v) => Some(*v),
            ArgValue::I64(v) => u64::try_from(*v).ok(),
            ArgValue::Str(_) => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ArgValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is an integer `0` or `1` (the encoding
    /// `From<bool>` produces — floats and free-form strings are banned from
    /// the telemetry path).
    pub fn as_bool(&self) -> Option<bool> {
        match self.as_u64() {
            Some(0) => Some(false),
            Some(1) => Some(true),
            _ => None,
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v.into())
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::U64(v.into())
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// One key-value argument of a span or instant.
pub type Arg = (&'static str, ArgValue);

/// Key-value arguments attached to a span or instant.
pub type Args = Vec<Arg>;

/// A span begun with [`Recorder::begin`]: its start, and the recorder's
/// clear count when it began. The recorder holds nothing for a span in
/// flight; its owner keeps the token beside whatever else names the span,
/// and [`Recorder::end`] records the span whole. `end` consumes the token,
/// so a span cannot be ended twice.
///
/// A token handed out while recording is off, and the default token, are
/// inert: ending one records nothing. So is a token that outlived a
/// [`Recorder::clear`].
#[derive(Debug, Default)]
#[must_use = "a span is recorded only when its token is passed to `Recorder::end`"]
pub struct SpanStart {
    start_ns: TimeNs,
    /// The recorder's epoch at `begin` (its clear count plus one); 0 for
    /// an inert token.
    epoch: u64,
}

/// A completed span: a named interval of virtual time on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Category, e.g. `"op"`, `"net"`, `"dht"`, `"repair"`.
    pub cat: &'static str,
    /// Span name, e.g. `"fetch"` or `"fetch.flow_home"`.
    pub name: &'static str,
    /// Track (Chrome `tid`) the span renders on.
    pub track: u64,
    /// Start, in virtual nanoseconds.
    pub start_ns: TimeNs,
    /// End, in virtual nanoseconds.
    pub end_ns: TimeNs,
    /// Attached arguments, in record order.
    pub args: Args,
}

impl SpanRec {
    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Span duration in virtual nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A point-in-time event on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRec {
    /// Category, e.g. `"fault"`.
    pub cat: &'static str,
    /// Instant name, e.g. `"fault.partition"`.
    pub name: &'static str,
    /// Track (Chrome `tid`) the instant renders on.
    pub track: u64,
    /// Timestamp, in virtual nanoseconds.
    pub ts_ns: TimeNs,
    /// Attached arguments, in record order.
    pub args: Args,
}

impl InstantRec {
    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One entry of the event log, in record order.
#[derive(Debug, Clone, PartialEq)]
pub enum EventRec {
    /// A completed span (logged when it ends).
    Span(SpanRec),
    /// A point-in-time event.
    Instant(InstantRec),
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are powers of two: bucket 0 holds the value 0 and bucket `i`
/// (for `i ≥ 1`) holds values in `(2^(i-1) - 1, 2^i - 1]`. Power-of-two
/// bucketing needs no configuration, covers the full `u64` range, and keeps
/// the export integer-only.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample, or 0 when empty.
    pub min: u64,
    /// Largest sample, or 0 when empty.
    pub max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending bound order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let bound = ((1u128 << i) - 1) as u64;
                (bound, n)
            })
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `numer / denom`, as the inclusive upper bound
    /// of the bucket holding the sample of that rank (clamped to the
    /// observed maximum so single-sample and top-bucket queries stay tight).
    ///
    /// The rank is `ceil(count * numer / denom)` computed in `u128`, so the
    /// result is exact integer math — no floats, byte-stable across hosts.
    /// Returns 0 when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is 0 or `numer > denom`.
    pub fn value_at_quantile(&self, numer: u64, denom: u64) -> u64 {
        assert!(denom > 0, "quantile denominator must be non-zero");
        assert!(numer <= denom, "quantile must be at most 1");
        if self.count == 0 {
            return 0;
        }
        let rank_u128 = (u128::from(self.count) * u128::from(numer)).div_ceil(u128::from(denom));
        let rank = u64::try_from(rank_u128.max(1)).expect("rank fits: rank <= count");
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let bound = ((1u128 << i) - 1) as u64;
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    ///
    /// Used by sliding windows that keep one histogram per time slice and
    /// merge the live slices on demand.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Cumulative `(inclusive upper bound, samples ≤ bound)` pairs over the
    /// non-empty buckets, in ascending order — the shape Prometheus
    /// histogram exposition wants.
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut acc = 0u64;
        self.buckets().map(move |(bound, n)| {
            acc += n;
            (bound, acc)
        })
    }
}

/// An append-only sequence kept in chunks of `N` items, for logs that grow
/// with the run. Growing never moves what is stored: a full chunk is left
/// as it is and a new one is started, so the log never holds two copies of
/// itself, as a doubling `Vec` does while it reallocates, and allocates
/// once per `N` items. Item `i` sits at `chunks[i / N][i % N]`.
///
/// The event log sizes its chunks at [`CHUNK_BYTES`].
#[derive(Debug)]
struct Chunked<T, const N: usize> {
    chunks: Vec<Vec<T>>,
}

impl<T, const N: usize> Default for Chunked<T, N> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

impl<T, const N: usize> Chunked<T, N> {
    /// Appends `item` and returns its index.
    fn push(&mut self, item: T) -> usize {
        let index = self.len();
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < N => tail.push(item),
            _ => {
                let mut fresh = Vec::with_capacity(N);
                fresh.push(item);
                self.chunks.push(fresh);
            }
        }
        index
    }

    fn get(&self, index: usize) -> &T {
        &self.chunks[index / N][index % N]
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }

    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |tail| (self.chunks.len() - 1) * N + tail.len())
    }

    fn clear(&mut self) {
        self.chunks.clear();
    }
}

/// Hashes the address words a [`Table`] is keyed by: a rotate, xor and
/// multiply per word, as rustc's `FxHasher` does. The keys are addresses
/// the program chose, so the table needs no flood resistance.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte.into());
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A string's address and length: what a [`Table`] finds it by.
type StrAddr = (usize, usize);

fn addr(s: &'static str) -> StrAddr {
    (s.as_ptr() as usize, s.len())
}

/// Names a [`Table`] makes room for at its first: the runtime records 43
/// labels and 29 keys, so once its first event is in, a table never grows
/// while a run records.
const TABLE_ROOM: usize = 64;

/// The `&'static str`s (or pairs of them) the event log has seen, each
/// under a dense id that a head or an argument stores in its place. A
/// string is found by its address and length, never by its content, so a
/// lookup hashes a few words; two equal strings at distinct addresses get
/// two ids, each reading back as itself. Ids never reach an export.
#[derive(Debug)]
struct Table<T, K> {
    items: Vec<T>,
    ids: HashMap<K, u32, BuildHasherDefault<AddrHasher>>,
}

impl<T, K> Default for Table<T, K> {
    fn default() -> Self {
        Table {
            items: Vec::new(),
            ids: HashMap::default(),
        }
    }
}

impl<T: Copy, K: Hash + Eq> Table<T, K> {
    /// The id of `item`, found by `key`; an item not seen yet is added.
    fn id(&mut self, key: K, item: T) -> u32 {
        if self.items.is_empty() {
            self.items.reserve(TABLE_ROOM);
            self.ids.reserve(TABLE_ROOM);
        }
        let items = &mut self.items;
        *self.ids.entry(key).or_insert_with(|| {
            items.push(item);
            u32::try_from(items.len() - 1).expect("fewer than 2^32 names")
        })
    }

    fn get(&self, id: u32) -> T {
        self.items[id as usize]
    }
}

/// One entry of the event log: 32 bytes, with its arguments a run of the
/// log's argument column and its category and name one label id.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// A span's start, or an instant's timestamp.
    start_ns: TimeNs,
    /// A span's end; an instant's timestamp again.
    end_ns: TimeNs,
    track: u64,
    /// The index of the event's first argument in the argument column.
    first_arg: u32,
    /// The (category, name) pair's id in the log's label table.
    label: u16,
    /// The argument count, shifted left one bit, with bit 0 set for a
    /// span: a flag beside the count rather than an `Option` end, which
    /// would make every head 8 bytes wider.
    argc_span: u16,
}

/// The kind of value an argument [`Slot`] holds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    U64,
    I64,
    /// The value is an index in the log's string column.
    Str,
}

/// One argument of the event log, 16 bytes: its key's id, its kind, and
/// eight bytes of value — the integer itself, or the string's index.
#[derive(Debug, Clone, Copy)]
struct Slot {
    value: u64,
    key: u32,
    kind: Kind,
}

const _: () = assert!(std::mem::size_of::<Head>() == 32);
const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// Bytes of address space per chunk of the event log: above 32 MiB, the
/// highest point to which glibc's malloc moves its mmap threshold, so
/// every chunk is a mapping of its own. Its pages become resident only as
/// events are written into them, and the log never sits in the heap
/// between the simulation's short-lived object buffers: chunks small
/// enough to be carved from the heap fragmented it, and moved
/// `planes-gray`'s peak RSS by up to 19 MiB from run to run.
const CHUNK_BYTES: usize = 40 << 20;

/// A string column's item: a literal or interned name is borrowed, a
/// string the caller built is owned.
type Text = Cow<'static, str>;

/// The event log as columns: one 32-byte [`Head`] per completed span or
/// instant, in record order; one column of 16-byte argument [`Slot`]s,
/// every event's back to back; and a column holding each string
/// argument's value. A head's category and name and a slot's key are ids
/// in two tables of the `&'static str`s seen, which survive a clear.
/// Recording an event appends one head and its arguments, so an event
/// allocates nothing of its own; each column allocates once per
/// [`CHUNK_BYTES`] (1 310 720 heads, 2 621 440 arguments, 1 747 626
/// strings).
#[derive(Debug, Default)]
pub(crate) struct EventLog {
    heads: Chunked<Head, { CHUNK_BYTES / std::mem::size_of::<Head>() }>,
    args: Chunked<Slot, { CHUNK_BYTES / std::mem::size_of::<Slot>() }>,
    texts: Chunked<Text, { CHUNK_BYTES / std::mem::size_of::<Text>() }>,
    labels: Table<(&'static str, &'static str), (StrAddr, StrAddr)>,
    keys: Table<&'static str, StrAddr>,
}

/// An event read back from the [`EventLog`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event<'a> {
    pub(crate) cat: &'static str,
    pub(crate) name: &'static str,
    pub(crate) track: u64,
    /// A span's start, or an instant's timestamp.
    pub(crate) start_ns: TimeNs,
    /// A span's end; `None` for an instant.
    pub(crate) end_ns: Option<TimeNs>,
    log: &'a EventLog,
    first_arg: usize,
    argc: usize,
}

/// An argument value read back from the [`EventLog`], a string borrowed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArgRef<'a> {
    U64(u64),
    I64(i64),
    Str(&'a Text),
}

impl ArgRef<'_> {
    fn to_value(self) -> ArgValue {
        match self {
            ArgRef::U64(v) => ArgValue::U64(v),
            ArgRef::I64(v) => ArgValue::I64(v),
            ArgRef::Str(s) => ArgValue::Str(s.clone()),
        }
    }
}

impl<'a> Event<'a> {
    /// The event's arguments, in record order.
    pub(crate) fn args(self) -> impl Iterator<Item = (&'static str, ArgRef<'a>)> {
        let log = self.log;
        (self.first_arg..self.first_arg + self.argc).map(move |i| {
            let slot = log.args.get(i);
            let value = match slot.kind {
                Kind::U64 => ArgRef::U64(slot.value),
                Kind::I64 => ArgRef::I64(slot.value as i64),
                Kind::Str => ArgRef::Str(log.texts.get(slot.value as usize)),
            };
            (log.keys.get(slot.key), value)
        })
    }

    fn owned_args(self) -> Args {
        self.args().map(|(k, v)| (k, v.to_value())).collect()
    }
}

impl EventLog {
    /// Appends one event: a span, or an instant when `end_ns` is `None`.
    fn push(
        &mut self,
        cat: &'static str,
        name: &'static str,
        track: u64,
        start_ns: TimeNs,
        end_ns: Option<TimeNs>,
        args: impl IntoIterator<Item = Arg>,
    ) {
        let first_arg = self.args.len();
        for (key, value) in args {
            let (kind, value) = match value {
                ArgValue::U64(v) => (Kind::U64, v),
                ArgValue::I64(v) => (Kind::I64, v as u64),
                ArgValue::Str(s) => (Kind::Str, self.texts.push(s) as u64),
            };
            let key = self.keys.id(addr(key), key);
            self.args.push(Slot { value, key, kind });
        }
        let argc = self.args.len() - first_arg;
        let label = self.labels.id((addr(cat), addr(name)), (cat, name));
        self.heads.push(Head {
            start_ns,
            end_ns: end_ns.unwrap_or(start_ns),
            track,
            first_arg: u32::try_from(first_arg).expect("fewer than 2^32 arguments"),
            label: u16::try_from(label).expect("fewer than 2^16 (category, name) pairs"),
            argc_span: u16::try_from(argc << 1).expect("fewer than 2^15 arguments per event")
                | u16::from(end_ns.is_some()),
        });
    }

    /// Every event, in record order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Event<'_>> {
        self.heads.iter().map(|h| {
            let (cat, name) = self.labels.get(h.label.into());
            Event {
                cat,
                name,
                track: h.track,
                start_ns: h.start_ns,
                end_ns: (h.argc_span & 1 == 1).then_some(h.end_ns),
                log: self,
                first_arg: h.first_arg as usize,
                argc: usize::from(h.argc_span >> 1),
            }
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.args.clear();
        self.texts.clear();
    }

    /// The log as owned records, built on demand.
    fn to_records(&self) -> Vec<EventRec> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().map(|ev| match ev.end_ns {
            Some(end_ns) => EventRec::Span(SpanRec {
                cat: ev.cat,
                name: ev.name,
                track: ev.track,
                start_ns: ev.start_ns,
                end_ns,
                args: ev.owned_args(),
            }),
            None => EventRec::Instant(InstantRec {
                cat: ev.cat,
                name: ev.name,
                track: ev.track,
                ts_ns: ev.start_ns,
                args: ev.owned_args(),
            }),
        }));
        out
    }
}

/// A registered gauge: the index of its column in the [`Recorder`] that
/// handed it out ([`Recorder::register_gauge`]). Ids are dense, start at 0
/// and stay valid for the recorder's lifetime, [`Recorder::clear`]
/// included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GaugeId(u32);

/// A stretch of consecutive sample-clock rows, `first_row..first_row +
/// len`, in which one column was sampled with one value.
#[derive(Debug, Clone, Copy)]
struct ValueRun {
    value: i64,
    first_row: u32,
    len: u32,
}

/// One registered gauge: its name (shared with the name index) and its
/// points, as runs over the recorder's sample clock.
#[derive(Debug)]
struct GaugeColumn {
    name: Arc<str>,
    runs: Vec<ValueRun>,
}

impl GaugeColumn {
    /// Adds the point `value` at clock row `row`: it extends the last run
    /// only if that run holds `value` and ends just before `row`. A changed
    /// value, a skipped row, or a second point in one row starts a run.
    fn push(&mut self, row: u32, value: i64) {
        match self.runs.last_mut() {
            Some(run) if run.value == value && run.first_row + run.len == row => run.len += 1,
            _ => self.runs.push(ValueRun {
                value,
                first_row: row,
                len: 1,
            }),
        }
    }
}

/// A column's points, read back from the sample clock and the column's
/// runs without copying either.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GaugeView<'a> {
    clock: &'a [TimeNs],
    runs: &'a [ValueRun],
}

impl<'a> GaugeView<'a> {
    /// Every point, `(ts_ns, value)`, in record order.
    pub(crate) fn points(self) -> impl Iterator<Item = (TimeNs, i64)> + 'a {
        let clock = self.clock;
        self.runs.iter().flat_map(move |run| {
            let rows = run.first_row as usize..(run.first_row + run.len) as usize;
            clock[rows].iter().map(move |&ts| (ts, run.value))
        })
    }

    /// The last point.
    pub(crate) fn last(self) -> Option<(TimeNs, i64)> {
        let run = self.runs.last()?;
        let row = (run.first_row + run.len - 1) as usize;
        Some((self.clock[row], run.value))
    }

    /// The owned copy of the points a [`Snapshot`] hands out.
    fn to_series(self) -> GaugeSeries {
        let mut points = Vec::with_capacity(self.runs.iter().map(|run| run.len as usize).sum());
        points.extend(self.points());
        GaugeSeries::from_points(points)
    }
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) events: EventLog,
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) hists: BTreeMap<&'static str, Histogram>,
    pub(crate) exemplars: BTreeMap<&'static str, String>,
    /// The instant of every sample row that recorded a point: the
    /// timestamps all columns' runs index into.
    clock: Vec<TimeNs>,
    /// One column per registered gauge, indexed by [`GaugeId`].
    columns: Vec<GaugeColumn>,
    /// Registered gauge names in name order: what every export walks.
    gauge_index: BTreeMap<Arc<str>, GaugeId>,
}

impl Inner {
    fn register_gauge(&mut self, name: &str) -> GaugeId {
        if let Some(&id) = self.gauge_index.get(name) {
            return id;
        }
        let id = GaugeId(u32::try_from(self.columns.len()).expect("fewer than 2^32 gauges"));
        let name: Arc<str> = name.into();
        self.columns.push(GaugeColumn {
            name: Arc::clone(&name),
            runs: Vec::new(),
        });
        self.gauge_index.insert(name, id);
        id
    }

    /// Every gauge series holding at least one point, in name order. A
    /// column registered but never sampled (or emptied by a clear) is not
    /// a series.
    pub(crate) fn gauge_series(&self) -> impl Iterator<Item = (&Arc<str>, GaugeView<'_>)> {
        self.gauge_index
            .iter()
            .map(|(name, id)| (name, &self.columns[id.0 as usize].runs))
            .filter(|(_, runs)| !runs.is_empty())
            .map(|(name, runs)| {
                (
                    name,
                    GaugeView {
                        clock: &self.clock,
                        runs,
                    },
                )
            })
    }
}

#[derive(Debug)]
struct Shared {
    enabled: AtomicBool,
    /// One more than the number of clears so far: what a [`SpanStart`]
    /// must still match when it ends. Moved and compared only under the
    /// `inner` lock, and it publishes no other data, so `Relaxed` does: a
    /// `begin` racing a `clear` from another thread may take either epoch,
    /// and its span is recorded or not as if it began on that side.
    epoch: AtomicU64,
    inner: Mutex<Inner>,
}

/// The telemetry collector: cloneable, thread-safe, off by default.
///
/// All recording methods take `&self`; clones share one underlying buffer,
/// so every subsystem (network, overlay nodes, the op engine) can hold its
/// own handle. When disabled, each call costs one relaxed atomic load.
#[derive(Debug, Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Creates a disabled recorder with empty buffers.
    pub fn new() -> Self {
        Recorder {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(false),
                epoch: AtomicU64::new(1),
                inner: Mutex::new(Inner::default()),
            }),
        }
    }

    /// Turns recording on or off. Already-collected data is kept.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Discards all collected events and metrics; a span begun before the
    /// clear records nothing when it ends. Gauge registrations survive — every [`GaugeId`] handed out stays
    /// valid — but their points are dropped, so every export reads as if
    /// the gauges had never been sampled.
    pub fn clear(&self) {
        let mut inner = self.lock();
        self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        inner.events.clear();
        inner.counters.clear();
        inner.hists.clear();
        inner.exemplars.clear();
        inner.clock.clear();
        for column in &mut inner.columns {
            column.runs.clear();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.shared.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Begins a span at `start_ns`; hands out an inert token while
    /// disabled.
    pub fn begin(&self, start_ns: TimeNs) -> SpanStart {
        if !self.enabled() {
            return SpanStart::default();
        }
        SpanStart {
            start_ns,
            epoch: self.shared.epoch.load(Ordering::Relaxed),
        }
    }

    /// Ends a span begun with [`Recorder::begin`] and records it whole, its
    /// arguments in the order given (a caller passes the ones it began
    /// with first).
    ///
    /// A span begun while enabled is recorded even if recording has been
    /// disabled since; one begun before a [`Recorder::clear`] is not.
    pub fn end(
        &self,
        span: SpanStart,
        cat: &'static str,
        name: &'static str,
        track: u64,
        end_ns: TimeNs,
        args: impl IntoIterator<Item = Arg>,
    ) {
        if span.epoch == 0 {
            return;
        }
        let mut inner = self.lock();
        if span.epoch == self.shared.epoch.load(Ordering::Relaxed) {
            inner
                .events
                .push(cat, name, track, span.start_ns, Some(end_ns), args);
        }
    }

    /// Records a complete span in one call.
    pub fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u64,
        start_ns: TimeNs,
        end_ns: TimeNs,
    ) {
        self.span_args(cat, name, track, start_ns, end_ns, []);
    }

    /// Records a complete span with arguments in one call.
    pub fn span_args(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u64,
        start_ns: TimeNs,
        end_ns: TimeNs,
        args: impl IntoIterator<Item = Arg>,
    ) {
        if !self.enabled() {
            return;
        }
        self.lock()
            .events
            .push(cat, name, track, start_ns, Some(end_ns), args);
    }

    /// Records a point-in-time event with arguments.
    pub fn instant_args(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u64,
        ts_ns: TimeNs,
        args: impl IntoIterator<Item = Arg>,
    ) {
        if !self.enabled() {
            return;
        }
        self.lock().events.push(cat, name, track, ts_ns, None, args);
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn add(&self, name: &'static str, delta: u64) {
        if !self.enabled() {
            return;
        }
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    /// Records one histogram sample.
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.enabled() {
            return;
        }
        self.lock().hists.entry(name).or_default().observe(value);
    }

    /// Attaches an OpenMetrics-style exemplar to a counter: the Prometheus
    /// export appends `# {ledger="<label>"}` to that counter's sample line,
    /// linking the aggregate to one concrete causal-ledger entry (the most
    /// recent one wins). No-op while disabled.
    pub fn set_exemplar(&self, name: &'static str, label: String) {
        if !self.enabled() {
            return;
        }
        self.lock().exemplars.insert(name, label);
    }

    /// Registers the gauge `name` — or finds it, if it is registered
    /// already — and returns its column's id. The name is copied once,
    /// here; samples written through the id never see it again.
    /// Registration records nothing, so it works while disabled, and a
    /// column that is never sampled appears in no export.
    pub fn register_gauge(&self, name: &str) -> GaugeId {
        self.lock().register_gauge(name)
    }

    /// The number of gauges registered so far.
    pub fn gauges_registered(&self) -> usize {
        self.lock().columns.len()
    }

    /// The name a gauge was registered under.
    ///
    /// # Panics
    ///
    /// Panics if `id` was handed out by another recorder.
    pub fn gauge_name(&self, id: GaugeId) -> Arc<str> {
        Arc::clone(&self.lock().columns[id.0 as usize].name)
    }

    /// Appends one sample row — the point `(ts_ns, value)` to each
    /// registered gauge — under one lock. The row adds `ts_ns` to the
    /// sample clock once; a point that repeats its column's value from the
    /// row before only lengthens that column's last run, and any other
    /// point starts a run. No name is looked at.
    ///
    /// # Panics
    ///
    /// Panics if an id was handed out by another recorder.
    pub fn gauge_sample(&self, ts_ns: TimeNs, row: &[(GaugeId, i64)]) {
        if !self.enabled() || row.is_empty() {
            return;
        }
        let mut inner = self.lock();
        let at = u32::try_from(inner.clock.len()).expect("fewer than 2^32 sample rows");
        inner.clock.push(ts_ns);
        for &(id, value) in row {
            inner.columns[id.0 as usize].push(at, value);
        }
    }

    /// A copy of the histogram recorded under `name`, if any sample was:
    /// one histogram, where [`Recorder::snapshot`] copies everything.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().hists.get(name).cloned()
    }

    /// The last point's value of every sampled gauge, in name order.
    pub fn latest_gauges(&self) -> Vec<(Arc<str>, i64)> {
        self.lock()
            .gauge_series()
            .filter_map(|(name, view)| Some((Arc::clone(name), view.last()?.1)))
            .collect()
    }

    /// A structured copy of everything recorded so far (completed spans,
    /// instants, counters, histograms, gauge series). Open spans are not
    /// included.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            events: inner.events.to_records(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: inner
                .hists
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            series: inner
                .gauge_series()
                .map(|(k, v)| (k.to_string(), v.to_series()))
                .collect(),
            exemplars: inner
                .exemplars
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// Serializes the event log as Chrome `trace_event` JSON.
    pub fn chrome_trace_json(&self) -> String {
        crate::export::chrome_trace_json(&self.lock())
    }

    /// Serializes counters and histograms as a flat, sorted JSON document.
    ///
    /// `view` is counter rows kept outside the recorder, `(name, value)`:
    /// while recording is on they are written in name order among the
    /// stored counters (a row replaces a stored counter of its name), and
    /// nothing is stored. Pass `[]` for the stored counters alone.
    pub fn metrics_json(&self, view: impl IntoIterator<Item = (&'static str, u64)>) -> String {
        let inner = self.lock();
        crate::export::metrics_json(&inner, &self.counters_with(&inner, view))
    }

    /// Serializes counters (with `view` merged in, as
    /// [`Recorder::metrics_json`] merges it), histograms, and the latest
    /// gauge values in Prometheus text exposition format.
    pub fn prometheus_text(&self, view: impl IntoIterator<Item = (&'static str, u64)>) -> String {
        let inner = self.lock();
        crate::export::prometheus_text(&inner, &self.counters_with(&inner, view))
    }

    /// The stored counters with `view`'s rows merged in while recording.
    fn counters_with(
        &self,
        inner: &Inner,
        view: impl IntoIterator<Item = (&'static str, u64)>,
    ) -> BTreeMap<&'static str, u64> {
        let mut counters = inner.counters.clone();
        counters.extend(view.into_iter().filter(|_| self.enabled()));
        counters
    }

    /// Serializes all gauge time series as a sorted JSON document.
    pub fn series_json(&self) -> String {
        crate::export::series_json(&self.lock())
    }
}

/// A structured copy of a recorder's state, for tests and reports.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Completed spans and instants, in record order.
    pub events: Vec<EventRec>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Gauge time series by name.
    pub series: BTreeMap<String, GaugeSeries>,
    /// Exemplar labels by counter name.
    pub exemplars: BTreeMap<String, String>,
}

impl Snapshot {
    /// All completed spans, in record order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRec> {
        self.events.iter().filter_map(|e| match e {
            EventRec::Span(s) => Some(s),
            EventRec::Instant(_) => None,
        })
    }

    /// All instants, in record order.
    pub fn instants(&self) -> impl Iterator<Item = &InstantRec> {
        self.events.iter().filter_map(|e| match e {
            EventRec::Instant(i) => Some(i),
            EventRec::Span(_) => None,
        })
    }

    /// A counter's value, or 0 if it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_collects_nothing() {
        let rec = Recorder::new();
        let span = rec.begin(0);
        rec.end(span, "op", "store", 1, 10, []);
        rec.span("op", "x", 1, 0, 5);
        rec.instant_args("op", "y", 1, 3, []);
        rec.add("c", 2);
        rec.observe("h", 9);
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn spans_survive_disable_between_begin_and_end() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let span = rec.begin(100);
        rec.set_enabled(false);
        rec.end(span, "op", "fetch", 3, 400, [("ok", ArgValue::from(true))]);
        let snap = rec.snapshot();
        let span = snap.spans().next().expect("span recorded");
        assert_eq!(span.name, "fetch");
        assert_eq!(span.dur_ns(), 300);
        assert_eq!(span.arg("ok").and_then(ArgValue::as_u64), Some(1));
    }

    #[test]
    fn runs_stay_whole_and_in_order_across_chunk_ends() {
        let mut log: Chunked<u32, 4> = Chunked::default();
        let mut runs = Vec::new();
        let mut next = 0u32;
        for len in [0, 3, 2, 0, 4, 1, 7, 3, 3, 0] {
            let items: Vec<u32> = (next..next + len).collect();
            next += len;
            let first = log.len();
            for &item in &items {
                log.push(item);
            }
            runs.push((first, items));
        }
        for (first, items) in &runs {
            let read: Vec<u32> = (*first..first + items.len()).map(|i| *log.get(i)).collect();
            assert_eq!(&read, items);
        }
        assert_eq!(
            log.iter().copied().collect::<Vec<_>>(),
            (0..next).collect::<Vec<_>>()
        );
        assert_eq!(log.len(), next as usize);
        assert!(log.chunks.len() > 4, "the runs crossed chunk ends");
        let (tail, full) = log.chunks.split_last().expect("chunks");
        assert!(full.iter().all(|chunk| chunk.len() == 4) && !tail.is_empty());
    }

    #[test]
    fn a_token_that_outlived_a_clear_ends_nothing() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let stale = rec.begin(0);
        rec.clear();
        let live = rec.begin(10);
        rec.end(stale, "op", "cleared", 1, 20, []);
        assert!(rec.snapshot().events.is_empty());
        rec.end(live, "op", "live", 1, 30, []);
        let snap = rec.snapshot();
        let names: Vec<_> = snap
            .spans()
            .map(|s| (s.name, s.start_ns, s.end_ns))
            .collect();
        assert_eq!(names, [("live", 10, 30)]);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.add("n", 1);
        rec.add("n", 4);
        for v in [0u64, 1, 2, 3, 4, 1024] {
            rec.observe("h", v);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("n"), 5);
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1034);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        let buckets: Vec<_> = h.buckets().collect();
        // 0 → bucket 0; 1 → (..1]; 2,3 → (..3]; 4 → (..7]; 1024 → (..2047].
        assert_eq!(buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (2047, 1)]);
        assert_eq!(rec.histogram("h").as_ref(), Some(h), "one read, same copy");
        assert_eq!(rec.histogram("n"), None, "a counter is not a histogram");
    }

    #[test]
    fn histogram_covers_u64_extremes() {
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(u64::MAX, 2)]);
        assert_eq!(h.sum, u64::MAX); // saturating
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.value_at_quantile(99, 100), 0);
    }

    #[test]
    fn quantile_returns_bucket_upper_bound_clamped_to_max() {
        let mut h = Histogram::default();
        h.observe(100); // bucket (63, 127]
        assert_eq!(h.value_at_quantile(1, 2), 100); // bound 127 clamped to max
        assert_eq!(h.value_at_quantile(1, 1), 100);
        h.observe(1000); // bucket (511, 1023]
        h.observe(2000); // bucket (1023, 2047]
        h.observe(3000); // bucket (2047, 4095]
                         // rank(p50) = ceil(4 * 1/2) = 2 → second sample → bound 1023.
        assert_eq!(h.value_at_quantile(1, 2), 1023);
        // rank(p99) = ceil(4 * 99/100) = 4 → top bucket, clamped to max.
        assert_eq!(h.value_at_quantile(99, 100), 3000);
        // p0 still picks the first sample's bucket.
        assert_eq!(h.value_at_quantile(0, 100), 127);
    }

    #[test]
    fn quantile_rank_is_exact_integer_math() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(10); // (7, 15]
        }
        for _ in 0..10 {
            h.observe(5000); // (4095, 8191]
        }
        // rank(p90) = 90 → still in the low bucket.
        assert_eq!(h.value_at_quantile(90, 100), 15);
        // rank(p91) = 91 → first slow sample.
        assert_eq!(h.value_at_quantile(91, 100), 5000);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn quantile_rejects_zero_denominator() {
        Histogram::default().value_at_quantile(1, 0);
    }

    #[test]
    fn merge_folds_counts_and_extremes() {
        let mut a = Histogram::default();
        a.observe(4);
        a.observe(9);
        let mut b = Histogram::default();
        b.observe(1);
        b.observe(100);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 114);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 100);
        a.merge(&Histogram::default());
        assert_eq!(a.count, 4);
        let mut empty = Histogram::default();
        empty.merge(&a);
        assert_eq!(empty.min, 1);
        assert_eq!(empty.max, 100);
        assert_eq!(empty.value_at_quantile(1, 1), 100);
    }

    #[test]
    fn cumulative_buckets_accumulate() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100] {
            h.observe(v);
        }
        let cum: Vec<_> = h.cumulative_buckets().collect();
        assert_eq!(cum, vec![(1, 1), (3, 3), (127, 4)]);
    }

    #[test]
    fn gauges_record_and_survive_snapshot() {
        let rec = Recorder::new();
        let cpu = rec.register_gauge("node0.cpu_milli");
        rec.gauge_sample(0, &[(cpu, 100)]); // disabled → dropped
        rec.set_enabled(true);
        rec.gauge_sample(500, &[(cpu, 250)]);
        rec.gauge_sample(1000, &[(cpu, 300)]);
        let snap = rec.snapshot();
        let s = &snap.series["node0.cpu_milli"];
        assert_eq!(s.points(), &[(500, 250), (1000, 300)]);
        assert_eq!(s.last(), Some((1000, 300)));
    }

    #[test]
    fn a_gauge_sample_lands_like_its_points_one_by_one() {
        let (by_row, by_point) = (Recorder::new(), Recorder::new());
        let (b, a) = (
            by_row.register_gauge("b.gauge"),
            by_row.register_gauge("a.gauge"),
        );
        assert_eq!(
            by_row.register_gauge("b.gauge"),
            b,
            "registration is idempotent"
        );
        by_row.gauge_sample(0, &[(a, 1)]); // disabled → dropped
        by_row.set_enabled(true);
        by_point.set_enabled(true);
        let (pb, pa) = (
            by_point.register_gauge("b.gauge"),
            by_point.register_gauge("a.gauge"),
        );
        for ts in [500, 1000] {
            by_row.gauge_sample(ts, &[(b, ts as i64), (a, -2)]);
            by_point.gauge_sample(ts, &[(pb, ts as i64)]);
            by_point.gauge_sample(ts, &[(pa, -2)]);
        }
        assert_eq!(by_row.series_json(), by_point.series_json());
        assert_eq!(by_row.prometheus_text([]), by_point.prometheus_text([]));
        assert_eq!(by_row.snapshot().series["b.gauge"].len(), 2);
        assert_eq!(&*by_row.gauge_name(a), "a.gauge");
        let latest: Vec<(Arc<str>, i64)> = vec![("a.gauge".into(), -2), ("b.gauge".into(), 1000)];
        assert_eq!(by_row.latest_gauges(), latest);
    }

    #[test]
    fn registered_but_unsampled_gauges_export_nothing() {
        let (registered, fresh) = (Recorder::new(), Recorder::new());
        registered.register_gauge("never.sampled");
        for rec in [&registered, &fresh] {
            rec.set_enabled(true);
            let id = rec.register_gauge("sampled");
            rec.gauge_sample(7, &[(id, 1)]);
        }
        assert_eq!(registered.gauges_registered(), 2);
        assert_eq!(registered.series_json(), fresh.series_json());
        assert_eq!(registered.prometheus_text([]), fresh.prometheus_text([]));
        assert_eq!(
            registered.snapshot().series.keys().collect::<Vec<_>>(),
            ["sampled"]
        );
    }

    #[test]
    fn a_cleared_recorder_exports_like_a_fresh_one_fed_the_same_points() {
        let (cleared, fresh) = (Recorder::new(), Recorder::new());
        cleared.set_enabled(true);
        let [x, y, z] = ["x", "y", "z"].map(|name| cleared.register_gauge(name));
        cleared.gauge_sample(100, &[(x, 1), (y, 2), (z, 3)]);
        cleared.clear();
        assert_eq!(cleared.gauges_registered(), 3, "registrations survive");
        assert_eq!(cleared.register_gauge("y"), y, "ids stay valid");
        // Only `y` is sampled after the clear: `x` and `z` must vanish.
        fresh.set_enabled(true);
        let fresh_y = fresh.register_gauge("y");
        for ts in [200, 300] {
            cleared.gauge_sample(ts, &[(y, ts as i64)]);
            fresh.gauge_sample(ts, &[(fresh_y, ts as i64)]);
        }
        assert_eq!(cleared.series_json(), fresh.series_json());
        assert_eq!(cleared.prometheus_text([]), fresh.prometheus_text([]));
        assert_eq!(cleared.snapshot().series, fresh.snapshot().series);
    }

    /// The runs gauge `id`'s column holds, and the sample clock's rows.
    fn gauge_runs(rec: &Recorder, id: GaugeId) -> (usize, usize) {
        let inner = rec.lock();
        (inner.columns[id.0 as usize].runs.len(), inner.clock.len())
    }

    /// A recorder with one gauge, `g`, recording.
    fn one_gauge() -> (Recorder, GaugeId) {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let g = rec.register_gauge("g");
        (rec, g)
    }

    #[test]
    fn a_held_gauge_is_one_run() {
        let (rec, g) = one_gauge();
        for ts in 0..10_000 {
            rec.gauge_sample(ts, &[(g, 7)]);
        }
        assert_eq!(gauge_runs(&rec, g), (1, 10_000));
        assert_eq!(rec.snapshot().series["g"].len(), 10_000);
        assert_eq!(rec.latest_gauges(), vec![("g".into(), 7)]);
    }

    #[test]
    fn a_gauge_that_changes_every_row_is_one_run_per_row() {
        let (rec, g) = one_gauge();
        for ts in 0..1_000 {
            rec.gauge_sample(ts, &[(g, ts as i64 % 2)]);
        }
        assert_eq!(gauge_runs(&rec, g), (1_000, 1_000));
    }

    #[test]
    fn a_skipped_row_splits_a_run() {
        let (rec, g) = one_gauge();
        let other = rec.register_gauge("other");
        rec.gauge_sample(0, &[(g, 1)]);
        rec.gauge_sample(1, &[(other, 0)]);
        rec.gauge_sample(2, &[(g, 1)]);
        assert_eq!(gauge_runs(&rec, g), (2, 3));
        assert_eq!(rec.snapshot().series["g"].points(), &[(0, 1), (2, 1)]);
    }

    #[test]
    fn a_sample_while_disabled_does_not_split_a_run() {
        let (rec, g) = one_gauge();
        rec.gauge_sample(0, &[(g, 1)]);
        rec.set_enabled(false);
        rec.gauge_sample(1, &[(g, 1)]);
        rec.set_enabled(true);
        rec.gauge_sample(2, &[(g, 1)]);
        assert_eq!(gauge_runs(&rec, g), (1, 2));
        assert_eq!(rec.snapshot().series["g"].points(), &[(0, 1), (2, 1)]);
    }

    #[test]
    fn clear_empties_the_clock_and_the_runs() {
        let (rec, g) = one_gauge();
        for ts in 0..10 {
            rec.gauge_sample(ts, &[(g, ts as i64)]);
        }
        rec.clear();
        assert_eq!(gauge_runs(&rec, g), (0, 0));
        rec.gauge_sample(20, &[(g, 9)]);
        assert_eq!(gauge_runs(&rec, g), (1, 1));
        assert_eq!(rec.snapshot().series["g"].points(), &[(20, 9)]);
    }

    #[test]
    fn a_gauge_named_twice_in_one_row_gets_two_points_at_one_instant() {
        let (rec, g) = one_gauge();
        rec.gauge_sample(5, &[(g, 3), (g, 3)]);
        rec.gauge_sample(6, &[(g, 3)]);
        assert_eq!(gauge_runs(&rec, g), (2, 2));
        assert_eq!(
            rec.snapshot().series["g"].points(),
            &[(5, 3), (5, 3), (6, 3)]
        );
        assert_eq!(
            rec.series_json(),
            "{\n\"series\":{\n\"g\":[[5,3],[5,3],[6,3]]\n}\n}\n"
        );
    }

    #[test]
    fn clear_resets_everything() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.span("op", "x", 1, 0, 5);
        rec.add("c", 1);
        rec.observe("h", 1);
        let g = rec.register_gauge("g");
        rec.gauge_sample(0, &[(g, 1)]);
        rec.clear();
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.series.is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let other = rec.clone();
        other.instant_args("net", "drop", 2, 9, []);
        assert_eq!(rec.snapshot().instants().count(), 1);
    }
}
