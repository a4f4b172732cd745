//! The event and metric collector.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::series::GaugeSeries;
use crate::TimeNs;

/// A recorded argument value attached to a span or instant.
///
/// Only integers and strings are representable — floating point is banned
/// from the telemetry path so exports stay byte-identical across runs and
/// hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A string.
    Str(String),
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

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Key-value arguments attached to a span or instant.
pub type Args = Vec<(&'static str, ArgValue)>;

/// Handle to a span opened with [`Recorder::begin`].
///
/// A recorder that is disabled at `begin` time hands out [`SpanId::NONE`],
/// which makes the matching [`Recorder::end`] free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The inert span id: ending it is a no-op.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the inert id.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

impl Default for SpanId {
    fn default() -> Self {
        SpanId::NONE
    }
}

/// A completed span: a named interval of virtual time on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Category, e.g. `"op"`, `"net"`, `"dht"`, `"repair"`.
    pub cat: &'static str,
    /// Span name, e.g. `"fetch"` or `"fetch.flow_home"`.
    pub name: Cow<'static, str>,
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
    pub name: Cow<'static, str>,
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

#[derive(Debug)]
struct OpenSpan {
    cat: &'static str,
    name: Cow<'static, str>,
    track: u64,
    start_ns: TimeNs,
    args: Args,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    next_span: u64,
    open: BTreeMap<u64, OpenSpan>,
    pub(crate) events: Vec<EventRec>,
    pub(crate) counters: BTreeMap<Cow<'static, str>, u64>,
    pub(crate) hists: BTreeMap<Cow<'static, str>, Histogram>,
    pub(crate) series: BTreeMap<Cow<'static, str>, GaugeSeries>,
    pub(crate) exemplars: BTreeMap<Cow<'static, str>, String>,
}

#[derive(Debug)]
struct Shared {
    enabled: AtomicBool,
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

    /// Discards all collected events and metrics (open spans included).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.open.clear();
        inner.events.clear();
        inner.counters.clear();
        inner.hists.clear();
        inner.series.clear();
        inner.exemplars.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.shared.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span; returns [`SpanId::NONE`] while disabled.
    pub fn begin(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        track: u64,
        start_ns: TimeNs,
    ) -> SpanId {
        self.begin_args(cat, name, track, start_ns, Args::new())
    }

    /// Opens a span with arguments; returns [`SpanId::NONE`] while disabled.
    pub fn begin_args(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        track: u64,
        start_ns: TimeNs,
        args: Args,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let mut inner = self.lock();
        inner.next_span += 1;
        let id = inner.next_span;
        inner.open.insert(
            id,
            OpenSpan {
                cat,
                name: name.into(),
                track,
                start_ns,
                args,
            },
        );
        SpanId(id)
    }

    /// Closes a span opened with [`Recorder::begin`].
    ///
    /// Spans opened while enabled are closed even if recording has been
    /// disabled in between, so the event log never holds dangling opens.
    pub fn end(&self, span: SpanId, end_ns: TimeNs) {
        self.end_args(span, end_ns, Args::new());
    }

    /// Closes a span, appending extra arguments (e.g. an outcome).
    pub fn end_args(&self, span: SpanId, end_ns: TimeNs, mut args: Args) {
        if span.is_none() {
            return;
        }
        let mut inner = self.lock();
        if let Some(open) = inner.open.remove(&span.0) {
            let mut all = open.args;
            all.append(&mut args);
            inner.events.push(EventRec::Span(SpanRec {
                cat: open.cat,
                name: open.name,
                track: open.track,
                start_ns: open.start_ns,
                end_ns,
                args: all,
            }));
        }
    }

    /// Records a complete span in one call.
    pub fn span(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        track: u64,
        start_ns: TimeNs,
        end_ns: TimeNs,
    ) {
        self.span_args(cat, name, track, start_ns, end_ns, Args::new());
    }

    /// Records a complete span with arguments in one call.
    pub fn span_args(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        track: u64,
        start_ns: TimeNs,
        end_ns: TimeNs,
        args: Args,
    ) {
        if !self.enabled() {
            return;
        }
        self.lock().events.push(EventRec::Span(SpanRec {
            cat,
            name: name.into(),
            track,
            start_ns,
            end_ns,
            args,
        }));
    }

    /// Records a point-in-time event.
    pub fn instant(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        track: u64,
        ts_ns: TimeNs,
    ) {
        self.instant_args(cat, name, track, ts_ns, Args::new());
    }

    /// Records a point-in-time event with arguments.
    pub fn instant_args(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        track: u64,
        ts_ns: TimeNs,
        args: Args,
    ) {
        if !self.enabled() {
            return;
        }
        self.lock().events.push(EventRec::Instant(InstantRec {
            cat,
            name: name.into(),
            track,
            ts_ns,
            args,
        }));
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn add(&self, name: impl Into<Cow<'static, str>>, delta: u64) {
        if !self.enabled() {
            return;
        }
        *self.lock().counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Sets a counter to an absolute value (used to mirror externally
    /// maintained statistics into the metrics dump).
    pub fn set_counter(&self, name: impl Into<Cow<'static, str>>, value: u64) {
        if !self.enabled() {
            return;
        }
        self.lock().counters.insert(name.into(), value);
    }

    /// Records one histogram sample.
    pub fn observe(&self, name: impl Into<Cow<'static, str>>, value: u64) {
        if !self.enabled() {
            return;
        }
        self.lock()
            .hists
            .entry(name.into())
            .or_default()
            .observe(value);
    }

    /// Attaches an OpenMetrics-style exemplar to a counter: the Prometheus
    /// export appends `# {ledger="<label>"}` to that counter's sample line,
    /// linking the aggregate to one concrete causal-ledger entry (the most
    /// recent one wins). No-op while disabled.
    pub fn set_exemplar(&self, name: impl Into<Cow<'static, str>>, label: String) {
        if !self.enabled() {
            return;
        }
        self.lock().exemplars.insert(name.into(), label);
    }

    /// Appends one point to a named gauge time series.
    ///
    /// Gauges are sampled values (queue depths, utilizations, cache ratios)
    /// recorded at virtual-time instants by the health-plane sampler; each
    /// series keeps its full point history in record order.
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>, ts_ns: TimeNs, value: i64) {
        if !self.enabled() {
            return;
        }
        self.lock()
            .series
            .entry(name.into())
            .or_default()
            .push(ts_ns, value);
    }

    /// Appends one sample row — the point `(ts_ns, value)` to each named
    /// gauge series — under one lock. Series are looked up by `&str`, so
    /// only the first sample of a name allocates its key.
    pub fn gauge_row<N: AsRef<str>>(&self, ts_ns: TimeNs, row: &[(N, i64)]) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        for (name, value) in row {
            let name = name.as_ref();
            if let Some(series) = inner.series.get_mut(name) {
                series.push(ts_ns, *value);
            } else {
                let mut series = GaugeSeries::new();
                series.push(ts_ns, *value);
                inner.series.insert(Cow::Owned(name.to_owned()), series);
            }
        }
    }

    /// A structured copy of everything recorded so far (completed spans,
    /// instants, counters, histograms, gauge series). Open spans are not
    /// included.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            events: inner.events.clone(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone().into_owned(), *v))
                .collect(),
            histograms: inner
                .hists
                .iter()
                .map(|(k, v)| (k.clone().into_owned(), v.clone()))
                .collect(),
            series: inner
                .series
                .iter()
                .map(|(k, v)| (k.clone().into_owned(), v.clone()))
                .collect(),
            exemplars: inner
                .exemplars
                .iter()
                .map(|(k, v)| (k.clone().into_owned(), v.clone()))
                .collect(),
        }
    }

    /// Serializes the event log as Chrome `trace_event` JSON.
    pub fn chrome_trace_json(&self) -> String {
        crate::export::chrome_trace_json(&self.lock())
    }

    /// Serializes counters and histograms as a flat, sorted JSON document.
    pub fn metrics_json(&self) -> String {
        crate::export::metrics_json(&self.lock())
    }

    /// Serializes counters, histograms, and the latest gauge values in
    /// Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        crate::export::prometheus_text(&self.lock())
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
        let id = rec.begin("op", "store", 1, 0);
        assert!(id.is_none());
        rec.end(id, 10);
        rec.span("op", "x", 1, 0, 5);
        rec.instant("op", "y", 1, 3);
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
        let id = rec.begin("op", "fetch", 3, 100);
        rec.set_enabled(false);
        rec.end_args(id, 400, vec![("ok", ArgValue::from(true))]);
        let snap = rec.snapshot();
        let span = snap.spans().next().expect("span recorded");
        assert_eq!(span.name, "fetch");
        assert_eq!(span.dur_ns(), 300);
        assert_eq!(span.arg("ok").and_then(ArgValue::as_u64), Some(1));
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.add("n", 1);
        rec.add("n", 4);
        rec.set_counter("abs", 17);
        for v in [0u64, 1, 2, 3, 4, 1024] {
            rec.observe("h", v);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("n"), 5);
        assert_eq!(snap.counter("abs"), 17);
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1034);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        let buckets: Vec<_> = h.buckets().collect();
        // 0 → bucket 0; 1 → (..1]; 2,3 → (..3]; 4 → (..7]; 1024 → (..2047].
        assert_eq!(buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (2047, 1)]);
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
        rec.gauge("node0.cpu_milli", 0, 100); // disabled → dropped
        rec.set_enabled(true);
        rec.gauge("node0.cpu_milli", 500, 250);
        rec.gauge("node0.cpu_milli", 1000, 300);
        let snap = rec.snapshot();
        let s = &snap.series["node0.cpu_milli"];
        assert_eq!(s.points(), &[(500, 250), (1000, 300)]);
        assert_eq!(s.last(), Some((1000, 300)));
    }

    #[test]
    fn a_gauge_row_lands_like_its_points_one_by_one() {
        let (by_row, by_point) = (Recorder::new(), Recorder::new());
        by_row.gauge_row(0, &[("a", 1)]); // disabled → dropped
        by_row.set_enabled(true);
        by_point.set_enabled(true);
        for ts in [500, 1000] {
            let row = [("b.gauge", ts as i64), ("a.gauge", -2)];
            by_row.gauge_row(ts, &row);
            for (name, value) in row {
                by_point.gauge(name, ts, value);
            }
        }
        assert_eq!(by_row.series_json(), by_point.series_json());
        assert_eq!(by_row.prometheus_text(), by_point.prometheus_text());
        assert_eq!(by_row.snapshot().series["b.gauge"].len(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.span("op", "x", 1, 0, 5);
        rec.add("c", 1);
        rec.observe("h", 1);
        rec.gauge("g", 0, 1);
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
        other.instant("net", "drop", 2, 9);
        assert_eq!(rec.snapshot().instants().count(), 1);
    }
}
