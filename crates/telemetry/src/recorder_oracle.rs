//! Differential oracle for the event log as one byte stream.
//!
//! Before the event log was a stream, the recorder kept one `EventRec` per
//! event, each with its own args `Vec` (grown by `append` at a span's end),
//! open spans in a `BTreeMap` under sequential ids, and every name as a
//! `Cow<str>`. [`old`] is that recorder, its record types and its
//! exporters, kept verbatim (only the `ArgValue` it stores is today's). The
//! new recorder holds no open spans: the driver keeps each begun span's
//! token, category, name, track and begin arguments, as the product's
//! callers do, and hands them to `end`. The proptest below drives random
//! interleavings of begin/end — out-of-order ends, double ends (a no-op on
//! the old side; the new side's token is gone), ends after `clear` — spans,
//! instants, enable/disable, counters, histograms, exemplars and gauges
//! through both and requires the same `chrome_trace_json`, `metrics_json`,
//! `prometheus_text` and `series_json` bytes and the same `snapshot()`.
//! The clock rewinds (across 0 to near `u64::MAX`) and jumps (to 0 and to
//! `u64::MAX`), and tracks jump between 0 and `u64::MAX`, so the stream's
//! deltas meet both signs and both wraps; every event is also written into
//! a log of test-sized chunks, which must read back the same events.
//!
//! Run in release with `cargo test -q --release -p c4h-telemetry --lib
//! recorder_oracle`.

use std::borrow::Cow;
use std::sync::OnceLock;

use proptest::collection;
use proptest::prelude::*;

use crate::recorder::EventLog;
use crate::{Arg, ArgValue, EventRec, Recorder, Snapshot, SpanStart, TimeNs};

#[allow(dead_code)] // kept verbatim: not every method is driven
mod old {
    use std::borrow::Cow;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    use crate::{Args, GaugeSeries, Histogram, TimeNs};

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

    /// One entry of the event log, in record order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventRec {
        /// A completed span (logged when it ends).
        Span(SpanRec),
        /// A point-in-time event.
        Instant(InstantRec),
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

    #[derive(Debug)]
    struct OpenSpan {
        cat: &'static str,
        name: Cow<'static, str>,
        track: u64,
        start_ns: TimeNs,
        args: Args,
    }

    /// A registered gauge: the index of its column in the [`Recorder`] that
    /// handed it out ([`Recorder::register_gauge`]). Ids are dense, start at 0
    /// and stay valid for the recorder's lifetime, [`Recorder::clear`]
    /// included.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct GaugeId(u32);

    /// One registered gauge: its name (shared with the name index) and its
    /// points.
    #[derive(Debug)]
    struct GaugeColumn {
        name: Arc<str>,
        series: GaugeSeries,
    }

    #[derive(Debug, Default)]
    pub(crate) struct Inner {
        next_span: u64,
        open: BTreeMap<u64, OpenSpan>,
        pub(crate) events: Vec<EventRec>,
        pub(crate) counters: BTreeMap<Cow<'static, str>, u64>,
        pub(crate) hists: BTreeMap<Cow<'static, str>, Histogram>,
        pub(crate) exemplars: BTreeMap<Cow<'static, str>, String>,
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
                series: GaugeSeries::new(),
            });
            self.gauge_index.insert(name, id);
            id
        }

        /// Every gauge series holding at least one point, in name order. A
        /// column registered but never sampled (or emptied by a clear) is not
        /// a series.
        pub(crate) fn gauge_series(&self) -> impl Iterator<Item = (&Arc<str>, &GaugeSeries)> {
            self.gauge_index
                .iter()
                .map(|(name, id)| (name, &self.columns[id.0 as usize].series))
                .filter(|(_, series)| !series.is_empty())
        }
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
        /// Gauge registrations survive — every [`GaugeId`] handed out stays
        /// valid — but their points are dropped, so every export reads as if
        /// the gauges had never been sampled.
        pub fn clear(&self) {
            let mut inner = self.lock();
            inner.open.clear();
            inner.events.clear();
            inner.counters.clear();
            inner.hists.clear();
            inner.exemplars.clear();
            for column in &mut inner.columns {
                column.series = GaugeSeries::new();
            }
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

        /// Appends one point to a named gauge time series: registers the gauge
        /// (see [`Recorder::register_gauge`]), then pushes the point.
        ///
        /// Gauges are sampled values (queue depths, utilizations, cache ratios)
        /// recorded at virtual-time instants by the health-plane sampler; each
        /// series keeps its full point history in record order.
        pub fn gauge(&self, name: impl Into<Cow<'static, str>>, ts_ns: TimeNs, value: i64) {
            if !self.enabled() {
                return;
            }
            let name: Cow<'static, str> = name.into();
            let mut inner = self.lock();
            let id = inner.register_gauge(&name);
            inner.columns[id.0 as usize].series.push(ts_ns, value);
        }

        /// Appends one sample row — the point `(ts_ns, value)` to each
        /// registered gauge — under one lock. Each point is one indexed push:
        /// no name is looked at.
        ///
        /// # Panics
        ///
        /// Panics if an id was handed out by another recorder.
        pub fn gauge_sample(&self, ts_ns: TimeNs, row: &[(GaugeId, i64)]) {
            if !self.enabled() {
                return;
            }
            let mut inner = self.lock();
            for &(id, value) in row {
                inner.columns[id.0 as usize].series.push(ts_ns, value);
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
                .filter_map(|(name, series)| Some((Arc::clone(name), series.last()?.1)))
                .collect()
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
                    .gauge_series()
                    .map(|(k, v)| (k.to_string(), v.clone()))
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
            export::chrome_trace_json(&self.lock())
        }

        /// Serializes counters and histograms as a flat, sorted JSON document.
        pub fn metrics_json(&self) -> String {
            export::metrics_json(&self.lock())
        }

        /// Serializes counters, histograms, and the latest gauge values in
        /// Prometheus text exposition format.
        pub fn prometheus_text(&self) -> String {
            export::prometheus_text(&self.lock())
        }

        /// Serializes all gauge time series as a sorted JSON document.
        pub fn series_json(&self) -> String {
            export::series_json(&self.lock())
        }
    }

    mod export {
        use std::fmt::Write;

        use super::{EventRec, Inner};
        use crate::{ArgValue, Args};

        /// Escapes a string for inclusion in a JSON string literal.
        fn escape_into(out: &mut String, s: &str) {
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
        }

        /// Formats virtual nanoseconds as the microsecond timestamps Chrome's
        /// `trace_event` format expects, with fixed three-digit sub-microsecond
        /// precision (`1234567 ns` → `"1234.567"`).
        fn micros(ns: u64) -> String {
            format!("{}.{:03}", ns / 1_000, ns % 1_000)
        }

        fn args_into(out: &mut String, args: &Args) {
            out.push('{');
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(out, k);
                out.push_str("\":");
                match v {
                    ArgValue::U64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    ArgValue::I64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    ArgValue::Str(s) => {
                        out.push('"');
                        escape_into(out, s);
                        out.push('"');
                    }
                }
            }
            out.push('}');
        }

        /// Serializes the event log as a Chrome `trace_event` JSON document.
        ///
        /// Spans become complete (`"ph":"X"`) events and instants become
        /// thread-scoped instant (`"ph":"i"`) events; the recorder's `track` is the
        /// `tid`, so each operation (or flow, node, repair job) renders as its own
        /// row and child phases nest by containment. The document loads in
        /// `chrome://tracing` and Perfetto.
        pub(super) fn chrome_trace_json(inner: &Inner) -> String {
            let mut out = String::with_capacity(256 + inner.events.len() * 160);
            out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
            out.push_str(
                "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{\"name\":\"cloud4home\"}}",
            );
            for ev in &inner.events {
                out.push_str(",\n");
                match ev {
                    EventRec::Span(s) => {
                        out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":");
                        let _ = write!(out, "{}", s.track);
                        out.push_str(",\"cat\":\"");
                        escape_into(&mut out, s.cat);
                        out.push_str("\",\"name\":\"");
                        escape_into(&mut out, &s.name);
                        out.push_str("\",\"ts\":");
                        out.push_str(&micros(s.start_ns));
                        out.push_str(",\"dur\":");
                        out.push_str(&micros(s.end_ns.saturating_sub(s.start_ns)));
                        out.push_str(",\"args\":");
                        args_into(&mut out, &s.args);
                        out.push('}');
                    }
                    EventRec::Instant(i) => {
                        out.push_str("{\"ph\":\"i\",\"pid\":1,\"tid\":");
                        let _ = write!(out, "{}", i.track);
                        out.push_str(",\"cat\":\"");
                        escape_into(&mut out, i.cat);
                        out.push_str("\",\"name\":\"");
                        escape_into(&mut out, &i.name);
                        out.push_str("\",\"ts\":");
                        out.push_str(&micros(i.ts_ns));
                        out.push_str(",\"s\":\"t\",\"args\":");
                        args_into(&mut out, &i.args);
                        out.push('}');
                    }
                }
            }
            out.push_str("\n]}\n");
            out
        }

        /// Serializes counters and histograms as a flat JSON document with one
        /// entry per line, sorted by name.
        pub(super) fn metrics_json(inner: &Inner) -> String {
            let mut out = String::with_capacity(256);
            out.push_str("{\n\"counters\":{");
            for (i, (name, value)) in inner.counters.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push('"');
                escape_into(&mut out, name);
                let _ = write!(out, "\":{value}");
            }
            out.push_str("\n},\n\"histograms\":{");
            for (i, (name, h)) in inner.hists.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push('"');
                escape_into(&mut out, name);
                let _ = write!(
                    out,
                    "\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                    h.count, h.sum, h.min, h.max
                );
                for (j, (bound, n)) in h.buckets().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{bound},{n}]");
                }
                out.push_str("]}");
            }
            out.push_str("\n}\n}\n");
            out
        }

        /// Writes `name` as a Prometheus metric name: `c4h_` prefix, every
        /// character outside `[a-zA-Z0-9_]` mapped to `_`.
        fn prom_name_into(out: &mut String, name: &str) {
            out.push_str("c4h_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
        }

        /// Serializes counters, the latest gauge values, and histograms in
        /// Prometheus text exposition format.
        ///
        /// Counters come first, then gauges (one sample per series: the last
        /// point), then histograms with cumulative `_bucket{le="..."}` lines, all
        /// in `BTreeMap` name order — the output is byte-stable for a fixed seed.
        pub(super) fn prometheus_text(inner: &Inner) -> String {
            let mut out = String::with_capacity(512);
            for (name, value) in &inner.counters {
                out.push_str("# TYPE ");
                prom_name_into(&mut out, name);
                out.push_str(" counter\n");
                prom_name_into(&mut out, name);
                let _ = write!(out, " {value}");
                if let Some(label) = inner.exemplars.get(name) {
                    out.push_str(" # {ledger=\"");
                    escape_into(&mut out, label);
                    out.push_str("\"}");
                }
                out.push('\n');
            }
            for (name, series) in inner.gauge_series() {
                let Some((_, value)) = series.last() else {
                    continue;
                };
                out.push_str("# TYPE ");
                prom_name_into(&mut out, name);
                out.push_str(" gauge\n");
                prom_name_into(&mut out, name);
                let _ = writeln!(out, " {value}");
            }
            for (name, h) in &inner.hists {
                out.push_str("# TYPE ");
                prom_name_into(&mut out, name);
                out.push_str(" histogram\n");
                for (bound, cum) in h.cumulative_buckets() {
                    prom_name_into(&mut out, name);
                    let _ = writeln!(out, "_bucket{{le=\"{bound}\"}} {cum}");
                }
                prom_name_into(&mut out, name);
                let _ = writeln!(out, "_bucket{{le=\"+Inf\"}} {}", h.count);
                prom_name_into(&mut out, name);
                let _ = writeln!(out, "_sum {}", h.sum);
                prom_name_into(&mut out, name);
                let _ = writeln!(out, "_count {}", h.count);
            }
            out
        }

        /// Serializes every gauge time series as a flat JSON document: one series
        /// per line, sorted by name, each an array of `[ts_ns, value]` pairs.
        pub(super) fn series_json(inner: &Inner) -> String {
            let mut out = String::with_capacity(256);
            out.push_str("{\n\"series\":{");
            for (i, (name, series)) in inner.gauge_series().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push('"');
                escape_into(&mut out, name);
                out.push_str("\":[");
                for (j, &(ts, v)) in series.points().iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{ts},{v}]");
                }
                out.push(']');
            }
            out.push_str("\n}\n}\n");
            out
        }
    }
}

/// Span and instant names: plain, JSON escapes, a control character,
/// non-ASCII and empty.
const NAMES: [&str; 7] = [
    "fetch",
    "net.flow",
    "quote\"d",
    "back\\slash",
    "new\nline\ttab",
    "unicode-Ω☃",
    "",
];
const CATS: [&str; 3] = ["op", "net", "dht"];
const KEYS: [&str; 6] = ["object", "ok", "src", "why", "k\"ey", ""];
/// Counter, histogram and gauge names, some flattening to one Prometheus
/// name.
const METRICS: [&str; 5] = ["op.fetch.ok", "a", "a.b", "a_b", "hist{le=\"+Inf\"} 0"];

/// The forms [`pick`] gives a name in.
const FORMS: usize = 3;

/// A name of `names` by index, in one of [`FORMS`] forms: the literal; an
/// equal string at another address (leaked once per name); or the
/// literal's first half, at the literal's own address. So the log meets
/// equal names it must keep apart by address, and names at one address it
/// must keep apart by length.
fn pick<const N: usize>(names: &'static [&'static str; N], pick: usize) -> &'static str {
    static COPIES: OnceLock<Vec<&'static str>> = OnceLock::new();
    let name = names[(pick / FORMS) % N];
    match pick % FORMS {
        0 => name,
        1 => {
            let copies = COPIES.get_or_init(|| {
                let all = NAMES.iter().chain(&CATS).chain(&KEYS);
                all.map(|s| &*Box::leak(s.to_string().into_boxed_str()))
                    .collect()
            });
            let copy = copies.iter().find(|copy| **copy == name);
            copy.expect("every name has a copy")
        }
        _ => {
            let half = name.char_indices().nth(name.chars().count() / 2);
            &name[..half.map_or(0, |(at, _)| at)]
        }
    }
}

/// Where network flows render in the runtime (`simnet`'s
/// `NET_TRACK_BASE`): tracks are drawn around it, near 0 and anywhere.
const NET_TRACK_BASE: u64 = 2_000_000;

/// An argument value; strings are borrowed literals or owned copies.
#[derive(Debug, Clone)]
enum Value {
    U64(u64),
    I64(i64),
    Borrowed(usize),
    Owned(usize),
}

impl Value {
    fn arg(&self) -> ArgValue {
        match *self {
            Value::U64(v) => ArgValue::from(v),
            Value::I64(v) => ArgValue::from(v),
            Value::Borrowed(i) => ArgValue::from(pick(&NAMES, i)),
            Value::Owned(i) => ArgValue::from(pick(&NAMES, i).to_owned()),
        }
    }
}

type ArgSpec = Vec<(usize, Value)>;

fn args(spec: &ArgSpec) -> Vec<Arg> {
    spec.iter()
        .map(|(k, v)| (pick(&KEYS, *k), v.arg()))
        .collect()
}

/// `n` arguments for one event: every key, and every kind of value, in
/// turn.
fn many(n: usize) -> ArgSpec {
    (0..n)
        .map(|i| {
            let value = match i % 4 {
                0 => Value::U64(i as u64),
                1 => Value::I64(-(i as i64)),
                2 => Value::Borrowed(i),
                _ => Value::Owned(i),
            };
            (i, value)
        })
        .collect()
}

/// One script step.
#[derive(Debug, Clone)]
enum Step {
    Begin(usize, usize, u64, ArgSpec),
    /// Ends the `n`-th span begun (modulo their count): spans may be ended
    /// out of order, twice, or after a clear.
    End(usize, ArgSpec),
    Span(usize, usize, u64, u64, ArgSpec),
    Instant(usize, usize, u64, ArgSpec),
    Enable(bool),
    Clear,
    Add(usize, u64),
    Observe(usize, u64),
    Exemplar(usize, usize),
    Gauge(usize, i64),
    Advance(u64),
    /// Moves the clock back, across 0 to near `u64::MAX` from near 0.
    Rewind(u64),
    /// Moves the clock to any instant, 0 and `u64::MAX` included.
    Jump(u64),
}

fn step() -> impl Strategy<Value = Step> {
    let value = || {
        prop_oneof![
            any::<u64>().prop_map(Value::U64),
            any::<i64>().prop_map(Value::I64),
            prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(-1)].prop_map(Value::I64),
            Just(Value::U64(u64::MAX)),
            (0..FORMS * NAMES.len()).prop_map(Value::Borrowed),
            (0..FORMS * NAMES.len()).prop_map(Value::Owned),
        ]
    };
    // One spec in 16 is hundreds of arguments long.
    let spec = move || {
        let few = collection::vec((0..FORMS * KEYS.len(), value()), 0..8);
        (0u8..16, few, 200usize..400).prop_map(|(w, few, n)| if w == 0 { many(n) } else { few })
    };
    let name = || 0..FORMS * NAMES.len();
    let cat = || 0..FORMS * CATS.len();
    let track = || {
        prop_oneof![
            0u64..4,
            (0u64..4).prop_map(|n| NET_TRACK_BASE + n),
            Just(u64::MAX),
            any::<u64>(),
        ]
    };
    let metric = || 0..METRICS.len();
    let begin =
        move || (cat(), name(), track(), spec()).prop_map(|(c, n, t, a)| Step::Begin(c, n, t, a));
    let end = move || (any::<usize>(), spec()).prop_map(|(h, a)| Step::End(h, a));
    prop_oneof![
        begin(),
        begin(),
        begin(),
        end(),
        end(),
        end(),
        (cat(), name(), track(), 0u64..5, spec())
            .prop_map(|(c, n, t, d, a)| Step::Span(c, n, t, d, a)),
        (cat(), name(), track(), spec()).prop_map(|(c, n, t, a)| Step::Instant(c, n, t, a)),
        any::<bool>().prop_map(Step::Enable),
        Just(Step::Clear),
        (metric(), 0u64..9).prop_map(|(m, d)| Step::Add(m, d)),
        (metric(), any::<u64>()).prop_map(|(m, v)| Step::Observe(m, v)),
        (metric(), 0..NAMES.len()).prop_map(|(m, l)| Step::Exemplar(m, l)),
        (metric(), -3i64..3).prop_map(|(m, v)| Step::Gauge(m, v)),
        (0u64..1_500).prop_map(Step::Advance),
        (1u64..1_500).prop_map(Step::Rewind),
        prop_oneof![Just(0), Just(u64::MAX), Just(u64::MAX - 3), any::<u64>()].prop_map(Step::Jump),
    ]
}

/// A new-side event in the old recorder's record shape.
fn old_shape(event: &EventRec) -> old::EventRec {
    match event {
        EventRec::Span(s) => old::EventRec::Span(old::SpanRec {
            cat: s.cat,
            name: Cow::Borrowed(s.name),
            track: s.track,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            args: s.args.clone(),
        }),
        EventRec::Instant(i) => old::EventRec::Instant(old::InstantRec {
            cat: i.cat,
            name: Cow::Borrowed(i.name),
            track: i.track,
            ts_ns: i.ts_ns,
            args: i.args.clone(),
        }),
    }
}

fn same_snapshot(new: Snapshot, old: old::Snapshot) -> TestCaseResult {
    prop_assert_eq!(
        new.events.iter().map(old_shape).collect::<Vec<_>>(),
        old.events
    );
    prop_assert_eq!(new.counters, old.counters);
    prop_assert_eq!(new.histograms, old.histograms);
    prop_assert_eq!(new.series, old.series);
    prop_assert_eq!(new.exemplars, old.exemplars);
    Ok(())
}

fn same_exports(new: &Recorder, old: &old::Recorder) -> TestCaseResult {
    prop_assert_eq!(new.chrome_trace_json(), old.chrome_trace_json());
    prop_assert_eq!(new.metrics_json([]), old.metrics_json());
    prop_assert_eq!(new.prometheus_text([]), old.prometheus_text());
    prop_assert_eq!(new.series_json(), old.series_json());
    same_snapshot(new.snapshot(), old.snapshot())
}

/// A span begun on the new recorder, as its caller keeps it until the end.
#[derive(Debug)]
struct Open {
    start: SpanStart,
    cat: &'static str,
    name: &'static str,
    track: u64,
    args: Vec<Arg>,
    /// The span's start if its end is to be written into [`run`]'s
    /// small-chunk log: it began while recording was on, and no clear has
    /// come since.
    small: Option<TimeNs>,
}

impl Open {
    fn end(self, rec: &Recorder, end_ns: TimeNs, extra: Vec<Arg>) {
        let args = self.args.into_iter().chain(extra);
        rec.end(self.start, self.cat, self.name, self.track, end_ns, args);
    }
}

/// The stream chunk size of [`run`]'s second event log: a few events a
/// chunk, so a script's events roll over chunk ends.
const SMALL_CHUNK: usize = 256;

/// Runs `script` against both recorders, comparing every export after each
/// step. The events the new recorder records are also written into an
/// event log of [`SMALL_CHUNK`]-byte chunks, which must read back the same
/// events.
fn run(script: Vec<Step>) -> TestCaseResult {
    let (new, old) = (Recorder::new(), old::Recorder::new());
    new.set_enabled(true);
    old.set_enabled(true);
    let (mut small, mut on) = (EventLog::<SMALL_CHUNK>::default(), true);
    // A span's new-side record is taken by its first end.
    let mut spans: Vec<(Option<Open>, old::SpanId)> = Vec::new();
    let mut ts: TimeNs = 0;
    for step in script {
        match step {
            Step::Begin(c, n, track, spec) => {
                let (cat, name) = (pick(&CATS, c), pick(&NAMES, n));
                spans.push((
                    Some(Open {
                        start: new.begin(ts),
                        cat,
                        name,
                        track,
                        args: args(&spec),
                        small: on.then_some(ts),
                    }),
                    old.begin_args(cat, name, track, ts, args(&spec)),
                ))
            }
            Step::End(h, spec) => match spans.len() {
                0 => old.end_args(old::SpanId::NONE, ts, args(&spec)),
                len => {
                    let (open, id) = &mut spans[h % len];
                    if let Some(open) = open.take() {
                        if let Some(start) = open.small {
                            let all = open.args.iter().cloned().chain(args(&spec));
                            small.push(open.cat, open.name, open.track, start, Some(ts), all);
                        }
                        open.end(&new, ts, args(&spec));
                    }
                    old.end_args(*id, ts, args(&spec));
                }
            },
            Step::Span(c, n, track, dur, spec) => {
                let (cat, name, end) = (pick(&CATS, c), pick(&NAMES, n), ts.saturating_add(dur));
                new.span_args(cat, name, track, ts, end, args(&spec));
                old.span_args(cat, name, track, ts, end, args(&spec));
                if on {
                    small.push(cat, name, track, ts, Some(end), args(&spec));
                }
            }
            Step::Instant(c, n, track, spec) => {
                let (cat, name) = (pick(&CATS, c), pick(&NAMES, n));
                new.instant_args(cat, name, track, ts, args(&spec));
                old.instant_args(cat, name, track, ts, args(&spec));
                if on {
                    small.push(cat, name, track, ts, None, args(&spec));
                }
            }
            Step::Enable(enable) => {
                new.set_enabled(enable);
                old.set_enabled(enable);
                on = enable;
            }
            Step::Clear => {
                new.clear();
                old.clear();
                small.clear();
                for open in spans.iter_mut().filter_map(|(open, _)| open.as_mut()) {
                    open.small = None;
                }
            }
            Step::Add(m, d) => {
                new.add(METRICS[m], d);
                old.add(METRICS[m], d);
            }
            Step::Observe(m, v) => {
                new.observe(METRICS[m], v);
                old.observe(METRICS[m], v);
            }
            Step::Exemplar(m, l) => {
                new.set_exemplar(METRICS[m], NAMES[l].to_owned());
                old.set_exemplar(METRICS[m], NAMES[l].to_owned());
            }
            Step::Gauge(m, v) => {
                let id = new.register_gauge(METRICS[m]);
                new.gauge_sample(ts, &[(id, v)]);
                old.gauge(METRICS[m], ts, v);
            }
            Step::Advance(dt) => ts = ts.saturating_add(dt),
            Step::Rewind(dt) => ts = ts.wrapping_sub(dt),
            Step::Jump(to) => ts = to,
        }
        same_exports(&new, &old)?;
        prop_assert_eq!(small.to_records(), new.snapshot().events);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn columns_export_like_the_event_per_record_recorder(
        script in collection::vec(step(), 0..64),
    ) {
        run(script)?;
    }
}

/// A 12 000-call log with argument runs of every length from 0 to 7, some
/// of them begun by spans left open while later ones close.
#[test]
fn long_logs_match_the_event_per_record_recorder() {
    let (new, old) = (Recorder::new(), old::Recorder::new());
    new.set_enabled(true);
    old.set_enabled(true);
    let spec = |i: u64| -> ArgSpec {
        (0..i % 8)
            .map(|k| (k as usize % KEYS.len(), Value::U64(i * 8 + k)))
            .collect()
    };
    let mut open = Vec::new();
    for i in 0..12_000u64 {
        let name = NAMES[(i % NAMES.len() as u64) as usize];
        match i % 4 {
            0 => open.push((
                Open {
                    start: new.begin(i),
                    cat: "op",
                    name,
                    track: i,
                    args: args(&spec(i)),
                    small: None,
                },
                old.begin_args("op", name, i, i, args(&spec(i))),
            )),
            1 => {
                new.instant_args("op", name, i, i, args(&spec(i)));
                old.instant_args("op", name, i, i, args(&spec(i)));
            }
            2 => {
                new.span_args("op", name, i, i, i + 1, args(&spec(i)));
                old.span_args("op", name, i, i, i + 1, args(&spec(i)));
            }
            _ if i % 8 == 3 => {
                let (a, b) = open.pop().expect("a span is open");
                a.end(&new, i, args(&spec(i + 3)));
                old.end_args(b, i, args(&spec(i + 3)));
            }
            _ => {}
        }
    }
    for (a, b) in open.into_iter().rev() {
        a.end(&new, 20_000, args(&spec(5)));
        old.end_args(b, 20_000, args(&spec(5)));
    }
    let events = new.snapshot().events;
    assert!(events.len() > 2 * 4096, "{} events", events.len());
    assert_eq!(
        events.iter().map(old_shape).collect::<Vec<_>>(),
        old.snapshot().events
    );
    assert_eq!(new.chrome_trace_json(), old.chrome_trace_json());
}
