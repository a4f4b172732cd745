//! Deterministic virtual-time tracing and metrics for Cloud4Home.
//!
//! The simulator's value hinges on knowing *where time goes* — DHT lookup
//! vs. metadata read vs. LAN/WAN transfer vs. service execution — yet raw
//! [`OpReport`](https://docs.rs/cloud4home)-style end-to-end latencies hide
//! per-phase regressions inside the total. This crate is the measurement
//! substrate: a [`Recorder`] collects hierarchical spans, point-in-time
//! instants, monotonic counters, and power-of-two-bucket histograms, all
//! stamped with **virtual** nanoseconds taken from `simnet::time`, never
//! from the wall clock.
//!
//! Three properties drive the design:
//!
//! * **Determinism.** Two runs of the same seeded workload must serialize
//!   to byte-identical output. Events are kept in record order (fixed-size
//!   heads plus one shared args arena, each span appended whole when it
//!   ends), metrics in `BTreeMap`s, and the exporters emit integers only
//!   (timestamps are fixed-point microsecond strings derived from integer
//!   nanoseconds) — no floats, no hash-map iteration, no host clocks.
//! * **Near-zero cost when off.** Recording sits behind a runtime toggle;
//!   the disabled path is a single relaxed atomic load per call, so the
//!   instrumentation can stay compiled into hot paths.
//! * **Inspectability.** Besides the [Chrome `trace_event`
//!   JSON](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//!   and flat metrics exporters, [`Recorder::snapshot`] hands tests the
//!   structured event log so invariants ("every failed fetch attempt is
//!   followed by a failover to a live replica") can be asserted over the
//!   recorded spans themselves.
//!
//! A layer records through a [`Recorder`] handle it holds; there is no
//! ambient, thread-local recorder. Layers that hold none, such as the
//! key-value codec and the service kernels, are counted by the runtime
//! that calls them.
//!
//! The crate holds mechanism only: the [`Recorder`] and its event log,
//! the causal [`OpLedger`]'s per-op rings, and the [`FlightRecorder`].
//! What an operation's time *means* — its stages, their Table-I columns
//! and critical-path buckets, the explain plane's DAG — is Cloud4Home's,
//! and lives in the runtime crate beside the op state machines.
//!
//! Spans are grouped by `track` — an arbitrary `u64` that becomes the
//! Chrome `tid`. Cloud4Home uses one track per operation (the op id), so a
//! `fetch` op span and its `fetch.meta_get` / `fetch.flow_home` children
//! nest on one timeline row, plus dedicated track ranges for network flows,
//! per-node overlay requests, and repair jobs.
//!
//! # Examples
//!
//! ```
//! use c4h_telemetry::Recorder;
//!
//! let rec = Recorder::new();
//! rec.set_enabled(true);
//! let span = rec.begin(1_000);
//! rec.instant_args("op", "fetch.failover", 7, 2_000, []);
//! rec.add("op.fetch.failovers", 1);
//! rec.observe("op.fetch.total_us", 4);
//! rec.end(span, "op", "fetch", 7, 5_000, [("ok", true.into())]);
//!
//! let snap = rec.snapshot();
//! assert_eq!(snap.spans().count(), 1);
//! assert_eq!(snap.counter("op.fetch.failovers"), 1);
//! assert!(rec.chrome_trace_json().contains("\"name\":\"fetch\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
mod health;
mod ledger;
mod recorder;
#[cfg(test)]
mod recorder_oracle;
mod series;

pub use export::escape_into;
pub use health::{FlightRecorder, Postmortem, SlidingHistogram};
pub use ledger::{CauseKind, LedgerEvent, OpLedger, LEDGER_NONE};
pub use recorder::{
    Arg, ArgValue, Args, EventRec, GaugeId, Histogram, InstantRec, Recorder, Snapshot, SpanRec,
    SpanStart,
};
pub use series::GaugeSeries;

/// Virtual time in nanoseconds, as produced by `simnet::time::SimTime`.
///
/// The crate deliberately does not depend on `c4h-simnet` (the dependency
/// points the other way), so timestamps cross the API boundary as raw
/// nanosecond counts.
pub type TimeNs = u64;

#[cfg(test)]
mod gauge_oracle {
    //! Differential oracle for the gauge columns.
    //!
    //! Before gauges were registered columns, the recorder kept one
    //! `GaugeSeries` per name in a `BTreeMap<Cow<str>, GaugeSeries>`, looked a
    //! name up for every point, and the flight ring kept each sample row as
    //! name-sorted `(String, i64)` pairs. [`NameKeyed`] is that recorder's
    //! gauge half and its two exporters, kept verbatim; the proptest below runs
    //! random scripts of `gauge`, `register_gauge`, `gauge_sample`, `clear`,
    //! enable/disable and post-mortem cuts against both and requires the same
    //! bytes from `series_json` and `prometheus_text`, the same
    //! `snapshot().series`, the same latest values, and the same dump rows.
    //!
    //! Run in release with `cargo test -q --release -p c4h-telemetry --lib
    //! gauge_oracle`.

    use std::borrow::Cow;
    use std::collections::{BTreeMap, VecDeque};
    use std::fmt::Write;
    use std::sync::Arc;

    use proptest::collection;
    use proptest::prelude::*;

    use crate::{escape_into, FlightRecorder, GaugeSeries, Recorder, TimeNs};

    /// Gauge names the scripts draw from: JSON escapes, a control character,
    /// non-ASCII, names that flatten to one Prometheus name, and names whose
    /// byte order differs from their case-folded order.
    const NAMES: [&str; 14] = [
        "runtime.queue_depth",
        "node.netbook-0.cpu_milli",
        "node.desktop.cpu_milli",
        "net.home-ethernet.flows",
        "a",
        "a.b",
        "a_b",
        "Z",
        "",
        "quote\"d",
        "back\\slash",
        "new\nline\ttab",
        "ctl\u{1}",
        "unicode-Ω☃",
    ];

    /// Registered by the scripts, never sampled: it must appear in no export.
    const GHOST: &str = "ghost.never_sampled";

    /// Post-mortem gauge ring depth of the scripts' flight recorders.
    const RING: usize = 3;

    /// The name-keyed gauge store the recorder used to keep.
    #[derive(Debug, Default)]
    struct NameKeyed {
        enabled: bool,
        series: BTreeMap<Cow<'static, str>, GaugeSeries>,
    }

    impl NameKeyed {
        fn gauge(&mut self, name: impl Into<Cow<'static, str>>, ts_ns: TimeNs, value: i64) {
            if !self.enabled {
                return;
            }
            self.series
                .entry(name.into())
                .or_default()
                .push(ts_ns, value);
        }

        fn series_json(&self) -> String {
            let mut out = String::with_capacity(256);
            out.push_str("{\n\"series\":{");
            for (i, (name, series)) in self.series.iter().enumerate() {
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

        /// The gauge section of the Prometheus exposition — all of it, for a
        /// recorder holding no counters and no histograms.
        fn prometheus_text(&self) -> String {
            let prom_name_into = |out: &mut String, name: &str| {
                out.push_str("c4h_");
                for c in name.chars() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        out.push(c);
                    } else {
                        out.push('_');
                    }
                }
            };
            let mut out = String::with_capacity(512);
            for (name, series) in &self.series {
                let Some((_, value)) = series.last() else {
                    continue;
                };
                out.push_str("# TYPE ");
                prom_name_into(&mut out, name);
                out.push_str(" gauge\n");
                prom_name_into(&mut out, name);
                let _ = writeln!(out, " {value}");
            }
            out
        }

        fn snapshot_series(&self) -> BTreeMap<String, GaugeSeries> {
            self.series
                .iter()
                .map(|(k, v)| (k.clone().into_owned(), v.clone()))
                .collect()
        }

        fn latest(&self) -> Vec<(Arc<str>, i64)> {
            self.series
                .iter()
                .filter_map(|(k, s)| s.last().map(|(_, v)| (Arc::from(&**k), v)))
                .collect()
        }
    }

    /// One script step.
    #[derive(Debug, Clone)]
    enum Step {
        /// `NAMES[i]` registered and sampled alone, outside the flight
        /// ring: one call of the name-keyed writer.
        Point(usize, i64),
        /// Registers `NAMES[i]`, or the ghost for `i == NAMES.len()`.
        Register(usize),
        /// One sample row; a gauge sampled twice keeps its first value, and a
        /// gauge left out is a gap (a dead node's row).
        Sample(Vec<(usize, i64)>),
        Clear,
        Enable(bool),
        /// Moves the clock; 0 samples twice at one instant.
        Advance(u64),
        /// Cuts a post-mortem.
        Dump,
    }

    fn step() -> impl Strategy<Value = Step> {
        let row = || collection::vec((0..NAMES.len(), -5i64..5), 0..12).prop_map(Step::Sample);
        prop_oneof![
            row(),
            row(),
            row(),
            (0..NAMES.len(), any::<i64>()).prop_map(|(i, v)| Step::Point(i, v)),
            (0..NAMES.len(), any::<i64>()).prop_map(|(i, v)| Step::Point(i, v)),
            (0..=NAMES.len()).prop_map(Step::Register),
            Just(Step::Clear),
            any::<bool>().prop_map(Step::Enable),
            (0u64..3).prop_map(Step::Advance),
            Just(Step::Dump),
        ]
    }

    fn same_exports(rec: &Recorder, oracle: &NameKeyed) -> TestCaseResult {
        prop_assert_eq!(rec.series_json(), oracle.series_json());
        prop_assert_eq!(rec.prometheus_text([]), oracle.prometheus_text());
        prop_assert_eq!(rec.snapshot().series, oracle.snapshot_series());
        prop_assert_eq!(rec.latest_gauges(), oracle.latest());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gauge_columns_export_like_the_name_keyed_recorder(
            script in collection::vec(step(), 0..64),
        ) {
            let rec = Recorder::new();
            rec.set_enabled(true);
            let mut oracle = NameKeyed { enabled: true, ..NameKeyed::default() };
            let mut flight = FlightRecorder::new(1, RING, 64);
            let mut old_ring: VecDeque<(TimeNs, Vec<(String, i64)>)> = VecDeque::new();
            let mut ts: TimeNs = 0;
            for step in script {
                match step {
                    Step::Point(i, v) => {
                        let id = rec.register_gauge(NAMES[i]);
                        rec.gauge_sample(ts, &[(id, v)]);
                        oracle.gauge(NAMES[i], ts, v);
                    }
                    Step::Register(i) => {
                        rec.register_gauge(NAMES.get(i).copied().unwrap_or(GHOST));
                    }
                    Step::Sample(points) => {
                        let mut row = Vec::new();
                        let mut old_row: Vec<(String, i64)> = Vec::new();
                        for (i, v) in points {
                            let id = rec.register_gauge(NAMES[i]);
                            if row.iter().any(|&(seen, _)| seen == id) {
                                continue;
                            }
                            row.push((id, v));
                            oracle.gauge(NAMES[i], ts, v);
                            old_row.push((NAMES[i].to_owned(), v));
                        }
                        rec.gauge_sample(ts, &row);
                        flight.note_gauges(ts, &row);
                        old_row.sort_by(|a, b| a.0.cmp(&b.0));
                        if old_ring.len() == RING {
                            old_ring.pop_front();
                        }
                        old_ring.push_back((ts, old_row));
                    }
                    Step::Clear => {
                        rec.clear();
                        oracle.series.clear();
                    }
                    Step::Enable(on) => {
                        rec.set_enabled(on);
                        oracle.enabled = on;
                    }
                    Step::Advance(dt) => ts += dt,
                    Step::Dump => {
                        flight.record(ts, 1, "fetch", "obj", "Timeout", 0, Vec::new(), &rec);
                        let dump = flight.dumps().last().expect("below the dump cap");
                        prop_assert_eq!(&dump.gauges, &Vec::from(old_ring.clone()));
                    }
                }
                same_exports(&rec, &oracle)?;
            }
            prop_assert!(
                rec.snapshot().series.keys().all(|name| name != GHOST),
                "a registered, never sampled gauge is not a series"
            );
        }
    }
}
