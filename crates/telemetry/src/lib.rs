//! Deterministic virtual-time tracing and metrics for Cloud4Home.
//!
//! The simulator's value hinges on knowing *where time goes* — DHT lookup
//! vs. metadata read vs. LAN/WAN transfer vs. service execution — yet raw
//! [`OpReport`](https://docs.rs/cloud4home)-style end-to-end latencies hide
//! per-phase regressions inside the total. This crate is the measurement
//! substrate: a [`Recorder`] collects hierarchical spans, point-in-time
//! instants, monotonic counters, power-of-two-bucket histograms, and
//! registered gauges sampled in rows, all stamped with **virtual**
//! nanoseconds taken from `simnet::time`, never from the wall clock.
//!
//! Three properties drive the design:
//!
//! * **Determinism.** Two runs of the same seeded workload must serialize
//!   to byte-identical output. Events are kept in record order (32-byte
//!   heads plus 16-byte argument slots, each span appended whole when it
//!   ends), gauges as runs of equal values over one shared sample clock
//!   (a gauge that holds its value costs nothing per sample), metrics in
//!   `BTreeMap`s, and the exporters emit integers only
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
//! The crate holds mechanism only: the [`Recorder`], its event log and
//! exporters, [`Histogram`] and [`GaugeSeries`]. What an operation's time
//! *means* — its stages, their Table-I columns and critical-path buckets,
//! the explain plane's DAG and causal op ledger, the SLO windows, the
//! post-mortem flight recorder — is Cloud4Home's, and lives in the runtime
//! crate beside the op state machines.
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
mod recorder;
#[cfg(test)]
mod recorder_oracle;
mod series;

pub use export::escape_into;
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
    //! Differential oracle for the gauge columns and their runs.
    //!
    //! Before gauges were registered columns, the recorder kept one
    //! `GaugeSeries` per name in a `BTreeMap<Cow<str>, GaugeSeries>`, looked a
    //! name up for every point. [`NameKeyed`] is that recorder's gauge half
    //! and its two exporters, kept verbatim; the proptest below runs random
    //! scripts of `gauge`, `register_gauge`, `gauge_sample`, `clear` and
    //! enable/disable against both and requires the same bytes from
    //! `series_json` and `prometheus_text`, the same `snapshot().series`
    //! and the same latest values. Rows may name a gauge twice and repeat
    //! unchanged hundreds of times, so the recorder's runs grow long and are
    //! cut by every kind of break. The flight ring's half, which holds a
    //! post-mortem's rows to the name-sorted rows the ring used to keep,
    //! lives beside the flight recorder in `cloud4home`'s `health` module.
    //!
    //! Run in release with `cargo test -q --release -p c4h-telemetry --lib
    //! gauge_oracle`.

    use std::borrow::Cow;
    use std::collections::BTreeMap;
    use std::fmt::Write;
    use std::sync::Arc;

    use proptest::collection;
    use proptest::prelude::*;

    use crate::{escape_into, GaugeSeries, Recorder, TimeNs};

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
        /// `NAMES[i]` registered and sampled alone: one call of the
        /// name-keyed writer.
        Point(usize, i64),
        /// Registers `NAMES[i]`, or the ghost for `i == NAMES.len()`.
        Register(usize),
        /// One sample row; a gauge named twice gets two points at one
        /// instant, and a gauge left out is a gap (a dead node's row).
        Sample(Vec<(usize, i64)>),
        /// The last `Sample` row again, its values unchanged, `n` times one
        /// nanosecond apart: a held gauge's runs grow long.
        Repeat(usize),
        Clear,
        Enable(bool),
        /// Moves the clock; 0 samples twice at one instant.
        Advance(u64),
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
            (1usize..300).prop_map(Step::Repeat),
            Just(Step::Clear),
            any::<bool>().prop_map(Step::Enable),
            (0u64..3).prop_map(Step::Advance),
        ]
    }

    fn same_exports(rec: &Recorder, oracle: &NameKeyed) -> TestCaseResult {
        prop_assert_eq!(rec.series_json(), oracle.series_json());
        prop_assert_eq!(rec.prometheus_text([]), oracle.prometheus_text());
        prop_assert_eq!(rec.snapshot().series, oracle.snapshot_series());
        prop_assert_eq!(rec.latest_gauges(), oracle.latest());
        Ok(())
    }

    /// The recorder beside the name-keyed store it replaced.
    struct Both {
        rec: Recorder,
        oracle: NameKeyed,
    }

    impl Both {
        /// Writes the sample row `points` at `ts` to both sides.
        fn sample(&mut self, ts: TimeNs, points: &[(usize, i64)]) {
            let mut row = Vec::new();
            for &(i, v) in points {
                row.push((self.rec.register_gauge(NAMES[i]), v));
                self.oracle.gauge(NAMES[i], ts, v);
            }
            self.rec.gauge_sample(ts, &row);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gauge_columns_export_like_the_name_keyed_recorder(
            script in collection::vec(step(), 0..64),
        ) {
            let mut both = Both {
                rec: Recorder::new(),
                oracle: NameKeyed { enabled: true, ..NameKeyed::default() },
            };
            both.rec.set_enabled(true);
            let mut last_row = Vec::new();
            let mut ts: TimeNs = 0;
            for step in script {
                match step {
                    Step::Point(i, v) => {
                        let id = both.rec.register_gauge(NAMES[i]);
                        both.rec.gauge_sample(ts, &[(id, v)]);
                        both.oracle.gauge(NAMES[i], ts, v);
                    }
                    Step::Register(i) => {
                        both.rec.register_gauge(NAMES.get(i).copied().unwrap_or(GHOST));
                    }
                    Step::Sample(points) => {
                        both.sample(ts, &points);
                        last_row = points;
                    }
                    Step::Repeat(n) => {
                        for _ in 0..n {
                            ts += 1;
                            both.sample(ts, &last_row);
                        }
                    }
                    Step::Clear => {
                        both.rec.clear();
                        both.oracle.series.clear();
                    }
                    Step::Enable(on) => {
                        both.rec.set_enabled(on);
                        both.oracle.enabled = on;
                    }
                    Step::Advance(dt) => ts += dt,
                }
                same_exports(&both.rec, &both.oracle)?;
            }
            prop_assert!(
                both.rec.snapshot().series.keys().all(|name| name != GHOST),
                "a registered, never sampled gauge is not a series"
            );
        }
    }
}
