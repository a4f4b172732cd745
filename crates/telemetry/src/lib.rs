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
//!   to byte-identical output. Events are kept in record order in a `Vec`,
//!   metrics in `BTreeMap`s, span ids are handed out sequentially, and the
//!   exporters emit integers only (timestamps are fixed-point microsecond
//!   strings derived from integer nanoseconds) — no floats, no hash-map
//!   iteration, no host clocks.
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
//! let span = rec.begin("op", "fetch", 7, 1_000);
//! rec.instant("op", "fetch.failover", 7, 2_000);
//! rec.add("op.fetch.failovers", 1);
//! rec.observe("op.fetch.total_us", 4);
//! rec.end(span, 5_000);
//!
//! let snap = rec.snapshot();
//! assert_eq!(snap.spans().count(), 1);
//! assert_eq!(snap.counter("op.fetch.failovers"), 1);
//! assert!(rec.chrome_trace_json().contains("\"name\":\"fetch\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dispatch;
mod export;
mod health;
mod ledger;
mod recorder;
mod series;

pub use dispatch::{add, install, observe, with, DispatchGuard};
pub use export::escape_into;
pub use health::{FlightRecorder, PathBucket, Postmortem, SlidingHistogram};
pub use ledger::{tile_critical_path, CauseKind, DagEdge, LedgerEvent, OpLedger, LEDGER_NONE};
pub use recorder::{
    ArgValue, Args, EventRec, Histogram, InstantRec, Recorder, Snapshot, SpanId, SpanRec,
};
pub use series::GaugeSeries;

/// Virtual time in nanoseconds, as produced by `simnet::time::SimTime`.
///
/// The crate deliberately does not depend on `c4h-simnet` (the dependency
/// points the other way), so timestamps cross the API boundary as raw
/// nanosecond counts.
pub type TimeNs = u64;
