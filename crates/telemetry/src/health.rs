//! Health-plane primitives: sliding latency windows and the post-mortem
//! flight recorder.
//!
//! Everything here is deterministic integer math on the virtual clock. The
//! types are substrate: the runtime decides *when* to observe and *what*
//! the latencies mean; this module only stores and aggregates.

use std::collections::VecDeque;

use crate::recorder::{GaugeId, Histogram, Recorder};
use crate::TimeNs;

/// A latency histogram over a sliding virtual-time window.
///
/// Samples land in fixed-width time slices; queries merge the slices that
/// overlap `(now - window, now]`. Slice granularity bounds both memory
/// (`window / slice + 1` slices) and staleness (an expired sample lingers
/// at most one slice).
#[derive(Debug, Clone)]
pub struct SlidingHistogram {
    window_ns: u64,
    slice_ns: u64,
    slices: VecDeque<(TimeNs, Histogram)>,
}

impl SlidingHistogram {
    /// Creates a window of `window_ns` with `slice_ns` granularity.
    ///
    /// # Panics
    ///
    /// Panics if either is zero or the slice exceeds the window.
    pub fn new(window_ns: u64, slice_ns: u64) -> Self {
        assert!(slice_ns > 0, "slice must be non-zero");
        assert!(
            window_ns >= slice_ns,
            "window must cover at least one slice"
        );
        SlidingHistogram {
            window_ns,
            slice_ns,
            slices: VecDeque::new(),
        }
    }

    /// The window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Records one sample observed at virtual time `ts_ns`.
    pub fn observe(&mut self, ts_ns: TimeNs, value: u64) {
        let start = ts_ns - ts_ns % self.slice_ns;
        match self.slices.back_mut() {
            Some((s, h)) if *s == start => h.observe(value),
            _ => {
                let mut h = Histogram::default();
                h.observe(value);
                self.slices.push_back((start, h));
            }
        }
        self.evict(ts_ns);
    }

    fn evict(&mut self, now: TimeNs) {
        let horizon = now.saturating_sub(self.window_ns);
        while let Some(&(start, _)) = self.slices.front() {
            if start + self.slice_ns <= horizon {
                self.slices.pop_front();
            } else {
                break;
            }
        }
    }

    /// Merges every slice overlapping `(now - window, now]` into one
    /// histogram; empty when no live samples remain.
    pub fn merged(&self, now: TimeNs) -> Histogram {
        let horizon = now.saturating_sub(self.window_ns);
        let mut out = Histogram::default();
        for (start, h) in &self.slices {
            if *start + self.slice_ns > horizon && *start <= now {
                out.merge(h);
            }
        }
        out
    }
}

/// One post-mortem dump: everything needed to explain a failed operation
/// without replaying the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postmortem {
    /// Deterministic dump id, `pm-<ts_ns>-<seq>`. The per-instant `seq`
    /// disambiguates dumps cut in the same virtual instant (a burst of
    /// timeouts at one deadline), which would otherwise collide on a
    /// timestamp-only id.
    pub id: String,
    /// Virtual time the failure was recorded.
    pub ts_ns: TimeNs,
    /// Failing operation's id.
    pub op_id: u64,
    /// Operation kind (`"store"`, `"fetch"`, …).
    pub kind: &'static str,
    /// Object name the operation targeted.
    pub object: &'static str,
    /// Error label, e.g. `"Timeout"`.
    pub error: &'static str,
    /// Virtual time the operation was submitted.
    pub submitted_ns: TimeNs,
    /// The op's completed stages as `(name, start_ns, end_ns)`.
    pub stages: Vec<(&'static str, TimeNs, TimeNs)>,
    /// Recent fault events as `(ts_ns, description)`, oldest first.
    pub faults: Vec<(TimeNs, String)>,
    /// Recent gauge sample rows, oldest first: each row is the sample's
    /// timestamp plus sorted `(gauge, value)` pairs.
    pub gauges: Vec<(TimeNs, Vec<(String, i64)>)>,
}

impl Postmortem {
    /// Serializes this dump as one byte-stable JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(512);
        out.push_str("{\"id\":\"");
        crate::export::escape_into(&mut out, &self.id);
        let _ = write!(
            out,
            "\",\"ts_ns\":{},\"op\":{},\"kind\":\"",
            self.ts_ns, self.op_id
        );
        crate::export::escape_into(&mut out, self.kind);
        out.push_str("\",\"object\":\"");
        crate::export::escape_into(&mut out, self.object);
        out.push_str("\",\"error\":\"");
        crate::export::escape_into(&mut out, self.error);
        let _ = write!(
            out,
            "\",\"submitted_ns\":{},\"stages\":[",
            self.submitted_ns
        );
        for (i, (name, s, e)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("[\"");
            crate::export::escape_into(&mut out, name);
            let _ = write!(out, "\",{s},{e}]");
        }
        out.push_str("],\"faults\":[");
        for (i, (ts, desc)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{ts},\"");
            crate::export::escape_into(&mut out, desc);
            out.push_str("\"]");
        }
        out.push_str("],\"gauges\":[");
        for (i, (ts, row)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{ts},{{");
            for (j, (name, value)) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                crate::export::escape_into(&mut out, name);
                let _ = write!(out, "\":{value}");
            }
            out.push_str("}]");
        }
        out.push_str("]}");
        out
    }
}

/// One gauge sample row as the sampler wrote it: `(gauge, value)` pairs in
/// sample order. A dump resolves the names and sorts them.
type GaugeRow = Vec<(GaugeId, i64)>;

/// A bounded ring of recent health context plus the post-mortem dumps cut
/// from it when operations fail.
///
/// The recorder itself never samples anything: the runtime feeds it fault
/// notes and gauge rows as they happen, and calls [`FlightRecorder::record`]
/// on terminal op errors. All capacities are fixed so a chaotic run cannot
/// grow this without bound; once the gauge ring is full, each new row is
/// copied into the buffer of the row it evicts.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    fault_cap: usize,
    gauge_cap: usize,
    dump_cap: usize,
    faults: VecDeque<(TimeNs, String)>,
    gauges: VecDeque<(TimeNs, GaugeRow)>,
    dumps: Vec<Postmortem>,
    dropped: u64,
    /// `(ts, next seq)` for per-instant dump-id disambiguation.
    id_cursor: (TimeNs, u32),
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `fault_cap` fault notes, the
    /// last `gauge_cap` gauge rows, and at most `dump_cap` dumps.
    pub fn new(fault_cap: usize, gauge_cap: usize, dump_cap: usize) -> Self {
        FlightRecorder {
            fault_cap,
            gauge_cap,
            dump_cap,
            faults: VecDeque::new(),
            gauges: VecDeque::new(),
            dumps: Vec::new(),
            dropped: 0,
            id_cursor: (0, 0),
        }
    }

    /// Notes a fault event (crash, partition, heal, …).
    pub fn note_fault(&mut self, ts_ns: TimeNs, description: String) {
        if self.faults.len() == self.fault_cap {
            self.faults.pop_front();
        }
        self.faults.push_back((ts_ns, description));
    }

    /// Notes one gauge sample row (`(gauge, value)` pairs, each gauge at
    /// most once).
    pub fn note_gauges(&mut self, ts_ns: TimeNs, row: &[(GaugeId, i64)]) {
        let mut buf = GaugeRow::new();
        if self.gauges.len() == self.gauge_cap {
            if let Some((_, evicted)) = self.gauges.pop_front() {
                buf = evicted;
            }
        }
        buf.clear();
        buf.extend_from_slice(row);
        self.gauges.push_back((ts_ns, buf));
    }

    /// Cuts a post-mortem dump for a failed op, attaching the current fault
    /// and gauge rings; `gauges` is the recorder that registered the ring's
    /// gauges, and names them. Dumps beyond the cap are counted, not
    /// stored.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        ts_ns: TimeNs,
        op_id: u64,
        kind: &'static str,
        object: &'static str,
        error: &'static str,
        submitted_ns: TimeNs,
        stages: Vec<(&'static str, TimeNs, TimeNs)>,
        gauges: &Recorder,
    ) {
        if self.dumps.len() >= self.dump_cap {
            self.dropped += 1;
            return;
        }
        let seq = if self.id_cursor.0 == ts_ns {
            self.id_cursor.1
        } else {
            0
        };
        self.id_cursor = (ts_ns, seq + 1);
        self.dumps.push(Postmortem {
            id: format!("pm-{ts_ns}-{seq}"),
            ts_ns,
            op_id,
            kind,
            object,
            error,
            submitted_ns,
            stages,
            faults: self.faults.iter().cloned().collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(ts, row)| {
                    let mut named: Vec<(String, i64)> = row
                        .iter()
                        .map(|&(id, v)| (gauges.gauge_name(id).to_string(), v))
                        .collect();
                    // Stable: a gauge named twice in one row keeps its
                    // two points in row order.
                    named.sort_by(|a, b| a.0.cmp(&b.0));
                    (*ts, named)
                })
                .collect(),
        });
    }

    /// The dumps recorded so far, oldest first.
    pub fn dumps(&self) -> &[Postmortem] {
        &self.dumps
    }

    /// Number of dumps dropped because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes every dump as one byte-stable JSON array.
    pub fn dumps_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.dumps.len() * 512);
        out.push_str("[\n");
        for (i, d) in self.dumps.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&d.to_json());
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn sliding_window_expires_old_slices() {
        let mut w = SlidingHistogram::new(10 * MS, MS);
        w.observe(0, 100);
        w.observe(8 * MS, 200);
        let m = w.merged(8 * MS);
        assert_eq!(m.count, 2);
        // At t=16ms the t=0 slice (16ms old) has left the 10ms window; the
        // t=8ms slice (8ms old) is still live.
        w.observe(16 * MS, 300);
        let m = w.merged(16 * MS);
        assert_eq!(m.count, 2);
        assert_eq!(m.min, 200);
        // Eviction also bounds the slice deque itself.
        assert!(w.slices.len() <= 11);
    }

    #[test]
    fn sliding_window_percentiles_use_live_samples_only() {
        let mut w = SlidingHistogram::new(10 * MS, MS);
        for i in 0..10u64 {
            w.observe(i * MS, 10);
        }
        w.observe(30 * MS, 5000);
        let m = w.merged(30 * MS);
        assert_eq!(m.count, 1);
        assert_eq!(m.value_at_quantile(99, 100), 5000);
    }

    #[test]
    fn flight_recorder_rings_are_bounded() {
        let rec = Recorder::new();
        let (g, a) = (rec.register_gauge("g"), rec.register_gauge("a"));
        let mut fr = FlightRecorder::new(2, 2, 1);
        for i in 0..5u64 {
            fr.note_fault(i, format!("fault{i}"));
            fr.note_gauges(i, &[(g, i as i64), (a, -1)]);
        }
        let stages = vec![("s", 0, 9)];
        fr.record(9, 1, "fetch", "obj", "Timeout", 0, stages, &rec);
        fr.record(10, 2, "fetch", "obj", "Timeout", 0, vec![], &rec);
        assert_eq!(fr.dumps().len(), 1);
        assert_eq!(fr.dropped(), 1);
        let d = &fr.dumps()[0];
        assert_eq!(d.faults, vec![(3, "fault3".into()), (4, "fault4".into())]);
        // The last two rows, their names resolved and sorted.
        let row = |v: i64| vec![("a".to_owned(), -1), ("g".to_owned(), v)];
        assert_eq!(d.gauges, vec![(3, row(3)), (4, row(4))]);
        let json = fr.dumps_json();
        assert!(json.contains("\"error\":\"Timeout\""));
        assert!(json.starts_with("[\n{\"id\":\"pm-9-0\",\"ts_ns\":9"));
    }

    #[test]
    fn same_instant_dumps_get_distinct_ids() {
        // Regression: two ops timing out at the same virtual instant used
        // to collide on a timestamp-only post-mortem id.
        let (mut fr, rec) = (FlightRecorder::new(2, 2, 8), Recorder::new());
        fr.record(100, 1, "fetch", "a", "Timeout", 0, vec![], &rec);
        fr.record(100, 2, "fetch", "b", "Timeout", 0, vec![], &rec);
        fr.record(100, 3, "store", "c", "Timeout", 0, vec![], &rec);
        fr.record(250, 4, "fetch", "d", "Timeout", 0, vec![], &rec);
        let ids: Vec<&str> = fr.dumps().iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, vec!["pm-100-0", "pm-100-1", "pm-100-2", "pm-250-0"]);
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "post-mortem ids must be unique");
    }

    #[test]
    fn postmortem_json_is_reproducible() {
        let d = Postmortem {
            id: "pm-5-0".into(),
            ts_ns: 5,
            op_id: 3,
            kind: "store",
            object: "a\"b",
            error: "NoSpace",
            submitted_ns: 1,
            stages: vec![("store.disk_write", 1, 4)],
            faults: vec![(2, "crash node4".into())],
            gauges: vec![(3, vec![("cpu".into(), 250)])],
        };
        assert_eq!(d.to_json(), d.clone().to_json());
        assert!(d.to_json().contains("\"object\":\"a\\\"b\""));
        assert!(d.to_json().contains("[\"store.disk_write\",1,4]"));
        assert!(d.to_json().contains("[3,{\"cpu\":250}]"));
    }
}
