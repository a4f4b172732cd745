//! The explain plane: per-op critical-path DAGs rendered from completed
//! reports.
//!
//! A report completed with the causal ledger enabled carries its stage
//! spans and decision events (see [`OpReport::stages`] /
//! [`OpReport::ledger`]). This module tiles those stages against the op's
//! `[submitted, completed]` window into an edge sequence — alternating
//! service and wait edges whose durations sum to **exactly** the op's
//! latency — attaches each ledger decision to the edge it fell in, and
//! renders the result as an annotated timeline (`explain`), machine-
//! readable JSON (`explain_json`), or one-line summaries (`slowest`,
//! `outliers`). Everything here is pure rendering over recorded data:
//! integer-only math, `BTreeMap`-free, byte-stable for a fixed seed.

use std::cmp::Reverse;
use std::fmt::Write;

use c4h_telemetry::escape_into;

use crate::ops::{OpKind, Stage};
use crate::report::{OpId, OpReport};
use crate::runtime::Cloud4Home;

/// One edge of a critical-path DAG: a half-open `[start_ns, end_ns)` slice
/// of the op's lifetime, either a recorded stage (service) or the gap
/// between stages (wait), annotated with the `seq`s of the ledger events
/// whose decisions fell inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagEdge {
    /// The stage a service edge ran; `None` for a wait edge.
    stage: Option<Stage>,
    /// Edge start, absolute virtual time.
    pub start_ns: u64,
    /// Edge end, absolute virtual time.
    pub end_ns: u64,
    /// `seq`s of ledger events recorded in `[start_ns, end_ns)` (the final
    /// edge also claims events at exactly `end_ns`).
    pub causes: Vec<u32>,
}

impl DagEdge {
    /// The stage's span name, or `"wait"` for a gap edge.
    pub fn label(&self) -> &'static str {
        self.stage.map_or("wait", |s| s.info().name)
    }

    /// Whether this is a gap (queueing/control/backoff) edge.
    pub fn wait(&self) -> bool {
        self.stage.is_none()
    }

    /// The edge's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

impl OpReport {
    /// The op's critical-path DAG: its stage spans tiled against the window
    /// `[submitted, completed]` with the gaps between them, as service and
    /// wait edges whose durations sum to **exactly** [`OpReport::total`] —
    /// the exact-sum invariant the explain plane is built on. The stages
    /// are sorted by start and non-overlapping (the runtime's sequential
    /// stage log is both by construction); spans outside the window are
    /// clamped into it. Each ledger event's `seq` is attached to the edge
    /// its decision fell in. Empty when the report completed without the
    /// causal ledger enabled (no stages recorded and a zero-length window);
    /// a ledger-enabled op with no stages still yields one all-wait edge.
    pub fn critical_dag(&self) -> Vec<DagEdge> {
        let end_ns = self.completed.as_nanos();
        let mut edges = Vec::new();
        let mut cursor = self.submitted.as_nanos();
        let push = |edges: &mut Vec<DagEdge>, stage, s, e| {
            if e > s {
                edges.push(DagEdge {
                    stage,
                    start_ns: s,
                    end_ns: e,
                    causes: Vec::new(),
                });
            }
        };
        for span in &self.stages {
            let s = span.start_ns.clamp(cursor, end_ns);
            let e = span.end_ns.clamp(cursor, end_ns);
            push(&mut edges, None, cursor, s);
            push(&mut edges, Some(span.stage), s, e);
            cursor = cursor.max(e);
        }
        push(&mut edges, None, cursor, end_ns);
        // Attach each event to the edge covering its instant. Events land
        // on half-open edges so a decision made at a boundary annotates the
        // edge it *opens* (a backoff decision annotates the wait it starts).
        let n = edges.len();
        for ev in &self.ledger {
            let hit = edges.iter_mut().enumerate().find(|(i, edge)| {
                ev.ts_ns >= edge.start_ns && (ev.ts_ns < edge.end_ns || *i + 1 == n)
            });
            if let Some((_, edge)) = hit {
                edge.causes.push(ev.seq);
            }
        }
        edges
    }
}

/// The outcome label used by explain renderings: `"ok"` or the error's
/// stable label.
fn outcome_label(report: &OpReport) -> &'static str {
    match &report.outcome {
        Ok(_) => "ok",
        Err(e) => e.label(),
    }
}

fn via_cloud(report: &OpReport) -> bool {
    matches!(&report.outcome, Ok(o) if o.via_cloud)
}

/// The latency bucket an edge charges to: the stage table's bucket for
/// service edges, `"wait"` for gap edges.
fn edge_bucket(report: &OpReport, edge: &DagEdge) -> &'static str {
    edge.stage
        .map_or("wait", |s| s.bucket(via_cloud(report)).label())
}

/// Renders one report as the `explain` command's annotated timeline.
///
/// Layout: a header line, one line per DAG edge (offset from submission,
/// duration, label, bucket), with the decisions that fell inside an edge
/// indented beneath it, then the full causal chain. The final line restates
/// the exact-sum invariant with the actual numbers.
fn explain_text(report: &OpReport) -> String {
    let total_ns = report.completed.as_nanos() - report.submitted.as_nanos();
    let edges = report.critical_dag();
    let mut out = String::with_capacity(256 + edges.len() * 96);
    let _ = writeln!(
        out,
        "{} {} object={} outcome={} latency={}ns submitted@{}ns",
        report.id,
        report.kind,
        report.object,
        outcome_label(report),
        total_ns,
        report.submitted.as_nanos(),
    );
    if report.stages.is_empty() && report.ledger.is_empty() {
        out.push_str("no causal data recorded (run with the ledger enabled)\n");
        return out;
    }
    let _ = writeln!(out, "critical path ({} edges):", edges.len());
    for edge in &edges {
        let _ = writeln!(
            out,
            "  +{:<12} {:<10} {} [{}]",
            format!("{}ns", edge.start_ns - report.submitted.as_nanos()),
            format!("{}ns", edge.dur_ns()),
            edge.label(),
            edge_bucket(report, edge),
        );
        for seq in &edge.causes {
            if let Some(ev) = report.ledger.iter().find(|e| e.seq == *seq) {
                let _ = write!(out, "      #{} {}", ev.seq, ev.kind.label());
                if ev.cause != 0 {
                    let _ = write!(out, " <- #{}", ev.cause);
                }
                let _ = writeln!(out, " (a={}, b={})", ev.a, ev.b);
            }
        }
    }
    if !report.ledger.is_empty() {
        let _ = writeln!(out, "ledger ({} events):", report.ledger.len());
        for ev in &report.ledger {
            let _ = write!(
                out,
                "  #{} {} @+{}ns",
                ev.seq,
                ev.kind.label(),
                ev.ts_ns.saturating_sub(report.submitted.as_nanos()),
            );
            if ev.cause != 0 {
                let _ = write!(out, " <- #{}", ev.cause);
            }
            let _ = writeln!(out, " (a={}, b={})", ev.a, ev.b);
        }
    }
    let sum: u64 = edges.iter().map(DagEdge::dur_ns).sum();
    let _ = writeln!(
        out,
        "exact-sum: {}ns over {} edges == latency {}ns ({})",
        sum,
        edges.len(),
        total_ns,
        if sum == total_ns { "ok" } else { "VIOLATED" },
    );
    out
}

/// Serializes one report's critical-path DAG and ledger as a byte-stable
/// JSON object (hand-rolled, integer-only — same contract as the other
/// exporters).
fn explain_json(report: &OpReport) -> String {
    let total_ns = report.completed.as_nanos() - report.submitted.as_nanos();
    let edges = report.critical_dag();
    let sum: u64 = edges.iter().map(DagEdge::dur_ns).sum();
    let mut out = String::with_capacity(256 + edges.len() * 128);
    let _ = write!(out, "{{\"op\":{},\"kind\":\"", report.id.0);
    escape_into(&mut out, report.kind);
    out.push_str("\",\"object\":\"");
    escape_into(&mut out, &report.object.to_string());
    out.push_str("\",\"outcome\":\"");
    escape_into(&mut out, outcome_label(report));
    let _ = write!(
        out,
        "\",\"submitted_ns\":{},\"completed_ns\":{},\"latency_ns\":{total_ns},\"sum_ns\":{sum},\
         \"edges\":[",
        report.submitted.as_nanos(),
        report.completed.as_nanos(),
    );
    for (i, edge) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":\"");
        escape_into(&mut out, edge.label());
        let _ = write!(
            out,
            "\",\"start_ns\":{},\"end_ns\":{},\"wait\":{},\"bucket\":\"{}\",\"causes\":[",
            edge.start_ns,
            edge.end_ns,
            edge.wait(),
            edge_bucket(report, edge),
        );
        for (j, seq) in edge.causes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{seq}");
        }
        out.push_str("]}");
    }
    out.push_str("],\"ledger\":[");
    for (i, ev) in report.ledger.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"cause\":{},\"ts_ns\":{},\"kind\":\"",
            ev.seq, ev.cause, ev.ts_ns
        );
        escape_into(&mut out, ev.kind.label());
        let _ = write!(out, "\",\"a\":{},\"b\":{}}}", ev.a, ev.b);
    }
    out.push_str("]}\n");
    out
}

impl Cloud4Home {
    /// Renders a completed op's annotated critical-path timeline: each DAG
    /// edge with its offset, duration, and latency bucket, the causal
    /// decisions that fell inside it, the full ledger chain, and the
    /// exact-sum invariant restated with real numbers. Integer-only
    /// formatting, deterministic per seed. Reports completed with the
    /// ledger off render a one-line fallback.
    pub fn explain_text(&self, op: OpId) -> String {
        match self.ops.report(op) {
            Some(report) => explain_text(report),
            None => format!("no completed report for {op}\n"),
        }
    }

    /// Serializes a completed op's critical-path DAG and causal ledger as
    /// a byte-stable JSON object, or `None` when no report exists for
    /// `op`. Deterministic for a given seed and workload.
    pub fn explain_json(&self, op: OpId) -> Option<String> {
        self.ops.report(op).map(explain_json)
    }

    /// One summary line for each of the `n` slowest recently completed
    /// operations (the health plane's sliding window), with the dominant
    /// critical-path edge when the op completed under the ledger.
    /// Integer-only formatting, deterministic per seed.
    pub fn slowest_text(&self, n: usize) -> String {
        let mut out = self.report_header("slowest");
        let worst = self.health.worst_paths(n);
        if worst.is_empty() {
            out.push_str("no completed operations in the window\n");
            return out;
        }
        for row in worst {
            match self.ops.report(row.op) {
                Some(report) => {
                    out.push_str(&summary_line(report));
                    out.push('\n');
                }
                None => out.push_str(&format!(
                    "{} {} object={} latency={}ns (report evicted)\n",
                    row.op, row.kind, row.object, row.total_ns,
                )),
            }
        }
        out
    }

    /// Summary lines for completed ops of `kind` whose latency reached the
    /// p99.9 of that kind's full-run histogram — the tail the SLO plane
    /// cares about. Scans completed reports in (latency desc, op id)
    /// order, capped at eight rows. Integer-only, deterministic per seed.
    pub fn outliers_text(&self, kind: &str) -> String {
        let mut out = self.report_header(&format!("outliers op.{kind}"));
        let histogram =
            OpKind::from_name(kind).and_then(|k| self.telemetry.histogram(k.info().total_ns));
        let Some(h) = histogram else {
            out.push_str("no latency histogram for this kind (tracing off or no ops)\n");
            return out;
        };
        let p999 = h.value_at_quantile(999, 1000);
        out.push_str(&format!("n={} p99.9={}ns\n", h.count, p999));
        let mut picks: Vec<(u64, &OpReport)> = self
            .ops
            .reports()
            .filter(|r| r.kind == kind)
            .map(|r| (r.completed.as_nanos() - r.submitted.as_nanos(), r))
            .filter(|&(lat, _)| lat >= p999)
            .collect();
        picks.sort_by_key(|&(lat, r)| (Reverse(lat), r.id.0));
        picks.truncate(8);
        if picks.is_empty() {
            out.push_str("no retained reports at or above the threshold\n");
        }
        for (_, report) in picks {
            out.push_str(&summary_line(report));
            out.push('\n');
        }
        out
    }
}

/// One line per report: id, kind, object, outcome, latency, dominant edge.
/// Used by the `slowest` and `outliers` commands.
fn summary_line(report: &OpReport) -> String {
    let total_ns = report.completed.as_nanos() - report.submitted.as_nanos();
    let edges = report.critical_dag();
    let dominant = edges
        .iter()
        .max_by_key(|e| (e.dur_ns(), std::cmp::Reverse((e.start_ns, e.end_ns))))
        .map_or(("none", 0), |e| (e.label(), e.dur_ns()));
    format!(
        "{} {} object={} outcome={} latency={}ns dominant={} ({}ns, {} events)",
        report.id,
        report.kind,
        report.object,
        outcome_label(report),
        total_ns,
        dominant.0,
        dominant.1,
        report.ledger.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{CauseKind, LedgerEvent};
    use crate::report::StageSpan;
    use crate::report::{Breakdown, OpError, OpId, OpOutput, PathAttribution};
    use c4h_simnet::SimTime;

    fn spans(stages: &[(Stage, u64, u64)]) -> Vec<StageSpan> {
        stages
            .iter()
            .map(|&(stage, start_ns, end_ns)| StageSpan {
                stage,
                start_ns,
                end_ns,
            })
            .collect()
    }

    fn report_with(stages: &[(Stage, u64, u64)], ledger: Vec<LedgerEvent>) -> OpReport {
        OpReport {
            id: OpId(7),
            kind: "fetch",
            object: "cam/clip.bin".into(),
            submitted: SimTime::from_nanos(1_000),
            completed: SimTime::from_nanos(11_000),
            breakdown: Breakdown::default(),
            retries: 1,
            failovers: 0,
            partial_replication: 0,
            critical_path: PathAttribution::default(),
            stages: spans(stages),
            ledger,
            outcome: Ok(OpOutput {
                bytes: 64,
                via_cloud: false,
                exec_target: None,
                summary: None,
                listing: None,
            }),
        }
    }

    fn cev(seq: u32, cause: u32, ts_ns: u64, kind: CauseKind) -> LedgerEvent {
        LedgerEvent {
            seq,
            cause,
            ts_ns,
            kind,
            a: 0,
            b: 0,
        }
    }

    /// The DAG of an op over `[start_ns, end_ns]` with `stages` and
    /// ledger events `(seq, ts_ns)`.
    fn tile(
        start_ns: u64,
        end_ns: u64,
        stages: &[(Stage, u64, u64)],
        events: &[(u32, u64)],
    ) -> Vec<DagEdge> {
        let events = events
            .iter()
            .map(|&(seq, ts_ns)| cev(seq, 0, ts_ns, CauseKind::Admit))
            .collect();
        let mut r = report_with(stages, events);
        r.submitted = SimTime::from_nanos(start_ns);
        r.completed = SimTime::from_nanos(end_ns);
        r.critical_dag()
    }

    #[test]
    fn tile_exact_sum_with_gaps_and_clamps() {
        let stages = [
            (Stage::StoreChannelIn, 110, 150),
            (Stage::StoreDiskWrite, 150, 400),
            (Stage::StoreFanout, 500, 900),
        ];
        let edges = tile(100, 1000, &stages, &[(1, 100), (2, 450), (3, 1000)]);
        let sum: u64 = edges.iter().map(DagEdge::dur_ns).sum();
        assert_eq!(sum, 900, "edges must tile the window exactly");
        // wait, stage, stage, wait, stage, wait
        let labels: Vec<&str> = edges.iter().map(DagEdge::label).collect();
        assert_eq!(
            labels,
            vec![
                "wait",
                "store.channel_in",
                "store.disk_write",
                "wait",
                "store.fanout",
                "wait"
            ]
        );
        assert_eq!(edges[0].causes, vec![1], "boundary event opens the edge");
        assert_eq!(edges[3].causes, vec![2]);
        assert_eq!(edges[5].causes, vec![3], "final edge claims the endpoint");
        for pair in edges.windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns, "edges are adjacent");
        }
    }

    #[test]
    fn tile_handles_empty_and_degenerate_windows() {
        assert!(tile(5, 5, &[], &[]).is_empty());
        let edges = tile(0, 100, &[], &[]);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].wait());
        assert_eq!(edges[0].dur_ns(), 100);
        // A stage wholly outside the window contributes nothing.
        let edges = tile(0, 100, &[(Stage::ProcExec, 200, 300)], &[]);
        let sum: u64 = edges.iter().map(DagEdge::dur_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn dag_tiles_the_exact_window() {
        let r = report_with(
            &[
                (Stage::FetchMetaGet, 1_200, 2_000),
                (Stage::FetchFlowHome, 2_500, 10_000),
            ],
            vec![
                cev(1, 0, 1_000, CauseKind::Admit),
                cev(2, 1, 2_400, CauseKind::Backoff),
            ],
        );
        let edges = r.critical_dag();
        let sum: u64 = edges.iter().map(DagEdge::dur_ns).sum();
        assert_eq!(sum, 10_000, "edge durations must sum to op latency");
        assert_eq!(edges.first().unwrap().causes, vec![1]);
        // The backoff decision at 2400 lands on the wait edge [2000, 2500).
        let wait = edges.iter().find(|e| e.causes.contains(&2)).unwrap();
        assert!(wait.wait());
        assert_eq!((wait.start_ns, wait.end_ns), (2_000, 2_500));
    }

    #[test]
    fn text_and_json_are_deterministic_and_exact() {
        let r = report_with(
            &[(Stage::FetchMetaGet, 1_200, 2_000)],
            vec![cev(1, 0, 1_000, CauseKind::Admit)],
        );
        let text = explain_text(&r);
        assert_eq!(text, explain_text(&r));
        assert!(text.contains("op#7 fetch object=cam/clip.bin outcome=ok"));
        assert!(text.contains("fetch.meta_get"));
        assert!(text.contains("[dht]"));
        assert!(text.ends_with("exact-sum: 10000ns over 3 edges == latency 10000ns (ok)\n"));
        let json = explain_json(&r);
        assert_eq!(json, explain_json(&r));
        assert!(json.contains("\"latency_ns\":10000,\"sum_ns\":10000"));
        assert!(json.contains("\"bucket\":\"dht\""));
        assert!(json.contains("\"causes\":[1]"));
    }

    #[test]
    fn ledgerless_report_renders_the_fallback() {
        let r = report_with(&[], Vec::new());
        assert!(explain_text(&r).contains("no causal data recorded"));
        let line = summary_line(&r);
        assert!(line.contains("latency=10000ns"));
        assert!(line.contains("dominant=wait"));
    }

    #[test]
    fn failed_report_uses_error_label() {
        let mut r = report_with(&[], vec![cev(1, 0, 5_000, CauseKind::Shed)]);
        r.outcome = Err(OpError::Overloaded("cam/clip.bin".into()));
        assert!(explain_text(&r).contains("outcome=Overloaded"));
        assert!(explain_json(&r).contains("\"outcome\":\"Overloaded\""));
    }
}
