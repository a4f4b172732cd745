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

use std::fmt::Write;

use c4h_telemetry::{escape_into, tile_critical_path, DagEdge, PathBucket};

use crate::ops::Stage;
use crate::report::OpReport;

impl OpReport {
    /// The op's critical-path DAG: service and wait edges exactly tiling
    /// `[submitted, completed]` (summed edge durations equal
    /// [`OpReport::total`] to the nanosecond), with ledger-event `seq`s
    /// attached to the edge each decision fell in. Empty when the report
    /// completed without the causal ledger enabled (no stages recorded and
    /// a zero-length window); a ledger-enabled op with no stages still
    /// yields one all-wait edge.
    pub fn critical_dag(&self) -> Vec<DagEdge> {
        let start = self.submitted.as_nanos();
        let end = self.completed.as_nanos();
        let events: Vec<(u32, u64)> = self.ledger.iter().map(|e| (e.seq, e.ts_ns)).collect();
        tile_critical_path(start, end, &self.stages, &events)
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
/// service edges (a label the table does not know charges to `other`),
/// `"wait"` for gap edges.
fn edge_bucket(report: &OpReport, edge: &DagEdge) -> &'static str {
    if edge.wait {
        return "wait";
    }
    Stage::from_name(&edge.label)
        .map_or(PathBucket::Other, |s| s.bucket(via_cloud(report)))
        .label()
}

/// Renders one report as the `explain` command's annotated timeline.
///
/// Layout: a header line, one line per DAG edge (offset from submission,
/// duration, label, bucket), with the decisions that fell inside an edge
/// indented beneath it, then the full causal chain. The final line restates
/// the exact-sum invariant with the actual numbers.
pub(crate) fn explain_text(report: &OpReport) -> String {
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
            edge.label,
            edge_bucket(report, edge),
        );
        for seq in &edge.causes {
            if let Some(ev) = report.ledger.iter().find(|e| e.seq == *seq) {
                let _ = write!(out, "      #{} {}", ev.seq, ev.kind);
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
                ev.kind,
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
pub(crate) fn explain_json(report: &OpReport) -> String {
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
        escape_into(&mut out, &edge.label);
        let _ = write!(
            out,
            "\",\"start_ns\":{},\"end_ns\":{},\"wait\":{},\"bucket\":\"{}\",\"causes\":[",
            edge.start_ns,
            edge.end_ns,
            edge.wait,
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
        escape_into(&mut out, &ev.kind);
        let _ = write!(out, "\",\"a\":{},\"b\":{}}}", ev.a, ev.b);
    }
    out.push_str("]}\n");
    out
}

/// One line per report: id, kind, object, outcome, latency, dominant edge.
/// Used by the `slowest` and `outliers` commands.
pub(crate) fn summary_line(report: &OpReport) -> String {
    let total_ns = report.completed.as_nanos() - report.submitted.as_nanos();
    let edges = report.critical_dag();
    let dominant = edges
        .iter()
        .max_by_key(|e| (e.dur_ns(), std::cmp::Reverse((e.start_ns, e.end_ns))))
        .map(|e| (e.label.clone(), e.dur_ns()))
        .unwrap_or_else(|| ("none".to_owned(), 0));
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
    use crate::report::{Breakdown, CausalEvent, OpError, OpId, OpOutput, PathAttribution};
    use c4h_simnet::SimTime;

    fn report_with(stages: Vec<(&'static str, u64, u64)>, ledger: Vec<CausalEvent>) -> OpReport {
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
            stages,
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

    fn cev(seq: u32, cause: u32, ts_ns: u64, kind: &str) -> CausalEvent {
        CausalEvent {
            seq,
            cause,
            ts_ns,
            kind: kind.to_owned(),
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn dag_tiles_the_exact_window() {
        let r = report_with(
            vec![
                ("fetch.meta_get", 1_200, 2_000),
                ("fetch.flow_home", 2_500, 10_000),
            ],
            vec![cev(1, 0, 1_000, "admit"), cev(2, 1, 2_400, "backoff.wait")],
        );
        let edges = r.critical_dag();
        let sum: u64 = edges.iter().map(DagEdge::dur_ns).sum();
        assert_eq!(sum, 10_000, "edge durations must sum to op latency");
        assert_eq!(edges.first().unwrap().causes, vec![1]);
        // The backoff decision at 2400 lands on the wait edge [2000, 2500).
        let wait = edges.iter().find(|e| e.causes.contains(&2)).unwrap();
        assert!(wait.wait);
        assert_eq!((wait.start_ns, wait.end_ns), (2_000, 2_500));
    }

    #[test]
    fn text_and_json_are_deterministic_and_exact() {
        let r = report_with(
            vec![("fetch.meta_get", 1_200, 2_000)],
            vec![cev(1, 0, 1_000, "admit")],
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
        let r = report_with(Vec::new(), Vec::new());
        assert!(explain_text(&r).contains("no causal data recorded"));
        let line = summary_line(&r);
        assert!(line.contains("latency=10000ns"));
        assert!(line.contains("dominant=wait"));
    }

    #[test]
    fn failed_report_uses_error_label() {
        let mut r = report_with(Vec::new(), vec![cev(1, 0, 5_000, "shed")]);
        r.outcome = Err(OpError::Overloaded("cam/clip.bin".into()));
        assert!(explain_text(&r).contains("outcome=Overloaded"));
        assert!(explain_json(&r).contains("\"outcome\":\"Overloaded\""));
    }
}
