//! The runtime's invariants, stated once.
//!
//! [`INVARIANTS`] is one table of named predicates over the runtime. A row
//! is either an *idle* check of a [`Cloud4Home`] at quiescence (no op in
//! flight, no background flow) or a *report* check of one [`OpReport`] as
//! the op table files it, before the explain ring can release its detail.
//! Each returns `None` when it holds and a message saying what broke
//! otherwise.
//!
//! Debug builds audit every quiescence [`Cloud4Home::run_until_idle`]
//! reaches and every report filed, and panic naming every failed row: each
//! test, golden cell and claims scenario run in debug is thereby a check of
//! the whole table over its own run. Release builds compile the audit out
//! (the calls sit behind `cfg!(debug_assertions)`).
//!
//! The audit reads through `&self` only: it draws no random number, interns
//! no name and decodes no record through the counting
//! [`Cloud4Home::decode_record`], so an audited run's bytes are those of an
//! unaudited one.

use std::fmt::Write;

use crate::ledger::LEDGER_NONE;
use crate::replicas::holder_keys;
use crate::report::{OpReport, PathAttribution};
use crate::runtime::Cloud4Home;

/// When a row is checked, and its predicate.
#[derive(Clone, Copy)]
pub(crate) enum Check {
    /// Holds whenever `run_until_idle` reaches quiescence.
    Idle(fn(&Cloud4Home) -> Option<String>),
    /// Holds for every report as it is filed.
    Report(fn(&OpReport) -> Option<String>),
}

/// One runtime invariant: its name, why it must hold, and its check.
pub(crate) struct Invariant {
    pub(crate) name: &'static str,
    pub(crate) why: &'static str,
    pub(crate) check: Check,
}

/// Every invariant the runtime keeps.
pub(crate) const INVARIANTS: &[Invariant] = &[
    Invariant {
        name: "flow_engine_settled",
        why: "every transfer the flow engine started completed or was canceled, \
              so none runs on after its owner is gone",
        check: Check::Idle(flow_engine_settled),
    },
    Invariant {
        name: "nothing_stranded",
        why: "every flow, background job and DHT request is routed to its owner \
              on the way out, so an idle runtime holds none of them",
        check: Check::Idle(nothing_stranded),
    },
    Invariant {
        name: "every_op_filed_once",
        why: "each submitted op yields exactly one report, and a second filing \
              would overwrite the first one's outcome",
        check: Check::Idle(every_op_filed_once),
    },
    Invariant {
        name: "holder_index_inverts_metadata",
        why: "crash, rejoin and repair find an object through its holders, so \
              the holder index is the metadata's exact inverse",
        check: Check::Idle(holder_index_inverts_metadata),
    },
    Invariant {
        name: "work_sets_name_indexed_objects",
        why: "the adaptive pass and the anti-entropy sweep look only at objects \
              the index still holds",
        check: Check::Idle(work_sets_name_indexed_objects),
    },
    Invariant {
        name: "stage_spans_ordered_in_window",
        why: "an op runs one stage at a time between its submission and its \
              completion; the breakdown, the critical path and the DAG are read \
              from these spans",
        check: Check::Report(stage_spans_ordered_in_window),
    },
    Invariant {
        name: "breakdown_within_latency",
        why: "the Table-I columns charge sequential time on the op's own path; \
              only `disk` also charges the stripe holders' parallel reads",
        check: Check::Report(breakdown_within_latency),
    },
    Invariant {
        name: "critical_path_sums_to_latency",
        why: "the critical-path buckets attribute every nanosecond of the op's \
              latency exactly once",
        check: Check::Report(critical_path_sums_to_latency),
    },
    Invariant {
        name: "explain_dag_tiles_the_window",
        why: "the explain plane's DAG must sum to the latency exactly and show \
              every recorded decision with its cause",
        check: Check::Report(explain_dag_tiles_the_window),
    },
];

fn flow_engine_settled(home: &Cloud4Home) -> Option<String> {
    let c = home.net.counters();
    (c.started != c.completed + c.canceled).then(|| {
        format!(
            "{} transfers started, {} completed, {} canceled",
            c.started, c.completed, c.canceled
        )
    })
}

fn nothing_stranded(home: &Cloud4Home) -> Option<String> {
    let (flows, waiters) = (home.flows.len(), home.dht_waiters.len());
    (flows > 0 || !home.jobs.is_empty() || waiters > 0).then(|| {
        format!(
            "{flows} flows {:?}, jobs {:?}, {waiters} DHT waiters {:?}",
            home.flows, home.jobs, home.dht_waiters
        )
    })
}

fn every_op_filed_once(home: &Cloud4Home) -> Option<String> {
    let ops = &home.ops;
    let (allocated, live) = (ops.allocated(), ops.in_flight());
    (live > 0 || ops.filed != allocated || ops.refiled > 0).then(|| {
        format!(
            "{allocated} op ids allocated, {} reports filed ({} over a report \
             still filed), {live} ops live",
            ops.filed, ops.refiled
        )
    })
}

fn holder_index_inverts_metadata(home: &Cloud4Home) -> Option<String> {
    let (meta, held) = home.replicas.maps();
    for (name, m) in meta {
        if let Some(key) = holder_keys(m).find(|k| !held.get(k).is_some_and(|s| s.contains(name))) {
            return Some(format!("{name} names holder {key}, whose set lacks it"));
        }
    }
    for (key, names) in held {
        if names.is_empty() {
            return Some(format!("holder {key} has an empty set"));
        }
        let stray = names.iter().find(|&name| {
            !meta
                .get(name)
                .is_some_and(|m| holder_keys(m).any(|k| k == *key))
        });
        if let Some(name) = stray {
            return Some(format!(
                "holder {key} lists {name}, whose metadata does not name it"
            ));
        }
    }
    None
}

fn work_sets_name_indexed_objects(home: &Cloud4Home) -> Option<String> {
    let idx = &home.replicas;
    let (meta, _) = idx.maps();
    [
        ("adaptive_due", &idx.adaptive_due),
        ("repair_suspects", &idx.repair_suspects),
    ]
    .into_iter()
    .find_map(|(set, work)| {
        let name = work.names().iter().find(|name| !meta.contains_key(name))?;
        Some(format!("{set} names {name}, which is not indexed"))
    })
}

fn stage_spans_ordered_in_window(r: &OpReport) -> Option<String> {
    let (mut cursor, end) = (r.submitted.as_nanos(), r.completed.as_nanos());
    for span in &r.stages {
        if span.start_ns < cursor || span.end_ns < span.start_ns || span.end_ns > end {
            return Some(format!(
                "{} {}: {} [{}, {}] ns starts before {cursor} ns or ends after {end} ns",
                r.id,
                r.kind,
                span.name(),
                span.start_ns,
                span.end_ns
            ));
        }
        cursor = span.end_ns;
    }
    None
}

fn breakdown_within_latency(r: &OpReport) -> Option<String> {
    let b = &r.breakdown;
    let charged = b.inter_domain + b.inter_node + b.dht + b.decision + b.exec;
    (charged > r.total()).then(|| {
        format!(
            "{} {}: the columns other than disk charge {charged:?} to a {:?} op",
            r.id,
            r.kind,
            r.total()
        )
    })
}

fn critical_path_sums_to_latency(r: &OpReport) -> Option<String> {
    let (summed, total) = (r.critical_path.total_ns(), r.total().as_nanos() as u64);
    (r.critical_path != PathAttribution::default() && summed != total).then(|| {
        format!(
            "{} {}: buckets sum to {summed} ns of {total} ns",
            r.id, r.kind
        )
    })
}

fn explain_dag_tiles_the_window(r: &OpReport) -> Option<String> {
    if r.stages.is_empty() && r.ledger.is_empty() {
        return None;
    }
    let dag = r.critical_dag();
    let mut cursor = r.submitted.as_nanos();
    for edge in &dag {
        if edge.start_ns != cursor {
            return Some(format!(
                "{} {}: edge {} starts at {} ns, not {cursor} ns",
                r.id,
                r.kind,
                edge.label(),
                edge.start_ns
            ));
        }
        cursor = edge.end_ns;
    }
    if cursor != r.completed.as_nanos() {
        return Some(format!(
            "{} {}: the DAG ends at {cursor} ns, not {} ns",
            r.id,
            r.kind,
            r.completed.as_nanos()
        ));
    }
    let landed: usize = dag.iter().map(|e| e.causes.len()).sum();
    if landed != r.ledger.len() {
        return Some(format!(
            "{} {}: {landed} of {} ledger events land on an edge",
            r.id,
            r.kind,
            r.ledger.len()
        ));
    }
    let dangling = r
        .ledger
        .iter()
        .find(|e| e.cause != LEDGER_NONE && !r.ledger.iter().any(|c| c.seq == e.cause))?;
    Some(format!(
        "{} {}: event #{} ({}) points at #{}, which is not in the report",
        r.id,
        r.kind,
        dangling.seq,
        dangling.kind.label(),
        dangling.cause
    ))
}

/// A failed row and its message.
type Failure = (&'static Invariant, String);

/// The rows that fail, in table order.
fn failures(run: impl Fn(Check) -> Option<String>) -> Vec<Failure> {
    INVARIANTS
        .iter()
        .filter_map(|row| Some((row, run(row.check)?)))
        .collect()
}

/// The idle rows `home` breaks.
pub(crate) fn idle_failures(home: &Cloud4Home) -> Vec<Failure> {
    failures(|check| match check {
        Check::Idle(f) => f(home),
        Check::Report(_) => None,
    })
}

/// The report rows `report` breaks.
pub(crate) fn report_failures(report: &OpReport) -> Vec<Failure> {
    failures(|check| match check {
        Check::Report(f) => f(report),
        Check::Idle(_) => None,
    })
}

/// Panics naming every failed row, if any failed.
fn enforce(failed: Vec<Failure>, at: impl FnOnce() -> String) {
    if failed.is_empty() {
        return;
    }
    let mut msg = format!("invariant audit failed {}:", at());
    for (row, what) in failed {
        let _ = write!(
            msg,
            "\n  {}: {what}\n    (it must hold: {})",
            row.name, row.why
        );
    }
    panic!("{msg}");
}

/// Audits the idle rows; `run_until_idle` calls this in debug builds.
pub(crate) fn audit_idle(home: &Cloud4Home) {
    enforce(idle_failures(home), || {
        format!("at quiescence ({} ns)", home.now().as_nanos())
    });
}

/// Audits the report rows; the op table calls this in debug builds as it
/// files `report`.
pub(crate) fn audit_report(report: &OpReport) {
    enforce(report_failures(report), || format!("filing {}", report.id));
}

#[cfg(test)]
mod tests {
    use c4h_kvstore::{object_key, Record};
    use c4h_simnet::Sym;

    use super::*;
    use crate::report::OpId;
    use crate::transfers::{tests::flow_ids, FlowOwner};
    use crate::{Config, NodeId, Object, StorePolicy};

    const NAME: &str = "audit/a.bin";

    /// A traced, ledger-on home holding one replicated object, idle after a
    /// fetch of it, and that fetch's report.
    fn idle_home() -> (Cloud4Home, OpReport) {
        let mut config = Config::paper_testbed(58);
        config.tracing = true;
        config.ledger = true;
        config.replication = 2;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic(NAME, 1, 256 << 10, "doc");
        let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
        let op = home.fetch_object(NodeId(2), NAME);
        home.run_until_idle();
        let report = home.ops.report(op).expect("filed").clone();
        (home, report)
    }

    fn fired_idle(home: &Cloud4Home) -> Vec<&'static str> {
        idle_failures(home)
            .into_iter()
            .map(|(row, _)| row.name)
            .collect()
    }

    fn fired_report(report: &OpReport) -> Vec<&'static str> {
        report_failures(report)
            .into_iter()
            .map(|(row, _)| row.name)
            .collect()
    }

    #[test]
    fn rows_are_named_once_and_say_why() {
        let mut names: Vec<_> = INVARIANTS.iter().map(|row| row.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), INVARIANTS.len(), "a row name repeats");
        assert!(INVARIANTS.iter().all(|row| !row.why.trim().is_empty()));
    }

    /// The state every other test breaks one row of holds every row, and
    /// has what those rows read: an indexed object with holders, and a
    /// report with stage spans, ledger events and a critical path.
    #[test]
    fn the_scenario_breaks_no_row() {
        let (home, report) = idle_home();
        assert!(fired_idle(&home).is_empty(), "{:?}", fired_idle(&home));
        assert!(fired_report(&report).is_empty(), "{report:?}");
        assert!(home.replicas.get(Sym::new(NAME)).is_some());
        assert!(report.stages.len() >= 2 && !report.ledger.is_empty());
        assert_ne!(report.critical_path, PathAttribution::default());
    }

    #[test]
    fn a_transfer_started_behind_the_table_breaks_flow_engine_settled() {
        let (mut home, _) = idle_home();
        let (now, a, b) = (home.now(), home.nodes[0].addr, home.nodes[1].addr);
        home.net
            .start_flow(now, a, b, 1 << 20, &mut home.rng)
            .expect("route");
        assert_eq!(fired_idle(&home), ["flow_engine_settled"]);
    }

    #[test]
    fn a_stray_flow_table_entry_breaks_nothing_stranded() {
        let (mut home, _) = idle_home();
        let (a, b) = (home.nodes[0].addr, home.nodes[1].addr);
        home.flows
            .insert(flow_ids(1)[0], a, b, FlowOwner::Op(OpId(1)));
        assert_eq!(fired_idle(&home), ["nothing_stranded"]);
    }

    #[test]
    fn filing_a_report_twice_breaks_every_op_filed_once() {
        let (mut home, report) = idle_home();
        let ring = home.config.explain_ring;
        home.ops.file(report, ring);
        assert_eq!(fired_idle(&home), ["every_op_filed_once"]);
    }

    #[test]
    fn a_holder_set_missing_a_name_breaks_holder_index_inverts_metadata() {
        let (mut home, _) = idle_home();
        let name = Sym::new(NAME);
        let meta = home.replicas.get(name).expect("indexed");
        let holder = holder_keys(meta).last().expect("a holder");
        home.replicas.forget_holding(holder, name);
        assert_eq!(fired_idle(&home), ["holder_index_inverts_metadata"]);
    }

    #[test]
    fn an_unindexed_name_due_breaks_work_sets_name_indexed_objects() {
        let (mut home, _) = idle_home();
        home.replicas.mark_due(Sym::new("audit/ghost.bin"));
        assert_eq!(fired_idle(&home), ["work_sets_name_indexed_objects"]);
    }

    #[test]
    fn stage_spans_out_of_order_break_stage_spans_ordered_in_window() {
        let (_, mut report) = idle_home();
        report.stages.reverse();
        assert_eq!(fired_report(&report), ["stage_spans_ordered_in_window"]);
    }

    #[test]
    fn a_column_over_the_latency_breaks_breakdown_within_latency() {
        let (_, mut report) = idle_home();
        report.breakdown.exec += report.total();
        assert_eq!(fired_report(&report), ["breakdown_within_latency"]);
    }

    #[test]
    fn a_stray_nanosecond_breaks_critical_path_sums_to_latency() {
        let (_, mut report) = idle_home();
        report.critical_path.other_ns += 1;
        assert_eq!(fired_report(&report), ["critical_path_sums_to_latency"]);
    }

    #[test]
    fn a_dangling_cause_breaks_explain_dag_tiles_the_window() {
        let (_, mut report) = idle_home();
        let last = report.ledger.last_mut().expect("an event");
        last.cause = last.seq + 1;
        assert_eq!(fired_report(&report), ["explain_dag_tiles_the_window"]);
    }

    #[test]
    #[should_panic(expected = "at quiescence")]
    fn run_until_idle_panics_naming_the_failed_row() {
        let (mut home, _) = idle_home();
        let (a, b) = (home.nodes[0].addr, home.nodes[1].addr);
        home.flows
            .insert(flow_ids(1)[0], a, b, FlowOwner::Op(OpId(1)));
        home.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "breakdown_within_latency")]
    fn filing_a_broken_report_panics_naming_the_failed_row() {
        let (mut home, mut report) = idle_home();
        report.breakdown.dht += report.total();
        let ring = home.config.explain_ring;
        home.ops.file(report, ring);
    }

    /// Where the DHT's copy of an indexed object's metadata disagrees with
    /// the index: the latest `Record::Object` at the key's one live root
    /// should be the indexed metadata. It decodes with `Record::decode`,
    /// which counts nothing. Not a row, because it does not hold (below).
    fn dht_disagreements(home: &Cloud4Home) -> Vec<String> {
        let (meta, _) = home.replicas.maps();
        let mut found = Vec::new();
        for (name, indexed) in meta {
            let key = object_key(name.as_str());
            let roots: Vec<_> = home
                .nodes
                .iter()
                .filter(|n| n.alive && n.overlay().is_root_for(key))
                .collect();
            let [root] = roots[..] else {
                found.push(format!("{name}: {} live nodes are its root", roots.len()));
                continue;
            };
            let Some(stored) = root.overlay().local_get(key) else {
                found.push(format!(
                    "{name}: its live root {} holds no record",
                    root.name
                ));
                continue;
            };
            let record = Record::decode(stored.latest());
            let Some(m) = record.as_ref().ok().and_then(Record::as_object) else {
                found.push(format!("{name}: its root's record is not object metadata"));
                continue;
            };
            let (theirs, ours): (Vec<_>, Vec<_>) =
                (holder_keys(m).collect(), holder_keys(indexed).collect());
            if theirs != ours {
                found.push(format!(
                    "{name}: the root's record names the holder set {theirs:?}, the index {ours:?}"
                ));
            } else if m != indexed {
                found.push(format!(
                    "{name}: the root's record {m:?}, the index {indexed:?}"
                ));
            }
        }
        found
    }

    /// Held red: after a repair or a row rebuild, the index names the new
    /// replica or stripe holder set while the record at the object's root
    /// still names the old one. Mending it republishes the record, which
    /// moves bytes.
    #[test]
    #[should_panic(expected = "the root's record names the holder set")]
    fn a_repaired_replica_set_is_not_republished_to_the_root() {
        let home = crate::transfers::tests::chaos();
        let found = dht_disagreements(&home);
        assert!(found.is_empty(), "{}", found.join("\n"));
    }
}
