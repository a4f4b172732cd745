//! Acceptance tests for the causal op ledger and explain plane: the
//! exact-sum invariant of critical-path DAGs under chaos (crash mid-fetch,
//! hedge races, open breakers), byte determinism with the ledger disabled
//! and enabled, and the bounded per-op ring's chain-preserving eviction.
//!
//! The exact sum and the closed cause chain are rows of the runtime's
//! invariants table, which debug builds check on every report as it is
//! filed; the chaos here is what puts those rows under load.

use std::fmt::Write as _;
use std::time::Duration;

use cloud4home::{
    CauseKind, Cloud4Home, Config, NodeId, Object, OpReport, RoutePolicy, ServiceKind, StorePolicy,
};

const OBJ_BYTES: u64 = 256 << 10;

/// Testbed with the causal ledger recording (tracing stays off: the two
/// planes are independent and `explain` must work without the recorder).
fn ledger_config(seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.ledger = true;
    config
}

#[test]
fn exact_sum_survives_crash_mid_fetch_and_open_breaker() {
    let mut config = ledger_config(999);
    config.overload.enabled = true;
    config.overload.breaker_failures = 2;
    config.overload.breaker_cooldown_ms = 10_000;
    let mut home = Cloud4Home::new(config);

    let obj = Object::synthetic("chaos/payload.bin", 5, OBJ_BYTES, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    let stored = home.run_until_complete(op);
    stored.expect_ok();

    // Three concurrent fetches are mid-transfer when the holder crashes:
    // each severed path records transfer.failed and the retry/backoff
    // chain that follows, and the failures trip the path breaker.
    let pending: Vec<_> = [2usize, 3, 4]
        .iter()
        .map(|&c| home.fetch_object(NodeId(c), "chaos/payload.bin"))
        .collect();
    home.run_for(Duration::from_millis(80));
    home.crash_node(NodeId(1));
    let reports: Vec<OpReport> = pending
        .into_iter()
        .map(|id| home.run_until_complete(id))
        .collect();
    let failed = reports.iter().filter(|r| r.outcome.is_err()).count();
    assert!(
        failed >= 2,
        "crash mid-flow must fail the in-flight fetches"
    );
    let severed = reports
        .iter()
        .flat_map(|r| &r.ledger)
        .filter(|e| e.kind.label() == "transfer.failed")
        .count();
    assert!(
        severed >= 2,
        "severed transfers must appear in the failed ops' ledgers"
    );
    assert!(home.stats().breaker_trips >= 1, "the breaker must trip");
    assert!(
        home.background_ledger()
            .iter()
            .any(|e| e.kind.label() == "breaker.trip"),
        "breaker trips belong to the background ring"
    );

    // The holder rejoins inside the cooldown: the open breaker fast-fails
    // the next fetch, and the skip is recorded on that op's own ring.
    home.rejoin_node(NodeId(1)).expect("a live seed exists");
    let op = home.fetch_object(NodeId(2), "chaos/payload.bin");
    let report = home.run_until_complete(op);
    assert!(report.outcome.is_err(), "open breaker must fast-fail");
    assert!(
        report
            .ledger
            .iter()
            .any(|e| e.kind.label() == "breaker.skip"),
        "the fast-failed op must carry its breaker.skip decision: {:?}",
        report.ledger
    );

    // The rendered explanation restates the invariant with real numbers.
    let text = home.explain_text(report.id);
    assert!(text.contains("exact-sum"), "{text}");
    assert!(text.contains("(ok)"), "{text}");
    assert!(!text.contains("VIOLATED"), "{text}");
}

#[test]
fn exact_sum_survives_hedge_race() {
    let mut config = ledger_config(9200);
    config.replication = 3;
    config.fetch_sources = 2;
    config.fetch_hedge = 0.01;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("chaos/hedge.bin", 1, 48 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();

    let client = (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.objects_on(id) == 0)
        .expect("a non-holding client");
    let op = home.fetch_object(client, "chaos/hedge.bin");
    let report = home.run_until_complete(op);
    report.expect_ok();
    assert!(home.stats().hedged_fetches >= 1, "the hedge must fire");
    let launch = report
        .ledger
        .iter()
        .find(|e| e.kind.label() == "hedge.launch")
        .unwrap_or_else(|| {
            panic!(
                "the raced stripe must record its launch: {:?}",
                report.ledger
            )
        });
    let cancel = report
        .ledger
        .iter()
        .find(|e| e.kind.label() == "hedge.cancel")
        .unwrap_or_else(|| {
            panic!(
                "the losing copy must record its cancel: {:?}",
                report.ledger
            )
        });
    assert_eq!(
        cancel.cause, launch.seq,
        "the cancel must chain back to the launch that raced it"
    );
    let json = home.explain_json(report.id).expect("report is retained");
    assert!(json.contains("\"edges\":["), "{json}");
    assert!(json.contains("hedge.launch"), "{json}");
}

/// A coded read that loses more rows than the code tolerates backs off
/// like the replicated path does, and says so: the wait is in the op's
/// ledger, chained to the severed transfer that induced it, and it is an
/// edge of the DAG, which still sums to the latency.
#[test]
fn coded_read_backoff_is_chained_in_the_ledger_and_the_dag_still_sums() {
    const CODED: &str = "chaos/coded.bin";
    let mut config = ledger_config(9300);
    config.replication = 2;
    config.adaptive.enabled = true;
    config.adaptive.replication_min = 2; // convert straight from both copies
    config.adaptive.ec_k = 2;
    config.adaptive.ec_m = 1;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic(CODED, 7, 2 << 20, "tar");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    for _ in 0..1_200 {
        if home.is_erasure_coded(CODED) {
            break;
        }
        home.run_for(Duration::from_millis(50));
    }
    home.run_until_idle();
    let rows = home.stripe_holders(CODED);
    assert_eq!(rows.len(), 3, "the cold object converts to (2, 1) stripes");
    let client = (0..home.node_count())
        .map(NodeId)
        .find(|id| !rows.contains(id))
        .expect("a node without a row");

    // Both row stripes are on the wire when the spare row's holder and then
    // a row being read are lost: no row is left to re-point the slot at.
    let before = home.stats().flows_started;
    let op = home.fetch_object(client, CODED);
    while home.stats().flows_started < before + 2 {
        home.run_for(Duration::from_millis(2));
    }
    home.crash_node(rows[2]);
    home.crash_node(rows[1]);
    home.run_for(Duration::from_secs(3));
    home.rejoin_node(rows[1]).expect("a live seed exists");
    let report = home.run_until_complete(op);
    assert_eq!(report.expect_ok().bytes, 2 << 20);

    let severed = report
        .ledger
        .iter()
        .find(|e| e.kind.label() == "transfer.failed")
        .unwrap_or_else(|| panic!("the severed stripe is recorded: {:?}", report.ledger));
    let waits: Vec<_> = report
        .ledger
        .iter()
        .filter(|e| e.kind.label() == "backoff.wait")
        .collect();
    assert!(
        waits.len() >= 2,
        "three seconds of backing off is several waits: {:?}",
        report.ledger
    );
    assert_eq!(
        waits[0].cause, severed.seq,
        "the first wait chains to the failure that induced it"
    );
    for pair in waits.windows(2) {
        assert_eq!(pair[1].cause, pair[0].seq, "each wait chains to the last");
    }
    let dag = report.critical_dag();
    let edge = dag
        .iter()
        .find(|e| e.label() == "fetch.retry_wait")
        .expect("the backoff is an edge of the DAG");
    assert_eq!(
        edge.dur_ns(),
        waits[0].a,
        "the edge lasts exactly the wait the ledger recorded"
    );
}

/// The scripted workload the determinism tests replay: stores, fetches,
/// and a delete from rotating clients, then drain to idle.
fn drive(home: &mut Cloud4Home) -> String {
    let mut transcript = String::new();
    let names: Vec<String> = (0..4).map(|i| format!("det/obj-{i}.bin")).collect();
    for (i, name) in names.iter().enumerate() {
        let obj = Object::synthetic(name, 300 + i as u64, (64 + 32 * i as u64) << 10, "doc");
        let op = home.store_object(NodeId(i % 4), obj, StorePolicy::MandatoryFirst, true);
        let r = home.run_until_complete(op);
        let _ = writeln!(transcript, "store {name} -> {:?}", r.outcome);
    }
    for (i, name) in names.iter().enumerate() {
        let op = home.fetch_object(NodeId((i + 2) % 4), name);
        let r = home.run_until_complete(op);
        let _ = writeln!(transcript, "fetch {name} -> {:?}", r.outcome);
    }
    let op = home.delete_object(NodeId(0), &names[3]);
    let r = home.run_until_complete(op);
    let _ = writeln!(transcript, "delete -> {:?}", r.outcome);
    home.run_until_idle();
    let _ = writeln!(transcript, "now_ns={}", home.now().as_nanos());
    transcript
}

#[test]
fn ledger_disabled_runs_stay_byte_identical() {
    // Tracing on, ledger at its default (off): the golden-corpus posture.
    let mut config = Config::paper_testbed(31);
    config.tracing = true;

    let mut a = Cloud4Home::new(config.clone());
    let ta = drive(&mut a);
    let mut b = Cloud4Home::new(config.clone());
    let tb = drive(&mut b);
    assert_eq!(ta, tb, "ledger-off runs must replay byte-identically");
    assert_eq!(a.metrics_json(), b.metrics_json());
    assert_eq!(a.prometheus_text(), b.prometheus_text());

    // None of the ledger-gated surfaces may leak into a default run.
    assert!(!a.ledger_enabled());
    let prom = a.prometheus_text();
    assert!(
        !prom.contains("engine_wheel") && !prom.contains("engine_ledger"),
        "engine introspection gauges must stay dark with the ledger off"
    );
    assert!(
        !a.metrics_json().contains("adaptive.action."),
        "decision counters must stay dark with the ledger off"
    );

    // The same script with the ledger on lands on the same virtual
    // instant with the same outcomes: recording draws no randomness and
    // mutates no simulated state.
    let mut lc = config;
    lc.ledger = true;
    let mut c = Cloud4Home::new(lc.clone());
    let tc = drive(&mut c);
    assert_eq!(
        ta, tc,
        "enabling the ledger must not perturb outcomes or virtual time"
    );

    // And the explain renderings themselves are deterministic per seed.
    let mut d = Cloud4Home::new(lc);
    let _ = drive(&mut d);
    for id in 1..=9u64 {
        let op = cloud4home::OpId(id);
        assert_eq!(c.explain_text(op), d.explain_text(op), "op {id}");
        assert_eq!(c.explain_json(op), d.explain_json(op), "op {id}");
    }
    assert_eq!(c.slowest_text(5), d.slowest_text(5));
    assert_eq!(c.outliers_text("fetch"), d.outliers_text("fetch"));
    // A kind's histogram is found through the op-kind table; a name that
    // is no kind has none.
    let fetch = c.outliers_text("fetch");
    assert!(fetch.contains(" p99.9="), "{fetch}");
    assert!(c
        .outliers_text("fetchh")
        .contains("no latency histogram for this kind"));
}

#[test]
fn explain_ring_releases_the_oldest_reports_detail_and_keeps_their_outcome() {
    let mut config = ledger_config(77);
    config.explain_ring = 2;
    let mut home = Cloud4Home::new(config);
    let mut done = Vec::new();
    for i in 0..4u64 {
        let obj = Object::synthetic(&format!("ring/{i}.bin"), 40 + i, OBJ_BYTES, "doc");
        let op = home.store_object(NodeId(i as usize), obj, StorePolicy::ForceHome, true);
        let report = home.run_until_complete(op);
        assert!(
            !report.stages.is_empty() && !report.ledger.is_empty(),
            "{op}: a report completes with its detail"
        );
        done.push(report);
    }
    let fallback = "no causal data recorded";
    for (i, at_completion) in done.iter().enumerate() {
        let op = at_completion.id;
        let text = home.explain_text(op);
        let kept = home.take_report(op).expect("reports outlive their detail");
        assert_eq!(kept.outcome, at_completion.outcome, "{op}");
        assert_eq!(kept.breakdown, at_completion.breakdown, "{op}");
        assert_eq!(kept.critical_path, at_completion.critical_path, "{op}");
        if i < 2 {
            assert!(kept.stages.is_empty() && kept.ledger.is_empty(), "{op}");
            assert!(text.contains(fallback), "{op}: {text}");
        } else {
            assert_eq!(kept, *at_completion, "{op}: the two newest keep it all");
            assert!(!text.contains(fallback), "{op}: {text}");
            assert!(text.contains("exact-sum:"), "{op}: {text}");
        }
    }
}

#[test]
fn tiny_ring_eviction_preserves_live_chains() {
    // A four-slot ring under an op that records five decisions across two
    // causal chains (a severed stripe reassigned mid-fetch, plus a hedge
    // race on the tail stripe): the ring must overflow, and eviction must
    // drop an unchained root rather than orphan a survivor's cause link.
    let mut config = ledger_config(999);
    config.ledger_ring = 4;
    config.replication = 3;
    config.fetch_sources = 2;
    config.fetch_hedge = 0.01;
    let mut home = Cloud4Home::new(config);

    let obj = Object::synthetic("tiny/stripe.bin", 5, 8 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
    let client = (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.objects_on(id) == 0)
        .expect("a non-holding client");
    let op = home.fetch_object(client, "tiny/stripe.bin");
    home.run_for(Duration::from_millis(300));
    home.crash_node(NodeId(1));
    let report = home.run_until_complete(op);
    report.expect_ok();

    // seq is 1-based and monotone per ring: a max seq above the retained
    // count proves events were evicted — and every survivor's chain must
    // still close inside the report.
    assert!(
        report.ledger.len() <= 4,
        "the ring must stay within its configured bound: {:?}",
        report.ledger
    );
    let max_seq = report.ledger.iter().map(|e| e.seq).max().unwrap_or(0);
    assert!(
        max_seq as usize > report.ledger.len(),
        "five decisions through a four-slot ring must evict: {:?}",
        report.ledger
    );
    for kind in [
        "transfer.failed",
        "stripe.reassign",
        "hedge.launch",
        "hedge.cancel",
    ] {
        assert!(
            report.ledger.iter().any(|e| e.kind.label() == kind),
            "the chained {kind} decision must survive eviction: {:?}",
            report.ledger
        );
    }
}

/// A process op reissues its timed-out metadata batch from its own stage,
/// not through the op engine's reply intercept. Each reissue is a
/// `DhtRetry` on the op's ledger, chained like any other, and a reissue the
/// retry budget denies is a `RetryDenied`.
#[test]
fn a_process_batch_reissue_is_stamped_on_the_ledger() {
    let run = |budget: u32| -> (Cloud4Home, OpReport) {
        let mut config = ledger_config(4646);
        config.overload.enabled = true;
        config.overload.retry_budget = budget;
        config.overload.retry_refill_per_sec = 0;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic("lossy/clip.avi", 31, OBJ_BYTES, "avi");
        let op = home.store_object(NodeId(2), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
        home.run_until_idle();
        home.set_message_loss(0.99);
        let service = ServiceKind::Transcode;
        let op = home.process_object(
            NodeId(4),
            "lossy/clip.avi",
            service,
            RoutePolicy::Performance,
        );
        let report = home.run_until_complete(op);
        assert!(report.outcome.is_err(), "the batch never lands: {report:?}");
        (home, report)
    };
    let count = |report: &OpReport, kind: CauseKind| {
        report.ledger.iter().filter(|e| e.kind == kind).count() as u64
    };

    let (home, report) = run(64);
    assert!(report.retries > 0, "a lost batch is reissued: {report:?}");
    assert_eq!(home.stats().retry_budget_denied, 0);
    assert_eq!(
        count(&report, CauseKind::DhtRetry),
        u64::from(report.retries),
        "every reissue is on the ledger: {:?}",
        report.ledger
    );

    let (home, report) = run(1);
    let denied = home.stats().retry_budget_denied;
    assert!(denied > 0, "a one-token budget runs dry");
    assert_eq!(
        count(&report, CauseKind::RetryDenied),
        denied,
        "every denied reissue is on the ledger: {:?}",
        report.ledger
    );
}

/// A known fault, held red until it is mended. The op engine's lost-reply
/// intercept takes a retry-budget token for every timed-out reply, also on
/// a stage that absorbs lost replies itself and reissues nothing there
/// (`ProcMetaSvcGet` here). With a one-token budget the intercept spends the
/// token, so the batch's own reissue is denied (`RetryDenied`) and the op
/// times out, though the network healed before the reissue was due. The
/// correct behaviour asserted here: the batch's reissue takes the token
/// (`retries == 1`) and no retry is denied. Mending the intercept moves
/// overload-on bytes, so it waits for a re-bless window; that change turns
/// this test from `should_panic` to a plain test.
#[test]
#[should_panic(expected = "the lost-reply intercept spent the batch's retry token")]
fn an_absorbing_stage_keeps_its_retry_token_for_its_own_reissue() {
    let mut config = ledger_config(4646);
    config.overload.enabled = true;
    config.overload.retry_budget = 1;
    config.overload.retry_refill_per_sec = 0;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("lossy/clip.avi", 31, OBJ_BYTES, "avi");
    let op = home.store_object(NodeId(2), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
    // The batch's lookups are lost; the network heals before they time out.
    home.set_message_loss(0.99);
    let service = ServiceKind::Transcode;
    let op = home.process_object(
        NodeId(4),
        "lossy/clip.avi",
        service,
        RoutePolicy::Performance,
    );
    home.run_for(Duration::from_millis(50));
    home.set_message_loss(0.0);
    let report = home.run_until_complete(op);
    let denied = report
        .ledger
        .iter()
        .filter(|e| e.kind == CauseKind::RetryDenied);
    assert_eq!(
        (report.retries, denied.count()),
        (1, 0),
        "the lost-reply intercept spent the batch's retry token: {report:?}"
    );
}
