//! Golden byte-determinism corpus for the event engine.
//!
//! Every cell in the matrix below runs a scripted workload under a fixed
//! seed and folds the complete observable output — final virtual time,
//! `RunStats`, every op report line, the metrics JSON dump, and the
//! Prometheus snapshot — into one 64-bit FNV-1a digest. The digests are
//! committed in `tests/golden/digests.json`; any engine change that
//! perturbs a single byte of any run fails here.
//!
//! This file is the same-seed → same-bytes contract in executable form:
//! the digests survived the timer-wheel engine and every rework after it
//! unchanged, and were re-blessed once, when the flow engine's byte
//! accounting became integer. See `tests/golden/README.md` for when
//! re-blessing (`C4H_BLESS=1`) is legitimate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use cloud4home::{
    Cloud4Home, Config, FaultEvent, FaultPlan, NodeId, NodeSpec, Object, RoutePolicy, ServiceKind,
    SpanRec, StorePolicy,
};

/// FNV-1a 64-bit, the same construction the proptest shim uses for test
/// seeds: dependency-free and stable across platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_of(transcript: &str) -> String {
    format!("{:016x}", fnv64(transcript.as_bytes()))
}

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/digests.json")
}

/// Testbed base config with tracing on so the metrics dump is non-trivial.
fn base(seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.tracing = true;
    config
}

/// The preferred client, or the next live node after it (chaos cells
/// crash nodes mid-script; the script routes around them like a real
/// client library would).
fn live_client(home: &Cloud4Home, preferred: usize) -> NodeId {
    let n = home.node_count();
    for k in 0..n {
        let id = NodeId((preferred + k) % n);
        if home.node_alive(id) {
            return id;
        }
    }
    panic!("no live node in the deployment");
}

/// The scripted workload every cell runs: stores from rotating clients
/// (two policies), fetches from different clients, a directory list, one
/// service invocation, and a delete — then drain to idle.
fn drive(home: &mut Cloud4Home, label: &str) -> String {
    let mut transcript = format!("cell={label}\n");
    let mut names = Vec::new();
    for i in 0..6u64 {
        let name = format!("golden/{label}/obj-{i}.bin");
        let obj = Object::synthetic(&name, 100 + i, (64 + 48 * i) << 10, "doc");
        let policy = if i % 2 == 0 {
            StorePolicy::MandatoryFirst
        } else {
            StorePolicy::SizeThreshold {
                cloud_at_bytes: 160 << 10,
            }
        };
        let client = live_client(home, i as usize);
        let op = home.store_object(client, obj, policy, true);
        let report = home.run_until_complete(op);
        let _ = writeln!(transcript, "store {name} -> {:?}", report.outcome);
        names.push(name);
    }
    for (i, name) in names.iter().enumerate() {
        let client = live_client(home, i + 3);
        let op = home.fetch_object(client, name);
        let report = home.run_until_complete(op);
        let _ = writeln!(transcript, "fetch {name} -> {:?}", report.outcome);
    }
    let op = home.list_objects(live_client(home, 1), &format!("golden/{label}"));
    let report = home.run_until_complete(op);
    let _ = writeln!(transcript, "list -> {:?}", report.outcome);
    let op = home.process_object(
        live_client(home, 2),
        &names[0],
        ServiceKind::Compress,
        RoutePolicy::Performance,
    );
    let report = home.run_until_complete(op);
    let _ = writeln!(transcript, "process -> {:?}", report.outcome);
    let op = home.delete_object(live_client(home, 5), &names[5]);
    let report = home.run_until_complete(op);
    let _ = writeln!(transcript, "delete -> {:?}", report.outcome);
    home.run_until_idle();
    transcript
}

/// The many-flows script: ≈ 100 stores, then ≈ 60 fetches, each batch
/// submitted in one instant and drained with `run_until_idle`, so
/// hundreds of replica / stripe flows share the LAN at once (the scripted
/// `drive` never has more than three). Completion instants go into the
/// transcript: they are the flow engine's rates made visible.
fn drive_surge(home: &mut Cloud4Home, label: &str) -> String {
    let mut transcript = format!("cell={label}\n");
    let n = home.node_count();
    let names: Vec<String> = (0..100)
        .map(|i| format!("golden/{label}/obj-{i:03}.bin"))
        .collect();
    let stores: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let obj = Object::synthetic(
                name,
                500 + i as u64,
                (96 + 16 * (i as u64 % 11)) << 10,
                "doc",
            );
            home.store_object(NodeId(i % n), obj, StorePolicy::MandatoryFirst, true)
        })
        .collect();
    home.run_until_idle();
    let fetches: Vec<_> = (0..60)
        .map(|i| home.fetch_object(NodeId((i * 5 + 2) % n), &names[(i * 7) % names.len()]))
        .collect();
    home.run_until_idle();
    for (kind, ops) in [("store", stores), ("fetch", fetches)] {
        for op in ops {
            let report = home.take_report(op).expect("idle means every op reported");
            let _ = writeln!(
                transcript,
                "{kind} {op} @{} -> {:?}",
                report.completed.as_nanos(),
                report.outcome
            );
        }
    }
    transcript
}

/// The big-world script: 30 stores and 30 fetches in waves of six from
/// clients spread over the overlay, with i.i.d. envelope loss on from the
/// first instant. The cell's fault plan lays a Gilbert–Elliott burst
/// window, a crash, a partition + heal and a rejoin over the waves, so
/// every envelope `pump` forwards draws from the RNG in visit order — the
/// order of the drain is what this cell pins.
fn drive_lossy_churn(home: &mut Cloud4Home, label: &str) -> String {
    let mut transcript = format!("cell={label}\n");
    home.set_message_loss(0.02);
    let n = home.node_count();
    let names: Vec<String> = (0..30)
        .map(|i| format!("golden/{label}/obj-{i:02}.bin"))
        .collect();
    for wave in 0..6 {
        let mut ops = Vec::new();
        for i in (wave * 6..wave * 6 + 6).filter(|&i| i < names.len()) {
            let obj = Object::synthetic(
                &names[i],
                900 + i as u64,
                (64 + 24 * (i as u64 % 7)) << 10,
                "doc",
            );
            let client = live_client(home, (i * 17 + 3) % n);
            let op = home.store_object(client, obj, StorePolicy::MandatoryFirst, true);
            ops.push(("store", op));
        }
        // Read back the previous wave's objects from far-away clients.
        for i in (wave * 6..wave * 6 + 6).filter_map(|i| i.checked_sub(6)) {
            let client = live_client(home, (i * 29 + 11) % n);
            ops.push(("fetch", home.fetch_object(client, &names[i])));
        }
        home.run_until_idle();
        for (kind, op) in ops {
            let report = home.take_report(op).expect("idle means every op reported");
            let _ = writeln!(
                transcript,
                "{kind} {op} @{} -> {:?}",
                report.completed.as_nanos(),
                report.outcome
            );
        }
        home.run_for(Duration::from_millis(1500));
    }
    transcript
}

/// The background-job script: one small object (stays on full copies) and
/// three large cold ones, each store publishing at quorum with its replica
/// flows detached, then 45 s of quiet with a fetch every five seconds
/// while the adaptive pass converts the large objects to (2, 1) stripes
/// and the repair daemon restores what the cell's fault plan takes away.
/// The trace (`repair` / `fanout.replica` spans with their `installed`
/// flag, flow spans in record order) is folded into the transcript.
fn drive_adaptive_ec_churn(home: &mut Cloud4Home, label: &str) -> String {
    let mut transcript = format!("cell={label}\n");
    let mut names = vec![format!("golden/{label}/small.bin")];
    names.extend((0..3).map(|i| format!("golden/{label}/cold-{i}.bin")));
    for (i, name) in names.iter().enumerate() {
        let size = if i == 0 {
            768 << 10
        } else {
            (4 + i as u64) << 20
        };
        let obj = Object::synthetic(name, 700 + i as u64, size, "tar");
        let client = live_client(home, (i + 3) % 4);
        let op = home.store_object(client, obj, StorePolicy::ForceHome, true);
        let report = home.run_until_complete(op);
        let _ = writeln!(
            transcript,
            "store {name} @{} -> {:?}",
            report.completed.as_nanos(),
            report.outcome
        );
    }
    for round in 0..9 {
        home.run_for(Duration::from_secs(5));
        let name = &names[round % names.len()];
        let op = home.fetch_object(live_client(home, round + 3), name);
        let report = home.run_until_complete(op);
        let _ = writeln!(
            transcript,
            "fetch {name} @{} ec={} copies={} -> {:?}",
            report.completed.as_nanos(),
            home.is_erasure_coded(name),
            home.live_copies(name),
            report.outcome
        );
    }
    // A last object is deleted while its conversion is in flight.
    let doomed = format!("golden/{label}/doomed.bin");
    let obj = Object::synthetic(&doomed, 777, 6 << 20, "tar");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    let report = home.run_until_complete(op);
    let _ = writeln!(transcript, "store {doomed} -> {:?}", report.outcome);
    let converts = |home: &Cloud4Home| home.telemetry().snapshot().counter("adaptive.ec_converts");
    let before = converts(home);
    while converts(home) == before {
        home.run_for(Duration::from_millis(100));
    }
    let op = home.delete_object(NodeId(1), &doomed);
    let report = home.run_until_complete(op);
    let _ = writeln!(
        transcript,
        "delete {doomed} @{} -> {:?}",
        report.completed.as_nanos(),
        report.outcome
    );
    home.run_until_idle();
    assert_background_edges_crossed(home);
    transcript.push_str(&home.chrome_trace_json());
    transcript
}

/// The `adaptive-ec-churn-s11` cell exists to pin the background-job
/// lifecycles byte for byte; a re-tuned script that no longer reaches one
/// of their edges must fail here rather than silently pin less.
fn assert_background_edges_crossed(home: &Cloud4Home) {
    let stats = home.stats();
    let snap = home.telemetry().snapshot();
    let landed = |span: &SpanRec| span.arg("installed").and_then(|v| v.as_bool());
    let object = |span: &SpanRec| {
        span.arg("object")
            .and_then(|v| v.as_str().map(str::to_owned))
    };
    // A straggler severed in flight whose object a later repair made whole.
    let requeued = snap.spans().any(|cut| {
        cut.name == "fanout.replica"
            && landed(cut) == Some(false)
            && snap.spans().any(|fix| {
                fix.name == "repair"
                    && landed(fix) == Some(true)
                    && object(fix) == object(cut)
                    && fix.start_ns >= cut.end_ns
            })
    });
    assert!(stats.quorum_publishes >= 1, "no store published at quorum");
    assert!(
        requeued,
        "no severed straggler was re-queued into a completed repair"
    );
    assert!(stats.repairs_completed >= 1, "no repair completed");
    for counter in [
        "adaptive.ec_converted",
        "adaptive.ec_converts_aborted",
        "adaptive.ec_rebuilt",
    ] {
        assert!(snap.counter(counter) >= 1, "{counter} never moved");
    }
}

/// Config and fault plan of the `adaptive-ec-churn-s11` cell.
fn adaptive_ec_churn_cell() -> (Config, FaultPlan) {
    let mut config = base(11);
    config.replication = 3;
    // On the one-segment testbed LAN a store's two replica flows share
    // max-min bandwidth and land in the same instant, so quorum 2 of 3
    // never leaves a *flow* behind (only a pending write, installed at the
    // publish). Quorum 1 detaches both flows as background stragglers.
    config.replica_quorum = 1;
    config.anti_entropy_ms = 4_000;
    config.adaptive.enabled = true;
    // The floor equals the static factor, so the repair daemon defends all
    // three copies and a cold object converts straight from them.
    config.adaptive.replication_min = 3;
    config.adaptive.replication_max = 4;
    config.adaptive.ec_k = 2;
    config.adaptive.ec_m = 1;
    let ms = Duration::from_millis;
    let plan = FaultPlan::new()
        .at(
            ms(120),
            FaultEvent::Partition(vec![vec![NodeId(3), NodeId(4)]]),
        )
        .at(ms(700), FaultEvent::Heal)
        .at(ms(2_700), FaultEvent::Crash(NodeId(2)))
        .at(ms(9_000), FaultEvent::Rejoin(NodeId(2)))
        .at(ms(12_000), FaultEvent::Crash(NodeId(4)))
        .at(ms(12_700), FaultEvent::Partition(vec![vec![NodeId(1)]]))
        .at(ms(13_500), FaultEvent::Heal)
        .at(ms(20_000), FaultEvent::Rejoin(NodeId(4)));
    (config, plan)
}

/// Runs one cell of the scripted workload.
fn run_cell(label: &str, config: Config, plan: Option<FaultPlan>) -> String {
    run_script(label, config, plan, drive)
}

/// Runs one cell and returns its transcript: every observable surface, in
/// the order the digest folds them.
fn run_script(
    label: &str,
    config: Config,
    plan: Option<FaultPlan>,
    drive: fn(&mut Cloud4Home, &str) -> String,
) -> String {
    // Chaos perturbs placement enough that a fixed script can dead-end;
    // every cell keeps the same script and simply records outcomes.
    let mut home = Cloud4Home::new(config.clone());
    if let Some(plan) = plan.clone() {
        home.inject_faults(plan);
    }
    let mut transcript = drive(&mut home, label);
    let _ = writeln!(transcript, "now_ns={}", home.now().as_nanos());
    let _ = writeln!(transcript, "stats={:?}", home.stats());
    transcript.push_str(&home.metrics_json());
    transcript.push_str(&home.prometheus_text());
    // Belt and braces: the digest must also be reproducible within this
    // process — catches map-iteration-order dependence immediately rather
    // than as a cross-machine mystery.
    let again = {
        let mut home = Cloud4Home::new(config.clone());
        if let Some(plan) = plan {
            home.inject_faults(plan);
        }
        let mut t = drive(&mut home, label);
        let _ = writeln!(t, "now_ns={}", home.now().as_nanos());
        let _ = writeln!(t, "stats={:?}", home.stats());
        t.push_str(&home.metrics_json());
        t.push_str(&home.prometheus_text());
        t
    };
    assert!(
        transcript == again,
        "cell {label} is not self-deterministic (two in-process runs differ)"
    );
    transcript
}

/// A plan exercising crash, partition, bursty loss, and heal.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            Duration::from_secs(1),
            FaultEvent::BurstyLoss {
                mean_loss: 0.05,
                mean_burst_len: 4.0,
            },
        )
        .at(Duration::from_secs(3), FaultEvent::Crash(NodeId(4)))
        .at(
            Duration::from_secs(6),
            FaultEvent::Partition(vec![vec![NodeId(1)]]),
        )
        .at(Duration::from_secs(15), FaultEvent::Heal)
}

/// The seed × config matrix: every cell name maps to its transcript.
fn corpus() -> BTreeMap<String, String> {
    let mut cells = BTreeMap::new();

    cells.insert(
        "defaults-s11".to_owned(),
        run_cell("defaults-s11", base(11), None),
    );
    cells.insert(
        "defaults-s12".to_owned(),
        run_cell("defaults-s12", base(12), None),
    );

    let mut config = base(11);
    config.replication = 3;
    config.replica_quorum = 2;
    cells.insert(
        "replication-quorum-s11".to_owned(),
        run_cell("replication-quorum-s11", config, None),
    );

    let mut config = base(11);
    config.replication = 3;
    config.fetch_sources = 3;
    config.fetch_hedge = 1.3;
    cells.insert(
        "striping-hedge-s11".to_owned(),
        run_cell("striping-hedge-s11", config, None),
    );

    let mut config = base(11);
    config.chunk_bytes = 64 << 10;
    config.chunk_window = 4;
    cells.insert(
        "chunked-s11".to_owned(),
        run_cell("chunked-s11", config, None),
    );

    let mut config = base(11);
    config.replication = 2;
    cells.insert(
        "chaos-s11".to_owned(),
        run_cell("chaos-s11", config, Some(chaos_plan())),
    );

    let mut config = base(11);
    config.overload.enabled = true;
    config.overload.tenant_max_inflight = 4;
    config.overload.shed_step_permille = 400;
    config.overload.shed_decay_permille = 10;
    config.overload.shed_max_permille = 900;
    cells.insert(
        "overload-s11".to_owned(),
        run_cell("overload-s11", config, None),
    );

    let mut config = base(11);
    config.replication = 3;
    config.replica_quorum = 2;
    config.fetch_sources = 3;
    cells.insert(
        "surge-s11".to_owned(),
        run_script("surge-s11", config, None, drive_surge),
    );

    // 96 nodes on one LAN, every bin the same size, so replica placement
    // is decided by the index tie-break on every store.
    let mut config = base(11);
    config.chimera.leaf_size = 2;
    config.replication = 2;
    config.nodes = (0..95)
        .map(|i| NodeSpec::netbook(&format!("nb-{i:02}")))
        .collect();
    let mut gateway = NodeSpec::desktop("nb-gateway");
    gateway.voluntary_bytes = config.nodes[0].voluntary_bytes;
    config.nodes.push(gateway);
    let plan = FaultPlan::new()
        .at(
            Duration::from_secs(1),
            FaultEvent::BurstyLoss {
                mean_loss: 0.05,
                mean_burst_len: 4.0,
            },
        )
        .at(Duration::from_secs(2), FaultEvent::Crash(NodeId(3)))
        .at(
            Duration::from_secs(4),
            FaultEvent::Partition(vec![(40..52).map(NodeId).collect()]),
        )
        .at(Duration::from_secs(8), FaultEvent::Heal)
        .at(Duration::from_secs(9), FaultEvent::Rejoin(NodeId(3)))
        .at(
            Duration::from_secs(10),
            FaultEvent::BurstyLoss {
                mean_loss: 0.0,
                mean_burst_len: 1.0,
            },
        );
    cells.insert(
        "lossy-churn-s11".to_owned(),
        run_script("lossy-churn-s11", config, Some(plan), drive_lossy_churn),
    );

    let (config, plan) = adaptive_ec_churn_cell();
    cells.insert(
        "adaptive-ec-churn-s11".to_owned(),
        run_script(
            "adaptive-ec-churn-s11",
            config,
            Some(plan),
            drive_adaptive_ec_churn,
        ),
    );

    cells
}

fn render_digests(cells: &BTreeMap<String, String>) -> String {
    let mut out = String::from("{\n");
    for (i, (name, transcript)) in cells.iter().enumerate() {
        let digest = digest_of(transcript);
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{name}\": \"{digest}\"{comma}");
    }
    out.push_str("}\n");
    out
}

fn parse_digests(json: &str) -> BTreeMap<String, String> {
    // The file is machine-written by this test; parse the exact shape it
    // renders rather than pulling in a JSON dependency.
    let mut out = BTreeMap::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim().trim_matches('"');
            let v = v.trim().trim_matches('"');
            if !k.is_empty() && !v.is_empty() && k != "{" {
                out.insert(k.to_owned(), v.to_owned());
            }
        }
    }
    out
}

/// The corpus gate: every cell's digest must match the committed file.
/// Run with `C4H_BLESS=1` to regenerate `tests/golden/digests.json` after
/// an *intentional* behavior change (see `tests/golden/README.md`).
#[test]
fn golden_corpus_digests_match() {
    let cells = corpus();
    let path = digest_path();
    if std::env::var_os("C4H_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, render_digests(&cells)).expect("write digests.json");
        eprintln!("blessed {} cells into {}", cells.len(), path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with C4H_BLESS=1 to generate it",
            path.display()
        )
    });
    let committed = parse_digests(&committed);
    // A diverging cell's whole transcript is left where a second checkout's
    // can be `diff`ed against it (see tests/golden/README.md).
    let dump_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let mut failures = Vec::new();
    for (name, transcript) in &cells {
        let digest = digest_of(transcript);
        if committed.get(name) == Some(&digest) {
            continue;
        }
        let dump = dump_dir.join(format!("{name}.txt"));
        std::fs::create_dir_all(&dump_dir).expect("create the transcript directory");
        std::fs::write(&dump, transcript).expect("write the diverging transcript");
        let want = committed.get(name).map_or("nothing", String::as_str);
        failures.push(format!(
            "{name}: committed {want}, got {digest}; transcript in {}",
            dump.display()
        ));
    }
    for name in committed.keys() {
        if !cells.contains_key(name) {
            failures.push(format!("{name}: committed but no longer generated"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden corpus diverged — an engine change perturbed bytes \
         (re-bless ONLY for intentional behavior changes):\n{}",
        failures.join("\n")
    );
}
