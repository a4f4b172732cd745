//! PAPER.md §V written once: one function per table or figure, returning
//! typed rows, and one predicate per shape claim the paper makes about them.
//! `benches/paper.rs` prints the rows and verdicts, `tests/paper_shapes.rs`
//! asserts the predicates. Every bound comes from the paper's words or its
//! Table I values, never from a measured row.

use c4h_vmm::{PlatformSpec, VmSpec};
use cloud4home::{
    Cloud4Home, Config, NodeId, NodeSpec, Object, OpId, OpReport, Placement, RoutePolicy,
    ServiceKind, StorePolicy,
};

use crate::{mean_std, ms};

/// A sample's mean and (population) standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    pub mean: f64,
    pub std: f64,
}

/// Runs each stream's requests one after another, every stream at once.
/// Returns each report with its stream's index, in completion order.
fn closed_loop<R>(
    home: &mut Cloud4Home,
    streams: Vec<Vec<R>>,
    submit: impl Fn(&mut Cloud4Home, R) -> OpId,
) -> Vec<(usize, OpReport)> {
    let mut streams: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
    let (mut pending, mut stream_of, mut done) = (Vec::new(), Vec::new(), Vec::new());
    let mut ready: Vec<usize> = (0..streams.len()).collect();
    loop {
        for s in ready.drain(..) {
            if let Some(req) = streams[s].next() {
                pending.push(submit(home, req));
                stream_of.push(s);
            }
        }
        if pending.is_empty() {
            return done;
        }
        let (idx, report) = home.run_until_any(&pending);
        pending.swap_remove(idx);
        let s = stream_of.swap_remove(idx);
        ready.push(s);
        done.push((s, report));
    }
}

/// One row of Table I: object size (MB) and a home-cloud fetch's total,
/// node-to-node, guest-to-dom0 (XenSocket) and DHT lookup costs (ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    pub mb: u64,
    pub total: f64,
    pub inter_node: f64,
    pub inter_domain: f64,
    pub dht: f64,
}

const fn t1(mb: u64, total: f64, inter_node: f64, inter_domain: f64, dht: f64) -> Table1Row {
    Table1Row {
        mb,
        total,
        inter_node,
        inter_domain,
        dht,
    }
}

/// The paper's Table I, "Home cloud fetches: cost analysis".
pub const TABLE1_PAPER: [Table1Row; 7] = [
    t1(1, 228.0, 103.0, 25.0, 12.0),
    t1(2, 454.0, 190.0, 37.0, 13.0),
    t1(5, 1160.0, 513.0, 57.0, 13.0),
    t1(10, 2522.0, 1042.0, 189.0, 14.0),
    t1(20, 2477.0, 2079.0, 386.0, 12.0),
    t1(50, 5174.0, 4678.0, 480.0, 16.0),
    t1(100, 15180.0, 13577.0, 1603.0, 12.0),
];

/// Table I: the mean of three fetches per size, each of an object stored on
/// another netbook.
pub fn table1() -> Vec<Table1Row> {
    let mut home = Cloud4Home::new(Config::paper_testbed(1001));
    let mut rows = Vec::new();
    for mb in TABLE1_PAPER.map(|p| p.mb) {
        let mut cols: [Vec<f64>; 4] = Default::default();
        for trial in 0..3 {
            let name = format!("table1/{mb}mb-{trial}.bin");
            let owner = NodeId(1 + (trial % 4));
            let reader = NodeId((2 + trial) % 5);
            let obj = Object::synthetic(&name, mb * 131 + trial as u64, mb << 20, "avi");
            let op = home.store_object(owner, obj, StorePolicy::ForceHome, true);
            home.run_until_complete(op).expect_ok();
            let op = home.fetch_object(reader, &name);
            let r = home.run_until_complete(op);
            r.expect_ok();
            let b = &r.breakdown;
            for (col, d) in cols
                .iter_mut()
                .zip([r.total(), b.inter_node, b.inter_domain, b.dht])
            {
                col.push(ms(d));
            }
        }
        let [total, inter_node, inter_domain, dht] = cols.map(|c| mean_std(&c).0);
        rows.push(t1(mb, total, inter_node, inter_domain, dht));
    }
    rows
}

/// Table I, inter-node cost ≈ linear in size: the inter-node cost per MB
/// varies across sizes by no more than the paper's own column does
/// (13 577 / 100 over 4 678 / 50 = 1.45×).
pub fn inter_node_linear(rows: &[Table1Row]) -> bool {
    let spread = |rows: &[Table1Row]| {
        let per_mb = rows.iter().map(|r| r.inter_node / r.mb as f64);
        per_mb.clone().fold(0.0, f64::max) / per_mb.fold(f64::MAX, f64::min)
    };
    spread(rows) <= spread(&TABLE1_PAPER)
}

/// Table I: the inter-domain transfer costs less than the inter-node one
/// at every size.
pub fn inter_domain_below_inter_node(rows: &[Table1Row]) -> bool {
    rows.iter().all(|r| r.inter_domain < r.inter_node)
}

/// Table I, DHT lookup constant: across a 100× size range the lookup
/// cost stays within a band no wider than the paper's (12–16 ms, 4 ms).
pub fn dht_flat(rows: &[Table1Row]) -> bool {
    let band = |rows: &[Table1Row]| {
        let dht = rows.iter().map(|r| r.dht);
        dht.clone().fold(0.0, f64::max) - dht.fold(f64::MAX, f64::min)
    };
    band(rows) <= band(&TABLE1_PAPER)
}

/// One size (MB) of Figure 4: the latency (s) of a store and a fetch on the
/// home and on the remote cloud.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Row {
    pub mb: u64,
    pub home_store: MeanStd,
    pub home_fetch: MeanStd,
    pub cloud_store: MeanStd,
    pub cloud_fetch: MeanStd,
}

/// Figure 4: the mean and spread of four stores and fetches per size on
/// each cloud, the home dataset spread across the nodes.
pub fn fig4() -> Vec<Fig4Row> {
    let mut home = Cloud4Home::new(Config::paper_testbed(1002));
    let mut rows = Vec::new();
    for mb in [1, 5, 10, 20, 50] {
        // home store, home fetch, cloud store, cloud fetch
        let mut cols: [Vec<f64>; 4] = Default::default();
        for trial in 0..4 {
            let owner = NodeId(trial % 5);
            let reader = NodeId((trial + 2) % 5);
            for (col, tag, seed, policy) in [
                (0, "home", mb * 7, StorePolicy::ForceHome),
                (2, "cloud", mb * 13, StorePolicy::ForceCloud),
            ] {
                let name = format!("fig4/{tag}-{mb}-{trial}.bin");
                let obj = Object::synthetic(&name, seed + trial as u64, mb << 20, "avi");
                let op = home.store_object(owner, obj, policy, true);
                cols[col].push(home.run_until_complete(op).total().as_secs_f64());
                let op = home.fetch_object(reader, &name);
                cols[col + 1].push(home.run_until_complete(op).total().as_secs_f64());
            }
        }
        let [home_store, home_fetch, cloud_store, cloud_fetch] = cols.map(|c| {
            let (mean, std) = mean_std(&c);
            MeanStd { mean, std }
        });
        rows.push(Fig4Row {
            mb,
            home_store,
            home_fetch,
            cloud_store,
            cloud_fetch,
        });
    }
    rows
}

/// Figure 4, remote latencies far higher: a cloud fetch takes at least
/// 10× a home fetch at every size.
pub fn cloud_fetch_10x_home(rows: &[Fig4Row]) -> bool {
    let far_higher = |r: &Fig4Row| r.cloud_fetch.mean >= 10.0 * r.home_fetch.mean;
    rows.iter().all(far_higher)
}

/// Figure 4: a cloud store is slower than a cloud fetch at every size (the
/// 4.5 Mbit/s uplink against the 6.5 Mbit/s downlink).
pub fn cloud_store_slower(rows: &[Fig4Row]) -> bool {
    rows.iter().all(|r| r.cloud_store.mean > r.cloud_fetch.mean)
}

/// Figure 4, remote latencies far more variable, increasingly so for larger
/// objects: both cloud series' spread grows at every size step.
pub fn cloud_spread_grows(rows: &[Fig4Row]) -> bool {
    rows.windows(2).all(|w| {
        w[1].cloud_store.std > w[0].cloud_store.std && w[1].cloud_fetch.std > w[0].cloud_fetch.std
    })
}

/// One size (MB) of Figure 5: remote-cloud throughput (Mbit/s) with constant
/// bytes (Method 1) and constant file count (Method 2) per size class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    pub mb: u64,
    pub method1: f64,
    pub method2: f64,
}

/// Average throughput (Mbit/s) over sequential cloud fetches of `count`
/// objects of `mb` MB each, staged in the cloud first.
fn fig5_measure(home: &mut Cloud4Home, tag: &str, mb: u64, count: usize) -> f64 {
    let name = |i: usize| format!("fig5/{tag}-{mb}-{i}.bin");
    for i in 0..count {
        let obj = Object::synthetic(&name(i), mb * 1000 + i as u64, mb << 20, "avi");
        let op = home.store_object(NodeId(0), obj, StorePolicy::ForceCloud, true);
        home.run_until_complete(op).expect_ok();
    }
    let mut total_secs = 0.0;
    for i in 0..count {
        let op = home.fetch_object(NodeId(1 + i % 4), &name(i));
        let r = home.run_until_complete(op);
        r.expect_ok();
        total_secs += r.total().as_secs_f64();
    }
    (count as u64 * (mb << 20)) as f64 * 8.0 / 1e6 / total_secs
}

/// Figure 5: remote-cloud throughput per object size, Method 1 with
/// 120 MB per size class and Method 2 with 3 files per class.
pub fn fig5() -> Vec<Fig5Row> {
    let mut home = Cloud4Home::new(Config::paper_testbed(1003));
    (10..=100)
        .step_by(10)
        .map(|mb| Fig5Row {
            mb,
            method1: fig5_measure(&mut home, "m1", mb, (120 / mb).max(1) as usize),
            method2: fig5_measure(&mut home, "m2", mb, 3),
        })
        .collect()
}

/// The size (MB) at which `method` peaks; the paper's optimum is ≈ 20 MB.
pub fn fig5_peak(rows: &[Fig5Row], method: fn(&Fig5Row) -> f64) -> u64 {
    let best = rows.iter().max_by(|a, b| method(a).total_cmp(&method(b)));
    best.expect("Figure 5 has rows").mb
}

/// One remote fraction (%) of Figure 6 at 1–3 threads per client: throughput
/// (MB/s), fetches the cloud served, and the most any one stream made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    pub remote_pct: usize,
    pub threads: [f64; 3],
    pub remote_fetches: [usize; 3],
    pub remote_per_stream: [usize; 3],
}

/// Figure 6: one row per remote fraction from 0 % up, and the one-thread
/// remote-cloud-only line (MB/s).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    pub rows: Vec<Fig6Row>,
    pub remote_only: f64,
}

/// A testbed with `remote_pct` percent of Figure 6's 16 "optimal" 10–25 MB
/// objects in the cloud, the rest owned by the non-client devices.
fn fig6_stage(seed: u64, remote_pct: usize) -> (Cloud4Home, Vec<String>) {
    let mut home = Cloud4Home::new(Config::paper_testbed(seed));
    let mut rng = c4h_simnet::DetRng::seed(seed ^ 0xF16);
    let names = (0..16)
        .map(|i| {
            let mb = rng.uniform_u64(10, 26);
            let name = format!("fig6/obj-{i}.dat");
            let obj = Object::synthetic(&name, i as u64, mb << 20, "avi");
            let policy = if i < 16 * remote_pct / 100 {
                StorePolicy::ForceCloud
            } else {
                StorePolicy::ForceHome
            };
            let op = home.store_object(NodeId(3 + (i % 3)), obj, policy, true);
            home.run_until_complete(op).expect_ok();
            name
        })
        .collect();
    (home, names)
}

/// Clients 0–2 each run `threads` closed-loop streams of six fetches, the
/// `k`-th of stream `s` reading object `(5s + 3k) mod 16`. Returns the
/// throughput (MB/s) and the fetches the cloud served to each stream.
fn fig6_measure(home: &mut Cloud4Home, names: &[String], threads: usize) -> (f64, Vec<usize>) {
    let stream = |s: usize| (0..6).map(|k| (s % 3, (5 * s + 3 * k) % 16)).collect();
    let streams = (0..3 * threads).map(stream).collect();
    let start = home.now();
    let done = closed_loop(home, streams, |home, (client, i)| {
        home.fetch_object(NodeId(client), &names[i])
    });
    let elapsed = (home.now() - start).as_secs_f64();
    let (mut bytes, mut remote) = (0u64, vec![0usize; 3 * threads]);
    for (s, report) in &done {
        let out = report.expect_ok();
        bytes += out.bytes;
        remote[*s] += usize::from(out.via_cloud);
    }
    (bytes as f64 / (1 << 20) as f64 / elapsed, remote)
}

/// Figure 6: each cell on its own testbed staged from seed `2000 + pct`,
/// the remote-only line from seed 2000 at one thread.
pub fn fig6() -> Fig6 {
    let (mut base, names) = fig6_stage(2000, 100);
    let remote_only = fig6_measure(&mut base, &names, 1).0;
    let row = |remote_pct: usize| {
        let cells = [1, 2, 3].map(|threads| {
            let (mut home, names) = fig6_stage(2000 + remote_pct as u64, remote_pct);
            fig6_measure(&mut home, &names, threads)
        });
        let remote = cells.each_ref().map(|c| &c.1);
        Fig6Row {
            remote_pct,
            threads: cells.each_ref().map(|c| c.0),
            remote_fetches: remote.map(|r| r.iter().sum()),
            remote_per_stream: remote.map(|r| r.iter().copied().max().unwrap_or(0)),
        }
    };
    let rows = [0, 10, 20, 30, 40, 55].map(row).into();
    Fig6 { rows, remote_only }
}

/// Percent more throughput 3 threads give over 1 at `remote_pct` (the
/// paper reports ≈ 45 % when content is mostly home-resident).
pub fn concurrency_gain(fig: &Fig6, remote_pct: usize) -> f64 {
    let row = fig.rows.iter().find(|r| r.remote_pct == remote_pct);
    let t = row.expect("a measured remote fraction").threads;
    (t[2] / t[0] - 1.0) * 100.0
}

/// Figure 6, concurrency hides remote stalls: in every row, more threads
/// are never slower.
pub fn more_threads_never_worse(fig: &Fig6) -> bool {
    let rising = |r: &Fig6Row| r.threads.windows(2).all(|w| w[1] >= w[0]);
    fig.rows.iter().all(rising)
}

/// Figure 6: the remote-cloud-only line sits below every other cell.
pub fn remote_only_lowest(fig: &Fig6) -> bool {
    let mut cells = fig.rows.iter().flat_map(|r| r.threads);
    cells.all(|x| fig.remote_only < x)
}

/// Figure 6, throughput falls as more content lives behind the WAN: with
/// all content at home, every thread count beats every row with remote
/// content.
pub fn all_home_beats_remote(fig: &Fig6) -> bool {
    let (home, remote) = fig.rows.split_first().expect("Figure 6 has rows");
    let beaten = |r: &Fig6Row| (0..3).all(|t| home.threads[t] > r.threads[t]);
    home.remote_pct == 0 && remote.iter().all(beaten)
}

/// §V-B's makespans (s): (i) at home, (ii) on EC2, (iii) split between the
/// two with `home_share` of the [`SPLIT_IMAGES`] images at home.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    pub home: f64,
    pub cloud: f64,
    pub split: f64,
    pub home_share: usize,
}

/// Images in the §V-B sequence.
pub const SPLIT_IMAGES: usize = 12;

/// The makespan (s) of recognizing `(tag, count, cloud)` stages of images
/// owned round-robin, each at its owner or on the cloud, one image at a
/// time per placement, on a testbed with FRec on every home device.
fn split_run(seed: u64, stages: &[(&str, usize, bool)]) -> f64 {
    let mut config = Config::paper_testbed(seed);
    for n in &mut config.nodes {
        if !n.services.contains(&ServiceKind::FaceRecognize) {
            n.services.push(ServiceKind::FaceRecognize);
        }
    }
    let mut home = Cloud4Home::new(config);
    let mut queues: Vec<Vec<(String, NodeId, Placement)>> = Vec::new();
    for &(tag, count, cloud) in stages {
        // Per-image work (KiB of FRec): the 60 MB home dataset on home nodes,
        // or the larger 190 MB cloud dataset scanned with EC2's parallelism.
        let (policy, kib, at) = match cloud {
            false => (StorePolicy::ForceHome, 2560, None),
            true => (StorePolicy::ForceCloud, 1835, Some(Placement::Cloud)),
        };
        for i in 0..count {
            let node = NodeId(i % home.node_count());
            let name = format!("split/{tag}-{i}.img");
            let obj = Object::synthetic(&name, i as u64 + 90, kib << 10, "jpeg");
            let op = home.store_object(node, obj, policy.clone(), true);
            home.run_until_complete(op).expect_ok();
            let at = at.unwrap_or(Placement::Pin(node));
            match queues.iter_mut().find(|q| q[0].2 == at) {
                Some(q) => q.push((name, node, at)),
                None => queues.push(vec![(name, node, at)]),
            }
        }
    }
    let start = home.now();
    let done = closed_loop(&mut home, queues, |home, (name, client, at)| {
        home.process_object_at(client, &name, ServiceKind::FaceRecognize, at)
    });
    for (_, report) in &done {
        report.expect_ok();
    }
    (home.now() - start).as_secs_f64()
}

/// §V-B: a 12-image recognition sequence (i) at home, (ii) on EC2 and
/// (iii) split in proportion to the rates (i) and (ii) achieved.
pub fn split() -> Split {
    let t_home = split_run(1005, &[("home", SPLIT_IMAGES, false)]);
    let t_cloud = split_run(1006, &[("cloud", SPLIT_IMAGES, true)]);
    let images = SPLIT_IMAGES as f64;
    let (home_rate, cloud_rate) = (images / t_home, images / t_cloud);
    let home_share = ((home_rate / (home_rate + cloud_rate)) * images).round() as usize;
    let halves = [
        ("split-h", home_share, false),
        ("split-c", SPLIT_IMAGES - home_share, true),
    ];
    Split {
        home: t_home,
        cloud: t_cloud,
        split: split_run(1009, &halves),
        home_share,
    }
}

/// §V-B, joint use of home and remote resources: (iii) finishes before
/// either (i) or (ii) alone.
pub fn split_beats_both(s: &Split) -> bool {
    s.split < s.home && s.split < s.cloud
}

/// The paper's Figure 7 winner per image size: S1 at 256 KiB, S2 in the
/// middle, S3 at 2 MiB.
pub const FIG7_PAPER_WINNERS: [&str; 4] = ["S1", "S2", "S2", "S3"];

/// One image size (KiB) of Figure 7: the FDet + FRec pipeline's cost (s) at
/// S1, S2 and S3, and the S3 run's data movement (s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    pub kib: u64,
    pub totals: [f64; 3],
    pub s3_movement: f64,
}

impl Fig7Row {
    /// The placement with the lowest pipeline cost.
    pub fn winner(&self) -> &'static str {
        let best = (0..3).min_by(|&a, &b| self.totals[a].total_cmp(&self.totals[b]));
        ["S1", "S2", "S3"][best.expect("three placements")]
    }
}

/// Figure 7: the FDet → FRec pipeline from S1, the requesting Atom, pinned
/// at S1, at S2 (a quad-core desktop with a small 128 MB VM) and at S3 (the
/// cloud's extra-large instance).
pub fn fig7() -> Vec<Fig7Row> {
    let mut config = Config::paper_testbed(1007);
    let face = vec![ServiceKind::FaceDetect, ServiceKind::FaceRecognize];
    let mut s1 = NodeSpec::netbook("S1");
    s1.platform = PlatformSpec::atom_s1();
    s1.service_vm = VmSpec::new(512, 1);
    s1.services = face.clone();
    let mut s2 = NodeSpec::desktop("S2");
    s2.platform = PlatformSpec::desktop_s2();
    s2.service_vm = VmSpec::new(128, 4);
    s2.services = face;
    config.nodes = vec![s1, s2];
    let mut home = Cloud4Home::new(config);
    let mut rows = Vec::new();
    for (i, kib) in [256, 512, 1024, 2048].into_iter().enumerate() {
        let name = format!("fig7/img-{kib}.jpg");
        let obj = Object::synthetic(&name, i as u64 + 1, kib << 10, "jpeg");
        let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
        let mut pipeline = |at| {
            let [det, rec] = [ServiceKind::FaceDetect, ServiceKind::FaceRecognize].map(|kind| {
                let op = home.process_object_at(NodeId(0), &name, kind, at);
                let r = home.run_until_complete(op);
                r.expect_ok();
                r
            });
            let movement = det.breakdown.inter_node + rec.breakdown.inter_node;
            let total = det.total().as_secs_f64() + rec.total().as_secs_f64();
            (total, movement.as_secs_f64())
        };
        let (s1, s2) = (Placement::Pin(NodeId(0)), Placement::Pin(NodeId(1)));
        let runs = [s1, s2, Placement::Cloud].map(&mut pipeline);
        let totals = runs.map(|r| r.0);
        let s3_movement = runs[2].1;
        rows.push(Fig7Row {
            kib,
            totals,
            s3_movement,
        });
    }
    rows
}

/// One video size (MB) of Figure 8: conversion at the owner and routed (s),
/// the routed run's movement and decision cost (ms), and where it went.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    pub mb: u64,
    pub town: f64,
    pub topt: f64,
    pub move_ms: f64,
    pub decide_ms: f64,
    pub chosen: String,
}

/// Figure 8: a netbook converts a video owned by another netbook, pinned at
/// the owner (Town) or routed for performance (Topt).
pub fn fig8() -> Vec<Fig8Row> {
    let mut config = Config::paper_testbed(1008);
    config.nodes[1].services = vec![ServiceKind::Transcode];
    let mut home = Cloud4Home::new(config);
    let (owner, mobile, convert) = (NodeId(1), NodeId(2), ServiceKind::Transcode);
    let mut rows = Vec::new();
    for (i, mb) in [2, 5, 10, 20, 40].into_iter().enumerate() {
        let name = format!("fig8/video-{mb}.avi");
        let video = Object::synthetic(&name, i as u64 + 60, mb << 20, "avi");
        let op = home.store_object(owner, video, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
        let op = home.process_object_at(mobile, &name, convert, Placement::Pin(owner));
        let town = home.run_until_complete(op);
        town.expect_ok();
        let op = home.process_object(mobile, &name, convert, RoutePolicy::Performance);
        let topt = home.run_until_complete(op);
        rows.push(Fig8Row {
            mb,
            town: town.total().as_secs_f64(),
            topt: topt.total().as_secs_f64(),
            move_ms: ms(topt.breakdown.inter_node),
            decide_ms: ms(topt.breakdown.decision),
            chosen: topt.expect_ok().exec_target.clone().unwrap_or_default(),
        });
    }
    rows
}

/// Figure 8, "the latter case results in substantial performance gains":
/// Topt beats Town at every size.
pub fn topt_beats_town(rows: &[Fig8Row]) -> bool {
    rows.iter().all(|r| r.topt < r.town)
}

/// Figure 8: dynamic discovery routes the conversion to the desktop at
/// every size.
pub fn topt_picks_desktop(rows: &[Fig8Row]) -> bool {
    rows.iter().all(|r| r.chosen == "desktop")
}

/// One architecture's run of the baseline workload: virtual seconds it
/// took, and the operations that failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    pub secs: f64,
    pub failed: usize,
}

/// The introduction's comparison: the thin client (all in the cloud), pure
/// end-point (no cloud) and Cloud4Home (policy and the decision engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baselines {
    pub all_cloud: Run,
    pub all_home: Run,
    pub cloud4home: Run,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arch {
    AllCloud,
    AllHome,
    Cloud4Home,
}

/// Four images stored and recognized, a video converted, two archives stored
/// and one fetched back under `arch`, on home disks too small for them.
fn baseline_run(arch: Arch) -> Run {
    let mut config = Config::paper_testbed(5000);
    for n in &mut config.nodes {
        n.mandatory_bytes = 16 << 20;
        n.voluntary_bytes = 4 << 20;
    }
    if arch == Arch::AllHome {
        config.cloud = None;
    }
    let mut home = Cloud4Home::new(config);
    let start = home.now();
    let mut failed = 0usize;
    let mut finish = |home: &mut Cloud4Home, op: OpId| {
        failed += usize::from(home.run_until_complete(op).outcome.is_err());
    };
    let (store_policy, archive_policy) = match arch {
        Arch::AllCloud => (StorePolicy::ForceCloud, StorePolicy::ForceCloud),
        Arch::AllHome => (StorePolicy::ForceHome, StorePolicy::ForceHome),
        // An archive stays home if it fits and spills to the cloud if not.
        Arch::Cloud4Home => (
            StorePolicy::SizeThreshold {
                cloud_at_bytes: 16 << 20,
            },
            StorePolicy::MandatoryFirst,
        ),
    };
    let process = |home: &mut Cloud4Home, client: usize, name: &str, kind: ServiceKind| {
        let client = NodeId(client);
        match arch {
            Arch::AllCloud => home.process_object_at(client, name, kind, Placement::Cloud),
            _ => home.process_object(client, name, kind, RoutePolicy::Performance),
        }
    };
    for i in 0..4u64 {
        let name = format!("cam/img-{i}.jpg");
        let obj = Object::synthetic(&name, i, 512 << 10, "jpeg");
        let op = home.store_object(NodeId(0), obj, store_policy.clone(), true);
        finish(&mut home, op);
        let op = process(&mut home, 0, &name, ServiceKind::FaceRecognize);
        finish(&mut home, op);
    }
    let movie = Object::synthetic("media/movie.avi", 77, 12 << 20, "avi");
    let op = home.store_object(NodeId(1), movie, store_policy, true);
    finish(&mut home, op);
    let op = process(&mut home, 2, "media/movie.avi", ServiceKind::Transcode);
    finish(&mut home, op);
    for i in 0..2u64 {
        let name = format!("docs/archive-{i}.bin");
        let obj = Object::synthetic(&name, 400 + i, 12 << 20, "doc");
        let op = home.store_object(NodeId(3), obj, archive_policy.clone(), true);
        finish(&mut home, op);
    }
    let op = home.fetch_object(NodeId(4), "docs/archive-0.bin");
    finish(&mut home, op);
    let secs = (home.now() - start).as_secs_f64();
    Run { secs, failed }
}

/// The baseline workload under each architecture, each on a fresh testbed.
pub fn baselines() -> Baselines {
    Baselines {
        all_cloud: baseline_run(Arch::AllCloud),
        all_home: baseline_run(Arch::AllHome),
        cloud4home: baseline_run(Arch::Cloud4Home),
    }
}

/// Cloud4Home finishes the workload before the thin client, which "can
/// suffer from high and variable delays".
pub fn beats_thin_client(b: &Baselines) -> bool {
    b.cloud4home.secs < b.all_cloud.secs
}

/// Cloud4Home completes the whole workload.
pub fn completes_everything(b: &Baselines) -> bool {
    b.cloud4home.failed == 0
}

/// Pure end-point operation "cannot take advantage of the large storage …
/// present in large scale datacenters": at least one archival store fails.
pub fn end_point_fails_archive(b: &Baselines) -> bool {
    b.all_home.failed > 0
}
