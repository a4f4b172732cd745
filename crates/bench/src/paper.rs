//! PAPER.md §V written once, with the mechanism studies beyond it: one
//! function per experiment returning typed rows, and beside it the table of
//! its claims, each a named predicate over those rows with the paper's
//! words (or its Table I bound, or for a study beyond the paper, the
//! study's own sentence) that it encodes, and the renderer of its block: a
//! markdown table of the rows, the figures its prose quotes and one verdict
//! line per claim. `benches/paper.rs` prints every block, EXPERIMENTS.md
//! holds them between `<!-- paper:NAME -->` markers, `tests/paper_shapes.rs`
//! asserts every claim on the committed seeds and checks the committed
//! block against the same rows, and [`sweep`] names the salted seeds each
//! claim fails on. Every bound comes from the paper's words or its Table I
//! values, or a study's own sentence, never from a measured row. No block
//! renders a host-time figure.

use std::collections::BTreeMap;
use std::fmt::{Debug, Write as _};
use std::ops::Range;
use std::time::Duration;

use c4h_vmm::{PlatformSpec, VmSpec};
use c4h_workloads::{arrivals, hotset_fetches, HotsetConfig, OpKind, OpenLoopConfig};
use cloud4home::{
    Cloud4Home, Config, FaultEvent, FaultPlan, NodeId, NodeSpec, Object, OpError, OpId, OpReport,
    Placement, RoutePolicy, RunStats, ServiceKind, StorePolicy,
};

use crate::{mean_std, ms};

/// The seed each experiment's deployments are made from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub table1: u64,
    pub fig4: u64,
    pub fig5: u64,
    /// A Figure 6 cell at `pct` % remote is staged from `fig6 + pct`, the
    /// remote-only line from `fig6`.
    pub fig6: u64,
    /// §V-B's three runs: at home, on the cloud, split.
    pub split: [u64; 3],
    pub fig7: u64,
    pub fig8: u64,
    /// All three architectures of the baselines.
    pub baselines: u64,
    pub path_caching: u64,
    /// Replication factor `f` runs on `metadata_replication + f`.
    pub metadata_replication: u64,
    pub route_policies: u64,
    pub blocking_stores: u64,
    /// Replication factor `f` runs on `replica_failover + f`.
    pub replica_failover: u64,
    /// Trial `t` runs on `fanout_sweep + t`, the WAN uploads on
    /// `fanout_sweep + 100`.
    pub fanout_sweep: u64,
    /// Trial `t` runs on `fetch_stripe + t`, the hedged fetches on trial 0's.
    pub fetch_stripe: u64,
    pub capacity_frontier: u64,
    pub adaptive_placement: u64,
    /// The world of `n` nodes runs on `overlay_scaling + n`.
    pub overlay_scaling: u64,
}

/// The seeds of the committed blocks (EXPERIMENTS.md) and of the shape
/// tests: salt 0.
pub const COMMITTED: Seeds = Seeds {
    table1: 1001,
    fig4: 1002,
    fig5: 1003,
    fig6: 2000,
    split: [1005, 1006, 1009],
    fig7: 1007,
    fig8: 1008,
    baselines: 5000,
    path_caching: 3000,
    metadata_replication: 3100,
    route_policies: 3200,
    blocking_stores: 3300,
    replica_failover: 3500,
    fanout_sweep: 9000,
    fetch_stripe: 9200,
    capacity_frontier: 7191,
    adaptive_placement: 9200,
    overlay_scaling: 4000,
};

/// The paper testbed on `seed` with `salt` mixed in, as
/// `seed ^ salt · 0x9E37_79B9_7F4A_7C15`: salt 0 is `seed` itself. Only the
/// deployment's seed is salted; object contents, Figure 6's object sizes and
/// the studies' arrival and fetch schedules keep the committed draws.
fn testbed(seed: u64, salt: u64) -> Config {
    Config::paper_testbed(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One claim about an experiment's rows.
#[derive(Debug)]
pub struct Claim<R> {
    pub name: &'static str,
    /// What the predicate encodes: the paper's words or its Table I bound,
    /// or, beyond the paper, the study's own sentence.
    pub says: &'static str,
    holds: fn(&R) -> bool,
}

/// An experiment: its rows on a salt of its committed seed, its claims,
/// and the renderer of its block.
#[derive(Debug)]
pub struct Experiment<R: 'static> {
    /// The block's name in its EXPERIMENTS.md markers.
    pub name: &'static str,
    run: fn(u64) -> R,
    /// The markdown table of the rows and the figures derived from them.
    table: fn(&R) -> String,
    pub claims: &'static [Claim<R>],
}

impl<R: Debug> Experiment<R> {
    /// The rows on salt `salt` of the deployment seeds; salt 0 is
    /// [`COMMITTED`].
    pub fn rows(&self, salt: u64) -> R {
        (self.run)(salt)
    }

    /// Each claim, with whether it holds on `rows`.
    fn verdicts<'a>(&'a self, rows: &'a R) -> impl Iterator<Item = (&'a Claim<R>, bool)> {
        self.claims.iter().map(move |c| (c, (c.holds)(rows)))
    }

    /// The block of `rows` between its markers: the table, the derived
    /// figures, and one `holds` or `NOT REPRODUCED` line per claim.
    fn render(&self, rows: &R) -> String {
        let mut body = (self.table)(rows);
        body.push('\n');
        for (claim, holds) in self.verdicts(rows) {
            let flag = if holds { "holds" } else { "NOT REPRODUCED" };
            let _ = writeln!(body, "- {flag}: `{}` — {}", claim.name, claim.says);
        }
        marked(self.name, &body)
    }

    /// Runs the experiment on salt `salt`, panics naming every claim that
    /// does not hold, and returns the block rendered from the same rows.
    pub fn assert_holds(&self, salt: u64) -> String {
        let rows = self.rows(salt);
        let failed: Vec<_> = self.verdicts(&rows).filter(|v| !v.1).collect();
        assert!(failed.is_empty(), "{failed:#?} on {rows:#?}");
        self.render(&rows)
    }
}

/// Each claim's name, with whether it holds.
pub type Verdicts = Vec<(&'static str, bool)>;

/// An [`Experiment`] of any row type: what the bench, the sweep and the
/// seeds block read.
pub trait AnyExperiment: Sync {
    /// [`Experiment::name`].
    fn name(&self) -> &'static str;
    /// Its claims' names, in table order.
    fn claims(&self) -> Vec<&'static str>;
    /// Its block rendered from the rows on salt `salt`.
    fn block(&self, salt: u64) -> String;
    /// Each claim's name, with whether it holds on salt `salt`.
    fn judge(&self, salt: u64) -> Verdicts;
}

impl<R: Debug> AnyExperiment for Experiment<R> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn claims(&self) -> Vec<&'static str> {
        self.claims.iter().map(|c| c.name).collect()
    }

    fn block(&self, salt: u64) -> String {
        self.render(&self.rows(salt))
    }

    fn judge(&self, salt: u64) -> Verdicts {
        let rows = self.rows(salt);
        let verdicts = self.verdicts(&rows);
        verdicts.map(|(claim, holds)| (claim.name, holds)).collect()
    }
}

/// Every experiment, in the order `benches/paper.rs` prints their blocks
/// and EXPERIMENTS.md holds them.
pub const EVERY: [&dyn AnyExperiment; 18] = [
    &TABLE1,
    &FIG4,
    &FIG5,
    &FIG6,
    &SPLIT,
    &FIG7,
    &FIG8,
    &BASELINES,
    &PATH_CACHING,
    &METADATA_REPLICATION,
    &ROUTE_POLICIES,
    &BLOCKING_STORES,
    &REPLICA_FAILOVER,
    &FANOUT_SWEEP,
    &FETCH_STRIPE,
    &CAPACITY_FRONTIER,
    &ADAPTIVE_PLACEMENT,
    &OVERLAY_SCALING,
];

/// `body` between the markers EXPERIMENTS.md holds the block `name` in.
fn marked(name: &str, body: &str) -> String {
    format!("<!-- paper:{name} -->\n\n{body}\n<!-- /paper:{name} -->\n")
}

/// A markdown table: the `|`-joined cells of `head`, the first column
/// left-aligned and the rest right-aligned, then one line per row of
/// `|`-joined cells.
fn md_table(head: &str, rows: impl IntoIterator<Item = String>) -> String {
    let columns = head.split(" | ").count();
    let out = format!("| {head} |\n|---|{}\n", "---:|".repeat(columns - 1));
    rows.into_iter()
        .fold(out, |out, row| out + "| " + &row + " |\n")
}

/// The salts [`sweep`] judges for the pinned counts: 0 (the committed
/// seeds) to 31.
pub const SWEEP_SALTS: Range<u64> = 0..32;

/// Each claim's pass count over [`SWEEP_SALTS`], in [`sweep`]'s order,
/// then every claim together: `paper_seeds` pins them as a digest is, and
/// the seeds block renders them.
pub const SEED_PINS: [(&str, u64); 47] = [
    ("inter_node_linear", 28),
    ("inter_domain_below_inter_node", 32),
    ("dht_flat", 26),
    ("cloud_fetch_10x_home", 32),
    ("cloud_store_slower", 32),
    ("cloud_spread_grows", 6),
    ("method1_peaks_at_20mb", 32),
    ("method2_peaks_at_20mb", 23),
    ("more_threads_never_worse", 32),
    ("remote_only_lowest", 32),
    ("all_home_beats_remote", 32),
    ("one_remote_fetch_per_stream", 32),
    ("split_beats_both", 32),
    ("paper_winners", 30),
    ("topt_beats_town", 32),
    ("topt_picks_desktop", 32),
    ("beats_thin_client", 32),
    ("completes_everything", 32),
    ("end_point_fails_archive", 32),
    ("path_caching_lowers_dht", 32),
    ("replication_2_resolves_all", 32),
    ("policies_route_as_named", 31),
    ("blocking_store_costs_more", 32),
    ("replica_survives_owner", 32),
    ("fanout_within_1_5x", 32),
    ("every_replica_lands", 32),
    ("foreground_tracks_bytes", 32),
    ("chunked_wan_beats_monolithic", 32),
    ("wan_striping_beats_single_flow", 29),
    ("stripes_exactly_when_sources_allow", 32),
    ("wan_reads_scale_with_stripes", 32),
    ("lan_two_stripes_fill_the_wire", 32),
    ("hedges_fire_latency_neutral", 32),
    ("plane_off_never_sheds", 32),
    ("plane_invisible_below_saturation", 32),
    ("top_load_saturates_unprotected", 32),
    ("protected_sheds_at_top_load", 32),
    ("protected_p99_within_slo", 32),
    ("plane_costs_about_5pct_goodput", 32),
    ("cooldown_erasure_codes_cold_objects", 32),
    ("adaptive_beats_static_footprint", 32),
    ("same_loss_floor_at_1_67x", 32),
    ("adaptive_tail_undercuts_static", 32),
    ("adaptive_mean_competitive", 32),
    ("lookup_hops_grow_logarithmically", 32),
    ("join_envelopes_grow_linearly", 32),
    ("every claim", 3),
];

/// The "Claims over seeds" block: each claim of [`EVERY`] with its pinned
/// pass count, a count under all salts but one marked a one-seed result.
///
/// # Panics
///
/// Panics if a claim has no pin.
pub fn seeds_block() -> String {
    let salts = SWEEP_SALTS.end - SWEEP_SALTS.start;
    let count = |claim: &str| {
        let pin = SEED_PINS.iter().find(|p| p.0 == claim);
        let held = pin.unwrap_or_else(|| panic!("{claim} has no seed pin")).1;
        match held + 1 < salts {
            true => format!("**{held}/{salts}, one-seed result**"),
            false => format!("{held}/{salts}"),
        }
    };
    let rows = EVERY.iter().flat_map(|e| {
        let claims = e.claims().into_iter();
        claims.map(|c| format!("`{}` | `{c}` | {}", e.name(), count(c)))
    });
    let every = std::iter::once(format!(
        "all | every claim together | {}",
        count("every claim")
    ));
    let head = "experiment | claim | salts it holds on";
    marked("seeds", &md_table(head, rows.chain(every)))
}

/// Threads [`sweep`] judges salts on at most.
const SWEEP_THREADS: usize = 8;

/// Runs every experiment on each salt of `salts`, each deployment seed
/// salted as `seed ^ salt · 0x9E37_79B9_7F4A_7C15` (salt 0 is
/// [`COMMITTED`]), and returns each claim's name with the salts it failed
/// on, in [`EVERY`]'s order, then `"every claim"`
/// with the salts on which any of them failed.
///
/// Salts are striped over `available_parallelism()` scoped threads, at
/// most `SWEEP_THREADS` (8) and never more than there are salts, and their
/// verdicts merged in salt order. Every world is built from its own seed
/// and no claim reads a process-wide counter, so a salt's verdicts do not
/// depend on the thread that judged it.
pub fn sweep(salts: Range<u64>) -> Vec<(&'static str, Vec<u64>)> {
    let salts: Vec<u64> = salts.collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(SWEEP_THREADS)
        .min(salts.len())
        .max(1);
    let mut judged: Vec<(u64, Verdicts)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|first| {
                let stripe = salts.iter().skip(first).step_by(threads);
                scope.spawn(move || {
                    let judge =
                        |&salt: &u64| (salt, EVERY.iter().flat_map(|e| e.judge(salt)).collect());
                    stripe.map(judge).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
            .collect()
    });
    judged.sort_by_key(|&(salt, _)| salt);
    let mut fails: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for (salt, mut verdicts) in judged {
        verdicts.push(("every claim", verdicts.iter().all(|v| v.1)));
        fails.resize(verdicts.len(), ("", Vec::new()));
        for ((name, failed_on), (claim, holds)) in fails.iter_mut().zip(verdicts) {
            *name = claim;
            if !holds {
                failed_on.push(salt);
            }
        }
    }
    fails
}

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
fn table1(seed: u64, salt: u64) -> Vec<Table1Row> {
    let mut home = Cloud4Home::new(testbed(seed, salt));
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

/// The least and the greatest of `column` over `rows`.
fn span(rows: &[Table1Row], column: fn(&Table1Row) -> f64) -> (f64, f64) {
    let least = rows.iter().map(column).fold(f64::MAX, f64::min);
    (least, rows.iter().map(column).fold(0.0, f64::max))
}

/// The inter-node cost per MB (ms).
fn per_mb(r: &Table1Row) -> f64 {
    r.inter_node / r.mb as f64
}

/// How far the inter-node cost per MB spreads across sizes (max / min).
fn per_mb_spread(rows: &[Table1Row]) -> f64 {
    let (lo, hi) = span(rows, per_mb);
    hi / lo
}

/// The band (ms) the DHT lookup cost stays in across sizes.
fn dht_band(rows: &[Table1Row]) -> f64 {
    let (lo, hi) = span(rows, |r| r.dht);
    hi - lo
}

/// Table I's derived figures for `rows`: the per-MB inter-node span, the
/// inter-node / inter-domain ratios and the DHT band.
fn table1_figures(rows: &[Table1Row]) -> String {
    let (lo, hi) = span(rows, per_mb);
    let (rlo, rhi) = span(rows, |r| r.inter_node / r.inter_domain);
    let (dlo, dhi) = span(rows, |r| r.dht);
    let (spread, band, ratio) = (hi / lo, dhi - dlo, dhi / dlo);
    format!(
        "inter-node per MB {lo:.1}–{hi:.1} ms ({spread:.2}×); \
         inter-node / inter-domain {rlo:.1}–{rhi:.1}×; \
         DHT lookup {dlo:.1}–{dhi:.1} ms ({band:.1} ms wide, max / min {ratio:.2}×)"
    )
}

/// Table I's claims.
pub const TABLE1: Experiment<Vec<Table1Row>> = Experiment {
    name: "table1",
    run: |salt| table1(COMMITTED.table1, salt),
    table: |rows| {
        let lines = rows.iter().zip(&TABLE1_PAPER).map(|(r, p)| {
            let pair = |m: f64, p: f64| format!("{m:.0} / {p:.0}");
            let (total, node) = (pair(r.total, p.total), pair(r.inter_node, p.inter_node));
            let domain = pair(r.inter_domain, p.inter_domain);
            format!("{} MB | {total} | {node} | {domain} | {:.1} / {:.0}", r.mb, r.dht, p.dht)
        });
        let head = "size (measured / paper, ms) | total | inter-node | inter-domain | DHT lookup";
        let (ours, paper) = (table1_figures(rows), table1_figures(&TABLE1_PAPER));
        md_table(head, lines) + &format!("\nMeasured: {ours}.\n\nThe paper: {paper}.\n")
    },
    claims: &[
        Claim {
            name: "inter_node_linear",
            says: "Table I: inter-node cost ≈ linear in size; its per-MB cost spreads no wider than the paper's 93.6–135.8 ms (1.45×)",
            holds: |rows| per_mb_spread(rows) <= per_mb_spread(&TABLE1_PAPER),
        },
        Claim {
            name: "inter_domain_below_inter_node",
            says: "Table I: inter-domain (25 → 1 603 ms) below inter-node at every size",
            holds: |rows| rows.iter().all(|r| r.inter_domain < r.inter_node),
        },
        Claim {
            name: "dht_flat",
            says: "Table I: DHT lookup constant, in a band no wider than the paper's 12–16 ms (4 ms) from 1 MB to 100 MB",
            holds: |rows| dht_band(rows) <= dht_band(&TABLE1_PAPER),
        },
    ],
};

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
fn fig4(seed: u64, salt: u64) -> Vec<Fig4Row> {
    let mut home = Cloud4Home::new(testbed(seed, salt));
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

/// Figure 4's claims.
pub const FIG4: Experiment<Vec<Fig4Row>> = Experiment {
    name: "fig4",
    run: |salt| fig4(COMMITTED.fig4, salt),
    table: |rows| {
        let lines = rows.iter().map(|r| {
            let cells = [r.home_store, r.home_fetch, r.cloud_store, r.cloud_fetch];
            let cells = cells.map(|c| match c.mean < 10.0 {
                true => format!("{:.2} ± {:.2}", c.mean, c.std),
                false => format!("{:.1} ± {:.1}", c.mean, c.std),
            });
            let ratio = r.cloud_fetch.mean / r.home_fetch.mean;
            format!("{} MB | {} | {ratio:.0}×", r.mb, cells.join(" | "))
        });
        let head = "size (s) | home store | home fetch | cloud store | cloud fetch | \
                    cloud / home fetch";
        md_table(head, lines)
    },
    claims: &[
        Claim {
            name: "cloud_fetch_10x_home",
            says: "remote latencies are \"far higher\": a cloud fetch ≥ 10× a home fetch at every size",
            holds: |rows| rows.iter().all(|r| r.cloud_fetch.mean >= 10.0 * r.home_fetch.mean),
        },
        Claim {
            name: "cloud_store_slower",
            says: "a cloud store is slower than a cloud fetch (upload 4.5 vs download 6.5 Mbit/s)",
            holds: |rows| rows.iter().all(|r| r.cloud_store.mean > r.cloud_fetch.mean),
        },
        Claim {
            name: "cloud_spread_grows",
            says: "remote latencies are \"far more variable\", increasingly so for larger objects: both cloud spreads grow at every size step",
            holds: |rows| {
                rows.windows(2).all(|w| {
                    let [a, b] = [&w[0], &w[1]];
                    b.cloud_store.std > a.cloud_store.std && b.cloud_fetch.std > a.cloud_fetch.std
                })
            },
        },
    ],
};

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
fn fig5(seed: u64, salt: u64) -> Vec<Fig5Row> {
    let mut home = Cloud4Home::new(testbed(seed, salt));
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
fn fig5_peak(rows: &[Fig5Row], method: fn(&Fig5Row) -> f64) -> u64 {
    let best = rows.iter().max_by(|a, b| method(a).total_cmp(&method(b)));
    best.expect("Figure 5 has rows").mb
}

/// Figure 5's claims: "Remote Cloud - optimal object size", ≈ 20 MB.
pub const FIG5: Experiment<Vec<Fig5Row>> = Experiment {
    name: "fig5",
    run: |salt| fig5(COMMITTED.fig5, salt),
    table: |rows| {
        let (m1, m2) = (
            fig5_peak(rows, |r| r.method1),
            fig5_peak(rows, |r| r.method2),
        );
        let cell = |v: f64, peak: bool| {
            if peak {
                format!("**{v:.2}**")
            } else {
                format!("{v:.2}")
            }
        };
        let lines = rows.iter().map(|r| {
            format!(
                "{} MB | {} | {}",
                r.mb,
                cell(r.method1, r.mb == m1),
                cell(r.method2, r.mb == m2)
            )
        });
        let head = "size | Method 1 (Mbit/s) | Method 2 (Mbit/s)";
        md_table(head, lines) + &format!("\nPeaks: Method 1 at {m1} MB, Method 2 at {m2} MB.\n")
    },
    claims: &[
        Claim {
            name: "method1_peaks_at_20mb",
            says: "Method 1 (120 MB per size class) peaks at the paper's ≈ 20 MB optimum",
            holds: |rows| fig5_peak(rows, |r| r.method1) == 20,
        },
        Claim {
            name: "method2_peaks_at_20mb",
            says: "Method 2 (3 files per size class) peaks at the paper's ≈ 20 MB optimum",
            holds: |rows| fig5_peak(rows, |r| r.method2) == 20,
        },
    ],
};

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
fn fig6_stage(seed: u64, salt: u64, remote_pct: usize) -> (Cloud4Home, Vec<String>) {
    let mut home = Cloud4Home::new(testbed(seed, salt));
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

/// Figure 6: each cell on its own testbed staged from `seed + pct`, the
/// remote-only line from `seed` at one thread.
fn fig6(seed: u64, salt: u64) -> Fig6 {
    let (mut base, names) = fig6_stage(seed, salt, 100);
    let remote_only = fig6_measure(&mut base, &names, 1).0;
    let row = |remote_pct: usize| {
        let cells = [1, 2, 3].map(|threads| {
            let (mut home, names) = fig6_stage(seed + remote_pct as u64, salt, remote_pct);
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
fn concurrency_gain(fig: &Fig6, remote_pct: usize) -> f64 {
    let row = fig.rows.iter().find(|r| r.remote_pct == remote_pct);
    let t = row.expect("a measured remote fraction").threads;
    (t[2] / t[0] - 1.0) * 100.0
}

/// Figure 6's claims.
pub const FIG6: Experiment<Fig6> = Experiment {
    name: "fig6",
    run: |salt| fig6(COMMITTED.fig6, salt),
    table: |fig| {
        let lines = fig.rows.iter().map(|r| {
            let [t1, t2, t3] = r.threads;
            let slash = |v: [usize; 3]| v.map(|x| x.to_string()).join(" / ");
            let (remote, most) = (slash(r.remote_fetches), slash(r.remote_per_stream));
            format!("{} % | {t1:.2} | {t2:.2} | {t3:.2} | {remote} | {most}", r.remote_pct)
        });
        let head = "remote (MB/s) | 1 thread | 2 threads | 3 threads | cloud-served fetches | \
                    most to one stream";
        let only = format!("Remote-cloud-only line (one thread): {:.2} MB/s.", fig.remote_only);
        let gain = concurrency_gain(fig, 10);
        let gain = format!("Gain of 3 threads over 1 at 10 % remote: {gain:.0} %.");
        md_table(head, lines) + &format!("\n{only}\n\n{gain}\n")
    },
    claims: &[
        Claim {
            name: "more_threads_never_worse",
            says: "more client threads overlap remote stalls with home accesses: never slower",
            holds: |fig| fig.rows.iter().all(|r| r.threads.windows(2).all(|w| w[1] >= w[0])),
        },
        Claim {
            name: "remote_only_lowest",
            says: "the remote-cloud-only line sits at the bottom",
            holds: |fig| fig.rows.iter().flat_map(|r| r.threads).all(|x| fig.remote_only < x),
        },
        Claim {
            name: "all_home_beats_remote",
            says: "throughput falls as content moves behind the WAN: the 0 % row beats every remote row",
            holds: |fig| {
                let (home, remote) = fig.rows.split_first().expect("Figure 6 has rows");
                let beaten = |r: &Fig6Row| (0..3).all(|t| home.threads[t] > r.threads[t]);
                home.remote_pct == 0 && remote.iter().all(beaten)
            },
        },
        Claim {
            name: "one_remote_fetch_per_stream",
            says: "why the 20 % row beats the 10 % row: the cloud serves 2, 3, 3 of 18, 36, 54 fetches at 10 % and 3, 6, 9 at 20 %, never two to one stream",
            holds: |fig| {
                let pinned = |pct, fetches| {
                    let row = fig.rows.iter().find(|r| r.remote_pct == pct);
                    row.is_some_and(|r| r.remote_fetches == fetches && r.remote_per_stream == [1; 3])
                };
                pinned(10, [2, 3, 3]) && pinned(20, [3, 6, 9])
            },
        },
    ],
};

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
fn split_run(seed: u64, salt: u64, stages: &[(&str, usize, bool)]) -> f64 {
    let mut config = testbed(seed, salt);
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
/// (iii) split in proportion to the rates (i) and (ii) achieved, each run
/// on its own testbed, seeded in that order from `seeds`.
fn split(seeds: [u64; 3], salt: u64) -> Split {
    let t_home = split_run(seeds[0], salt, &[("home", SPLIT_IMAGES, false)]);
    let t_cloud = split_run(seeds[1], salt, &[("cloud", SPLIT_IMAGES, true)]);
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
        split: split_run(seeds[2], salt, &halves),
        home_share,
    }
}

/// §V-B's claim.
pub const SPLIT: Experiment<Split> = Experiment {
    name: "split",
    run: |salt| split(COMMITTED.split, salt),
    table: |s| {
        let cloud_share = SPLIT_IMAGES - s.home_share;
        let split = format!("(iii) split, {} images home / {cloud_share} cloud", s.home_share);
        let runs = [
            ("(i) home only", s.home, 162),
            ("(ii) remote cloud only", s.cloud, 127),
            (&split, s.split, 98),
        ];
        let lines = runs.map(|(label, secs, paper)| format!("{label} | {secs:.1} | {paper}"));
        md_table("scenario | measured (s) | paper (s)", lines)
    },
    claims: &[
        Claim {
            name: "split_beats_both",
            says: "\"162 sec, 127 sec, and 98 sec, respectively\": (iii) split beats (i) home and (ii) cloud alone",
            holds: |s| s.split < s.home && s.split < s.cloud,
        },
    ],
};

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
fn fig7(seed: u64, salt: u64) -> Vec<Fig7Row> {
    let mut config = testbed(seed, salt);
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

/// Figure 7's claim.
pub const FIG7: Experiment<Vec<Fig7Row>> = Experiment {
    name: "fig7",
    run: |salt| fig7(COMMITTED.fig7, salt),
    table: |rows| {
        let lines = rows.iter().map(|r| {
            let [s1, s2, s3] = r.totals;
            let (kib, winner, moved) = (r.kib, r.winner(), r.s3_movement);
            format!("{kib} KiB | {s1:.2} | {s2:.2} | {s3:.2} | {winner} | {moved:.1}")
        });
        let head = "image | S1 (s) | S2 (s) | S3 (s) | winner | S3 data movement (s)";
        md_table(head, lines)
    },
    claims: &[
        Claim {
            name: "paper_winners",
            says: "S1 wins the smallest images, S2 the middle, and S3 at 2 MiB \"despite the even greater data movement costs\"",
            holds: |rows| rows.iter().map(Fig7Row::winner).eq(FIG7_PAPER_WINNERS),
        },
    ],
};

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
fn fig8(seed: u64, salt: u64) -> Vec<Fig8Row> {
    let mut config = testbed(seed, salt);
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

/// Figure 8's claims.
pub const FIG8: Experiment<Vec<Fig8Row>> = Experiment {
    name: "fig8",
    run: |salt| fig8(COMMITTED.fig8, salt),
    table: |rows| {
        let lines = rows.iter().map(|r| {
            let (town, topt, speedup) = (r.town, r.topt, r.town / r.topt);
            let (moved, decide) = (r.move_ms, r.decide_ms);
            let (mb, chosen) = (r.mb, &r.chosen);
            let times = format!("{town:.2} | {topt:.2} | {speedup:.2}×");
            format!("{mb} MB | {times} | {moved:.0} | {decide:.0} | {chosen}")
        });
        let head = "size | Town (s) | Topt (s) | speedup | Topt movement (ms) | decision (ms) | \
                    chosen";
        md_table(head, lines)
    },
    claims: &[
        Claim {
            name: "topt_beats_town",
            says: "\"the latter case results in substantial performance gains, despite the additional costs for moving data\": Topt < Town at every size",
            holds: |rows| rows.iter().all(|r| r.topt < r.town),
        },
        Claim {
            name: "topt_picks_desktop",
            says: "dynamic discovery routes the conversion to the desktop at every size",
            holds: |rows| rows.iter().all(|r| r.chosen == "desktop"),
        },
    ],
};

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
fn baseline_run(seed: u64, salt: u64, arch: Arch) -> Run {
    let mut config = testbed(seed, salt);
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

/// The baseline workload under each architecture, each on a fresh testbed
/// seeded with `seed`.
fn baselines(seed: u64, salt: u64) -> Baselines {
    Baselines {
        all_cloud: baseline_run(seed, salt, Arch::AllCloud),
        all_home: baseline_run(seed, salt, Arch::AllHome),
        cloud4home: baseline_run(seed, salt, Arch::Cloud4Home),
    }
}

/// The introduction's claims.
pub const BASELINES: Experiment<Baselines> = Experiment {
    name: "baselines",
    run: |salt| baselines(COMMITTED.baselines, salt),
    table: |b| {
        let runs = [
            ("all-cloud (thin client)", b.all_cloud),
            ("all-home (pure end-point)", b.all_home),
            ("Cloud4Home", b.cloud4home),
        ];
        let lines = runs.map(|(label, r)| format!("{label} | {:.1} | {}", r.secs, r.failed));
        let speedup = b.all_cloud.secs / b.cloud4home.secs;
        let faster = format!("Cloud4Home finishes {speedup:.1}× sooner than the thin client.");
        md_table("architecture | workload (s) | failed ops", lines) + &format!("\n{faster}\n")
    },
    claims: &[
        Claim {
            name: "beats_thin_client",
            says: "\"'thin client' models … can suffer from high and variable delays\": Cloud4Home finishes first",
            holds: |b| b.cloud4home.secs < b.all_cloud.secs,
        },
        Claim {
            name: "completes_everything",
            says: "Cloud4Home completes the whole workload",
            holds: |b| b.cloud4home.failed == 0,
        },
        Claim {
            name: "end_point_fails_archive",
            says: "end-point solutions \"cannot take advantage of the large storage … present in large scale datacenters\": an archive store fails",
            holds: |b| b.all_home.failed > 0,
        },
    ],
};

// Beyond the paper: the mechanism studies EXPERIMENTS.md reports under
// "Ablations", each with the directional sentence it states there.

/// One cache setting of the path-caching study: the capacity, the mean DHT
/// time (ms) over the repeated lookups and the hits the caches served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheRow {
    pub capacity: usize,
    pub dht_ms: f64,
    pub hits: u64,
}

/// 32 nodes with leaf sets of 2, so lookups take several prefix hops:
/// 8 objects stored from one node, then 4 rounds of the same 8 client →
/// object lookups. A reply caches at the intermediate hops of its path, so
/// later rounds can stop short.
fn path_caching(seed: u64, salt: u64) -> [CacheRow; 2] {
    [0, 128].map(|capacity| {
        let mut config = testbed(seed, salt);
        config.chimera.cache_capacity = capacity;
        config.chimera.leaf_size = 2;
        config.nodes = (0..31)
            .map(|i| NodeSpec::netbook(&format!("wide-{i}")))
            .collect();
        let desktop = NodeSpec::desktop("wide-desktop").with_services(&[ServiceKind::Transcode]);
        config.nodes.push(desktop);
        let mut home = Cloud4Home::new(config);
        for i in 0..8u64 {
            let obj = Object::synthetic(&format!("abl/c{i}"), i, 128 << 10, "doc");
            let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
            home.run_until_complete(op).expect_ok();
        }
        let mut dht_ms = Vec::new();
        for _round in 0..4 {
            for i in 0..8u64 {
                let client = NodeId(((i as usize) * 2 + 1) % 32);
                let op = home.fetch_object(client, &format!("abl/c{i}"));
                let r = home.run_until_complete(op);
                r.expect_ok();
                dht_ms.push(ms(r.breakdown.dht));
            }
        }
        CacheRow {
            capacity,
            dht_ms: mean_std(&dht_ms).0,
            hits: home.cache_stats().0,
        }
    })
}

/// The path-caching study's claim.
pub const PATH_CACHING: Experiment<[CacheRow; 2]> = Experiment {
    name: "path_caching",
    run: |salt| path_caching(COMMITTED.path_caching, salt),
    table: |rows| {
        let lines = rows.map(|r| format!("{} | {:.1} | {}", r.capacity, r.dht_ms, r.hits));
        md_table("cache capacity | mean DHT (ms) | cache hits", lines)
    },
    claims: &[Claim {
        name: "path_caching_lowers_dht",
        says: "mean DHT access falls with path caches on",
        holds: |[off, on]| on.dht_ms < off.dht_ms,
    }],
};

/// How many of `names` a fetch from netbook-2 still finds.
fn fetchable(home: &mut Cloud4Home, names: impl Iterator<Item = String>) -> usize {
    let found = |name: &String| {
        let op = home.fetch_object(NodeId(2), name);
        home.run_until_complete(op).outcome.is_ok()
    };
    names.filter(found).count()
}

/// Objects each replication study stores.
pub const STUDY_OBJECTS: usize = 18;

/// DHT record replication 0, 1 and 2 against one node's crash, each factor
/// on `seed + factor`: of [`STUDY_OBJECTS`] objects stored from netbook-1,
/// how many still resolve 12 s after netbook-4 crashes, by factor.
fn metadata_replication(seed: u64, salt: u64) -> [usize; 3] {
    [0, 1, 2].map(|factor| {
        let mut config = testbed(seed + factor as u64, salt);
        config.chimera.replication = factor;
        let mut home = Cloud4Home::new(config);
        let name = |i| format!("abl/r{i}");
        for i in 0..STUDY_OBJECTS {
            let obj = Object::synthetic(&name(i), i as u64, 64 << 10, "doc");
            let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
            home.run_until_complete(op).expect_ok();
        }
        home.crash_node(NodeId(4));
        home.run_for(Duration::from_secs(12));
        fetchable(&mut home, (0..STUDY_OBJECTS).map(name))
    })
}

/// The metadata replication study's claim.
pub const METADATA_REPLICATION: Experiment<[usize; 3]> = Experiment {
    name: "metadata_replication",
    run: |salt| metadata_replication(COMMITTED.metadata_replication, salt),
    table: |resolved| {
        let lines = resolved.iter().enumerate();
        let lines = lines.map(|(factor, n)| format!("{factor} | {n} / {STUDY_OBJECTS}"));
        md_table("record replication | objects still resolvable", lines)
    },
    claims: &[Claim {
        name: "replication_2_resolves_all",
        says: "with records replicated twice, all 18 objects stay resolvable after a crash",
        holds: |resolved| resolved[2] == STUDY_OBJECTS,
    }],
};

/// One decision policy on a batch of 6 transcodes: the mean latency (s)
/// and how many ran on the desktop and on a (battery-powered) netbook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyRow {
    pub policy: RoutePolicy,
    pub mean_s: f64,
    pub on_desktop: usize,
    pub on_netbook: usize,
}

/// Each policy routes 6 conversions of 2 MiB videos from netbook-3, with
/// transcoding offered by netbooks 0 and 1 and the desktop.
fn route_policies(seed: u64, salt: u64) -> [PolicyRow; 3] {
    let policies = [
        RoutePolicy::Performance,
        RoutePolicy::Balanced,
        RoutePolicy::BatterySaver,
    ];
    policies.map(|policy| {
        let mut config = testbed(seed, salt);
        config.nodes[0].services = vec![ServiceKind::Transcode];
        config.nodes[1].services = vec![ServiceKind::Transcode];
        let mut home = Cloud4Home::new(config);
        let (mut totals, mut on_desktop, mut on_netbook) = (Vec::new(), 0, 0);
        for i in 0..6u64 {
            let name = format!("abl/p{i}.avi");
            let obj = Object::synthetic(&name, i, 2 << 20, "avi");
            let op = home.store_object(NodeId(3), obj, StorePolicy::ForceHome, true);
            home.run_until_complete(op).expect_ok();
            let op = home.process_object(NodeId(3), &name, ServiceKind::Transcode, policy);
            let r = home.run_until_complete(op);
            let target = r.expect_ok().exec_target.as_deref().unwrap_or_default();
            on_desktop += usize::from(target == "desktop");
            on_netbook += usize::from(target.starts_with("netbook"));
            totals.push(r.total().as_secs_f64());
        }
        PolicyRow {
            policy,
            mean_s: mean_std(&totals).0,
            on_desktop,
            on_netbook,
        }
    })
}

/// The decision policy study's claim.
pub const ROUTE_POLICIES: Experiment<[PolicyRow; 3]> = Experiment {
    name: "route_policies",
    run: |salt| route_policies(COMMITTED.route_policies, salt),
    table: |rows| {
        let lines = rows.map(|r| {
            let (policy, mean) = (r.policy, r.mean_s);
            format!("`{policy:?}` | {mean:.2} | {} / 6 | {} / 6", r.on_desktop, r.on_netbook)
        });
        let cost = (rows[1].mean_s / rows[0].mean_s - 1.0) * 100.0;
        let cost = format!("`Balanced` costs {cost:.0} % more mean latency than `Performance`.");
        let head = "policy | mean (s) | on the desktop | on a netbook";
        md_table(head, lines) + &format!("\n{cost}\n")
    },
    claims: &[
        Claim {
            name: "policies_route_as_named",
            says: "performance and battery-saver pick the desktop; balanced spreads work onto the netbooks",
            holds: |[performance, balanced, battery]| {
                performance.on_desktop == 6 && battery.on_desktop == 6 && balanced.on_netbook > 0
            },
        },
    ],
};

/// The mean latency (ms) of five 1 MiB home stores that wait for the
/// acknowledgement and of five that do not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingRow {
    pub blocking_ms: f64,
    pub non_blocking_ms: f64,
}

/// Blocking and non-blocking stores from netbook-0, alternating.
fn blocking_stores(seed: u64, salt: u64) -> BlockingRow {
    let mut home = Cloud4Home::new(testbed(seed, salt));
    let (mut blocking, mut non_blocking) = (Vec::new(), Vec::new());
    for i in 0..5u64 {
        for (col, tag, content, wait) in [
            (&mut blocking, "b", i, true),
            (&mut non_blocking, "nb", i + 100, false),
        ] {
            let obj = Object::synthetic(&format!("abl/{tag}{i}"), content, 1 << 20, "doc");
            let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, wait);
            col.push(ms(home.run_until_complete(op).total()));
        }
    }
    BlockingRow {
        blocking_ms: mean_std(&blocking).0,
        non_blocking_ms: mean_std(&non_blocking).0,
    }
}

/// The blocking store study's claim.
pub const BLOCKING_STORES: Experiment<BlockingRow> = Experiment {
    name: "blocking_stores",
    run: |salt| blocking_stores(COMMITTED.blocking_stores, salt),
    table: |r| {
        let (blocking, non_blocking) = (r.blocking_ms, r.non_blocking_ms);
        let lines = [
            format!("blocking | {blocking:.1}"),
            format!("non-blocking | {non_blocking:.1}"),
        ];
        let ack = format!(
            "The acknowledgement costs {:.1} ms.",
            blocking - non_blocking
        );
        md_table("store | mean (ms)", lines) + &format!("\n{ack}\n")
    },
    claims: &[Claim {
        name: "blocking_store_costs_more",
        says: "blocking stores \"incur the cost of an additional acknowledgement\"",
        holds: |r| r.blocking_ms > r.non_blocking_ms,
    }],
};

/// Objects the replica failover study stores.
pub const FAILOVER_OBJECTS: usize = 10;

/// One cell of the replica failover study: of [`FAILOVER_OBJECTS`] objects,
/// how many fetched after their owner crashed, with the fetch failovers and
/// background repairs the run made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverRow {
    pub factor: usize,
    pub loss: f64,
    pub fetched: usize,
    pub failovers: u64,
    pub repairs: u64,
}

/// Data replication 1-3 × Gilbert–Elliott loss 0-25 %, each factor on
/// `seed + factor`: stores from netbook-1, which crashes 1 s later, and
/// every object refetched 10 s after that.
fn replica_failover(seed: u64, salt: u64) -> Vec<FailoverRow> {
    let mut rows = Vec::new();
    for factor in [1usize, 2, 3] {
        for loss in [0.0, 0.10, 0.25] {
            let mut config = testbed(seed + factor as u64, salt);
            config.replication = factor;
            let mut home = Cloud4Home::new(config);
            if loss > 0.0 {
                home.apply_fault(FaultEvent::BurstyLoss {
                    mean_loss: loss,
                    mean_burst_len: 8.0,
                });
            }
            let name = |i| format!("abl/x{factor}-{i}");
            for i in 0..FAILOVER_OBJECTS {
                let obj = Object::synthetic(&name(i), i as u64, 256 << 10, "doc");
                let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
                // Under heavy loss a store may fail; `fetched` shows it.
                let _ = home.run_until_complete(op);
            }
            let crash = FaultEvent::Crash(NodeId(1));
            home.inject_faults(FaultPlan::new().at(Duration::from_secs(1), crash));
            home.run_for(Duration::from_secs(10));
            let fetched = fetchable(&mut home, (0..FAILOVER_OBJECTS).map(name));
            let s = home.stats();
            rows.push(FailoverRow {
                factor,
                loss,
                fetched,
                failovers: s.fetch_failovers,
                repairs: s.repairs_completed,
            });
        }
    }
    rows
}

/// The replica failover study's claim.
pub const REPLICA_FAILOVER: Experiment<Vec<FailoverRow>> = Experiment {
    name: "replica_failover",
    run: |salt| replica_failover(COMMITTED.replica_failover, salt),
    table: |rows| {
        let lines = rows.iter().map(|r| {
            let (factor, loss, fetched) = (r.factor, r.loss, r.fetched);
            let (failovers, repairs) = (r.failovers, r.repairs);
            let fetched = format!("{fetched} / {FAILOVER_OBJECTS}");
            format!("{factor} | {loss:.2} | {fetched} | {failovers} | {repairs}")
        });
        md_table("replication | mean loss | fetched | failovers | repairs", lines)
    },
    claims: &[
        Claim {
            name: "replica_survives_owner",
            says: "replication 1 loses every object with its owner; replication 2 serves all of them at zero loss",
            holds: |rows| {
                let fetched = |f| rows.iter().find(|r| r.factor == f && r.loss == 0.0).map(|r| r.fetched);
                fetched(1) == Some(0) && fetched(2) == Some(FAILOVER_OBJECTS)
            },
        },
    ],
};

// Beyond the paper: the data-path and plane studies EXPERIMENTS.md reports
// in their own sections, each claim a gate its bench asserted or a
// sentence its section states.

/// Deployments each fan-out and striped-fetch point averages over.
pub const TRIALS: u64 = 5;

/// Object copies held across all nodes.
fn copies(home: &Cloud4Home) -> usize {
    (0..home.node_count())
        .map(|j| home.objects_on(NodeId(j)))
        .sum()
}

/// One replication factor of the fan-out sweep: the mean latency (ms) of a
/// 4 MiB home store with every copy in the foreground and with a write
/// quorum of one, and whether every copy of every store landed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanoutRow {
    pub replication: usize,
    pub all_copies_ms: f64,
    pub quorum1_ms: f64,
    pub landed: bool,
}

/// An 8 MiB WAN upload in chunks of `chunk_bytes` (0: one flow): its
/// latency (ms) and the chunked transfers it made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UploadRow {
    pub chunk_bytes: u64,
    pub ms: f64,
    pub chunked: u64,
}

/// The fan-out sweep: replication 1–4, and the WAN upload in one flow and
/// in 1 and 4 MiB chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct Fanout {
    pub rows: Vec<FanoutRow>,
    pub uploads: Vec<UploadRow>,
}

/// The mean latency (ms) of a 4 MiB home store from netbook-1 over
/// [`TRIALS`] deployments, trial `t` on `seed + t`, and whether every copy
/// landed once the stragglers drained.
fn store_latency(seed: u64, salt: u64, replication: usize, quorum: usize) -> (f64, bool) {
    let (mut samples, mut landed) = (Vec::new(), true);
    for t in 0..TRIALS {
        let mut config = testbed(seed + t, salt);
        config.replication = replication;
        config.replica_quorum = quorum;
        let mut home = Cloud4Home::new(config);
        let obj = Object::synthetic(&format!("sweep/{t}.bin"), t, 4 << 20, "doc");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
        let r = home.run_until_complete(op);
        r.expect_ok();
        samples.push(ms(r.total()));
        home.run_until_idle();
        landed &= copies(&home) == replication;
    }
    (mean_std(&samples).0, landed)
}

fn fanout_sweep(seed: u64, salt: u64) -> Fanout {
    let rows = (1..=4)
        .map(|replication| {
            let (all_copies_ms, all_landed) = store_latency(seed, salt, replication, 0);
            let (quorum1_ms, quorum1_landed) = store_latency(seed, salt, replication, 1);
            FanoutRow {
                replication,
                all_copies_ms,
                quorum1_ms,
                landed: all_landed && quorum1_landed,
            }
        })
        .collect();
    let uploads = [0, 1 << 20, 4 << 20]
        .map(|chunk_bytes| {
            let mut config = testbed(seed + 100, salt);
            config.chunk_bytes = chunk_bytes;
            let mut home = Cloud4Home::new(config);
            let obj = Object::synthetic("sweep/wan.bin", 7, 8 << 20, "doc");
            let op = home.store_object(NodeId(1), obj, StorePolicy::ForceCloud, true);
            let r = home.run_until_complete(op);
            r.expect_ok();
            let chunked = home.stats().chunked_transfers;
            UploadRow {
                chunk_bytes,
                ms: ms(r.total()),
                chunked,
            }
        })
        .into();
    Fanout { rows, uploads }
}

/// The fan-out sweep's claims.
pub const FANOUT_SWEEP: Experiment<Fanout> = Experiment {
    name: "fanout_sweep",
    run: |salt| fanout_sweep(COMMITTED.fanout_sweep, salt),
    table: |f| {
        let base = f.rows[0].all_copies_ms;
        let lines = f.rows.iter().map(|r| {
            let (all, q1) = (r.all_copies_ms, r.quorum1_ms);
            format!("{} | {all:.1} | {q1:.1} | {:.2} | {}", r.replication, q1 / base, r.landed)
        });
        let head = "replication | all copies (ms) | quorum=1 (ms) | quorum=1 / unreplicated | \
                    every copy landed";
        let uploads = f.uploads.iter().map(|u| {
            let label = match u.chunk_bytes {
                0 => "monolithic".to_owned(),
                bytes => format!("{} MiB chunks", bytes >> 20),
            };
            format!("{label} | {:.1} | {}", u.ms, u.chunked)
        });
        let head2 = "8 MiB WAN upload | latency (ms) | chunked transfers";
        md_table(head, lines) + "\n" + &md_table(head2, uploads)
    },
    claims: &[
        Claim {
            name: "fanout_within_1_5x",
            says: "at quorum=1 the fan-out is entirely background: a rep=4 store stays within 1.5× of an unreplicated one",
            holds: |f| f.rows[3].quorum1_ms <= 1.5 * f.rows[0].all_copies_ms,
        },
        Claim {
            name: "every_replica_lands",
            says: "whatever completed early still replicates fully: every copy of every store lands",
            holds: |f| f.rows.iter().all(|r| r.landed),
        },
        Claim {
            name: "foreground_tracks_bytes",
            says: "with all copies foreground, latency tracks the extra bytes the shared LAN must carry: it grows with every copy",
            holds: |f| f.rows.windows(2).all(|w| w[1].all_copies_ms > w[0].all_copies_ms),
        },
        Claim {
            name: "chunked_wan_beats_monolithic",
            says: "windowed chunks overlap their slow-starts: a chunked WAN upload beats a monolithic one",
            holds: |f| {
                let (mono, chunked) = f.uploads.split_first().expect("a monolithic upload");
                mono.chunk_bytes == 0 && chunked.iter().all(|u| u.ms < mono.ms)
            },
        },
    ],
};

/// One object of the striped-fetch sweep, on the home LAN (one replica
/// holder per stripe) or in the cloud (parallel S3 range reads): the mean
/// latency (ms) of a fetch in k = 1, 2, 3 stripes over [`TRIALS`]
/// deployments, the striped fetches each k made, and whether every fetch
/// delivered every byte, from the cloud exactly when the object lives there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripeRow {
    pub cloud: bool,
    pub mb: u64,
    pub k_ms: [f64; 3],
    pub striped: [u64; 3],
    pub whole: bool,
}

/// A 48 MiB home fetch in 2 stripes from 3 holders at hedging threshold
/// `hedge`: its latency (ms) and the hedges it fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeRow {
    pub hedge: f64,
    pub fetch_ms: f64,
    pub hedged: u64,
}

/// The striped-fetch sweep: 4, 16 and 64 MiB on the LAN, 2, 4 and 8 MiB in
/// the cloud, then the hedged tail requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Striping {
    pub rows: Vec<StripeRow>,
    pub hedges: Vec<HedgeRow>,
}

/// Stores `obj` from netbook-1, in the cloud when `cloud`, lets its
/// replicas land, and fetches it from a node that holds no copy. Returns
/// the fetch's latency (ms), whether it delivered every byte from the cloud
/// exactly when `cloud`, and the run's counters.
fn fetch_from_non_holder(config: Config, obj: Object, cloud: bool) -> (f64, bool, RunStats) {
    let (name, bytes) = (obj.name.as_str(), obj.size_bytes());
    let policy = if cloud {
        StorePolicy::ForceCloud
    } else {
        StorePolicy::ForceHome
    };
    let mut home = Cloud4Home::new(config);
    let op = home.store_object(NodeId(1), obj, policy, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
    let client = (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.objects_on(id) == 0)
        .expect("a non-holding client");
    let op = home.fetch_object(client, name);
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    let whole = out.bytes == bytes && out.via_cloud == cloud;
    (ms(r.total()), whole, home.stats())
}

fn stripe_row(seed: u64, salt: u64, cloud: bool, mb: u64) -> StripeRow {
    let mut row = StripeRow {
        cloud,
        mb,
        k_ms: [0.0; 3],
        striped: [0; 3],
        whole: true,
    };
    for k in 1..=3 {
        let mut samples = Vec::new();
        for t in 0..TRIALS {
            let mut config = testbed(seed + t, salt);
            config.replication = if cloud { 1 } else { k };
            config.fetch_sources = k;
            config.fetch_hedge = 0.0;
            let obj = Object::synthetic(&format!("stripe/{t}.bin"), t, mb << 20, "doc");
            let (latency, whole, stats) = fetch_from_non_holder(config, obj, cloud);
            samples.push(latency);
            row.whole &= whole;
            row.striped[k - 1] += stats.striped_fetches;
        }
        row.k_ms[k - 1] = mean_std(&samples).0;
    }
    row
}

fn fetch_stripe(seed: u64, salt: u64) -> Striping {
    let lan = [4, 16, 64].map(|mb| stripe_row(seed, salt, false, mb));
    let wan = [2, 4, 8].map(|mb| stripe_row(seed, salt, true, mb));
    let hedges = [0.0, 0.5, 0.01]
        .map(|hedge| {
            let mut config = testbed(seed, salt);
            config.replication = 3;
            config.fetch_sources = 2;
            config.fetch_hedge = hedge;
            let obj = Object::synthetic("stripe/hedge.bin", 1, 48 << 20, "doc");
            let (fetch_ms, _, stats) = fetch_from_non_holder(config, obj, false);
            let hedged = stats.hedged_fetches;
            HedgeRow {
                hedge,
                fetch_ms,
                hedged,
            }
        })
        .into();
    let rows = lan.into_iter().chain(wan).collect();
    Striping { rows, hedges }
}

/// The striped-fetch sweep's claims.
pub const FETCH_STRIPE: Experiment<Striping> = Experiment {
    name: "fetch_stripe",
    run: |salt| fetch_stripe(COMMITTED.fetch_stripe, salt),
    table: |s| {
        let lines = s.rows.iter().map(|r| {
            let ([k1, k2, k3], [n1, n2, n3]) = (r.k_ms, r.striped);
            let segment = if r.cloud { "WAN cloud" } else { "home LAN" };
            let counts = format!("{n1} / {n2} / {n3}");
            let (mb, ratio, whole) = (r.mb, k3 / k1, r.whole);
            let ks = format!("{k1:.1} | {k2:.1} | {k3:.1}");
            format!("{segment} {mb} MiB | {ks} | {ratio:.2} | {counts} | {whole}")
        });
        let head = "fetch | k=1 (ms) | k=2 (ms) | k=3 (ms) | k=3 / k=1 | \
                    striped (k=1 / 2 / 3) | every byte";
        let hedges = s.hedges.iter().map(|h| {
            let label = match h.hedge {
                0.0 => "hedging off".to_owned(),
                hedge => format!("hedge={hedge}"),
            };
            format!("{label} | {:.1} | {}", h.fetch_ms, h.hedged)
        });
        let head2 = "48 MiB home fetch, k=2 of 3 holders | latency (ms) | hedges fired";
        md_table(head, lines) + "\n" + &md_table(head2, hedges)
    },
    claims: &[
        Claim {
            name: "wan_striping_beats_single_flow",
            says: "the WAN downlink fits ~3.7 per-flow TCP streams: 3 range reads of a cloud object take under 0.55× of one flow at every size",
            holds: |s| s.rows.iter().filter(|r| r.cloud).all(|r| r.k_ms[2] < 0.55 * r.k_ms[0]),
        },
        Claim {
            name: "stripes_exactly_when_sources_allow",
            says: "a fetch stripes exactly when it may use more than one source, and delivers every byte, from the cloud exactly when the object lives there",
            holds: |s| s.rows.iter().all(|r| r.whole && r.striped == [0, TRIALS, TRIALS]),
        },
        Claim {
            name: "wan_reads_scale_with_stripes",
            says: "on the WAN parallel range reads scale until the segment saturates near k=4: each stripe added is faster",
            holds: |s| {
                let faster = |r: &StripeRow| r.k_ms[2] < r.k_ms[1] && r.k_ms[1] < r.k_ms[0];
                s.rows.iter().filter(|r| r.cloud).all(faster)
            },
        },
        Claim {
            name: "lan_two_stripes_fill_the_wire",
            says: "on the LAN two stripes already fill the wire and k=3 adds little: k=2 beats one flow, and the third stripe saves less than the second",
            holds: |s| {
                let capped = |r: &StripeRow| {
                    let [k1, k2, k3] = r.k_ms;
                    k2 < k1 && k2 - k3 < k1 - k2
                };
                s.rows.iter().filter(|r| !r.cloud).all(capped)
            },
        },
        Claim {
            name: "hedges_fire_latency_neutral",
            says: "hedged tail requests fire on the tail stripe and lose the race on a healthy LAN: latency-neutral, the same with and without hedging",
            holds: |s| {
                let unhedged = s.hedges[0];
                let fired = s.hedges.iter().any(|h| h.hedged > 0);
                fired && s.hedges.iter().all(|h| h.fetch_ms == unhedged.fetch_ms)
            },
        },
    ],
};

/// The capacity frontier's fetch objective (ms).
const FETCH_SLO_MS: u64 = 2_000;

/// The capacity frontier's store objective (ms).
const STORE_SLO_MS: u64 = 4_000;

/// The capacity frontier's offered rates (op/s). The 60/40 fetch/store mix
/// puts ~45 % of offered bytes on the shared LAN (stores land on the
/// client's own disk; a quarter of fetches are local), so the ~12 MB/s
/// segment saturates near 100 op/s, and the top rate sits well past that to
/// build a queue worth shedding.
const OFFERED_HZ: [u32; 5] = [10, 25, 50, 100, 200];

/// One run of the capacity frontier: arrivals admitted and shed, the
/// admitted fetches' p99 (ms), and goodput — ok completions within their
/// objective per virtual second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Load {
    pub admitted: usize,
    pub shed: usize,
    pub fetch_p99_ms: f64,
    pub goodput_hz: f64,
}

/// One offered rate (op/s) of the capacity frontier, with the overload
/// plane off and on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierRow {
    pub offered_hz: u32,
    pub off: Load,
    pub on: Load,
}

/// The sample at the 99th percentile (nearest rank, rounded down), or 0 for
/// no samples.
fn p99(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples
        .get(samples.len().saturating_sub(1) * 99 / 100)
        .copied()
        .unwrap_or(0.0)
}

/// 10 s of open-loop Poisson arrivals at `offered_hz` from 4 tenants, 60/40
/// fetch/store over a pre-stored 12-object catalog of 256 KiB objects, with
/// the overload plane off or on (SLO-driven shedding and per-tenant
/// inflight caps). Every arrival is submitted at its appointed virtual time
/// (open loop: the stream does not slow down for a backlogged system).
fn frontier_run(seed: u64, salt: u64, offered_hz: u32, protected: bool) -> Load {
    let (horizon, tenants, bytes) = (Duration::from_secs(10), 4, 256 << 10);
    let mut config = testbed(seed, salt);
    config.tracing = true;
    config.slo_ms = BTreeMap::from([
        ("fetch".to_owned(), FETCH_SLO_MS),
        ("store".to_owned(), STORE_SLO_MS),
    ]);
    // Track the open-loop surge in near real time (the 30 s default lets
    // pre-surge samples mask a breach for seconds).
    config.health_window_ms = 5_000;
    if protected {
        config.overload.enabled = true;
        config.overload.shed_step_permille = 450;
        config.overload.shed_decay_permille = 10;
        config.overload.shed_max_permille = 950;
        config.overload.tenant_max_inflight = 16;
    }
    let mut home = Cloud4Home::new(config);
    let catalog: Vec<String> = (0..12)
        .map(|i| {
            let name = format!("catalog/obj-{i:03}.bin");
            let obj = Object::synthetic(&name, 10_000 + i as u64, bytes, "doc");
            let op = home.store_object(NodeId(i % tenants), obj, StorePolicy::MandatoryFirst, true);
            home.run_until_complete(op).expect_ok();
            name
        })
        .collect();
    home.run_until_idle();
    let stream = arrivals(
        &OpenLoopConfig::steady(f64::from(offered_hz), horizon, tenants),
        91,
    );
    let start = home.now();
    let mut ids = Vec::with_capacity(stream.len());
    for (n, a) in stream.iter().enumerate() {
        if let Some(gap) = (start + a.at).checked_duration_since(home.now()) {
            home.run_for(gap);
        }
        let client = NodeId(a.tenant);
        ids.push(match a.op {
            OpKind::Store => {
                let name = format!("open/st-{n:05}.bin");
                let obj = Object::synthetic(&name, 50_000 + n as u64, bytes, "doc");
                home.store_object(client, obj, StorePolicy::MandatoryFirst, true)
            }
            OpKind::Fetch => home.fetch_object(client, &catalog[a.object % catalog.len()]),
        });
    }
    home.run_until_idle();
    let (mut shed, mut good, mut fetch_ms) = (0, 0, Vec::new());
    for id in ids {
        let r = home.take_report(id).expect("run drained to idle");
        let ns = r.total().as_nanos() as u64;
        let slo_ms = if r.kind == "fetch" {
            FETCH_SLO_MS
        } else {
            STORE_SLO_MS
        };
        shed += usize::from(matches!(r.outcome, Err(OpError::Overloaded(_))));
        good += usize::from(r.outcome.is_ok() && ns <= slo_ms * 1_000_000);
        if r.kind == "fetch" && r.outcome.is_ok() {
            fetch_ms.push(ns as f64 / 1e6);
        }
    }
    Load {
        admitted: stream.len() - shed,
        shed,
        fetch_p99_ms: p99(fetch_ms),
        goodput_hz: good as f64 / horizon.as_secs_f64(),
    }
}

fn capacity_frontier(seed: u64, salt: u64) -> Vec<FrontierRow> {
    let rows = OFFERED_HZ.map(|offered_hz| FrontierRow {
        offered_hz,
        off: frontier_run(seed, salt, offered_hz, false),
        on: frontier_run(seed, salt, offered_hz, true),
    });
    rows.into()
}

/// The capacity frontier's claims; the last four are about the top rate.
pub const CAPACITY_FRONTIER: Experiment<Vec<FrontierRow>> = Experiment {
    name: "capacity_frontier",
    run: |salt| capacity_frontier(COMMITTED.capacity_frontier, salt),
    table: |rows| {
        let lines = rows.iter().flat_map(|r| {
            [("off", r.off), ("on", r.on)].map(|(plane, p)| {
                let shed_pct = 100.0 * p.shed as f64 / (p.admitted + p.shed).max(1) as f64;
                let (hz, admitted, shed) = (r.offered_hz, p.admitted, p.shed);
                let (p99, goodput) = (p.fetch_p99_ms, p.goodput_hz);
                let load = format!("{admitted} | {shed} | {p99:.1} | {goodput:.1}");
                format!("{hz} | {plane} | {load} | {shed_pct:.1} %")
            })
        });
        let head = "offered/s | plane | admitted | shed | fetch p99 (ms) | goodput/s | shed";
        let top = rows.last().expect("the frontier has rows");
        let over = top.off.fetch_p99_ms / FETCH_SLO_MS as f64;
        let cost = (1.0 - top.on.goodput_hz / top.off.goodput_hz) * 100.0;
        let hz = top.offered_hz;
        let top = format!(
            "At {hz} op/s the unprotected fetch p99 is {over:.1}× its objective; \
             the plane costs {cost:.1} % of goodput."
        );
        md_table(head, lines) + &format!("\n{top}\n")
    },
    claims: &[
        Claim {
            name: "plane_off_never_sheds",
            says: "the plane off never sheds, at any rate",
            holds: |rows| rows.iter().all(|r| r.off.shed == 0),
        },
        Claim {
            name: "plane_invisible_below_saturation",
            says: "below saturation (near 100 op/s) the plane is invisible: identical rows off and on",
            holds: |rows| rows.iter().filter(|r| r.offered_hz < 100).all(|r| r.off == r.on),
        },
        Claim {
            name: "top_load_saturates_unprotected",
            says: "at 2× capacity the unprotected run's admitted fetch p99 blows through its 2 s objective",
            holds: |rows| rows.last().is_some_and(|r| r.off.fetch_p99_ms > FETCH_SLO_MS as f64),
        },
        Claim {
            name: "protected_sheds_at_top_load",
            says: "at the top rate the plane sheds arrivals up front",
            holds: |rows| rows.last().is_some_and(|r| r.on.shed > 0),
        },
        Claim {
            name: "protected_p99_within_slo",
            says: "at the top rate the plane keeps the admitted fetch p99 inside the 2 s objective",
            holds: |rows| rows.last().is_some_and(|r| r.on.fetch_p99_ms <= FETCH_SLO_MS as f64),
        },
        Claim {
            name: "plane_costs_about_5pct_goodput",
            says: "at the top rate the plane costs ~5 % of goodput: less than 10 %",
            holds: |rows| rows.last().is_some_and(|r| r.on.goodput_hz > 0.9 * r.off.goodput_hz),
        },
    ],
};

/// One arm of the adaptive placement study at the end of its cool-down:
/// the catalog's bytes (one copy of each object) and the bytes stored for
/// it, its fetches' mean and p99 latency (ms), the objects held as
/// erasure-coded stripes, and the fewest holder losses any object survives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arm {
    pub label: &'static str,
    pub logical_bytes: u64,
    pub stored_bytes: u64,
    pub fetch_mean_ms: f64,
    pub fetch_p99_ms: f64,
    pub ec_objects: usize,
    pub loss_floor: usize,
}

/// The adaptive placement study's schedule: popularity concentrates on a
/// window of 4 of 24 objects that moves between 4 phases of 240 s, with
/// per-phase reader locality.
pub fn hotset() -> HotsetConfig {
    HotsetConfig::drifting(24, 4, 4, Duration::from_secs(240))
}

/// Stores the catalog of 2 MiB objects (over the 1 MiB erasure-coding
/// threshold), replays the schedule against `config`, then cools down for
/// 300 s so the last phase's hot set shrinks and converts.
fn placement_arm(label: &'static str, mut config: Config, seed: u64) -> Arm {
    let (workload, bytes) = (hotset(), 2 << 20);
    let names: Vec<String> = (0..workload.catalog)
        .map(|i| format!("hotset/obj-{i}.bin"))
        .collect();
    config.anti_entropy_ms = 10_000;
    let mut home = Cloud4Home::new(config);
    for (i, name) in names.iter().enumerate() {
        let obj = Object::synthetic(name, seed + i as u64, bytes, "doc");
        let owner = NodeId(i % workload.clients);
        let op = home.store_object(owner, obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();
    let start = home.now();
    let mut latencies = Vec::new();
    for f in hotset_fetches(&workload, seed) {
        let gap = (start + f.at).checked_duration_since(home.now());
        if let Some(gap) = gap.filter(|gap| !gap.is_zero()) {
            home.run_for(gap);
        }
        let op = home.fetch_object(NodeId(f.client), &names[f.object]);
        let r = home.run_until_complete(op);
        r.expect_ok();
        latencies.push(ms(r.total()));
    }
    home.run_for(Duration::from_secs(300));
    home.run_until_idle();
    let stored_bytes = (0..home.node_count())
        .map(|i| home.stored_bytes(NodeId(i)))
        .sum();
    let ec_objects = names.iter().filter(|n| home.is_erasure_coded(n)).count();
    // A coded object with every row on a distinct live holder survives m
    // losses of its k + m = 3 + 2 rows; a replicated one, all but one copy.
    let survives = |n: &String| match home.is_erasure_coded(n) {
        true => home.stripe_holders(n).len().saturating_sub(3),
        false => home.live_copies(n).saturating_sub(1),
    };
    Arm {
        label,
        logical_bytes: bytes * workload.catalog as u64,
        stored_bytes,
        fetch_mean_ms: mean_std(&latencies).0,
        fetch_p99_ms: p99(latencies),
        ec_objects,
        loss_floor: names.iter().map(survives).min().unwrap_or(0),
    }
}

/// Both arms at equal durability: three full copies of everything, and
/// heat-driven replication with (3, 2) erasure coding.
fn adaptive_placement(seed: u64, salt: u64) -> [Arm; 2] {
    let mut fixed = testbed(seed, salt);
    fixed.replication = 3;
    fixed.replica_quorum = 1;
    let mut adaptive = testbed(seed, salt);
    adaptive.adaptive.enabled = true; // replication stays 1; heat does the rest
    [
        placement_arm("static rep=3", fixed, seed),
        placement_arm("adaptive + EC(3,2)", adaptive, seed),
    ]
}

/// The adaptive placement study's claims.
pub const ADAPTIVE_PLACEMENT: Experiment<[Arm; 2]> = Experiment {
    name: "adaptive_placement",
    run: |salt| adaptive_placement(COMMITTED.adaptive_placement, salt),
    table: |arms| {
        let lines = arms.map(|a| {
            let overhead = a.stored_bytes as f64 / a.logical_bytes as f64;
            let (label, mib) = (a.label, a.stored_bytes >> 20);
            let (mean, p99) = (a.fetch_mean_ms, a.fetch_p99_ms);
            let (ec, floor) = (a.ec_objects, a.loss_floor);
            format!("{label} | {mib} MiB | {overhead:.2}× | {mean:.1} | {p99:.1} | {ec} | {floor}")
        });
        let head = "arm | stored | overhead | fetch mean (ms) | fetch p99 (ms) | EC objects | \
                    loss floor";
        let share = 100.0 * arms[1].stored_bytes as f64 / arms[0].stored_bytes as f64;
        let share = format!("The adaptive arm stores {share:.0} % of the static arm's bytes.");
        md_table(head, lines) + &format!("\n{share}\n")
    },
    claims: &[
        Claim {
            name: "cooldown_erasure_codes_cold_objects",
            says: "at steady state the adaptive arm holds every cold object as (3, 2) stripes",
            holds: |[_, adaptive]| adaptive.ec_objects == hotset().catalog,
        },
        Claim {
            name: "adaptive_beats_static_footprint",
            says: "the adaptive arm stores fewer bytes than three full copies",
            holds: |[fixed, adaptive]| adaptive.stored_bytes < fixed.stored_bytes,
        },
        Claim {
            name: "same_loss_floor_at_1_67x",
            says: "the same 2-loss tolerance as three full copies, at (3 + 2) / 3 = 1.67× the bytes instead of 3×",
            holds: |[fixed, adaptive]| {
                let overhead = adaptive.stored_bytes as f64 / adaptive.logical_bytes as f64;
                fixed.loss_floor >= 2 && adaptive.loss_floor >= 2 && overhead <= 1.67
            },
        },
        Claim {
            name: "adaptive_tail_undercuts_static",
            says: "the latency tail is better, not worse: a decode reads k = 3 stripes in parallel, so the adaptive p99 undercuts the static one",
            holds: |[fixed, adaptive]| adaptive.fetch_p99_ms < fixed.fetch_p99_ms,
        },
        Claim {
            name: "adaptive_mean_competitive",
            says: "full replicas grown next to each phase's reader keep the mean competitive: no higher than the static arm's",
            holds: |[fixed, adaptive]| adaptive.fetch_mean_ms <= fixed.fetch_mean_ms,
        },
    ],
};

/// One row of the overlay scaling study (the paper's future-work item
/// (iii)): a deployment's whole life at `nodes` nodes — the protocol join,
/// 12 stores, then 36 fetches from clients spread over the world. Every
/// column is deterministic; `steps` and `pump_visits` are the simulator's
/// own work, which the count gates time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayRow {
    pub nodes: usize,
    /// The fetches' mean DHT lookup time (ms).
    pub dht_ms: f64,
    /// Mean overlay hops per DHT lookup.
    pub hops: f64,
    /// Overlay envelopes the join delivered.
    pub join_envelopes: u64,
    /// Events the runtime processed, and the nodes `pump` visited for them.
    pub steps: u64,
    pub pump_visits: u64,
}

/// The world sizes of [`OVERLAY_SCALING`], from the paper's six devices to
/// neighbourhood scale; the frozen benchmark's `neighborhood-1k` reports
/// the same lookup hops and join envelopes at 1 000.
pub const OVERLAY_NODES: [usize; 6] = [6, 12, 24, 48, 96, 384];

/// `nodes - 1` netbooks and a transcoding desktop, leaf sets of 2: one row
/// of [`OVERLAY_SCALING`] on salt `salt`.
pub fn overlay_row(nodes: usize, salt: u64) -> OverlayRow {
    let mut config = testbed(COMMITTED.overlay_scaling + nodes as u64, salt);
    config.chimera.leaf_size = 2;
    config.nodes = (0..nodes - 1)
        .map(|i| NodeSpec::netbook(&format!("scale-{i}")))
        .collect();
    let desktop = NodeSpec::desktop("scale-desktop").with_services(&[ServiceKind::Transcode]);
    config.nodes.push(desktop);
    let mut home = Cloud4Home::new(config);
    let join_envelopes = home.stats().envelopes_delivered;
    for i in 0..12u64 {
        let obj = Object::synthetic(&format!("scale/{i}"), i, 128 << 10, "doc");
        let op = home.store_object(
            NodeId(i as usize % nodes),
            obj,
            StorePolicy::ForceHome,
            true,
        );
        home.run_until_complete(op).expect_ok();
    }
    let mut dht_ms = Vec::new();
    for round in 0..3usize {
        for i in 0..12usize {
            let client = NodeId((i * 7 + round * 3 + 1) % nodes);
            let op = home.fetch_object(client, &format!("scale/{i}"));
            let r = home.run_until_complete(op);
            r.expect_ok();
            dht_ms.push(ms(r.breakdown.dht));
        }
    }
    OverlayRow {
        nodes,
        dht_ms: mean_std(&dht_ms).0,
        hops: home.dht_lookup_hops() as f64 / dht_ms.len() as f64,
        join_envelopes,
        steps: home.steps(),
        pump_visits: home.pump_node_visits(),
    }
}

/// The `k` of join envelopes growing as `nᵏ` from the smallest world of
/// `rows` to the largest.
fn join_exponent(rows: &[OverlayRow]) -> f64 {
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    let growth = last.join_envelopes as f64 / first.join_envelopes as f64;
    growth.ln() / (last.nodes as f64 / first.nodes as f64).ln()
}

/// The overlay scaling study's claims.
pub const OVERLAY_SCALING: Experiment<Vec<OverlayRow>> = Experiment {
    name: "overlay_scaling",
    run: |salt| OVERLAY_NODES.map(|n| overlay_row(n, salt)).into(),
    table: |rows| {
        let lines = rows.iter().map(|r| {
            let (dht, hops, envelopes) = (r.dht_ms, r.hops, r.join_envelopes);
            let per_member = envelopes as f64 / r.nodes as f64;
            let visits = r.pump_visits as f64 / r.steps as f64;
            let nodes = r.nodes;
            format!("{nodes} | {dht:.1} | {hops:.2} | {envelopes} | {per_member:.0} | {visits:.2}")
        });
        let head = "nodes | DHT mean (ms) | mean hops | join envelopes | per member | \
                    pump visits per event";
        let k = format!("Join envelopes grow as nᵏ with k = {:.2}.", join_exponent(rows));
        md_table(head, lines) + &format!("\n{k}\n")
    },
    claims: &[
        Claim {
            name: "lookup_hops_grow_logarithmically",
            says: "lookup cost grows logarithmically with membership (prefix routing): mean hops rise with the world, by at most one hop per doubling",
            holds: |rows| {
                rows.windows(2).all(|w| {
                    let rise = w[1].hops - w[0].hops;
                    let doublings = (w[1].nodes / w[0].nodes).ilog2();
                    rise >= 0.0 && rise <= f64::from(doublings)
                })
            },
        },
        Claim {
            name: "join_envelopes_grow_linearly",
            says: "join traffic grows linearly with membership (full-view announcements): from the smallest world to the largest the join envelopes grow as nᵏ with k nearer 1 than ½ or 2, between 0.75 and 1.5",
            holds: |rows| (0.75..1.5).contains(&join_exponent(rows)),
        },
    ],
};
