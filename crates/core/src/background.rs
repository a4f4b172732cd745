//! Background data movement: what keeps objects available on unreliable
//! home nodes once their store has completed.

use std::collections::BTreeMap;
use std::time::Duration;

use c4h_chimera::Key;
use c4h_kvstore::{
    object_key, stripe_checksum, stripe_key, EcLayout, Location, ObjectMeta, Record, StripeRecord,
};
use c4h_resources::Bin;
use c4h_simnet::{FlowId, SimTime, Sym};
use c4h_telemetry::{ArgValue, CauseKind, SpanId};

use crate::ec::ErasureCode;
use crate::object::{Blob, SAMPLE_WINDOW};
use crate::policy::{adaptive_action, AdaptiveAction};
use crate::replicas::{holder_keys, Repair, Review, WorkSet};
use crate::runtime::{Cloud4Home, REPAIR_TRACK_BASE, RUNTIME_TRACK};
use crate::transfers::FlowOwner;

/// A replica transfer that detached from its store after a quorum publish
/// and now completes in the background.
#[derive(Debug, Clone)]
pub(crate) struct FanoutJob {
    /// Object being replicated.
    pub(crate) name: Sym,
    /// Destination node index (the new replica holder).
    pub(crate) dst: usize,
    /// Object size in bytes.
    pub(crate) bytes: u64,
    /// The object's bytes, carried so installation survives the primary
    /// crashing mid-flight.
    pub(crate) blob: Blob,
    /// Open trace span covering the detached transfer.
    pub(crate) span: SpanId,
}

/// A background re-replication transfer in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RepairJob {
    /// Object being re-replicated.
    pub(crate) name: Sym,
    /// Source node index (a surviving holder).
    pub(crate) src: usize,
    /// Destination node index (the new replica).
    pub(crate) dst: usize,
    /// Object size in bytes.
    pub(crate) bytes: u64,
    /// Open trace span covering the repair transfer.
    pub(crate) span: SpanId,
}

/// A full-copy → erasure-coded conversion in flight: the owner encoded the
/// object into `k + m` shards, installed its own row locally, and is
/// shipping the remaining rows to their holders. Full copies are stripped
/// only once every row has landed, so an aborted conversion leaves the
/// object exactly as replicated as before.
#[derive(Debug, Clone)]
pub(crate) struct EcConvert {
    /// The object's home node (source of every stripe transfer).
    pub(crate) owner: usize,
    /// The target layout being installed.
    pub(crate) layout: EcLayout,
    /// Encoded shard bytes in row order (data rows then parity).
    pub(crate) stripes: Vec<Vec<u8>>,
    /// Outstanding stripe transfers: flow → code row.
    pub(crate) pending: BTreeMap<FlowId, u32>,
    /// Rows already installed on their holders.
    pub(crate) installed: Vec<u32>,
}

/// A lost-stripe rebuild in flight: the destination is pulling `k`
/// surviving stripes, and re-derives the lost row from them once all have
/// arrived.
#[derive(Debug, Clone)]
pub(crate) struct EcRepair {
    /// The erasure-coded object being repaired.
    pub(crate) name: Sym,
    /// The lost code row being rebuilt.
    pub(crate) row: u32,
    /// Destination node index (the row's new holder).
    pub(crate) dst: usize,
    /// Outstanding survivor-stripe transfers: flow → survivor row.
    pub(crate) pending: BTreeMap<FlowId, u32>,
    /// Survivor rows whose stripes have arrived.
    pub(crate) arrived: Vec<u32>,
}

impl Cloud4Home {
    /// Closes a repair or detached fan-out transfer's trace span.
    pub(crate) fn end_replica_span(&self, span: SpanId, installed: bool) {
        self.telemetry.end_args(
            span,
            self.now().as_nanos(),
            vec![("installed", ArgValue::from(installed))],
        );
    }

    // ------------------------------------------------------------------
    // Background repair daemon
    // ------------------------------------------------------------------

    /// Reacts to the liveness detector declaring a peer failed: looks the
    /// dead peer up in the holder index and re-replicates every object the
    /// failure left under-replicated. Objects the peer never held are not
    /// visited at all — the scan is proportional to the peer's holdings,
    /// not the deployment's object count.
    pub(crate) fn handle_peer_failed(&mut self, peer: Key) {
        // With the adaptive plane on, even replication=1 deployments hold
        // repairable state (erasure-coded stripes, grown replicas).
        if self.config.replication <= 1 && !self.config.adaptive.enabled {
            return;
        }
        // Several nodes' detectors fire for the same peer; repair once.
        if self.repaired_peers.contains(&peer) {
            return;
        }
        if let Some(j) = self.node_index(peer) {
            if self.nodes[j].alive {
                // False positive (e.g. a healed partition): nothing to do,
                // and a later real failure should still trigger repair.
                return;
            }
        }
        self.repaired_peers.insert(peer);
        let mut names = std::mem::take(&mut self.names_scratch);
        names.clear();
        names.extend(self.replicas.held_by(peer));
        for &name in &names {
            self.maybe_repair(name);
        }
        self.names_scratch = names;
    }

    /// Periodic catch-all for under-replication no peer death will ever
    /// surface: objects whose straggler replica flow failed after a quorum
    /// publish, or whose store placed fewer copies than asked. Visits the
    /// repair suspects at a low cadence, riding the existing tick (no
    /// extra queue events); a suspect found whole leaves the set until an
    /// event that names it. A visit that finds its object whole is a pure
    /// read — no RNG draws, no telemetry — which is why not making it
    /// changes nothing.
    pub(crate) fn anti_entropy_sweep(&mut self, now: SimTime) {
        if self.config.anti_entropy_ms == 0
            || (self.config.replication <= 1 && !self.config.adaptive.enabled)
        {
            return;
        }
        let every = Duration::from_millis(self.config.anti_entropy_ms);
        let mut names = std::mem::take(&mut self.names_scratch);
        if self
            .replicas
            .repair_suspects
            .snapshot_if_due(now, every, &mut names)
        {
            for &name in &names {
                if self.maybe_repair(name) == Repair::Whole {
                    self.replicas.repair_suspects.clear(name);
                }
            }
            let set = &self.replicas.repair_suspects;
            self.assert_unmarked_read(set, Repair::Whole, Self::repair_verdict);
        }
        self.names_scratch = names;
    }

    /// The complement oracle of a periodic pass (debug builds): every
    /// indexed object the pass did *not* look at must read `rest` — the
    /// old walk over the whole index, kept as the check that no mutation
    /// of a verdict's inputs forgot its mark.
    fn assert_unmarked_read<V: PartialEq + std::fmt::Debug>(
        &self,
        set: &WorkSet,
        rest: V,
        verdict: impl Fn(&Self, Sym, &mut Vec<usize>) -> V,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut holders = Vec::new();
        for name in self.replicas.outside(set) {
            let found = verdict(self, name, &mut holders);
            assert!(
                found == rest,
                "pass oracle: {name} is not marked but reads {found:?}, not {rest:?}"
            );
        }
    }

    /// Live nodes the metadata names as holders of a full copy — the home
    /// primary first, then replica order (deterministic) — into `out`.
    pub(crate) fn live_holders_into(&self, meta: &ObjectMeta, out: &mut Vec<usize>) {
        out.clear();
        let primary = match meta.location {
            Location::Home { node } => Some(node),
            _ => None,
        };
        for key in primary.into_iter().chain(meta.replicas.iter().copied()) {
            if let Some(j) = self.node_index(key) {
                if self.nodes[j].alive && !out.contains(&j) {
                    out.push(j);
                }
            }
        }
    }

    /// Whether node `j` is up and has `name`'s code row `row` on disk.
    fn holds_stripe(&self, j: usize, name: Sym, row: u32) -> bool {
        self.nodes[j].alive
            && self.nodes[j]
                .objects
                .contains_key(&self.ec_stripe_name(name, row))
    }

    /// What a repair visit of `name` finds; fills `holders` with the live
    /// full-copy holders unless the object is erasure-coded. Reads only
    /// the metadata, node liveness and stripe presence, so it can change
    /// only through [`ReplicaIndex::insert`] / [`ReplicaIndex::remove`]
    /// and [`Self::set_alive`].
    pub(crate) fn repair_verdict(&self, name: Sym, holders: &mut Vec<usize>) -> Repair {
        let Some(meta) = self.replicas.get(name) else {
            return Repair::Whole;
        };
        if let Some(layout) = &meta.ec {
            let intact = layout.holders.iter().enumerate().all(|(row, &key)| {
                self.node_index(key)
                    .is_some_and(|j| self.holds_stripe(j, name, row as u32))
            });
            return if intact {
                Repair::Whole
            } else {
                Repair::ShortRows
            };
        }
        if !matches!(meta.location, Location::Home { .. }) {
            return Repair::Whole;
        }
        self.live_holders_into(meta, holders);
        // With the adaptive plane on, the daemon defends only the
        // durability floor; copies above it are the heat tracker's call
        // (it grows hot objects back on its own cadence).
        let target = if self.config.adaptive.enabled {
            self.config.adaptive.replication_min
        } else {
            self.config.replication
        };
        // No live holder: every copy is gone; nothing to repair from.
        if holders.is_empty() || holders.len() >= target {
            return Repair::Whole;
        }
        Repair::ShortCopies {
            size: meta.size_bytes,
        }
    }

    /// Re-replicates one object if it has fewer live copies than the
    /// configured replication factor (or rebuilds its lost code rows) and
    /// a viable destination exists. Returns what it found; only the
    /// anti-entropy sweep acts on that.
    pub(crate) fn maybe_repair(&mut self, name: Sym) -> Repair {
        self.replicas.repair_scan_visits += 1;
        let mut holders = std::mem::take(&mut self.holders_scratch);
        let verdict = self.repair_verdict(name, &mut holders);
        match verdict {
            Repair::Whole => {}
            Repair::ShortRows => self.ec_maybe_repair(name),
            Repair::ShortCopies { size } => self.repair_copies(name, &holders, size),
        }
        self.holders_scratch = holders;
        verdict
    }

    /// Starts one replica transfer for an object short of full copies.
    fn repair_copies(&mut self, name: Sym, holders: &[usize], size: u64) {
        if self.flows.replicating(name) {
            return; // a repair or detached store straggler may still land the copy
        }
        let Some(src) = self.best_source(holders) else {
            return; // every live holder's path is tripped; retry later
        };
        // Destination: the roomiest reachable non-holder.
        let dst = self.roomiest_peer(size, |j| {
            !holders.contains(&j) && self.node_reachable(src, j)
        });
        let Some(dst) = dst else {
            return;
        };
        if self.start_replica_flow(name, src, dst, size) {
            self.ledger_bg(CauseKind::RepairTrigger, object_key(name.as_str()).raw(), 0);
        }
    }

    /// Starts one full-copy replica transfer `src` → `dst` for `name`,
    /// shared by the repair daemon and the adaptive grow path. Returns
    /// whether the flow actually started.
    fn start_replica_flow(&mut self, name: Sym, src: usize, dst: usize, size: u64) -> bool {
        // Repairs ride the source node's retry budget: a home cloud deep in
        // failure churn must not amplify itself with unbounded repair
        // traffic.
        if !self.retry_budget_take(src, "repair", name) {
            return false;
        }
        let mut job = RepairJob {
            name,
            src,
            dst,
            bytes: size,
            span: SpanId::NONE,
        };
        let Ok(flow) = self.start_flow(
            FlowOwner::Repair(job),
            self.nodes[src].addr,
            self.nodes[dst].addr,
            size,
            None,
        ) else {
            return false;
        };
        self.stats.repairs_started += 1;
        // The span's track is the flow id, known only now.
        job.span = self.telemetry.begin_args(
            "repair",
            "repair",
            REPAIR_TRACK_BASE + flow.raw(),
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(name.as_str())),
                ("src", ArgValue::from(self.nodes[src].name.as_str())),
                ("dst", ArgValue::from(self.nodes[dst].name.as_str())),
                ("bytes", ArgValue::from(size)),
            ],
        );
        self.flows.reassign(flow, FlowOwner::Repair(job));
        self.ensure_tick();
        true
    }

    /// Installs a completed repair transfer on its destination and
    /// republishes the object's metadata with the new replica set.
    pub(crate) fn finish_repair(&mut self, job: RepairJob) {
        let installed = self.finish_repair_inner(&job);
        self.end_replica_span(job.span, installed);
    }

    /// The installation step of [`Self::finish_repair`]; returns whether
    /// the replica was actually installed.
    fn finish_repair_inner(&mut self, job: &RepairJob) -> bool {
        let Some(meta) = self.replicas.get(job.name).cloned() else {
            return false; // deleted while the repair was in flight
        };
        if !self.nodes[job.dst].alive {
            return false;
        }
        let Some(blob) = self.nodes[job.src].objects.get(&job.name).cloned() else {
            return false; // the source lost the bytes mid-repair
        };
        if !self.nodes[job.dst].install_voluntary(job.name, job.bytes, blob) {
            return false;
        }
        self.stats.replicas_written += 1;
        self.stats.repairs_completed += 1;

        // Refresh the replica set: drop dead holders, add the new one.
        let mut meta = meta;
        let dst_key = self.nodes[job.dst].key;
        meta.replicas.retain(|k| {
            self.node_index(*k)
                .is_some_and(|j| self.nodes[j].alive && j != job.dst)
        });
        if !meta.replicas.contains(&dst_key) && meta.location != (Location::Home { node: dst_key })
        {
            meta.replicas.push(dst_key);
        }
        self.replicas.insert(job.name, meta.clone());

        // Republish the metadata record in the background so future
        // fetches learn the new replica.
        self.publish_meta_background(job.src, meta);
        true
    }

    // ------------------------------------------------------------------
    // Detached store fan-out
    // ------------------------------------------------------------------

    /// Installs a replica whose transfer outlived its store (the store
    /// published at quorum and completed) and republishes the object's
    /// metadata with the grown replica set. An install that falls through
    /// (destination died, bin filled) leaves the object under target with
    /// no peer-failure scan ever the wiser, so the shortfall is handed
    /// straight back to the repair daemon.
    pub(crate) fn finish_background_replica(&mut self, job: FanoutJob) {
        let (name, span) = (job.name, job.span);
        let installed = self.finish_background_replica_inner(job);
        self.end_replica_span(span, installed);
        if !installed {
            self.maybe_repair(name);
        }
    }

    /// Consumes the job so the carried blob moves into the destination's
    /// object file system instead of being cloned.
    fn finish_background_replica_inner(&mut self, job: FanoutJob) -> bool {
        let Some(meta) = self.replicas.get(job.name).cloned() else {
            return false; // deleted while the straggler was in flight
        };
        if !self.nodes[job.dst].alive {
            return false;
        }
        if !self.nodes[job.dst].install_voluntary(job.name, job.bytes, job.blob) {
            return false;
        }
        self.stats.replicas_written += 1;

        let mut meta = meta;
        let dst_key = self.nodes[job.dst].key;
        if !meta.replicas.contains(&dst_key) && meta.location != (Location::Home { node: dst_key })
        {
            meta.replicas.push(dst_key);
        }
        self.replicas.insert(job.name, meta.clone());
        self.publish_meta_background(job.dst, meta);
        true
    }

    // ------------------------------------------------------------------
    // Adaptive placement plane (heat-driven replication + erasure coding)
    // ------------------------------------------------------------------

    /// The periodic heat review, riding the runtime tick like
    /// anti-entropy. Reviews the objects that are due: each once per event
    /// that touches it, then every pass only while it is warm or has
    /// placement work outstanding. A review that settles is a pure read —
    /// no RNG draws, no telemetry — which is why not repeating it changes
    /// nothing.
    pub(crate) fn adaptive_pass(&mut self, now: SimTime) {
        if !self.config.adaptive.enabled {
            return;
        }
        let every = Duration::from_millis(self.config.adaptive.interval_ms.max(1));
        let mut names = std::mem::take(&mut self.names_scratch);
        if self
            .replicas
            .adaptive_due
            .snapshot_if_due(now, every, &mut names)
        {
            for &name in &names {
                self.replicas.adaptive_review_visits += 1;
                if self.adaptive_review(name) == Review::Settled {
                    self.replicas.adaptive_due.clear(name);
                }
            }
            let set = &self.replicas.adaptive_due;
            self.assert_unmarked_read(set, Review::Settled, Self::review_verdict);
        }
        self.names_scratch = names;
    }

    /// What a review of `name` would do; fills `holders` with the live
    /// full-copy holders. Besides the metadata and node liveness (marked
    /// by [`ReplicaIndex::insert`] and [`Self::set_alive`]) it reads the
    /// object's heat, which rises only in `observe_fetch` (marked at its
    /// call site) and otherwise decays: a hold at or below the cold rate
    /// therefore settles, whatever is in flight, while a warmer hold and
    /// anything waiting on a transfer stay due.
    pub(crate) fn review_verdict(&self, name: Sym, holders: &mut Vec<usize>) -> Review {
        let Some(meta) = self.replicas.get(name) else {
            return Review::Settled;
        };
        if meta.ec.is_some() {
            return Review::Settled; // already striped; the rebuild path owns it now
        }
        if !matches!(meta.location, Location::Home { .. }) {
            return Review::Settled;
        }
        self.live_holders_into(meta, holders);
        if holders.is_empty() {
            return Review::Settled;
        }
        let size = meta.size_bytes;
        let cfg = &self.config.adaptive;
        let rate = self.object_heat.rate_per_min(name, self.now().as_nanos());
        let action = adaptive_action(rate, holders.len(), size, cfg);
        if action == AdaptiveAction::Hold {
            return if rate <= cfg.cold_per_min {
                Review::Settled
            } else {
                Review::Stay
            };
        }
        if self.ec_converts.contains_key(&name) || self.flows.replicating(name) {
            return Review::Stay; // let in-flight placement work land first
        }
        Review::Act { action, size }
    }

    /// Reviews one replicated object against its fetch heat: grow toward
    /// recent readers when hot, drop a copy when cold, convert a cold
    /// large object to erasure-coded stripes once it is at the floor.
    /// Returns what it found; only the adaptive pass acts on that.
    fn adaptive_review(&mut self, name: Sym) -> Review {
        let mut holders = std::mem::take(&mut self.holders_scratch);
        let verdict = self.review_verdict(name, &mut holders);
        if let Review::Act { action, size } = verdict {
            if self.ledger.enabled() {
                let kind = match action {
                    AdaptiveAction::Grow => CauseKind::AdaptiveGrow,
                    AdaptiveAction::Shrink => CauseKind::AdaptiveShrink,
                    _ => CauseKind::AdaptiveEncode,
                };
                self.ledger_bg(kind, object_key(name.as_str()).raw(), holders.len() as u64);
                self.telemetry
                    .add(format!("adaptive.action.{}", action.label()), 1);
            }
            match action {
                AdaptiveAction::Grow => self.adaptive_grow(name, &holders, size),
                AdaptiveAction::Shrink => self.adaptive_shrink(name, &holders),
                AdaptiveAction::Erasure => self.ec_begin_convert(name),
                AdaptiveAction::Hold => {}
            }
        }
        self.holders_scratch = holders;
        verdict
    }

    /// The live holder a background copy should be read from: holders
    /// whose path breaker is open are skipped (a read-only check —
    /// background work must not race the half-open probe), then the
    /// highest observed bandwidth class wins. Metadata order breaks ties,
    /// so on a uniform LAN — where every peer shares class 0 — the choice
    /// is the primary.
    fn best_source(&self, holders: &[usize]) -> Option<usize> {
        let now_ns = self.now().as_nanos();
        let mut src: Option<(i64, usize)> = None;
        for &j in holders {
            let addr = self.nodes[j].addr.raw();
            if self.overload.enabled && self.overload.breaker_would_block(addr, now_ns) {
                continue;
            }
            let class = self.peer_bw.class(addr);
            if src.is_none_or(|(best, _)| class > best) {
                src = Some((class, j));
            }
        }
        src.map(|(_, j)| j)
    }

    /// Adds one replica of a hot object, placed at the most recent reader
    /// that doesn't already hold a copy (falling back to the roomiest
    /// peer), sourced like a repair: breaker-open holders skipped, then
    /// the best observed bandwidth class.
    fn adaptive_grow(&mut self, name: Sym, holders: &[usize], size: u64) {
        let Some(src) = self.best_source(holders) else {
            return;
        };
        let eligible = |j: usize| !holders.contains(&j) && self.node_reachable(src, j);
        let reader = self
            .object_heat
            .recent_readers(name)
            .iter()
            .copied()
            .find(|&j| {
                j < self.nodes.len()
                    && self.nodes[j].alive
                    && eligible(j)
                    && self.nodes[j].bins.fits(size, Bin::Voluntary)
            });
        let dst = reader.or_else(|| self.roomiest_peer(size, eligible));
        let Some(dst) = dst else {
            return;
        };
        if self.start_replica_flow(name, src, dst, size) {
            self.telemetry.add("adaptive.grow", 1);
        }
    }

    /// Drops one replica of a cooling object: the last-listed live
    /// non-primary holder that is not a recent reader. With every extra
    /// copy parked at a recent reader the object holds steady instead.
    fn adaptive_shrink(&mut self, name: Sym, holders: &[usize]) {
        let Some(meta) = self.replicas.get(name).cloned() else {
            return;
        };
        let Location::Home { node } = meta.location else {
            return;
        };
        let primary = self.node_index(node);
        let readers = self.object_heat.recent_readers(name).to_vec();
        let victim = holders
            .iter()
            .rev()
            .copied()
            .find(|&j| Some(j) != primary && !readers.contains(&j));
        let Some(victim) = victim else {
            return;
        };
        let victim_key = self.nodes[victim].key;
        self.nodes[victim].evict(name);
        let mut meta = meta;
        meta.replicas.retain(|&k| k != victim_key);
        self.replicas.insert(name, meta.clone());
        let publisher = primary
            .filter(|&j| self.nodes[j].alive)
            .or_else(|| holders.iter().copied().find(|&j| j != victim));
        if let Some(p) = publisher {
            self.publish_meta_background(p, meta);
        }
        self.telemetry.add("adaptive.shrink", 1);
    }

    /// The per-holder object name a code row's stripe is stored under.
    /// Resolved from the names kept since the object's conversion began;
    /// only a name with no conversion on record (a fetch holding metadata
    /// from before a delete) is formatted and interned here.
    pub(crate) fn ec_stripe_name(&self, name: Sym, row: u32) -> Sym {
        let known = self.ec_row_names.get(&name);
        match known.and_then(|rows| rows.get(row as usize)) {
            Some(&sname) => sname,
            None => Sym::new(&format!("{name}.ec{row}")),
        }
    }

    /// Begins converting a cold object from full copies to `(k, m)`
    /// erasure-coded stripes: the owner encodes the content window,
    /// installs its own row locally, and ships each remaining row to a
    /// distinct peer. Full copies survive untouched until every stripe
    /// has landed.
    fn ec_begin_convert(&mut self, name: Sym) {
        let Some(meta) = self.replicas.get(name).cloned() else {
            return;
        };
        let Location::Home { node } = meta.location else {
            return;
        };
        let Some(owner) = self.node_index(node).filter(|&j| self.nodes[j].alive) else {
            return;
        };
        let Some(blob) = self.nodes[owner].objects.get(&name).cloned() else {
            return;
        };
        let k = self.config.adaptive.ec_k;
        let m = self.config.adaptive.ec_m;
        let total = k + m;
        let stripe_len = meta.size_bytes.div_ceil(k as u64).max(1);
        // A full owner cannot install row 0: bail before paying for the
        // encode, or every adaptive pass re-encodes its cold primaries.
        if !self.nodes[owner].bins.fits(stripe_len, Bin::Voluntary) {
            return;
        }
        // Sites: the owner takes row 0; the other rows go to the roomiest
        // live peers that can fit a stripe, one row per distinct node
        // (losing a node must lose at most one row).
        let mut sites = vec![owner; total];
        let found = self.roomiest_peers(stripe_len, &mut sites[1..], |j| {
            j != owner && self.node_reachable(owner, j)
        });
        if found + 1 < total {
            return; // not enough distinct sites; keep the full copies
        }
        let code = ErasureCode::new(k, m);
        let window = blob.sample(SAMPLE_WINDOW);
        let stripes = code.encode(&window);
        let layout = EcLayout {
            k: k as u32,
            m: m as u32,
            stripe_len,
            holders: sites.iter().map(|&j| self.nodes[j].key).collect(),
        };
        let sname0 = self.ec_stripe_name(name, 0);
        if self.nodes[owner]
            .bins
            .store(sname0.as_str(), stripe_len, Bin::Voluntary)
            .is_err()
        {
            return;
        }
        self.nodes[owner]
            .objects
            .insert(sname0, Blob::inline(stripes[0].clone()));
        let mut pending: BTreeMap<FlowId, u32> = BTreeMap::new();
        for (row, &site) in sites.iter().enumerate().skip(1) {
            let (from, to) = (self.nodes[owner].addr, self.nodes[site].addr);
            let Ok(flow) = self.start_flow(FlowOwner::EcConvert(name), from, to, stripe_len, None)
            else {
                for &flow in pending.keys() {
                    self.cancel_flow(flow);
                }
                self.nodes[owner].evict(sname0);
                return;
            };
            pending.insert(flow, row as u32);
        }
        let now = self.now();
        self.telemetry.add("adaptive.ec_converts", 1);
        self.telemetry.instant_args(
            "adaptive",
            "adaptive.ec_convert",
            RUNTIME_TRACK,
            now.as_nanos(),
            vec![
                ("object", ArgValue::from(name.as_str())),
                ("k", ArgValue::from(k as u64)),
                ("m", ArgValue::from(m as u64)),
                ("stripe_len", ArgValue::from(stripe_len)),
            ],
        );
        let row_names: Vec<Sym> = (0..total as u32)
            .map(|r| self.ec_stripe_name(name, r))
            .collect();
        self.ec_row_names.insert(name, row_names);
        self.ec_converts.insert(
            name,
            EcConvert {
                owner,
                layout,
                stripes,
                pending,
                installed: vec![0],
            },
        );
        self.ensure_tick();
    }

    /// One conversion stripe transfer landed: install the row on its
    /// holder, and finalize the conversion once every row is in place.
    /// An install that falls through (holder died, bin filled) aborts the
    /// whole conversion — the full copies are still intact.
    pub(crate) fn ec_convert_flow_done(&mut self, flow: FlowId, name: Sym) {
        let Some(mut conv) = self.ec_converts.remove(&name) else {
            return;
        };
        let Some(row) = conv.pending.remove(&flow) else {
            self.ec_converts.insert(name, conv);
            return;
        };
        let site = self
            .node_index(conv.layout.holders[row as usize])
            .filter(|&j| self.nodes[j].alive);
        let sname = self.ec_stripe_name(name, row);
        let installed = site.is_some_and(|j| {
            self.nodes[j].install_voluntary(
                sname,
                conv.layout.stripe_len,
                Blob::inline(conv.stripes[row as usize].clone()),
            )
        });
        if !installed {
            self.ec_convert_abort(name, conv);
            return;
        }
        conv.installed.push(row);
        if conv.pending.is_empty() {
            self.ec_convert_finalize(name, conv);
        } else {
            self.ec_converts.insert(name, conv);
        }
    }

    /// Abandons a conversion mid-flight: cancels its outstanding stripe
    /// transfers and removes every stripe already installed. The object
    /// keeps its full copies; a later pass may try again.
    pub(crate) fn ec_convert_abort(&mut self, name: Sym, conv: EcConvert) {
        for &flow in conv.pending.keys() {
            self.cancel_flow(flow);
        }
        for &row in &conv.installed {
            if let Some(j) = self.node_index(conv.layout.holders[row as usize]) {
                let sname = self.ec_stripe_name(name, row);
                self.nodes[j].evict(sname);
            }
        }
        self.telemetry.add("adaptive.ec_converts_aborted", 1);
    }

    /// Every stripe landed: cut the object over to its erasure-coded
    /// form. Stages the original for decode verification, strips the full
    /// copies from live holders, rewrites the metadata with the layout,
    /// publishes per-row stripe records, and flushes stale caches.
    fn ec_convert_finalize(&mut self, name: Sym, conv: EcConvert) {
        let Some(meta) = self.replicas.get(name).cloned() else {
            // Deleted mid-conversion; the stripes are orphans — scrub.
            self.ec_convert_abort(name, conv);
            return;
        };
        let Some(blob) = self.nodes[conv.owner].objects.get(&name).cloned() else {
            self.ec_convert_abort(name, conv);
            return;
        };
        self.ec_originals.insert(name, blob);
        // Strip full copies from live holders. A dead holder's disk can't
        // be touched; its stale copy is a harmless orphan (the metadata no
        // longer names it).
        let holder_keys: Vec<Key> = holder_keys(&meta).collect();
        for key in holder_keys {
            if let Some(j) = self.node_index(key) {
                if self.nodes[j].alive {
                    self.nodes[j].evict(name);
                }
            }
        }
        let mut meta = meta;
        meta.replicas.clear();
        meta.ec = Some(conv.layout.clone());
        self.replicas.insert(name, meta.clone());
        self.publish_meta_background(conv.owner, meta);
        // Per-row stripe records, so repair tooling can audit placement
        // and checksums through the overlay.
        for (row, shard) in conv.stripes.iter().enumerate() {
            let record = Record::Stripe(StripeRecord {
                object: name,
                row: row as u32,
                len: conv.layout.stripe_len,
                holder: conv.layout.holders[row],
                checksum: stripe_checksum(shard),
            });
            self.publish_background(conv.owner, stripe_key(name.as_str(), row as u32), record);
        }
        self.invalidate_meta_caches(name);
        // Heat restarts from scratch in the new form; the EWMA of the
        // replicated life says nothing about the striped one.
        self.object_heat.forget(name);
        self.telemetry.add("adaptive.ec_converted", 1);
    }

    /// The repair path for an erasure-coded object with a lost row
    /// ([`Repair::ShortRows`]): rebuild every lost row for which `k`
    /// survivor stripes are still live. Below `k` survivors nothing can be
    /// rebuilt — fetches back off until holders rejoin.
    fn ec_maybe_repair(&mut self, name: Sym) {
        let Some(layout) = self.replicas.get(name).and_then(|m| m.ec.clone()) else {
            return;
        };
        let holder_idx: Vec<Option<usize>> = layout
            .holders
            .iter()
            .map(|&key| self.node_index(key))
            .collect();
        let survivors: Vec<u32> = (0..holder_idx.len() as u32)
            .filter(|&r| holder_idx[r as usize].is_some_and(|j| self.holds_stripe(j, name, r)))
            .collect();
        if survivors.len() < layout.k as usize {
            return; // unrecoverable until holders rejoin
        }
        for row in 0..holder_idx.len() as u32 {
            if survivors.contains(&row) {
                continue;
            }
            if self
                .ec_repairs
                .values()
                .any(|j| j.name == name && j.row == row)
            {
                continue;
            }
            self.ec_start_row_repair(name, &layout, row, &survivors);
        }
    }

    /// Starts rebuilding one lost code row: a destination with space pulls
    /// `k` surviving stripes and re-derives the row from them on arrival.
    fn ec_start_row_repair(&mut self, name: Sym, layout: &EcLayout, row: u32, survivors: &[u32]) {
        let stripe_len = layout.stripe_len;
        let holder_idx: Vec<Option<usize>> = layout
            .holders
            .iter()
            .map(|&key| self.node_index(key))
            .collect();
        let live_holders: Vec<usize> = survivors
            .iter()
            .filter_map(|&r| holder_idx[r as usize])
            .collect();
        let srcs: Vec<(u32, usize)> = survivors
            .iter()
            .filter_map(|&r| holder_idx[r as usize].map(|j| (r, j)))
            .take(layout.k as usize)
            .collect();
        if srcs.len() < layout.k as usize {
            return;
        }
        let holds_any = |s: &Self, j: usize| {
            (0..layout.holders.len() as u32)
                .any(|r| s.nodes[j].objects.contains_key(&s.ec_stripe_name(name, r)))
        };
        let dst = self.roomiest_peer(stripe_len, |j| {
            !live_holders.contains(&j)
                && !holds_any(self, j)
                && srcs.iter().all(|&(_, s)| self.node_reachable(s, j))
        });
        let Some(dst) = dst else {
            return;
        };
        // Rebuilds ride the destination's retry budget (it sinks k
        // concurrent transfers), bounding repair amplification in churn.
        if !self.retry_budget_take(dst, "repair", name) {
            return;
        }
        let id = self.next_ec_repair;
        let mut pending: BTreeMap<FlowId, u32> = BTreeMap::new();
        for &(r, s) in &srcs {
            let (from, to) = (self.nodes[s].addr, self.nodes[dst].addr);
            let Ok(flow) = self.start_flow(FlowOwner::EcRepair(id), from, to, stripe_len, None)
            else {
                for &flow in pending.keys() {
                    self.cancel_flow(flow);
                }
                return;
            };
            pending.insert(flow, r);
        }
        self.next_ec_repair += 1;
        self.stats.repairs_started += 1;
        self.telemetry.add("adaptive.ec_repairs", 1);
        self.ec_repairs.insert(
            id,
            EcRepair {
                name,
                row,
                dst,
                pending,
                arrived: Vec::new(),
            },
        );
        self.ensure_tick();
    }

    /// One survivor stripe arrived at a rebuild destination; re-derive
    /// the lost row once all `k` are in.
    pub(crate) fn ec_repair_flow_done(&mut self, flow: FlowId, id: u64) {
        let Some(mut job) = self.ec_repairs.remove(&id) else {
            return;
        };
        let Some(row) = job.pending.remove(&flow) else {
            self.ec_repairs.insert(id, job);
            return;
        };
        job.arrived.push(row);
        if job.pending.is_empty() {
            self.ec_repair_finish(job);
        } else {
            self.ec_repairs.insert(id, job);
        }
    }

    /// All survivor stripes are in: invert the code to re-derive the lost
    /// row, install it on the destination, re-home the row in the layout,
    /// and republish metadata and the row's stripe record.
    fn ec_repair_finish(&mut self, job: EcRepair) {
        let Some(meta) = self.replicas.get(job.name).cloned() else {
            return; // deleted while the rebuild was in flight
        };
        let Some(mut layout) = meta.ec.clone() else {
            return;
        };
        if !self.nodes[job.dst].alive {
            return;
        }
        let code = ErasureCode::new(layout.k as usize, layout.m as usize);
        let mut shards: Vec<(usize, Vec<u8>)> = Vec::with_capacity(job.arrived.len());
        for &r in &job.arrived {
            let Some(bytes) = self
                .node_index(layout.holders[r as usize])
                .filter(|&j| self.nodes[j].alive)
                .and_then(|j| self.nodes[j].objects.get(&self.ec_stripe_name(job.name, r)))
                .map(|b| b.sample(usize::MAX))
            else {
                return; // a survivor vanished mid-rebuild; retry later
            };
            shards.push((r as usize, bytes));
        }
        let refs: Vec<(usize, &[u8])> = shards.iter().map(|(r, s)| (*r, s.as_slice())).collect();
        let Some(rebuilt) = code.reconstruct_row(job.row as usize, &refs) else {
            return;
        };
        let checksum = stripe_checksum(&rebuilt);
        let sname = self.ec_stripe_name(job.name, job.row);
        if !self.nodes[job.dst].install_voluntary(sname, layout.stripe_len, Blob::inline(rebuilt)) {
            return;
        }
        self.stats.repairs_completed += 1;
        self.telemetry.add("adaptive.ec_rebuilt", 1);
        let dst_key = self.nodes[job.dst].key;
        layout.holders[job.row as usize] = dst_key;
        let mut meta = meta;
        meta.ec = Some(layout.clone());
        self.replicas.insert(job.name, meta.clone());
        self.publish_meta_background(job.dst, meta);
        let record = Record::Stripe(StripeRecord {
            object: job.name,
            row: job.row,
            len: layout.stripe_len,
            holder: dst_key,
            checksum,
        });
        self.publish_background(job.dst, stripe_key(job.name.as_str(), job.row), record);
        self.invalidate_meta_caches(job.name);
    }

    /// Expunges every trace of an object's erasure-coded form: in-flight
    /// conversions and rebuilds, installed stripes, the staged original,
    /// and stale cached metadata. Called when the object is deleted or
    /// re-stored (the new bytes supersede the old stripes).
    pub(crate) fn ec_scrub(&mut self, name: Sym) {
        if let Some(conv) = self.ec_converts.remove(&name) {
            self.ec_convert_abort(name, conv);
        }
        let ids: Vec<u64> = self
            .ec_repairs
            .iter()
            .filter(|(_, j)| j.name == name)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            if let Some(job) = self.ec_repairs.remove(&id) {
                for &flow in job.pending.keys() {
                    self.cancel_flow(flow);
                }
            }
        }
        if let Some(layout) = self.replicas.get(name).and_then(|m| m.ec.clone()) {
            for row in 0..layout.holders.len() as u32 {
                let sname = self.ec_stripe_name(name, row);
                for j in 0..self.nodes.len() {
                    if self.nodes[j].alive {
                        self.nodes[j].evict(sname);
                    }
                }
            }
            self.invalidate_meta_caches(name);
        }
        self.ec_originals.remove(&name);
        self.ec_row_names.remove(&name);
    }
}
