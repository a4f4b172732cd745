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
use crate::runtime::{Cloud4Home, FANOUT_TRACK_BASE, REPAIR_TRACK_BASE, RUNTIME_TRACK};
use crate::transfers::FlowOwner;

/// Identifies one background job; handed out in start order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct JobId(pub(crate) u64);

/// One unit of background data movement: the transfers ("legs") it still
/// waits for, and what their arrival installs. Every job runs the same
/// lifecycle — [`Cloud4Home::start_job`], [`Cloud4Home::job_flow_done`]
/// per leg with a per-kind arrival and finish, or
/// [`Cloud4Home::job_abort`].
#[derive(Debug)]
struct Job {
    /// The object being moved.
    name: Sym,
    /// Legs in flight, flow → part (the code row a stripe leg carries, 0
    /// for a whole copy), in start order and so ascending by flow id.
    pending: Vec<(FlowId, u32)>,
    /// Parts whose leg has arrived: the rows a conversion has installed on
    /// their holders, the survivor rows a rebuild has received.
    landed: Vec<u32>,
    kind: JobKind,
}

/// What a job moves and installs.
#[derive(Debug)]
enum JobKind {
    /// One full copy on its way to node `dst`, under an open `repair` or
    /// `fanout.replica` trace span.
    Copy {
        dst: usize,
        bytes: u64,
        span: SpanId,
        from: CopyFrom,
    },
    /// Full copies → stripes: the owner (holder of row 0) encoded the
    /// object into `stripes` (row order, data then parity), installed its
    /// own row, and ships every other row to its holder. Full copies are
    /// stripped only once every row has landed, so an abort leaves the
    /// object exactly as replicated as before.
    Encode {
        layout: EcLayout,
        stripes: Vec<Vec<u8>>,
    },
    /// A lost code row: `dst` pulls `k` surviving stripes and re-derives
    /// the row once all have arrived.
    Rebuild { row: u32, dst: usize },
}

/// Where a copy's bytes come from, which is also what tells a repair from
/// a store's straggler everywhere else the two differ.
#[derive(Debug)]
enum CopyFrom {
    /// The repair daemon or the adaptive grow path: installs the holder's
    /// blob as of landing, prunes dead holders from the replica set,
    /// republishes from the holder, and counts in `repairs_completed`. A
    /// copy that fails to land waits for the next sweep.
    Holder(usize),
    /// A replica transfer that outlived its store (published at quorum):
    /// installs the blob the store carried, so it survives the primary
    /// dying mid-flight, and republishes from the destination. No
    /// peer-failure scan would ever find its shortfall, so a straggler
    /// that fails to land hands its object straight to the repair daemon.
    Carried(Blob),
}

impl JobKind {
    fn is_copy(&self) -> bool {
        matches!(self, JobKind::Copy { .. })
    }

    /// Whether a job of this kind that cannot finish goes back to the
    /// repair daemon (a conversion does not: its full copies are intact).
    fn requeues(&self) -> bool {
        match self {
            JobKind::Copy { from, .. } => matches!(from, CopyFrom::Carried(_)),
            JobKind::Encode { .. } => false,
            JobKind::Rebuild { .. } => true,
        }
    }
}

/// The jobs in flight, keyed by id. Iterated only for order-free `any`
/// queries and in ascending id.
#[derive(Debug, Default)]
pub(crate) struct Jobs {
    table: BTreeMap<JobId, Job>,
    last_id: u64,
}

impl Jobs {
    fn next_id(&mut self) -> JobId {
        self.last_id += 1;
        JobId(self.last_id)
    }

    fn insert(&mut self, id: JobId, name: Sym, pending: Vec<(FlowId, u32)>, kind: JobKind) {
        let landed = Vec::new();
        let job = Job {
            name,
            pending,
            landed,
            kind,
        };
        self.table.insert(id, job);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Takes `flow` out of job `id`'s legs in flight, yielding its part.
    fn take_leg(&mut self, id: JobId, flow: FlowId) -> Option<u32> {
        let pending = &mut self.table.get_mut(&id)?.pending;
        let at = pending.iter().position(|&(f, _)| f == flow)?;
        Some(pending.remove(at).1)
    }

    /// Records that `part` of job `id` arrived, and takes the job out once
    /// no leg is left in flight.
    fn leg_landed(&mut self, id: JobId, part: u32) -> Option<Job> {
        let job = self.table.get_mut(&id)?;
        if !job.kind.is_copy() {
            job.landed.push(part); // a copy's one leg is the whole job
        }
        if job.pending.is_empty() {
            return self.table.remove(&id);
        }
        None
    }

    /// Whether a full copy of `name` is on its way to a new holder (a
    /// repair, or a store's straggler that may still land). A copy whose
    /// leg was just severed — it waits for the cut to finish before it is
    /// aborted — is on its way nowhere.
    fn copying(&self, name: Sym) -> bool {
        let mut jobs = self.table.values();
        jobs.any(|job| job.name == name && job.kind.is_copy() && !job.pending.is_empty())
    }

    /// Whether any placement work for `name` is in flight.
    fn any(&self, name: Sym) -> bool {
        self.table.values().any(|job| job.name == name)
    }

    /// Whether `name`'s code row `row` is being rebuilt.
    fn rebuilding(&self, name: Sym, row: u32) -> bool {
        let mut jobs = self.table.values();
        jobs.any(|job| {
            job.name == name && matches!(job.kind, JobKind::Rebuild { row: r, .. } if r == row)
        })
    }

    /// The oldest conversion or rebuild of `name`, if any.
    fn striping(&self, name: Sym) -> Option<JobId> {
        let mut jobs = self.table.iter();
        jobs.find_map(|(&id, job)| (job.name == name && !job.kind.is_copy()).then_some(id))
    }

    /// The order in which jobs that lost a leg to one cut are aborted —
    /// observable, because a re-queue can start flows and draw from the
    /// RNG: copies first, as cut (ascending flow id, which is not id order
    /// for a straggler adopted long after its flow started), then
    /// conversions by object name, then rebuilds by id.
    fn abort_rank(&self, id: JobId) -> (u8, Option<Sym>, u64) {
        match self.table.get(&id).map(|job| (&job.kind, job.name)) {
            None | Some((JobKind::Copy { .. }, _)) => (0, None, 0),
            Some((JobKind::Encode { .. }, name)) => (1, Some(name), 0),
            Some((JobKind::Rebuild { .. }, _)) => (2, None, id.0),
        }
    }
}

impl Cloud4Home {
    // ------------------------------------------------------------------
    // The background-job lifecycle
    // ------------------------------------------------------------------

    /// Starts one flow of `bytes` per leg `(src, dst, part)`, all owned by
    /// a fresh job id — every leg or none. The caller enters the job under
    /// the returned id with the returned legs.
    fn start_job(
        &mut self,
        bytes: u64,
        legs: impl IntoIterator<Item = (usize, usize, u32)>,
    ) -> Option<(JobId, Vec<(FlowId, u32)>)> {
        let id = self.jobs.next_id();
        let legs = legs.into_iter();
        let mut pending = Vec::with_capacity(legs.size_hint().0);
        for (src, dst, part) in legs {
            let (from, to) = (self.nodes[src].addr, self.nodes[dst].addr);
            let Ok(flow) = self.start_flow(FlowOwner::Job(id), from, to, bytes, None) else {
                for (flow, _) in pending {
                    self.cancel_flow(flow);
                }
                return None;
            };
            pending.push((flow, part));
        }
        self.ensure_tick();
        Some((id, pending))
    }

    /// Adopts a store's still-running replica transfer as a background
    /// copy: the store published at quorum and no longer waits for it.
    pub(crate) fn detach_straggler(
        &mut self,
        flow: FlowId,
        started: SimTime,
        name: Sym,
        dst: usize,
        blob: Blob,
    ) {
        let bytes = blob.len();
        let span = self.telemetry.begin_args(
            "fanout",
            "fanout.replica",
            FANOUT_TRACK_BASE + flow.raw(),
            started.as_nanos(),
            vec![
                ("object", ArgValue::from(name.as_str())),
                ("dst", ArgValue::from(self.nodes[dst].name.as_str())),
                ("bytes", ArgValue::from(bytes)),
            ],
        );
        let id = self.jobs.next_id();
        let from = CopyFrom::Carried(blob);
        let kind = JobKind::Copy {
            dst,
            bytes,
            span,
            from,
        };
        self.jobs.insert(id, name, vec![(flow, 0)], kind);
        self.flows.reassign(flow, FlowOwner::Job(id));
    }

    /// One leg of job `id` delivered its last byte: per-kind arrival, and
    /// the per-kind finish once no leg is left.
    pub(crate) fn job_flow_done(&mut self, flow: FlowId, id: JobId) {
        let Some(part) = self.jobs.take_leg(id, flow) else {
            return;
        };
        let job = &self.jobs.table[&id];
        // A conversion's row goes onto its holder as it arrives; one that
        // cannot (holder died, bin filled) ends the whole conversion.
        if let JobKind::Encode { layout, stripes } = &job.kind {
            let holder = self.node_index(layout.holders[part as usize]);
            let (sname, len) = (self.ec_stripe_name(job.name, part), layout.stripe_len);
            let shard = Blob::inline(stripes[part as usize].clone());
            let site = holder.filter(|&j| self.nodes[j].alive);
            if !site.is_some_and(|j| self.nodes[j].install_voluntary(sname, len, shard)) {
                return self.job_abort(id, false);
            }
        }
        let Some(job) = self.jobs.leg_landed(id, part) else {
            return;
        };
        // A straggler that does not land (destination died, bin filled)
        // goes straight back to the repair daemon.
        let requeue = job.kind.requeues();
        match job.kind {
            JobKind::Copy {
                dst,
                bytes,
                span,
                from,
            } => {
                let installed = self.copy_install(job.name, dst, bytes, from);
                self.end_replica_span(span, installed);
                if !installed && requeue {
                    self.maybe_repair(job.name);
                }
            }
            JobKind::Encode { layout, stripes } => {
                if !self.encode_finish(job.name, &layout, &stripes) {
                    self.encode_undo(job.name, &layout, &job.landed);
                }
            }
            JobKind::Rebuild { row, dst } => self.rebuild_finish(job.name, row, dst, &job.landed),
        }
    }

    /// A partition or crash cut `flow` from under job `id`. The job is
    /// aborted once the whole cut is made (see [`Jobs::abort_rank`]); what
    /// happens at the cut itself is that the leg is gone and a copy's
    /// trace span closes.
    pub(crate) fn job_leg_severed(&mut self, flow: FlowId, id: JobId) {
        self.jobs.take_leg(id, flow);
        if let Some(JobKind::Copy { span, .. }) = self.jobs.table.get(&id).map(|job| &job.kind) {
            self.end_replica_span(*span, false);
        }
    }

    /// Aborts the jobs that lost a leg to one cut, in abort order.
    pub(crate) fn abort_severed_jobs(&mut self, mut severed: Vec<JobId>) {
        severed.sort_by_key(|&id| self.jobs.abort_rank(id));
        severed.dedup();
        for id in severed {
            self.job_abort(id, true);
        }
    }

    /// Ends a job that cannot finish: cancels the legs still in flight,
    /// undoes what already landed, and — when `requeue` — hands the object
    /// of a kind that re-queues back to the repair daemon (the survivor
    /// set or the reachable destinations may have changed).
    fn job_abort(&mut self, id: JobId, requeue: bool) {
        let Some(job) = self.jobs.table.remove(&id) else {
            return;
        };
        for &(flow, _) in &job.pending {
            self.cancel_flow(flow);
        }
        if let JobKind::Encode { layout, .. } = &job.kind {
            self.encode_undo(job.name, layout, &job.landed);
        }
        if requeue && job.kind.requeues() {
            self.maybe_repair(job.name);
        }
    }

    /// Closes a repair or detached fan-out transfer's trace span.
    fn end_replica_span(&self, span: SpanId, installed: bool) {
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
        if self.jobs.copying(name) {
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
        let Some((id, pending)) = self.start_job(size, [(src, dst, 0)]) else {
            return false;
        };
        self.stats.repairs_started += 1;
        // The span's track is the flow id.
        let span = self.telemetry.begin_args(
            "repair",
            "repair",
            REPAIR_TRACK_BASE + pending[0].0.raw(),
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(name.as_str())),
                ("src", ArgValue::from(self.nodes[src].name.as_str())),
                ("dst", ArgValue::from(self.nodes[dst].name.as_str())),
                ("bytes", ArgValue::from(size)),
            ],
        );
        let from = CopyFrom::Holder(src);
        let kind = JobKind::Copy {
            dst,
            bytes: size,
            span,
            from,
        };
        self.jobs.insert(id, name, pending, kind);
        true
    }

    /// Installs a landed copy on `dst` and republishes the object's
    /// metadata with the new replica set; returns whether it was installed.
    fn copy_install(&mut self, name: Sym, dst: usize, bytes: u64, from: CopyFrom) -> bool {
        let Some(mut meta) = self.replicas.get(name).cloned() else {
            return false; // deleted while the copy was in flight
        };
        if !self.nodes[dst].alive {
            return false;
        }
        let (blob, repaired_from) = match from {
            CopyFrom::Carried(blob) => (blob, None),
            CopyFrom::Holder(src) => {
                let Some(blob) = self.nodes[src].objects.get(&name).cloned() else {
                    return false; // the source lost the bytes mid-repair
                };
                (blob, Some(src))
            }
        };
        if !self.nodes[dst].install_voluntary(name, bytes, blob) {
            return false;
        }
        self.stats.replicas_written += 1;
        let dst_key = self.nodes[dst].key;
        if repaired_from.is_some() {
            self.stats.repairs_completed += 1;
            // Refresh the replica set: drop dead holders.
            meta.replicas.retain(|k| {
                self.node_index(*k)
                    .is_some_and(|j| self.nodes[j].alive && j != dst)
            });
        }
        if !meta.replicas.contains(&dst_key) && meta.location != (Location::Home { node: dst_key })
        {
            meta.replicas.push(dst_key);
        }
        self.replicas.insert(name, meta.clone());
        // Republish in the background so future fetches learn the replica.
        self.publish_meta_background(repaired_from.unwrap_or(dst), meta);
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
        if self.jobs.any(name) {
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
        let row0 = Blob::inline(stripes[0].clone());
        if !self.nodes[owner].install_voluntary(sname0, stripe_len, row0) {
            return;
        }
        let legs = sites.iter().enumerate().skip(1);
        let legs = legs.map(|(row, &site)| (owner, site, row as u32));
        let Some((id, pending)) = self.start_job(stripe_len, legs) else {
            self.nodes[owner].evict(sname0);
            return;
        };
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
        let kind = JobKind::Encode { layout, stripes };
        self.jobs.insert(id, name, pending, kind);
    }

    /// Undoes a conversion that cannot finish: removes the owner's row 0
    /// (installed when the conversion began) and every row that has landed
    /// since — dead holders included. The object keeps its full copies; a
    /// later pass may try again.
    fn encode_undo(&mut self, name: Sym, layout: &EcLayout, landed: &[u32]) {
        for &row in [0].iter().chain(landed) {
            if let Some(j) = self.node_index(layout.holders[row as usize]) {
                let sname = self.ec_stripe_name(name, row);
                self.nodes[j].evict(sname);
            }
        }
        self.telemetry.add("adaptive.ec_converts_aborted", 1);
    }

    /// Every stripe landed: cut the object over to its erasure-coded
    /// form. Stages the original for decode verification, strips the full
    /// copies from live holders, rewrites the metadata with the layout,
    /// publishes per-row stripe records, and flushes stale caches. Returns
    /// `false` (nothing changed) when the object or the owner's copy is
    /// gone.
    fn encode_finish(&mut self, name: Sym, layout: &EcLayout, stripes: &[Vec<u8>]) -> bool {
        let Some(owner) = self.node_index(layout.holders[0]) else {
            return false;
        };
        let Some(mut meta) = self.replicas.get(name).cloned() else {
            return false; // deleted mid-conversion; the stripes are orphans
        };
        let Some(blob) = self.nodes[owner].objects.get(&name).cloned() else {
            return false;
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
        meta.replicas.clear();
        meta.ec = Some(layout.clone());
        self.replicas.insert(name, meta.clone());
        self.publish_meta_background(owner, meta);
        for (row, shard) in stripes.iter().enumerate() {
            self.publish_stripe_record(owner, name, row as u32, layout, stripe_checksum(shard));
        }
        self.invalidate_meta_caches(name);
        // Heat restarts from scratch in the new form; the EWMA of the
        // replicated life says nothing about the striped one.
        self.object_heat.forget(name);
        self.telemetry.add("adaptive.ec_converted", 1);
        true
    }

    /// The repair path for an erasure-coded object with a lost row
    /// ([`Repair::ShortRows`]): rebuild every lost row for which `k`
    /// survivor stripes are still live. Below `k` survivors nothing can be
    /// rebuilt — fetches back off until holders rejoin.
    fn ec_maybe_repair(&mut self, name: Sym) {
        let Some(layout) = self.replicas.get(name).and_then(|m| m.ec.clone()) else {
            return;
        };
        // Rows still on a live holder, with that holder, in row order.
        let rows = layout.holders.iter().enumerate();
        let survivors: Vec<(u32, usize)> = rows
            .filter_map(|(r, &key)| {
                let j = self.node_index(key)?;
                self.holds_stripe(j, name, r as u32)
                    .then_some((r as u32, j))
            })
            .collect();
        if survivors.len() < layout.k as usize {
            return; // unrecoverable until holders rejoin
        }
        for row in 0..layout.holders.len() as u32 {
            let lost = survivors.iter().all(|&(r, _)| r != row);
            if lost && !self.jobs.rebuilding(name, row) {
                self.ec_start_row_repair(name, &layout, row, &survivors);
            }
        }
    }

    /// Starts rebuilding one lost code row: a destination with space pulls
    /// the first `k` surviving stripes and re-derives the row from them on
    /// arrival.
    fn ec_start_row_repair(
        &mut self,
        name: Sym,
        layout: &EcLayout,
        row: u32,
        survivors: &[(u32, usize)],
    ) {
        let stripe_len = layout.stripe_len;
        let srcs = &survivors[..layout.k as usize];
        let holds_any = |s: &Self, j: usize| {
            (0..layout.holders.len() as u32)
                .any(|r| s.nodes[j].objects.contains_key(&s.ec_stripe_name(name, r)))
        };
        // A node with any row of this object (every survivor's holder
        // included) is no destination: losing it must lose one row.
        let dst = self.roomiest_peer(stripe_len, |j| {
            !holds_any(self, j) && srcs.iter().all(|&(_, s)| self.node_reachable(s, j))
        });
        let Some(dst) = dst else {
            return;
        };
        // Rebuilds ride the destination's retry budget (it sinks k
        // concurrent transfers), bounding repair amplification in churn.
        if !self.retry_budget_take(dst, "repair", name) {
            return;
        }
        let legs = srcs.iter().map(|&(r, s)| (s, dst, r));
        let Some((id, pending)) = self.start_job(stripe_len, legs) else {
            return;
        };
        self.stats.repairs_started += 1;
        self.telemetry.add("adaptive.ec_repairs", 1);
        let kind = JobKind::Rebuild { row, dst };
        self.jobs.insert(id, name, pending, kind);
    }

    /// All survivor stripes are in: invert the code to re-derive the lost
    /// row, install it on the destination, re-home the row in the layout,
    /// and republish metadata and the row's stripe record.
    fn rebuild_finish(&mut self, name: Sym, row: u32, dst: usize, arrived: &[u32]) {
        let Some(mut meta) = self.replicas.get(name).cloned() else {
            return; // deleted while the rebuild was in flight
        };
        let Some(mut layout) = meta.ec.clone() else {
            return;
        };
        if !self.nodes[dst].alive {
            return;
        }
        let code = ErasureCode::new(layout.k as usize, layout.m as usize);
        let mut shards: Vec<(usize, Vec<u8>)> = Vec::with_capacity(arrived.len());
        for &r in arrived {
            let Some(bytes) = self
                .node_index(layout.holders[r as usize])
                .filter(|&j| self.nodes[j].alive)
                .and_then(|j| self.nodes[j].objects.get(&self.ec_stripe_name(name, r)))
                .map(|b| b.sample(usize::MAX))
            else {
                return; // a survivor vanished mid-rebuild; retry later
            };
            shards.push((r as usize, bytes));
        }
        let refs: Vec<(usize, &[u8])> = shards.iter().map(|(r, s)| (*r, s.as_slice())).collect();
        let Some(rebuilt) = code.reconstruct_row(row as usize, &refs) else {
            return;
        };
        let checksum = stripe_checksum(&rebuilt);
        let sname = self.ec_stripe_name(name, row);
        if !self.nodes[dst].install_voluntary(sname, layout.stripe_len, Blob::inline(rebuilt)) {
            return;
        }
        self.stats.repairs_completed += 1;
        self.telemetry.add("adaptive.ec_rebuilt", 1);
        let dst_key = self.nodes[dst].key;
        layout.holders[row as usize] = dst_key;
        meta.ec = Some(layout.clone());
        self.replicas.insert(name, meta.clone());
        self.publish_meta_background(dst, meta);
        self.publish_stripe_record(dst, name, row, &layout, checksum);
        self.invalidate_meta_caches(name);
    }

    /// Publishes the record of `name`'s code row `row` from `node`, so
    /// repair tooling can audit placement and checksums through the
    /// overlay.
    fn publish_stripe_record(
        &mut self,
        node: usize,
        name: Sym,
        row: u32,
        layout: &EcLayout,
        checksum: u64,
    ) {
        let record = Record::Stripe(StripeRecord {
            object: name,
            row,
            len: layout.stripe_len,
            holder: layout.holders[row as usize],
            checksum,
        });
        self.publish_background(node, stripe_key(name.as_str(), row), record);
    }

    /// Expunges every trace of an object's erasure-coded form: in-flight
    /// conversions and rebuilds, installed stripes, the staged original,
    /// and stale cached metadata. Called when the object is deleted or
    /// re-stored (the new bytes supersede the old stripes).
    pub(crate) fn ec_scrub(&mut self, name: Sym) {
        while let Some(id) = self.jobs.striping(name) {
            self.job_abort(id, false);
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

#[cfg(test)]
impl Jobs {
    /// Which of the four job flavours each job in flight is: 0 a repair,
    /// 1 a store's straggler, 2 a conversion, 3 a rebuild.
    pub(crate) fn flavours(&self) -> impl Iterator<Item = usize> + '_ {
        self.table.values().map(|job| match &job.kind {
            JobKind::Copy { from, .. } => usize::from(matches!(from, CopyFrom::Carried(_))),
            JobKind::Encode { .. } => 2,
            JobKind::Rebuild { .. } => 3,
        })
    }

    /// The stripe holders, in row order, of the oldest conversion in flight.
    pub(crate) fn converting_onto(&self) -> Option<&[Key]> {
        self.table.values().find_map(|job| match &job.kind {
            JobKind::Encode { layout, .. } => Some(layout.holders.as_slice()),
            _ => None,
        })
    }
}
