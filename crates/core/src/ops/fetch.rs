//! The fetch machine (§III-B "fetch"): the command crosses the channel,
//! the object's metadata is looked up, the bytes are pulled from wherever
//! they live, and handed back over the channel.
//!
//! Where the bytes come from is one of six routes: the client's own disk,
//! one remote holder (`fetch.owner_request → fetch.flow_home`), one cloud
//! flow (`fetch.flow_cloud`) — the *single-source* paths — or a *stripe
//! plan*: contiguous stripes pulled concurrently from several holders,
//! parallel range reads of one S3 object, or the `k` code rows of an
//! erasure-coded object. The three plans share one machine
//! ([`StripePlan`]: slots, their control requests, their flows), and what
//! recovers a read is written once for all of them:
//!
//! * [`Cloud4Home::holder_serves`] (and [`Cloud4Home::holder_viable`],
//!   which adds the read-only breaker check) — can this holder serve these
//!   bytes to this client right now;
//! * [`Cloud4Home::note_failover`] — count and trace one redirect;
//! * [`Cloud4Home::fetch_backoff`] — the jittered, capped, budgeted,
//!   ledgered wait before the next attempt, failing as `Timeout` on the
//!   replicated path and `StripesLost` on the coded one;
//! * [`Cloud4Home::reassign_slot`] — re-issue one lost slot; the only
//!   per-plan part is who serves it next (another holder of the object, or
//!   the holder of a spare parity row);
//! * [`split`] — the contiguous split of an object into stripes;
//! * [`Cloud4Home::abandon_stripes`] — drop a plan and every flow it has
//!   in flight.
//!
//! **Deliberately not folded:** the single-source paths stay beside the
//! striped machine instead of becoming a one-slot plan. They carry most
//! fetches, and their stage names (`fetch.owner_request`,
//! `fetch.flow_home`, `fetch.flow_cloud`) are an export format hashed into
//! every golden digest — merging them is a bit-changing change for a
//! deliberate re-bless, not a refactor.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use c4h_chimera::DhtEvent;
use c4h_cloud::{S3Url, REQUEST_LATENCY};
use c4h_kvstore::{object_key, EcLayout, Location, ObjectMeta, Record};
use c4h_simnet::{Addr, FlowId, SimTime, Sym};
use c4h_telemetry::ArgValue;

use super::{Family, OpCore, OpInput, OpKind, RetrySite, Stage, StepOutcome, COMMAND_BYTES};
use crate::config::NodeId;
use crate::ledger::{CauseKind, LEDGER_NONE};
use crate::object::{Blob, CodeRow, SAMPLE_WINDOW};
use crate::report::{OpError, OpId};
use crate::runtime::{Cloud4Home, CLOUD_ADDR, STRIPE_TRACK_BASE};

/// Initial failover backoff; doubles on each subsequent retry round.
const INITIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Ceiling on the exponential fetch-retry backoff, so one doubling can
/// never sleep past the deadline in a single jump.
const MAX_FETCH_BACKOFF: Duration = Duration::from_secs(5);

/// Relative spread of the deterministic jitter applied to each fetch-retry
/// backoff interval.
const BACKOFF_JITTER: f64 = 0.2;

/// Token bit marking a stripe control request as a hedge copy, so a hedge
/// and the original of the same stripe never collide in the plan's
/// requests.
const STRIPE_HEDGE_BIT: u64 = 1 << 32;

/// What a fetch carries beyond the core.
#[derive(Debug)]
pub(super) struct Fetch {
    /// Untried holders of the bytes (node indices), best first.
    candidates: VecDeque<usize>,
    /// The holder the single-source path requests and pulls from.
    peer: usize,
    /// The parsed S3 location a cloud fetch requests, parked between
    /// routing and the request's completion.
    cloud_url: Option<S3Url>,
    /// The bytes, once a source has produced them.
    staged: Option<Blob>,
    /// Current failover backoff; doubles on each retry round.
    backoff: Duration,
    plan: StripePlan,
}

/// A read split into concurrent stripe slots: what is still being asked
/// for, what is on the wire, and who may serve a slot that loses its
/// source. Empty (`total == 0`) while the fetch is on a single-source path.
#[derive(Debug, Default)]
struct StripePlan {
    /// In-flight stripe transfers, by flow. `BTreeMap` so any iteration is
    /// deterministic.
    flows: BTreeMap<FlowId, StripeFlight>,
    /// Outstanding stripe control requests (owner request + disk read in
    /// progress at a holder): sub-task token → request.
    requests: BTreeMap<u64, StripeRequest>,
    /// Ranked holder pool a home-striped read may (re)assign stripes from.
    sources: Vec<usize>,
    /// The code rows a coded read is decoding from (`None` otherwise).
    ec: Option<EcPlan>,
    /// Stripes this fetch was split into, and how many fully arrived.
    total: u32,
    done: u32,
    /// Ledger seq of the hedge launch racing each stripe, so the losing
    /// copy's cancellation links back to the launch that started the race.
    hedge_launches: BTreeMap<u32, u32>,
}

impl StripePlan {
    /// Whether a copy of `slot` is still being asked for or on the wire.
    fn covers(&self, slot: u32) -> bool {
        self.flows.values().any(|f| f.stripe == slot)
            || self.requests.values().any(|r| r.stripe == slot)
    }
}

/// One in-flight stripe transfer of a striped fetch.
#[derive(Debug, Clone, Copy)]
struct StripeFlight {
    /// Stripe index within the object (0-based, contiguous split).
    stripe: u32,
    /// Serving home node index, or `None` for a cloud range read.
    holder: Option<usize>,
    /// Source network address (feeds the per-peer bandwidth table).
    src: Addr,
    /// Byte offset of the stripe within the object.
    offset: u64,
    /// Stripe length in bytes.
    bytes: u64,
    /// When the transfer started (for the retroactive stripe span).
    started: SimTime,
    /// Whether this is the hedged (re-issued) copy of its stripe.
    hedge: bool,
}

/// The decode plan of an erasure-coded fetch: which code rows the `k`
/// stripe slots are reading and who holds each row. Present on an op only
/// while a coded read is in flight; the stripe machinery branches on it.
#[derive(Debug)]
struct EcPlan {
    /// Data shards needed to decode.
    k: u32,
    /// Bytes per stripe (the cost model charges every row this much).
    stripe_len: u64,
    /// Node index holding each code row (`None` = key resolves to no
    /// known node).
    row_holders: Vec<Option<usize>>,
    /// The code row each stripe slot `0..k` is currently reading; a slot
    /// whose row is lost re-points here at a spare parity row.
    slot_rows: Vec<u32>,
}

/// A stripe's control request + holder disk read still in progress.
#[derive(Debug, Clone, Copy)]
struct StripeRequest {
    /// Stripe index within the object.
    stripe: u32,
    /// Home node the request was sent to.
    holder: usize,
    /// Byte offset of the stripe within the object.
    offset: u64,
    /// Stripe length in bytes.
    bytes: u64,
    /// Whether this request is a hedge copy.
    hedge: bool,
}

/// The contiguous split of `size` bytes into `n` stripes, as
/// `(offset, bytes)`: equal stripes, the last one taking the remainder.
fn split(size: u64, n: u64) -> impl Iterator<Item = (u64, u64)> {
    let base = size / n;
    (0..n).map(move |s| {
        let offset = s * base;
        (offset, if s == n - 1 { size - offset } else { base })
    })
}

impl Cloud4Home {
    /// Fetches an object by name to an application on `client`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range or the node is offline.
    pub fn fetch_object(&mut self, client: NodeId, name: &str) -> OpId {
        let fetch = Fetch {
            candidates: VecDeque::new(),
            peer: client.0,
            cloud_url: None,
            staged: None,
            backoff: INITIAL_BACKOFF,
            plan: StripePlan::default(),
        };
        let op = self.new_op(OpKind::Fetch, client, Sym::new(name), Family::Fetch(fetch));
        self.submit(op, COMMAND_BYTES)
    }

    pub(super) fn fetch_step(
        &mut self,
        op: &mut OpCore,
        f: &mut Fetch,
        input: OpInput,
    ) -> StepOutcome {
        // A plan's concurrent branches are routed by what arrived: a
        // stripe's flow completion, a control request's wake (a sub-task
        // token). Wakes for requests that were cancelled find no entry and
        // are inert, as is a stray wake while the stripes flow.
        if op.stage == Stage::FetchStriped {
            return match input {
                OpInput::SubWake { token } => self.stripe_request_done(op, f, token),
                OpInput::FlowDone { flow } => self.stripe_flow_done(op, f, flow),
                _ => None,
            };
        }
        if matches!(input, OpInput::SubWake { .. }) {
            return None;
        }
        match op.stage {
            Stage::FetchChannelIn => {
                self.enter(op, Stage::FetchMetaGet);
                self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                None
            }
            Stage::FetchMetaGet => {
                let meta = match self.take_object_meta(op, input) {
                    Ok(m) => m,
                    Err(e) => return Some(Err(e)),
                };
                self.charge(op);
                self.fetch_route_to_owner(op, f, meta)
            }
            Stage::FetchOwnerRequest => {
                let owner = f.peer;
                // The holder may have crashed or been cut off while the
                // control request was in flight: fail over instead of
                // starting a doomed transfer.
                if !self.nodes[owner].alive || !self.node_reachable(op.client, owner) {
                    let addr = self.nodes[owner].addr;
                    self.breaker_failure(addr);
                    return self.fetch_try_next(op, f, true);
                }
                // Request handled; owner has read the object from disk. The
                // read is charged here, on completion — a holder that died
                // before responding must not leave its read time behind.
                op.breakdown.disk += self.nodes[owner].disk.read_time(op.meta_bytes());
                self.enter(op, Stage::FetchFlowHome);
                let src = self.nodes[owner].addr;
                let dst = self.nodes[op.client].addr;
                self.start_flow_for_op(op.id, src, dst, op.meta_bytes());
                None
            }
            Stage::FetchFlowHome => {
                let owner = f.peer;
                let addr = self.nodes[owner].addr;
                // The completed transfer is a bandwidth observation for
                // this holder (the stage covers exactly the flow).
                let el = self.charge(op);
                self.peer_bw
                    .observe(addr.raw(), op.meta_bytes(), el.as_secs_f64());
                self.breaker_success(addr);
                match self.nodes[owner].objects.get(&op.name) {
                    Some(blob) => {
                        f.staged = Some(blob.clone());
                        self.fetch_channel_out(op)
                    }
                    // The holder dropped the bytes mid-transfer; try the
                    // next replica.
                    None => self.fetch_try_next(op, f, true),
                }
            }
            Stage::FetchRetry => {
                self.charge(op);
                // With the adaptive plane on, the object may have changed
                // shape while this op was backing off (converted to coded
                // stripes, replicas re-placed); the snapshot in `op.meta`
                // — and any cached copy of the record — can be stale, so
                // re-read the authoritative metadata before retrying.
                if self.config.adaptive.enabled {
                    op.stage = Stage::FetchMetaGet;
                    self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                    return None;
                }
                // Re-derive the candidate set: a holder may have rejoined
                // or the partition healed since the last attempt.
                let meta = op.meta.clone().expect("set in FetchMetaGet");
                self.fetch_route_to_owner(op, f, meta)
            }
            Stage::FetchCloudRequest => {
                self.charge(op);
                let url = f
                    .cloud_url
                    .take()
                    .expect("parked when the fetch was routed");
                let cloud = self.cloud.as_ref().expect("cloud fetch requires a cloud");
                match cloud.s3.get(&url) {
                    Ok(obj) => {
                        f.staged = Some(obj.payload.clone());
                        op.via_cloud = true;
                        let src = cloud.addr;
                        let dst = self.nodes[op.client].addr;
                        let bytes = op.meta_bytes();
                        // A WAN flow's TCP cap sits well below the downlink
                        // segment, so parallel range reads of the same S3
                        // object fill the pipe a single flow cannot.
                        let sources = self.config.fetch_sources as u64;
                        if sources >= 2 && bytes >= sources {
                            return self.fetch_begin_cloud_stripes(op, f, src, dst, bytes);
                        }
                        op.stage = Stage::FetchFlowCloud;
                        self.start_flow_for_op(op.id, src, dst, bytes);
                        None
                    }
                    Err(_) => Some(Err(OpError::NotFound(op.name.to_string()))),
                }
            }
            Stage::FetchFlowCloud => {
                self.charge(op);
                self.breaker_success(CLOUD_ADDR);
                self.fetch_channel_out(op)
            }
            Stage::FetchDiskLocal => {
                self.charge(op);
                match self.nodes[op.client].objects.get(&op.name) {
                    Some(blob) => {
                        f.staged = Some(blob.clone());
                        self.fetch_channel_out(op)
                    }
                    None => Some(Err(OpError::NotFound(op.name.to_string()))),
                }
            }
            Stage::FetchChannelOut => {
                self.charge(op);
                Some(Ok(op.bytes_output(op.meta_bytes())))
            }
            // No other family's stage is ever current on a fetch.
            _ => None,
        }
    }

    /// One of the fetch's transfers was severed. A single-source pull fails
    /// over to the next holder; a stripe is re-issued while the rest keep
    /// flowing; cloud reads have no alternate source, so losing one fails
    /// the fetch (and drops the sibling ranges).
    pub(super) fn fetch_severed(
        &mut self,
        op: &mut OpCore,
        f: &mut Fetch,
        flow: FlowId,
        why: &str,
    ) -> StepOutcome {
        match op.stage {
            Stage::FetchFlowHome => {
                self.breaker_failure(self.nodes[f.peer].addr);
                self.fetch_try_next(op, f, true)
            }
            Stage::FetchStriped => {
                let flight = f.plan.flows.remove(&flow)?;
                self.breaker_failure(flight.src);
                self.emit_stripe_span(op, flow, &flight, false);
                if flight.holder.is_some() {
                    self.reassign_slot(op, f, flight.stripe, flight.offset, flight.bytes, why)
                } else {
                    self.abandon_stripes(op, f);
                    Some(Err(OpError::OwnerUnreachable(why.to_owned())))
                }
            }
            stage => {
                if stage == Stage::FetchFlowCloud {
                    self.breaker_failure(CLOUD_ADDR);
                }
                Some(Err(OpError::OwnerUnreachable(why.to_owned())))
            }
        }
    }

    // ------------------------------------------------------------------
    // What recovery is made of, written once
    // ------------------------------------------------------------------

    /// Whether node `j` can serve `want` to `client` right now: alive,
    /// reachable, still holding the bytes.
    pub(super) fn holder_serves(&self, client: usize, j: usize, want: Sym) -> bool {
        self.nodes[j].alive
            && self.node_reachable(client, j)
            && self.nodes[j].objects.contains_key(&want)
    }

    /// [`Self::holder_serves`], and the path's breaker would let a request
    /// through. Read-only: ranking and filtering must not move a breaker
    /// to half-open or count a fast-fail.
    fn holder_viable(&self, client: usize, j: usize, want: Sym) -> bool {
        self.holder_serves(client, j, want)
            && !self
                .overload
                .breaker_would_block(self.nodes[j].addr.raw(), self.now().as_nanos())
    }

    /// Counts and traces one redirect of the fetch away from a source that
    /// cannot serve it; `detail` says which (a skipped holder, a stripe).
    fn note_failover(&mut self, op: &mut OpCore, detail: Option<(&'static str, ArgValue)>) {
        op.failovers += 1;
        self.stats.fetch_failovers += 1;
        self.op_instant(op, "fetch.failover", || {
            [("object", ArgValue::from(op.name.as_str()))]
                .into_iter()
                .chain(detail)
        });
    }

    /// Nothing can serve the fetch right now, but something may later (a
    /// holder rejoins, a partition heals, a rebuild restores a row): wait
    /// and re-route. Exponential backoff, capped so one doubling can never
    /// sleep past the deadline, with deterministic jitter to spread
    /// concurrent retries off the same instant. Each cycle draws on the
    /// node's retry budget: under overload the budget drains and the op
    /// fails promptly instead of amplifying load until its deadline. Out of
    /// deadline or budget, the fetch fails with `exhausted` — `Timeout` for
    /// a replicated object, `StripesLost` for a coded one.
    fn fetch_backoff(
        &mut self,
        op: &mut OpCore,
        f: &mut Fetch,
        exhausted: fn(String) -> OpError,
    ) -> StepOutcome {
        let remaining = op
            .deadline
            .checked_duration_since(self.now())
            .unwrap_or_default();
        if remaining.is_zero() {
            return Some(Err(exhausted(op.name.to_string())));
        }
        if !self.retry_budget_take(op.client, RetrySite::Fetch, op.name) {
            self.note_retry_denied(op, RetrySite::Fetch);
            return Some(Err(exhausted(op.name.to_string())));
        }
        let wait = f
            .backoff
            .mul_f64(self.rng.jitter_factor(BACKOFF_JITTER))
            .min(remaining)
            .max(Duration::from_millis(1));
        f.backoff = f.backoff.saturating_mul(2).min(MAX_FETCH_BACKOFF);
        // The backoff chains to the failure (or previous backoff) that
        // induced it; the wait it chose is the event's payload.
        let cause = std::mem::take(&mut op.ledger_cause);
        op.ledger_cause = self.ledger_op(
            op.id,
            CauseKind::Backoff,
            cause,
            wait.as_nanos() as u64,
            u64::from(op.failovers),
        );
        self.enter_for(op, Stage::FetchRetry, wait)
    }

    /// One stripe slot lost its source (a severed flow, or a holder death
    /// discovered when its control request completed). A partner copy still
    /// racing means nothing needs doing; otherwise only this slot is
    /// re-issued — the other stripes keep flowing. The one per-plan part is
    /// who serves it next: a home-striped read re-pulls the same bytes from
    /// the best remaining holder, a coded read substitutes rows, re-pointing
    /// the slot at a spare parity row no slot is reading. With nobody left
    /// the plan is abandoned and the fetch backs off.
    fn reassign_slot(
        &mut self,
        op: &mut OpCore,
        f: &mut Fetch,
        slot: u32,
        offset: u64,
        bytes: u64,
        why: &str,
    ) -> StepOutcome {
        if f.plan.covers(slot) {
            return None;
        }
        self.note_failover(op, Some(("stripe", ArgValue::from(u64::from(slot)))));
        // (holder, the code row it serves, offset, bytes)
        let next = match &f.plan.ec {
            None => self
                .stripe_pick_source(op, f, false, None)
                .map(|holder| (holder, None, offset, bytes)),
            Some(ec) => (0..ec.row_holders.len() as u32)
                .filter(|r| !ec.slot_rows.contains(r))
                .find_map(|r| {
                    let holder = ec.row_holders[r as usize]?;
                    self.holder_viable(op.client, holder, self.ec.stripe_name(op.name, r))
                        .then_some((holder, Some(r), u64::from(r) * ec.stripe_len, ec.stripe_len))
                }),
        };
        let Some((holder, row, offset, bytes)) = next else {
            let exhausted: fn(String) -> OpError = if f.plan.ec.is_some() {
                OpError::StripesLost
            } else {
                OpError::Timeout
            };
            self.abandon_stripes(op, f);
            return self.fetch_backoff(op, f, exhausted);
        };
        if let (Some(row), Some(ec)) = (row, f.plan.ec.as_mut()) {
            ec.slot_rows[slot as usize] = row;
        }
        self.op_instant(op, "fetch.stripe_reassign", || {
            let row = row.filter(|_| f.plan.ec.is_some());
            [
                ("object", ArgValue::from(op.name.as_str())),
                ("stripe", ArgValue::from(u64::from(slot))),
            ]
            .into_iter()
            .chain(row.map(|row| ("row", ArgValue::from(u64::from(row)))))
            .chain([
                ("via", ArgValue::from(self.nodes[holder].name_sym.as_str())),
                ("why", ArgValue::from(why.to_owned())),
            ])
        });
        let cause = std::mem::take(&mut op.ledger_cause);
        self.ledger_op(
            op.id,
            CauseKind::StripeReassign,
            cause,
            u64::from(slot),
            holder as u64,
        );
        let req = StripeRequest {
            stripe: slot,
            holder,
            offset,
            bytes,
            hedge: false,
        };
        self.stripe_issue_request(op, f, req);
        None
    }

    /// Drops the fetch's stripe plan: every flow it has in flight is
    /// cancelled (and leaves a lost span), every pending control request is
    /// forgotten — its wake will find no entry — and whatever a cloud read
    /// had staged is released. The fetch is back to having no plan.
    pub(super) fn abandon_stripes(&mut self, op: &OpCore, f: &mut Fetch) {
        for (flow, flight) in std::mem::take(&mut f.plan).flows {
            self.drop_flight(op, flow, &flight);
        }
        f.staged = None;
    }

    /// Cancels one in-flight stripe flow (a lost hedge race, an abandoned
    /// plan) and records its span as lost.
    fn drop_flight(&mut self, op: &OpCore, flow: FlowId, flight: &StripeFlight) {
        self.cancel_flow(flow);
        self.emit_stripe_span(op, flow, flight, false);
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Extracts decoded object metadata from a DHT completion.
    fn take_object_meta(&mut self, op: &OpCore, input: OpInput) -> Result<ObjectMeta, OpError> {
        let OpInput::Dht(DhtEvent::GetCompleted { value, result, .. }) = input else {
            return Err(OpError::Dht("unexpected completion".into()));
        };
        result.map_err(OpError::from)?;
        let meta = match value.as_ref().map(|v| self.decode_record(v.latest())) {
            Some(Ok(Record::Object(meta))) => meta,
            _ => return Err(OpError::NotFound(op.name.to_string())),
        };
        // Access control: the reader must be permitted by the object's ACL.
        if !meta.acl.permits(self.nodes[op.client].key, meta.owner) {
            return Err(OpError::AccessDenied(op.name.to_string()));
        }
        Ok(meta)
    }

    fn fetch_route_to_owner(
        &mut self,
        op: &mut OpCore,
        f: &mut Fetch,
        meta: ObjectMeta,
    ) -> StepOutcome {
        let meta = op.meta.insert(meta);
        // An erasure-coded object has no full copy anywhere: the read is
        // k concurrent stripe pulls plus a decode, not a holder fetch.
        if let Some(layout) = meta.ec.clone() {
            return self.fetch_begin_ec(op, f, layout);
        }
        match meta.location {
            Location::Home { node } => {
                // Candidate holders: the primary owner and every replica,
                // ranked by liveness and the observed-bandwidth estimates
                // rather than raw metadata order.
                let mut candidates: Vec<usize> = Vec::new();
                for key in std::iter::once(node).chain(meta.replicas.iter().copied()) {
                    if let Some(j) = self.node_index(key) {
                        if !candidates.contains(&j) {
                            candidates.push(j);
                        }
                    }
                }
                self.rank_fetch_candidates(op, &mut candidates);
                f.candidates = candidates.into();
                self.fetch_try_next(op, f, false)
            }
            Location::Cloud { ref url } => {
                if self.cloud.is_none() {
                    return Some(Err(OpError::OwnerUnreachable(op.name.to_string())));
                }
                // An open cloud-uplink breaker fails the fetch fast; the
                // half-open probe after cooldown is the first op allowed
                // through again.
                if self.breaker_blocks_path(CLOUD_ADDR, op.id) {
                    return Some(Err(OpError::OwnerUnreachable(op.name.to_string())));
                }
                let Some(url) = S3Url::parse(url.as_str()) else {
                    return Some(Err(OpError::NotFound(op.name.to_string())));
                };
                f.cloud_url = Some(url);
                self.enter_for(op, Stage::FetchCloudRequest, REQUEST_LATENCY)
            }
        }
    }

    /// Routes the fetch to the next live, reachable holder of the object's
    /// bytes. With `failing_over` the previous attempt failed: the failover
    /// is counted and charged. When every candidate is down but the object
    /// is replicated, the fetch backs off and retries until its deadline (a
    /// holder may rejoin or a partition heal); unreplicated objects fail
    /// promptly.
    fn fetch_try_next(
        &mut self,
        op: &mut OpCore,
        f: &mut Fetch,
        failing_over: bool,
    ) -> StepOutcome {
        if failing_over {
            self.note_failover(op, None);
        }
        if self.now() > op.deadline {
            return Some(Err(OpError::Timeout(op.name.to_string())));
        }
        let size = op.meta_bytes();
        // With several live holders (none of them the client itself, whose
        // local disk beats any transfer), split the read into concurrent
        // stripes instead of pulling everything from the front-runner.
        if self.config.fetch_sources >= 2 && size >= self.config.fetch_sources as u64 {
            let viable: Vec<usize> = f
                .candidates
                .iter()
                .copied()
                .filter(|&j| self.holder_viable(op.client, j, op.name))
                .collect();
            if viable.len() >= 2 && !viable.contains(&op.client) {
                return self.fetch_begin_stripes(op, f, viable);
            }
        }
        while let Some(j) = f.candidates.pop_front() {
            // An open breaker on the path to an otherwise-servable holder
            // skips it like a dead one (but without wasting a probe on
            // nodes already ruled out by liveness). Local reads have no
            // network path to break.
            let servable = self.holder_serves(op.client, j, op.name);
            let addr = self.nodes[j].addr;
            if !servable || (j != op.client && self.breaker_blocks_path(addr, op.id)) {
                // A holder that cannot serve us counts as a failover even on
                // the first routing pass (e.g. the primary died before the
                // fetch started and we go straight to a replica).
                let skipped = ArgValue::from(self.nodes[j].name_sym.as_str());
                self.note_failover(op, Some(("skipped", skipped)));
                continue;
            }
            // The holder's disk read is part of either wait; a remote
            // one is charged when the request completes, not here: a
            // holder that dies before responding must not leave its read
            // in the breakdown.
            let read = self.nodes[j].disk.read_time(size);
            if j == op.client {
                return self.enter_for(op, Stage::FetchDiskLocal, read);
            }
            // Control message to the holder plus its disk read.
            let latency = self
                .net
                .topology()
                .message_latency(
                    self.nodes[op.client].addr,
                    self.nodes[j].addr,
                    &mut self.rng,
                )
                .unwrap_or_default();
            f.peer = j;
            let request = latency + self.config.timing.peer_request + read;
            return self.enter_for(op, Stage::FetchOwnerRequest, request);
        }
        let replicated = op.meta.as_ref().is_some_and(|m| !m.replicas.is_empty());
        if replicated {
            return self.fetch_backoff(op, f, OpError::Timeout);
        }
        Some(Err(OpError::OwnerUnreachable(op.name.to_string())))
    }

    /// Orders fetch candidates best-first: holders that can actually serve
    /// the object ahead of dead or cut-off ones, then by the per-peer
    /// bandwidth *class* (see [`PeerBandwidth::class`]), with metadata
    /// order breaking ties — so untrained or noise-level estimates
    /// preserve the primary-first behaviour and only categorically slower
    /// holders (a WAN-limited peer among LAN ones) are demoted. Demoting a
    /// non-viable primary below a live replica is the same redirect the
    /// serial path used to discover by failing, so it is still counted and
    /// traced as a failover.
    fn rank_fetch_candidates(&mut self, op: &mut OpCore, candidates: &mut [usize]) {
        let Some(&primary) = candidates.first() else {
            return;
        };
        let (client, name) = (op.client, op.name);
        let viable = |s: &Self, j: usize| s.holder_viable(client, j, name);
        candidates.sort_by_key(|&j| {
            (
                u8::from(!viable(self, j)),
                -self.peer_bw.class(self.nodes[j].addr.raw()),
            )
        });
        if !viable(self, primary) && candidates.first().is_some_and(|&j| viable(self, j)) {
            let skipped = ArgValue::from(self.nodes[primary].name_sym.as_str());
            self.note_failover(op, Some(("skipped", skipped)));
        }
        self.op_instant(op, "fetch.rank", || {
            let order: Vec<&str> = candidates
                .iter()
                .map(|&j| self.nodes[j].name.as_str())
                .collect();
            [
                ("object", ArgValue::from(op.name.as_str())),
                ("order", ArgValue::from(order.join(","))),
            ]
        });
        // Typed counters mirroring the instant's payload, so dashboards can
        // aggregate without parsing trace args.
        self.telemetry.add("fetch.rank.events", 1);
        let demoted = candidates.iter().filter(|&&j| !viable(self, j)).count();
        self.telemetry.add("fetch.rank.demotions", demoted as u64);
        if demoted > 0 {
            let cause = std::mem::take(&mut op.ledger_cause);
            self.ledger_op(op.id, CauseKind::RankDemote, cause, demoted as u64, 0);
        }
    }

    // ------------------------------------------------------------------
    // The stripe machine
    // ------------------------------------------------------------------

    /// Opens a plan of `stripes` slots over `size` bytes and enters the
    /// striped stage.
    fn stripe_plan_begin(&mut self, op: &mut OpCore, f: &mut Fetch, stripes: u64, size: u64) {
        f.plan.total = stripes as u32;
        self.stats.striped_fetches += 1;
        self.op_instant(op, "fetch.stripe_plan", || {
            [
                ("object", ArgValue::from(op.name.as_str())),
                ("stripes", ArgValue::from(stripes)),
                ("bytes", ArgValue::from(size)),
            ]
        });
        self.enter(op, Stage::FetchStriped);
    }

    /// Splits the fetch into contiguous stripes pulled concurrently from
    /// the best-ranked viable holders, one stripe per source.
    fn fetch_begin_stripes(
        &mut self,
        op: &mut OpCore,
        f: &mut Fetch,
        viable: Vec<usize>,
    ) -> StepOutcome {
        let size = op.meta_bytes();
        let stripes = viable.len().min(self.config.fetch_sources) as u64;
        f.candidates.clear();
        f.plan.sources = viable;
        self.stripe_plan_begin(op, f, stripes, size);
        for (s, (offset, bytes)) in split(size, stripes).enumerate() {
            let req = StripeRequest {
                stripe: s as u32,
                holder: f.plan.sources[s],
                offset,
                bytes,
                hedge: false,
            };
            self.stripe_issue_request(op, f, req);
        }
        None
    }

    /// Splits a cloud fetch into parallel range reads of the same S3
    /// object. A single source means no hedging and no reassignment — a
    /// severed range read fails the fetch exactly like a severed
    /// monolithic cloud flow did.
    fn fetch_begin_cloud_stripes(
        &mut self,
        op: &mut OpCore,
        f: &mut Fetch,
        src: Addr,
        dst: Addr,
        size: u64,
    ) -> StepOutcome {
        let stripes = self.config.fetch_sources as u64;
        self.stripe_plan_begin(op, f, stripes, size);
        let now = self.now();
        for (s, (offset, bytes)) in split(size, stripes).enumerate() {
            let flow = self.start_flow_for_op(op.id, src, dst, bytes);
            f.plan.flows.insert(
                flow,
                StripeFlight {
                    stripe: s as u32,
                    holder: None,
                    src,
                    offset,
                    bytes,
                    started: now,
                    hedge: false,
                },
            );
        }
        None
    }

    /// Sends one stripe's control request to a holder: message latency plus
    /// the holder's disk read, after which the stripe's transfer starts.
    fn stripe_issue_request(&mut self, op: &OpCore, f: &mut Fetch, req: StripeRequest) {
        let latency = self
            .net
            .topology()
            .message_latency(
                self.nodes[op.client].addr,
                self.nodes[req.holder].addr,
                &mut self.rng,
            )
            .unwrap_or_default();
        let read = self.nodes[req.holder].disk.read_time(req.bytes);
        let token = u64::from(req.stripe) | if req.hedge { STRIPE_HEDGE_BIT } else { 0 };
        f.plan.requests.insert(token, req);
        self.wake_sub_in(
            op.id,
            token,
            latency + self.config.timing.peer_request + read,
        );
    }

    /// A stripe's control request (and the holder's disk read) completed:
    /// start the transfer, or reassign if the holder died meanwhile.
    fn stripe_request_done(&mut self, op: &mut OpCore, f: &mut Fetch, token: u64) -> StepOutcome {
        let req = f.plan.requests.remove(&token)?;
        // The bytes a holder serves: the object itself, or — on a coded
        // read — the stripe of the code row this slot is assigned to.
        let want = match &f.plan.ec {
            Some(ec) => self
                .ec
                .stripe_name(op.name, ec.slot_rows[req.stripe as usize]),
            None => op.name,
        };
        if !self.holder_serves(op.client, req.holder, want) {
            return self.reassign_slot(
                op,
                f,
                req.stripe,
                req.offset,
                req.bytes,
                "holder lost before serving stripe",
            );
        }
        // The holder's read finished; charge it on completion (mirroring
        // the single-source path's accounting fix).
        op.breakdown.disk += self.nodes[req.holder].disk.read_time(req.bytes);
        let src = self.nodes[req.holder].addr;
        let dst = self.nodes[op.client].addr;
        let flow = self.start_flow_for_op(op.id, src, dst, req.bytes);
        f.plan.flows.insert(
            flow,
            StripeFlight {
                stripe: req.stripe,
                holder: Some(req.holder),
                src,
                offset: req.offset,
                bytes: req.bytes,
                started: self.now(),
                hedge: req.hedge,
            },
        );
        None
    }

    /// One stripe delivered its last byte: record it, feed the bandwidth
    /// table, cancel any losing hedge copy of the same stripe, and either
    /// finish the fetch or consider hedging the new slowest stripe.
    fn stripe_flow_done(&mut self, op: &mut OpCore, f: &mut Fetch, flow: FlowId) -> StepOutcome {
        let flight = f.plan.flows.remove(&flow)?;
        let now = self.now();
        self.emit_stripe_span(op, flow, &flight, true);
        let secs = now
            .checked_duration_since(flight.started)
            .unwrap_or_default()
            .as_secs_f64();
        self.peer_bw.observe(flight.src.raw(), flight.bytes, secs);
        self.breaker_success(flight.src);
        f.plan.done += 1;
        // The losing copy of a hedged stripe — a racing flow or a control
        // request still pending — is cancelled so its bytes are never
        // delivered (or counted) twice.
        let losers: Vec<FlowId> = f
            .plan
            .flows
            .iter()
            .filter(|(_, l)| l.stripe == flight.stripe)
            .map(|(&l, _)| l)
            .collect();
        for loser in losers {
            if let Some(lost) = f.plan.flows.remove(&loser) {
                self.drop_flight(op, loser, &lost);
            }
        }
        let stale: Vec<u64> = f
            .plan
            .requests
            .iter()
            .filter(|(_, r)| r.stripe == flight.stripe)
            .map(|(&t, _)| t)
            .collect();
        for t in stale {
            f.plan.requests.remove(&t);
        }
        // A resolved hedge race cancels the losing copy; the cancellation
        // links back to the launch that started the race.
        if let Some(launch) = f.plan.hedge_launches.remove(&flight.stripe) {
            self.ledger_op(
                op.id,
                CauseKind::HedgeCancel,
                launch,
                u64::from(flight.stripe),
                0,
            );
        }
        if f.plan.done >= f.plan.total {
            debug_assert!(f.plan.flows.is_empty() && f.plan.requests.is_empty());
            return self.stripe_finish(op, f);
        }
        self.stripe_maybe_hedge(op, f);
        None
    }

    /// Every stripe landed: close the striped stage, retire the plan, and
    /// hand the bytes to the client channel.
    fn stripe_finish(&mut self, op: &mut OpCore, f: &mut Fetch) -> StepOutcome {
        self.charge(op);
        let plan = std::mem::take(&mut f.plan);
        if let Some(ec) = plan.ec {
            return self.ec_decode_finish(op, f, ec);
        }
        if f.staged.is_none() {
            // Home stripes: stage the bytes from any surviving holder
            // (cloud stripes staged them at the S3 get).
            let blob = plan
                .sources
                .iter()
                .copied()
                .filter(|&j| self.nodes[j].alive)
                .find_map(|j| self.nodes[j].objects.get(&op.name).cloned());
            match blob {
                Some(b) => f.staged = Some(b),
                // Every holder vanished in the final instant; fall back to
                // the retry path, which re-derives the candidate set.
                None => return self.fetch_try_next(op, f, true),
            }
        }
        self.fetch_channel_out(op)
    }

    /// Hedged tail requests: when the slowest in-flight stripe's estimated
    /// time to completion exceeds `fetch_hedge ×` what the best idle holder
    /// would need for the whole stripe, re-issue it there and race the two
    /// copies. Evaluated only at stripe completions, so the decision is a
    /// deterministic function of simulation state.
    fn stripe_maybe_hedge(&mut self, op: &OpCore, f: &mut Fetch) {
        let factor = self.config.fetch_hedge;
        if factor <= 0.0 {
            return;
        }
        if f.plan.ec.is_some() {
            // Coded reads have no second copy of a row to race; a slow
            // row is handled by reassignment to a spare parity row.
            return;
        }
        // The slowest unhedged home stripe by predicted remaining seconds.
        // Cloud ranges have no second source; hedges never re-hedge.
        let mut slowest: Option<StripeFlight> = None;
        let mut slowest_eta = 0.0_f64;
        for (&flow, flight) in &f.plan.flows {
            if flight.holder.is_none() || flight.hedge {
                continue;
            }
            let partnered = f.plan.requests.values().any(|r| r.stripe == flight.stripe)
                || f.plan
                    .flows
                    .values()
                    .any(|l| l.stripe == flight.stripe && l.hedge);
            if partnered {
                continue;
            }
            let Some(p) = self.net.progress(flow) else {
                continue;
            };
            if p.rate_bps <= 0.0 {
                continue; // still in connection setup; no estimate yet
            }
            let eta = (p.total_bytes as f64 - p.sent_bytes).max(0.0) / p.rate_bps;
            if slowest.is_none() || eta > slowest_eta {
                slowest = Some(*flight);
                slowest_eta = eta;
            }
        }
        let Some(flight) = slowest else { return };
        let slow_holder = flight.holder.expect("cloud stripes filtered above");
        let Some(idle) = self.stripe_pick_source(op, f, true, Some(slow_holder)) else {
            return;
        };
        let est = self
            .peer_bw
            .predict_secs(self.nodes[idle].addr.raw(), flight.bytes);
        if slowest_eta <= factor * est {
            return;
        }
        self.stats.hedged_fetches += 1;
        self.op_instant(op, "fetch.hedge", || {
            [
                ("object", ArgValue::from(op.name.as_str())),
                ("stripe", ArgValue::from(u64::from(flight.stripe))),
                (
                    "slow",
                    ArgValue::from(self.nodes[slow_holder].name_sym.as_str()),
                ),
                ("via", ArgValue::from(self.nodes[idle].name_sym.as_str())),
                ("eta_us", ArgValue::from((slowest_eta * 1e6) as u64)),
                ("est_us", ArgValue::from((est * 1e6) as u64)),
            ]
        });
        // Typed counter + histograms mirroring the instant's payload.
        self.telemetry.add("fetch.hedge.events", 1);
        self.telemetry
            .observe("fetch.hedge.eta_us", (slowest_eta * 1e6) as u64);
        self.telemetry
            .observe("fetch.hedge.est_us", (est * 1e6) as u64);
        let seq = self.ledger_op(
            op.id,
            CauseKind::HedgeLaunch,
            LEDGER_NONE,
            u64::from(flight.stripe),
            idle as u64,
        );
        if seq != LEDGER_NONE {
            f.plan.hedge_launches.insert(flight.stripe, seq);
        }
        let req = StripeRequest {
            stripe: flight.stripe,
            holder: idle,
            offset: flight.offset,
            bytes: flight.bytes,
            hedge: true,
        };
        self.stripe_issue_request(op, f, req);
    }

    /// The best holder to (re)issue a stripe from: live, reachable, still
    /// holding the bytes; idle holders (nothing in flight or requested)
    /// outrank busy ones, then the higher bandwidth estimate, then rank
    /// order. With `require_idle`, busy holders are excluded outright.
    fn stripe_pick_source(
        &self,
        op: &OpCore,
        f: &Fetch,
        require_idle: bool,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let busy = |j: usize| {
            f.plan.flows.values().any(|l| l.holder == Some(j))
                || f.plan.requests.values().any(|r| r.holder == j)
        };
        f.plan
            .sources
            .iter()
            .copied()
            .filter(|&j| {
                Some(j) != exclude
                    && !(require_idle && busy(j))
                    && self.holder_viable(op.client, j, op.name)
            })
            .min_by(|&a, &b| {
                busy(a).cmp(&busy(b)).then_with(|| {
                    self.peer_bw
                        .bps(self.nodes[b].addr.raw())
                        .partial_cmp(&self.peer_bw.bps(self.nodes[a].addr.raw()))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            })
    }

    /// Records one stripe transfer on the stripe track (base + flow id),
    /// with `won` false for severed flows and lost hedge races. Zero-length
    /// spans (cancelled the instant they started) are skipped like
    /// [`Self::charge`]'s.
    fn emit_stripe_span(&self, op: &OpCore, flow: FlowId, flight: &StripeFlight, won: bool) {
        let now = self.now();
        let elapsed = now
            .checked_duration_since(flight.started)
            .unwrap_or_default();
        if elapsed.is_zero() || !self.telemetry.enabled() {
            return;
        }
        let src = match flight.holder {
            Some(j) => self.nodes[j].name_sym.as_str(),
            None => "cloud",
        };
        self.telemetry.span_args(
            "stripe",
            "fetch.stripe",
            STRIPE_TRACK_BASE + flow.raw(),
            flight.started.as_nanos(),
            now.as_nanos(),
            [
                ("object", ArgValue::from(op.name.as_str())),
                ("stripe", ArgValue::from(u64::from(flight.stripe))),
                ("src", ArgValue::from(src)),
                ("offset", ArgValue::from(flight.offset)),
                ("bytes", ArgValue::from(flight.bytes)),
                ("hedge", ArgValue::from(flight.hedge)),
                ("won", ArgValue::from(won)),
            ],
        );
    }

    // ------------------------------------------------------------------
    // Erasure-coded fetch (decode read path)
    // ------------------------------------------------------------------

    /// Whether code row `row` of `name` can serve a stripe read for
    /// `client` right now: holder resolved and viable for the row's stripe.
    fn ec_row_viable(&self, client: usize, name: Sym, holder: Option<usize>, row: u32) -> bool {
        holder.is_some_and(|j| self.holder_viable(client, j, self.ec.stripe_name(name, row)))
    }

    /// Routes a fetch of an erasure-coded object: pick `k` viable code
    /// rows (fastest holders first), pull each as one concurrent stripe,
    /// and decode when they all land. Fewer than `k` viable rows means
    /// the object is momentarily unreadable — back off and retry like the
    /// replicated path does (a repair may restore rows, or holders
    /// rejoin).
    fn fetch_begin_ec(&mut self, op: &mut OpCore, f: &mut Fetch, layout: EcLayout) -> StepOutcome {
        let k = layout.k as usize;
        let stripe_len = layout.stripe_len;
        let row_holders: Vec<Option<usize>> = layout
            .holders
            .iter()
            .map(|&key| self.node_index(key))
            .collect();
        let mut viable: Vec<u32> = (0..row_holders.len() as u32)
            .filter(|&r| self.ec_row_viable(op.client, op.name, row_holders[r as usize], r))
            .collect();
        if viable.len() < k {
            return self.fetch_backoff(op, f, OpError::StripesLost);
        }
        // The k fastest rows by the holder's bandwidth class; row order
        // breaks ties, so on a uniform LAN the data rows are read first
        // and the decode is a plain reassembly.
        viable.sort_by_key(|&r| {
            let j = row_holders[r as usize].expect("viable rows resolved");
            (-self.peer_bw.class(self.nodes[j].addr.raw()), r)
        });
        viable.truncate(k);
        let slot_rows = viable;
        self.stats.striped_fetches += 1;
        self.op_instant(op, "fetch.ec_plan", || {
            [
                ("object", ArgValue::from(op.name.as_str())),
                ("k", ArgValue::from(u64::from(layout.k))),
                ("m", ArgValue::from(u64::from(layout.m))),
                ("stripe_len", ArgValue::from(stripe_len)),
            ]
        });
        self.enter(op, Stage::FetchStriped);
        f.candidates.clear();
        f.plan.total = k as u32;
        f.plan.ec = Some(EcPlan {
            k: layout.k,
            stripe_len,
            row_holders: row_holders.clone(),
            slot_rows: slot_rows.clone(),
        });
        for (slot, &row) in slot_rows.iter().enumerate() {
            let holder = row_holders[row as usize].expect("viable rows resolved");
            let req = StripeRequest {
                stripe: slot as u32,
                holder,
                offset: u64::from(row) * stripe_len,
                bytes: stripe_len,
                hedge: false,
            };
            self.stripe_issue_request(op, f, req);
        }
        None
    }

    /// Every stripe slot landed: read the `k` rows' bytes off one padded
    /// window of the original staged at conversion time (data rows are
    /// its slices, parity rows are computed from them), invert the code,
    /// and verify the decode against that window before handing the
    /// object to the client channel.
    fn ec_decode_finish(&mut self, op: &mut OpCore, f: &mut Fetch, plan: EcPlan) -> StepOutcome {
        let k = plan.k as usize;
        let code = self.ec.code(k, plan.row_holders.len() - k);
        let mut recipes: Vec<&CodeRow> = Vec::with_capacity(k);
        for &row in &plan.slot_rows {
            let recipe = plan.row_holders[row as usize]
                .filter(|&j| self.nodes[j].alive)
                .and_then(|j| {
                    self.nodes[j]
                        .objects
                        .get(&self.ec.stripe_name(op.name, row))
                })
                .and_then(Blob::code_row);
            match recipe {
                Some(recipe) => recipes.push(recipe),
                // A holder vanished in the final instant; re-plan.
                None => return self.fetch_backoff(op, f, OpError::StripesLost),
            }
        }
        let Some(original) = self.ec.original(op.name).cloned() else {
            // The conversion registry lost the object (deleted or
            // re-stored mid-fetch); the stripes alone cannot serve it.
            return Some(Err(OpError::StripesLost(op.name.to_string())));
        };
        let mut padded = original.sample(SAMPLE_WINDOW);
        let len = padded.len();
        code.pad(&mut padded);
        let survivors = plan
            .slot_rows
            .iter()
            .zip(recipes)
            .map(|(&row, recipe)| (row as usize, recipe.bytes_over(&code, &original, &padded)));
        let survivors: Vec<_> = survivors.collect();
        let decoded = code
            .reconstruct_data(&survivors)
            .map(|shards| code.assemble(&shards, len));
        match decoded {
            Some(bytes) if bytes == padded[..len] => {
                self.telemetry.add("fetch.ec_decodes", 1);
                f.staged = Some(original);
                self.fetch_channel_out(op)
            }
            _ => Some(Err(OpError::StripesLost(op.name.to_string()))),
        }
    }

    fn fetch_channel_out(&mut self, op: &mut OpCore) -> StepOutcome {
        let channel = self.config.nodes[op.client]
            .channel
            .transfer_time(op.meta_bytes());
        self.enter_for(op, Stage::FetchChannelOut, channel)
    }
}
