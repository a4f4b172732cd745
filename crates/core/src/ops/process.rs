//! The process machine (§III-B "process" and "fetch+process"): the
//! object's metadata and the service's record are looked up together, the
//! execution site is pinned or chosen by the decision procedure from live
//! resource records, the argument is staged and moved to the executor, the
//! service (or pipeline of services) runs, and the result comes back.
//!
//! The argument is staged from the first holder that can serve it — the
//! fetch family's [`Cloud4Home::holder_serves`] — and no more than that is
//! shared with the fetch machine: routing arguments through it (which
//! would let a service read an erasure-coded object) changes the bytes
//! every process op moves and waits for the object-generation work.

use std::collections::VecDeque;
use std::time::Duration;

use c4h_chimera::{DhtError, DhtEvent, Key};
use c4h_cloud::{S3Url, REQUEST_LATENCY};
use c4h_kvstore::{object_key, service_key, Location, Record, ServiceRecord};
use c4h_services::{ServiceDemand, ServiceId, ServiceOutput};
use c4h_simnet::{Addr, Sym};
use c4h_telemetry::ArgValue;

use super::{
    Family, OpCore, OpInput, OpKind, ResourceQuery, Stage, StepOutcome, COMMAND_BYTES,
    MAX_DHT_RETRIES,
};
use crate::config::{NodeId, ServiceKind};
use crate::decision::{choose, estimate_exec, meets_minimum, Candidate, LOCATE_TIME};
use crate::object::{Blob, SAMPLE_WINDOW};
use crate::policy::RoutePolicy;
use crate::report::{OpError, OpId, OpOutput};
use crate::runtime::Cloud4Home;

/// Where a process operation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTarget {
    /// A home-cloud node, by index.
    Node(usize),
    /// The remote cloud's compute instance.
    Cloud,
}

/// Explicit placement request for process operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Run the full decision procedure (resource queries + scoring).
    Auto,
    /// Pin execution to a specific home node.
    Pin(NodeId),
    /// Pin execution to the remote cloud.
    Cloud,
}

/// What a process operation carries beyond the core.
#[derive(Debug)]
pub(super) struct Process {
    /// The service the op names: the pipeline's first.
    service: ServiceKind,
    /// The services to run, in order, all at one site (one entry unless
    /// the op is a pipeline), and the one running or about to.
    pipeline: Vec<ServiceKind>,
    pipeline_idx: usize,
    placement: Placement,
    route: RoutePolicy,
    svc_record: Option<ServiceRecord>,
    /// Lookups of the batched metadata + service-record stage still out,
    /// and whether any of them timed out.
    pending_gets: usize,
    batch_timed_out: bool,
    /// The providers' resource records, queried before an auto placement.
    query: ResourceQuery,
    /// The argument's bytes, once read from their holder.
    staged: Option<Blob>,
    exec_target: Option<ExecTarget>,
    exec_demand: Option<ServiceDemand>,
    output: Option<ServiceOutput>,
    result_bytes: u64,
    /// Ranked surviving executor candidates for process re-dispatch.
    exec_candidates: VecDeque<ExecTarget>,
}

impl Process {
    /// The state of an op that runs `pipeline` (at least one service), in
    /// order, at one site.
    fn new(pipeline: Vec<ServiceKind>, placement: Placement, route: RoutePolicy) -> Self {
        Process {
            service: pipeline[0],
            pipeline,
            pipeline_idx: 0,
            placement,
            route,
            svc_record: None,
            pending_gets: 0,
            batch_timed_out: false,
            query: ResourceQuery::default(),
            staged: None,
            exec_target: None,
            exec_demand: None,
            output: None,
            result_bytes: 0,
            exec_candidates: VecDeque::new(),
        }
    }

    /// The service running or about to.
    fn current(&self) -> ServiceKind {
        let current = self.pipeline.get(self.pipeline_idx);
        current.copied().unwrap_or(self.service)
    }
}

/// The aggregate demand of running a whole pipeline at one location: summed
/// work, peak working set, and the final stage's output size. Returns
/// `None` if any stage is not deployed there.
fn combined_demand(
    registry: &c4h_services::ServiceRegistry,
    pipeline: &[ServiceKind],
    input_bytes: u64,
) -> Option<ServiceDemand> {
    let mut total: Option<ServiceDemand> = None;
    for kind in pipeline {
        let svc = registry.get(ServiceId(kind.id()))?;
        let d = svc.demand(input_bytes);
        total = Some(match total {
            None => d,
            Some(mut t) => {
                t.work += d.work;
                t.exec.mem_required_mib = t.exec.mem_required_mib.max(d.exec.mem_required_mib);
                t.exec.parallel_fraction = t.exec.parallel_fraction.min(d.exec.parallel_fraction);
                t.output_bytes = d.output_bytes;
                t
            }
        });
    }
    total
}

impl Cloud4Home {
    /// Invokes a processing service on a stored object, choosing the
    /// execution location with the full decision procedure under `route`.
    pub fn process_object(
        &mut self,
        client: NodeId,
        name: &str,
        service: ServiceKind,
        route: RoutePolicy,
    ) -> OpId {
        let process = Process::new(vec![service], Placement::Auto, route);
        self.submit_process(client, name, OpKind::Process, process)
    }

    /// Invokes a processing service at an explicitly pinned location
    /// (used to measure individual placements, as in Figure 7).
    pub fn process_object_at(
        &mut self,
        client: NodeId,
        name: &str,
        service: ServiceKind,
        placement: Placement,
    ) -> OpId {
        let route = RoutePolicy::Performance;
        let process = Process::new(vec![service], placement, route);
        self.submit_process(client, name, OpKind::Process, process)
    }

    /// Fetch joined with processing: per the paper, the requesting node
    /// runs the service itself when capable, else the owner, else the
    /// decision procedure picks among the remaining providers.
    pub fn fetch_and_process(
        &mut self,
        client: NodeId,
        name: &str,
        service: ServiceKind,
        route: RoutePolicy,
    ) -> OpId {
        let process = Process::new(vec![service], Placement::Auto, route);
        self.submit_process(client, name, OpKind::FetchProcess, process)
    }

    /// Runs a sequence of services on the object at a single dynamically
    /// chosen location — the paper's surveillance pattern ("a process
    /// operation may be invoked on a set of stored images, to first perform
    /// face detection, and next face recognition"), with the argument moved
    /// once and every pipeline step executed in place.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty, `client` is out of range, or the node
    /// is offline.
    pub fn process_pipeline(
        &mut self,
        client: NodeId,
        name: &str,
        services: &[ServiceKind],
        route: RoutePolicy,
    ) -> OpId {
        assert!(!services.is_empty(), "pipeline needs at least one service");
        let process = Process::new(services.to_vec(), Placement::Auto, route);
        self.submit_process(client, name, OpKind::Pipeline, process)
    }

    fn submit_process(
        &mut self,
        client: NodeId,
        name: &str,
        kind: OpKind,
        process: Process,
    ) -> OpId {
        let op = self.new_op(kind, client, Sym::new(name), Family::Process(process));
        self.submit(op, COMMAND_BYTES)
    }

    pub(super) fn proc_step(
        &mut self,
        op: &mut OpCore,
        p: &mut Process,
        input: OpInput,
    ) -> StepOutcome {
        match op.stage {
            Stage::ProcChannelIn => {
                self.charge(op);
                // The object-metadata and service-record lookups are
                // independent: issue both at once and pay one round trip.
                let kind = p.service;
                op.stage = Stage::ProcMetaSvcGet;
                p.pending_gets = 2;
                p.batch_timed_out = false;
                self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                self.dht_get_for_op(op.id, op.client, service_key(kind.name(), kind.id()));
                None
            }
            Stage::ProcMetaSvcGet => {
                let OpInput::Dht(DhtEvent::GetCompleted { value, result, .. }) = input else {
                    return None;
                };
                p.pending_gets = p.pending_gets.saturating_sub(1);
                match result {
                    Err(DhtError::Timeout) => p.batch_timed_out = true,
                    Err(e) => return Some(Err(e.into())),
                    Ok(()) => {
                        // Replies are told apart by record type, not
                        // arrival order.
                        match value.as_ref().and_then(|v| Record::decode(v.latest()).ok()) {
                            Some(Record::Object(m)) => op.meta = Some(m),
                            Some(Record::Service(s)) => p.svc_record = Some(s),
                            _ => {}
                        }
                    }
                }
                if p.pending_gets > 0 {
                    return None;
                }
                let kind = p.service;
                // Reissue only whichever lookups a timeout left missing.
                if p.batch_timed_out
                    && (op.meta.is_none() || p.svc_record.is_none())
                    && op.retries < MAX_DHT_RETRIES
                    && self.retry_budget_take(op.client, "dht", op.name)
                {
                    self.note_dht_retry(op);
                    p.batch_timed_out = false;
                    if op.meta.is_none() {
                        p.pending_gets += 1;
                        self.dht_get_for_op(op.id, op.client, object_key(op.name.as_str()));
                    }
                    if p.svc_record.is_none() {
                        p.pending_gets += 1;
                        self.dht_get_for_op(op.id, op.client, service_key(kind.name(), kind.id()));
                    }
                    return None;
                }
                self.charge(op);
                let timed_out = p.batch_timed_out;
                let Some(meta) = op.meta.as_ref() else {
                    return Some(Err(if timed_out {
                        OpError::Timeout(op.name.to_string())
                    } else {
                        OpError::NotFound(op.name.to_string())
                    }));
                };
                if !meta.acl.permits(self.nodes[op.client].key, meta.owner) {
                    return Some(Err(OpError::AccessDenied(op.name.to_string())));
                }
                if p.svc_record.is_none() {
                    return Some(Err(if timed_out {
                        OpError::Timeout(op.name.to_string())
                    } else {
                        OpError::ServiceUnavailable(kind.id())
                    }));
                }
                self.proc_resolve_placement(op, p)
            }
            Stage::ProcQueryResources => {
                p.query.absorb(input);
                if p.query.pending > 0 {
                    return None;
                }
                self.charge(op);
                self.proc_choose_target(op, p)
            }
            Stage::ProcDecide => {
                self.charge(op);
                self.proc_move_argument(op, p)
            }
            Stage::ProcReadArg => {
                self.charge(op);
                self.proc_start_move_flow(op, p)
            }
            Stage::ProcMoveArg => {
                self.charge(op);
                self.proc_start_exec(op, p)
            }
            Stage::ProcExec => {
                self.charge(op);
                self.proc_finish_exec(op, p)
            }
            Stage::ProcMoveResult => {
                self.charge(op);
                self.proc_channel_out(op, p)
            }
            Stage::ProcChannelOut => {
                self.charge(op);
                Some(Ok(OpOutput {
                    bytes: p.result_bytes,
                    via_cloud: op.via_cloud,
                    exec_target: Some(self.target_name(p.exec_target.expect("exec ran"))),
                    summary: p.output.take().map(|o| o.summary),
                    listing: None,
                }))
            }
            // No other family's stage is ever current on a process op.
            _ => None,
        }
    }

    /// The argument's or the result's move was severed: the executor (or
    /// the path to it) is gone, so re-dispatch to the next-best one.
    pub(super) fn proc_severed(
        &mut self,
        op: &mut OpCore,
        p: &mut Process,
        why: &str,
    ) -> StepOutcome {
        match op.stage {
            Stage::ProcMoveArg | Stage::ProcMoveResult => self.proc_redispatch(op, p, why),
            _ => Some(Err(OpError::OwnerUnreachable(why.to_owned()))),
        }
    }

    /// Applies the paper's fetch+process short-circuits, then either pins
    /// or launches the resource-query decision.
    fn proc_resolve_placement(&mut self, op: &mut OpCore, p: &mut Process) -> StepOutcome {
        let kind = p.service;
        let sid = ServiceId(kind.id());
        let record = p.svc_record.as_ref().expect("set in ProcMetaSvcGet");
        let cloud_available = record.cloud_available;

        if op.kind == OpKind::FetchProcess && p.placement == Placement::Auto {
            // "It uses the service identifier to first determine if the
            // requesting node is capable of executing the service itself."
            if self.nodes[op.client].registry.provides(sid) {
                p.placement = Placement::Pin(NodeId(op.client));
            } else if let Some(Location::Home { node }) = op.meta.as_ref().map(|m| m.location) {
                // "Otherwise, the object owner checks whether it is capable
                // of performing the required service."
                if let Some(owner) = self.node_index(node) {
                    if self.nodes[owner].alive && self.nodes[owner].registry.provides(sid) {
                        p.placement = Placement::Pin(NodeId(owner));
                    }
                }
            }
        }

        let provides_all = |reg: &c4h_services::ServiceRegistry, pipeline: &[ServiceKind]| {
            pipeline.iter().all(|k| reg.provides(ServiceId(k.id())))
        };
        match p.placement {
            Placement::Pin(node) => {
                if !self.nodes[node.0].alive
                    || !provides_all(&self.nodes[node.0].registry, &p.pipeline)
                {
                    return Some(Err(OpError::ServiceUnavailable(kind.id())));
                }
                p.exec_target = Some(ExecTarget::Node(node.0));
                self.enter_for(op, Stage::ProcDecide, LOCATE_TIME)
            }
            Placement::Cloud => {
                if self.cloud.is_none() || !cloud_available {
                    return Some(Err(OpError::ServiceUnavailable(kind.id())));
                }
                p.exec_target = Some(ExecTarget::Cloud);
                self.enter_for(op, Stage::ProcDecide, LOCATE_TIME)
            }
            Placement::Auto => {
                // Query each provider's resource record.
                self.charge(op);
                // Live providers, as the keys of their resource records.
                let providers: Vec<Key> = record
                    .providers
                    .iter()
                    .filter_map(|k| self.node_index(*k).filter(|&j| self.nodes[j].alive))
                    .map(|j| self.nodes[j].resource_key)
                    .collect();
                if providers.is_empty() {
                    if cloud_available && self.cloud.is_some() {
                        p.exec_target = Some(ExecTarget::Cloud);
                        return self.enter_for(op, Stage::ProcDecide, LOCATE_TIME);
                    }
                    return Some(Err(OpError::ServiceUnavailable(kind.id())));
                }
                op.stage = Stage::ProcQueryResources;
                self.query_resources(op, &mut p.query, providers);
                None
            }
        }
    }

    /// Scores every candidate ("the time to locate the target node, the
    /// associated data movement costs … and the service processing
    /// requirements and execution time") and picks the winner.
    fn proc_choose_target(&mut self, op: &mut OpCore, p: &mut Process) -> StepOutcome {
        let kind = p.service;
        let sid = ServiceId(kind.id());
        let record = p.svc_record.as_ref().expect("set in ProcMetaSvcGet");
        let size = op.meta_bytes();
        let owner_addr = self.owner_addr(op);

        let mut candidates: Vec<Candidate<ExecTarget>> = Vec::new();
        for rec in &p.query.records {
            let Some(j) = self.node_index(rec.node).filter(|&j| self.nodes[j].alive) else {
                continue;
            };
            // The candidate must provide every pipeline stage.
            let Some(demand) = combined_demand(&self.nodes[j].registry, &p.pipeline, size) else {
                continue;
            };
            let svc = self.nodes[j]
                .registry
                .get(sid)
                .cloned()
                .expect("combined_demand verified the first stage");
            let platform = self.nodes[j].machine.platform();
            let vm = self.nodes[j].service_vm;
            candidates.push(Candidate {
                target: ExecTarget::Node(j),
                movement: self.estimate_transfer(owner_addr, self.nodes[j].addr, size),
                exec: estimate_exec(&demand, platform, vm, rec.cpu_load),
                cpu_load: rec.cpu_load,
                battery_pct: rec.battery_pct,
                meets_min: meets_minimum(&svc.min_requirements(), platform, vm),
            });
        }
        if record.cloud_available {
            if let Some(cloud) = &self.cloud {
                if let (Some(_), Some(demand)) = (
                    cloud.registry.get(sid),
                    combined_demand(&cloud.registry, &p.pipeline, size),
                ) {
                    candidates.push(Candidate {
                        target: ExecTarget::Cloud,
                        movement: self.estimate_transfer(owner_addr, cloud.addr, size),
                        exec: estimate_exec(&demand, cloud.platform(), cloud.instance_vm, 0.15),
                        cpu_load: 0.15,
                        battery_pct: None,
                        meets_min: true,
                    });
                }
            }
        }
        let Some(winner) = choose(p.route, &candidates) else {
            return Some(Err(OpError::ServiceUnavailable(kind.id())));
        };
        p.exec_target = Some(candidates[winner].target);
        // Keep the runners-up, ranked by completion estimate, as failover
        // executors should the winner crash mid-operation.
        let mut rest: Vec<(Duration, ExecTarget)> = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != winner)
            .map(|(_, c)| (c.completion_estimate(), c.target))
            .collect();
        rest.sort_by_key(|(est, _)| *est);
        p.exec_candidates = rest.into_iter().map(|(_, t)| t).collect();
        self.enter_for(op, Stage::ProcDecide, LOCATE_TIME)
    }

    /// Re-dispatches a process operation to the next-best surviving
    /// decision candidate after its chosen executor failed. Restarts the
    /// pipeline from its first stage (partial results died with the
    /// executor).
    fn proc_redispatch(&mut self, op: &mut OpCore, p: &mut Process, why: &str) -> StepOutcome {
        while let Some(next) = p.exec_candidates.pop_front() {
            if Some(next) == p.exec_target {
                continue;
            }
            let viable = match next {
                ExecTarget::Node(j) => self.nodes[j].alive && self.node_reachable(op.client, j),
                ExecTarget::Cloud => self.cloud.is_some() && self.cloud_reachable(op.client),
            };
            if !viable {
                continue;
            }
            p.exec_target = Some(next);
            op.failovers += 1;
            self.stats.proc_redispatches += 1;
            self.op_instant(op, "proc.redispatch", || {
                let target = match next {
                    ExecTarget::Node(j) => self.nodes[j].name_sym.as_str(),
                    ExecTarget::Cloud => "cloud",
                };
                [
                    ("object", ArgValue::from(op.name.as_str())),
                    ("target", ArgValue::from(target)),
                ]
            });
            p.pipeline_idx = 0;
            p.output = None;
            p.staged = None;
            return self.enter_for(op, Stage::ProcDecide, LOCATE_TIME);
        }
        Some(Err(OpError::ExecutorFailed(format!("{} ({why})", op.name))))
    }

    /// The address currently holding the object's bytes.
    fn owner_addr(&self, op: &OpCore) -> Addr {
        match op.meta.as_ref().map(|m| &m.location) {
            Some(Location::Home { node }) => self
                .node_index(*node)
                .map(|j| self.nodes[j].addr)
                .unwrap_or(self.nodes[op.client].addr),
            Some(Location::Cloud { .. }) => self
                .cloud
                .as_ref()
                .map(|c| c.addr)
                .unwrap_or(self.nodes[op.client].addr),
            None => self.nodes[op.client].addr,
        }
    }

    /// Stages the argument object: owner disk read, then a move flow when
    /// the execution target differs from the owner.
    fn proc_move_argument(&mut self, op: &mut OpCore, p: &mut Process) -> StepOutcome {
        let meta = op.meta.as_ref().expect("set in ProcMetaSvcGet");
        match meta.location {
            Location::Home { node } => {
                // Stage from the first live holder: primary, then replicas.
                let holder = std::iter::once(node)
                    .chain(meta.replicas.iter().copied())
                    .filter_map(|key| self.node_index(key))
                    .find(|&j| self.holder_serves(op.client, j, op.name));
                let Some(owner) = holder else {
                    return Some(Err(OpError::OwnerUnreachable(op.name.to_string())));
                };
                let Some(blob) = self.nodes[owner].objects.get(&op.name).cloned() else {
                    return Some(Err(OpError::NotFound(op.name.to_string())));
                };
                // Record the effective holder so the move flow and movement
                // estimates use the copy actually being read. The displaced
                // primary stays in the replica set only while it is alive;
                // holders confirmed dead are pruned, and the updated record
                // is re-published so later fetches don't fail over through
                // a dead replica.
                let owner_key = self.nodes[owner].key;
                if owner_key != node {
                    let mut meta = meta.clone();
                    let old_primary = node;
                    meta.replicas.retain(|k| *k != owner_key);
                    let old_alive = self
                        .node_index(old_primary)
                        .is_some_and(|j| self.nodes[j].alive);
                    if old_alive && !meta.replicas.contains(&old_primary) {
                        meta.replicas.push(old_primary);
                    }
                    meta.replicas
                        .retain(|k| self.node_index(*k).is_none_or(|j| self.nodes[j].alive));
                    meta.location = Location::Home { node: owner_key };
                    if self.replicas.get(meta.name).is_some() {
                        self.replicas.insert(meta.name, meta.clone());
                    }
                    self.publish_meta_background(op.client, meta.clone());
                    op.meta = Some(meta);
                }
                p.staged = Some(blob);
                let read = self.nodes[owner].disk.read_time(op.meta_bytes());
                self.enter_for(op, Stage::ProcReadArg, read)
            }
            Location::Cloud { url } => {
                let Some(url) = S3Url::parse(url.as_str()) else {
                    return Some(Err(OpError::NotFound(op.name.to_string())));
                };
                let cloud = self.cloud.as_mut().expect("cloud location requires cloud");
                match cloud.s3.get(&url) {
                    Ok(obj) => {
                        p.staged = Some(obj.payload.clone());
                        op.via_cloud = true;
                        self.enter_for(op, Stage::ProcReadArg, REQUEST_LATENCY)
                    }
                    Err(_) => Some(Err(OpError::NotFound(op.name.to_string()))),
                }
            }
        }
    }

    fn proc_start_move_flow(&mut self, op: &mut OpCore, p: &mut Process) -> StepOutcome {
        let src = self.owner_addr(op);
        let dst = self.target_addr(p.exec_target.expect("target chosen"));
        if src == dst {
            return self.proc_start_exec(op, p);
        }
        self.enter(op, Stage::ProcMoveArg);
        self.start_flow_for_op(op.id, src, dst, op.meta_bytes());
        None
    }

    fn target_addr(&self, target: ExecTarget) -> Addr {
        match target {
            ExecTarget::Node(j) => self.nodes[j].addr,
            ExecTarget::Cloud => self.cloud.as_ref().expect("cloud target").addr,
        }
    }

    fn target_name(&self, target: ExecTarget) -> String {
        match target {
            ExecTarget::Node(j) => self.nodes[j].name.clone(),
            ExecTarget::Cloud => "cloud".into(),
        }
    }

    fn proc_start_exec(&mut self, op: &mut OpCore, p: &mut Process) -> StepOutcome {
        let kind = p.current();
        let sid = ServiceId(kind.id());
        let target = p.exec_target.expect("target chosen");
        // The executor may have died or been cut off since it was chosen.
        match target {
            ExecTarget::Node(j) if !self.nodes[j].alive || !self.node_reachable(op.client, j) => {
                return self.proc_redispatch(op, p, "executor offline");
            }
            ExecTarget::Cloud if self.cloud.is_none() || !self.cloud_reachable(op.client) => {
                return self.proc_redispatch(op, p, "cloud unreachable");
            }
            _ => {}
        }
        let size = op.meta_bytes();
        let (duration, demand) = match target {
            ExecTarget::Node(j) => {
                let svc = self.nodes[j]
                    .registry
                    .get(sid)
                    .cloned()
                    .expect("placement validated the service");
                let demand = svc.demand(size);
                let load =
                    self.nodes[j].sampler.active_tasks() as f64 + self.config.nodes[j].ambient_load;
                let d = estimate_exec(
                    &demand,
                    self.nodes[j].machine.platform(),
                    self.nodes[j].service_vm,
                    load,
                );
                self.nodes[j]
                    .sampler
                    .task_started(demand.exec.mem_required_mib);
                (d, demand)
            }
            ExecTarget::Cloud => {
                let cloud = self.cloud.as_mut().expect("cloud target");
                let svc = cloud
                    .registry
                    .get(sid)
                    .cloned()
                    .expect("placement validated the service");
                let demand = svc.demand(size);
                let load = cloud.active_tasks as f64 * 0.2 + 0.15;
                let d = estimate_exec(&demand, cloud.platform(), cloud.instance_vm, load);
                cloud.active_tasks += 1;
                (d, demand)
            }
        };
        p.exec_demand = Some(demand);
        self.enter_for(op, Stage::ProcExec, duration)
    }

    fn proc_finish_exec(&mut self, op: &mut OpCore, p: &mut Process) -> StepOutcome {
        let kind = p.current();
        let sid = ServiceId(kind.id());
        let target = p.exec_target.expect("target chosen");
        let demand = p.exec_demand.expect("set at exec start");
        // The executor crashed mid-execution: the partial work died with
        // it, so re-dispatch to the next-best candidate.
        if let ExecTarget::Node(j) = target {
            if !self.nodes[j].alive {
                return self.proc_redispatch(op, p, "executor crashed");
            }
        }
        // Release the execution slot and run the real kernel on the staged
        // sample.
        let sample = p
            .staged
            .as_ref()
            .expect("argument staged")
            .sample(SAMPLE_WINDOW);
        let output = match target {
            ExecTarget::Node(j) => {
                self.nodes[j]
                    .sampler
                    .task_finished(demand.exec.mem_required_mib);
                let svc = self.nodes[j].registry.get(sid).cloned().expect("deployed");
                svc.run_traced(&sample)
            }
            ExecTarget::Cloud => {
                let cloud = self.cloud.as_mut().expect("cloud target");
                cloud.active_tasks = cloud.active_tasks.saturating_sub(1);
                let svc = cloud.registry.get(sid).cloned().expect("deployed");
                svc.run_traced(&sample)
            }
        };
        p.result_bytes = demand.output_bytes.max(output.data.len() as u64);
        p.output = Some(output);
        // Pipeline: run the next service at the same target, no re-movement.
        if p.pipeline_idx + 1 < p.pipeline.len() {
            p.pipeline_idx += 1;
            return self.proc_start_exec(op, p);
        }
        // Return the result to the requester.
        let src = self.target_addr(target);
        let dst = self.nodes[op.client].addr;
        if src == dst {
            self.proc_channel_out(op, p)
        } else {
            self.enter(op, Stage::ProcMoveResult);
            self.start_flow_for_op(op.id, src, dst, p.result_bytes);
            None
        }
    }

    fn proc_channel_out(&mut self, op: &mut OpCore, p: &mut Process) -> StepOutcome {
        let channel = self.nodes[op.client].channel_transfer(p.result_bytes);
        self.enter_for(op, Stage::ProcChannelOut, channel)
    }
}
