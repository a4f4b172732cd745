//! Flow ownership: who is accountable for each in-flight bulk transfer.
//!
//! Every flow the runtime starts is entered here with its endpoints and
//! exactly one [`FlowOwner`]; completion and abort both take the entry
//! out, so the owner is a type-level fact rather than a convention spread
//! over several maps. An empty table at idle means no transfer was
//! stranded.

use c4h_simnet::{Addr, FlowId, FxHashMap};

use crate::background::JobId;
use crate::report::OpId;

/// Who a flow's completion (or abort) is routed to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FlowOwner {
    /// A foreground operation parked on the transfer.
    Op(OpId),
    /// One leg of a background job (repair, store straggler, erasure-code
    /// conversion, row rebuild).
    Job(JobId),
}

#[derive(Debug)]
struct Entry {
    src: Addr,
    dst: Addr,
    owner: FlowOwner,
}

/// In-flight flows keyed by id. Keyed access only, except [`Self::cut`]
/// (which sorts), so `HashMap` ordering cannot perturb determinism.
#[derive(Debug, Default)]
pub(crate) struct FlowTable {
    flows: FxHashMap<FlowId, Entry>,
    /// How many entries are [`FlowOwner::Op`].
    op_owned: usize,
}

impl FlowTable {
    /// Enters a freshly started flow.
    pub(crate) fn insert(&mut self, flow: FlowId, src: Addr, dst: Addr, owner: FlowOwner) {
        self.op_owned += usize::from(matches!(owner, FlowOwner::Op(_)));
        let old = self.flows.insert(flow, Entry { src, dst, owner });
        debug_assert!(old.is_none(), "{flow:?} already has an owner");
    }

    /// Takes a flow out (it completed or was canceled), yielding its owner.
    pub(crate) fn remove(&mut self, flow: FlowId) -> Option<FlowOwner> {
        let owner = self.flows.remove(&flow)?.owner;
        self.op_owned -= usize::from(matches!(owner, FlowOwner::Op(_)));
        Some(owner)
    }

    /// Hands a live flow to a new owner, endpoints kept. Returns whether
    /// the flow was in the table.
    pub(crate) fn reassign(&mut self, flow: FlowId, owner: FlowOwner) -> bool {
        let Some(entry) = self.flows.get_mut(&flow) else {
            return false;
        };
        self.op_owned += usize::from(matches!(owner, FlowOwner::Op(_)));
        self.op_owned -= usize::from(matches!(entry.owner, FlowOwner::Op(_)));
        entry.owner = owner;
        true
    }

    /// Flows in flight.
    pub(crate) fn len(&self) -> usize {
        self.flows.len()
    }

    /// Flows a foreground operation is waiting on.
    pub(crate) fn op_owned(&self) -> usize {
        self.op_owned
    }

    /// Flows owned by background work (repair, fan-out, EC).
    pub(crate) fn background(&self) -> usize {
        self.flows.len() - self.op_owned
    }

    /// The flows whose endpoints satisfy `severed`, ascending by id so the
    /// abort order (and every RNG draw downstream) is deterministic.
    pub(crate) fn cut(&self, severed: impl Fn(Addr, Addr) -> bool) -> Vec<FlowId> {
        let mut flows: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, e)| severed(e.src, e.dst))
            .map(|(&flow, _)| flow)
            .collect();
        flows.sort_unstable();
        flows
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn addr(i: u64) -> Addr {
        Addr::new(i)
    }

    /// Mints real flow ids (the type has no public constructor).
    fn flow_ids(n: usize) -> Vec<FlowId> {
        use c4h_simnet::{presets, DetRng, FlowNet, SimTime};
        let mut tb = presets::paper_testbed();
        tb.topology.attach(addr(0), tb.home);
        tb.topology.attach(addr(1), tb.home);
        let mut net = FlowNet::new(tb.topology);
        let mut rng = DetRng::seed(1);
        (0..n)
            .map(|_| {
                net.start_flow(SimTime::ZERO, addr(0), addr(1), 1, &mut rng)
                    .expect("route exists")
            })
            .collect()
    }

    fn job(id: u64) -> FlowOwner {
        FlowOwner::Job(JobId(id))
    }

    #[test]
    fn owner_stays_small() {
        // One entry per in-flight flow: an id, never a job's payload.
        assert!(std::mem::size_of::<FlowOwner>() <= 16);
    }

    #[test]
    fn each_flow_has_exactly_one_owner() {
        let ids = flow_ids(2);
        let mut t = FlowTable::default();
        t.insert(ids[0], addr(0), addr(1), FlowOwner::Op(OpId(7)));
        t.insert(ids[1], addr(1), addr(2), job(3));
        assert_eq!((t.len(), t.op_owned(), t.background()), (2, 1, 1));
        assert!(matches!(t.remove(ids[0]), Some(FlowOwner::Op(OpId(7)))));
        assert!(t.remove(ids[0]).is_none(), "an owner is yielded once");
        assert_eq!((t.len(), t.op_owned(), t.background()), (1, 0, 1));
        assert!(matches!(t.remove(ids[1]), Some(FlowOwner::Job(JobId(3)))));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn reassign_keeps_endpoints_and_moves_the_op_count() {
        let ids = flow_ids(2);
        let mut t = FlowTable::default();
        t.insert(ids[0], addr(4), addr(5), FlowOwner::Op(OpId(1)));
        assert!(t.reassign(ids[0], job(1)));
        assert_eq!((t.op_owned(), t.background()), (0, 1));
        assert_eq!(t.cut(|s, d| s == addr(4) && d == addr(5)), vec![ids[0]]);
        assert!(!t.reassign(ids[1], FlowOwner::Op(OpId(2))), "unknown flow");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn cut_returns_ascending_ids() {
        let ids = flow_ids(64);
        let mut t = FlowTable::default();
        for (i, &f) in ids.iter().enumerate().rev() {
            t.insert(
                f,
                addr(i as u64 % 3),
                addr(9),
                FlowOwner::Op(OpId(i as u64)),
            );
        }
        let hit = t.cut(|src, _| src != addr(1));
        assert!(hit.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(hit.len(), ids.len() - ids.len() / 3);
    }

    /// Crash mid-fan-out, partition, heal, rejoin, a hot-object grow and
    /// erasure-code conversions with a holder lost mid-way, driven to
    /// idle: every flow found its owner on the way out, so neither the
    /// table nor the flow engine holds a stranded transfer.
    #[test]
    fn table_and_flow_engine_are_empty_at_idle_after_chaos() {
        use crate::{Cloud4Home, Config, FaultEvent, NodeId, Object, StorePolicy};
        use std::time::Duration;

        /// Runs `ms` of virtual time, noting which owners appear: an
        /// operation, and each flavour of background job.
        fn run(home: &mut Cloud4Home, kinds: &mut [bool; 5], ms: u64) {
            for _ in 0..ms.div_ceil(5) {
                home.run_for(Duration::from_millis(5));
                kinds[0] |= home.flows.op_owned() > 0;
                for flavour in home.jobs.flavours() {
                    kinds[1 + flavour] = true;
                }
                assert_eq!(home.jobs.is_empty(), home.flows.background() == 0);
            }
        }

        let mut config = Config::paper_testbed(2014);
        config.replication = 3;
        config.replica_quorum = 1; // publish early; stragglers detach
        config.fetch_sources = 3; // striped fetches: several flows per op
        config.anti_entropy_ms = 5_000;
        config.adaptive.enabled = true;
        config.adaptive.replication_max = 4; // room to grow a hot object
        let mut home = Cloud4Home::new(config);
        let mut kinds = [false; 5];

        // Fan-outs in flight on every client, then a holder dies.
        let mut ops = Vec::new();
        for i in 0..4u64 {
            let obj = Object::synthetic(&format!("chaos/{i}.bin"), i, (3 + i) << 20, "tar");
            ops.push(home.store_object(NodeId(i as usize), obj, StorePolicy::ForceHome, true));
        }
        let hot = Object::synthetic("chaos/hot.bin", 9, 512 << 10, "mp4");
        ops.push(home.store_object(NodeId(0), hot, StorePolicy::ForceHome, true));
        run(&mut home, &mut kinds, 400);
        home.crash_node(NodeId(4));
        run(&mut home, &mut kinds, 300);
        // A partition severs what the crash left; fetches race the heal.
        home.apply_fault(FaultEvent::Partition(vec![vec![NodeId(0), NodeId(1)]]));
        for i in 0..4u64 {
            ops.push(home.fetch_object(NodeId((i as usize + 2) % 4), &format!("chaos/{i}.bin")));
        }
        run(&mut home, &mut kinds, 2_000);
        home.apply_fault(FaultEvent::Heal);
        home.rejoin_node(NodeId(4)).expect("live seed exists");
        // Heat the small object past its copies; the cold large ones
        // convert to stripes meanwhile.
        for _ in 0..8 {
            ops.push(home.fetch_object(NodeId(3), "chaos/hot.bin"));
            run(&mut home, &mut kinds, 2_000);
        }
        // Lose a stripe holder, so rows rebuild (or conversions abort).
        home.crash_node(NodeId(5));
        run(&mut home, &mut kinds, 20_000);
        for op in ops {
            home.run_until_complete(op);
        }
        home.run_until_idle();

        assert_eq!(kinds, [true; 5], "script must exercise every owner kind");
        assert_eq!(home.flows.len(), 0, "stranded: {:?}", home.flows);
        assert!(home.jobs.is_empty(), "stranded: {:?}", home.jobs);
        assert_eq!(home.net.in_flight(), 0);
    }

    proptest! {
        /// The counters agree with a brute-force recount after any
        /// interleaving of insert / remove / reassign.
        #[test]
        fn counters_match_a_recount(steps in proptest::collection::vec((0usize..16, 0u8..4), 0..200)) {
            let ids = flow_ids(16);
            let mut t = FlowTable::default();
            let mut model: Vec<Option<bool>> = vec![None; ids.len()]; // Some(is_op)
            for (slot, action) in steps {
                let flow = ids[slot];
                match action {
                    0 | 1 if model[slot].is_none() => {
                        let is_op = action == 0;
                        let owner = if is_op { FlowOwner::Op(OpId(1)) } else { job(9) };
                        t.insert(flow, addr(0), addr(1), owner);
                        model[slot] = Some(is_op);
                    }
                    0 | 1 => {
                        let is_op = action == 0;
                        let owner = if is_op { FlowOwner::Op(OpId(1)) } else { job(9) };
                        prop_assert!(t.reassign(flow, owner));
                        model[slot] = Some(is_op);
                    }
                    _ => {
                        let was = model[slot].take();
                        let got = t.remove(flow).map(|o| matches!(o, FlowOwner::Op(_)));
                        prop_assert_eq!(got, was);
                    }
                }
                let live = model.iter().flatten().count();
                let ops = model.iter().flatten().filter(|&&is_op| is_op).count();
                prop_assert_eq!(t.len(), live);
                prop_assert_eq!(t.op_owned(), ops);
                prop_assert_eq!(t.background(), live - ops);
                prop_assert_eq!(t.cut(|_, _| true).len(), live);
            }
        }
    }
}
