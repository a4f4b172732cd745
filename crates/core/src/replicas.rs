//! The replicated-object index and the two work sets its periodic passes
//! walk.
//!
//! The adaptive review and the anti-entropy sweep used to visit every
//! indexed object on every pass. A home cloud is mostly an archive, so
//! nearly all of those looks could only repeat the last one: an object
//! that is whole, cold and at its floor stays so until an event names it.
//! [`ReplicaIndex`] therefore keeps, beside the metadata and its inverse
//! holder index, the names whose next look *can* differ from their last —
//! `adaptive_due` and `repair_suspects` — and owns every mutation that can
//! put a name there, so a missing mark is hard to write: [`insert`] marks
//! both sets, [`remove`] unmarks both, [`holder_flipped`] marks a node's
//! holdings, [`fetched`] marks a read object for review. A name leaves a
//! set only when the pass's pure verdict ([`Review::Settled`],
//! [`Repair::Whole`]) proves time alone cannot change the answer.
//!
//! Both sets are `BTreeSet<Sym>` — `Sym` orders by string content — so a
//! pass visits its names in the same lexicographic order the walk over the
//! whole map did: placement work started in one pass competes for bins and
//! sites in name order, and that order is part of the byte contract.
//!
//! [`insert`]: ReplicaIndex::insert
//! [`remove`]: ReplicaIndex::remove
//! [`holder_flipped`]: ReplicaIndex::holder_flipped
//! [`fetched`]: ReplicaIndex::fetched

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use c4h_chimera::Key;
use c4h_kvstore::{Location, ObjectMeta};
use c4h_simnet::{FxHashMap, SimTime, Sym};

use crate::policy::AdaptiveAction;

/// What one adaptive review of an object would do — a pure read of the
/// runtime, shared by the pass and its debug oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Review {
    /// Nothing to do, and no amount of silence changes that: gone, already
    /// striped, not home-located, no live holder, or holding at or below
    /// the cold rate (the decayed rate only falls). Leaves `adaptive_due`.
    Settled,
    /// Nothing to do this pass, but a transfer landing or the object
    /// cooling may change that.
    Stay,
    /// Grow, shrink or convert — never `Hold`. Whether or not the action
    /// starts (bins, partitions, breakers and budgets can refuse it), the
    /// object is looked at again next pass.
    Act {
        /// The band's verdict.
        action: AdaptiveAction,
        /// The object's size.
        size: u64,
    },
}

/// What one repair visit of an object would find — a pure read of the
/// runtime, shared by the sweep and its debug oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repair {
    /// Nothing a repair could add: gone, not home-located, no live copy to
    /// repair from, live copies at or above the target, or every code row
    /// live and present. Leaves `repair_suspects`.
    Whole,
    /// Fewer live full copies than the target.
    ShortCopies {
        /// The object's size.
        size: u64,
    },
    /// An erasure-coded object with a lost row.
    ShortRows,
}

/// The names one periodic pass still has to look at, and when it may next
/// run (both passes piggyback on the runtime tick).
#[derive(Debug, Default)]
pub(crate) struct WorkSet {
    names: BTreeSet<Sym>,
    next: SimTime,
}

impl WorkSet {
    /// If the pass is due at `now`: re-arms it `every` later, copies the
    /// names into `out` in order and returns `true`. The pass walks the
    /// copy because the work it starts re-marks the name it is working on.
    pub(crate) fn snapshot_if_due(
        &mut self,
        now: SimTime,
        every: Duration,
        out: &mut Vec<Sym>,
    ) -> bool {
        if now < self.next {
            return false;
        }
        self.next = now + every;
        out.clear();
        out.extend(self.names.iter().copied());
        true
    }

    /// Takes `name` out: its verdict said nothing can change without an
    /// event that marks it again.
    pub(crate) fn clear(&mut self, name: Sym) {
        self.names.remove(&name);
    }

    /// Whether `name` is still to be looked at.
    pub(crate) fn contains(&self, name: Sym) -> bool {
        self.names.contains(&name)
    }

    /// Every name still to be looked at.
    pub(crate) fn names(&self) -> &BTreeSet<Sym> {
        &self.names
    }
}

/// Metadata of replicated home objects with its inverse holder index and
/// the two work sets (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ReplicaIndex {
    /// `BTreeMap` so scans are deterministic.
    meta: BTreeMap<Sym, ObjectMeta>,
    /// Holder key → names of the objects it holds a copy or stripe of.
    /// Keyed access only; the per-holder `BTreeSet` keeps scan order
    /// deterministic.
    held: FxHashMap<Key, BTreeSet<Sym>>,
    /// Objects the adaptive pass reviews.
    pub(crate) adaptive_due: WorkSet,
    /// Objects the anti-entropy sweep visits.
    pub(crate) repair_suspects: WorkSet,
    /// How many objects repair scans have visited (`maybe_repair` calls)
    /// and adaptive passes have reviewed; exposed so tests can assert both
    /// follow what can change, not what exists.
    pub(crate) repair_scan_visits: u64,
    pub(crate) adaptive_review_visits: u64,
}

/// Every holder key a metadata record names: the home primary plus the
/// replica set and the stripe holders (dead or alive — liveness is the
/// scan's concern).
pub(crate) fn holder_keys(meta: &ObjectMeta) -> impl Iterator<Item = Key> + '_ {
    let primary = match meta.location {
        Location::Home { node } => Some(node),
        _ => None,
    };
    primary
        .into_iter()
        .chain(meta.replicas.iter().copied())
        .chain(meta.ec.iter().flat_map(|l| l.holders.iter().copied()))
}

impl ReplicaIndex {
    /// The indexed metadata of `name`.
    pub(crate) fn get(&self, name: Sym) -> Option<&ObjectMeta> {
        self.meta.get(&name)
    }

    /// Inserts (or replaces) an object's metadata and marks it for both
    /// passes: a new record is a new input to both verdicts.
    pub(crate) fn insert(&mut self, name: Sym, meta: ObjectMeta) {
        self.unindex(name);
        for key in holder_keys(&meta) {
            self.held.entry(key).or_default().insert(name);
        }
        self.meta.insert(name, meta);
        self.adaptive_due.names.insert(name);
        self.repair_suspects.names.insert(name);
    }

    /// Removes an object's metadata, index entries and marks.
    pub(crate) fn remove(&mut self, name: Sym) {
        self.unindex(name);
        self.adaptive_due.names.remove(&name);
        self.repair_suspects.names.remove(&name);
    }

    /// Takes `name`'s record out and drops it from every holder's set,
    /// pruning holders left with no objects.
    fn unindex(&mut self, name: Sym) {
        let Some(old) = self.meta.remove(&name) else {
            return;
        };
        for key in holder_keys(&old) {
            if let Some(set) = self.held.get_mut(&key) {
                set.remove(&name);
                if set.is_empty() {
                    self.held.remove(&key);
                }
            }
        }
    }

    /// The objects `holder` is named a holder of, in name order.
    pub(crate) fn held_by(&self, holder: Key) -> impl Iterator<Item = Sym> + '_ {
        self.held.get(&holder).into_iter().flatten().copied()
    }

    /// `holder` crashed, left or rejoined: the live-copy count of every
    /// object it holds moved, so both verdicts may have too.
    pub(crate) fn holder_flipped(&mut self, holder: Key) {
        if let Some(names) = self.held.get(&holder) {
            self.adaptive_due.names.extend(names.iter().copied());
            self.repair_suspects.names.extend(names.iter().copied());
        }
    }

    /// A fetch of `name` fed its heat estimate: review it.
    pub(crate) fn fetched(&mut self, name: Sym) {
        if self.meta.contains_key(&name) {
            self.adaptive_due.names.insert(name);
        }
    }

    /// The metadata and its inverse holder index, read-only.
    pub(crate) fn maps(&self) -> (&BTreeMap<Sym, ObjectMeta>, &FxHashMap<Key, BTreeSet<Sym>>) {
        (&self.meta, &self.held)
    }

    /// The indexed names a pass does *not* look at, for its debug oracle.
    pub(crate) fn outside<'a>(&'a self, set: &'a WorkSet) -> impl Iterator<Item = Sym> + 'a {
        self.meta.keys().copied().filter(|&n| !set.contains(n))
    }
}

#[cfg(test)]
impl ReplicaIndex {
    /// Drops `name` from `holder`'s set and nothing else, as a broken
    /// unindex would: the invariant audit's holder row must see it.
    pub(crate) fn forget_holding(&mut self, holder: Key, name: Sym) {
        if let Some(set) = self.held.get_mut(&holder) {
            set.remove(&name);
        }
    }

    /// Marks `name` for the adaptive pass whether or not it is indexed.
    pub(crate) fn mark_due(&mut self, name: Sym) {
        self.adaptive_due.names.insert(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str) -> Key {
        Key::from_name(name)
    }

    fn meta(name: &str, primary: &str, replicas: &[&str]) -> ObjectMeta {
        ObjectMeta {
            name: Sym::new(name),
            size_bytes: 1,
            content_type: "doc".into(),
            tags: Vec::new(),
            location: Location::Home { node: key(primary) },
            private: false,
            owner: key(primary),
            acl: Default::default(),
            created_at_ns: 0,
            replicas: replicas.iter().map(|r| key(r)).collect(),
            ec: None,
        }
    }

    fn due(set: &mut WorkSet) -> Vec<String> {
        let mut out = Vec::new();
        set.next = SimTime::ZERO;
        assert!(set.snapshot_if_due(SimTime::ZERO, Duration::ZERO, &mut out));
        out.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn insert_marks_both_sets_and_remove_unmarks() {
        let mut idx = ReplicaIndex::default();
        for name in ["b", "a", "c"] {
            idx.insert(Sym::new(name), meta(name, "n0", &["n1"]));
        }
        assert_eq!(due(&mut idx.adaptive_due), ["a", "b", "c"]);
        assert_eq!(due(&mut idx.repair_suspects), ["a", "b", "c"]);
        idx.remove(Sym::new("b"));
        assert_eq!(due(&mut idx.adaptive_due), ["a", "c"]);
        assert_eq!(due(&mut idx.repair_suspects), ["a", "c"]);
        assert!(idx.get(Sym::new("b")).is_none());
        assert_eq!(idx.held_by(key("n1")).count(), 2);
    }

    #[test]
    fn a_holder_flip_marks_exactly_its_holdings() {
        let mut idx = ReplicaIndex::default();
        idx.insert(Sym::new("x"), meta("x", "n0", &["n1"]));
        idx.insert(Sym::new("y"), meta("y", "n0", &["n2"]));
        idx.insert(Sym::new("z"), meta("z", "n2", &[]));
        for name in ["x", "y", "z"] {
            idx.adaptive_due.clear(Sym::new(name));
            idx.repair_suspects.clear(Sym::new(name));
        }
        idx.holder_flipped(key("n2"));
        assert_eq!(due(&mut idx.adaptive_due), ["y", "z"]);
        assert_eq!(due(&mut idx.repair_suspects), ["y", "z"]);
        assert_eq!(
            idx.outside(&idx.repair_suspects)
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            ["x"]
        );
        // A holder nobody names marks nothing.
        idx.holder_flipped(key("n9"));
        assert_eq!(due(&mut idx.adaptive_due), ["y", "z"]);
    }

    #[test]
    fn a_fetch_marks_only_indexed_names_and_only_for_review() {
        let mut idx = ReplicaIndex::default();
        idx.insert(Sym::new("x"), meta("x", "n0", &[]));
        idx.adaptive_due.clear(Sym::new("x"));
        idx.repair_suspects.clear(Sym::new("x"));
        idx.fetched(Sym::new("x"));
        idx.fetched(Sym::new("cloud-only"));
        assert_eq!(due(&mut idx.adaptive_due), ["x"]);
        assert!(due(&mut idx.repair_suspects).is_empty());
    }

    #[test]
    fn replacing_a_record_moves_its_holder_entries() {
        let mut idx = ReplicaIndex::default();
        idx.insert(Sym::new("x"), meta("x", "n0", &["n1"]));
        idx.insert(Sym::new("x"), meta("x", "n0", &["n2"]));
        assert_eq!(idx.held_by(key("n1")).count(), 0);
        assert_eq!(idx.held_by(key("n2")).count(), 1);
        assert!(!idx.held.contains_key(&key("n1")), "empty sets are pruned");
    }

    /// A seeded tour of everything that can move a verdict — partial
    /// replication, hot bursts, cooling, conversions with a stripe holder
    /// lost mid-way, rejoin, partition and heal, delete and overwrite of
    /// an object under review, a graceful leave — run in a debug build, so
    /// every pass on the way checks its complement oracle. At idle the
    /// converse must hold too: the sets contain only names whose verdict
    /// says they may still change, and every surviving object is as whole
    /// as the surviving nodes allow.
    #[test]
    fn seeded_scenarios_keep_both_sets_exact() {
        use crate::{Cloud4Home, Config, FaultEvent, NodeId, NodeSpec, Object, StorePolicy};
        use c4h_simnet::DetRng;

        const MIB: u64 = 1 << 20;
        let secs = Duration::from_secs;
        let (mut converted, mut crashed_mid_convert, mut grown, mut short_stores) = (0, 0, 0, 0);
        let mut deletes = 0;
        for seed in 0..24u64 {
            let mut rng = DetRng::seed(0x19_0000 + seed);
            let mut config = Config::paper_testbed(seed);
            for i in 0..3 {
                config.nodes.push(NodeSpec::netbook(&format!("extra-{i}")));
            }
            // Guests lend no space: two of them in a roomy world; in a
            // cramped one (every fourth seed) everyone but the desktop, so
            // its own stores find no peer and publish short, and no
            // conversion finds its sites.
            let cramped = seed % 4 == 3;
            for (i, node) in config.nodes.iter_mut().enumerate() {
                if i == 1 || i == 6 || (cramped && i != 5) {
                    node.voluntary_bytes = 0;
                }
            }
            // Odd seeds defend a floor of two full copies, even seeds one.
            config.replication = 1 + (seed % 2) as usize;
            config.adaptive.enabled = true;
            config.adaptive.replication_min = config.replication;
            config.adaptive.replication_max = 4;
            let floor = config.adaptive.replication_min;
            let k = config.adaptive.ec_k;
            let mut home = Cloud4Home::new(config);
            let nodes = home.node_count();
            let client = |home: &Cloud4Home, rng: &mut DetRng, i: usize| loop {
                let id = NodeId(rng.uniform_u64(0, nodes as u64) as usize);
                if cramped && i >= 8 {
                    return NodeId(5);
                }
                if home.node_alive(id) {
                    return id;
                }
            };

            let names: Vec<String> = (0..10).map(|i| format!("tour/{seed}-{i}.bin")).collect();
            let store = |home: &mut Cloud4Home, rng: &mut DetRng, i: usize, salt: u64| {
                // Even objects are small (they stay full copies), odd ones
                // are over the 1 MiB conversion threshold.
                let size = if i.is_multiple_of(2) {
                    192 << 10
                } else {
                    (2 + i as u64 % 3) * MIB
                };
                let obj = Object::synthetic(&names[i], salt + i as u64, size, "bin");
                let op = home.store_object(client(home, rng, i), obj, StorePolicy::ForceHome, true);
                home.run_until_complete(op).partial_replication
            };
            for i in 0..names.len() {
                short_stores += u64::from(store(&mut home, &mut rng, i, 100) > 0);
            }
            // The cold large objects start converting; lose a stripe
            // holder (never the gateway, the last testbed node) mid-way.
            let mut victim = 2;
            for _ in 0..400 {
                home.run_for(Duration::from_millis(5));
                if let Some(holders) = home.jobs.converting_onto() {
                    let site = holders[1];
                    victim = home.node_index(site).filter(|&j| j != 5).unwrap_or(2);
                    crashed_mid_convert += 1;
                    break;
                }
            }
            home.crash_node(NodeId(victim));
            // A hot burst on a small object grows it.
            for _ in 0..6 {
                let op = home.fetch_object(client(&home, &mut rng, 0), &names[0]);
                home.run_until_complete(op);
                home.run_for(Duration::from_millis(1_500));
            }
            grown += u64::from(home.live_copies(&names[0]) > floor);
            home.run_for(secs(6));
            home.rejoin_node(NodeId(victim)).expect("live seed exists");
            let cut = vec![NodeId(0), NodeId(3), NodeId(7)];
            home.apply_fault(FaultEvent::Partition(vec![cut]));
            home.run_for(secs(8));
            home.apply_fault(FaultEvent::Heal);
            // Delete one object the review still has on its list and
            // overwrite another (any, when the list is empty).
            let due: Vec<usize> = (0..names.len())
                .filter(|&i| home.replicas.adaptive_due.contains(Sym::new(&names[i])))
                .collect();
            let (gone, again) = match due[..] {
                [a, b, ..] => (a, b),
                _ => (3, 4),
            };
            // Only its owner may delete an object.
            let owner = home.replicas.get(Sym::new(&names[gone])).map(|m| m.owner);
            let owner = owner.and_then(|key| home.node_index(key));
            let deleted = owner.filter(|&j| home.nodes[j].alive).is_some_and(|j| {
                let op = home.delete_object(NodeId(j), &names[gone]);
                home.run_until_complete(op).outcome.is_ok()
            });
            deletes += u64::from(deleted);
            store(&mut home, &mut rng, again, 200);
            home.run_for(secs(10));
            let leaver = (1..5).find(|&j| j != victim).expect("four candidates");
            home.leave_node(NodeId(leaver));
            // Silence: shrink back to the floor, convert, rebuild.
            home.run_for(secs(240));
            for _ in 0..3 {
                home.run_until_idle();
                home.run_for(secs(25));
            }

            let mut holders = Vec::new();
            for &name in &home.replicas.adaptive_due.names {
                let verdict = home.review_verdict(name, &mut holders);
                assert_ne!(
                    verdict,
                    Review::Settled,
                    "seed {seed}: {name} due but settled"
                );
            }
            for &name in &home.replicas.repair_suspects.names {
                let verdict = home.repair_verdict(name, &mut holders);
                assert_ne!(
                    verdict,
                    Repair::Whole,
                    "seed {seed}: {name} suspect but whole"
                );
            }
            assert!(!deleted || home.replicas.get(Sym::new(&names[gone])).is_none());
            for (name, meta) in &home.replicas.meta {
                let alive = |key: &Key| home.node_index(*key).is_some_and(|j| home.nodes[j].alive);
                if let Some(layout) = &meta.ec {
                    converted += 1;
                    let rows = layout.holders.iter().filter(|&key| alive(key)).count();
                    assert!(
                        home.repair_verdict(*name, &mut holders) == Repair::Whole || rows < k,
                        "seed {seed}: {name} is short of rows with {rows} survivors"
                    );
                } else {
                    let copies = home.live_copies(name.as_str());
                    let survivors = holder_keys(meta).filter(alive).count();
                    // Only a cramped world may stay short, and then the
                    // sweep must still have the object on its list.
                    let retrying = cramped && home.replicas.repair_suspects.contains(*name);
                    assert!(
                        copies >= floor || survivors == 0 || retrying,
                        "seed {seed}: {name} has {copies} live copies, floor {floor}"
                    );
                    let verdict = home.review_verdict(*name, &mut holders);
                    assert!(
                        copies <= floor || verdict != Review::Settled,
                        "seed {seed}: {name} settled above its floor at {copies} copies"
                    );
                }
            }
        }
        // The tour reached what it was written to reach.
        assert!(converted >= 24, "{converted} objects ended erasure-coded");
        assert!(
            crashed_mid_convert >= 12,
            "{crashed_mid_convert} mid-conversion crashes"
        );
        assert!(grown >= 12, "{grown} hot objects grew");
        assert!(
            short_stores >= 4,
            "{short_stores} stores were short of replicas"
        );
        assert!(deletes >= 12, "{deletes} deletes went through");
    }

    #[test]
    fn a_pass_runs_no_sooner_than_its_interval() {
        let mut set = WorkSet::default();
        let mut out = Vec::new();
        let every = Duration::from_secs(2);
        assert!(set.snapshot_if_due(SimTime::from_secs(1), every, &mut out));
        assert!(!set.snapshot_if_due(SimTime::from_secs(2), every, &mut out));
        assert!(set.snapshot_if_due(SimTime::from_secs(3), every, &mut out));
    }
}
