//! The per-node key-value record store and metadata cache.
//!
//! Each DHT root holds [`StoredValue`]s for the keys it owns. Updates carry
//! an [`OverwritePolicy`] — the paper: "Updates to Chimera have an overwrite
//! policy value that determines if the metadata needs to be overwritten, if
//! newer version of metadata is to be added by chaining, or if an error
//! should be returned."
//!
//! Intermediate hops on a request's path keep a bounded [`MetaCache`] of
//! key-value entries; entries are refreshed when newer versions pass through
//! and evicted FIFO when the cache is full.

use std::collections::VecDeque;
use std::sync::Arc;

use c4h_simnet::FxHashMap;

use serde::{Deserialize, Serialize};

use crate::key::Key;

/// What a `put` should do when the key already holds a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OverwritePolicy {
    /// Replace the stored value.
    Overwrite,
    /// Append the new value as a new version, keeping the chain.
    Chain,
    /// Fail with [`PutError::Exists`].
    Error,
}

/// Error returned by a rejected `put`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PutError {
    /// The key already exists and the policy was [`OverwritePolicy::Error`].
    Exists,
}

impl std::fmt::Display for PutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PutError::Exists => write!(f, "key already exists"),
        }
    }
}

impl std::error::Error for PutError {}

/// One older version in a record's chain. Immutable once built: an append
/// makes a new link in front of it, so every copy taken earlier keeps seeing
/// exactly the chain it was cloned from.
struct Link {
    data: Arc<[u8]>,
    prev: Option<Arc<Link>>,
}

impl Drop for Link {
    /// Unlinks the tail in a loop — the derived drop recurses once per link
    /// and overflows the stack on a long chain — and stops at the first link
    /// another copy still holds.
    fn drop(&mut self) {
        let mut next = self.prev.take();
        while let Some(link) = next {
            match Arc::into_inner(link) {
                Some(mut link) => next = link.prev.take(),
                None => break,
            }
        }
    }
}

/// A stored record: the chain of versions plus a monotonically increasing
/// version counter used for cache freshness.
///
/// The newest version is the very bytes its put carried, shared with every
/// hop, cache and replica the put reached; the older versions are
/// persistent newest-first links whose tail is shared between copies. So a
/// clone is two reference-count bumps, an overwrite allocates nothing, and
/// a chained append allocates one link (for the version it pushes down)
/// however long the chain is. Records are copied at every hop they travel
/// (replication, key transfer, get replies, caches), and none of those
/// copies may grow with the directory they carry.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct StoredValue {
    latest: Option<Arc<[u8]>>,
    older: Option<Arc<Link>>,
    len: usize,
    version: u64,
}

impl StoredValue {
    /// Creates a record holding a single initial version.
    pub fn initial(data: impl Into<Arc<[u8]>>) -> Self {
        StoredValue {
            latest: Some(data.into()),
            older: None,
            len: 1,
            version: 1,
        }
    }

    /// The newest version's bytes.
    pub fn latest(&self) -> &[u8] {
        self.latest.as_deref().unwrap_or(&[])
    }

    /// The older versions' links, newest first.
    fn links(&self) -> impl Iterator<Item = &Link> {
        std::iter::successors(self.older.as_deref(), |l| l.prev.as_deref())
    }

    /// All versions, oldest first (length 1 unless chained).
    pub fn versions(&self) -> Vec<&[u8]> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.latest.as_deref());
        out.extend(self.links().map(|l| &*l.data));
        out.reverse();
        out
    }

    /// The record's version counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies an update under `policy`, keeping `data` itself (not a copy)
    /// as the newest version.
    ///
    /// # Errors
    ///
    /// Returns [`PutError::Exists`] under [`OverwritePolicy::Error`] when a
    /// value is already present.
    pub fn apply(
        &mut self,
        data: impl Into<Arc<[u8]>>,
        policy: OverwritePolicy,
    ) -> Result<(), PutError> {
        match policy {
            OverwritePolicy::Overwrite => {
                self.older = None;
                self.len = 0;
            }
            OverwritePolicy::Chain => {
                if let Some(prev) = self.latest.take() {
                    let link = Link {
                        data: prev,
                        prev: self.older.take(),
                    };
                    self.older = Some(Arc::new(link));
                }
            }
            OverwritePolicy::Error => return Err(PutError::Exists),
        }
        self.latest = Some(data.into());
        self.len += 1;
        self.version += 1;
        Ok(())
    }
}

/// Equality is by content (counter, length, bytes), never by pointer: two
/// nodes that built the same chain independently hold equal records.
impl PartialEq for StoredValue {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.len == other.len
            && self.latest == other.latest
            && self
                .links()
                .zip(other.links())
                // From a link both chains share, the rest is the same memory.
                .take_while(|(a, b)| !std::ptr::eq(*a, *b))
                .all(|(a, b)| a.data == b.data)
    }
}

impl Eq for StoredValue {}

/// Prints what the derive printed for a vector of versions; the derive on the
/// links would nest (and recurse) once per version.
impl std::fmt::Debug for StoredValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredValue")
            .field("versions", &self.versions())
            .field("version", &self.version)
            .finish()
    }
}

/// The records a node owns as DHT root.
#[derive(Debug, Clone, Default)]
pub struct LocalStore {
    records: FxHashMap<Key, StoredValue>,
}

impl LocalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        LocalStore::default()
    }

    /// Number of owned records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no records are owned.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up a record.
    pub fn get(&self, key: Key) -> Option<&StoredValue> {
        self.records.get(&key)
    }

    /// Applies a `put` under the given policy, returning the resulting
    /// record version.
    ///
    /// # Errors
    ///
    /// Returns [`PutError::Exists`] under [`OverwritePolicy::Error`] when the
    /// key is already present.
    pub fn put(
        &mut self,
        key: Key,
        data: impl Into<Arc<[u8]>>,
        policy: OverwritePolicy,
    ) -> Result<u64, PutError> {
        match self.records.get_mut(&key) {
            Some(v) => {
                v.apply(data, policy)?;
                Ok(v.version())
            }
            None => {
                let v = StoredValue::initial(data);
                let version = v.version();
                self.records.insert(key, v);
                Ok(version)
            }
        }
    }

    /// Installs a full record (replica adoption / key transfer), keeping the
    /// newer version if one already exists.
    pub fn install(&mut self, key: Key, value: StoredValue) {
        match self.records.get_mut(&key) {
            Some(existing) if existing.version() >= value.version() => {}
            _ => {
                self.records.insert(key, value);
            }
        }
    }

    /// Removes and returns a record.
    pub fn remove(&mut self, key: Key) -> Option<StoredValue> {
        self.records.remove(&key)
    }

    /// Iterates over all owned records.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &StoredValue)> {
        self.records.iter().map(|(k, v)| (*k, v))
    }

    /// Drains records selected by the predicate (used for key
    /// redistribution when membership changes).
    pub fn drain_matching<F>(&mut self, mut pred: F) -> Vec<(Key, StoredValue)>
    where
        F: FnMut(Key) -> bool,
    {
        // Key order, not hash-map order: callers forward these records to
        // peers, and the send order must be identical across same-seed runs.
        let mut keys: Vec<Key> = self.records.keys().copied().filter(|&k| pred(k)).collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| (k, self.records.remove(&k).expect("key just listed")))
            .collect()
    }
}

/// Bounded FIFO cache of key-value entries held at intermediate hops.
#[derive(Debug, Clone)]
pub struct MetaCache {
    capacity: usize,
    entries: FxHashMap<Key, StoredValue>,
    order: VecDeque<Key>,
    hits: u64,
    misses: u64,
}

impl MetaCache {
    /// Creates a cache bounded to `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        MetaCache {
            capacity,
            entries: FxHashMap::default(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up a cached value, recording hit/miss statistics.
    pub fn lookup(&mut self, key: Key) -> Option<StoredValue> {
        match self.entries.get(&key) {
            Some(v) => {
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts or refreshes an entry; stale versions never replace newer
    /// ones.
    pub fn insert(&mut self, key: Key, value: StoredValue) {
        if self.capacity == 0 {
            return;
        }
        if let Some(existing) = self.entries.get(&key) {
            if existing.version() >= value.version() {
                return;
            }
            self.entries.insert(key, value);
            return;
        }
        while self.entries.len() >= self.capacity {
            let Some(evict) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&evict);
        }
        self.entries.insert(key, value);
        self.order.push_back(key);
    }

    /// Applies an update flowing through this hop to an existing cache entry
    /// ("whenever a key-value entry is modified, the corresponding caches
    /// are also updated"). Entries not present are not created. The entry
    /// shares `data` with the update; nothing is copied.
    pub fn update_in_place(&mut self, key: Key, data: &Arc<[u8]>, policy: OverwritePolicy) {
        if let Some(v) = self.entries.get_mut(&key) {
            // A failed apply under `Error` means the cached copy is current.
            let _ = v.apply(Arc::clone(data), policy);
        }
    }

    /// Drops an entry.
    pub fn invalidate(&mut self, key: Key) {
        self.entries.remove(&key);
        self.order.retain(|&k| k != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u64) -> Key {
        Key::from_raw(n)
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut s = LocalStore::new();
        s.put(k(1), b"a".to_vec(), OverwritePolicy::Overwrite)
            .unwrap();
        let v2 = s
            .put(k(1), b"b".to_vec(), OverwritePolicy::Overwrite)
            .unwrap();
        assert_eq!(v2, 2);
        let rec = s.get(k(1)).unwrap();
        assert_eq!(rec.latest(), b"b");
        assert_eq!(rec.versions().len(), 1);
    }

    #[test]
    fn chain_appends_versions() {
        let mut s = LocalStore::new();
        s.put(k(1), b"a".to_vec(), OverwritePolicy::Chain).unwrap();
        s.put(k(1), b"b".to_vec(), OverwritePolicy::Chain).unwrap();
        let rec = s.get(k(1)).unwrap();
        assert_eq!(rec.versions().len(), 2);
        assert_eq!(rec.latest(), b"b");
        assert_eq!(rec.versions()[0], b"a");
    }

    #[test]
    fn clone_shares_storage_and_never_sees_later_appends() {
        let mut rec = StoredValue::initial(b"a".to_vec());
        rec.apply(b"b".to_vec(), OverwritePolicy::Chain).unwrap();
        let copy = rec.clone();
        let latest = |v: &StoredValue| v.latest.clone().expect("non-empty");
        let older = |v: &StoredValue| v.older.clone().expect("chained");
        assert!(
            Arc::ptr_eq(&latest(&rec), &latest(&copy)) && Arc::ptr_eq(&older(&rec), &older(&copy)),
            "clone copies no bytes"
        );
        rec.apply(b"c".to_vec(), OverwritePolicy::Chain).unwrap();
        // The append pushed the shared newest version into one new link in
        // front of the chain both still share.
        let pushed = older(&rec);
        assert!(Arc::ptr_eq(&pushed.data, &latest(&copy)));
        assert!(Arc::ptr_eq(
            pushed.prev.as_ref().expect("the oldest version"),
            &older(&copy)
        ));
        assert_eq!(copy.versions(), [b"a", b"b"]);
        assert_eq!(copy.version(), 2);
        assert_eq!(rec.versions(), [b"a", b"b", b"c"]);
        // Equality is by content: a chain built separately is equal.
        let mut rebuilt = StoredValue::initial(b"a".to_vec());
        rebuilt
            .apply(b"b".to_vec(), OverwritePolicy::Chain)
            .unwrap();
        assert_eq!(rebuilt, copy);
        assert_ne!(rebuilt, rec);
        assert_eq!(StoredValue::default().latest(), b"");
    }

    /// The derived drop recurses once per link; this chain needs far more
    /// frames than the thread's stack holds.
    #[test]
    fn million_link_chain_drops_on_a_small_stack() {
        let body = || {
            let mut rec = StoredValue::default();
            let mut kept = None;
            for i in 0..1_000_000u32 {
                rec.apply(Vec::new(), OverwritePolicy::Chain).unwrap();
                if i == 600_000 {
                    kept = Some(rec.clone());
                }
            }
            assert_eq!(rec.version(), 1_000_000);
            // Stops at the link `kept` still holds, which then frees the rest.
            drop(rec);
            let kept = kept.expect("taken mid-way");
            assert_eq!(kept.versions().len(), 600_001);
            drop(kept);
        };
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(body)
            .expect("spawn")
            .join()
            .expect("no stack overflow");
    }

    #[test]
    fn error_policy_rejects_existing() {
        let mut s = LocalStore::new();
        s.put(k(1), b"a".to_vec(), OverwritePolicy::Error).unwrap();
        let err = s
            .put(k(1), b"b".to_vec(), OverwritePolicy::Error)
            .unwrap_err();
        assert_eq!(err, PutError::Exists);
        assert_eq!(s.get(k(1)).unwrap().latest(), b"a");
        // Fresh keys are accepted.
        s.put(k(2), b"c".to_vec(), OverwritePolicy::Error).unwrap();
    }

    #[test]
    fn install_keeps_newer_version() {
        let mut s = LocalStore::new();
        s.put(k(1), b"a".to_vec(), OverwritePolicy::Overwrite)
            .unwrap();
        s.put(k(1), b"b".to_vec(), OverwritePolicy::Overwrite)
            .unwrap();
        // An older replica must not clobber the newer record.
        s.install(k(1), StoredValue::initial(b"old".to_vec()));
        assert_eq!(s.get(k(1)).unwrap().latest(), b"b");
        // A newer record replaces.
        let mut newer = StoredValue::initial(b"x".to_vec());
        for _ in 0..5 {
            newer
                .apply(b"y".to_vec(), OverwritePolicy::Overwrite)
                .unwrap();
        }
        s.install(k(1), newer.clone());
        assert_eq!(s.get(k(1)).unwrap().version(), newer.version());
    }

    #[test]
    fn drain_matching_moves_records() {
        let mut s = LocalStore::new();
        for i in 0..10 {
            s.put(k(i), vec![i as u8], OverwritePolicy::Overwrite)
                .unwrap();
        }
        let drained = s.drain_matching(|key| key.raw() % 2 == 0);
        assert_eq!(drained.len(), 5);
        assert_eq!(s.len(), 5);
        assert!(s.get(k(0)).is_none());
        assert!(s.get(k(1)).is_some());
    }

    #[test]
    fn cache_hits_and_misses_counted() {
        let mut c = MetaCache::new(4);
        assert!(c.lookup(k(1)).is_none());
        c.insert(k(1), StoredValue::initial(b"v".to_vec()));
        assert_eq!(c.lookup(k(1)).unwrap().latest(), b"v");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn cache_evicts_fifo() {
        let mut c = MetaCache::new(2);
        c.insert(k(1), StoredValue::initial(vec![1]));
        c.insert(k(2), StoredValue::initial(vec![2]));
        c.insert(k(3), StoredValue::initial(vec![3]));
        assert!(c.lookup(k(1)).is_none(), "oldest entry evicted");
        assert!(c.lookup(k(2)).is_some());
        assert!(c.lookup(k(3)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cache_never_downgrades_versions() {
        let mut c = MetaCache::new(4);
        let mut newer = StoredValue::initial(vec![1]);
        newer.apply(vec![2], OverwritePolicy::Overwrite).unwrap();
        c.insert(k(1), newer.clone());
        c.insert(k(1), StoredValue::initial(vec![9]));
        assert_eq!(c.lookup(k(1)).unwrap(), newer);
    }

    #[test]
    fn cache_update_in_place_only_touches_existing() {
        let mut c = MetaCache::new(4);
        c.update_in_place(k(1), &Arc::from(*b"x"), OverwritePolicy::Overwrite);
        assert!(c.is_empty());
        c.insert(k(1), StoredValue::initial(b"a".to_vec()));
        let update = Arc::from(*b"b");
        c.update_in_place(k(1), &update, OverwritePolicy::Overwrite);
        let hit = c.lookup(k(1)).unwrap();
        assert_eq!(hit.latest(), b"b");
        assert!(
            Arc::ptr_eq(hit.latest.as_ref().unwrap(), &update),
            "shared, not copied"
        );
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut c = MetaCache::new(0);
        c.insert(k(1), StoredValue::initial(vec![1]));
        assert!(c.lookup(k(1)).is_none());
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = MetaCache::new(2);
        c.insert(k(1), StoredValue::initial(vec![1]));
        c.invalidate(k(1));
        assert!(c.lookup(k(1)).is_none());
        // Room freed: inserting two more keeps both.
        c.insert(k(2), StoredValue::initial(vec![2]));
        c.insert(k(3), StoredValue::initial(vec![3]));
        assert_eq!(c.len(), 2);
    }
}

/// The record representation the store had before the newest version moved
/// out of the chain — every version, the newest included, in its own link —
/// kept verbatim as the oracle for [`StoredValue`] (CI runs these by name:
/// `record_oracle`).
#[cfg(test)]
mod record_oracle {
    use super::*;
    use proptest::prelude::*;

    struct Link {
        data: Vec<u8>,
        prev: Option<Arc<Link>>,
    }

    impl Drop for Link {
        fn drop(&mut self) {
            let mut next = self.prev.take();
            while let Some(link) = next {
                match Arc::into_inner(link) {
                    Some(mut link) => next = link.prev.take(),
                    None => break,
                }
            }
        }
    }

    #[derive(Clone, Default)]
    struct OldValue {
        head: Option<Arc<Link>>,
        len: usize,
        version: u64,
    }

    impl OldValue {
        fn latest(&self) -> &[u8] {
            self.head.as_deref().map_or(&[], |l| l.data.as_slice())
        }

        fn links(&self) -> impl Iterator<Item = &Link> {
            std::iter::successors(self.head.as_deref(), |l| l.prev.as_deref())
        }

        fn versions(&self) -> Vec<&[u8]> {
            let mut out = Vec::with_capacity(self.len);
            out.extend(self.links().map(|l| l.data.as_slice()));
            out.reverse();
            out
        }

        fn version(&self) -> u64 {
            self.version
        }

        fn apply(&mut self, data: Vec<u8>, policy: OverwritePolicy) -> Result<(), PutError> {
            let prev = match policy {
                OverwritePolicy::Overwrite => {
                    self.len = 0;
                    None
                }
                OverwritePolicy::Chain => self.head.take(),
                OverwritePolicy::Error => return Err(PutError::Exists),
            };
            self.head = Some(Arc::new(Link { data, prev }));
            self.len += 1;
            self.version += 1;
            Ok(())
        }
    }

    impl PartialEq for OldValue {
        fn eq(&self, other: &Self) -> bool {
            self.version == other.version
                && self.len == other.len
                && self
                    .links()
                    .zip(other.links())
                    .take_while(|(a, b)| !std::ptr::eq(*a, *b))
                    .all(|(a, b)| a.data == b.data)
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        Apply(usize, Vec<u8>, OverwritePolicy),
        /// Chains this many one-byte versions onto a held value, so chains
        /// grow past 64 versions within a sequence.
        Burst(usize, u8),
        /// Copies a held value; later applies to either copy must not show
        /// in the other.
        Clone(usize),
        /// Puts the held value into the cache (a newer version only).
        CacheInsert(usize),
        /// An update passing a hop: applied to the cached copy, if any.
        CacheUpdate(Vec<u8>, OverwritePolicy),
        CacheInvalidate,
    }

    fn step() -> impl Strategy<Value = Step> {
        // Three bytes of a three-letter alphabet, so separately built
        // versions are often equal and `==` has to look at content.
        let data = || proptest::collection::vec(0u8..3, 0..3);
        let policy = || {
            prop_oneof![
                Just(OverwritePolicy::Overwrite),
                Just(OverwritePolicy::Chain),
                Just(OverwritePolicy::Chain),
                Just(OverwritePolicy::Chain),
                Just(OverwritePolicy::Chain),
                Just(OverwritePolicy::Error),
            ]
        };
        prop_oneof![
            (any::<usize>(), data(), policy()).prop_map(|(i, d, p)| Step::Apply(i, d, p)),
            (any::<usize>(), data(), policy()).prop_map(|(i, d, p)| Step::Apply(i, d, p)),
            (any::<usize>(), data(), policy()).prop_map(|(i, d, p)| Step::Apply(i, d, p)),
            (any::<usize>(), 1u8..24).prop_map(|(i, n)| Step::Burst(i, n)),
            any::<usize>().prop_map(Step::Clone),
            any::<usize>().prop_map(Step::CacheInsert),
            (data(), policy()).prop_map(|(d, p)| Step::CacheUpdate(d, p)),
            Just(Step::CacheInvalidate),
        ]
    }

    fn check(new: &StoredValue, old: &OldValue) -> Result<(), TestCaseError> {
        prop_assert_eq!(new.latest(), old.latest());
        prop_assert_eq!(new.versions(), old.versions());
        prop_assert_eq!(new.version(), old.version());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every held copy reads what the old representation reads after
        /// every step, and any two copies are equal exactly when their old
        /// twins are. Bursts of chained appends grow chains past 64 versions.
        #[test]
        fn stored_value_matches_the_old_representation(
            steps in proptest::collection::vec(step(), 0..120),
        ) {
            let key = Key::from_raw(3);
            let mut held = vec![(StoredValue::default(), OldValue::default())];
            let (mut cache, mut cached) = (MetaCache::new(2), None::<OldValue>);
            for s in steps {
                match s {
                    Step::Apply(i, data, policy) => {
                        let i = i % held.len();
                        let (new, old) = &mut held[i];
                        let ok = new.apply(data.clone(), policy).is_ok();
                        prop_assert_eq!(ok, old.apply(data, policy).is_ok());
                    }
                    Step::Burst(i, n) => {
                        let i = i % held.len();
                        let (new, old) = &mut held[i];
                        for b in 0..n {
                            new.apply(vec![b % 3], OverwritePolicy::Chain).unwrap();
                            old.apply(vec![b % 3], OverwritePolicy::Chain).unwrap();
                        }
                    }
                    Step::Clone(i) => {
                        let copy = held[i % held.len()].clone();
                        held.push(copy);
                    }
                    Step::CacheInsert(i) => {
                        let (new, old) = held[i % held.len()].clone();
                        cache.insert(key, new);
                        if cached.as_ref().is_none_or(|c| c.version() < old.version()) {
                            cached = Some(old);
                        }
                    }
                    Step::CacheUpdate(data, policy) => {
                        cache.update_in_place(key, &Arc::from(data.as_slice()), policy);
                        if let Some(old) = &mut cached {
                            let _ = old.apply(data, policy);
                        }
                    }
                    Step::CacheInvalidate => {
                        cache.invalidate(key);
                        cached = None;
                    }
                }
                for (new, old) in &held {
                    check(new, old)?;
                }
                for (a, (new_a, old_a)) in held.iter().enumerate() {
                    for (new_b, old_b) in &held[a..] {
                        prop_assert_eq!(new_a == new_b, old_a == old_b);
                    }
                }
                let hit = cache.lookup(key);
                prop_assert_eq!(hit.is_some(), cached.is_some());
                if let (Some(new), Some(old)) = (&hit, &cached) {
                    check(new, old)?;
                    for (new_b, old_b) in &held {
                        prop_assert_eq!(new == new_b, old == old_b);
                    }
                }
            }
        }
    }
}
