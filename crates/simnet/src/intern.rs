//! Global string interner for hot-path object names.
//!
//! The steady-state event loop must not allocate, yet almost every record
//! the runtime touches — object metadata, replica indexes, fan-out jobs,
//! DHT record bodies — is keyed by an object *name*. Interning turns each
//! distinct name into a [`Sym`]: a `Copy` 4-byte handle that hashes and
//! compares by id, resolves to `&'static str` without locking, and crosses
//! thread boundaries freely (the prerequisite for the sharded runtime).
//!
//! # Determinism contract
//!
//! Ids are assigned in **insertion order**: the n-th distinct string
//! interned by a process gets id n−1. Two runs that intern the same
//! strings in the same order therefore assign identical ids — the same
//! property the engine's seeded RNG gives events. Two *different* runs (or
//! two tests sharing one process) may assign different ids to the same
//! string, which dictates two hard rules:
//!
//! * **Never iterate a [`SymMap`]/[`SymSet`]** where order can reach
//!   observable output — id-keyed hash order is process-history-dependent.
//!   Keyed access only; ordered walks use `BTreeMap<Sym, _>`, which is
//!   safe because [`Sym`]'s `Ord` compares the *resolved strings*, so a
//!   `BTreeMap<Sym, _>` iterates in exactly the order the old
//!   `BTreeMap<String, _>` did.
//! * **Never serialize raw ids.** Codec and export boundaries resolve
//!   `Sym → &str` ([`Sym::as_str`]) and emit the string bytes; decode
//!   re-interns. The wire format is byte-identical to the `String` era.
//!
//! # Storage
//!
//! Interned strings are leaked once into a global append-only table:
//! a mutex guards insertion (cold path — every distinct name is interned
//! exactly once per process), while resolution walks a chunked array of
//! atomics and never takes a lock or allocates. Memory grows with the set
//! of *distinct* strings ever interned, which for the simulator is the
//! object namespace — bounded and small relative to the event volume.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

use crate::hash::{FxHashMap, FxHashSet};

/// Entries per chunk of the resolution table.
const CHUNK_SIZE: usize = 1 << 12;
/// Maximum number of chunks (caps the table at ~16M distinct strings).
const MAX_CHUNKS: usize = 1 << 12;

/// A chunk: fixed array of slots, each a thin pointer to a leaked
/// `&'static str` (double indirection keeps the atomic slot thin).
type Chunk = [AtomicPtr<&'static str>; CHUNK_SIZE];

/// The global interner state.
struct Registry {
    /// Insert-side state: string → id, guarded.
    map: Mutex<FxHashMap<&'static str, u32>>,
    /// Resolve-side state: id → string, lock-free.
    chunks: [AtomicPtr<Chunk>; MAX_CHUNKS],
}

static REGISTRY: Registry = Registry {
    map: Mutex::new(FxHashMap::with_hasher(std::hash::BuildHasherDefault::new())),
    chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_CHUNKS],
};

impl Registry {
    fn intern(&self, s: &str) -> u32 {
        let mut map = self.map.lock().expect("interner poisoned");
        if let Some(&id) = map.get(s) {
            return id;
        }
        let id = u32::try_from(map.len()).expect("interner id space exhausted");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let (ci, si) = (id as usize / CHUNK_SIZE, id as usize % CHUNK_SIZE);
        assert!(ci < MAX_CHUNKS, "interner chunk space exhausted");
        let mut chunk = self.chunks[ci].load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh: Box<Chunk> =
                Box::new([const { AtomicPtr::new(std::ptr::null_mut()) }; CHUNK_SIZE]);
            chunk = Box::into_raw(fresh);
            // Only the mutex holder allocates chunks, so no CAS race.
            self.chunks[ci].store(chunk, Ordering::Release);
        }
        let slot: &'static &'static str = Box::leak(Box::new(leaked));
        // SAFETY: `chunk` was leaked from a valid Box<Chunk> above (or on a
        // previous insert) and is never freed.
        unsafe { (*chunk)[si].store(slot as *const _ as *mut _, Ordering::Release) };
        map.insert(leaked, id);
        id
    }

    fn resolve(&self, id: u32) -> &'static str {
        let (ci, si) = (id as usize / CHUNK_SIZE, id as usize % CHUNK_SIZE);
        let chunk = self.chunks[ci].load(Ordering::Acquire);
        assert!(!chunk.is_null(), "resolve of unknown Sym id {id}");
        // SAFETY: non-null chunk pointers are leaked boxes; a slot is
        // written (with Release) before its id is ever handed out, and the
        // Sym value itself reached this thread through a synchronizing
        // operation.
        let slot = unsafe { (*chunk)[si].load(Ordering::Acquire) };
        assert!(!slot.is_null(), "resolve of unknown Sym id {id}");
        // SAFETY: slots point at leaked `&'static str` values.
        unsafe { *slot }
    }

    fn lookup(&self, s: &str) -> Option<u32> {
        self.map.lock().expect("interner poisoned").get(s).copied()
    }

    fn len(&self) -> usize {
        self.map.lock().expect("interner poisoned").len()
    }
}

/// An interned string: a `Copy` handle that hashes and compares equal by
/// id, orders by resolved string content, and resolves without locking.
///
/// # Examples
///
/// ```
/// use c4h_simnet::Sym;
///
/// let a = Sym::new("photos/beach.jpg");
/// let b = Sym::new("photos/beach.jpg");
/// assert_eq!(a, b); // same string ⇒ same id
/// assert_eq!(a.as_str(), "photos/beach.jpg");
/// assert!(Sym::new("a") < Sym::new("b")); // Ord follows the strings
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Interns `s`, returning its symbol. Allocates only the first time a
    /// distinct string is seen in the process.
    pub fn new(s: &str) -> Sym {
        Sym(REGISTRY.intern(s))
    }

    /// Interns the text `args` formats to, written into one reused buffer
    /// per thread (`Sym::from_fmt(format_args!("{name}.ec{row}"))`):
    /// allocates only for text new to the process, or longer than any this
    /// thread formatted before — never a `String` per call.
    ///
    /// # Panics
    ///
    /// Panics if formatting an argument calls `from_fmt` again.
    pub fn from_fmt(args: std::fmt::Arguments<'_>) -> Sym {
        use std::fmt::Write as _;
        thread_local! {
            static TEXT: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
        }
        TEXT.with_borrow_mut(|text| {
            text.clear();
            text.write_fmt(args).expect("formatting into a String");
            Sym::new(text)
        })
    }

    /// The symbol for `s` if it has already been interned — a read-only
    /// probe that never allocates a table entry.
    pub fn lookup(s: &str) -> Option<Sym> {
        REGISTRY.lookup(s).map(Sym)
    }

    /// Resolves the symbol to its string. Lock-free and allocation-free.
    pub fn as_str(self) -> &'static str {
        REGISTRY.resolve(self.0)
    }

    /// The raw id. Process-history-dependent — never serialize this; it
    /// exists for diagnostics and slab-style dense side tables.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Number of distinct strings interned by this process so far.
    pub fn interned_count() -> usize {
        REGISTRY.len()
    }
}

// Ord by resolved string content, NOT by id: `BTreeMap<Sym, _>` must
// iterate in the exact lexicographic order `BTreeMap<String, _>` did, or
// every ordered walk (repair scans, directory lists, metrics dumps) —
// and with them the golden byte-determinism corpus — would change.
impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Debug as the bare string (like `str`'s Debug): op reports and
        // transcripts print `{:?}` of structs holding names, and their
        // bytes must match the String era.
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::new(s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Hash map keyed by [`Sym`] (FxHasher over the 4-byte id). Keyed access
/// only — iteration order is process-history-dependent.
pub type SymMap<V> = FxHashMap<Sym, V>;

/// Hash set of [`Sym`]s. Keyed access only, as [`SymMap`].
pub type SymSet = FxHashSet<Sym>;

/// A local, non-global interner with the same insertion-order id
/// assignment as the global table.
///
/// The global table is shared by every test in a process, so its absolute
/// ids can't be asserted against. This standalone instance exists to state
/// the determinism contract in isolation: drive two `Interner`s with the
/// same sequence and the ids must match exactly.
#[derive(Debug, Default)]
pub struct Interner {
    map: FxHashMap<Box<str>, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, assigning the next id on first sight.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = u32::try_from(self.map.len()).expect("interner id space exhausted");
        self.map.insert(s.into(), id);
        id
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_stability() {
        let a = Sym::new("intern-test/alpha");
        let b = Sym::new("intern-test/beta");
        assert_eq!(a.as_str(), "intern-test/alpha");
        assert_eq!(b.as_str(), "intern-test/beta");
        // Re-interning returns the identical handle.
        assert_eq!(a, Sym::new("intern-test/alpha"));
        assert_eq!(a.id(), Sym::new("intern-test/alpha").id());
        assert_ne!(a, b);
        // The resolved reference is stable across calls.
        assert!(std::ptr::eq(a.as_str(), a.as_str()));
    }

    #[test]
    fn lookup_probes_without_inserting() {
        assert_eq!(Sym::lookup("intern-test/never-interned-lookup"), None);
        let s = Sym::new("intern-test/lookup-hit");
        assert_eq!(Sym::lookup("intern-test/lookup-hit"), Some(s));
    }

    #[test]
    fn ord_follows_string_content() {
        // Intern in anti-lexicographic order so id order and string order
        // disagree — Ord must follow the strings.
        let z = Sym::new("intern-test/ord/z");
        let a = Sym::new("intern-test/ord/a");
        let m = Sym::new("intern-test/ord/m");
        assert!(a < m && m < z);
        let mut v = [z, a, m];
        v.sort();
        assert_eq!(v, [a, m, z]);
        // BTreeMap over Syms iterates lexicographically.
        let map: std::collections::BTreeMap<Sym, u32> =
            [(z, 0), (a, 1), (m, 2)].into_iter().collect();
        let keys: Vec<&str> = map.keys().map(|s| s.as_str()).collect();
        assert_eq!(
            keys,
            [
                "intern-test/ord/a",
                "intern-test/ord/m",
                "intern-test/ord/z"
            ]
        );
    }

    #[test]
    fn display_and_debug_match_str() {
        let s = Sym::new("intern-test/display");
        assert_eq!(format!("{s}"), "intern-test/display");
        assert_eq!(format!("{s:?}"), format!("{:?}", "intern-test/display"));
    }

    #[test]
    fn from_fmt_interns_the_formatted_text() {
        let name = Sym::new("intern-test/fmt");
        let row = Sym::from_fmt(format_args!("{name}.ec{}", 3));
        assert_eq!(row, Sym::new("intern-test/fmt.ec3"));
        // A shorter text after a longer one: the buffer is cleared, not
        // overwritten in place.
        assert_eq!(Sym::from_fmt(format_args!("{}", "a")), "a");
    }

    #[test]
    fn equality_with_str() {
        let s = Sym::new("intern-test/eq");
        assert_eq!(s, "intern-test/eq");
        assert_eq!(s, *"intern-test/eq");
        assert!(s != "intern-test/other");
    }

    #[test]
    fn local_interner_assigns_insertion_order_ids() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("c"), 2);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn syms_cross_thread_boundaries() {
        let s = Sym::new("intern-test/threads");
        let handle = std::thread::spawn(move || {
            assert_eq!(s.as_str(), "intern-test/threads");
            Sym::new("intern-test/threads")
        });
        let other = handle.join().expect("thread");
        assert_eq!(s, other);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The determinism contract: two runs that intern the same
            /// (interleaved, repeating) sequence of strings assign
            /// identical ids, and ids are dense first-occurrence ranks.
            #[test]
            fn interleaved_interning_assigns_identical_ids(
                pool in proptest::collection::vec("[a-z]{1,10}(/[a-z0-9]{1,6}){0,2}", 1..12),
                picks in proptest::collection::vec(any::<u16>(), 1..128),
            ) {
                let sequence: Vec<&str> = picks
                    .iter()
                    .map(|&i| pool[i as usize % pool.len()].as_str())
                    .collect();
                let mut run_a = Interner::new();
                let mut run_b = Interner::new();
                let ids_a: Vec<u32> = sequence.iter().map(|s| run_a.intern(s)).collect();
                let ids_b: Vec<u32> = sequence.iter().map(|s| run_b.intern(s)).collect();
                prop_assert_eq!(&ids_a, &ids_b);
                // Ids are first-occurrence ranks: recomputing them from
                // the sequence alone reproduces the assignment.
                let mut seen: Vec<&str> = Vec::new();
                let ranks: Vec<u32> = sequence
                    .iter()
                    .map(|s| match seen.iter().position(|&t| t == *s) {
                        Some(p) => p as u32,
                        None => {
                            seen.push(s);
                            (seen.len() - 1) as u32
                        }
                    })
                    .collect();
                prop_assert_eq!(ids_a, ranks);
                prop_assert_eq!(run_a.len(), seen.len());
            }

            /// Global-table symmetry: equal strings produce equal symbols
            /// and round-trip through resolution, regardless of what other
            /// tests interned first.
            #[test]
            fn global_intern_round_trips(name in "[a-z]{1,10}(/[a-z0-9]{1,6}){0,2}") {
                let a = Sym::new(&name);
                let b = Sym::new(&name);
                prop_assert_eq!(a, b);
                prop_assert_eq!(a.as_str(), name.as_str());
            }
        }
    }
}
