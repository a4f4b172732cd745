//! Mandatory and voluntary storage bins.
//!
//! "On each node, a set of mandatory resources is available for the
//! execution of services … on behalf of applications deployed on that node.
//! In addition, nodes can contribute voluntary resources to the aggregate
//! storage pool available to any node in the VStore++ home cloud." The
//! paper's prototype tracks both with "a simple file system watcher
//! component". [`BinWatcher`] is that component: it accounts object sizes
//! against each bin's capacity and answers the free-space queries that
//! store-placement policies use ("by default, the object is stored in the
//! node's mandatory bin … in cases where the mandatory bin is full … the
//! data is stored elsewhere").

use c4h_simnet::{Sym, SymMap};

/// Which storage pool an object occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bin {
    /// Local resources reserved for this node's own applications.
    Mandatory,
    /// Space contributed to the shared home-cloud pool.
    Voluntary,
}

/// Errors from bin accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The object does not fit in the requested bin.
    Full {
        /// The bin that rejected the object.
        bin: Bin,
        /// Bytes requested.
        requested: u64,
        /// Bytes free.
        free: u64,
    },
    /// An object with this name is already stored here.
    Duplicate(Sym),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Full {
                bin,
                requested,
                free,
            } => write!(f, "{bin:?} bin full: need {requested} bytes, {free} free"),
            BinError::Duplicate(name) => write!(f, "object {name:?} already stored"),
        }
    }
}

impl std::error::Error for BinError {}

/// Tracks the objects occupying a node's mandatory and voluntary bins.
///
/// # Examples
///
/// ```
/// use c4h_resources::{Bin, BinWatcher};
///
/// let mut w = BinWatcher::new(10_000, 50_000);
/// w.store("a.jpg", 4_000, Bin::Mandatory)?;
/// assert_eq!(w.free_bytes(Bin::Mandatory), 6_000);
/// assert!(w.fits(6_000, Bin::Mandatory));
/// assert!(!w.fits(6_001, Bin::Mandatory));
/// # Ok::<(), c4h_resources::BinError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BinWatcher {
    /// Per-bin byte counts, indexed by `bin as usize`.
    capacity: [u64; 2],
    used: [u64; 2],
    /// Keyed by interned name with the fixed hasher: a randomly keyed map
    /// reallocates its table at moments that differ between runs, which
    /// moved the heap's layout, and so peak RSS, between runs of one seed.
    /// Never iterated.
    objects: SymMap<(Bin, u64)>,
}

impl BinWatcher {
    /// Creates a watcher with the given bin capacities in bytes.
    pub fn new(mandatory_bytes: u64, voluntary_bytes: u64) -> Self {
        BinWatcher {
            capacity: [mandatory_bytes, voluntary_bytes],
            used: [0; 2],
            objects: SymMap::default(),
        }
    }

    /// Bytes free in a bin.
    pub fn free_bytes(&self, bin: Bin) -> u64 {
        self.capacity[bin as usize].saturating_sub(self.used[bin as usize])
    }

    /// Bytes used in a bin.
    pub fn used_bytes(&self, bin: Bin) -> u64 {
        self.used[bin as usize]
    }

    /// Total capacity of a bin.
    pub fn capacity_bytes(&self, bin: Bin) -> u64 {
        self.capacity[bin as usize]
    }

    /// Whether `bytes` fits in a bin right now.
    pub fn fits(&self, bytes: u64, bin: Bin) -> bool {
        bytes <= self.free_bytes(bin)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The bin and size of a stored object.
    pub fn lookup(&self, name: impl Into<Sym>) -> Option<(Bin, u64)> {
        self.objects.get(&name.into()).copied()
    }

    /// Records an object occupying `bytes` in `bin`.
    ///
    /// # Errors
    ///
    /// [`BinError::Full`] if the bin lacks space; [`BinError::Duplicate`] if
    /// the name is already present.
    pub fn store(&mut self, name: impl Into<Sym>, bytes: u64, bin: Bin) -> Result<(), BinError> {
        let name = name.into();
        if self.objects.contains_key(&name) {
            return Err(BinError::Duplicate(name));
        }
        let free = self.free_bytes(bin);
        if bytes > free {
            return Err(BinError::Full {
                bin,
                requested: bytes,
                free,
            });
        }
        self.used[bin as usize] += bytes;
        self.objects.insert(name, (bin, bytes));
        Ok(())
    }

    /// Removes an object, freeing its space. Returns its bin and size.
    pub fn remove(&mut self, name: impl Into<Sym>) -> Option<(Bin, u64)> {
        let (bin, bytes) = self.objects.remove(&name.into())?;
        self.used[bin as usize] -= bytes;
        Some((bin, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_remove_roundtrip() {
        let mut w = BinWatcher::new(1000, 2000);
        w.store("x", 400, Bin::Mandatory).unwrap();
        w.store("y", 500, Bin::Voluntary).unwrap();
        assert_eq!(w.object_count(), 2);
        assert_eq!(w.used_bytes(Bin::Mandatory), 400);
        assert_eq!(w.free_bytes(Bin::Voluntary), 1500);
        assert_eq!(w.lookup("x"), Some((Bin::Mandatory, 400)));
        assert_eq!(w.remove("x"), Some((Bin::Mandatory, 400)));
        assert_eq!(w.remove("x"), None);
        assert_eq!(w.free_bytes(Bin::Mandatory), 1000);
    }

    #[test]
    fn full_bin_rejects_store() {
        let mut w = BinWatcher::new(1000, 0);
        w.store("big", 900, Bin::Mandatory).unwrap();
        let err = w.store("more", 200, Bin::Mandatory).unwrap_err();
        assert_eq!(
            err,
            BinError::Full {
                bin: Bin::Mandatory,
                requested: 200,
                free: 100
            }
        );
        assert!(err.to_string().contains("bin full"));
        // The failed store must not leak accounting.
        assert_eq!(w.used_bytes(Bin::Mandatory), 900);
        assert_eq!(w.object_count(), 1);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut w = BinWatcher::new(1000, 1000);
        w.store("x", 10, Bin::Mandatory).unwrap();
        let err = w.store("x", 10, Bin::Voluntary).unwrap_err();
        assert_eq!(err, BinError::Duplicate("x".into()));
    }

    #[test]
    fn exact_fit_is_allowed() {
        let mut w = BinWatcher::new(100, 0);
        assert!(w.fits(100, Bin::Mandatory));
        w.store("exact", 100, Bin::Mandatory).unwrap();
        assert_eq!(w.free_bytes(Bin::Mandatory), 0);
        assert_eq!(w.capacity_bytes(Bin::Mandatory), 100);
    }
}
