//! Grant-table reference management.
//!
//! "Before every transfer, the data receiver creates a shared descriptor
//! page and grant table reference which is sent to the sender before
//! communication begins." [`GrantTable`] is that allocator: a bounded table
//! of grant references, each naming a shared-memory region (the page ring a
//! transfer uses). The references appear on the wire as the
//! [`CommandPacket`](crate::CommandPacket)'s `shm_ref` field; the table
//! enforces the hypervisor-side invariants — bounded entries, no
//! double-grant, no use-after-revoke.

use std::collections::HashMap;

use crate::vm::DomId;

/// A grant-table reference handed to the peer domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GrantRef(pub u64);

impl std::fmt::Display for GrantRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gref:{}", self.0)
    }
}

/// One granted shared-memory region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The domain granted access.
    pub grantee: DomId,
    /// Number of shared pages in the region.
    pub pages: u32,
    /// Whether the grantee may write (data transfers) or only read.
    pub writable: bool,
}

/// Errors from grant-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantError {
    /// The table is full.
    TableFull {
        /// The configured entry limit.
        capacity: usize,
    },
    /// The reference is unknown or already revoked.
    BadRef(GrantRef),
    /// Revoking a grant the peer is still mapped into.
    StillMapped(GrantRef),
}

impl std::fmt::Display for GrantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrantError::TableFull { capacity } => {
                write!(f, "grant table full ({capacity} entries)")
            }
            GrantError::BadRef(r) => write!(f, "unknown or revoked grant {r}"),
            GrantError::StillMapped(r) => write!(f, "grant {r} is still mapped"),
        }
    }
}

impl std::error::Error for GrantError {}

/// A domain's grant table.
///
/// # Examples
///
/// ```
/// use c4h_vmm::{DomId, GrantTable};
///
/// let mut table = GrantTable::new(128);
/// let gref = table.grant(DomId(1), 32, true)?;
/// table.map(gref)?;            // the peer maps the region
/// assert!(table.revoke(gref).is_err(), "cannot revoke while mapped");
/// table.unmap(gref)?;
/// table.revoke(gref)?;
/// # Ok::<(), c4h_vmm::GrantError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GrantTable {
    capacity: usize,
    next_ref: u64,
    grants: HashMap<GrantRef, (Grant, u32)>, // (grant, map count)
}

impl GrantTable {
    /// Creates a table bounded to `capacity` simultaneous grants.
    pub fn new(capacity: usize) -> Self {
        GrantTable {
            capacity,
            next_ref: 1,
            grants: HashMap::new(),
        }
    }

    /// Number of active grants.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// Whether no grants are active.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Grants `grantee` access to a `pages`-page region.
    ///
    /// # Errors
    ///
    /// [`GrantError::TableFull`] when at capacity.
    pub fn grant(
        &mut self,
        grantee: DomId,
        pages: u32,
        writable: bool,
    ) -> Result<GrantRef, GrantError> {
        if self.grants.len() >= self.capacity {
            return Err(GrantError::TableFull {
                capacity: self.capacity,
            });
        }
        let gref = GrantRef(self.next_ref);
        self.next_ref += 1;
        self.grants.insert(
            gref,
            (
                Grant {
                    grantee,
                    pages,
                    writable,
                },
                0,
            ),
        );
        Ok(gref)
    }

    /// Looks up an active grant.
    pub fn get(&self, gref: GrantRef) -> Option<&Grant> {
        self.grants.get(&gref).map(|(g, _)| g)
    }

    /// Records the peer mapping the region.
    ///
    /// # Errors
    ///
    /// [`GrantError::BadRef`] for unknown references.
    pub fn map(&mut self, gref: GrantRef) -> Result<(), GrantError> {
        let (_, count) = self.grants.get_mut(&gref).ok_or(GrantError::BadRef(gref))?;
        *count += 1;
        Ok(())
    }

    /// Records the peer unmapping the region.
    ///
    /// # Errors
    ///
    /// [`GrantError::BadRef`] for unknown or never-mapped references.
    pub fn unmap(&mut self, gref: GrantRef) -> Result<(), GrantError> {
        let (_, count) = self.grants.get_mut(&gref).ok_or(GrantError::BadRef(gref))?;
        if *count == 0 {
            return Err(GrantError::BadRef(gref));
        }
        *count -= 1;
        Ok(())
    }

    /// Revokes a grant, freeing its table entry.
    ///
    /// # Errors
    ///
    /// [`GrantError::StillMapped`] while the peer holds a mapping;
    /// [`GrantError::BadRef`] for unknown references.
    pub fn revoke(&mut self, gref: GrantRef) -> Result<Grant, GrantError> {
        match self.grants.get(&gref) {
            None => Err(GrantError::BadRef(gref)),
            Some((_, count)) if *count > 0 => Err(GrantError::StillMapped(gref)),
            Some(_) => Ok(self.grants.remove(&gref).expect("checked above").0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_map_unmap_revoke_lifecycle() {
        let mut t = GrantTable::new(4);
        assert!(t.is_empty());
        let g = t.grant(DomId(2), 32, true).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(g).unwrap().pages, 32);
        t.map(g).unwrap();
        t.map(g).unwrap();
        assert_eq!(t.revoke(g), Err(GrantError::StillMapped(g)));
        t.unmap(g).unwrap();
        t.unmap(g).unwrap();
        let grant = t.revoke(g).unwrap();
        assert_eq!(grant.grantee, DomId(2));
        assert!(t.is_empty());
        assert_eq!(t.get(g), None);
    }

    #[test]
    fn table_capacity_is_enforced() {
        let mut t = GrantTable::new(2);
        t.grant(DomId(1), 1, false).unwrap();
        t.grant(DomId(1), 1, false).unwrap();
        assert_eq!(
            t.grant(DomId(1), 1, false),
            Err(GrantError::TableFull { capacity: 2 })
        );
    }

    #[test]
    fn bad_refs_are_rejected() {
        let mut t = GrantTable::new(2);
        let ghost = GrantRef(99);
        assert_eq!(t.map(ghost), Err(GrantError::BadRef(ghost)));
        assert_eq!(t.unmap(ghost), Err(GrantError::BadRef(ghost)));
        assert!(t.revoke(ghost).is_err());
        // Unmapping a never-mapped grant is also an error.
        let g = t.grant(DomId(1), 1, true).unwrap();
        assert_eq!(t.unmap(g), Err(GrantError::BadRef(g)));
    }

    #[test]
    fn refs_are_unique_and_display() {
        let mut t = GrantTable::new(8);
        let a = t.grant(DomId(1), 1, true).unwrap();
        let b = t.grant(DomId(1), 1, true).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "gref:1");
        assert!(GrantError::TableFull { capacity: 8 }
            .to_string()
            .contains('8'));
    }
}
