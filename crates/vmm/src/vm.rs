//! Virtual machines and the per-node domain layout.
//!
//! Every Cloud4Home node is virtualized: applications run in guest VMs and
//! the VStore++ service runs in the control domain (dom0 in Xen). The
//! [`Machine`] type models one physical host with its domains; placement
//! decisions need each VM's memory grant and VCPU count (Figure 7's S2 is
//! deliberately memory-starved: "a 128 MB multi-VCPU VM").

use crate::platform::PlatformSpec;

/// Identifier of a domain (VM) within one machine. Dom0 is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomId(pub u32);

impl DomId {
    /// The control domain.
    pub const DOM0: DomId = DomId(0);

    /// Whether this is the control domain.
    pub fn is_dom0(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for DomId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Resource grant of one virtual machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmSpec {
    /// Memory grant in MiB.
    pub mem_mib: u64,
    /// Number of virtual CPUs.
    pub vcpus: u32,
}

impl VmSpec {
    /// A spec with the given memory and VCPU count.
    pub fn new(mem_mib: u64, vcpus: u32) -> Self {
        VmSpec { mem_mib, vcpus }
    }
}

/// The role of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainRole {
    /// The control domain hosting the VStore++ service.
    Control,
    /// An application guest.
    Guest,
}

/// One domain instance on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Domain {
    /// The domain id.
    pub id: DomId,
    /// Its resource grant.
    pub spec: VmSpec,
    /// Control or guest.
    pub role: DomainRole,
}

/// A virtualized physical host: the platform plus its domains.
///
/// # Examples
///
/// ```
/// use c4h_vmm::{Machine, PlatformSpec, VmSpec};
///
/// let mut m = Machine::new(PlatformSpec::atom_netbook(), VmSpec::new(256, 1));
/// let guest = m.spawn_guest(VmSpec::new(512, 1)).unwrap();
/// assert_eq!(m.domains().len(), 2);
/// assert!(m.domain(guest).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    platform: PlatformSpec,
    domains: Vec<Domain>,
    next_dom: u32,
}

/// Error creating a guest VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// The requested memory grant exceeds remaining host RAM.
    InsufficientMemory {
        /// MiB requested.
        requested: u64,
        /// MiB still unallocated on the host.
        available: u64,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::InsufficientMemory {
                requested,
                available,
            } => write!(
                f,
                "insufficient host memory: requested {requested} MiB, {available} MiB available"
            ),
        }
    }
}

impl std::error::Error for VmError {}

impl Machine {
    /// Creates a machine whose control domain (dom0) gets `dom0_spec`.
    ///
    /// # Panics
    ///
    /// Panics if dom0's memory grant exceeds the platform's RAM.
    pub fn new(platform: PlatformSpec, dom0_spec: VmSpec) -> Self {
        assert!(
            dom0_spec.mem_mib <= platform.ram_mib,
            "dom0 grant exceeds platform RAM"
        );
        Machine {
            platform,
            domains: vec![Domain {
                id: DomId::DOM0,
                spec: dom0_spec,
                role: DomainRole::Control,
            }],
            next_dom: 1,
        }
    }

    /// The underlying hardware.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// All domains, dom0 first.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Looks up a domain.
    pub fn domain(&self, id: DomId) -> Option<&Domain> {
        self.domains.iter().find(|d| d.id == id)
    }

    /// Memory not yet granted to any domain, in MiB.
    pub fn free_mem_mib(&self) -> u64 {
        let granted: u64 = self.domains.iter().map(|d| d.spec.mem_mib).sum();
        self.platform.ram_mib.saturating_sub(granted)
    }

    /// Creates an application guest VM.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InsufficientMemory`] when the grant cannot be
    /// satisfied.
    pub fn spawn_guest(&mut self, spec: VmSpec) -> Result<DomId, VmError> {
        let available = self.free_mem_mib();
        if spec.mem_mib > available {
            return Err(VmError::InsufficientMemory {
                requested: spec.mem_mib,
                available,
            });
        }
        let id = DomId(self.next_dom);
        self.next_dom += 1;
        self.domains.push(Domain {
            id,
            spec,
            role: DomainRole::Guest,
        });
        Ok(id)
    }

    /// Destroys a guest VM, releasing its grant. Dom0 cannot be destroyed.
    ///
    /// Returns `true` if the domain existed and was removed.
    pub fn destroy_guest(&mut self, id: DomId) -> bool {
        if id.is_dom0() {
            return false;
        }
        let before = self.domains.len();
        self.domains.retain(|d| d.id != id);
        self.domains.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(PlatformSpec::atom_netbook(), VmSpec::new(256, 1))
    }

    #[test]
    fn dom0_exists_at_creation() {
        let m = machine();
        let d0 = m.domain(DomId::DOM0).unwrap();
        assert_eq!(d0.role, DomainRole::Control);
        assert!(DomId::DOM0.is_dom0());
        assert_eq!(format!("{}", DomId::DOM0), "dom0");
    }

    #[test]
    fn guest_allocation_tracks_memory() {
        let mut m = machine();
        assert_eq!(m.free_mem_mib(), 768);
        let g = m.spawn_guest(VmSpec::new(512, 1)).unwrap();
        assert_eq!(m.free_mem_mib(), 256);
        assert!(m.destroy_guest(g));
        assert_eq!(m.free_mem_mib(), 768);
    }

    #[test]
    fn overcommit_is_rejected() {
        let mut m = machine();
        let err = m.spawn_guest(VmSpec::new(2048, 1)).unwrap_err();
        assert_eq!(
            err,
            VmError::InsufficientMemory {
                requested: 2048,
                available: 768
            }
        );
        assert!(err.to_string().contains("insufficient host memory"));
    }

    #[test]
    fn dom0_cannot_be_destroyed() {
        let mut m = machine();
        assert!(!m.destroy_guest(DomId::DOM0));
        assert_eq!(m.domains().len(), 1);
    }

    #[test]
    #[should_panic(expected = "dom0 grant exceeds")]
    fn oversized_dom0_panics() {
        Machine::new(PlatformSpec::atom_netbook(), VmSpec::new(1 << 20, 1));
    }
}
