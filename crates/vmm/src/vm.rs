//! VM resource grants.
//!
//! Every Cloud4Home node is virtualized: applications run in a guest VM and
//! the VStore++ service runs in the control domain (dom0 in Xen). The
//! simulation reads a VM only through its grant: placement and the
//! execution model need each VM's memory and VCPU count (Figure 7's S2 is
//! deliberately memory-starved: "a 128 MB multi-VCPU VM").

use crate::platform::PlatformSpec;

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

    /// Whether this VM fits in `platform`'s RAM beside a control domain
    /// holding `dom0_mib`. An exact fit is legal; a control domain larger
    /// than the RAM leaves room for no VM at all.
    pub fn fits_beside_dom0(self, platform: &PlatformSpec, dom0_mib: u64) -> bool {
        dom0_mib.saturating_add(self.mem_mib) <= platform.ram_mib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_allocation_tracks_memory() {
        // A 1 GiB netbook with a 256 MiB dom0 has 768 MiB for its guest.
        let netbook = PlatformSpec::atom_netbook();
        assert!(VmSpec::new(512, 1).fits_beside_dom0(&netbook, 256));
        assert!(VmSpec::new(768, 1).fits_beside_dom0(&netbook, 256));
        assert!(!VmSpec::new(769, 1).fits_beside_dom0(&netbook, 256));
        // Growing dom0 takes the same MiB from the guest.
        assert!(VmSpec::new(512, 1).fits_beside_dom0(&netbook, 512));
        assert!(!VmSpec::new(512, 1).fits_beside_dom0(&netbook, 513));
    }

    #[test]
    fn overcommit_is_rejected() {
        let netbook = PlatformSpec::atom_netbook();
        assert!(!VmSpec::new(2048, 1).fits_beside_dom0(&netbook, 256));
        // A dom0 larger than the host leaves room for no VM, not even an
        // empty one, and no grant wraps the sum around.
        assert!(!VmSpec::new(0, 1).fits_beside_dom0(&netbook, 1 << 20));
        assert!(!VmSpec::new(u64::MAX, 1).fits_beside_dom0(&netbook, 256));
    }
}
