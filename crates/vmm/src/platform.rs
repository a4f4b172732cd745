//! Physical platform specifications.
//!
//! The paper's testbed mixes low-end Atom netbooks, a quad-core desktop, and
//! a large EC2 instance; the evaluation's placement decisions (Figure 7,
//! Figure 8) hinge on their relative CPU speed, core count, memory, and disk
//! bandwidth. [`PlatformSpec`] captures those parameters, with presets for
//! each machine class the paper names.

/// A physical machine's capabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Human-readable model name.
    pub name: String,
    /// Per-core clock speed in GHz.
    pub cpu_ghz: f64,
    /// Number of physical cores.
    pub cores: u32,
    /// Installed RAM in MiB.
    pub ram_mib: u64,
    /// Sequential disk read bandwidth, bytes/second.
    pub disk_read_bps: f64,
    /// Sequential disk write bandwidth, bytes/second.
    pub disk_write_bps: f64,
}

impl PlatformSpec {
    /// The testbed netbook: "dual-core 1.66 GHz Intel Atom N280".
    pub fn atom_netbook() -> Self {
        PlatformSpec {
            name: "atom-n280-netbook".into(),
            cpu_ghz: 1.66,
            cores: 2,
            ram_mib: 1024,
            disk_read_bps: 55.0e6,
            disk_write_bps: 35.0e6,
        }
    }

    /// Figure 7's S1 host: "a 1.3 GHZ dual-core Atom platform".
    pub fn atom_s1() -> Self {
        PlatformSpec {
            name: "atom-1.3-dual".into(),
            cpu_ghz: 1.3,
            cores: 2,
            ram_mib: 1024,
            disk_read_bps: 55.0e6,
            disk_write_bps: 35.0e6,
        }
    }

    /// The testbed desktop: "2.3 GHZ 32 bit Intel Quad core".
    pub fn desktop_quad() -> Self {
        PlatformSpec {
            name: "desktop-2.3-quad".into(),
            cpu_ghz: 2.3,
            cores: 4,
            ram_mib: 4096,
            disk_read_bps: 90.0e6,
            disk_write_bps: 70.0e6,
        }
    }

    /// Figure 7's S2 host: "a 1.8 GHz quad-core processor".
    pub fn desktop_s2() -> Self {
        PlatformSpec {
            name: "desktop-1.8-quad".into(),
            cpu_ghz: 1.8,
            cores: 4,
            ram_mib: 4096,
            disk_read_bps: 90.0e6,
            disk_write_bps: 70.0e6,
        }
    }

    /// Figure 7's S3: "an extra large EC2 para-virtualized instance with
    /// five 2.9 GHZ CPUs with 14 GB memory".
    pub fn ec2_extra_large() -> Self {
        PlatformSpec {
            name: "ec2-extra-large".into(),
            cpu_ghz: 2.9,
            cores: 5,
            ram_mib: 14 * 1024,
            disk_read_bps: 180.0e6,
            disk_write_bps: 140.0e6,
        }
    }

    /// Aggregate compute capacity in GHz·cores, the crude first-order
    /// capacity measure used by placement heuristics.
    pub fn compute_capacity(&self) -> f64 {
        self.cpu_ghz * self.cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_capacity() {
        let s1 = PlatformSpec::atom_s1();
        let s2 = PlatformSpec::desktop_s2();
        let s3 = PlatformSpec::ec2_extra_large();
        assert!(s1.compute_capacity() < s2.compute_capacity());
        assert!(s2.compute_capacity() < s3.compute_capacity());
    }

    #[test]
    fn testbed_netbook_matches_paper() {
        let p = PlatformSpec::atom_netbook();
        assert_eq!(p.cores, 2);
        assert!((p.cpu_ghz - 1.66).abs() < 1e-9);
    }

    #[test]
    fn ec2_instance_has_14_gib() {
        assert_eq!(PlatformSpec::ec2_extra_large().ram_mib, 14 * 1024);
    }
}
