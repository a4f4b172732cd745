//! Local disk cost model.
//!
//! VStore++ "uses a standard file system to represent objects, using a
//! one-to-one mapping of objects to files": every store writes a file in the
//! node's bin and every fetch reads one. The disk contributes the residual
//! cost in Table I (total minus inter-node, inter-domain, and DHT lookup),
//! so the model includes a per-access latency plus sequential bandwidth
//! taken from the [`PlatformSpec`].

use std::time::Duration;

use crate::platform::PlatformSpec;

/// Disk access model for one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Per-access latency (seek + file-system metadata).
    pub access_latency: Duration,
    /// Sequential read bandwidth, bytes/second.
    pub read_bps: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bps: f64,
}

impl DiskModel {
    /// Builds the model from a platform's disk figures.
    pub fn for_platform(platform: &PlatformSpec) -> Self {
        DiskModel {
            access_latency: Duration::from_millis(6),
            read_bps: platform.disk_read_bps,
            write_bps: platform.disk_write_bps,
        }
    }

    /// Time to read `bytes` sequentially.
    pub fn read_time(&self, bytes: u64) -> Duration {
        self.access_latency + Duration::from_secs_f64(bytes as f64 / self.read_bps)
    }

    /// Time to write `bytes` sequentially.
    pub fn write_time(&self, bytes: u64) -> Duration {
        self.access_latency + Duration::from_secs_f64(bytes as f64 / self.write_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_is_faster_than_write_on_netbook_disk() {
        let d = DiskModel::for_platform(&PlatformSpec::atom_netbook());
        let bytes = 10 * 1024 * 1024;
        assert!(d.read_time(bytes) < d.write_time(bytes));
    }

    #[test]
    fn latency_dominates_tiny_accesses() {
        let d = DiskModel::for_platform(&PlatformSpec::desktop_quad());
        let t = d.read_time(100);
        assert!(t >= d.access_latency);
        assert!(t < d.access_latency + Duration::from_millis(1));
    }

    #[test]
    fn scale_is_sane_for_1_mib() {
        let d = DiskModel::for_platform(&PlatformSpec::atom_netbook());
        // ~55 MB/s: 1 MiB ≈ 19 ms + 6 ms latency.
        let ms = d.read_time(1024 * 1024).as_millis();
        assert!((15..50).contains(&ms), "1 MiB read took {ms} ms");
    }
}
