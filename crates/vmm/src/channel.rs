//! The XenSocket-style inter-domain shared-memory channel.
//!
//! "For data transfers between the host dom0 and guest VM, we utilize
//! XenSocket, a high throughput shared memory kernel module … Before every
//! transfer, the data receiver creates a shared descriptor page and grant
//! table reference which is sent to the sender before communication begins.
//! The receiver allocates thirty two 4 KB pages."
//!
//! [`XenChannelConfig::transfer_time`] models that mechanism's cost: a
//! per-transfer setup (descriptor page + grant reference exchange) followed
//! by copying through the ring of shared pages at a platform-dependent
//! memory bandwidth. The parameters are calibrated against Table I's
//! inter-domain column (≈25 ms at 1 MB rising roughly linearly to ≈1.6 s at
//! 100 MB).

use std::time::Duration;

/// Configuration of one inter-domain channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XenChannelConfig {
    /// Size of each shared page in bytes (4 KiB in the prototype; "the page
    /// size can be increased up to 2 MB if the devices have larger memory").
    pub page_size: u32,
    /// Number of shared pages in the ring (32 in the prototype).
    pub pages: u32,
    /// Cost of creating the descriptor page and exchanging the grant-table
    /// reference before the first byte moves.
    pub setup: Duration,
    /// Steady-state copy bandwidth through the shared ring, bytes/second.
    pub copy_bps: f64,
    /// Extra per-ring-cycle overhead (event-channel notification when the
    /// ring wraps).
    pub cycle_overhead: Duration,
}

impl XenChannelConfig {
    /// The prototype configuration: 32 × 4 KiB pages, calibrated to
    /// Table I's inter-domain costs (~60 MB/s with ~8 ms setup).
    pub fn prototype() -> Self {
        XenChannelConfig {
            page_size: 4096,
            pages: 32,
            setup: Duration::from_millis(8),
            copy_bps: 62.0e6,
            cycle_overhead: Duration::from_micros(18),
        }
    }

    /// Bytes carried by one full ring cycle.
    pub fn ring_bytes(&self) -> u64 {
        self.page_size as u64 * self.pages as u64
    }

    /// The time to move `bytes` across the channel.
    ///
    /// # Examples
    ///
    /// ```
    /// use c4h_vmm::XenChannelConfig;
    ///
    /// let t = XenChannelConfig::prototype().transfer_time(1024 * 1024);
    /// // Table I reports ≈25 ms for the 1 MB inter-domain copy.
    /// assert!(t.as_millis() >= 15 && t.as_millis() <= 40, "{t:?}");
    /// ```
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        let copy = Duration::from_secs_f64(bytes as f64 / self.copy_bps);
        let cycles = bytes.div_ceil(self.ring_bytes().max(1));
        self.setup + copy + self.cycle_overhead * cycles as u32
    }
}

impl Default for XenChannelConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table1_inter_domain_scale() {
        let ch = XenChannelConfig::prototype();
        let mib = |n: u64| n * 1024 * 1024;
        // Paper: 1 MB → 25 ms, 10 MB → 189 ms, 100 MB → 1603 ms.
        let t1 = ch.transfer_time(mib(1)).as_millis();
        let t10 = ch.transfer_time(mib(10)).as_millis();
        let t100 = ch.transfer_time(mib(100)).as_millis();
        assert!((15..=40).contains(&t1), "1 MiB: {t1} ms");
        assert!((120..=260).contains(&t10), "10 MiB: {t10} ms");
        assert!((1_200..=2_100).contains(&t100), "100 MiB: {t100} ms");
    }

    #[test]
    fn cost_is_monotonic_in_size() {
        let ch = XenChannelConfig::prototype();
        let mut prev = Duration::ZERO;
        for kib in [1u64, 64, 512, 4096, 65_536] {
            let t = ch.transfer_time(kib * 1024);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn ring_bytes_is_pages_times_size() {
        assert_eq!(XenChannelConfig::prototype().ring_bytes(), 32 * 4096);
    }
}
