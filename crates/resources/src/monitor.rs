//! The periodic resource monitor.
//!
//! "The utility updates resource information in the key-value store after a
//! configurable time period (to contain messaging overheads)."
//! [`ResourceMonitor`] combines the synthetic sampler and the bin watcher
//! into the [`ResourceRecord`] published under the node's resource key, on
//! the configured period. The actual DHT put is performed by the runtime;
//! the monitor decides *when* and *what*.

use std::time::Duration;

use c4h_kvstore::ResourceRecord;
use c4h_simnet::{DetRng, SimTime};

use crate::bins::{Bin, BinWatcher};
use crate::sampler::ResourceSampler;

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// How often resource records are published.
    pub update_period: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            update_period: Duration::from_secs(2),
        }
    }
}

/// Decides when a node's resource record is due and assembles it.
///
/// # Examples
///
/// ```
/// use c4h_resources::{BinWatcher, MonitorConfig, ResourceMonitor, ResourceSampler, SamplerConfig};
/// use c4h_chimera::Key;
/// use c4h_simnet::{DetRng, SimTime};
///
/// let mut monitor = ResourceMonitor::new(MonitorConfig::default());
/// let mut sampler = ResourceSampler::new(SamplerConfig::default());
/// let bins = BinWatcher::new(1 << 30, 4 << 30);
/// let mut rng = DetRng::seed(0);
///
/// let t0 = SimTime::ZERO;
/// assert!(monitor.due(t0));
/// let record = monitor.publish(
///     Key::from_name("netbook-1"),
///     t0,
///     &mut sampler,
///     &bins,
///     500_000.0,
///     900_000.0,
///     &mut rng,
/// );
/// assert_eq!(record.node, Key::from_name("netbook-1"));
/// assert!(!monitor.due(t0)); // not due again until the period elapses
/// ```
#[derive(Debug, Clone)]
pub struct ResourceMonitor {
    config: MonitorConfig,
    last_published: Option<SimTime>,
    published_count: u64,
}

impl ResourceMonitor {
    /// Creates a monitor.
    pub fn new(config: MonitorConfig) -> Self {
        ResourceMonitor {
            config,
            last_published: None,
            published_count: 0,
        }
    }

    /// The configured update period.
    pub fn period(&self) -> Duration {
        self.config.update_period
    }

    /// Number of records published so far.
    pub fn published_count(&self) -> u64 {
        self.published_count
    }

    /// Whether a new record is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        match self.last_published {
            None => true,
            Some(t) => now
                .checked_duration_since(t)
                .is_some_and(|d| d >= self.config.update_period),
        }
    }

    /// Assembles the record to publish and marks the period served.
    ///
    /// `bandwidth_up_bps`/`bandwidth_down_bps` are supplied by the runtime
    /// from its view of the node's links.
    #[allow(clippy::too_many_arguments)]
    pub fn publish(
        &mut self,
        node: c4h_chimera::Key,
        now: SimTime,
        sampler: &mut ResourceSampler,
        bins: &BinWatcher,
        bandwidth_up_bps: f64,
        bandwidth_down_bps: f64,
        rng: &mut DetRng,
    ) -> ResourceRecord {
        let sample = sampler.sample(now, rng);
        self.last_published = Some(now);
        self.published_count += 1;
        ResourceRecord {
            node,
            cpu_load: sample.cpu_load,
            mem_free_mib: sample.mem_free_mib,
            bandwidth_up_bps,
            bandwidth_down_bps,
            battery_pct: sample.battery_pct,
            mandatory_free_mib: bins.free_bytes(Bin::Mandatory) >> 20,
            voluntary_free_mib: bins.free_bytes(Bin::Voluntary) >> 20,
            updated_at_ns: now.as_nanos(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4h_chimera::Key;

    fn publish_at(m: &mut ResourceMonitor, t: SimTime) -> ResourceRecord {
        let mut sampler = ResourceSampler::new(crate::sampler::SamplerConfig::default());
        let bins = BinWatcher::new(100 << 20, 200 << 20);
        let mut rng = DetRng::seed(0);
        m.publish(
            Key::from_name("n"),
            t,
            &mut sampler,
            &bins,
            1.0,
            2.0,
            &mut rng,
        )
    }

    #[test]
    fn due_respects_period() {
        let mut m = ResourceMonitor::new(MonitorConfig {
            update_period: Duration::from_secs(2),
        });
        assert!(m.due(SimTime::ZERO));
        publish_at(&mut m, SimTime::ZERO);
        assert!(!m.due(SimTime::from_secs(1)));
        assert!(m.due(SimTime::from_secs(2)));
        assert_eq!(m.published_count(), 1);
        assert_eq!(m.period(), Duration::from_secs(2));
    }

    #[test]
    fn record_reflects_bin_state() {
        let mut m = ResourceMonitor::new(MonitorConfig::default());
        let rec = publish_at(&mut m, SimTime::from_secs(5));
        assert_eq!(rec.mandatory_free_mib, 100);
        assert_eq!(rec.voluntary_free_mib, 200);
        assert_eq!(rec.updated_at_ns, SimTime::from_secs(5).as_nanos());
        assert_eq!(rec.bandwidth_up_bps, 1.0);
        assert_eq!(rec.bandwidth_down_bps, 2.0);
    }
}
