//! The periodic resource monitor.
//!
//! "The utility updates resource information in the key-value store after a
//! configurable time period (to contain messaging overheads)."
//! [`ResourceMonitor`] decides *when* a node's resource record is due; the
//! runtime samples the node, assembles the record and performs the DHT put.

use std::time::Duration;

use c4h_simnet::SimTime;

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

/// Decides when a node's resource record is due.
///
/// # Examples
///
/// ```
/// use c4h_resources::{MonitorConfig, ResourceMonitor};
/// use c4h_simnet::SimTime;
///
/// let mut monitor = ResourceMonitor::new(MonitorConfig::default());
/// let t0 = SimTime::ZERO;
/// assert!(monitor.due(t0));
/// monitor.mark_published(t0);
/// assert!(!monitor.due(t0)); // not due again until the period elapses
/// assert!(monitor.due(SimTime::from_secs(2)));
/// ```
#[derive(Debug, Clone)]
pub struct ResourceMonitor {
    config: MonitorConfig,
    last_published: Option<SimTime>,
}

impl ResourceMonitor {
    /// Creates a monitor.
    pub fn new(config: MonitorConfig) -> Self {
        ResourceMonitor {
            config,
            last_published: None,
        }
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

    /// Marks the period served: a record was published at `now`.
    pub fn mark_published(&mut self, now: SimTime) {
        self.last_published = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_respects_period() {
        let mut m = ResourceMonitor::new(MonitorConfig {
            update_period: Duration::from_secs(2),
        });
        assert!(m.due(SimTime::ZERO));
        m.mark_published(SimTime::ZERO);
        assert!(!m.due(SimTime::from_secs(1)));
        assert!(m.due(SimTime::from_secs(2)));
    }
}
