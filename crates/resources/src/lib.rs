//! Resource monitoring substrate for the Cloud4Home reproduction.
//!
//! VStore++ "will track resource availability in order to direct requests to
//! appropriate destinations based on their needs and/or resource
//! availability". The paper implements this with a glibtop-based utility
//! that periodically publishes per-node resource usage into the distributed
//! key-value store, and a file-system watcher tracking the mandatory and
//! voluntary storage bins. This crate provides those components, with
//! synthetic (but behaviourally faithful) sensors in place of kernel
//! counters:
//!
//! * [`ResourceSampler`] — mean-reverting ambient CPU load, working-set
//!   memory accounting, and battery drain for portable devices;
//! * [`BinWatcher`] — mandatory/voluntary bin space accounting;
//! * [`ResourceMonitor`] — the configurable period on which the runtime
//!   publishes each node's resource record.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bins;
mod monitor;
mod sampler;

pub use bins::{Bin, BinError, BinWatcher};
pub use monitor::{MonitorConfig, ResourceMonitor};
pub use sampler::{BatteryConfig, ResourceSampler, Sample, SamplerConfig};
