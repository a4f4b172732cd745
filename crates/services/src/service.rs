//! The service abstraction.
//!
//! VStore++ "supports process operations, which allow a service deployed in
//! the home cloud to be invoked explicitly, or jointly with the object store
//! or fetch operation". A [`Service`] pairs:
//!
//! * a real byte-level kernel ([`Service::run`]) so processing has observable
//!   input→output behaviour, and
//! * a calibrated cost model ([`Service::demand`]) from which the runtime
//!   derives virtual execution time on a given platform/VM via
//!   [`c4h_vmm::exec_time`].
//!
//! "Additional service information is maintained in service profiles, which
//! encode the minimum resource requirements for a service for a given SLA
//! for the different types of nodes" — [`MinRequirements`] captures that,
//! and the decision engine filters candidate nodes with it.

use std::fmt;

use c4h_vmm::{ExecProfile, WorkUnits};

/// Identifier of a deployed service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub u32);

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc#{}", self.0)
    }
}

/// The resource demand of one invocation on a given input size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceDemand {
    /// Normalized compute work.
    pub work: WorkUnits,
    /// Parallelism and working-set characteristics.
    pub exec: ExecProfile,
    /// Expected output size in bytes.
    pub output_bytes: u64,
}

/// Minimum resources a node must offer to host the service at its SLA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinRequirements {
    /// Minimum VM memory grant, MiB.
    pub min_mem_mib: u64,
    /// Minimum per-core clock, GHz.
    pub min_cpu_ghz: f64,
}

/// Output of a service invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceOutput {
    /// The transformed object bytes.
    pub data: Vec<u8>,
    /// Human-readable result summary (e.g. "best match: 7").
    pub summary: String,
}

/// A data-manipulation service deployable on home or cloud nodes.
pub trait Service: fmt::Debug + Send + Sync {
    /// The service's stable identifier.
    fn id(&self) -> ServiceId;

    /// The service's registered name.
    fn name(&self) -> &str;

    /// The cost model for an input of `input_bytes`.
    fn demand(&self, input_bytes: u64) -> ServiceDemand;

    /// The profile's minimum node requirements.
    fn min_requirements(&self) -> MinRequirements;

    /// Executes the kernel on real bytes.
    ///
    /// Large synthetic objects may be represented by a sample window of
    /// their content; the cost model uses the declared size, while the
    /// kernel validates behaviour on the sample.
    fn run(&self, input: &[u8]) -> ServiceOutput;
}

/// Converts bytes to fractional MiB (the unit the calibration formulas use).
pub fn mib_f64(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_id_displays() {
        assert_eq!(ServiceId(3).to_string(), "svc#3");
    }

    #[test]
    fn mib_conversion() {
        assert_eq!(mib_f64(1024 * 1024), 1.0);
        assert_eq!(mib_f64(512 * 1024), 0.5);
    }
}
