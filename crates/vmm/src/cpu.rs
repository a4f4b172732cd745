//! The CPU execution-time model.
//!
//! Service placement in the paper trades data-movement cost against
//! execution speed on heterogeneous platforms (Figure 7): a low-end Atom VM
//! avoids movement, a quad-core desktop VM computes faster until its small
//! memory grant thrashes, and an EC2 instance wins for the largest inputs.
//! [`exec_time`] captures exactly those effects:
//!
//! * work is measured in normalized [`WorkUnits`] (1.0 = one second on a
//!   1 GHz reference core);
//! * multi-core speedup follows Amdahl's law with a per-service parallel
//!   fraction, bounded by the VM's VCPUs and the host's cores;
//! * a memory-pressure multiplier kicks in superlinearly once the service's
//!   working set exceeds the VM's grant (paging);
//! * a small constant virtualization overhead reflects the paper's
//!   observation that "virtualization requires additional memory resources
//!   and tends to result in higher CPU utilization".

use std::ops::{Add, AddAssign, Mul};
use std::time::Duration;

use crate::platform::PlatformSpec;
use crate::vm::VmSpec;

/// Normalized compute work: 1.0 unit runs for one second on a 1 GHz
/// reference core.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct WorkUnits(pub f64);

impl WorkUnits {
    /// Zero work.
    pub const ZERO: WorkUnits = WorkUnits(0.0);

    /// The raw unit count.
    pub fn raw(self) -> f64 {
        self.0
    }
}

impl Add for WorkUnits {
    type Output = WorkUnits;

    fn add(self, rhs: WorkUnits) -> WorkUnits {
        WorkUnits(self.0 + rhs.0)
    }
}

impl AddAssign for WorkUnits {
    fn add_assign(&mut self, rhs: WorkUnits) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for WorkUnits {
    type Output = WorkUnits;

    fn mul(self, rhs: f64) -> WorkUnits {
        WorkUnits(self.0 * rhs)
    }
}

/// Execution characteristics of a piece of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecProfile {
    /// Fraction of the work that parallelizes across cores (Amdahl).
    pub parallel_fraction: f64,
    /// Peak working-set size in MiB.
    pub mem_required_mib: u64,
}

impl ExecProfile {
    /// A fully sequential, memory-light profile.
    pub fn sequential() -> Self {
        ExecProfile {
            parallel_fraction: 0.0,
            mem_required_mib: 16,
        }
    }
}

/// Constant multiplier for paravirtualized execution.
pub const VIRT_OVERHEAD: f64 = 1.08;

/// Exponent of the memory-pressure (paging) slowdown.
pub const THRASH_EXPONENT: f64 = 2.4;

/// Amdahl speedup for `n` effective cores at parallel fraction `p`.
pub fn amdahl_speedup(p: f64, n: u32) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let n = n.max(1) as f64;
    1.0 / ((1.0 - p) + p / n)
}

/// Memory-pressure multiplier: 1.0 while the working set fits, then a
/// superlinear paging penalty.
pub fn memory_pressure(mem_required_mib: u64, granted_mib: u64) -> f64 {
    if granted_mib == 0 {
        return f64::INFINITY;
    }
    let ratio = mem_required_mib as f64 / granted_mib as f64;
    if ratio <= 1.0 {
        1.0
    } else {
        ratio.powf(THRASH_EXPONENT)
    }
}

/// Time to execute `work` with `profile` inside `vm` on `platform`,
/// accounting for an additional `load` of competing runnable work
/// (0.0 = idle host; 1.0 = one other saturating task).
///
/// # Examples
///
/// ```
/// use c4h_vmm::{exec_time, ExecProfile, PlatformSpec, VmSpec, WorkUnits};
///
/// let profile = ExecProfile { parallel_fraction: 0.9, mem_required_mib: 64 };
/// let slow = exec_time(
///     WorkUnits(10.0),
///     profile,
///     &PlatformSpec::atom_s1(),
///     VmSpec::new(512, 1),
///     0.0,
/// );
/// let fast = exec_time(
///     WorkUnits(10.0),
///     profile,
///     &PlatformSpec::ec2_extra_large(),
///     VmSpec::new(4096, 5),
///     0.0,
/// );
/// assert!(fast < slow);
/// ```
pub fn exec_time(
    work: WorkUnits,
    profile: ExecProfile,
    platform: &PlatformSpec,
    vm: VmSpec,
    load: f64,
) -> Duration {
    let effective_cores = vm.vcpus.min(platform.cores).max(1);
    let speedup = amdahl_speedup(profile.parallel_fraction, effective_cores);
    let rate_ghz = platform.cpu_ghz * speedup;
    let pressure = memory_pressure(profile.mem_required_mib, vm.mem_mib);
    let contention = 1.0 + load.max(0.0);
    let secs = work.raw() / rate_ghz * pressure * VIRT_OVERHEAD * contention;
    if !secs.is_finite() {
        return Duration::MAX;
    }
    Duration::from_secs_f64(secs.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_limits() {
        assert!((amdahl_speedup(0.0, 8) - 1.0).abs() < 1e-9);
        assert!((amdahl_speedup(1.0, 8) - 8.0).abs() < 1e-9);
        let s = amdahl_speedup(0.5, 4);
        assert!(s > 1.0 && s < 2.0);
        assert_eq!(amdahl_speedup(0.9, 0), 1.0); // clamped core count
    }

    #[test]
    fn memory_pressure_is_one_when_fitting() {
        assert_eq!(memory_pressure(100, 128), 1.0);
        assert_eq!(memory_pressure(128, 128), 1.0);
        assert!(memory_pressure(160, 128) > 1.5);
        assert!(memory_pressure(256, 128) > memory_pressure(160, 128));
        assert!(memory_pressure(1, 0).is_infinite());
    }

    #[test]
    fn faster_platform_is_faster() {
        let profile = ExecProfile {
            parallel_fraction: 0.9,
            mem_required_mib: 64,
        };
        let w = WorkUnits(20.0);
        let s1 = exec_time(
            w,
            profile,
            &PlatformSpec::atom_s1(),
            VmSpec::new(512, 1),
            0.0,
        );
        let s2 = exec_time(
            w,
            profile,
            &PlatformSpec::desktop_s2(),
            VmSpec::new(512, 4),
            0.0,
        );
        assert!(s2 < s1, "quad desktop should beat single-vcpu Atom");
    }

    #[test]
    fn small_vm_thrashes_on_big_working_set() {
        // Figure 7's S2 effect: the 128 MB VM slows once FRec's working set
        // exceeds its grant, letting the remote cloud win.
        let profile = ExecProfile {
            parallel_fraction: 0.6,
            mem_required_mib: 260,
        };
        let w = WorkUnits(20.0);
        let starved = exec_time(
            w,
            profile,
            &PlatformSpec::desktop_s2(),
            VmSpec::new(128, 4),
            0.0,
        );
        let roomy = exec_time(
            w,
            profile,
            &PlatformSpec::ec2_extra_large(),
            VmSpec::new(8192, 5),
            0.0,
        );
        assert!(
            starved > roomy * 2,
            "thrashing VM ({starved:?}) should lose badly to the large instance ({roomy:?})"
        );
    }

    #[test]
    fn load_scales_linearly() {
        let profile = ExecProfile::sequential();
        let w = WorkUnits(5.0);
        let idle = exec_time(
            w,
            profile,
            &PlatformSpec::desktop_quad(),
            VmSpec::new(256, 1),
            0.0,
        );
        let busy = exec_time(
            w,
            profile,
            &PlatformSpec::desktop_quad(),
            VmSpec::new(256, 1),
            1.0,
        );
        assert!((busy.as_secs_f64() / idle.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn work_units_arithmetic() {
        let mut w = WorkUnits(1.0) + WorkUnits(2.0);
        w += WorkUnits(3.0);
        assert_eq!(w.raw(), 6.0);
        assert_eq!((w * 0.5).raw(), 3.0);
        assert_eq!(WorkUnits::ZERO.raw(), 0.0);
    }
}
