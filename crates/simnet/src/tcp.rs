//! Phase-based TCP transfer model.
//!
//! The paper's Figure 5 attributes the throughput-vs-object-size curve of
//! remote-cloud transfers to three transport-level effects:
//!
//! 1. short transfers spend most of their life in slow start / window
//!    ramp-up, so their average throughput is poor;
//! 2. providers such as S3 grow the TCP window during a transfer up to a cap
//!    (≈1.6 MB for S3), so longer transfers reach a higher steady rate;
//! 3. ISPs rate-limit long "bandwidth-hogging" transfers, so beyond some
//!    size average throughput degrades again.
//!
//! [`TcpProfile`] models this as a per-flow rate cap that (a) ramps up in
//! discrete steps of `ramp_step` while the flow is active, saturating at
//! `rate_cap_bps`, and (b) drops to a sustained rate once a byte threshold is
//! crossed ([`SustainedCap`]). The same sustained-cap mechanism models the
//! home-LAN effect visible in the paper's Table I, where large transfers
//! degrade to the receiver's disk-bound rate once the page cache is
//! exhausted.
//!
//! The model is deliberately fluid (rates, not packets): the experiments only
//! depend on *average* throughput as a function of transfer size and on fair
//! sharing between concurrent flows, which this reproduces at a tiny fraction
//! of the cost of packet-level simulation.

use std::time::Duration;

use crate::time::duration_from_secs_f64;

/// Rate limitation applied after a flow has moved a threshold number of
/// bytes.
///
/// Models both ISP traffic shaping of long WAN transfers (paper §V-A) and
/// page-cache exhaustion on LAN receivers (Table I's sub-linear inter-node
/// costs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SustainedCap {
    /// Cumulative bytes after which the cap applies.
    pub threshold_bytes: u64,
    /// The rate (bytes/second) allowed once the threshold is crossed.
    pub rate_bps: f64,
}

/// Parameters of the phase-based TCP model for one link class.
///
/// A flow's instantaneous rate cap is:
///
/// ```text
/// cap(t, sent) = if sent >= sustained.threshold { sustained.rate }
///                else min(rate_cap, rate_floor + ramp_bps_per_sec * t)
/// ```
///
/// quantized into steps of `ramp_step` so the fluid network model only deals
/// with piecewise-constant rates. The `setup` duration models connection
/// establishment plus request round trips and is charged before any byte
/// moves.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpProfile {
    /// Connection setup + request overhead charged before the first byte.
    pub setup: Duration,
    /// Rate cap at flow start (bytes/second), before any ramp-up.
    pub rate_floor_bps: f64,
    /// Additive rate growth while the flow is active (bytes/second²).
    pub ramp_bps_per_sec: f64,
    /// Quantization step for the ramp; cap changes are events at this period.
    pub ramp_step: Duration,
    /// Maximum per-flow rate (bytes/second): the provider window cap divided
    /// by the RTT, or the NIC limit, whichever binds.
    pub rate_cap_bps: f64,
    /// Optional long-transfer degradation.
    pub sustained: Option<SustainedCap>,
}

impl TcpProfile {
    /// A profile with a constant rate cap and no setup cost, ramp, or
    /// sustained degradation. Useful in tests.
    pub fn constant_rate(rate_bps: f64) -> Self {
        TcpProfile {
            setup: Duration::ZERO,
            rate_floor_bps: rate_bps,
            ramp_bps_per_sec: 0.0,
            ramp_step: Duration::from_secs(1),
            rate_cap_bps: rate_bps,
            sustained: None,
        }
    }

    /// The rate cap (bytes/second) for a flow that has been active for
    /// `active` time and has already moved `sent` bytes, before any
    /// bandwidth-sharing or variability factors are applied.
    pub fn cap_at(&self, active: Duration, sent: u64) -> f64 {
        if let Some(s) = self.sustained {
            if sent >= s.threshold_bytes {
                return s.rate_bps;
            }
        }
        // Whole steps by integer division of nanoseconds: at a boundary the
        // cap is already the new one (`0.15 / 0.05` floors to 2 in `f64`).
        // In `u64`, which a `SimTime` is: `u128` division is a library call.
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let steps = match nanos(self.ramp_step) {
            0 => 0,
            step => nanos(active) / step,
        };
        let ramped = self.rate_floor_bps
            + self.ramp_bps_per_sec * self.ramp_step.as_secs_f64() * steps as f64;
        ramped.min(self.rate_cap_bps)
    }

    /// Number of `ramp_step` periods needed for the ramp to saturate at
    /// `rate_cap_bps`.
    pub fn steps_to_saturation(&self) -> u64 {
        if self.ramp_bps_per_sec <= 0.0 || self.rate_floor_bps >= self.rate_cap_bps {
            return 0;
        }
        let per_step = self.ramp_bps_per_sec * self.ramp_step.as_secs_f64();
        if per_step <= 0.0 {
            return 0;
        }
        ((self.rate_cap_bps - self.rate_floor_bps) / per_step).ceil() as u64
    }

    /// Analytic transfer time for a single uncontended flow of `bytes`,
    /// optionally limited by an external bottleneck rate (e.g. the physical
    /// segment capacity) and scaled by a per-flow bandwidth factor.
    ///
    /// This mirrors exactly what the fluid network computes for a lone flow
    /// and is used by the VStore++ decision engine to estimate data-movement
    /// costs, and by tests as an oracle.
    pub fn transfer_time(&self, bytes: u64, bottleneck_bps: f64, factor: f64) -> Duration {
        let mut remaining = bytes as f64;
        let mut sent = 0u64;
        let mut t = self.setup.as_secs_f64();
        let mut active = Duration::ZERO;
        let step = self.ramp_step.max(Duration::from_millis(1));
        // Walk the piecewise-constant cap schedule.
        let mut guard = 0u32;
        while remaining > 1e-6 {
            guard += 1;
            assert!(guard < 1_000_000, "transfer_time failed to converge");
            let cap = (self.cap_at(active, sent) * factor).min(bottleneck_bps);
            assert!(cap > 0.0, "transfer cap must be positive");
            // Until the next cap change: either a ramp step boundary or the
            // sustained threshold crossing.
            let mut window = f64::INFINITY;
            if self.ramp_bps_per_sec > 0.0 && self.cap_at(active, sent) < self.rate_cap_bps {
                window = step.as_secs_f64();
            }
            if let Some(s) = self.sustained {
                if sent < s.threshold_bytes {
                    let to_thresh = (s.threshold_bytes - sent) as f64 / cap;
                    window = window.min(to_thresh);
                }
            }
            let finish = remaining / cap;
            let dt = finish.min(window);
            let moved = cap * dt;
            remaining -= moved;
            sent += moved.round() as u64;
            t += dt;
            active += duration_from_secs_f64(dt);
        }
        duration_from_secs_f64(t)
    }

    /// Analytic transfer time for a *chunked* transfer: `bytes` split into
    /// pipelined chunks of `chunk_bytes` with up to `window` chunk flows in
    /// flight at once (see `FlowNet::start_transfer`).
    ///
    /// The approximation treats the chunk pipeline as one aggregate flow
    /// whose floor/ramp/cap scale with the effective parallelism, and whose
    /// sustained degradation only applies if a single chunk can cross the
    /// per-flow threshold. Used by the decision engine so placement costs
    /// reflect the chunked data path; the fluid engine remains the ground
    /// truth.
    pub fn chunked_transfer_time(
        &self,
        bytes: u64,
        chunk_bytes: u64,
        window: usize,
        bottleneck_bps: f64,
        factor: f64,
    ) -> Duration {
        if chunk_bytes == 0 || bytes <= chunk_bytes || window < 2 {
            return self.transfer_time(bytes, bottleneck_bps, factor);
        }
        let chunks = bytes.div_ceil(chunk_bytes);
        let par = (window as u64).min(chunks) as f64;
        let mut agg = self.clone();
        agg.rate_floor_bps *= par;
        agg.ramp_bps_per_sec *= par;
        agg.rate_cap_bps *= par;
        agg.sustained = self.sustained.and_then(|s| {
            if chunk_bytes < s.threshold_bytes {
                // No single chunk moves enough bytes to trip the per-flow
                // shaping threshold.
                None
            } else {
                Some(SustainedCap {
                    threshold_bytes: s.threshold_bytes.saturating_mul(par as u64),
                    rate_bps: s.rate_bps * par,
                })
            }
        });
        agg.transfer_time(bytes, bottleneck_bps, factor)
    }

    /// Average throughput (bytes/second) for a single uncontended transfer of
    /// `bytes`, including setup cost.
    pub fn average_throughput(&self, bytes: u64, bottleneck_bps: f64, factor: f64) -> f64 {
        let t = self
            .transfer_time(bytes, bottleneck_bps, factor)
            .as_secs_f64();
        if t <= 0.0 {
            f64::INFINITY
        } else {
            bytes as f64 / t
        }
    }
}

/// Convenience: megabytes to bytes.
pub const fn mib(n: u64) -> u64 {
    n * 1024 * 1024
}

/// Convenience: megabits per second to bytes per second.
pub const fn mbps(n: f64) -> f64 {
    n * 1_000_000.0 / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wan_like() -> TcpProfile {
        TcpProfile {
            setup: Duration::from_millis(300),
            rate_floor_bps: 40_000.0,
            ramp_bps_per_sec: 12_000.0,
            ramp_step: Duration::from_millis(500),
            rate_cap_bps: 200_000.0,
            sustained: Some(SustainedCap {
                threshold_bytes: mib(20),
                rate_bps: 100_000.0,
            }),
        }
    }

    #[test]
    fn constant_profile_is_linear() {
        let p = TcpProfile::constant_rate(1_000_000.0);
        let t = p.transfer_time(2_000_000, f64::INFINITY, 1.0);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn cap_ramps_and_saturates() {
        let p = wan_like();
        assert_eq!(p.cap_at(Duration::ZERO, 0), 40_000.0);
        let later = p.cap_at(Duration::from_secs(5), 0);
        assert!(later > 40_000.0);
        assert_eq!(p.cap_at(Duration::from_secs(3600), 0), 200_000.0);
    }

    #[test]
    fn cap_at_a_step_boundary_is_already_the_new_step() {
        let mut p = wan_like();
        p.ramp_step = Duration::from_millis(50);
        let per_step = p.ramp_bps_per_sec * 0.05;
        for k in 0..6u32 {
            let at = Duration::from_millis(50) * k;
            assert_eq!(p.cap_at(at, 0), p.rate_floor_bps + per_step * f64::from(k));
        }
        // One nanosecond earlier is still the step before.
        let before = Duration::from_millis(150) - Duration::from_nanos(1);
        assert_eq!(p.cap_at(before, 0), p.rate_floor_bps + per_step * 2.0);
    }

    #[test]
    fn sustained_cap_applies_after_threshold() {
        let p = wan_like();
        assert_eq!(p.cap_at(Duration::from_secs(3600), mib(20)), 100_000.0);
        assert_eq!(p.cap_at(Duration::from_secs(3600), mib(20) - 1), 200_000.0);
    }

    #[test]
    fn medium_transfers_beat_small_ones_in_throughput() {
        let p = wan_like();
        let small = p.average_throughput(mib(1), f64::INFINITY, 1.0);
        let medium = p.average_throughput(mib(15), f64::INFINITY, 1.0);
        assert!(
            medium > small * 1.5,
            "ramp-up should penalize small transfers: small={small} medium={medium}"
        );
    }

    #[test]
    fn shaping_penalizes_very_large_transfers() {
        let p = wan_like();
        let medium = p.average_throughput(mib(18), f64::INFINITY, 1.0);
        let huge = p.average_throughput(mib(100), f64::INFINITY, 1.0);
        assert!(
            huge < medium,
            "ISP shaping should bend the curve down: medium={medium} huge={huge}"
        );
    }

    #[test]
    fn bottleneck_limits_rate() {
        let p = TcpProfile::constant_rate(10_000_000.0);
        let t = p.transfer_time(1_000_000, 1_000_000.0, 1.0);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn factor_scales_rate() {
        let p = TcpProfile::constant_rate(1_000_000.0);
        let t = p.transfer_time(1_000_000, f64::INFINITY, 0.5);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn steps_to_saturation_counts() {
        let p = wan_like();
        // (200k - 40k) / (12k * 0.5) = 26.66 -> 27
        assert_eq!(p.steps_to_saturation(), 27);
        assert_eq!(TcpProfile::constant_rate(1.0).steps_to_saturation(), 0);
    }

    #[test]
    fn chunked_estimate_beats_single_flow_on_capped_links() {
        let p = wan_like();
        let single = p.transfer_time(mib(40), f64::INFINITY, 1.0);
        let chunked = p.chunked_transfer_time(mib(40), mib(4), 4, f64::INFINITY, 1.0);
        assert!(
            chunked < single,
            "chunking should amortize ramp-up and dodge shaping: {chunked:?} vs {single:?}"
        );
    }

    #[test]
    fn chunked_estimate_respects_the_bottleneck() {
        let p = TcpProfile::constant_rate(100_000.0);
        // Four-way parallelism cannot exceed the 150 kB/s segment.
        let t = p.chunked_transfer_time(600_000, 100_000, 4, 150_000.0, 1.0);
        assert!((t.as_secs_f64() - 4.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn chunked_estimate_degenerates_to_single_flow() {
        let p = wan_like();
        let single = p.transfer_time(mib(1), f64::INFINITY, 1.0);
        assert_eq!(
            p.chunked_transfer_time(mib(1), mib(4), 4, f64::INFINITY, 1.0),
            single
        );
        assert_eq!(
            p.chunked_transfer_time(mib(1), 0, 4, f64::INFINITY, 1.0),
            single
        );
        assert_eq!(
            p.chunked_transfer_time(mib(1), mib(4), 1, f64::INFINITY, 1.0),
            single
        );
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(mib(2), 2 * 1024 * 1024);
        assert!((mbps(8.0) - 1_000_000.0).abs() < 1e-9);
    }
}
