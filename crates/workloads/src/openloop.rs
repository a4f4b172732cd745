//! Open-loop arrival generation.
//!
//! The closed-loop trace replay in [`crate::generate`] paces each client by
//! think times: a slow system slows its own offered load, which hides
//! overload. Capacity and overload-protection experiments need the opposite
//! — an **open-loop** arrival process whose rate is set by the outside
//! world, not by the system's responsiveness, so queues actually build when
//! the offered load exceeds capacity.
//!
//! [`arrivals`] draws a deterministic Poisson arrival stream: exponential
//! interarrival gaps at a configurable base rate, an optional *flash crowd*
//! window during which the rate is multiplied, an N-tenant client mix with
//! an optional hot tenant hogging a configurable share, and a Zipf-popular
//! object catalog with a store/fetch split. Same seed, same stream.

use std::time::Duration;

use c4h_simnet::{DetRng, Zipf};
use serde::{Deserialize, Serialize};

use crate::trace::OpKind;

/// Configuration for the open-loop arrival generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// Steady-state mean arrival rate in operations per second.
    pub base_rate_hz: f64,
    /// Length of the generated window; arrivals land in `[0, horizon)`.
    pub horizon: Duration,
    /// Number of issuing tenants (clients). Drawn uniformly unless
    /// [`hot_tenant_share`](Self::hot_tenant_share) skews toward tenant 0.
    pub tenants: usize,
    /// Probability mass routed to tenant 0 before the uniform draw over all
    /// tenants; `0.0` keeps the mix uniform. Used to provoke per-tenant
    /// fairness in the admission controller.
    pub hot_tenant_share: f64,
    /// Probability an arrival is a store; the rest are fetches.
    pub store_fraction: f64,
    /// Number of distinct objects in the catalog.
    pub catalog: usize,
    /// Zipf exponent of object popularity.
    pub zipf_exponent: f64,
    /// Start of the flash-crowd window.
    pub flash_start: Duration,
    /// Length of the flash-crowd window; zero disables the flash crowd.
    pub flash_duration: Duration,
    /// Rate multiplier inside the flash-crowd window (`1.0` = no surge).
    pub flash_multiplier: f64,
}

impl OpenLoopConfig {
    /// A steady stream with no flash crowd: `rate_hz` arrivals per second
    /// over `horizon`, uniform tenants, 40 % stores.
    pub fn steady(rate_hz: f64, horizon: Duration, tenants: usize) -> Self {
        OpenLoopConfig {
            base_rate_hz: rate_hz,
            horizon,
            tenants,
            hot_tenant_share: 0.0,
            store_fraction: 0.4,
            catalog: 64,
            zipf_exponent: 0.9,
            flash_start: Duration::ZERO,
            flash_duration: Duration::ZERO,
            flash_multiplier: 1.0,
        }
    }

    /// The same stream with a flash crowd: the arrival rate is multiplied
    /// by `multiplier` inside `[start, start + duration)`.
    pub fn with_flash(mut self, start: Duration, duration: Duration, multiplier: f64) -> Self {
        self.flash_start = start;
        self.flash_duration = duration;
        self.flash_multiplier = multiplier;
        self
    }

    /// The instantaneous arrival rate at offset `t` from the window start.
    pub fn rate_at(&self, t: Duration) -> f64 {
        let in_flash = !self.flash_duration.is_zero()
            && t >= self.flash_start
            && t < self.flash_start + self.flash_duration;
        if in_flash {
            self.base_rate_hz * self.flash_multiplier
        } else {
            self.base_rate_hz
        }
    }

    /// The expected number of arrivals over the whole window (the integral
    /// of the rate function) — handy for sizing result buffers and sanity
    /// checks.
    pub fn expected_arrivals(&self) -> f64 {
        let steady = self.base_rate_hz * self.horizon.as_secs_f64();
        if self.flash_duration.is_zero() {
            return steady;
        }
        let flash_end = (self.flash_start + self.flash_duration).min(self.horizon);
        let overlap = flash_end.saturating_sub(self.flash_start).as_secs_f64();
        steady + self.base_rate_hz * (self.flash_multiplier - 1.0) * overlap
    }
}

/// One arrival of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Offset from the window start at which the operation is submitted.
    pub at: Duration,
    /// Issuing tenant (0-based client index).
    pub tenant: usize,
    /// Store or fetch.
    pub op: OpKind,
    /// Index into the object catalog.
    pub object: usize,
}

/// Draws the deterministic open-loop arrival stream for `config`.
///
/// Interarrival gaps are exponential at the rate in force at the *previous*
/// arrival (a standard piecewise approximation of a nonhomogeneous Poisson
/// process; exact within each constant-rate segment). Arrivals are returned
/// in nondecreasing time order.
///
/// # Panics
///
/// Panics if `tenants` or `catalog` is zero, or if `base_rate_hz` is not a
/// positive finite number.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use c4h_workloads::{arrivals, OpenLoopConfig};
///
/// let config = OpenLoopConfig::steady(50.0, Duration::from_secs(20), 4);
/// let stream = arrivals(&config, 7);
/// // ~1000 expected arrivals; Poisson noise stays well inside ±30 %.
/// assert!((700..1300).contains(&stream.len()), "{}", stream.len());
/// assert!(stream.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
pub fn arrivals(config: &OpenLoopConfig, seed: u64) -> Vec<Arrival> {
    assert!(config.tenants > 0, "need at least one tenant");
    assert!(config.catalog > 0, "need at least one object");
    assert!(
        config.base_rate_hz.is_finite() && config.base_rate_hz > 0.0,
        "base rate must be positive"
    );
    let mut rng = DetRng::seed(seed);
    let popularity = Zipf::new(config.catalog, config.zipf_exponent);
    let horizon = config.horizon.as_secs_f64();
    let mut out = Vec::with_capacity(config.expected_arrivals() as usize + 16);
    let mut t = 0.0f64;
    loop {
        let rate = config.rate_at(Duration::from_secs_f64(t));
        // Exponential gap via inverse CDF; the lower clamp keeps ln finite.
        let u = rng.uniform(1e-12, 1.0);
        t += -u.ln() / rate;
        if t >= horizon {
            break;
        }
        let tenant = if config.hot_tenant_share > 0.0 && rng.chance(config.hot_tenant_share) {
            0
        } else {
            rng.uniform_u64(0, config.tenants as u64) as usize
        };
        let op = if rng.chance(config.store_fraction) {
            OpKind::Store
        } else {
            OpKind::Fetch
        };
        let object = popularity.sample(&mut rng);
        out.push(Arrival {
            at: Duration::from_secs_f64(t),
            tenant,
            op,
            object,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> OpenLoopConfig {
        OpenLoopConfig::steady(100.0, Duration::from_secs(30), 6)
    }

    #[test]
    fn stream_is_deterministic() {
        assert_eq!(arrivals(&base(), 42), arrivals(&base(), 42));
        assert_ne!(arrivals(&base(), 42), arrivals(&base(), 43));
    }

    #[test]
    fn arrival_count_tracks_expected_rate() {
        let config = base();
        let n = arrivals(&config, 3).len() as f64;
        let expect = config.expected_arrivals();
        assert!(
            (expect * 0.8..expect * 1.2).contains(&n),
            "got {n}, expected near {expect}"
        );
    }

    #[test]
    fn arrivals_are_ordered_and_inside_the_window() {
        let config = base();
        let stream = arrivals(&config, 9);
        assert!(stream.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(stream.iter().all(|a| a.at < config.horizon));
    }

    #[test]
    fn flash_crowd_densifies_its_window() {
        let config = base().with_flash(Duration::from_secs(10), Duration::from_secs(10), 4.0);
        let stream = arrivals(&config, 5);
        let in_flash = stream
            .iter()
            .filter(|a| a.at >= Duration::from_secs(10) && a.at < Duration::from_secs(20))
            .count();
        let before = stream
            .iter()
            .filter(|a| a.at < Duration::from_secs(10))
            .count();
        assert!(
            in_flash > before * 2,
            "flash window should be much denser: {in_flash} vs {before}"
        );
    }

    #[test]
    fn expected_arrivals_accounts_for_the_flash() {
        let steady = base();
        assert!((steady.expected_arrivals() - 3000.0).abs() < 1e-9);
        let flashed = base().with_flash(Duration::from_secs(10), Duration::from_secs(10), 4.0);
        assert!((flashed.expected_arrivals() - 6000.0).abs() < 1e-9);
    }

    #[test]
    fn tenants_are_uniform_without_a_hot_share() {
        let stream = arrivals(&base(), 17);
        let used: std::collections::HashSet<usize> = stream.iter().map(|a| a.tenant).collect();
        assert_eq!(used.len(), 6, "all tenants should issue traffic");
    }

    #[test]
    fn hot_tenant_hogs_its_share() {
        let mut config = base();
        config.hot_tenant_share = 0.5;
        let stream = arrivals(&config, 21);
        let hot = stream.iter().filter(|a| a.tenant == 0).count() as f64;
        let frac = hot / stream.len() as f64;
        // 50% routed outright plus 1/6th of the uniform remainder ≈ 0.58.
        assert!((0.5..0.7).contains(&frac), "hot share {frac}");
    }

    #[test]
    fn store_fraction_is_respected() {
        let stream = arrivals(&base(), 31);
        let stores = stream.iter().filter(|a| a.op == OpKind::Store).count() as f64;
        let frac = stores / stream.len() as f64;
        assert!((0.3..0.5).contains(&frac), "store fraction {frac}");
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let stream = arrivals(&base(), 13);
        let mut counts = vec![0usize; 64];
        for a in &stream {
            counts[a.object] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        let mean = stream.len() / 64;
        assert!(
            hottest > mean * 5,
            "Zipf catalog should concentrate accesses: hottest {hottest}, mean {mean}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_panics() {
        let mut config = base();
        config.tenants = 0;
        arrivals(&config, 0);
    }
}
